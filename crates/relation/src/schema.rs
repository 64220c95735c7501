//! Schemas, columns and union-compatibility (§2.4).

use std::sync::Arc;

use crate::domain::DomainId;
use crate::error::RelationError;

/// One named column drawn from an underlying domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (for humans and projection lists).
    pub name: String,
    /// The underlying domain the column's entries are drawn from.
    pub domain: DomainId,
}

impl Column {
    /// Build a column.
    pub fn new(name: impl Into<String>, domain: DomainId) -> Self {
        Column {
            name: name.into(),
            domain,
        }
    }
}

/// An ordered list of columns; tuples of a relation with this schema carry
/// one encoded element per column. Immutable once built, so clones share
/// the column list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Arc<[Column]>,
}

impl Schema {
    /// Build a schema from columns.
    ///
    /// # Panics
    /// Panics on an empty column list: a relation must have at least one
    /// column.
    pub fn new(columns: Vec<Column>) -> Self {
        assert!(!columns.is_empty(), "schema must have at least one column");
        Schema {
            columns: columns.into(),
        }
    }

    /// A schema of `m` columns all drawn from the same `domain`, named
    /// `c0..c{m-1}` — convenient for synthetic workloads.
    pub fn uniform(m: usize, domain: DomainId) -> Self {
        Schema::new(
            (0..m)
                .map(|k| Column::new(format!("c{k}"), domain))
                .collect(),
        )
    }

    /// Number of columns (the paper's `m`).
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column at `index`.
    pub fn column(&self, index: usize) -> Result<&Column, RelationError> {
        self.columns
            .get(index)
            .ok_or(RelationError::ColumnOutOfRange {
                index,
                arity: self.arity(),
            })
    }

    /// Resolve a column name to its index.
    pub fn col_index(&self, name: &str) -> Result<usize, RelationError> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| RelationError::UnknownColumn {
                name: name.to_string(),
            })
    }

    /// §2.4: two relations are union-compatible iff they have the same number
    /// of columns and corresponding columns are drawn from the same
    /// underlying domain. Column *names* are irrelevant.
    pub fn union_compatible(&self, other: &Schema) -> bool {
        self.arity() == other.arity()
            && self
                .columns
                .iter()
                .zip(other.columns.iter())
                .all(|(a, b)| a.domain == b.domain)
    }

    /// Check union-compatibility, producing a descriptive error on failure.
    pub fn require_union_compatible(&self, other: &Schema) -> Result<(), RelationError> {
        if self.arity() != other.arity() {
            return Err(RelationError::NotUnionCompatible {
                detail: format!("arity {} vs {}", self.arity(), other.arity()),
            });
        }
        for (k, (a, b)) in self.columns.iter().zip(other.columns.iter()).enumerate() {
            if a.domain != b.domain {
                return Err(RelationError::NotUnionCompatible {
                    detail: format!(
                        "column {k} drawn from domain {:?} vs {:?}",
                        a.domain, b.domain
                    ),
                });
            }
        }
        Ok(())
    }

    /// The schema of a projection over the given column indices (§5:
    /// "projection of a relation A over a column, or list of columns, f").
    pub fn project(&self, cols: &[usize]) -> Result<Schema, RelationError> {
        if cols.is_empty() {
            return Err(RelationError::EmptyProjection);
        }
        let mut out = Vec::with_capacity(cols.len());
        for &index in cols {
            out.push(self.column(index)?.clone());
        }
        Ok(Schema::new(out))
    }

    /// The schema of the join `A |x| B` over `(col_a, col_b)` column pairs:
    /// all columns of `A` followed by the columns of `B` that are *not* join
    /// columns — "only one of a_i,CA and b_j,CB is included in the
    /// concatenation" (§6.1).
    pub fn join(&self, other: &Schema, pairs: &[(usize, usize)]) -> Result<Schema, RelationError> {
        for &(ca, cb) in pairs {
            let a = self.column(ca)?;
            let b = other.column(cb)?;
            if a.domain != b.domain {
                return Err(RelationError::NotUnionCompatible {
                    detail: format!(
                        "join columns {ca}/{cb} drawn from different domains {:?} vs {:?}",
                        a.domain, b.domain
                    ),
                });
            }
        }
        let mut out = self.columns.to_vec();
        for (k, col) in other.columns.iter().enumerate() {
            if !pairs.iter().any(|&(_, cb)| cb == k) {
                out.push(col.clone());
            }
        }
        Ok(Schema::new(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dom(k: usize) -> DomainId {
        DomainId(k)
    }

    #[test]
    fn union_compatibility_ignores_names_but_not_domains() {
        let a = Schema::new(vec![Column::new("x", dom(0)), Column::new("y", dom(1))]);
        let b = Schema::new(vec![Column::new("p", dom(0)), Column::new("q", dom(1))]);
        let c = Schema::new(vec![Column::new("x", dom(0)), Column::new("y", dom(2))]);
        let d = Schema::new(vec![Column::new("x", dom(0))]);
        assert!(a.union_compatible(&b));
        assert!(!a.union_compatible(&c));
        assert!(!a.union_compatible(&d));
        assert!(a.require_union_compatible(&b).is_ok());
        let err = a.require_union_compatible(&c).unwrap_err();
        assert!(err.to_string().contains("column 1"));
        let err = a.require_union_compatible(&d).unwrap_err();
        assert!(err.to_string().contains("arity"));
    }

    #[test]
    fn col_index_resolves_names() {
        let s = Schema::new(vec![
            Column::new("name", dom(0)),
            Column::new("salary", dom(1)),
        ]);
        assert_eq!(s.col_index("salary").unwrap(), 1);
        assert!(s.col_index("children").is_err());
    }

    #[test]
    fn projection_schema_keeps_order_and_allows_repeats() {
        let s = Schema::new(vec![
            Column::new("a", dom(0)),
            Column::new("b", dom(1)),
            Column::new("c", dom(2)),
        ]);
        let p = s.project(&[2, 0]).unwrap();
        assert_eq!(p.columns()[0].name, "c");
        assert_eq!(p.columns()[1].name, "a");
        assert!(s.project(&[]).is_err());
        assert!(s.project(&[9]).is_err());
    }

    #[test]
    fn join_schema_drops_the_redundant_column() {
        // A(x, k) join B(k, y) over (1, 0) -> (x, k, y): B's key column is
        // omitted, per Codd's convention adopted by the paper.
        let a = Schema::new(vec![Column::new("x", dom(0)), Column::new("k", dom(1))]);
        let b = Schema::new(vec![Column::new("k", dom(1)), Column::new("y", dom(2))]);
        let j = a.join(&b, &[(1, 0)]).unwrap();
        let names: Vec<_> = j.columns().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["x", "k", "y"]);
    }

    #[test]
    fn join_requires_matching_key_domains() {
        let a = Schema::new(vec![Column::new("k", dom(0))]);
        let b = Schema::new(vec![Column::new("k", dom(1))]);
        assert!(a.join(&b, &[(0, 0)]).is_err());
    }

    #[test]
    fn uniform_schema_has_uniform_domains() {
        let s = Schema::uniform(3, dom(7));
        assert_eq!(s.arity(), 3);
        assert!(s.columns().iter().all(|c| c.domain == dom(7)));
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_schema_rejected() {
        Schema::new(vec![]);
    }
}
