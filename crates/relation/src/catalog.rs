//! The catalog: owns domains and their dictionaries (§2.3: "the list of
//! encodings is stored separately").

use crate::domain::{Datum, Domain, DomainId, DomainKind, Elem};
use crate::error::RelationError;
use crate::relation::{MultiRelation, Relation};
use crate::schema::Schema;

/// Owns the underlying domains; the single place where typed data is encoded
/// to integers on the way into the arrays, and decoded on the way out.
#[derive(Debug, Default)]
pub struct Catalog {
    domains: Vec<Domain>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a domain, returning its id.
    pub fn add_domain(&mut self, name: impl Into<String>, kind: DomainKind) -> DomainId {
        self.domains.push(Domain::new(name, kind));
        DomainId(self.domains.len() - 1)
    }

    /// Look up a domain.
    pub fn domain(&self, id: DomainId) -> &Domain {
        &self.domains[id.0]
    }

    /// Mutable access (for interning encodes).
    pub fn domain_mut(&mut self, id: DomainId) -> &mut Domain {
        &mut self.domains[id.0]
    }

    /// Number of registered domains.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// `true` if no domains are registered.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Encode one typed row against `schema`, interning new string values,
    /// and append its codes to `out`. On an error `out` is left as it was.
    pub fn encode_row(
        &mut self,
        schema: &Schema,
        row: &[Datum],
        out: &mut Vec<Elem>,
    ) -> Result<(), RelationError> {
        if row.len() != schema.arity() {
            return Err(RelationError::ArityMismatch {
                expected: schema.arity(),
                got: row.len(),
            });
        }
        let start = out.len();
        for (datum, col) in row.iter().zip(schema.columns()) {
            match self.domain_mut(col.domain).encode(datum) {
                Ok(code) => out.push(code),
                Err(e) => {
                    out.truncate(start);
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Encode typed rows into a multi-relation.
    pub fn encode_multi(
        &mut self,
        schema: Schema,
        rows: &[Vec<Datum>],
    ) -> Result<MultiRelation, RelationError> {
        let mut codes = Vec::with_capacity(rows.len() * schema.arity());
        for row in rows {
            self.encode_row(&schema, row, &mut codes)?;
        }
        MultiRelation::from_codes(schema, codes)
    }

    /// Encode typed rows into a relation (must be duplicate-free).
    pub fn encode_relation(
        &mut self,
        schema: Schema,
        rows: &[Vec<Datum>],
    ) -> Result<Relation, RelationError> {
        let multi = self.encode_multi(schema.clone(), rows)?;
        if !multi.is_set() {
            return Err(RelationError::DuplicateTuple);
        }
        Ok(Relation::dedup_first(&multi))
    }

    /// Decode a stored row back to typed data for output (§2.3: "encoding
    /// and decoding are usually only necessary for input or output").
    pub fn decode_row(&self, schema: &Schema, row: &[Elem]) -> Result<Vec<Datum>, RelationError> {
        if row.len() != schema.arity() {
            return Err(RelationError::ArityMismatch {
                expected: schema.arity(),
                got: row.len(),
            });
        }
        row.iter()
            .zip(schema.columns())
            .map(|(&code, col)| self.domain(col.domain).decode(code))
            .collect()
    }

    /// Render a multi-relation as a small text table (examples/debugging).
    pub fn render(&self, multi: &MultiRelation) -> Result<String, RelationError> {
        let mut out = String::new();
        let names: Vec<&str> = multi
            .schema()
            .columns()
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        out.push_str(&names.join(" | "));
        out.push('\n');
        for row in multi.rows() {
            let decoded = self.decode_row(multi.schema(), row)?;
            let cells: Vec<String> = decoded.iter().map(|d| d.to_string()).collect();
            out.push_str(&cells.join(" | "));
            out.push('\n');
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn catalog_and_schema() -> (Catalog, Schema) {
        let mut cat = Catalog::new();
        let names = cat.add_domain("names", DomainKind::Str);
        let ages = cat.add_domain("ages", DomainKind::Int);
        let schema = Schema::new(vec![Column::new("name", names), Column::new("age", ages)]);
        (cat, schema)
    }

    #[test]
    fn encode_decode_round_trip() {
        let (mut cat, schema) = catalog_and_schema();
        let rows = vec![
            vec![Datum::str("alice"), Datum::Int(30)],
            vec![Datum::str("bob"), Datum::Int(25)],
        ];
        let rel = cat.encode_relation(schema.clone(), &rows).unwrap();
        assert_eq!(rel.len(), 2);
        let decoded = cat.decode_row(&schema, &rel.rows()[0]).unwrap();
        assert_eq!(decoded, rows[0]);
        let decoded = cat.decode_row(&schema, &rel.rows()[1]).unwrap();
        assert_eq!(decoded, rows[1]);
    }

    #[test]
    fn equal_strings_encode_equal_integers_across_rows() {
        // The whole point of §2.3: equality on encoded integers coincides
        // with equality on the original data.
        let (mut cat, schema) = catalog_and_schema();
        let multi = cat
            .encode_multi(
                schema,
                &[
                    vec![Datum::str("carol"), Datum::Int(1)],
                    vec![Datum::str("carol"), Datum::Int(2)],
                ],
            )
            .unwrap();
        assert_eq!(multi.rows()[0][0], multi.rows()[1][0]);
        assert_ne!(multi.rows()[0][1], multi.rows()[1][1]);
    }

    #[test]
    fn encode_relation_rejects_duplicates() {
        let (mut cat, schema) = catalog_and_schema();
        let rows = vec![
            vec![Datum::str("dave"), Datum::Int(9)],
            vec![Datum::str("dave"), Datum::Int(9)],
        ];
        assert!(matches!(
            cat.encode_relation(schema, &rows),
            Err(RelationError::DuplicateTuple)
        ));
    }

    #[test]
    fn arity_is_checked_in_both_directions() {
        let (mut cat, schema) = catalog_and_schema();
        let mut codes = vec![7];
        assert!(cat
            .encode_row(&schema, &[Datum::str("x")], &mut codes)
            .is_err());
        // A row that fails on its second column leaves no half row behind.
        assert!(cat
            .encode_row(&schema, &[Datum::str("x"), Datum::str("y")], &mut codes)
            .is_err());
        assert_eq!(codes, [7]);
        assert!(cat.decode_row(&schema, &[0]).is_err());
    }

    #[test]
    fn render_produces_headers_and_rows() {
        let (mut cat, schema) = catalog_and_schema();
        let multi = cat
            .encode_multi(schema, &[vec![Datum::str("erin"), Datum::Int(41)]])
            .unwrap();
        let table = cat.render(&multi).unwrap();
        assert!(table.contains("name | age"));
        assert!(table.contains("erin | 41"));
    }
}
