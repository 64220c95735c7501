//! Relations and multi-relations (§2.3, §2.5).
//!
//! A *relation* is a set of tuples; a *multi-relation* "is an extension of
//! the concept of a relation in which duplicate tuples are allowed" (§2.5),
//! typically arising as the intermediate result of projection or
//! concatenation. Tuples are stored as rows of integer-encoded elements
//! (§2.3); the tuples of a relation "are not necessarily ordered in any
//! particular fashion", so equality of relations is set equality.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use crate::columnar::{ColumnarRelation, CompositeSpec};
use crate::domain::Elem;
use crate::error::RelationError;
use crate::schema::Schema;

/// A tuple as stored: one encoded element per column.
pub type Row = Vec<Elem>;

/// The memoized bit-packed view of a multi-relation's rows.
///
/// Clones of a relation share the cell, so a relation packed once at
/// ingest stays packed across every staged copy, disk clone and batch
/// slice — and is dropped with the last clone (eviction frees it).
/// Deliberately excluded from equality: the cache is derived state.
#[derive(Debug, Clone, Default)]
struct ColumnarCache(Arc<OnceLock<Arc<ColumnarRelation>>>);

/// A collection of tuples in which duplicates are allowed (§2.5).
///
/// The row matrix is shared: a clone is a reference-count bump, so a
/// relation handed from disk to memory to device to result costs nothing
/// proportional to its rows. [`MultiRelation::push`] copies on write.
#[derive(Debug, Clone)]
pub struct MultiRelation {
    schema: Schema,
    rows: Arc<Vec<Row>>,
    cache: ColumnarCache,
}

impl PartialEq for MultiRelation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows == other.rows
    }
}

impl Eq for MultiRelation {}

impl MultiRelation {
    /// An empty multi-relation over `schema`.
    pub fn empty(schema: Schema) -> Self {
        Self::from_parts(schema, Vec::new())
    }

    /// Wrap rows already known to match `schema`, with a cold cache.
    fn from_parts(schema: Schema, rows: Vec<Row>) -> Self {
        MultiRelation {
            schema,
            rows: Arc::new(rows),
            cache: ColumnarCache::default(),
        }
    }

    /// Build from rows, validating that every row matches the schema arity.
    pub fn new(schema: Schema, rows: Vec<Row>) -> Result<Self, RelationError> {
        for row in &rows {
            if row.len() != schema.arity() {
                return Err(RelationError::ArityMismatch {
                    expected: schema.arity(),
                    got: row.len(),
                });
            }
        }
        Ok(Self::from_parts(schema, rows))
    }

    /// The bit-packed columnar view of this relation, built on first use
    /// and shared (via [`Arc`]) with every clone taken before or after.
    pub fn columnar(&self) -> Arc<ColumnarRelation> {
        self.cache
            .0
            .get_or_init(|| Arc::new(ColumnarRelation::from_rows(&self.rows, self.schema.arity())))
            .clone()
    }

    /// The composite-code layout of the rows: read off the columnar view
    /// when one is already packed, else derived from the rows' extremes
    /// without packing anything.
    pub fn composite_spec(&self) -> Option<CompositeSpec> {
        match self.cache.0.get() {
            Some(packed) => packed.composite_spec(),
            None => CompositeSpec::from_rows(&self.rows, self.schema.arity()),
        }
    }

    /// Whether the columnar view has already been packed (by this relation
    /// or any clone sharing its cache).
    pub fn columnar_built(&self) -> bool {
        self.cache.0.get().is_some()
    }

    /// Install a columnar view packed elsewhere (the zero-detour ingest
    /// path packs planes *while parsing* and lands them here). A no-op if
    /// a view is already cached.
    pub fn install_columnar(&self, packed: ColumnarRelation) {
        debug_assert_eq!(packed.n_rows(), self.rows.len());
        let _ = self.cache.0.set(Arc::new(packed));
    }

    /// An identity token for the shared cache cell: two relations return
    /// the same token iff they are clones sharing one columnar view.
    pub fn columnar_token(&self) -> usize {
        Arc::as_ptr(&self.cache.0) as usize
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples, counting duplicates (the paper's `n` for the input
    /// streams of an array).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if there are no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Tuple width (the paper's `m`).
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// The rows in storage order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Append a row, validating arity. Detaches this copy from whatever
    /// it shares with its clones: the row matrix is copied first if a
    /// clone still holds it, and the columnar cache cell is left to the
    /// clones (whose rows it describes, packed or yet to be).
    pub fn push(&mut self, row: Row) -> Result<(), RelationError> {
        if row.len() != self.schema.arity() {
            return Err(RelationError::ArityMismatch {
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        match Arc::get_mut(&mut self.cache.0) {
            Some(cell) => drop(cell.take()),
            None => self.cache = ColumnarCache::default(),
        }
        Arc::make_mut(&mut self.rows).push(row);
        Ok(())
    }

    /// `true` if `row` appears at least once.
    pub fn contains(&self, row: &[Elem]) -> bool {
        self.rows.iter().any(|r| r.as_slice() == row)
    }

    /// Concatenation `A + B` (§5: union is remove-duplicates over `A + B`).
    /// Requires union-compatibility.
    pub fn concat(&self, other: &MultiRelation) -> Result<MultiRelation, RelationError> {
        self.schema.require_union_compatible(other.schema())?;
        let mut rows = Vec::with_capacity(self.len() + other.len());
        rows.extend(self.rows.iter().cloned());
        rows.extend(other.rows.iter().cloned());
        Ok(Self::from_parts(self.schema.clone(), rows))
    }

    /// Projection over column indices, producing a multi-relation ("the set
    /// A_f — a multi-relation in general", §5). Duplicates are *not*
    /// removed; remove-duplicates is a separate operation.
    pub fn project(&self, cols: &[usize]) -> Result<MultiRelation, RelationError> {
        let schema = self.schema.project(cols)?;
        let rows = self
            .rows
            .iter()
            .map(|row| cols.iter().map(|&c| row[c]).collect())
            .collect();
        Ok(Self::from_parts(schema, rows))
    }

    /// Keep the rows whose index satisfies `keep` — how a host assembles an
    /// operation's result from the bit-string the array produces (§4.2: "it
    /// is then a simple matter to use the t_i's to generate C from A").
    pub fn filter_by_index(&self, mut keep: impl FnMut(usize) -> bool) -> MultiRelation {
        let rows = self
            .rows
            .iter()
            .enumerate()
            .filter(|(i, _)| keep(*i))
            .map(|(_, r)| r.clone())
            .collect();
        Self::from_parts(self.schema.clone(), rows)
    }

    /// Number of *distinct* tuples.
    pub fn distinct_count(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.as_slice())
            .collect::<HashSet<_>>()
            .len()
    }

    /// `true` if no tuple appears twice (i.e. this multi-relation is already
    /// a relation).
    pub fn is_set(&self) -> bool {
        self.distinct_count() == self.rows.len()
    }

    /// The rows as a hash set (for set-equality comparisons in tests and
    /// reference implementations).
    pub fn row_set(&self) -> HashSet<Row> {
        self.rows.iter().cloned().collect()
    }

    /// Set equality: same schema-compatible tuple *sets*, ignoring order and
    /// multiplicity. (Relations are sets; simulation and baselines may emit
    /// rows in different orders.)
    pub fn set_eq(&self, other: &MultiRelation) -> bool {
        self.schema.union_compatible(other.schema()) && self.row_set() == other.row_set()
    }
}

/// A relation proper: a multi-relation with the set invariant (no duplicate
/// tuples, §2.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    inner: MultiRelation,
}

impl Relation {
    /// An empty relation over `schema`.
    pub fn empty(schema: Schema) -> Self {
        Relation {
            inner: MultiRelation::empty(schema),
        }
    }

    /// Build from rows, *requiring* them to be duplicate-free.
    pub fn new(schema: Schema, rows: Vec<Row>) -> Result<Self, RelationError> {
        let inner = MultiRelation::new(schema, rows)?;
        if !inner.is_set() {
            return Err(RelationError::DuplicateTuple);
        }
        Ok(Relation { inner })
    }

    /// Build from possibly-duplicated rows by keeping the first occurrence
    /// of each tuple — the convention of the remove-duplicates array (§5:
    /// "remove all tuples that are preceded by another tuple that equals
    /// it").
    pub fn dedup_first(multi: &MultiRelation) -> Relation {
        let mut seen: HashSet<&[Elem]> = HashSet::with_capacity(multi.len());
        let mut rows = Vec::new();
        for row in multi.rows() {
            if seen.insert(row.as_slice()) {
                rows.push(row.clone());
            }
        }
        Relation {
            inner: MultiRelation::from_parts(multi.schema().clone(), rows),
        }
    }

    /// View as a multi-relation (every relation is a multi-relation).
    pub fn as_multi(&self) -> &MultiRelation {
        &self.inner
    }

    /// Consume into the underlying multi-relation.
    pub fn into_multi(self) -> MultiRelation {
        self.inner
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    /// Cardinality `|A|`.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// `true` if the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Tuple width `m`.
    pub fn arity(&self) -> usize {
        self.inner.arity()
    }

    /// The rows (no duplicates, unspecified order).
    pub fn rows(&self) -> &[Row] {
        self.inner.rows()
    }

    /// Membership test.
    pub fn contains(&self, row: &[Elem]) -> bool {
        self.inner.contains(row)
    }

    /// Set equality with another relation.
    pub fn set_eq(&self, other: &Relation) -> bool {
        self.inner.set_eq(other.as_multi())
    }
}

impl From<Relation> for MultiRelation {
    fn from(r: Relation) -> Self {
        r.into_multi()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DomainId;

    fn schema(m: usize) -> Schema {
        Schema::uniform(m, DomainId(0))
    }

    #[test]
    fn arity_is_validated_on_construction_and_push() {
        assert!(MultiRelation::new(schema(2), vec![vec![1, 2], vec![3]]).is_err());
        let mut mr = MultiRelation::empty(schema(2));
        assert!(mr.push(vec![1, 2]).is_ok());
        assert!(mr.push(vec![1]).is_err());
        assert_eq!(mr.len(), 1);
    }

    #[test]
    fn relation_rejects_duplicates_but_dedup_first_keeps_first() {
        let rows = vec![vec![1, 2], vec![3, 4], vec![1, 2]];
        assert!(matches!(
            Relation::new(schema(2), rows.clone()),
            Err(RelationError::DuplicateTuple)
        ));
        let mr = MultiRelation::new(schema(2), rows).unwrap();
        let r = Relation::dedup_first(&mr);
        assert_eq!(r.rows(), &[vec![1, 2], vec![3, 4]]);
        assert!(r.as_multi().is_set());
    }

    #[test]
    fn concat_requires_union_compatibility() {
        let a = MultiRelation::new(schema(2), vec![vec![1, 2]]).unwrap();
        let b = MultiRelation::new(schema(2), vec![vec![3, 4]]).unwrap();
        let c = MultiRelation::new(Schema::uniform(2, DomainId(1)), vec![vec![5, 6]]).unwrap();
        let ab = a.concat(&b).unwrap();
        assert_eq!(ab.rows(), &[vec![1, 2], vec![3, 4]]);
        assert!(a.concat(&c).is_err(), "different domains");
    }

    #[test]
    fn projection_keeps_duplicates() {
        // §5: duplicates may occur in A_f "since we are taking the projection
        // of a relation which may contain tuples that differ only in columns
        // that are not in f".
        let mr = MultiRelation::new(schema(3), vec![vec![1, 10, 5], vec![1, 20, 5]]).unwrap();
        let p = mr.project(&[0, 2]).unwrap();
        assert_eq!(p.rows(), &[vec![1, 5], vec![1, 5]]);
        assert!(!p.is_set());
        assert_eq!(p.distinct_count(), 1);
    }

    #[test]
    fn filter_by_index_builds_results_from_bit_strings() {
        let mr = MultiRelation::new(schema(1), vec![vec![10], vec![20], vec![30]]).unwrap();
        let bits = [true, false, true];
        let kept = mr.filter_by_index(|i| bits[i]);
        assert_eq!(kept.rows(), &[vec![10], vec![30]]);
    }

    #[test]
    fn set_eq_ignores_order_and_multiplicity() {
        let a = MultiRelation::new(schema(1), vec![vec![1], vec![2], vec![2]]).unwrap();
        let b = MultiRelation::new(schema(1), vec![vec![2], vec![1]]).unwrap();
        assert!(a.set_eq(&b));
        let c =
            MultiRelation::new(Schema::uniform(1, DomainId(9)), vec![vec![1], vec![2]]).unwrap();
        assert!(!a.set_eq(&c), "incompatible schemas are never set-equal");
    }

    #[test]
    fn shared_rows_clone_then_push_leaves_the_original_untouched() {
        let rows = vec![vec![1, 10], vec![2, 20], vec![3, 30]];
        for warm in [false, true] {
            let original = MultiRelation::new(schema(2), rows.clone()).unwrap();
            if warm {
                original.columnar();
            }
            let mut copy = original.clone();
            assert_eq!(copy.rows().as_ptr(), original.rows().as_ptr(), "shared");
            assert_eq!(copy.columnar_token(), original.columnar_token());
            copy.push(vec![4, 40]).unwrap();
            assert_eq!(original.rows(), rows.as_slice());
            assert_eq!(copy.len(), 4);
            assert_ne!(copy.rows().as_ptr(), original.rows().as_ptr());
            // The view — packed before the push or only after it — is the
            // original's: it describes three rows, and the copy packs its own.
            assert_ne!(copy.columnar_token(), original.columnar_token());
            assert_eq!(copy.columnar().to_rows(), copy.rows());
            assert_eq!(original.columnar().to_rows(), rows);
        }
    }

    #[test]
    fn shared_rows_push_without_clones_keeps_the_matrix_and_drops_the_view() {
        let mut mr = MultiRelation::new(schema(1), vec![vec![1], vec![2]]).unwrap();
        mr.columnar();
        mr.push(vec![3]).unwrap();
        assert!(!mr.columnar_built(), "a stale view must not survive a push");
        assert_eq!(mr.columnar().to_rows(), mr.rows());
    }

    #[test]
    fn shared_rows_derived_relations_never_alias_their_input() {
        let a = MultiRelation::new(schema(2), vec![vec![1, 10], vec![2, 20]]).unwrap();
        let b = MultiRelation::new(schema(2), vec![vec![3, 30]]).unwrap();
        a.columnar();
        let derived = [
            a.filter_by_index(|_| true),
            a.concat(&b).unwrap(),
            a.project(&[0, 1]).unwrap(),
            Relation::dedup_first(&a).into_multi(),
        ];
        for mut d in derived {
            assert_ne!(d.rows().as_ptr(), a.rows().as_ptr());
            assert_ne!(d.columnar_token(), a.columnar_token());
            assert!(!d.columnar_built());
            d.push(vec![9, 90]).unwrap();
            assert_eq!(a.rows(), &[vec![1, 10], vec![2, 20]]);
        }
    }

    #[test]
    fn shared_rows_equality_ignores_sharing_and_the_cache() {
        let a = MultiRelation::new(schema(1), vec![vec![1], vec![2]]).unwrap();
        let shared = a.clone();
        let rebuilt = MultiRelation::new(schema(1), vec![vec![1], vec![2]]).unwrap();
        a.columnar();
        assert!(shared.columnar_built() && !rebuilt.columnar_built());
        assert_eq!(a, shared);
        assert_eq!(a, rebuilt);
        let mut longer = a.clone();
        longer.push(vec![3]).unwrap();
        assert_ne!(a, longer);
    }

    #[test]
    fn contains_and_counts() {
        let mr = MultiRelation::new(schema(2), vec![vec![1, 2], vec![1, 2], vec![3, 4]]).unwrap();
        assert!(mr.contains(&[1, 2]));
        assert!(!mr.contains(&[2, 1]));
        assert_eq!(mr.len(), 3);
        assert_eq!(mr.distinct_count(), 2);
    }
}
