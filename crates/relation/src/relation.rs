//! Relations and multi-relations (§2.3, §2.5).
//!
//! A *relation* is a set of tuples; a *multi-relation* "is an extension of
//! the concept of a relation in which duplicate tuples are allowed" (§2.5),
//! typically arising as the intermediate result of projection or
//! concatenation. Tuples are stored as rows of integer-encoded elements
//! (§2.3), laid end to end in one buffer; the tuples of a relation "are not
//! necessarily ordered in any particular fashion", so equality of relations
//! is set equality.

use std::collections::HashSet;
use std::fmt;
use std::ops::Index;
use std::sync::{Arc, OnceLock};

use crate::columnar::{ColumnarRelation, CompositeSpec};
use crate::domain::Elem;
use crate::error::RelationError;
use crate::schema::Schema;

/// A tuple handed in to be stored: one encoded element per column. Only
/// construction takes rows in this form; stored rows are read back as
/// `&[Elem]` slices of one shared buffer (see [`Rows`]).
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
/// The rows are one buffer of codes, row-major and `arity` codes apart,
/// with the row count kept beside it. The buffer is shared: a clone is a
/// reference-count bump, so a relation handed from disk to memory to
/// device to result costs nothing proportional to its rows, and a derived
/// relation (a filter, a projection, a join) is one allocation, not one
/// per tuple. [`MultiRelation::push`] copies on write.
#[derive(Debug, Clone)]
pub struct MultiRelation {
    schema: Schema,
    codes: Arc<Vec<Elem>>,
    len: usize,
    cache: ColumnarCache,
}

/// A borrowed view of a multi-relation's rows, in storage order: row `i`
/// is `codes[i * arity..(i + 1) * arity]`.
#[derive(Clone, Copy)]
pub struct Rows<'a> {
    codes: &'a [Elem],
    arity: usize,
    len: usize,
}

impl<'a> Rows<'a> {
    /// View a row-major buffer as rows of `arity` codes.
    ///
    /// # Panics
    ///
    /// If `arity` is zero or the buffer does not split into whole rows.
    pub fn new(codes: &'a [Elem], arity: usize) -> Rows<'a> {
        assert!(
            arity > 0 && codes.len().is_multiple_of(arity),
            "{} codes do not split into rows of {arity}",
            codes.len()
        );
        Rows {
            codes,
            arity,
            len: codes.len() / arity,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Codes per row.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Every row's codes, end to end.
    pub fn codes(&self) -> &'a [Elem] {
        self.codes
    }

    /// Row `i`, if there is one.
    pub fn get(&self, i: usize) -> Option<&'a [Elem]> {
        (i < self.len).then(|| &self.codes[i * self.arity..(i + 1) * self.arity])
    }

    /// The rows in order.
    pub fn iter(&self) -> RowIter<'a> {
        RowIter {
            codes: self.codes,
            arity: self.arity,
            left: self.len,
        }
    }

    /// Copy the rows out, one `Vec` each.
    pub fn to_vec(&self) -> Vec<Row> {
        self.iter().map(<[Elem]>::to_vec).collect()
    }
}

impl Index<usize> for Rows<'_> {
    type Output = [Elem];

    fn index(&self, i: usize) -> &[Elem] {
        match self.get(i) {
            Some(row) => row,
            None => panic!("row {i} out of range for {} rows", self.len),
        }
    }
}

impl<'a> IntoIterator for Rows<'a> {
    type Item = &'a [Elem];
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &Rows<'a> {
    type Item = &'a [Elem];
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

impl fmt::Debug for Rows<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Equal as the row lists are: the same number of rows, equal in order.
impl PartialEq for Rows<'_> {
    fn eq(&self, other: &Rows<'_>) -> bool {
        self.len == other.len
            && (self.len == 0 || (self.arity == other.arity && self.codes == other.codes))
    }
}

impl Eq for Rows<'_> {}

impl<R: AsRef<[Elem]>> PartialEq<[R]> for Rows<'_> {
    fn eq(&self, other: &[R]) -> bool {
        self.len == other.len() && self.iter().zip(other).all(|(a, b)| a == b.as_ref())
    }
}

/// The rows of a [`Rows`] view, in order.
#[derive(Debug, Clone)]
pub struct RowIter<'a> {
    codes: &'a [Elem],
    arity: usize,
    left: usize,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a [Elem];

    #[inline]
    fn next(&mut self) -> Option<&'a [Elem]> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let (row, rest) = self.codes.split_at(self.arity);
        self.codes = rest;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<'a> DoubleEndedIterator for RowIter<'a> {
    fn next_back(&mut self) -> Option<&'a [Elem]> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let (rest, row) = self.codes.split_at(self.codes.len() - self.arity);
        self.codes = rest;
        Some(row)
    }
}

impl ExactSizeIterator for RowIter<'_> {}

impl PartialEq for MultiRelation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows() == other.rows()
    }
}

impl Eq for MultiRelation {}

impl MultiRelation {
    /// An empty multi-relation over `schema`.
    pub fn empty(schema: Schema) -> Self {
        Self::from_parts(schema, Vec::new(), 0)
    }

    /// Wrap `len` rows of codes already known to match `schema`, with a
    /// cold cache.
    fn from_parts(schema: Schema, codes: Vec<Elem>, len: usize) -> Self {
        debug_assert_eq!(codes.len(), len * schema.arity());
        MultiRelation {
            schema,
            codes: Arc::new(codes),
            len,
            cache: ColumnarCache::default(),
        }
    }

    /// Build from rows, validating that every row matches the schema arity,
    /// and lay them end to end.
    pub fn new(schema: Schema, rows: Vec<Row>) -> Result<Self, RelationError> {
        let arity = schema.arity();
        let mut codes = Vec::with_capacity(rows.len() * arity);
        for row in &rows {
            if row.len() != arity {
                return Err(RelationError::ArityMismatch {
                    expected: arity,
                    got: row.len(),
                });
            }
            codes.extend_from_slice(row);
        }
        Ok(Self::from_parts(schema, codes, rows.len()))
    }

    /// Build from a row-major buffer of codes, `schema.arity()` per row —
    /// the form an operator writes its result in, one allocation for all
    /// of it.
    pub fn from_codes(schema: Schema, codes: Vec<Elem>) -> Result<Self, RelationError> {
        // Never zero: a schema has at least one column.
        let arity = schema.arity();
        let ragged = codes.len() % arity;
        if ragged != 0 {
            return Err(RelationError::ArityMismatch {
                expected: arity,
                got: ragged,
            });
        }
        let len = codes.len() / arity;
        Ok(Self::from_parts(schema, codes, len))
    }

    /// The bit-packed columnar view of this relation, built on first use
    /// and shared (via [`Arc`]) with every clone taken before or after.
    pub fn columnar(&self) -> Arc<ColumnarRelation> {
        self.cache
            .0
            .get_or_init(|| Arc::new(ColumnarRelation::from_rows(self.rows(), self.arity())))
            .clone()
    }

    /// The composite-code layout of the rows: read off the columnar view
    /// when one is already packed, else derived from the rows' extremes
    /// without packing anything.
    pub fn composite_spec(&self) -> Option<CompositeSpec> {
        match self.cache.0.get() {
            Some(packed) => packed.composite_spec(),
            None => CompositeSpec::from_rows(self.rows(), self.arity()),
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
        debug_assert_eq!(packed.n_rows(), self.len);
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
        self.len
    }

    /// `true` if there are no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tuple width (the paper's `m`).
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// The rows in storage order.
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            codes: &self.codes,
            arity: self.arity(),
            len: self.len,
        }
    }

    /// Append a row, validating arity. Detaches this copy from whatever
    /// it shares with its clones: the codes are copied first if a clone
    /// still holds them, and the columnar cache cell is left to the clones
    /// (whose rows it describes, packed or yet to be).
    pub fn push(&mut self, row: &[Elem]) -> Result<(), RelationError> {
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
        Arc::make_mut(&mut self.codes).extend_from_slice(row);
        self.len += 1;
        Ok(())
    }

    /// `true` if `row` appears at least once.
    pub fn contains(&self, row: &[Elem]) -> bool {
        self.rows().iter().any(|r| r == row)
    }

    /// Concatenation `A + B` (§5: union is remove-duplicates over `A + B`).
    /// Requires union-compatibility.
    pub fn concat(&self, other: &MultiRelation) -> Result<MultiRelation, RelationError> {
        self.schema.require_union_compatible(other.schema())?;
        let mut codes = Vec::with_capacity(self.codes.len() + other.codes.len());
        codes.extend_from_slice(&self.codes);
        codes.extend_from_slice(&other.codes);
        Ok(Self::from_parts(
            self.schema.clone(),
            codes,
            self.len + other.len,
        ))
    }

    /// Projection over column indices, producing a multi-relation ("the set
    /// A_f — a multi-relation in general", §5). Duplicates are *not*
    /// removed; remove-duplicates is a separate operation.
    pub fn project(&self, cols: &[usize]) -> Result<MultiRelation, RelationError> {
        let schema = self.schema.project(cols)?;
        let mut codes = Vec::with_capacity(self.len * cols.len());
        for row in self.rows() {
            codes.extend(cols.iter().map(|&c| row[c]));
        }
        Ok(Self::from_parts(schema, codes, self.len))
    }

    /// Keep the rows whose index satisfies `keep` — how a host assembles an
    /// operation's result from the bit-string the array produces (§4.2: "it
    /// is then a simple matter to use the t_i's to generate C from A").
    pub fn filter_by_index(&self, mut keep: impl FnMut(usize) -> bool) -> MultiRelation {
        let mut codes = Vec::new();
        let mut len = 0;
        for (i, row) in self.rows().iter().enumerate() {
            if keep(i) {
                codes.extend_from_slice(row);
                len += 1;
            }
        }
        Self::from_parts(self.schema.clone(), codes, len)
    }

    /// Number of *distinct* tuples.
    pub fn distinct_count(&self) -> usize {
        self.rows().iter().collect::<HashSet<_>>().len()
    }

    /// `true` if no tuple appears twice (i.e. this multi-relation is already
    /// a relation).
    pub fn is_set(&self) -> bool {
        self.distinct_count() == self.len
    }

    /// Set equality: same schema-compatible tuple *sets*, ignoring order and
    /// multiplicity. (Relations are sets; simulation and baselines may emit
    /// rows in different orders.)
    pub fn set_eq(&self, other: &MultiRelation) -> bool {
        if !self.schema.union_compatible(other.schema()) {
            return false;
        }
        let mine: HashSet<&[Elem]> = self.rows().iter().collect();
        mine == other.rows().iter().collect()
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
        let rows = multi.rows();
        let mut seen: HashSet<&[Elem]> = HashSet::with_capacity(multi.len());
        Relation {
            inner: multi.filter_by_index(|i| seen.insert(&rows[i])),
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
    pub fn rows(&self) -> Rows<'_> {
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
        assert!(mr.push(&[1, 2]).is_ok());
        assert!(mr.push(&[1]).is_err());
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
        assert_eq!(r.rows().to_vec(), [vec![1, 2], vec![3, 4]]);
        assert!(r.as_multi().is_set());
    }

    #[test]
    fn concat_requires_union_compatibility() {
        let a = MultiRelation::new(schema(2), vec![vec![1, 2]]).unwrap();
        let b = MultiRelation::new(schema(2), vec![vec![3, 4]]).unwrap();
        let c = MultiRelation::new(Schema::uniform(2, DomainId(1)), vec![vec![5, 6]]).unwrap();
        let ab = a.concat(&b).unwrap();
        assert_eq!(ab.rows().to_vec(), [vec![1, 2], vec![3, 4]]);
        assert!(a.concat(&c).is_err(), "different domains");
    }

    #[test]
    fn projection_keeps_duplicates() {
        // §5: duplicates may occur in A_f "since we are taking the projection
        // of a relation which may contain tuples that differ only in columns
        // that are not in f".
        let mr = MultiRelation::new(schema(3), vec![vec![1, 10, 5], vec![1, 20, 5]]).unwrap();
        let p = mr.project(&[0, 2]).unwrap();
        assert_eq!(p.rows().to_vec(), [vec![1, 5], vec![1, 5]]);
        assert!(!p.is_set());
        assert_eq!(p.distinct_count(), 1);
    }

    #[test]
    fn filter_by_index_builds_results_from_bit_strings() {
        let mr = MultiRelation::new(schema(1), vec![vec![10], vec![20], vec![30]]).unwrap();
        let bits = [true, false, true];
        let kept = mr.filter_by_index(|i| bits[i]);
        assert_eq!(kept.rows().to_vec(), [vec![10], vec![30]]);
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
            assert_eq!(
                copy.rows().codes().as_ptr(),
                original.rows().codes().as_ptr(),
                "shared"
            );
            assert_eq!(copy.columnar_token(), original.columnar_token());
            copy.push(&[4, 40]).unwrap();
            assert_eq!(original.rows(), rows[..]);
            assert_eq!(copy.len(), 4);
            assert_ne!(
                copy.rows().codes().as_ptr(),
                original.rows().codes().as_ptr()
            );
            // The view — packed before the push or only after it — is the
            // original's: it describes three rows, and the copy packs its own.
            assert_ne!(copy.columnar_token(), original.columnar_token());
            assert_eq!(copy.columnar().to_rows(), copy.rows().to_vec());
            assert_eq!(original.columnar().to_rows(), rows);
        }
    }

    #[test]
    fn shared_rows_push_without_clones_keeps_the_matrix_and_drops_the_view() {
        let mut mr = MultiRelation::new(schema(1), vec![vec![1], vec![2]]).unwrap();
        mr.columnar();
        mr.push(&[3]).unwrap();
        assert!(!mr.columnar_built(), "a stale view must not survive a push");
        assert_eq!(mr.columnar().to_rows(), mr.rows().to_vec());
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
            assert_ne!(d.rows().codes().as_ptr(), a.rows().codes().as_ptr());
            assert_ne!(d.columnar_token(), a.columnar_token());
            assert!(!d.columnar_built());
            d.push(&[9, 90]).unwrap();
            assert_eq!(a.rows().to_vec(), [vec![1, 10], vec![2, 20]]);
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
        longer.push(&[3]).unwrap();
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

    /// The layout the flat buffer replaced — a `Vec` per row — kept as the
    /// reference every flat operation is checked against, as `csv.rs`
    /// keeps its reference export.
    mod model {
        use super::super::*;

        #[derive(Debug, Clone, PartialEq)]
        pub struct Model {
            pub arity: usize,
            pub rows: Vec<Row>,
        }

        impl Model {
            pub fn concat(&self, other: &Model) -> Model {
                let rows = self.rows.iter().chain(&other.rows).cloned().collect();
                Model { rows, ..*self }
            }

            pub fn project(&self, cols: &[usize]) -> Model {
                let rows = self
                    .rows
                    .iter()
                    .map(|row| cols.iter().map(|&c| row[c]).collect())
                    .collect();
                Model {
                    arity: cols.len(),
                    rows,
                }
            }

            pub fn filter(&self, keep: &[bool]) -> Model {
                let rows = self
                    .rows
                    .iter()
                    .zip(keep)
                    .filter(|(_, &k)| k)
                    .map(|(r, _)| r.clone())
                    .collect();
                Model { rows, ..*self }
            }

            pub fn set(&self) -> HashSet<Row> {
                self.rows.iter().cloned().collect()
            }

            pub fn columnar(&self) -> ColumnarRelation {
                ColumnarRelation::from_rows(&self.rows, self.arity)
            }

            pub fn composite_spec(&self) -> Option<CompositeSpec> {
                CompositeSpec::from_rows(&self.rows, self.arity)
            }
        }
    }

    /// Check a flat relation against its model, every read-only operation
    /// the two layouts share.
    fn agrees(rel: &MultiRelation, model: &model::Model) {
        assert_eq!(rel.arity(), model.arity);
        assert_eq!(rel.len(), model.rows.len());
        assert_eq!(rel.is_empty(), model.rows.is_empty());
        assert_eq!(rel.rows(), model.rows[..]);
        assert_eq!(rel.rows().to_vec(), model.rows);
        assert_eq!(rel.rows().iter().rev().count(), model.rows.len());
        for (i, row) in model.rows.iter().enumerate() {
            assert_eq!(&rel.rows()[i], row.as_slice());
            assert!(rel.contains(row));
        }
        assert_eq!(rel.rows().get(model.rows.len()), None);
        assert_eq!(rel.distinct_count(), model.set().len());
        assert_eq!(rel.is_set(), model.set().len() == model.rows.len());
        assert_eq!(rel.composite_spec(), model.composite_spec());
        assert_eq!(*rel.columnar(), model.columnar());
        // Packed now: the spec is read off the planes, and still agrees.
        assert_eq!(rel.composite_spec(), model.composite_spec());
    }

    /// Rows of `arity` codes cut from 8-wide draws; a small value range
    /// makes duplicates common, and the extremes widen the codes.
    fn cut(draws: &[Vec<Elem>], arity: usize) -> Vec<Row> {
        draws.iter().map(|d| d[..arity].to_vec()).collect()
    }

    fn values() -> impl proptest::strategy::Strategy<Value = Elem> {
        use proptest::prelude::*;
        prop_oneof![-2i64..3, Just(i64::MIN), Just(i64::MAX)]
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        #[test]
        fn shared_rows_flat_layout_agrees_with_the_row_vector_model(
            arity_pick in 0usize..3,
            draws_a in proptest::collection::vec(proptest::collection::vec(values(), 8), 0..12),
            draws_b in proptest::collection::vec(proptest::collection::vec(values(), 8), 0..6),
            keep in proptest::collection::vec(proptest::arbitrary::any::<bool>(), 12),
            drop_all in proptest::arbitrary::any::<bool>(),
            cols in proptest::collection::vec(0usize..8, 1..5),
            pushed in proptest::collection::vec(values(), 8),
        ) {
            let arity = [1, 2, 8][arity_pick];
            let a = model::Model { arity, rows: cut(&draws_a, arity) };
            let b = model::Model { arity, rows: cut(&draws_b, arity) };
            let flat_a = MultiRelation::new(schema(arity), a.rows.clone()).unwrap();
            let flat_b = MultiRelation::new(schema(arity), b.rows.clone()).unwrap();
            agrees(&flat_a, &a);
            agrees(&flat_b, &b);

            // Equality and set equality, both ways round.
            proptest::prop_assert_eq!(flat_a == flat_b, a == b);
            proptest::prop_assert_eq!(flat_a.set_eq(&flat_b), a.set() == b.set());
            proptest::prop_assert_eq!(flat_b.set_eq(&flat_a), a.set() == b.set());

            agrees(&flat_a.concat(&flat_b).unwrap(), &a.concat(&b));

            // A filter, and one that drops every row.
            let keep: Vec<bool> = keep.iter().map(|&k| k && !drop_all).collect();
            let kept = flat_a.filter_by_index(|i| keep[i]);
            agrees(&kept, &a.filter(&keep));
            if drop_all {
                proptest::prop_assert!(kept.is_empty());
                proptest::prop_assert_eq!(kept, MultiRelation::empty(schema(arity)));
            }

            let cols: Vec<usize> = cols.iter().map(|&c| c % arity).collect();
            agrees(&flat_a.project(&cols).unwrap(), &a.project(&cols));

            // A push onto a clone copies the codes; the original is untouched.
            let mut grown = flat_a.clone();
            let mut grown_model = a.clone();
            grown.push(&pushed[..arity]).unwrap();
            grown_model.rows.push(pushed[..arity].to_vec());
            agrees(&grown, &grown_model);
            agrees(&flat_a, &a);

            // The flat buffer round-trips through `from_codes`.
            let again = MultiRelation::from_codes(schema(arity), flat_a.rows().codes().to_vec());
            agrees(&again.unwrap(), &a);
        }
    }

    #[test]
    fn from_codes_refuses_a_ragged_buffer() {
        assert_eq!(
            MultiRelation::from_codes(schema(3), vec![1, 2, 3, 4]),
            Err(RelationError::ArityMismatch {
                expected: 3,
                got: 1
            })
        );
        let two = MultiRelation::from_codes(schema(2), vec![1, 2, 3, 4]).unwrap();
        assert_eq!(two.rows().to_vec(), [vec![1, 2], vec![3, 4]]);
    }
}
