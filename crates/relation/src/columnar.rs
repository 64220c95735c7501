//! Bit-packed columnar word planes over encoded relations (§2.3).
//!
//! The paper's §2.3 encoding turns every value into a small integer, which
//! is exactly what makes a *bit-sliced* layout practical: each column
//! stores its values offset from the column minimum, one `u64` *plane* per
//! significant bit, 64 rows per word. A comparison of the whole column
//! against a constant then runs as `width` bitwise word operations per 64
//! rows instead of 64 scalar compares — the bulk-bitwise execution shape
//! the columnar backend's hot loops scan.
//!
//! This module owns only the *layout* (planes, builder, primitive
//! equal/less/greater masks); the operator kernels that consume the masks
//! live in `systolic_core::columnar`, and every result they produce is
//! bit-identical to the simulated arrays'.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::domain::Elem;
use crate::relation::Row;

/// Process-wide count of columnar plane builds (ingest-time packs and
/// lazy memoized builds alike). Exposed so a server can report
/// `sdb_columnar_*` metrics without this crate depending on telemetry.
static BUILDS: AtomicU64 = AtomicU64::new(0);

/// Number of [`ColumnarRelation`]s packed so far, process-wide.
pub fn build_count() -> u64 {
    BUILDS.load(Ordering::Relaxed)
}

/// One column's bit planes: values stored as `value - base`, bit `k` of
/// every row's offset code packed into `planes[k*words..(k+1)*words]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnPlanes {
    /// Offset subtracted from every value before packing (the column min).
    base: Elem,
    /// Number of significant bit planes (0 for a constant column).
    width: u32,
    /// `width` planes of `words` words each, flattened.
    planes: Vec<u64>,
}

/// A relation stored column-major as bit-packed `u64` word planes.
///
/// Row order is preserved exactly: bit `i % 64` of word `i / 64` in every
/// plane belongs to row `i`, so masks computed here select the same rows,
/// in the same order, as a scalar scan over the row matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnarRelation {
    rows: usize,
    words: usize,
    cols: Vec<ColumnPlanes>,
}

/// The three primitive masks of one column-vs-constant comparison; the six
/// `CompareOp`s are unions of these.
#[derive(Debug, Clone, Default)]
pub struct CmpMasks {
    /// Rows whose value equals the constant.
    pub eq: Vec<u64>,
    /// Rows whose value is strictly less than the constant.
    pub lt: Vec<u64>,
    /// Rows whose value is strictly greater than the constant.
    pub gt: Vec<u64>,
}

/// How a whole row packs into one `u64` *composite code*: per column the
/// offset base, the bit position and the code width, widths summing to at
/// most 64 bits. Composite codes embed row equality — two rows of the
/// relation are equal iff their codes are — which turns tuple hashing into
/// `u64` hashing.
///
/// The layout depends only on each column's extremes, so it comes either
/// from an already packed [`ColumnarRelation`] or from one min/max pass
/// over a row matrix ([`CompositeSpec::from_rows`]) — no bit plane is
/// needed, or built, to hash tuples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompositeSpec {
    /// Per column: `(base, shift, width)`.
    cols: Vec<(Elem, u32, u32)>,
}

impl CompositeSpec {
    /// Lay `(base, width)` columns out low bits first; `None` past 64 bits.
    fn from_columns(cols: impl Iterator<Item = (Elem, u32)>) -> Option<CompositeSpec> {
        let mut shift = 0u32;
        let mut spec = Vec::new();
        for (base, width) in cols {
            if shift + width > 64 {
                return None;
            }
            // A constant column after 64 bits of codes sits at shift 64;
            // it only ever contributes 0, so any in-range shift will do.
            spec.push((base, shift.min(63), width));
            shift += width;
        }
        Some(CompositeSpec { cols: spec })
    }

    /// The layout [`ColumnarRelation::from_rows`] would arrive at, from
    /// the per-column extremes alone.
    pub fn from_rows<R: AsRef<[Elem]>>(
        rows: impl IntoIterator<Item = R>,
        arity: usize,
    ) -> Option<CompositeSpec> {
        let mut rows = rows.into_iter();
        // An empty column packs as the constant 0, as in `pack_column`.
        let mut extremes: Vec<(Elem, Elem)> = match rows.next() {
            Some(first) => first.as_ref().iter().map(|&v| (v, v)).collect(),
            None => vec![(0, 0); arity],
        };
        debug_assert_eq!(extremes.len(), arity);
        for row in rows {
            for ((lo, hi), &v) in extremes.iter_mut().zip(row.as_ref()) {
                *lo = (*lo).min(v);
                *hi = (*hi).max(v);
            }
        }
        Self::from_columns(
            extremes
                .into_iter()
                .map(|(lo, hi)| (lo, code_width(lo, hi))),
        )
    }

    /// Encode one row of the relation the spec was derived from (every
    /// value in range).
    pub fn code(&self, row: &[Elem]) -> u64 {
        let mut code = 0u64;
        for (&(base, shift, _), &v) in self.cols.iter().zip(row) {
            code |= (v.wrapping_sub(base) as u64) << shift;
        }
        code
    }

    /// Encode a *foreign* row, or `None` when any value falls outside a
    /// column's code range (such a row cannot equal any row of the
    /// relation).
    pub fn try_code(&self, row: &[Elem]) -> Option<u64> {
        let mut code = 0u64;
        for (&(base, shift, width), &v) in self.cols.iter().zip(row) {
            let off = (v as i128) - (base as i128);
            if off < 0 || off >= (1i128 << width) {
                return None;
            }
            code |= (off as u64) << shift;
        }
        Some(code)
    }
}

/// Significant bits of the offset codes of a column spanning `base..=max`.
fn code_width(base: Elem, max: Elem) -> u32 {
    // `max - base` fits u64 for any i64 pair with max >= base.
    let span = max.wrapping_sub(base) as u64;
    64 - span.leading_zeros()
}

impl ColumnarRelation {
    /// Pack rows of `arity` columns — a relation's [`Rows`] view, or any
    /// row list — into word planes. One pass to find per-column extremes,
    /// one pass to scatter bits.
    ///
    /// [`Rows`]: crate::relation::Rows
    pub fn from_rows<R: AsRef<[Elem]>>(
        rows: impl IntoIterator<Item = R>,
        arity: usize,
    ) -> ColumnarRelation {
        let mut b = ColumnarBuilder::new(arity);
        for row in rows {
            b.push(row.as_ref());
        }
        b.finish()
    }

    /// Number of rows packed.
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Words per plane (`ceil(rows / 64)`).
    pub fn words(&self) -> usize {
        self.words
    }

    /// Mask selecting the live bits of the final word (`u64::MAX` when the
    /// row count is a multiple of 64, including zero rows).
    pub fn tail_mask(&self) -> u64 {
        match self.rows % 64 {
            0 => u64::MAX,
            r => (1u64 << r) - 1,
        }
    }

    /// The column minimum (subtracted before packing).
    pub fn base(&self, col: usize) -> Elem {
        self.cols[col].base
    }

    /// Bit planes of one column.
    pub fn width(&self, col: usize) -> u32 {
        self.cols[col].width
    }

    /// Plane `k` of column `col` (bit `k` of every row's offset code).
    pub fn plane(&self, col: usize, k: usize) -> &[u64] {
        let c = &self.cols[col];
        &c.planes[k * self.words..(k + 1) * self.words]
    }

    /// Reconstruct the stored value of one cell (row views are lazy; this
    /// is the gather the wire-rendering path uses, never the scan path).
    pub fn value(&self, row: usize, col: usize) -> Elem {
        let c = &self.cols[col];
        let word = row / 64;
        let bit = row % 64;
        let mut code: u64 = 0;
        for k in 0..c.width as usize {
            code |= ((c.planes[k * self.words + word] >> bit) & 1) << k;
        }
        c.base.wrapping_add(code as Elem)
    }

    /// Materialize the row matrix back from the planes (test oracle and
    /// lazy row views; `O(rows * Σ width)`).
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.rows)
            .map(|i| (0..self.cols.len()).map(|c| self.value(i, c)).collect())
            .collect()
    }

    /// The composite-code layout of this relation's rows, read off the
    /// packed columns' bases and widths; `None` when the widths sum past
    /// 64 bits.
    pub fn composite_spec(&self) -> Option<CompositeSpec> {
        CompositeSpec::from_columns(self.cols.iter().map(|c| (c.base, c.width)))
    }

    /// Compare column `col` against `value`, producing all three primitive
    /// masks in one most-significant-bit-first pass over the planes.
    ///
    /// The inner loops are branch-free over fixed-width `u64` lanes (the
    /// only branch is on the *constant's* bit, once per plane), which is
    /// the autovectorization-friendly shape the kernels rely on. All three
    /// masks come back tail-masked: bits at and beyond `n_rows` are zero.
    pub fn cmp_masks_into(&self, col: usize, value: Elem, out: &mut CmpMasks) {
        let words = self.words;
        out.eq.clear();
        out.lt.clear();
        out.gt.clear();
        out.lt.resize(words, 0);
        out.gt.resize(words, 0);
        let c = &self.cols[col];
        let off = (value as i128) - (c.base as i128);
        if off < 0 {
            // Every packed value exceeds the constant.
            out.eq.resize(words, 0);
            fill_live(&mut out.gt, words, self.tail_mask());
            return;
        }
        if off >= (1i128 << c.width) {
            // Every packed value is below the constant.
            out.eq.resize(words, 0);
            fill_live(&mut out.lt, words, self.tail_mask());
            return;
        }
        let code = off as u64;
        out.eq.resize(words, u64::MAX);
        for k in (0..c.width as usize).rev() {
            let plane = &c.planes[k * words..(k + 1) * words];
            if (code >> k) & 1 == 1 {
                for (w, &p) in plane.iter().enumerate().take(words) {
                    out.lt[w] |= out.eq[w] & !p;
                    out.eq[w] &= p;
                }
            } else {
                for (w, &p) in plane.iter().enumerate().take(words) {
                    out.gt[w] |= out.eq[w] & p;
                    out.eq[w] &= !p;
                }
            }
        }
        if let Some(last) = out.eq.last_mut() {
            *last &= self.tail_mask();
        }
        if let Some(last) = out.lt.last_mut() {
            *last &= self.tail_mask();
        }
        if let Some(last) = out.gt.last_mut() {
            *last &= self.tail_mask();
        }
    }
}

/// Set every live row bit (ones under the tail mask) in `dst`.
fn fill_live(dst: &mut [u64], words: usize, tail: u64) {
    for w in dst.iter_mut() {
        *w = u64::MAX;
    }
    if words > 0 {
        dst[words - 1] = tail;
    }
}

/// Streaming builder: feed rows as they are parsed (CSV ingest, `LOAD`)
/// so the relation lands columnar without a second sweep over a row
/// matrix.
#[derive(Debug)]
pub struct ColumnarBuilder {
    /// Column-major offset-code staging (codes finalized at `finish`).
    cols: Vec<Vec<Elem>>,
    /// Row count tracked explicitly (zero-arity relations have no columns
    /// to infer it from).
    rows: usize,
}

impl ColumnarBuilder {
    /// A builder for `arity` columns.
    pub fn new(arity: usize) -> Self {
        ColumnarBuilder {
            cols: vec![Vec::new(); arity],
            rows: 0,
        }
    }

    /// Append one row (must match the arity).
    pub fn push(&mut self, row: &[Elem]) {
        debug_assert_eq!(row.len(), self.cols.len());
        for (col, &v) in self.cols.iter_mut().zip(row) {
            col.push(v);
        }
        self.rows += 1;
    }

    /// Pack the staged columns into planes.
    pub fn finish(self) -> ColumnarRelation {
        let rows = self.rows;
        let words = rows.div_ceil(64);
        let cols = self
            .cols
            .into_iter()
            .map(|values| pack_column(&values, words))
            .collect();
        BUILDS.fetch_add(1, Ordering::Relaxed);
        ColumnarRelation { rows, words, cols }
    }
}

/// Pack one column: offset every value by the column minimum, then scatter
/// each significant bit of the offset codes into its plane.
fn pack_column(values: &[Elem], words: usize) -> ColumnPlanes {
    let base = values.iter().copied().min().unwrap_or(0);
    let max = values.iter().copied().max().unwrap_or(0);
    let width = code_width(base, max);
    let mut planes = vec![0u64; width as usize * words];
    for (i, &v) in values.iter().enumerate() {
        let code = v.wrapping_sub(base) as u64;
        let word = i / 64;
        let bit = i % 64;
        for k in 0..width as usize {
            planes[k * words + word] |= ((code >> k) & 1) << bit;
        }
    }
    ColumnPlanes {
        base,
        width,
        planes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(rows: &[&[Elem]]) -> ColumnarRelation {
        let arity = rows.first().map_or(0, |r| r.len());
        let rows: Vec<Row> = rows.iter().map(|r| r.to_vec()).collect();
        ColumnarRelation::from_rows(&rows, arity)
    }

    fn mask_bits(mask: &[u64], n: usize) -> Vec<bool> {
        (0..n)
            .map(|i| (mask[i / 64] >> (i % 64)) & 1 == 1)
            .collect()
    }

    #[test]
    fn round_trips_rows_through_planes() {
        let rows: Vec<Row> = vec![
            vec![5, -3, 1_000_000],
            vec![-7, -3, 0],
            vec![i64::MAX, -3, 42],
            vec![i64::MIN, -3, 17],
        ];
        let c = ColumnarRelation::from_rows(&rows, 3);
        assert_eq!(c.n_rows(), 4);
        assert_eq!(c.arity(), 3);
        assert_eq!(c.to_rows(), rows);
        // Constant column packs zero planes.
        assert_eq!(c.width(1), 0);
        // Full-span column needs all 64.
        assert_eq!(c.width(0), 64);
    }

    #[test]
    fn cmp_masks_match_scalar_comparisons() {
        let values: Vec<Elem> = vec![3, -1, 7, 3, 0, -5, 7, 2, 100, -100];
        let rows: Vec<Row> = values.iter().map(|&v| vec![v]).collect();
        let c = ColumnarRelation::from_rows(&rows, 1);
        let mut m = CmpMasks::default();
        for probe in [-101, -100, -5, -1, 0, 2, 3, 7, 99, 100, 101] {
            c.cmp_masks_into(0, probe, &mut m);
            let eq = mask_bits(&m.eq, values.len());
            let lt = mask_bits(&m.lt, values.len());
            let gt = mask_bits(&m.gt, values.len());
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(eq[i], v == probe, "eq row {i} probe {probe}");
                assert_eq!(lt[i], v < probe, "lt row {i} probe {probe}");
                assert_eq!(gt[i], v > probe, "gt row {i} probe {probe}");
            }
        }
    }

    #[test]
    fn masks_are_tail_clean_at_word_boundaries() {
        for n in [0usize, 1, 63, 64, 65, 128, 130] {
            let rows: Vec<Row> = (0..n as i64).map(|i| vec![i % 7]).collect();
            let c = ColumnarRelation::from_rows(&rows, 1);
            let mut m = CmpMasks::default();
            for probe in [-1, 0, 3, 6, 7] {
                c.cmp_masks_into(0, probe, &mut m);
                for mask in [&m.eq, &m.lt, &m.gt] {
                    assert_eq!(mask.len(), n.div_ceil(64));
                    if let Some(&last) = mask.last() {
                        assert_eq!(last & !c.tail_mask(), 0, "tail bits leak at n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn composite_codes_embed_row_equality() {
        let rows: Vec<Row> = vec![
            vec![1, 10],
            vec![2, 20],
            vec![1, 10],
            vec![1, 20],
            vec![2, 10],
        ];
        let c = ColumnarRelation::from_rows(&rows, 2);
        let spec = c.composite_spec().expect("small widths fit");
        let codes: Vec<u64> = rows.iter().map(|r| spec.code(r)).collect();
        for (i, a) in rows.iter().enumerate() {
            for (j, b) in rows.iter().enumerate() {
                assert_eq!(a == b, codes[i] == codes[j], "rows {i} vs {j}");
            }
        }
        // Foreign rows outside the packed *bit* range cannot encode (26 is
        // past column 1's 4-bit code range [10, 25]; 21 is inside it and
        // encodes harmlessly to a code no packed row holds).
        assert_eq!(spec.try_code(&[0, 10]), None);
        assert_eq!(spec.try_code(&[1, 26]), None);
        assert!(spec.try_code(&[1, 21]).is_some());
        assert_eq!(spec.try_code(&[2, 20]), Some(spec.code(&[2, 20])));
    }

    #[test]
    fn spec_from_rows_equals_the_packed_spec() {
        let cases: Vec<(Vec<Row>, usize)> = vec![
            (vec![vec![1, 10], vec![2, 20], vec![1, 25]], 2),
            (vec![vec![5, -3, 1_000_000], vec![-7, -3, 0]], 3),
            (vec![vec![i64::MIN, 0], vec![i64::MAX, 1]], 2), // over-wide
            (vec![vec![i64::MIN], vec![i64::MAX]], 1),
            (vec![], 2),
            (vec![vec![], vec![]], 0),
        ];
        for (rows, arity) in cases {
            let packed = ColumnarRelation::from_rows(&rows, arity).composite_spec();
            assert_eq!(CompositeSpec::from_rows(&rows, arity), packed, "{rows:?}");
        }
    }

    #[test]
    fn composite_spec_refuses_overwide_rows() {
        let rows: Vec<Row> = vec![vec![i64::MIN, 0], vec![i64::MAX, 1]];
        let c = ColumnarRelation::from_rows(&rows, 2);
        assert!(c.composite_spec().is_none(), "64 + 1 bits cannot fit");
        // A single full-width column alone is fine, also with a constant
        // column (zero code bits) behind it.
        let c = ColumnarRelation::from_rows(&[vec![i64::MIN], vec![i64::MAX]], 1);
        assert!(c.composite_spec().is_some());
        let rows: Vec<Row> = vec![vec![i64::MIN, 5], vec![i64::MAX, 5]];
        let spec = CompositeSpec::from_rows(&rows, 2).expect("64 + 0 bits fit");
        assert_ne!(spec.code(&rows[0]), spec.code(&rows[1]));
        assert_eq!(spec.try_code(&rows[1]), Some(spec.code(&rows[1])));
        assert_eq!(spec.try_code(&[0, 6]), None);
    }

    #[test]
    fn empty_and_zero_arity_relations_pack() {
        let c = ColumnarRelation::from_rows(&[] as &[Row], 2);
        assert_eq!(c.n_rows(), 0);
        assert_eq!(c.words(), 0);
        assert_eq!(c.tail_mask(), u64::MAX);
        let mut m = CmpMasks::default();
        c.cmp_masks_into(0, 5, &mut m);
        assert!(m.eq.is_empty() && m.lt.is_empty() && m.gt.is_empty());
        let c = ColumnarRelation::from_rows(&[vec![], vec![]], 0);
        assert_eq!(c.n_rows(), 2);
        assert_eq!(c.arity(), 0);
        assert_eq!(
            c.composite_spec(),
            CompositeSpec::from_rows(&[] as &[Row], 0)
        );
    }

    #[test]
    fn build_count_advances() {
        let before = build_count();
        let _ = rel(&[&[1], &[2]]);
        assert!(build_count() > before);
    }
}
