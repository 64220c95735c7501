//! Columnar scan kernels: the [`Backend::Columnar`] result paths.
//!
//! Every observable an array emits — `T` (§3.3), the membership bits (§4),
//! the quotient flags (§7) — is a pure function of the operands, so the
//! fast backend computes it without stepping a grid. This module does so
//! over the bit-packed word planes of
//! [`systolic_relation::ColumnarRelation`] (one `u64` plane per significant
//! bit of a column's §2.3 offset codes, 64 rows per word):
//!
//! * [`t_matrix`] assembles whole `TMatrix` rows at a time — per streamed
//!   `A` tuple, each comparison column becomes `width` branch-free word
//!   operations over `B`'s planes instead of `|B|` scalar compare chains.
//!   It is the join path for *theta* comparators only.
//! * [`equi_join_rows`] is the join path when every comparator is `=`: `B`'s
//!   row indices are bucketed by join key and each `A` row probes once, so
//!   the work is `|A| + |B| + matches`, not the `|A| x |B|` bits of a dense
//!   `T` — and the rows still come out in `T`'s row-major order. Keys are
//!   chosen as for the membership bits below.
//! * [`membership_bits`] / [`duplicate_bits`] hash tuples as single `u64`
//!   *composite codes* when the column widths fit one word (foreign tuples
//!   outside a packed range cannot match and are rejected before hashing).
//!   A relation whose codes need more than 64 bits hashes its rows
//!   instead: that is the only path that can answer for such an input, so
//!   it is not a second backend, just this one's wide-tuple case.
//! * [`quotient_flags`] / [`quotient_flags_multi`] hold each key's matched
//!   divisor values as a bit set over the distinct divisor elements,
//!   reducing the §7 all-present test to a popcount.
//!
//! Everything here is a *result* kernel only. The `ExecStats` come from
//! the analytic formulas in [`crate::kernel`], which is why stats,
//! timelines, and RESULT frames are bit-identical to the simulator by
//! construction; the tests here and the differential suites pin the result
//! bits against the simulated arrays.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

use systolic_fabric::{CompareOp, Elem};
use systolic_relation::columnar::CmpMasks;
use systolic_relation::{ColumnarRelation, CompositeSpec, MultiRelation, Rows};

use crate::matrix::TMatrix;
use crate::select::Predicate;

#[allow(unused_imports)] // rustdoc link target
use crate::kernel::Backend;

/// Combine the three primitive masks into the mask of rows `r` satisfying
/// `packed[r] <op> constant` (the packed value on the *left*). `live` is
/// the all-rows mask a `Ne` needs to complement against.
fn combine_left(op: CompareOp, m: &CmpMasks, live: impl Fn(usize) -> u64, out: &mut [u64]) {
    match op {
        CompareOp::Eq => out.copy_from_slice(&m.eq),
        CompareOp::Ne => {
            for (w, o) in out.iter_mut().enumerate() {
                *o = !m.eq[w] & live(w);
            }
        }
        CompareOp::Lt => out.copy_from_slice(&m.lt),
        CompareOp::Le => {
            for (w, o) in out.iter_mut().enumerate() {
                *o = m.eq[w] | m.lt[w];
            }
        }
        CompareOp::Gt => out.copy_from_slice(&m.gt),
        CompareOp::Ge => {
            for (w, o) in out.iter_mut().enumerate() {
                *o = m.eq[w] | m.gt[w];
            }
        }
    }
}

/// Mirror a comparison so the packed operand moves to the left-hand side:
/// `a <op> b  ⟺  b <mirror(op)> a`.
fn mirror(op: CompareOp) -> CompareOp {
    match op {
        CompareOp::Eq => CompareOp::Eq,
        CompareOp::Ne => CompareOp::Ne,
        CompareOp::Lt => CompareOp::Gt,
        CompareOp::Le => CompareOp::Ge,
        CompareOp::Gt => CompareOp::Lt,
        CompareOp::Ge => CompareOp::Le,
    }
}

/// The live-row mask of word `w` in a `words`-word plane with tail `tail`.
#[inline]
fn live_mask(words: usize, tail: u64) -> impl Fn(usize) -> u64 {
    move |w| if w + 1 == words { tail } else { u64::MAX }
}

/// The comparison matrix `T` over word planes: `t_{ij} = AND_c
/// ops[c](a[i][cols_a[c]], b[j][cols_b[c]])` — the Figure 3-2 AND chain.
///
/// `B` is the packed operand; each streamed `A` tuple produces one packed
/// `TMatrix` row as `width`-bounded word loops over `B`'s planes (the
/// per-column masks ANDed word-wise), instead of `|B|` scalar comparison
/// chains.
pub fn t_matrix(
    a: Rows<'_>,
    cols_a: &[usize],
    b: &ColumnarRelation,
    cols_b: &[usize],
    ops: &[CompareOp],
) -> TMatrix {
    debug_assert_eq!(cols_a.len(), ops.len());
    debug_assert_eq!(cols_b.len(), ops.len());
    let mut t = TMatrix::new(a.len(), b.n_rows());
    let words = b.words();
    let tail = b.tail_mask();
    let live = live_mask(words, tail);
    let mut masks = CmpMasks::default();
    let mut col_mask = vec![0u64; words];
    let mut acc = vec![0u64; words];
    for (i, row) in a.iter().enumerate() {
        // Seed all-live, then AND each comparison column's mask in.
        for (w, x) in acc.iter_mut().enumerate() {
            *x = live(w);
        }
        for (c, &op) in ops.iter().enumerate() {
            b.cmp_masks_into(cols_b[c], row[cols_a[c]], &mut masks);
            combine_left(mirror(op), &masks, &live, &mut col_mask);
            for (x, &m) in acc.iter_mut().zip(&col_mask) {
                *x &= m;
            }
        }
        t.row_words_mut(i).copy_from_slice(&acc);
    }
    t
}

/// The rows of a pure equi-join (§6.2), derived without `T` and written
/// end to end into one buffer: row `a[i]` followed by `b[j]` less its join
/// columns, for every pair whose join columns are equal, in row-major
/// `(i, j)` order — exactly what [`crate::join::JoinArray::assemble`] reads
/// off the TRUE entries of the match matrix, and in the same order, which
/// is what keeps RESULT frames byte-identical to the simulator's.
///
/// A single join column is keyed by the element itself; several by one
/// `u64` composite code of `B`'s key columns (an `A` key outside a code
/// range matches nothing), or by the key slice when the codes need more
/// than 64 bits.
pub fn equi_join_rows(a: Rows<'_>, cols_a: &[usize], b: Rows<'_>, cols_b: &[usize]) -> Vec<Elem> {
    debug_assert_eq!(cols_a.len(), cols_b.len());
    let matches = if let (&[col_a], &[col_b]) = (cols_a, cols_b) {
        MatchList::probe(b.iter().map(|r| r[col_b]), a.iter().map(|r| Some(r[col_a])))
    } else {
        // The join columns alone, end to end.
        let keys = |rows: Rows<'_>, cols: &[usize]| -> Vec<Elem> {
            rows.iter()
                .flat_map(|r| cols.iter().map(move |&c| r[c]))
                .collect()
        };
        let (a_keys, b_keys) = (keys(a, cols_a), keys(b, cols_b));
        let (a_keys, b_keys) = (
            Rows::new(&a_keys, cols_a.len()),
            Rows::new(&b_keys, cols_b.len()),
        );
        match CompositeSpec::from_rows(b_keys, cols_b.len()) {
            Some(spec) => MatchList::probe(
                b_keys.iter().map(|k| spec.code(k)),
                a_keys.iter().map(|k| spec.try_code(k)),
            ),
            None => MatchList::probe(b_keys.iter(), a_keys.iter().map(Some)),
        }
    };
    // Each bucket's block of result rows, `B`'s kept columns in place and
    // `A`'s left blank: a matching row of `A` appends its bucket's block
    // and writes its own columns down it.
    let kept_b: Vec<usize> = (0..b.arity()).filter(|k| !cols_b.contains(k)).collect();
    let width = a.arity() + kept_b.len();
    let mut blocks = vec![0; matches.order.len() * width];
    for (slot, &j) in blocks.chunks_exact_mut(width).zip(&matches.order) {
        let row_b = &b[j];
        for (cell, &k) in slot[a.arity()..].iter_mut().zip(&kept_b) {
            *cell = row_b[k];
        }
    }
    let mut out = Vec::with_capacity(matches.total * width);
    for (row_a, &bucket) in a.iter().zip(&matches.bucket_of_a) {
        if bucket == MatchList::NONE {
            continue;
        }
        let at = out.len();
        out.extend_from_slice(
            &blocks[matches.start[bucket] * width..matches.start[bucket + 1] * width],
        );
        for (c, &v) in row_a.iter().enumerate() {
            out[at + c..]
                .iter_mut()
                .step_by(width)
                .for_each(|cell| *cell = v);
        }
    }
    out
}

/// The TRUE positions of an equality `T`, as lists rather than a matrix:
/// `B`'s rows grouped by key into buckets, and for each row of `A` the
/// bucket of rows whose key equals its own.
struct MatchList {
    /// Per row `i` of `A`: the bucket of its key, or [`Self::NONE`].
    bucket_of_a: Vec<usize>,
    /// `B`'s row indices bucket by bucket, each bucket's ascending, so
    /// walking `A`'s rows in order and each bucket in turn is `T`'s
    /// row-major order.
    order: Vec<usize>,
    /// Bucket `k` is `order[start[k]..start[k + 1]]`.
    start: Vec<usize>,
    /// Number of matching pairs: the join's result size.
    total: usize,
}

impl MatchList {
    const NONE: usize = usize::MAX;

    /// Bucket `B`'s row indices by key, then let each row of `A` probe
    /// once (`None`: a key no row of `B` can equal).
    fn probe<K: Hash + Eq>(
        b_keys: impl ExactSizeIterator<Item = K>,
        a_keys: impl Iterator<Item = Option<K>>,
    ) -> MatchList {
        // Number the distinct keys in order of first appearance.
        let mut ids: HashMap<K, usize> = HashMap::with_capacity(b_keys.len());
        let bucket_of_b = b_keys
            .map(|key| {
                let fresh = ids.len();
                *ids.entry(key).or_insert(fresh)
            })
            .collect();
        let bucket_of_a = a_keys
            .map(|key| key.and_then(|k| ids.get(&k).copied()).unwrap_or(Self::NONE))
            .collect();
        Self::from_buckets(bucket_of_b, ids.len(), bucket_of_a)
    }

    /// Place `B`'s rows bucket by bucket with a counting sort — one pass,
    /// no allocation per key — and total the pairs `A`'s rows match.
    fn from_buckets(bucket_of_b: Vec<usize>, buckets: usize, bucket_of_a: Vec<usize>) -> MatchList {
        let mut start = vec![0usize; buckets + 1];
        for &bucket in &bucket_of_b {
            start[bucket + 1] += 1;
        }
        for k in 1..start.len() {
            start[k] += start[k - 1];
        }
        let mut fill = start.clone();
        let mut order = vec![0usize; bucket_of_b.len()];
        for (j, &bucket) in bucket_of_b.iter().enumerate() {
            order[fill[bucket]] = j;
            fill[bucket] += 1;
        }
        let total = bucket_of_a
            .iter()
            .filter(|&&bucket| bucket != Self::NONE)
            .map(|&bucket| start[bucket + 1] - start[bucket])
            .sum();
        MatchList {
            bucket_of_a,
            order,
            start,
            total,
        }
    }
}

/// The accumulated membership bits of §4: `t_i = OR_j (a_i == b_j)`.
/// Equality-only (as every membership path is), so a hash set of `B`'s
/// tuples replaces the `|A| x |B|` comparison sweep — keyed by single
/// `u64` composite codes when `B`'s column widths sum to at most 64 bits
/// (rows of `A` outside a code range cannot match and short-circuit to
/// FALSE), by the rows themselves when they do not. Only `B`'s code
/// *layout* is needed, so a relation whose planes were never packed is not
/// packed here either.
pub fn membership_bits(a: Rows<'_>, b: &MultiRelation) -> Vec<bool> {
    let Some(spec) = b.composite_spec() else {
        let set: HashSet<&[Elem]> = b.rows().iter().collect();
        return a.iter().map(|r| set.contains(r)).collect();
    };
    let set: HashSet<u64> = b.rows().iter().map(|r| spec.code(r)).collect();
    a.iter()
        .map(|r| spec.try_code(r).is_some_and(|code| set.contains(&code)))
        .collect()
}

/// The §5 triangle-masked self-membership: `dup[i] = OR_{j < i}
/// (a_i == a_j)` — TRUE iff an earlier equal tuple exists. Tuples are
/// keyed as in [`membership_bits`]: composite codes, or rows when a code
/// would not fit one word.
pub fn duplicate_bits(a: &MultiRelation) -> Vec<bool> {
    let rows = a.rows();
    match a.composite_spec() {
        Some(spec) => earlier_equal(rows.iter().map(|r| spec.code(r))),
        None => earlier_equal(rows.iter()),
    }
}

/// `out[i]` is TRUE iff some `j < i` has `keys[j] == keys[i]`.
fn earlier_equal<K: Hash + Eq>(keys: impl ExactSizeIterator<Item = K>) -> Vec<bool> {
    let mut first: HashMap<K, usize> = HashMap::with_capacity(keys.len());
    keys.enumerate()
        .map(|(i, k)| *first.entry(k).or_insert(i) < i)
        .collect()
}

/// Set bit `d` of the `words`-word bit set starting at `r * words`.
#[inline]
fn set_bit(bits: &mut [u64], r: usize, words: usize, d: usize) {
    bits[r * words + d / 64] |= 1u64 << (d % 64);
}

/// Whether key row `r`'s bit set covers all `nd` distinct divisor ids.
#[inline]
fn all_covered(bits: &[u64], r: usize, words: usize, nd: usize) -> bool {
    let row = &bits[r * words..(r + 1) * words];
    let pop: u32 = row.iter().map(|w| w.count_ones()).sum();
    pop as usize == nd
}

/// The §7 quotient flags: `flags[r]` is TRUE iff every divisor element is
/// paired (through some dividend pair) with `keys[r]`. Each key's matched
/// set is a bit set over the *distinct* divisor elements, so the test is a
/// popcount instead of `nd` hash probes per key. `hits` — the number of
/// pairs whose key matches a pre-loaded row, which the stats need — is
/// returned alongside. Keys must be distinct (as the arrays require).
pub fn quotient_flags(
    pairs: &[(Elem, Elem)],
    keys: &[Elem],
    divisor: &[Elem],
) -> (Vec<bool>, usize) {
    let mut div_id: HashMap<Elem, usize> = HashMap::with_capacity(divisor.len());
    for &y in divisor {
        let next = div_id.len();
        div_id.entry(y).or_insert(next);
    }
    let nd = div_id.len();
    let words = nd.div_ceil(64).max(1);
    let index: HashMap<Elem, usize> = keys.iter().enumerate().map(|(r, &k)| (k, r)).collect();
    let mut bits = vec![0u64; keys.len() * words];
    let mut hits = 0usize;
    for &(x, y) in pairs {
        if let Some(&r) = index.get(&x) {
            hits += 1;
            if let Some(&d) = div_id.get(&y) {
                set_bit(&mut bits, r, words, d);
            }
        }
    }
    let flags = (0..keys.len())
        .map(|r| all_covered(&bits, r, words, nd))
        .collect();
    (flags, hits)
}

/// Multi-column-key variant of [`quotient_flags`]: rows are
/// `(x_1..x_K, y)`, keys are composite — looked up by their `u64`
/// composite codes when the key columns fit one word, by slice otherwise.
pub fn quotient_flags_multi(
    rows: Rows<'_>,
    keys: Rows<'_>,
    kw: usize,
    divisor: &[Elem],
) -> (Vec<bool>, usize) {
    let mut div_id: HashMap<Elem, usize> = HashMap::with_capacity(divisor.len());
    for &y in divisor {
        let next = div_id.len();
        div_id.entry(y).or_insert(next);
    }
    let nd = div_id.len();
    let words = nd.div_ceil(64).max(1);
    let mut bits = vec![0u64; keys.len() * words];
    let mut hits = 0usize;
    if let Some(spec) = CompositeSpec::from_rows(keys, kw) {
        let index: HashMap<u64, usize> = keys
            .iter()
            .enumerate()
            .map(|(r, k)| (spec.code(k), r))
            .collect();
        for row in rows {
            let Some(code) = spec.try_code(&row[..kw]) else {
                continue;
            };
            if let Some(&r) = index.get(&code) {
                hits += 1;
                if let Some(&d) = div_id.get(&row[kw]) {
                    set_bit(&mut bits, r, words, d);
                }
            }
        }
    } else {
        let index: HashMap<&[Elem], usize> = keys.iter().enumerate().map(|(r, k)| (k, r)).collect();
        for row in rows {
            if let Some(&r) = index.get(&row[..kw]) {
                hits += 1;
                if let Some(&d) = div_id.get(&row[kw]) {
                    set_bit(&mut bits, r, words, d);
                }
            }
        }
    }
    let flags = (0..keys.len())
        .map(|r| all_covered(&bits, r, words, nd))
        .collect();
    (flags, hits)
}

/// The packed keep mask of rows satisfying every predicate: each
/// predicate's `(col, op, value)` becomes one plane scan, the masks AND
/// word-wise. Out-of-range constants resolve without touching a plane.
fn select_mask(packed: &ColumnarRelation, predicates: &[Predicate]) -> Vec<u64> {
    let words = packed.words();
    let tail = packed.tail_mask();
    let live = live_mask(words, tail);
    let mut masks = CmpMasks::default();
    let mut col_mask = vec![0u64; words];
    let mut acc: Vec<u64> = (0..words).map(&live).collect();
    for p in predicates {
        packed.cmp_masks_into(p.col, p.value, &mut masks);
        combine_left(p.op, &masks, &live, &mut col_mask);
        for (x, &m) in acc.iter_mut().zip(&col_mask) {
            *x &= m;
        }
    }
    acc
}

/// Unpack a word mask into per-row booleans.
fn mask_to_bits(mask: &[u64], n: usize) -> Vec<bool> {
    (0..n)
        .map(|i| (mask[i / 64] >> (i % 64)) & 1 == 1)
        .collect()
}

/// Selection keep flags over word planes, bit-identical to evaluating
/// `predicates.iter().all(|p| p.eval(row))` per row.
pub fn select_bits(packed: &ColumnarRelation, predicates: &[Predicate]) -> Vec<bool> {
    mask_to_bits(&select_mask(packed, predicates), packed.n_rows())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparison::ComparisonArray2d;
    use crate::dedup::RemoveDuplicatesArray;
    use crate::division::{DivisionArray, DivisionArrayMulti};
    use crate::intersection::{IntersectionArray, SetOpMode};
    use crate::tiling::Seed;
    use systolic_relation::Row;

    fn relation(n: usize, m: usize, seed: i64) -> Vec<Row> {
        (0..n)
            .map(|i| {
                (0..m)
                    .map(|c| ((i as i64 * 7 + seed) % 5) + c as i64)
                    .collect()
            })
            .collect()
    }

    fn pack(rows: &[Row], m: usize) -> ColumnarRelation {
        ColumnarRelation::from_rows(rows, m)
    }

    fn multi(rows: &[Row], m: usize) -> MultiRelation {
        MultiRelation::new(systolic_relation::gen::synth_schema(m), rows.to_vec()).unwrap()
    }

    /// What the simulated §3.3 array emits for the same operands.
    fn simulated_t(a: &[Row], b: &[Row], ops: &[CompareOp]) -> TMatrix {
        ComparisonArray2d::with_ops(ops.to_vec())
            .t_matrix(a, b, Seed::All)
            .unwrap()
            .t
    }

    /// The §4 membership bits and §5 earlier-duplicate bits, as the
    /// simulated arrays emit them.
    fn simulated_membership(a: &[Row], b: &[Row]) -> Vec<bool> {
        IntersectionArray::new(b[0].len())
            .run(a, b, SetOpMode::Intersect)
            .unwrap()
            .t
    }

    fn simulated_duplicates(rows: &[Row]) -> Vec<bool> {
        let out = RemoveDuplicatesArray::new(rows[0].len()).run(rows).unwrap();
        out.keep.into_iter().map(|k| !k).collect()
    }

    #[test]
    fn t_matrix_matches_the_simulated_array_for_every_op() {
        for ops in [
            vec![CompareOp::Eq, CompareOp::Eq],
            vec![CompareOp::Lt, CompareOp::Ge],
            vec![CompareOp::Ne, CompareOp::Le],
            vec![CompareOp::Gt, CompareOp::Eq],
        ] {
            for (n_a, n_b) in [(1, 1), (3, 2), (7, 13), (5, 64), (6, 65), (4, 130)] {
                let a = relation(n_a, 2, 0);
                let b = relation(n_b, 2, 3);
                let packed = pack(&b, 2);
                let got = t_matrix(Rows::new(&a.concat(), 2), &[0, 1], &packed, &[0, 1], &ops);
                assert_eq!(got, simulated_t(&a, &b, &ops), "{ops:?} {n_a}x{n_b}");
            }
        }
    }

    #[test]
    fn t_matrix_handles_out_of_range_stream_values() {
        // Streamed constants below/above B's packed range exercise the
        // no-plane short-circuits for every operator.
        let b: Vec<Row> = vec![vec![10], vec![12], vec![11]];
        let packed = pack(&b, 1);
        let a: Vec<Row> = vec![vec![-5], vec![10], vec![11], vec![99], vec![i64::MIN]];
        for op in CompareOp::ALL {
            let ops = [op];
            let got = t_matrix(Rows::new(&a.concat(), 1), &[0], &packed, &[0], &ops);
            assert_eq!(got, simulated_t(&a, &b, &ops), "{op:?}");
        }
    }

    #[test]
    fn equi_join_rows_are_what_assembling_the_t_matrix_gives() {
        use crate::join::{JoinArray, JoinSpec};
        // Keys drawn from five values: every bucket holds several rows.
        let a = relation(23, 3, 0);
        let mut b = relation(17, 3, 3);
        let (fa, fb) = (a.concat(), b.concat());
        let (ra, rb) = (Rows::new(&fa, 3), Rows::new(&fb, 3));
        for (cols_a, cols_b) in [
            (vec![0], vec![0]),
            (vec![2], vec![0]),
            (vec![0, 1], vec![0, 1]),
            (vec![1, 0, 2], vec![2, 1, 1]),
        ] {
            let specs: Vec<JoinSpec> = cols_a
                .iter()
                .zip(&cols_b)
                .map(|(&ca, &cb)| JoinSpec::eq(ca, cb))
                .collect();
            let ops = vec![CompareOp::Eq; specs.len()];
            let t = t_matrix(ra, &cols_a, &pack(&b, 3), &cols_b, &ops);
            assert_eq!(
                equi_join_rows(ra, &cols_a, rb, &cols_b),
                JoinArray::new(specs).assemble(ra, rb, &t),
                "{cols_a:?} = {cols_b:?}"
            );
        }
        // Key columns too wide for one composite code: keyed by slice.
        b.push(vec![i64::MIN, i64::MAX, 0]);
        b.push(vec![i64::MAX, i64::MIN, 0]);
        let wild = [b[18].clone(), vec![9, 9, 9], b[17].clone(), b[0].clone()].concat();
        let (wild, fb) = (Rows::new(&wild, 3), b.concat());
        let rb = Rows::new(&fb, 3);
        let cols = [0, 1];
        let t = t_matrix(wild, &cols, &pack(&b, 3), &cols, &[CompareOp::Eq; 2]);
        let specs = vec![JoinSpec::eq(0, 0), JoinSpec::eq(1, 1)];
        assert_eq!(
            equi_join_rows(wild, &cols, rb, &cols),
            JoinArray::new(specs).assemble(wild, rb, &t)
        );
        let none = Rows::new(&[], 3);
        assert!(equi_join_rows(none, &cols, rb, &cols).is_empty());
        assert!(equi_join_rows(ra, &cols, none, &cols).is_empty());
    }

    #[test]
    fn membership_and_duplicates_match_the_simulated_arrays() {
        let a = relation(23, 2, 0);
        let b = relation(17, 2, 3);
        // Cold (layout from the rows) and warm (layout from the planes).
        let cold = multi(&b, 2);
        let warm = multi(&b, 2);
        warm.columnar();
        // Foreign values far outside B's packed range.
        let wild: Vec<Row> = vec![vec![i64::MIN, 0], vec![0, i64::MAX], b[0].clone()];
        for b_rel in [&cold, &warm] {
            assert_eq!(
                membership_bits(Rows::new(&a.concat(), 2), b_rel),
                simulated_membership(&a, &b)
            );
            assert_eq!(
                membership_bits(Rows::new(&wild.concat(), 2), b_rel),
                simulated_membership(&wild, &b)
            );
        }
        assert!(!cold.columnar_built(), "hashing tuples packs no planes");
        let dupes = relation(31, 3, 1);
        let cold = multi(&dupes, 3);
        let warm = multi(&dupes, 3);
        warm.columnar();
        for rel in [&cold, &warm] {
            assert_eq!(duplicate_bits(rel), simulated_duplicates(&dupes));
        }
        assert!(!cold.columnar_built(), "hashing tuples packs no planes");
    }

    #[test]
    fn overwide_relations_hash_rows_and_still_match_the_simulated_arrays() {
        // Two full-width columns need 128 code bits: no composite code, so
        // the tuples hash as rows.
        let b: Vec<Row> = vec![vec![i64::MIN, 0], vec![i64::MAX, i64::MAX], vec![0, 5]];
        let b_rel = multi(&b, 2);
        assert!(b_rel.composite_spec().is_none());
        let a: Vec<Row> = vec![vec![0, 5], vec![1, 1], vec![i64::MAX, i64::MAX]];
        let got = membership_bits(Rows::new(&a.concat(), 2), &b_rel);
        assert_eq!(got, simulated_membership(&a, &b));
        assert_eq!(got, [true, false, true]);
        let mut dupes = b.clone();
        dupes.extend_from_slice(&b);
        let got = duplicate_bits(&multi(&dupes, 2));
        assert_eq!(got, simulated_duplicates(&dupes));
        assert_eq!(got, [false, false, false, true, true, true]);
    }

    #[test]
    fn quotient_flags_match_the_simulated_division_array() {
        let pairs: Vec<(Elem, Elem)> = (0..40).map(|p| (p % 6, p % 5)).collect();
        let divisor: Vec<Elem> = vec![0, 1, 2, 3, 2, 0]; // duplicates allowed
        for keys in [vec![0, 1, 2, 3, 4, 5], vec![1, 3], vec![9], vec![]] {
            for nd in [0, 3, divisor.len()] {
                let sim = DivisionArray
                    .divide_with_keys(&pairs, &keys, &divisor[..nd], false)
                    .unwrap();
                let (flags, hits) = quotient_flags(&pairs, &keys, &divisor[..nd]);
                assert_eq!(flags, sim.quotient_flags, "keys {keys:?} nd {nd}");
                let matching = pairs.iter().filter(|(x, _)| keys.contains(x)).count();
                assert_eq!(hits, matching, "keys {keys:?} nd {nd}");
            }
        }
    }

    #[test]
    fn quotient_flags_multi_match_the_simulated_division_array() {
        for (n, kw, nd) in [(12, 2, 3), (5, 1, 2), (7, 3, 0), (4, 2, 1)] {
            let rows: Vec<Vec<Elem>> = (0..n)
                .map(|p| {
                    let mut r: Vec<Elem> = (0..kw).map(|c| ((p + c) % 3) as Elem).collect();
                    r.push((p % 4) as Elem);
                    r
                })
                .collect();
            let divisor: Vec<Elem> = (0..nd as Elem).collect();
            let sim = DivisionArrayMulti::new(kw).divide(&rows, &divisor).unwrap();
            let (flat_rows, flat_keys) = (rows.concat(), sim.keys.concat());
            let (flags, hits) = quotient_flags_multi(
                Rows::new(&flat_rows, kw + 1),
                Rows::new(&flat_keys, kw),
                kw,
                &divisor,
            );
            assert_eq!(flags, sim.quotient_flags, "n {n} kw {kw} nd {nd}");
            assert_eq!(hits, n, "every row's key is pre-loaded");
        }
    }

    #[test]
    fn select_bits_match_scalar_predicate_evaluation() {
        let rows = relation(70, 3, 2);
        let packed = pack(&rows, 3);
        for preds in [
            vec![Predicate::new(0, CompareOp::Gt, 2)],
            vec![
                Predicate::new(0, CompareOp::Ge, 1),
                Predicate::new(2, CompareOp::Ne, 4),
            ],
            vec![Predicate::new(1, CompareOp::Lt, -100)], // below range
            vec![Predicate::new(1, CompareOp::Le, 1000)], // above range
        ] {
            let expect: Vec<bool> = rows
                .iter()
                .map(|r| preds.iter().all(|p| p.eval(r)))
                .collect();
            assert_eq!(select_bits(&packed, &preds), expect, "{preds:?}");
        }
    }

    #[test]
    fn empty_relations_produce_empty_masks() {
        let packed = pack(&[], 2);
        assert!(select_bits(&packed, &[Predicate::new(0, CompareOp::Eq, 1)]).is_empty());
        let t = t_matrix(
            Rows::new(&relation(3, 2, 0).concat(), 2),
            &[0, 1],
            &packed,
            &[0, 1],
            &[CompareOp::Eq, CompareOp::Eq],
        );
        assert_eq!(t.n_a(), 3);
        assert_eq!(t.n_b(), 0);
        assert_eq!(t.count_true(), 0);
    }
}
