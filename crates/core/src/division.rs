//! Arrays for division (§7, Figures 7-1 and 7-2).
//!
//! The division array has two modules side by side:
//!
//! * the **dividend array** (two processor columns): the left column stores
//!   the distinct elements appearing in the dividend's key column `A1`
//!   (one per processor); `(x, y)` pairs are fed from the bottom, `x` into
//!   the left column and `y` one step behind into the right column. Where
//!   `x` matches a stored element, a TRUE crosses to the right column just
//!   as the associated `y` arrives, and the `y` is emitted eastward
//!   (otherwise a null is emitted);
//! * the **divisor array** (one column per divisor element): each processor
//!   stores one element of `B` and watches the `y` stream passing
//!   left-to-right, latching a match flag. After the dividend has passed, an
//!   AND is taken across each row ("which is checked by doing an AND across
//!   the row after the dividend passes through the array") — realised here
//!   by a `Drain` control word swept through the array behind the data.
//!
//! A row whose AND is TRUE contributes its stored `x` to the quotient.
//!
//! ## Packed wires
//!
//! The array steps `u64` planes, one bit per row, as
//! [`systolic_fabric::CompareGrid`] does: only a key column's `x`s and the
//! gated `y`s are compared as elements, the rest is word operations and
//! popcounts, and a `PairFeed` computes each pulse's words from the §7
//! schedule. Pulses, cell-pulses, quiescence and trace frames are exactly
//! those of a grid of the paper's cells (the tests' reference).

use systolic_fabric::trace::Tracer;
use systolic_fabric::{Elem, GridStats, NotQuiescent, TraceFrame, Word};

use crate::error::{CoreError, Result};
use crate::stats::ExecStats;

/// Outcome of a division-array run.
#[derive(Debug, Clone)]
pub struct DivisionOutcome {
    /// The distinct dividend keys, in pre-load (row) order.
    pub keys: Vec<Elem>,
    /// `quotient_flags[r]` is TRUE iff `keys[r]` belongs to the quotient.
    pub quotient_flags: Vec<bool>,
    /// The quotient itself, in key order.
    pub quotient: Vec<Elem>,
    /// Run statistics.
    pub stats: ExecStats,
    /// Wire snapshots, if tracing was requested.
    pub frames: Vec<TraceFrame>,
}

/// The division array (restricted case of §7: binary dividend `A(A1, A2)`,
/// unary divisor `B(B1)`): the multi-key array with one key column.
///
/// ```
/// use systolic_core::DivisionArray;
/// // Figure 7-1 (keys i,j,k as 1,2,3; values a..e as 10..14): C = {i}.
/// let pairs = [(1, 10), (1, 11), (1, 12), (2, 10), (2, 12),
///              (3, 10), (1, 13), (2, 14), (3, 12), (3, 13)];
/// let out = DivisionArray.divide(&pairs, &[10, 11, 12, 13]).unwrap();
/// assert_eq!(out.quotient, vec![1]);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct DivisionArray;

impl DivisionArray {
    /// Divide: `pairs` are the `(x, y)` rows of the dividend; `divisor` the
    /// elements of `B1`. Distinct keys are extracted host-side in
    /// first-occurrence order (the paper notes they "can be identified by
    /// the remove-duplicates array"; the operator front-end does exactly
    /// that — see `ops::divide_binary_with`).
    pub fn divide(&self, pairs: &[(Elem, Elem)], divisor: &[Elem]) -> Result<DivisionOutcome> {
        let keys = distinct(pairs.iter().map(|&(x, _)| x));
        self.divide_with_keys(pairs, &keys, divisor, false)
    }

    /// As [`Self::divide`], with explicit pre-loaded keys and optional
    /// tracing. Keys must be distinct; pairs whose `x` is not among the
    /// keys are ignored by the hardware (they match no row).
    pub fn divide_with_keys(
        &self,
        pairs: &[(Elem, Elem)],
        keys: &[Elem],
        divisor: &[Elem],
        trace: bool,
    ) -> Result<DivisionOutcome> {
        let codes: Vec<Elem> = pairs.iter().flat_map(|&(x, y)| [x, y]).collect();
        let budget = (pairs.len() + keys.len() + divisor.len()) as u64 + 8;
        let (quotient_flags, stats, frames) = run(&codes, keys, 1, divisor, trace, budget)?;
        Ok(DivisionOutcome {
            keys: keys.to_vec(),
            quotient: in_quotient(keys.iter().copied(), &quotient_flags),
            quotient_flags,
            stats,
            frames,
        })
    }
}

/// The multi-column-key division array (§7's "straightforward" extension):
/// dividend rows are `(x_1, ..., x_K, y)`, the divisor is unary, and one key
/// column per `x_c` ANDs the match eastward as the comparison array does,
/// so a composite key is compared in hardware without host-side encoding.
#[derive(Debug, Clone, Copy)]
pub struct DivisionArrayMulti {
    /// Number of key columns `K`.
    pub key_width: usize,
}

/// Outcome of a multi-key division run.
#[derive(Debug, Clone)]
pub struct DivisionMultiOutcome {
    /// The distinct composite keys, in pre-load (row) order.
    pub keys: Vec<Vec<Elem>>,
    /// `quotient_flags[r]` is TRUE iff `keys[r]` belongs to the quotient.
    pub quotient_flags: Vec<bool>,
    /// The quotient keys.
    pub quotient: Vec<Vec<Elem>>,
    /// Run statistics.
    pub stats: ExecStats,
}

impl DivisionArrayMulti {
    /// Build for composite keys of `key_width` columns.
    pub fn new(key_width: usize) -> Self {
        assert!(key_width > 0, "key width must be positive");
        DivisionArrayMulti { key_width }
    }

    /// Divide: `rows` are the dividend tuples `(x_1..x_K, y)`; `divisor`
    /// the divisor elements. Distinct composite keys are pre-loaded in
    /// first-occurrence order.
    pub fn divide(&self, rows: &[Vec<Elem>], divisor: &[Elem]) -> Result<DivisionMultiOutcome> {
        let kw = self.key_width;
        for row in rows {
            assert_eq!(row.len(), kw + 1, "dividend rows must be (x_1..x_K, y)");
        }
        let keys = distinct(rows.iter().map(|row| &row[..kw]));
        let keys: Vec<Vec<Elem>> = keys.into_iter().map(<[Elem]>::to_vec).collect();
        let budget = (rows.len() + keys.len() + kw + 1 + divisor.len()) as u64 + 8;
        let (quotient_flags, stats, _) =
            run(&rows.concat(), &keys.concat(), kw, divisor, false, budget)?;
        Ok(DivisionMultiOutcome {
            quotient: in_quotient(keys.iter().cloned(), &quotient_flags),
            keys,
            quotient_flags,
            stats,
        })
    }
}

/// The distinct `keys`, in first-occurrence order.
fn distinct<K: PartialEq>(keys: impl Iterator<Item = K>) -> Vec<K> {
    let mut seen = Vec::new();
    for key in keys {
        if !seen.contains(&key) {
            seen.push(key);
        }
    }
    seen
}

/// The keys whose quotient flag is TRUE, in key order.
fn in_quotient<K>(keys: impl Iterator<Item = K>, flags: &[bool]) -> Vec<K> {
    keys.zip(flags)
        .filter(|&(_, &f)| f)
        .map(|(k, _)| k)
        .collect()
}

/// Run the division array, one row per key of `keys` (`kw` elements each),
/// over the dividend rows `(x_1..x_kw, y)` of `codes` and `divisor` within
/// `budget` pulses: the quotient flags, the statistics and, if `trace`,
/// the frames. Both `keys` and `codes` run end to end. No key, no array.
fn run(
    codes: &[Elem],
    keys: &[Elem],
    kw: usize,
    divisor: &[Elem],
    trace: bool,
    budget: u64,
) -> Result<(Vec<bool>, ExecStats, Vec<TraceFrame>)> {
    let rows = keys.len() / kw;
    if rows == 0 {
        return Ok((Vec::new(), ExecStats::default(), Vec::new()));
    }
    let mut array = PackedArray::new(keys, kw, divisor);
    array.tracer = trace.then(Tracer::default);
    let feed = PairFeed {
        codes,
        kw,
        pairs: (codes.len() / (kw + 1)) as u64,
    };
    let live = |a: &PackedArray| a.b_on.iter().any(|&w| w != 0) || a.t.iter().any(|w| w[0] != 0);
    while feed.horizon() > array.stats.pulses || live(&array) {
        if array.stats.pulses >= budget {
            return Err(NotQuiescent { max_pulses: budget }.into());
        }
        array.step(&feed);
    }
    systolic_fabric::record_run(GridStats::default(), array.stats);
    // Exactly one boolean, the row's AND, leaves east per row.
    if array.verdicts != rows {
        return Err(CoreError::ScheduleViolation {
            detail: format!("{} AND verdicts for {rows} divisor rows", array.verdicts),
        });
    }
    let stats = ExecStats::from_grid(array.stats, rows * array.cols);
    let frames = array.tracer.map_or_else(Vec::new, |t| t.frames().to_vec());
    Ok((array.flags, stats, frames))
}

/// The south edge of a division array, from the §7 schedule: pair `p` puts
/// `x_c` on key lane `c` at pulse `p + c` (staggered like the comparison
/// array) and `y` on the gate lane at `p + kw`, as the key-match boolean
/// reaches the gate; the drain follows the last pair up key lane 0.
struct PairFeed<'d> {
    /// The dividend rows `(x_1..x_kw, y)`, end to end.
    codes: &'d [Elem],
    kw: usize,
    pairs: u64,
}

impl PairFeed<'_> {
    /// One past the last pulse at which anything enters: the last `y`
    /// enters at `pairs - 1 + kw`, the drain at `pairs`.
    fn horizon(&self) -> u64 {
        match self.pairs {
            0 => 1,
            n => n + self.kw as u64,
        }
    }

    /// The element entering `lane` at `pulse`: a key element on lanes
    /// `0..kw`, a `y` on lane `kw`.
    fn south(&self, pulse: u64, lane: usize) -> Option<Elem> {
        let p = pulse.checked_sub(lane as u64)?;
        (p < self.pairs).then(|| self.codes[p as usize * (self.kw + 1) + lane])
    }
}

/// The §7 array over packed planes (see the module docs): `rows` key rows
/// of `kw` key columns, the gate column and one column per divisor element.
#[derive(Default)]
struct PackedArray<'k> {
    rows: usize,
    /// `u64` words per plane: one bit per row.
    words: usize,
    kw: usize,
    cols: usize,
    /// Key column `c` of row `r` is `keys[c * rows + r]`.
    keys: Vec<Elem>,
    divisor: &'k [Elem],
    /// The northbound elements of the key and gate columns, one ring of
    /// `rows` slots per column written twice over: row `r` of column `c`
    /// reads `2 * c * rows + (pulse mod rows) + r`.
    b: Vec<Elem>,
    /// Rows holding a northbound word, `words` per key or gate column, then
    /// the rows of key column 0 holding the drain.
    b_on: Vec<u64>,
    /// `[on, other, val]`, `words` per `t` ring slot (column `c` reads slot
    /// `(c - pulse) mod cols`): the rows carrying a word, those that are not
    /// booleans (the drain up to the gate, a gated `y` beyond it) and the
    /// TRUE booleans; and the gated `y`s, `rows` per slot.
    t: Vec<[u64; 3]>,
    t_y: Vec<Elem>,
    /// Per divisor column, the rows whose stored element some `y` matched.
    matched: Vec<u64>,
    /// The AND verdict each row sent east, and how many were sent.
    flags: Vec<bool>,
    verdicts: usize,
    /// `pulse mod rows` and `-pulse mod cols`, kept by stepping.
    b0: usize,
    t0: usize,
    stats: GridStats,
    tracer: Option<Tracer>,
}

impl<'k> PackedArray<'k> {
    fn new(keys: &[Elem], kw: usize, divisor: &'k [Elem]) -> Self {
        let rows = keys.len() / kw;
        let (words, cols) = (rows.div_ceil(64), kw + 1 + divisor.len());
        let by_column = (0..kw).flat_map(|c| keys.iter().skip(c).step_by(kw).copied());
        PackedArray {
            rows,
            words,
            kw,
            cols,
            keys: by_column.collect(),
            divisor,
            b: vec![0; 2 * (kw + 1) * rows],
            b_on: vec![0; (kw + 2) * words],
            t: vec![[0; 3]; cols * words],
            t_y: vec![0; cols * rows],
            matched: vec![0; divisor.len() * words],
            flags: vec![false; rows],
            ..PackedArray::default()
        }
    }

    /// Execute one pulse: inject the pairs' words, pulse every column,
    /// drain the edges.
    fn step(&mut self, feed: &PairFeed) {
        let (pulse, rows, words, kw, cols) =
            (self.stats.pulses, self.rows, self.words, self.kw, self.cols);
        let (b0, t0) = (self.b0, self.t0);
        let next = |slot: usize| if slot + 1 == cols { 0 } else { slot + 1 };

        // Injection into the south row, which the last pulse's drain left
        // idle; the drain is lane `kw + 1`.
        let (south, bit) = ((rows - 1) / 64, 1u64 << ((rows - 1) % 64));
        let at = if b0 == 0 { rows - 1 } else { b0 - 1 };
        for lane in 0..=kw {
            if let Some(e) = feed.south(pulse, lane) {
                self.b_on[lane * words + south] |= bit;
                for i in [at, at + rows] {
                    self.b[2 * lane * rows + i] = e;
                }
            }
        }
        if pulse == feed.pairs {
            self.b_on[(kw + 1) * words + south] |= bit;
        }

        if let Some(tracer) = &mut self.tracer {
            let on = |plane: &[u64], r: usize| plane[r / 64] >> (r % 64) & 1 == 1;
            let (mut b, mut t) = (vec![Word::Null; rows * cols], vec![Word::Null; rows * cols]);
            for (r, c) in (0..rows).flat_map(|r| (0..cols).map(move |c| (r, c))) {
                let (slot, lane) = ((t0 + c) % cols, c.min(kw + 1) * words);
                if c <= kw && on(&self.b_on[lane..], r) {
                    b[r * cols + c] = Word::Elem(self.b[2 * c * rows + b0 + r]);
                } else if c == 0 && on(&self.b_on[(kw + 1) * words..], r) {
                    b[r * cols] = Word::Drain;
                }
                let [on, other, val] =
                    self.t[slot * words + r / 64].map(|w| w >> (r % 64) & 1 == 1);
                t[r * cols + c] = match (on, other) {
                    (false, _) => Word::Null,
                    (true, false) => Word::Bool(val),
                    (true, true) if c <= kw => Word::Drain,
                    (true, true) => Word::Elem(self.t_y[slot * rows + r]),
                };
            }
            tracer.snapshot(pulse, rows, cols, &vec![Word::Null; rows * cols], &b, &t);
        }

        let (mut busy, mut slot) = (0u64, t0);
        for c in 0..kw {
            // A key cell: an `x` ANDs its match into the incoming boolean
            // (an idle wire or the drain starts a new AND), the drain
            // passes on as itself, and nothing else forwards `t`.
            let keys = &self.keys[c * rows..][..rows];
            let b = &self.b[2 * c * rows + b0..][..rows];
            for k in 0..words {
                let i = slot * words + k;
                let [on, other, val] = self.t[i];
                let x = self.b_on[c * words + k];
                let d = self.b_on[(kw + 1) * words + k] & if c == 0 { !0 } else { 0 };
                // The `x`s fill one band of rows: compare only there.
                let band = x.trailing_zeros() as usize..64 - x.leading_zeros() as usize;
                let eq = band.fold(0, |eq, bit| {
                    let r = 64 * k + bit;
                    eq | u64::from(b[r] == keys[r]) << bit
                });
                let pass = !(x | d);
                busy += u64::from((x | d | on).count_ones());
                let val = (x & eq & !(on & !other & !val)) | (pass & val);
                self.t[i] = [x | d | (pass & on), d | (pass & other), val];
            }
            slot = next(slot);
        }
        // The gate: a TRUE sends its row's `y` east; the drain becomes the
        // TRUE that starts the row's AND.
        let b = &self.b[2 * kw * rows + b0..][..rows];
        for k in 0..words {
            let i = slot * words + k;
            let [on, other, val] = self.t[i];
            let y = self.b_on[kw * words + k];
            let (open, d) = (on & !other & val & y, on & other);
            let t_y = &mut self.t_y[slot * rows..][..rows];
            for_ones(open, |bit| t_y[64 * k + bit] = b[64 * k + bit]);
            busy += u64::from((y | on).count_ones());
            self.t[i] = [open | d, open, d];
        }
        slot = next(slot);
        // A divisor cell: a passing `y` may set its latch; the AND takes
        // the latch and clears it. An idle one keeps its latch.
        for (&stored, latches) in self.divisor.iter().zip(self.matched.chunks_mut(words)) {
            let t_y = &self.t_y[slot * rows..][..rows];
            for (k, latch) in latches.iter_mut().enumerate() {
                let i = slot * words + k;
                let [on, other, _] = self.t[i];
                if on == 0 {
                    continue;
                }
                let mut hit = 0u64;
                for_ones(on & other, |bit| {
                    hit |= u64::from(t_y[64 * k + bit] == stored) << bit
                });
                let and = on & !other;
                *latch |= hit;
                busy += u64::from(on.count_ones());
                self.t[i][2] &= and & *latch;
                *latch &= !and;
            }
            slot = next(slot);
        }

        // The edges drain: each boolean leaving the east column is its
        // row's AND verdict (gated `y`s leave unread), and the words on the
        // north row leave as the northbound planes shift a row on.
        let slot = if t0 == 0 { cols - 1 } else { t0 - 1 };
        for (k, i) in (slot * words..slot * words + words).enumerate() {
            let [on, other, val] = std::mem::take(&mut self.t[i]);
            for_ones(on & !other, |bit| {
                self.flags[64 * k + bit] = val >> bit & 1 == 1;
                self.verdicts += 1;
            });
        }
        for plane in self.b_on.chunks_mut(words) {
            let mut carry = 0;
            for w in plane.iter_mut().rev() {
                (*w, carry) = ((*w >> 1) | carry, *w << 63);
            }
        }
        self.stats.pulses += 1;
        self.stats.busy_cell_pulses += busy;
        self.stats.total_cell_pulses += (rows * cols) as u64;
        (self.b0, self.t0) = (if b0 + 1 == rows { 0 } else { b0 + 1 }, slot);
    }
}

/// Call `f` with the index of each set bit of `word`, ascending.
#[inline(always)]
fn for_ones(mut word: u64, mut f: impl FnMut(usize)) {
    while word != 0 {
        f(word.trailing_zeros() as usize);
        word &= word - 1;
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example of Figures 7-1 and 7-2: keys {i, j, k} as 1, 2, 3
    /// and values {a..e} as 10..14.
    fn paper_example() -> (Vec<(Elem, Elem)>, Vec<Elem>) {
        let (i, j, k) = (1, 2, 3);
        let (a, b, c, d, e) = (10, 11, 12, 13, 14);
        let pairs = vec![
            (i, a),
            (i, b),
            (i, c),
            (j, a),
            (j, c),
            (k, a),
            (i, d),
            (j, e),
            (k, c),
            (k, d),
        ];
        (pairs, vec![a, b, c, d])
    }

    #[test]
    fn reproduces_the_figure_7_1_quotient() {
        let (pairs, divisor) = paper_example();
        let out = DivisionArray.divide(&pairs, &divisor).unwrap();
        assert_eq!(
            out.keys,
            vec![1, 2, 3],
            "distinct keys in first-occurrence order"
        );
        assert_eq!(
            out.quotient,
            vec![1],
            "C = {{i}}: only i pairs with all of a,b,c,d"
        );
        assert_eq!(out.quotient_flags, vec![true, false, false]);
        // Dividend array is rows x 2; divisor array rows x |B|.
        assert_eq!(out.stats.cells, 3 * (2 + 4));
    }

    #[test]
    fn empty_divisor_accepts_every_key() {
        // Universal quantification over the empty set.
        let out = DivisionArray.divide(&[(1, 10), (2, 20)], &[]).unwrap();
        assert_eq!(out.quotient, vec![1, 2]);
    }

    #[test]
    fn empty_dividend_produces_empty_quotient() {
        let out = DivisionArray.divide(&[], &[10]).unwrap();
        assert!(out.quotient.is_empty());
        assert_eq!(out.stats, ExecStats::default());
    }

    #[test]
    fn single_key_single_divisor() {
        let out = DivisionArray.divide(&[(5, 10)], &[10]).unwrap();
        assert_eq!(out.quotient, vec![5]);
        let out = DivisionArray.divide(&[(5, 11)], &[10]).unwrap();
        assert!(out.quotient.is_empty());
    }

    #[test]
    fn duplicate_pairs_do_not_change_the_result() {
        let out = DivisionArray
            .divide(&[(1, 10), (1, 10), (1, 11), (2, 10)], &[10, 11])
            .unwrap();
        assert_eq!(out.quotient, vec![1]);
    }

    #[test]
    fn duplicate_divisor_elements_are_harmless() {
        let out = DivisionArray
            .divide(&[(1, 10), (2, 11)], &[10, 10])
            .unwrap();
        assert_eq!(out.quotient, vec![1]);
    }

    #[test]
    fn keys_not_covering_all_pairs_are_ignored_gracefully() {
        // Pre-load only key 1: pairs with x=2 match no row and vanish.
        let out = DivisionArray
            .divide_with_keys(&[(1, 10), (2, 10), (2, 11)], &[1], &[10, 11], false)
            .unwrap();
        assert_eq!(out.quotient_flags, vec![false], "key 1 lacks y=11");
    }

    #[test]
    fn agrees_with_reference_division_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use systolic_relation::gen;
        let mut rng = StdRng::seed_from_u64(4242);
        for trial in 0..10 {
            let (a, b, expected) = gen::division_instance(&mut rng, 9, 3, 3);
            let pairs: Vec<(Elem, Elem)> = a.rows().iter().map(|r| (r[0], r[1])).collect();
            let divisor: Vec<Elem> = b.rows().iter().map(|r| r[0]).collect();
            let out = DivisionArray.divide(&pairs, &divisor).unwrap();
            let mut got = out.quotient.clone();
            got.sort_unstable();
            assert_eq!(got, expected, "trial {trial}");
        }
    }

    #[test]
    fn latency_is_linear_in_pairs_plus_rows_plus_divisor() {
        let pairs: Vec<(Elem, Elem)> = (0..32).map(|p| (p % 8, p / 8)).collect();
        let divisor: Vec<Elem> = (0..4).collect();
        let out = DivisionArray.divide(&pairs, &divisor).unwrap();
        assert!(
            out.stats.pulses <= (32 + 8 + 4 + 8) as u64,
            "pulses {} exceed the linear bound",
            out.stats.pulses
        );
    }

    #[test]
    fn multi_key_division_matches_the_general_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9090);
        for trial in 0..10 {
            // Dividend (x1, x2, y) with small domains to force coverage.
            let n = rng.gen_range(4..24);
            let rows: Vec<Vec<Elem>> = (0..n)
                .map(|_| {
                    vec![
                        rng.gen_range(0..3),
                        rng.gen_range(0..3),
                        rng.gen_range(0..4),
                    ]
                })
                .collect();
            let divisor: Vec<Elem> = (0..rng.gen_range(1..4)).collect();
            let out = DivisionArrayMulti::new(2).divide(&rows, &divisor).unwrap();
            // Reference: composite key kept iff paired with every divisor y.
            for (key, &flag) in out.keys.iter().zip(&out.quotient_flags) {
                let expect = divisor
                    .iter()
                    .all(|&y| rows.iter().any(|r| &r[..2] == key.as_slice() && r[2] == y));
                assert_eq!(flag, expect, "trial {trial}, key {key:?}");
            }
        }
    }

    #[test]
    fn multi_key_with_width_one_matches_the_restricted_array() {
        let rows: Vec<Vec<Elem>> = vec![
            vec![1, 10],
            vec![1, 11],
            vec![2, 10],
            vec![3, 11],
            vec![3, 10],
        ];
        let divisor = [10, 11];
        let pairs: Vec<(Elem, Elem)> = rows.iter().map(|r| (r[0], r[1])).collect();
        let restricted = DivisionArray.divide(&pairs, &divisor).unwrap();
        let multi = DivisionArrayMulti::new(1).divide(&rows, &divisor).unwrap();
        assert_eq!(restricted.quotient_flags, multi.quotient_flags);
        let flat: Vec<Elem> = multi.quotient.iter().map(|k| k[0]).collect();
        assert_eq!(restricted.quotient, flat);
    }

    #[test]
    fn multi_key_hardware_shape() {
        // K key columns + gate + |B| divisor columns, one row per distinct
        // composite key.
        let rows: Vec<Vec<Elem>> = vec![
            vec![1, 1, 10],
            vec![1, 1, 11],
            vec![1, 2, 10],
            vec![2, 2, 10],
            vec![2, 2, 11],
        ];
        let out = DivisionArrayMulti::new(2).divide(&rows, &[10, 11]).unwrap();
        assert_eq!(out.keys.len(), 3);
        assert_eq!(out.stats.cells, 3 * (2 + 1 + 2));
        assert_eq!(
            out.quotient,
            vec![vec![1, 1], vec![2, 2]],
            "(1,1) and (2,2) are paired with both 10 and 11"
        );
    }

    #[test]
    fn multi_key_empty_dividend() {
        let out = DivisionArrayMulti::new(2).divide(&[], &[1]).unwrap();
        assert!(out.quotient.is_empty());
    }

    #[test]
    fn array_state_resets_between_runs_via_fresh_grids() {
        // Two consecutive divisions must not leak matched flags.
        let d = DivisionArray;
        let out1 = d.divide(&[(1, 10)], &[10, 11]).unwrap();
        assert!(out1.quotient.is_empty());
        let out2 = d.divide(&[(1, 11)], &[11]).unwrap();
        assert_eq!(out2.quotient, vec![1]);
    }
}
