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

use systolic_fabric::{Cell, CellIo, Elem, Grid, ScheduleFeeder, TraceFrame, Word};

use crate::error::{CoreError, Result};
use crate::stats::ExecStats;

/// Left dividend column: holds one distinct key element `x̄`.
#[derive(Debug, Clone, Copy)]
pub struct DividendKeyCell {
    /// The stored (pre-loaded) distinct element of `A1`.
    pub stored: Elem,
}

impl Cell for DividendKeyCell {
    fn pulse(&mut self, io: &mut CellIo) {
        match io.b_in {
            Word::Elem(x) => {
                io.b_out = io.b_in;
                io.t_out = Word::Bool(x == self.stored);
            }
            Word::Drain => {
                io.b_out = Word::Drain;
                io.t_out = Word::Drain;
            }
            _ => {}
        }
    }
}

/// Right dividend column: gates the `y` stream with the key-match boolean.
#[derive(Debug, Clone, Copy, Default)]
pub struct DividendGateCell;

impl Cell for DividendGateCell {
    fn pulse(&mut self, io: &mut CellIo) {
        io.b_out = io.b_in;
        io.t_out = match io.t_in {
            // "If t is true, then y is output from the right side of the
            // processor. Otherwise, some null value is output."
            Word::Bool(true) => io.b_in,
            Word::Bool(false) => Word::Null,
            // The drain sweeping past seeds the AND chain with TRUE.
            Word::Drain => Word::Bool(true),
            _ => Word::Null,
        };
    }
}

/// Divisor-array cell: stores one divisor element and a match latch.
#[derive(Debug, Clone, Copy)]
pub struct DivisorStoreCell {
    /// The pre-loaded divisor element.
    pub stored: Elem,
    /// Latched TRUE once any passing `y` equals `stored`.
    pub matched: bool,
}

impl DivisorStoreCell {
    /// A cell storing `stored`, initially unmatched.
    pub fn new(stored: Elem) -> Self {
        DivisorStoreCell {
            stored,
            matched: false,
        }
    }
}

impl Cell for DivisorStoreCell {
    fn pulse(&mut self, io: &mut CellIo) {
        io.t_out = match io.t_in {
            Word::Elem(y) => {
                // "each processor of the row checks if the element it is
                // storing matches any of the y's passing from left to right"
                if y == self.stored {
                    self.matched = true;
                }
                io.t_in
            }
            // The AND across the row, riding the drain token.
            Word::Bool(v) => {
                let out = Word::Bool(v && self.matched);
                self.matched = false; // consume the latch; array is reusable
                out
            }
            _ => Word::Null,
        };
    }

    fn reset(&mut self) {
        self.matched = false;
    }
}

/// A cell of the combined division array.
#[derive(Debug, Clone, Copy)]
pub enum DivisionCell {
    /// Left dividend column.
    Key(DividendKeyCell),
    /// Right dividend column.
    Gate(DividendGateCell),
    /// Divisor-array column.
    Store(DivisorStoreCell),
}

impl Cell for DivisionCell {
    fn pulse(&mut self, io: &mut CellIo) {
        match self {
            DivisionCell::Key(c) => c.pulse(io),
            DivisionCell::Gate(c) => c.pulse(io),
            DivisionCell::Store(c) => c.pulse(io),
        }
    }
    fn reset(&mut self) {
        if let DivisionCell::Store(c) = self {
            c.reset();
        }
    }
}

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
/// unary divisor `B(B1)`).
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
    /// that — see `ops::divide_binary`).
    pub fn divide(&self, pairs: &[(Elem, Elem)], divisor: &[Elem]) -> Result<DivisionOutcome> {
        let mut keys: Vec<Elem> = Vec::new();
        for &(x, _) in pairs {
            if !keys.contains(&x) {
                keys.push(x);
            }
        }
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
        if keys.is_empty() {
            return Ok(DivisionOutcome {
                keys: Vec::new(),
                quotient_flags: Vec::new(),
                quotient: Vec::new(),
                stats: ExecStats::default(),
                frames: Vec::new(),
            });
        }
        let rows = keys.len();
        let nd = divisor.len();
        let cols = 2 + nd;
        let mut grid: Grid<DivisionCell> = Grid::new(rows, cols, |r, c| match c {
            0 => DivisionCell::Key(DividendKeyCell { stored: keys[r] }),
            1 => DivisionCell::Gate(DividendGateCell),
            _ => DivisionCell::Store(DivisorStoreCell::new(divisor[c - 2])),
        });
        if trace {
            grid.enable_tracing();
        }
        // Pairs enter from the bottom: x at pulse p into lane 0, y one step
        // behind into lane 1; the drain token follows the last pair.
        let n = pairs.len() as u64;
        let mut south = Vec::new();
        for (p, &(x, y)) in pairs.iter().enumerate() {
            south.push((p as u64, 0, Word::Elem(x)));
            south.push((p as u64 + 1, 1, Word::Elem(y)));
        }
        south.push((n, 0, Word::Drain));
        grid.set_south_feeder(ScheduleFeeder::from_entries(south));
        let bound = n + (rows + nd) as u64 + 8;
        grid.run_until_quiescent(bound)?;

        // Exactly one boolean (the row's AND) exits east per row; the y
        // values that survived gating also exit east and are ignored here.
        let mut flags: Vec<Option<bool>> = vec![None; rows];
        for em in grid.east_emissions().emissions() {
            if let Word::Bool(v) = em.word {
                if flags[em.lane].replace(v).is_some() {
                    return Err(CoreError::ScheduleViolation {
                        detail: format!("two AND verdicts for divisor row {}", em.lane),
                    });
                }
            }
        }
        let quotient_flags: Vec<bool> = flags
            .into_iter()
            .enumerate()
            .map(|(r, f)| {
                f.ok_or_else(|| CoreError::ScheduleViolation {
                    detail: format!("no AND verdict for divisor row {r}"),
                })
            })
            .collect::<Result<_>>()?;
        let quotient = keys
            .iter()
            .zip(&quotient_flags)
            .filter(|(_, &f)| f)
            .map(|(&k, _)| k)
            .collect();
        let stats = ExecStats::from_grid(grid.stats(), grid.cell_count());
        Ok(DivisionOutcome {
            keys: keys.to_vec(),
            quotient_flags,
            quotient,
            stats,
            frames: grid.trace_frames().to_vec(),
        })
    }
}

/// A key cell of the *multi-column* dividend array (§7's "the extension
/// from this to the general case is straightforward (as in the preceding
/// section on the join)"): one processor column per key column, the match
/// boolean ANDing eastward exactly as in the comparison array, so a
/// composite key `(x_1, ..., x_K)` is compared in hardware without any
/// host-side encoding.
#[derive(Debug, Clone, Copy)]
pub struct DividendKeyCellMulti {
    /// The stored element of this key column for this row.
    pub stored: Elem,
}

impl Cell for DividendKeyCellMulti {
    fn pulse(&mut self, io: &mut CellIo) {
        match io.b_in {
            Word::Elem(x) => {
                io.b_out = io.b_in;
                let eq = x == self.stored;
                io.t_out = match io.t_in {
                    Word::Bool(t) => Word::Bool(t && eq),
                    _ => Word::Bool(eq),
                };
            }
            Word::Drain => {
                io.b_out = Word::Drain;
                io.t_out = Word::Drain;
            }
            // Nothing northbound this pulse: forward any in-flight booleans
            // or drain tokens from the neighbouring key column.
            _ => io.t_out = io.t_in,
        }
    }
}

/// A cell of the multi-key division array.
#[derive(Debug, Clone, Copy)]
pub enum DivisionCellMulti {
    /// One of the `K` key columns.
    Key(DividendKeyCellMulti),
    /// The gate column (identical to the restricted design).
    Gate(DividendGateCell),
    /// A divisor-array column.
    Store(DivisorStoreCell),
}

impl Cell for DivisionCellMulti {
    fn pulse(&mut self, io: &mut CellIo) {
        match self {
            DivisionCellMulti::Key(c) => c.pulse(io),
            DivisionCellMulti::Gate(c) => c.pulse(io),
            DivisionCellMulti::Store(c) => c.pulse(io),
        }
    }
    fn reset(&mut self) {
        if let DivisionCellMulti::Store(c) = self {
            c.reset();
        }
    }
}

/// The multi-column-key division array: dividend rows are
/// `(x_1, ..., x_K, y)`, the divisor is unary, and the quotient is the set
/// of composite keys paired with every divisor value.
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
        let mut keys: Vec<Vec<Elem>> = Vec::new();
        for row in rows {
            let key = &row[..kw];
            if !keys.iter().any(|k| k.as_slice() == key) {
                keys.push(key.to_vec());
            }
        }
        if keys.is_empty() {
            return Ok(DivisionMultiOutcome {
                keys: Vec::new(),
                quotient_flags: Vec::new(),
                quotient: Vec::new(),
                stats: ExecStats::default(),
            });
        }
        let grid_rows = keys.len();
        let nd = divisor.len();
        let cols = kw + 1 + nd;
        let keys_ref = &keys;
        let mut grid: Grid<DivisionCellMulti> = Grid::new(grid_rows, cols, |r, c| {
            if c < kw {
                DivisionCellMulti::Key(DividendKeyCellMulti {
                    stored: keys_ref[r][c],
                })
            } else if c == kw {
                DivisionCellMulti::Gate(DividendGateCell)
            } else {
                DivisionCellMulti::Store(DivisorStoreCell::new(divisor[c - kw - 1]))
            }
        });
        // Pair p: key element x_c into lane c at pulse p+c (staggered like
        // the comparison array); y into the gate lane at pulse p+kw, one
        // step behind the last key element, exactly when the accumulated
        // key-match boolean reaches the gate. Pairs one pulse apart; the
        // drain follows the last pair through lane 0 (and fans east).
        let n = rows.len() as u64;
        let mut south = Vec::new();
        for (p, row) in rows.iter().enumerate() {
            for (c, &x) in row[..kw].iter().enumerate() {
                south.push(((p + c) as u64, c, Word::Elem(x)));
            }
            south.push(((p + kw) as u64, kw, Word::Elem(row[kw])));
        }
        south.push((n, 0, Word::Drain));
        grid.set_south_feeder(ScheduleFeeder::from_entries(south));
        let bound = n + (grid_rows + cols) as u64 + 8;
        grid.run_until_quiescent(bound)?;

        let mut flags: Vec<Option<bool>> = vec![None; grid_rows];
        for em in grid.east_emissions().emissions() {
            if let Word::Bool(v) = em.word {
                if flags[em.lane].replace(v).is_some() {
                    return Err(CoreError::ScheduleViolation {
                        detail: format!("two AND verdicts for divisor row {}", em.lane),
                    });
                }
            }
        }
        let quotient_flags: Vec<bool> = flags
            .into_iter()
            .enumerate()
            .map(|(r, f)| {
                f.ok_or_else(|| CoreError::ScheduleViolation {
                    detail: format!("no AND verdict for divisor row {r}"),
                })
            })
            .collect::<Result<_>>()?;
        let quotient = keys
            .iter()
            .zip(&quotient_flags)
            .filter(|(_, &f)| f)
            .map(|(k, _)| k.clone())
            .collect();
        let stats = ExecStats::from_grid(grid.stats(), grid.cell_count());
        Ok(DivisionMultiOutcome {
            keys,
            quotient_flags,
            quotient,
            stats,
        })
    }
}

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
