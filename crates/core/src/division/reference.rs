//! The §7 division array as a grid of generic cells, kept as the reference
//! the packed stepper must equal: the cells of Figures 7-1 and 7-2 on a
//! [`Grid`], fed from [`ScheduleFeeder`] tables, exactly as the served
//! division ran before its wires were packed.

use proptest::prelude::*;
use systolic_fabric::{Cell, CellIo, Elem, Grid, ScheduleFeeder, TraceFrame, Word};

use super::*;
use crate::kernel::{division_multi_stats, division_stats};

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

/// The restricted array's run on a grid of its cells: quotient flags,
/// statistics and (if `trace`) frames.
fn divide_with_keys(
    pairs: &[(Elem, Elem)],
    keys: &[Elem],
    divisor: &[Elem],
    trace: bool,
) -> Result<(Vec<bool>, ExecStats, Vec<TraceFrame>)> {
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
    let stats = ExecStats::from_grid(grid.stats(), grid.cell_count());
    Ok((quotient_flags, stats, grid.trace_frames().to_vec()))
}

/// The multi-key array's run on a grid of its cells, over `keys` (distinct,
/// in pre-load order): quotient flags, statistics and (if `trace`) frames.
fn divide_multi(
    kw: usize,
    rows: &[Vec<Elem>],
    keys: &[Vec<Elem>],
    divisor: &[Elem],
    trace: bool,
) -> Result<(Vec<bool>, ExecStats, Vec<TraceFrame>)> {
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
    if trace {
        grid.enable_tracing();
    }
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
    let stats = ExecStats::from_grid(grid.stats(), grid.cell_count());
    Ok((quotient_flags, stats, grid.trace_frames().to_vec()))
}

/// A dividend of `kw`-wide keys (key `key` spread over the columns so
/// that different keys share leading columns) and its distinct keys,
/// thinned by `drop` (so some pairs match no row) and extended by `extra`
/// keys no pair carries.
fn instance(
    kw: usize,
    raw: &[(u8, u8)],
    drop: &[bool],
    extra: usize,
) -> (Vec<Vec<Elem>>, Vec<Vec<Elem>>) {
    let rows: Vec<Vec<Elem>> = raw
        .iter()
        .map(|&(key, y)| {
            let key = Elem::from(key);
            let mut row: Vec<Elem> = (0..kw - 1).map(|c| key >> c & 1).collect();
            row.push(key >> (kw - 1));
            row.push(Elem::from(y));
            row
        })
        .collect();
    let mut keys: Vec<Vec<Elem>> = Vec::new();
    for row in &rows {
        if !keys.iter().any(|k| k[..] == row[..kw]) {
            keys.push(row[..kw].to_vec());
        }
    }
    let mut keys: Vec<Vec<Elem>> = keys
        .into_iter()
        .zip(drop.iter().chain(std::iter::repeat(&false)))
        .filter(|&(_, &d)| !d)
        .map(|(k, _)| k)
        .collect();
    keys.extend((0..extra).map(|e| vec![1000 + e as Elem; kw]));
    (rows, keys)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn packed_division_equals_the_grid_of_cells(
        kw in 1usize..=3,
        wide in any::<bool>(),
        raw in prop::collection::vec((any::<u8>(), 0u8..5), 0..=200),
        drop in prop::collection::vec(any::<bool>(), 8),
        extra in 0usize..=2,
        divisor in prop::collection::vec(0i64..5, 0..=4),
    ) {
        // Small instances repeat keys; wide ones need several plane words.
        let raw: Vec<(u8, u8)> = match wide {
            false => raw.iter().take(24).map(|&(key, y)| (key % 8, y)).collect(),
            true => raw.iter().map(|&(key, y)| (key % 160, y % 3)).collect(),
        };
        let (rows, keys) = instance(kw, &raw, &drop, extra);
        if keys.is_empty() {
            // No key, no array: nothing runs and nothing is charged.
            let out = run(&rows.concat(), &[], kw, &divisor, true, 0).unwrap();
            prop_assert!(out.0.is_empty() && out.2.is_empty());
            prop_assert_eq!(out.1, ExecStats::default());
            return Ok(());
        }
        let (codes, flat_keys) = (rows.concat(), keys.concat());
        let (flags, stats, frames) = divide_multi(kw, &rows, &keys, &divisor, true).unwrap();
        let packed = run(&codes, &flat_keys, kw, &divisor, true, 1 << 20).unwrap();
        prop_assert_eq!(&packed.0, &flags);
        prop_assert_eq!(packed.1, stats);
        prop_assert!(packed.2 == frames, "trace frames differ");

        // The closed forms count the same run.
        let hits = rows.iter().filter(|r| keys.iter().any(|k| k[..] == r[..kw])).count();
        let (n, k, nd) = (rows.len(), keys.len(), divisor.len());
        prop_assert_eq!(stats, division_multi_stats(n, k, kw, nd, hits));

        // The run's own pulse count is its exact budget.
        prop_assert!(run(&codes, &flat_keys, kw, &divisor, false, stats.pulses).is_ok());
        prop_assert_eq!(
            run(&codes, &flat_keys, kw, &divisor, false, stats.pulses - 1).unwrap_err(),
            CoreError::Fabric(NotQuiescent { max_pulses: stats.pulses - 1 })
        );

        // The public arrays: the restricted one is the multi-key array of
        // width 1, frames included.
        if kw == 1 {
            let pairs: Vec<(Elem, Elem)> = rows.iter().map(|r| (r[0], r[1])).collect();
            let keys: Vec<Elem> = keys.concat();
            let (flags, stats, frames) = divide_with_keys(&pairs, &keys, &divisor, true).unwrap();
            let out = DivisionArray.divide_with_keys(&pairs, &keys, &divisor, true).unwrap();
            prop_assert_eq!(&out.quotient_flags, &flags);
            prop_assert_eq!(out.stats, stats);
            prop_assert!(out.frames == frames, "restricted trace frames differ");
            prop_assert_eq!(stats, division_stats(n, k, nd, hits));
        }
        if extra == 0 && drop.iter().all(|&d| !d) {
            let out = DivisionArrayMulti::new(kw).divide(&rows, &divisor).unwrap();
            prop_assert_eq!(&out.keys, &keys);
            prop_assert_eq!(&out.quotient_flags, &flags);
            prop_assert_eq!(out.stats, stats);
        }
    }
}
