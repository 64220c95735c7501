//! The §3 comparison array, stepped a column at a time over packed lanes.
//!
//! Every array the machine serves except selection is the comparison array
//! of §3.2: an `rows x m` grid of identical Figure 3-2 processors,
//! `t_OUT = t_IN AND (a_IN op b_IN)`, with `a` and `b` passed through. A
//! [`crate::Grid`] of such cells would match and rewrite three [`Word`]s per
//! cell-pulse although two of them only pass through. [`CompareGrid`] keeps
//! the same three planes in the same stream frames as [`crate::grid`]
//! (`a` row `r` at ring slot `(r - pulse) mod rows`, `b` at
//! `(r + pulse) mod rows`, `t` column `c` at `(c - pulse) mod cols`), but as
//! lanes:
//!
//! * each column keeps a ring of `rows` elements and a presence flag for the
//!   `a` stream, and the same for `b`;
//! * each `t` slot is one byte: idle, FALSE or TRUE.
//!
//! A pulse injects from the feeders, then runs one loop per column, chosen
//! once per [`CompareOp`] outside it. A column's `a` and `b` ring indices
//! wrap at most once each, so the loop runs over at most three contiguous
//! stretches and writes only `t` bytes: `a` and `b` stand still in their own
//! frames. Then the edges drain: east verdicts go to the [`Collector`];
//! `a`/`b` words leaving the array only leave the live count, because no
//! caller reads them.
//!
//! Pulses, busy and total cell-pulses, quiescence, [`NotQuiescent`] and trace
//! frames are exactly those of a `Grid` of comparison cells given the same
//! feeders. What such a grid could carry but lanes cannot — an `a`/`b` word
//! that is not an element, a `t` word that is not a boolean — is refused with
//! a [`RefusedWord`] when the feeder is installed, never mis-simulated.

use crate::feed::{Collector, ScheduleFeeder};
use crate::grid::{GridStats, NotQuiescent};
use crate::trace::{TraceFrame, Tracer};
use crate::word::{CompareOp, Elem, Word};

/// A `t` slot with no word on it.
const IDLE: u8 = 0;
/// A `t` slot carrying `Bool(false)`.
const FALSE: u8 = 1;
/// A `t` slot carrying `Bool(true)`.
const TRUE: u8 = 2;

/// A scheduled word the comparison array cannot carry: an `a`/`b` word that
/// is not an element, or a `t` word that is not a boolean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefusedWord {
    /// The edge whose feeder scheduled it: `"north"`, `"south"` or `"west"`.
    pub edge: &'static str,
    /// The injection pulse.
    pub pulse: u64,
    /// The edge lane it was scheduled on.
    pub lane: usize,
    /// The word itself.
    pub word: Word,
}

impl std::fmt::Display for RefusedWord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let carries = if self.edge == "west" {
            "booleans"
        } else {
            "elements"
        };
        write!(
            f,
            "comparison array refuses {:?} on its {} edge at pulse {}, lane {}: that edge carries only {carries}",
            self.word, self.edge, self.pulse, self.lane
        )
    }
}

impl std::error::Error for RefusedWord {}

/// The §3.2 comparison array: `rows x ops.len()` Figure 3-2 processors,
/// column `c` applying `ops[c]`.
pub struct CompareGrid {
    rows: usize,
    ops: Vec<CompareOp>,
    /// Southbound elements, one ring of `rows` slots per column: row `r` of
    /// column `c` reads `c * rows + (r - pulse) mod rows`.
    a: Vec<Elem>,
    a_on: Vec<bool>,
    /// Northbound elements: row `r` of column `c` reads
    /// `c * rows + (r + pulse) mod rows`.
    b: Vec<Elem>,
    b_on: Vec<bool>,
    /// Eastbound verdicts, `rows` per ring slot: row `r` of column `c` reads
    /// `((c - pulse) mod cols) * rows + r`.
    t: Vec<u8>,
    /// Present words on the three planes between pulses.
    live: usize,
    pulse: u64,
    stats: GridStats,
    north: ScheduleFeeder,
    south: ScheduleFeeder,
    west: ScheduleFeeder,
    east_out: Collector,
    tracer: Option<Tracer>,
}

impl CompareGrid {
    /// A `rows x ops.len()` comparison array.
    ///
    /// # Panics
    /// Panics if `rows` is zero or `ops` is empty.
    pub fn new(rows: usize, ops: &[CompareOp]) -> Self {
        assert!(
            rows > 0 && !ops.is_empty(),
            "grid must have at least one cell"
        );
        let n = rows * ops.len();
        CompareGrid {
            rows,
            ops: ops.to_vec(),
            a: vec![0; n],
            a_on: vec![false; n],
            b: vec![0; n],
            b_on: vec![false; n],
            t: vec![IDLE; n],
            live: 0,
            pulse: 0,
            stats: GridStats::default(),
            north: ScheduleFeeder::new(),
            south: ScheduleFeeder::new(),
            west: ScheduleFeeder::new(),
            east_out: Collector::default(),
            tracer: None,
        }
    }

    /// Rows in the grid.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns in the grid.
    pub fn cols(&self) -> usize {
        self.ops.len()
    }

    /// Number of processors (`rows x cols`).
    pub fn cell_count(&self) -> usize {
        self.rows * self.cols()
    }

    /// The current pulse counter (pulses executed so far).
    pub fn pulse(&self) -> u64 {
        self.pulse
    }

    /// Utilisation statistics accumulated so far.
    pub fn stats(&self) -> GridStats {
        self.stats
    }

    /// Install the schedule of relation `A` (north edge, southbound): only
    /// elements.
    pub fn set_north_feeder(&mut self, f: ScheduleFeeder) -> Result<(), RefusedWord> {
        self.north = refuse_unless(f, "north", self.cols(), |w| matches!(w, Word::Elem(_)))?;
        Ok(())
    }

    /// Install the schedule of relation `B` (south edge, northbound): only
    /// elements.
    pub fn set_south_feeder(&mut self, f: ScheduleFeeder) -> Result<(), RefusedWord> {
        self.south = refuse_unless(f, "south", self.cols(), |w| matches!(w, Word::Elem(_)))?;
        Ok(())
    }

    /// Install the schedule of initial `t` values (west edge): only booleans.
    pub fn set_west_feeder(&mut self, f: ScheduleFeeder) -> Result<(), RefusedWord> {
        self.west = refuse_unless(f, "west", self.rows, |w| matches!(w, Word::Bool(_)))?;
        Ok(())
    }

    /// The verdicts that left the east edge.
    pub fn east_emissions(&self) -> &Collector {
        &self.east_out
    }

    /// Record per-pulse wire snapshots for rendering (see [`crate::trace`]).
    pub fn enable_tracing(&mut self) {
        self.tracer = Some(Tracer::default());
    }

    /// The recorded trace frames, if tracing was enabled.
    pub fn trace_frames(&self) -> &[TraceFrame] {
        self.tracer.as_ref().map(|t| t.frames()).unwrap_or(&[])
    }

    /// Execute one pulse: inject, compare column by column, drain the edges.
    pub fn step(&mut self) {
        let pulse = self.pulse;
        let (rows, cols) = (self.rows, self.cols());
        // This pulse's ring slots of row 0 on the `a` and `b` rings and of
        // column 0 on the `t` ring.
        let a0 = (rows - (pulse % rows as u64) as usize) % rows;
        let b0 = (pulse % rows as u64) as usize;
        let t0 = (cols - (pulse % cols as u64) as usize) % cols;

        // Injection into the slots the last pulse's drain left idle. The
        // feeders were checked when installed, so every word fits its lane.
        let b_south = (b0 + rows - 1) % rows;
        for &(c, w) in self.north.at(pulse).iter().take_while(|&&(c, _)| c < cols) {
            if let Word::Elem(e) = w {
                (self.a[c * rows + a0], self.a_on[c * rows + a0]) = (e, true);
                self.live += 1;
            }
        }
        for &(c, w) in self.south.at(pulse).iter().take_while(|&&(c, _)| c < cols) {
            if let Word::Elem(e) = w {
                (self.b[c * rows + b_south], self.b_on[c * rows + b_south]) = (e, true);
                self.live += 1;
            }
        }
        for &(r, w) in self.west.at(pulse).iter().take_while(|&&(r, _)| r < rows) {
            if let Word::Bool(v) = w {
                self.t[t0 * rows + r] = if v { TRUE } else { FALSE };
                self.live += 1;
            }
        }

        if let Some(tracer) = &mut self.tracer {
            let elem = |on: bool, e: Elem| if on { Word::Elem(e) } else { Word::Null };
            let (mut a, mut b, mut t) = (Vec::new(), Vec::new(), Vec::new());
            for r in 0..rows {
                for c in 0..cols {
                    let (ia, ib) = (c * rows + (a0 + r) % rows, c * rows + (b0 + r) % rows);
                    a.push(elem(self.a_on[ia], self.a[ia]));
                    b.push(elem(self.b_on[ib], self.b[ib]));
                    t.push(match self.t[(t0 + c) % cols * rows + r] {
                        IDLE => Word::Null,
                        v => Word::Bool(v == TRUE),
                    });
                }
            }
            tracer.snapshot(pulse, rows, cols, &a, &b, &t);
        }

        let (mut busy, mut made) = (0u64, 0usize);
        for (c, &op) in self.ops.iter().enumerate() {
            let col = c * rows..(c + 1) * rows;
            let t = &mut self.t[(t0 + c) % cols * rows..][..rows];
            let lanes = Lanes {
                a: &self.a[col.clone()],
                a_on: &self.a_on[col.clone()],
                b: &self.b[col.clone()],
                b_on: &self.b_on[col],
                a0,
                b0,
            };
            let (col_busy, col_made) = match op {
                CompareOp::Eq => lanes.compare(t, |x, y| x == y),
                CompareOp::Ne => lanes.compare(t, |x, y| x != y),
                CompareOp::Lt => lanes.compare(t, |x, y| x < y),
                CompareOp::Le => lanes.compare(t, |x, y| x <= y),
                CompareOp::Gt => lanes.compare(t, |x, y| x > y),
                CompareOp::Ge => lanes.compare(t, |x, y| x >= y),
            };
            busy += col_busy;
            made += col_made;
        }
        self.live += made;

        // Each edge cell's outgoing word sits in the slot the next pulse
        // injects into: the south row's `a` slot, the north row's `b` slot
        // and the east column's `t` slots.
        let a_south = (a0 + rows - 1) % rows;
        for c in 0..cols {
            self.live -= usize::from(std::mem::take(&mut self.a_on[c * rows + a_south]));
            self.live -= usize::from(std::mem::take(&mut self.b_on[c * rows + b0]));
        }
        let t_east = (t0 + cols - 1) % cols * rows;
        for (r, slot) in self.t[t_east..t_east + rows].iter_mut().enumerate() {
            if *slot != IDLE {
                self.east_out.collect(pulse, r, Word::Bool(*slot == TRUE));
                *slot = IDLE;
                self.live -= 1;
            }
        }

        self.stats.pulses += 1;
        self.stats.busy_cell_pulses += busy;
        self.stats.total_cell_pulses += (rows * cols) as u64;
        self.pulse += 1;
    }

    /// `true` when no feeder will inject again and every wire is idle.
    pub fn is_quiescent(&self) -> bool {
        self.north.horizon() <= self.pulse
            && self.south.horizon() <= self.pulse
            && self.west.horizon() <= self.pulse
            && self.live == 0
    }

    /// Pulse the grid until it drains, or fail after `max_pulses`.
    pub fn run_until_quiescent(&mut self, max_pulses: u64) -> Result<(), NotQuiescent> {
        let before = self.stats;
        while !self.is_quiescent() {
            if self.pulse >= max_pulses {
                return Err(NotQuiescent { max_pulses });
            }
            self.step();
        }
        crate::counters::record_run(before, self.stats);
        Ok(())
    }
}

/// Check that every word `f` injects within the edge's `lanes` is one `fits`
/// accepts (lanes beyond the edge are never read).
fn refuse_unless(
    f: ScheduleFeeder,
    edge: &'static str,
    lanes: usize,
    fits: impl Fn(Word) -> bool,
) -> Result<ScheduleFeeder, RefusedWord> {
    for pulse in 0..f.horizon() {
        for &(lane, word) in f.at(pulse).iter().take_while(|&&(lane, _)| lane < lanes) {
            if !fits(word) {
                return Err(RefusedWord {
                    edge,
                    pulse,
                    lane,
                    word,
                });
            }
        }
    }
    Ok(f)
}

/// One column's `a` and `b` rings for one pulse: row `r` reads slot
/// `(a0 + r) mod rows` of `a` and `(b0 + r) mod rows` of `b`.
struct Lanes<'g> {
    a: &'g [Elem],
    a_on: &'g [bool],
    b: &'g [Elem],
    b_on: &'g [bool],
    a0: usize,
    b0: usize,
}

impl Lanes<'_> {
    /// Pulse the column's cells against its `t` slots (row-indexed), split
    /// into the stretches where neither ring index wraps. Returns the busy
    /// cells and the verdicts that appeared on an idle `t` wire.
    #[inline(always)]
    fn compare(&self, t: &mut [u8], cmp: impl Fn(Elem, Elem) -> bool + Copy) -> (u64, usize) {
        let rows = t.len();
        let (wrap_a, wrap_b) = (rows - self.a0, rows - self.b0);
        let cuts = [wrap_a.min(wrap_b), wrap_a.max(wrap_b), rows];
        let (mut busy, mut made, mut lo) = (0u64, 0usize, 0);
        for hi in cuts {
            if hi == lo {
                continue;
            }
            let (ia, ib, n) = ((self.a0 + lo) % rows, (self.b0 + lo) % rows, hi - lo);
            let stretch = self.a[ia..ia + n]
                .iter()
                .zip(&self.a_on[ia..ia + n])
                .zip(&self.b[ib..ib + n])
                .zip(&self.b_on[ib..ib + n])
                .zip(&mut t[lo..hi]);
            for ((((&x, &x_on), &y), &y_on), slot) in stretch {
                // Figure 3-2: where both elements meet, the verdict is the
                // incoming `t` (an idle wire is the TRUE seed) AND the
                // comparison; elsewhere `t` passes unchanged.
                let t_in = *slot;
                let meet = x_on & y_on;
                let verdict = FALSE + u8::from((t_in != FALSE) & cmp(x, y));
                *slot = if meet { verdict } else { t_in };
                busy += u64::from(x_on | y_on | (t_in != IDLE));
                made += usize::from(meet & (t_in == IDLE));
            }
            lo = hi;
        }
        (busy, made)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(grid: &mut CompareGrid, budget: u64) -> Vec<(u64, usize, Word)> {
        grid.run_until_quiescent(budget).unwrap();
        grid.east_emissions()
            .emissions()
            .iter()
            .map(|e| (e.pulse, e.lane, e.word))
            .collect()
    }

    #[test]
    fn a_linear_array_ands_its_comparisons_east() {
        // Figure 3-1: element k of both tuples meets the running AND in
        // processor k at pulse k.
        for (b, seed, want) in [
            ([1, 2, 3], true, true),
            ([1, 9, 3], true, false),
            ([1, 2, 3], false, false),
        ] {
            let mut g = CompareGrid::new(1, &[CompareOp::Eq; 3]);
            let elems = |t: [Elem; 3]| {
                ScheduleFeeder::from_entries((0..3).map(move |k| (k as u64, k, Word::Elem(t[k]))))
            };
            g.set_north_feeder(elems([1, 2, 3])).unwrap();
            g.set_south_feeder(elems(b)).unwrap();
            g.set_west_feeder(ScheduleFeeder::from_entries([(0, 0, Word::Bool(seed))]))
                .unwrap();
            assert_eq!(run(&mut g, 20), [(2, 0, Word::Bool(want))]);
            assert_eq!(g.pulse(), 3);
        }
    }

    #[test]
    fn an_unseeded_meeting_starts_a_verdict_and_a_lone_t_passes() {
        let mut g = CompareGrid::new(1, &[CompareOp::Lt, CompareOp::Eq]);
        g.set_north_feeder(ScheduleFeeder::from_entries([(0, 0, Word::Elem(1))]))
            .unwrap();
        g.set_south_feeder(ScheduleFeeder::from_entries([(0, 0, Word::Elem(2))]))
            .unwrap();
        g.set_west_feeder(ScheduleFeeder::from_entries([(3, 0, Word::Bool(false))]))
            .unwrap();
        // 1 < 2 with no seed is TRUE; column 1 sees no elements and passes it.
        assert_eq!(
            run(&mut g, 20),
            [(1, 0, Word::Bool(true)), (4, 0, Word::Bool(false))]
        );
        let s = g.stats();
        assert_eq!(
            (s.pulses, s.busy_cell_pulses, s.total_cell_pulses),
            (5, 4, 10)
        );
    }

    #[test]
    fn words_off_their_kind_are_refused() {
        let mut g = CompareGrid::new(2, &[CompareOp::Eq]);
        let err = g
            .set_north_feeder(ScheduleFeeder::from_entries([(3, 0, Word::Drain)]))
            .unwrap_err();
        assert_eq!(
            (err.edge, err.pulse, err.lane, err.word),
            ("north", 3, 0, Word::Drain)
        );
        assert!(err.to_string().contains("only elements"));
        let err = g
            .set_west_feeder(ScheduleFeeder::from_entries([(0, 1, Word::Elem(4))]))
            .unwrap_err();
        assert!(err.to_string().contains("west edge at pulse 0, lane 1"));
        // A lane beyond the edge is never read, so nothing there is refused.
        g.set_south_feeder(ScheduleFeeder::from_entries([(0, 1, Word::Bool(true))]))
            .unwrap();
        assert_eq!(g.south.horizon(), 1);
    }

    #[test]
    fn a_short_budget_is_not_quiescent() {
        let mut g = CompareGrid::new(3, &[CompareOp::Eq]);
        g.set_north_feeder(ScheduleFeeder::from_entries([(0, 0, Word::Elem(1))]))
            .unwrap();
        assert_eq!(
            g.run_until_quiescent(2),
            Err(NotQuiescent { max_pulses: 2 })
        );
        assert_eq!(g.run_until_quiescent(3), Ok(()));
        assert!(g.is_quiescent());
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_sized_grid_is_rejected() {
        CompareGrid::new(2, &[]);
    }
}
