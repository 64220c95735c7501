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
//! The grid holds no schedule. Its boundary is a [`CompareFeed`], passed to
//! every [`CompareGrid::step`]: each pulse the feed puts elements on the
//! north and south lanes and seeds on the west rows, and takes every verdict
//! that leaves the east edge. A typed feed cannot offer a word the lanes
//! cannot carry, and a second word put into an occupied slot is refused
//! (a panic: two data items on one wire is a schedule bug). The operator
//! front ends compute each pulse's words from the closed-form schedule
//! (`systolic_core::tiling`), so no table of injections or verdicts is ever
//! built.
//!
//! A pulse injects, then runs one loop per column, chosen once per
//! [`CompareOp`] outside it. A column's `a` and `b` ring indices wrap at most
//! once each, so the loop runs over at most three contiguous stretches and
//! writes only `t` bytes: `a` and `b` stand still in their own frames. Then
//! the edges drain: east verdicts go to the feed; `a`/`b` words leaving the
//! array only leave the live count, because no caller reads them.
//!
//! Pulses, busy and total cell-pulses, quiescence, [`NotQuiescent`] and trace
//! frames are exactly those of a `Grid` of comparison cells whose feeders
//! hold the same words.

use crate::grid::{GridStats, NotQuiescent};
use crate::trace::{TraceFrame, Tracer};
use crate::word::{CompareOp, Elem, Word};

/// A `t` slot with no word on it.
const IDLE: u8 = 0;
/// A `t` slot carrying `Bool(false)`.
const FALSE: u8 = 1;
/// A `t` slot carrying `Bool(true)`.
const TRUE: u8 = 2;

/// The boundary of a [`CompareGrid`]: what enters its north, south and west
/// edges each pulse, and where its east verdicts go.
///
/// The grid asks for pulses in ascending order, one call per edge per
/// pulse, and drains the east edge after the pulse's comparisons.
pub trait CompareFeed {
    /// One past the last pulse at which the feed puts anything (0 if it
    /// never does): the grid is quiescent only from here on.
    fn horizon(&self) -> u64;

    /// Put the elements of `A` entering the north edge at `pulse`, as
    /// `put(column, element)`.
    fn north(&mut self, pulse: u64, put: impl FnMut(usize, Elem));

    /// Put the elements of `B` entering the south edge at `pulse`, as
    /// `put(column, element)`.
    fn south(&mut self, pulse: u64, put: impl FnMut(usize, Elem));

    /// Put the initial `t` values entering the west edge at `pulse`, as
    /// `put(row, seed)`.
    fn west(&mut self, pulse: u64, put: impl FnMut(usize, bool));

    /// Take the verdict that left the east edge from `row`, computed by the
    /// row's last cell at `pulse`.
    fn east(&mut self, pulse: u64, row: usize, verdict: bool);
}

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

    /// Record per-pulse wire snapshots for rendering (see [`crate::trace`]).
    pub fn enable_tracing(&mut self) {
        self.tracer = Some(Tracer::default());
    }

    /// The recorded trace frames, if tracing was enabled.
    pub fn trace_frames(&self) -> &[TraceFrame] {
        self.tracer.as_ref().map(|t| t.frames()).unwrap_or(&[])
    }

    /// Execute one pulse: inject what `feed` puts at this pulse, compare
    /// column by column, drain the edges (east verdicts into `feed`).
    ///
    /// # Panics
    /// Panics if `feed` puts a word on a lane the edge does not have, or a
    /// second word on one lane in one pulse.
    pub fn step(&mut self, feed: &mut impl CompareFeed) {
        let pulse = self.pulse;
        let (rows, cols) = (self.rows, self.cols());
        // This pulse's ring slots of row 0 on the `a` and `b` rings and of
        // column 0 on the `t` ring.
        let a0 = (rows - (pulse % rows as u64) as usize) % rows;
        let b0 = (pulse % rows as u64) as usize;
        let t0 = (cols - (pulse % cols as u64) as usize) % cols;

        // Injection into the slots the last pulse's drain left idle: a slot
        // found occupied was filled earlier in this same pulse.
        let b_south = (b0 + rows - 1) % rows;
        let mut put = 0usize;
        let (a, a_on) = (&mut self.a[..], &mut self.a_on[..]);
        feed.north(pulse, |c, e| {
            latch(
                a,
                a_on,
                lane("north", c, cols) * rows + a0,
                e,
                pulse,
                "north",
            );
            put += 1;
        });
        let (b, b_on) = (&mut self.b[..], &mut self.b_on[..]);
        feed.south(pulse, |c, e| {
            latch(
                b,
                b_on,
                lane("south", c, cols) * rows + b_south,
                e,
                pulse,
                "south",
            );
            put += 1;
        });
        let t_west = &mut self.t[t0 * rows..][..rows];
        feed.west(pulse, |r, v| {
            let slot = &mut t_west[lane("west", r, rows)];
            assert!(
                *slot == IDLE,
                "slot collision at pulse {pulse} on the west edge"
            );
            *slot = if v { TRUE } else { FALSE };
            put += 1;
        });
        self.live += put;

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
                feed.east(pulse, r, *slot == TRUE);
                *slot = IDLE;
                self.live -= 1;
            }
        }

        self.stats.pulses += 1;
        self.stats.busy_cell_pulses += busy;
        self.stats.total_cell_pulses += (rows * cols) as u64;
        self.pulse += 1;
    }

    /// `true` when `feed` will put nothing more and every wire is idle.
    pub fn is_quiescent(&self, feed: &impl CompareFeed) -> bool {
        feed.horizon() <= self.pulse && self.live == 0
    }

    /// Pulse the grid on `feed` until it drains, or fail after `max_pulses`.
    pub fn run_until_quiescent(
        &mut self,
        feed: &mut impl CompareFeed,
        max_pulses: u64,
    ) -> Result<(), NotQuiescent> {
        let before = self.stats;
        while !self.is_quiescent(feed) {
            if self.pulse >= max_pulses {
                return Err(NotQuiescent { max_pulses });
            }
            self.step(feed);
        }
        crate::counters::record_run(before, self.stats);
        Ok(())
    }
}

/// `lane`, checked to be one of the `edge`'s `width` lanes.
fn lane(edge: &str, lane: usize, width: usize) -> usize {
    assert!(
        lane < width,
        "{edge} lane {lane} is off the array ({width} lanes)"
    );
    lane
}

/// Latch element `e` into ring slot `k`, which must be idle.
fn latch(ring: &mut [Elem], on: &mut [bool], k: usize, e: Elem, pulse: u64, edge: &str) {
    assert!(!on[k], "slot collision at pulse {pulse} on the {edge} edge");
    (ring[k], on[k]) = (e, true);
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

    /// A feed read off short lists of `(pulse, lane, word)` entries, keeping
    /// every east verdict.
    #[derive(Default)]
    struct Script {
        north: Vec<(u64, usize, Elem)>,
        south: Vec<(u64, usize, Elem)>,
        west: Vec<(u64, usize, bool)>,
        east: Vec<(u64, usize, bool)>,
    }

    fn put_at<W: Copy>(entries: &[(u64, usize, W)], pulse: u64, mut put: impl FnMut(usize, W)) {
        for &(p, lane, w) in entries {
            if p == pulse {
                put(lane, w);
            }
        }
    }

    impl CompareFeed for Script {
        fn horizon(&self) -> u64 {
            let elems = self.north.iter().chain(&self.south).map(|&(p, _, _)| p);
            let seeds = self.west.iter().map(|&(p, _, _)| p);
            elems.chain(seeds).map(|p| p + 1).max().unwrap_or(0)
        }
        fn north(&mut self, pulse: u64, put: impl FnMut(usize, Elem)) {
            put_at(&self.north, pulse, put);
        }
        fn south(&mut self, pulse: u64, put: impl FnMut(usize, Elem)) {
            put_at(&self.south, pulse, put);
        }
        fn west(&mut self, pulse: u64, put: impl FnMut(usize, bool)) {
            put_at(&self.west, pulse, put);
        }
        fn east(&mut self, pulse: u64, row: usize, verdict: bool) {
            self.east.push((pulse, row, verdict));
        }
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
            let elems = |t: [Elem; 3]| (0..3).map(|k| (k as u64, k, t[k])).collect();
            let mut feed = Script {
                north: elems([1, 2, 3]),
                south: elems(b),
                west: vec![(0, 0, seed)],
                ..Script::default()
            };
            g.run_until_quiescent(&mut feed, 20).unwrap();
            assert_eq!(feed.east, [(2, 0, want)]);
            assert_eq!(g.pulse(), 3);
        }
    }

    #[test]
    fn an_unseeded_meeting_starts_a_verdict_and_a_lone_t_passes() {
        let mut g = CompareGrid::new(1, &[CompareOp::Lt, CompareOp::Eq]);
        let mut feed = Script {
            north: vec![(0, 0, 1)],
            south: vec![(0, 0, 2)],
            west: vec![(3, 0, false)],
            ..Script::default()
        };
        g.run_until_quiescent(&mut feed, 20).unwrap();
        // 1 < 2 with no seed is TRUE; column 1 sees no elements and passes it.
        assert_eq!(feed.east, [(1, 0, true), (4, 0, false)]);
        let s = g.stats();
        assert_eq!(
            (s.pulses, s.busy_cell_pulses, s.total_cell_pulses),
            (5, 4, 10)
        );
    }

    #[test]
    #[should_panic(expected = "slot collision at pulse 3 on the north edge")]
    fn a_second_element_into_an_occupied_slot_is_refused() {
        // Two words on one wire in one pulse is a schedule bug: the grid
        // refuses the second instead of overwriting the first.
        let mut g = CompareGrid::new(2, &[CompareOp::Eq; 2]);
        let mut feed = Script {
            north: vec![(3, 1, 7), (3, 0, 5), (3, 1, 7)],
            ..Script::default()
        };
        let _ = g.run_until_quiescent(&mut feed, 20);
    }

    #[test]
    #[should_panic(expected = "slot collision at pulse 0 on the west edge")]
    fn a_second_seed_into_an_occupied_slot_is_refused() {
        let mut g = CompareGrid::new(2, &[CompareOp::Eq]);
        let mut feed = Script {
            west: vec![(0, 1, true), (0, 1, false)],
            ..Script::default()
        };
        let _ = g.run_until_quiescent(&mut feed, 20);
    }

    #[test]
    #[should_panic(expected = "south lane 2 is off the array (2 lanes)")]
    fn a_lane_off_the_edge_is_refused() {
        let mut g = CompareGrid::new(3, &[CompareOp::Eq; 2]);
        let mut feed = Script {
            south: vec![(0, 2, 1)],
            ..Script::default()
        };
        let _ = g.run_until_quiescent(&mut feed, 20);
    }

    #[test]
    fn a_short_budget_is_not_quiescent() {
        let mut g = CompareGrid::new(3, &[CompareOp::Eq]);
        let mut feed = Script {
            north: vec![(0, 0, 1)],
            ..Script::default()
        };
        assert_eq!(
            g.run_until_quiescent(&mut feed, 2),
            Err(NotQuiescent { max_pulses: 2 })
        );
        assert_eq!(g.run_until_quiescent(&mut feed, 3), Ok(()));
        assert!(g.is_quiescent(&feed));
    }

    #[test]
    fn a_feed_still_owing_words_keeps_an_empty_grid_running() {
        // Nothing is on the wires between pulse 0 and pulse 5, but the feed
        // has not put its last word yet.
        let mut g = CompareGrid::new(1, &[CompareOp::Eq]);
        let mut feed = Script {
            west: vec![(0, 0, true), (5, 0, false)],
            ..Script::default()
        };
        g.run_until_quiescent(&mut feed, 20).unwrap();
        assert_eq!(feed.east, [(0, 0, true), (5, 0, false)]);
        assert_eq!(g.pulse(), 6);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_sized_grid_is_rejected() {
        CompareGrid::new(2, &[]);
    }
}
