//! Today's byte-lane comparison stepper, kept verbatim as the reference the
//! packed [`super::CompareGrid`] must equal pulse by pulse: one `Elem` and
//! one `bool` per `a`/`b` ring slot, one byte per `t` slot, one loop per
//! column over every cell, and one `east` call per verdict.

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

mod tests {
    use proptest::prelude::*;

    use super::CompareFeed as ByteFeed;
    use crate::compare::{CompareFeed, CompareGrid as Packed, EastEdge, WestEdge};
    use crate::word::{CompareOp, Elem};

    /// Row counts on both sides of every word boundary of the packed planes.
    const ROWS: [usize; 6] = [1, 2, 63, 64, 65, 129];

    /// A feed read off per-pulse lists of `(lane, word)`, keeping every
    /// east verdict as `(pulse, row, verdict)`; it feeds both steppers.
    #[derive(Clone, Default)]
    struct Script {
        north: Vec<Vec<(usize, Elem)>>,
        south: Vec<Vec<(usize, Elem)>>,
        west: Vec<Vec<(usize, bool)>>,
        east: Vec<(u64, usize, bool)>,
    }

    impl Script {
        /// Every lane of every pulse below `horizon` carries a word with
        /// probability `density / 8`, drawn from `seed`.
        fn random(seed: u64, rows: usize, cols: usize, horizon: u64, density: [u64; 3]) -> Self {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut script = Script::default();
            for _ in 0..horizon {
                let mut edge = |lanes: usize, density: u64| -> Vec<(usize, u64)> {
                    (0..lanes)
                        .map(|lane| (lane, next()))
                        .filter(|&(_, r)| r % 8 < density)
                        .collect()
                };
                let north = edge(cols, density[0]);
                let south = edge(cols, density[1]);
                let west = edge(rows, density[2]);
                let elem = |(lane, r): (usize, u64)| (lane, (r >> 8) as Elem % 4 - 2);
                script.north.push(north.into_iter().map(elem).collect());
                script.south.push(south.into_iter().map(elem).collect());
                script.west.push(
                    west.into_iter()
                        .map(|(l, r)| (l, r >> 9 & 1 == 1))
                        .collect(),
                );
            }
            script
        }

        fn at<W: Copy>(lists: &[Vec<(usize, W)>], pulse: u64, mut put: impl FnMut(usize, W)) {
            for &(lane, w) in lists.get(pulse as usize).map_or(&[][..], |l| &l[..]) {
                put(lane, w);
            }
        }
    }

    impl CompareFeed for Script {
        fn horizon(&self) -> u64 {
            self.north.len() as u64
        }
        fn north(&mut self, pulse: u64, put: impl FnMut(usize, Elem)) {
            Script::at(&self.north, pulse, put);
        }
        fn south(&mut self, pulse: u64, put: impl FnMut(usize, Elem)) {
            Script::at(&self.south, pulse, put);
        }
        fn west(&mut self, pulse: u64, seeds: &mut WestEdge<'_>) {
            Script::at(&self.west, pulse, |r, v| seeds.put(r, v));
        }
        fn east(&mut self, pulse: u64, verdicts: &mut EastEdge<'_>) {
            let left = verdicts.iter().map(|(row, verdict)| (pulse, row, verdict));
            self.east.extend(left);
        }
    }

    impl ByteFeed for Script {
        fn horizon(&self) -> u64 {
            self.north.len() as u64
        }
        fn north(&mut self, pulse: u64, put: impl FnMut(usize, Elem)) {
            Script::at(&self.north, pulse, put);
        }
        fn south(&mut self, pulse: u64, put: impl FnMut(usize, Elem)) {
            Script::at(&self.south, pulse, put);
        }
        fn west(&mut self, pulse: u64, put: impl FnMut(usize, bool)) {
            Script::at(&self.west, pulse, put);
        }
        fn east(&mut self, pulse: u64, row: usize, verdict: bool) {
            self.east.push((pulse, row, verdict));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn packed_planes_step_exactly_like_the_byte_lanes(
            rows_pick in 0usize..6,
            op_picks in prop::collection::vec(0usize..6, 1..=6),
            seed in any::<u64>(),
            density in (0u64..=8, 0u64..=8, 0u64..=8),
            horizon_pick in 0u64..=300,
            budget_pick in 0u64..=1000,
            tracing in any::<bool>(),
        ) {
            let rows = ROWS[rows_pick];
            let ops: Vec<CompareOp> = op_picks.iter().map(|&k| CompareOp::ALL[k]).collect();
            let horizon = horizon_pick % (2 * rows as u64 + 8);
            let script =
                Script::random(seed, rows, ops.len(), horizon, [density.0, density.1, density.2]);

            // Pulse by pulse to quiescence: verdicts, statistics and
            // quiescence agree after every step.
            let (mut packed, mut bytes) = (Packed::new(rows, &ops), super::CompareGrid::new(rows, &ops));
            if tracing {
                packed.enable_tracing();
                bytes.enable_tracing();
            }
            prop_assert_eq!((packed.rows(), packed.cell_count()), (bytes.rows(), bytes.cell_count()));
            let (mut fp, mut fb) = (script.clone(), script.clone());
            loop {
                prop_assert_eq!(packed.is_quiescent(&fp), bytes.is_quiescent(&fb));
                if packed.is_quiescent(&fp) {
                    break;
                }
                prop_assert!(packed.pulse() < horizon + rows as u64 + ops.len() as u64 + 2);
                packed.step(&mut fp);
                bytes.step(&mut fb);
                prop_assert_eq!(packed.pulse(), bytes.pulse());
                prop_assert_eq!(packed.stats(), bytes.stats());
                prop_assert_eq!(&fp.east, &fb.east, "verdicts at pulse {}", packed.pulse() - 1);
            }
            prop_assert_eq!(packed.trace_frames(), bytes.trace_frames());
            let drained = packed.pulse();

            // A random budget, often short, ends both runs alike.
            let budget = budget_pick % (drained + 2);
            let (mut packed, mut bytes) = (Packed::new(rows, &ops), super::CompareGrid::new(rows, &ops));
            let (mut fp, mut fb) = (script.clone(), script);
            let verdict = packed.run_until_quiescent(&mut fp, budget);
            prop_assert_eq!(verdict.clone(), bytes.run_until_quiescent(&mut fb, budget));
            prop_assert_eq!(verdict.is_ok(), budget >= drained);
            prop_assert_eq!(packed.stats(), bytes.stats());
            prop_assert_eq!(&fp.east, &fb.east);
        }
    }
}
