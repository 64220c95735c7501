//! The orthogonally connected processor grid of Figure 2-1(a).
//!
//! A [`Grid`] is an `rows x cols` fabric of identical-interface cells with
//! three wire planes matching the processor prototype (Fig 2-2):
//!
//! * the `a` plane carries relation `A` southbound (top-to-bottom),
//! * the `b` plane carries relation `B` northbound (bottom-to-top),
//! * the `t` plane carries intermediate results eastbound (left-to-right).
//!
//! "All of the data in the array moves synchronously" (§2.1): every word
//! moves one cell per pulse in its stream's direction, so in its own
//! stream's frame it stands still. Each plane is therefore a ring kept in
//! that frame:
//!
//! * the `a` plane holds row `r` at ring slot `(r - pulse) mod rows`,
//! * the `b` plane holds row `r` at ring slot `(r + pulse) mod rows`,
//! * the `t` plane holds column `c` of each row at slot `(c - pulse) mod cols`.
//!
//! A cell reads its three inputs from its own slots and writes its three
//! outputs back into the same slots, which its neighbours own on the next
//! pulse. Each slot belongs to exactly one cell per pulse, so a word written
//! at pulse `k` is read at pulse `k+1` whatever the evaluation order. The
//! slots an edge cell writes are the ones the next pulse injects into: after
//! the cell loop their words go to the south, north and east [`Collector`]s,
//! leaving the slots idle. Boundary inputs come from pulse-indexed
//! [`ScheduleFeeder`]s on the north, south and west edges, one lane-ascending
//! pass per edge per pulse. Linearly connected arrays (Fig 2-1(b)) are grids
//! with a single row or column. The comparison array, whose cells are all
//! alike, runs on [`crate::CompareGrid`] instead, fed by a
//! [`crate::CompareFeed`] rather than by feeder tables; the feeders and
//! collectors here serve the arrays of mixed cells.
//!
//! A pulse costs the comparisons: no word is copied between planes, and the
//! grid counts the words left on its wires, so quiescence is one comparison.
//! Every cell is still pulsed every pulse.

use crate::cell::{Cell, CellIo};
use crate::feed::{Collector, ScheduleFeeder};
use crate::trace::{TraceFrame, Tracer};
use crate::word::Word;

/// Utilisation statistics accumulated while a grid runs.
///
/// §8 observes that "only half of the processors in a systolic array are busy
/// at any one time" for the marching-two-relations schemes, and proposes the
/// fixed-operand layout to fix that; these counters let both claims be
/// measured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GridStats {
    /// Total pulses executed.
    pub pulses: u64,
    /// Sum over pulses of the number of cells with at least one input present.
    pub busy_cell_pulses: u64,
    /// `pulses x rows x cols` — the denominator for utilisation.
    pub total_cell_pulses: u64,
}

impl GridStats {
    /// Fraction of cell-pulses during which the cell had work, in `[0, 1]`.
    pub fn utilisation(&self) -> f64 {
        if self.total_cell_pulses == 0 {
            0.0
        } else {
            self.busy_cell_pulses as f64 / self.total_cell_pulses as f64
        }
    }
}

/// Error returned when a grid fails to drain within a pulse budget —
/// invariably a schedule construction bug, surfaced instead of hanging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotQuiescent {
    /// The budget that was exhausted.
    pub max_pulses: u64,
}

impl std::fmt::Display for NotQuiescent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "grid not quiescent after {} pulses", self.max_pulses)
    }
}

impl std::error::Error for NotQuiescent {}

/// An orthogonally connected systolic processor array.
pub struct Grid<C: Cell> {
    rows: usize,
    cols: usize,
    cells: Vec<C>,
    /// Southbound words, `cols` per ring slot; row `r` reads slot
    /// `(r - pulse) mod rows`.
    a: Vec<Word>,
    /// Northbound words, `cols` per ring slot; row `r` reads slot
    /// `(r + pulse) mod rows`.
    b: Vec<Word>,
    /// Eastbound words, one ring of `cols` slots per row; column `c` reads
    /// slot `(c - pulse) mod cols`.
    t: Vec<Word>,
    /// Present words on the `a`, `b` and `t` planes between pulses.
    live: usize,
    pulse: u64,
    stats: GridStats,
    north: ScheduleFeeder,
    south: ScheduleFeeder,
    west: ScheduleFeeder,
    east_out: Collector,
    south_out: Collector,
    north_out: Collector,
    tracer: Option<Tracer>,
}

impl<C: Cell> Grid<C> {
    /// Build a `rows x cols` grid, constructing each cell from its position.
    ///
    /// # Panics
    /// Panics if `rows` or `cols` is zero.
    pub fn new(rows: usize, cols: usize, mut make: impl FnMut(usize, usize) -> C) -> Self {
        assert!(rows > 0 && cols > 0, "grid must have at least one cell");
        let mut cells = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                cells.push(make(r, c));
            }
        }
        let n = rows * cols;
        Grid {
            rows,
            cols,
            cells,
            a: vec![Word::Null; n],
            b: vec![Word::Null; n],
            t: vec![Word::Null; n],
            live: 0,
            pulse: 0,
            stats: GridStats::default(),
            north: ScheduleFeeder::new(),
            south: ScheduleFeeder::new(),
            west: ScheduleFeeder::new(),
            east_out: Collector::default(),
            south_out: Collector::default(),
            north_out: Collector::default(),
            tracer: None,
        }
    }

    /// Rows in the grid.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns in the grid.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of processors (`rows x cols`).
    pub fn cell_count(&self) -> usize {
        self.rows * self.cols
    }

    /// The current pulse counter (pulses executed so far).
    pub fn pulse(&self) -> u64 {
        self.pulse
    }

    /// Utilisation statistics accumulated so far.
    pub fn stats(&self) -> GridStats {
        self.stats
    }

    /// Immutable access to a cell (row-major).
    pub fn cell(&self, r: usize, c: usize) -> &C {
        &self.cells[r * self.cols + c]
    }

    /// Mutable access to a cell, e.g. for pre-loading stored elements (§7).
    pub fn cell_mut(&mut self, r: usize, c: usize) -> &mut C {
        &mut self.cells[r * self.cols + c]
    }

    /// Install the schedule driving the north edge (relation `A`,
    /// southbound).
    pub fn set_north_feeder(&mut self, f: ScheduleFeeder) {
        self.north = f;
    }

    /// Install the schedule driving the south edge (relation `B`,
    /// northbound).
    pub fn set_south_feeder(&mut self, f: ScheduleFeeder) {
        self.south = f;
    }

    /// Install the schedule driving the west edge (initial `t` values).
    pub fn set_west_feeder(&mut self, f: ScheduleFeeder) {
        self.west = f;
    }

    /// Words that left the east edge (the results side in most arrays).
    pub fn east_emissions(&self) -> &Collector {
        &self.east_out
    }

    /// Words that left the south edge (relation `A` after traversal, or
    /// accumulated `t_i` values in the intersection array).
    pub fn south_emissions(&self) -> &Collector {
        &self.south_out
    }

    /// Words that left the north edge (relation `B` after traversal).
    pub fn north_emissions(&self) -> &Collector {
        &self.north_out
    }

    /// Record per-pulse wire snapshots for rendering (see [`crate::trace`]).
    pub fn enable_tracing(&mut self) {
        self.tracer = Some(Tracer::default());
    }

    /// The recorded trace frames, if tracing was enabled.
    pub fn trace_frames(&self) -> &[TraceFrame] {
        self.tracer.as_ref().map(|t| t.frames()).unwrap_or(&[])
    }

    /// Execute one pulse: latch boundary inputs, pulse every cell in place,
    /// and hand the words that crossed an edge to its collector.
    pub fn step(&mut self) {
        let pulse = self.pulse;
        let (rows, cols) = (self.rows, self.cols);
        // This pulse's ring slots of row 0 on the `a` and `b` planes and of
        // column 0 on the `t` plane.
        let a0 = (rows - (pulse % rows as u64) as usize) % rows;
        let b0 = (pulse % rows as u64) as usize;
        let t0 = (cols - (pulse % cols as u64) as usize) % cols;

        // Boundary injection: this pulse's scheduled words go into the edge
        // cells' input slots, which the last pulse's edge collection left
        // idle. Lanes beyond the edge are never read.
        let b_south = (b0 + rows - 1) % rows * cols;
        for &(c, w) in self.north.at(pulse).iter().take_while(|&&(c, _)| c < cols) {
            self.a[a0 * cols + c] = w;
        }
        for &(c, w) in self.south.at(pulse).iter().take_while(|&&(c, _)| c < cols) {
            self.b[b_south + c] = w;
        }
        for &(r, w) in self.west.at(pulse).iter().take_while(|&&(r, _)| r < rows) {
            self.t[r * cols + t0] = w;
        }

        if let Some(tracer) = &mut self.tracer {
            let by_row = |plane: &[Word], slot: &dyn Fn(usize, usize) -> usize| -> Vec<Word> {
                (0..rows)
                    .flat_map(|r| (0..cols).map(move |c| plane[slot(r, c)]))
                    .collect()
            };
            let a = by_row(&self.a, &|r, c| (a0 + r) % rows * cols + c);
            let b = by_row(&self.b, &|r, c| (b0 + r) % rows * cols + c);
            let t = by_row(&self.t, &|r, c| r * cols + (t0 + c) % cols);
            tracer.snapshot(pulse, rows, cols, &a, &b, &t);
        }

        let mut busy = 0u64;
        let mut live = 0usize;
        let n = rows * cols;
        // Row `r`'s `a` and `b` slots start `r` whole rows after `a0` and
        // `b0`, so the flat indices wrap only at row boundaries.
        let (mut ia, mut ib) = (a0 * cols, b0 * cols);
        for row in (0..n).step_by(cols) {
            let cells = &mut self.cells[row..][..cols];
            let a = &mut self.a[ia..][..cols];
            let b = &mut self.b[ib..][..cols];
            let t = &mut self.t[row..][..cols];
            let mut tc = t0;
            for c in 0..cols {
                let mut io = CellIo::with_inputs(a[c], b[c], t[tc]);
                busy += u64::from(io.any_input());
                cells[c].pulse(&mut io);
                (a[c], b[c], t[tc]) = (io.a_out, io.b_out, io.t_out);
                live += usize::from(io.a_out.is_present())
                    + usize::from(io.b_out.is_present())
                    + usize::from(io.t_out.is_present());
                tc = if tc + 1 == cols { 0 } else { tc + 1 };
            }
            ia = if ia + cols == n { 0 } else { ia + cols };
            ib = if ib + cols == n { 0 } else { ib + cols };
        }

        // Each edge cell wrote its outgoing word into a slot the next pulse
        // injects into: the south row's `a` slot, the north row's `b` slot
        // and the east column's `t` slots.
        let a_south = (a0 + rows - 1) % rows * cols;
        let t_east = self.t.iter_mut().skip((t0 + cols - 1) % cols).step_by(cols);
        live -= drain_edge(&mut self.south_out, pulse, &mut self.a[a_south..][..cols]);
        live -= drain_edge(&mut self.north_out, pulse, &mut self.b[b0 * cols..][..cols]);
        live -= drain_edge(&mut self.east_out, pulse, t_east);
        self.live = live;

        self.stats.pulses += 1;
        self.stats.busy_cell_pulses += busy;
        self.stats.total_cell_pulses += n as u64;
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

    /// Reset dynamic state (wires, pulse counter, feeders, collectors, stats,
    /// cell state) so the same physical array can run another problem — §9's
    /// integrated system reuses its fixed arrays across operations. The next
    /// problem installs its own schedules; an edge it leaves alone injects
    /// nothing.
    pub fn reset(&mut self) {
        for plane in [&mut self.a, &mut self.b, &mut self.t] {
            plane.fill(Word::Null);
        }
        for feeder in [&mut self.north, &mut self.south, &mut self.west] {
            *feeder = ScheduleFeeder::new();
        }
        self.live = 0;
        self.pulse = 0;
        self.stats = GridStats::default();
        self.east_out.clear();
        self.south_out.clear();
        self.north_out.clear();
        if let Some(t) = &mut self.tracer {
            t.clear();
        }
        for cell in &mut self.cells {
            cell.reset();
        }
    }
}

/// Move the words an edge emitted this pulse into its collector,
/// lane-ascending, leaving their slots idle for the next injection. Returns
/// how many words it moved.
fn drain_edge<'a>(
    out: &mut Collector,
    pulse: u64,
    slots: impl IntoIterator<Item = &'a mut Word>,
) -> usize {
    let before = out.len();
    for (lane, slot) in slots.into_iter().enumerate() {
        out.collect(pulse, lane, std::mem::take(slot));
    }
    out.len() - before
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feed::ScheduleFeeder;

    /// A cell that forwards everything one step along its natural direction.
    struct Wire;
    impl Cell for Wire {
        fn pulse(&mut self, io: &mut CellIo) {
            io.pass_through();
            io.t_out = io.t_in;
        }
    }

    #[test]
    fn a_word_travels_south_one_row_per_pulse() {
        let mut g: Grid<Wire> = Grid::new(3, 1, |_, _| Wire);
        g.set_north_feeder(ScheduleFeeder::from_entries([(0, 0, Word::Elem(7))]));
        g.run_until_quiescent(100).unwrap();
        // Injected into row 0 at pulse 0; computed by row 2 at pulse 2.
        assert_eq!(
            g.south_emissions().emissions(),
            &[crate::feed::Emission {
                pulse: 2,
                lane: 0,
                word: Word::Elem(7),
            }]
        );
        assert_eq!(g.pulse(), 3);
    }

    #[test]
    fn b_word_travels_north_and_t_travels_east() {
        let mut g: Grid<Wire> = Grid::new(2, 3, |_, _| Wire);
        g.set_south_feeder(ScheduleFeeder::from_entries([(0, 2, Word::Elem(9))]));
        g.set_west_feeder(ScheduleFeeder::from_entries([(0, 1, Word::Bool(true))]));
        g.run_until_quiescent(100).unwrap();
        assert_eq!(g.north_emissions().at(1, 2), Some(Word::Elem(9)));
        assert_eq!(g.east_emissions().at(2, 1), Some(Word::Bool(true)));
    }

    #[test]
    fn quiescence_requires_empty_wires_and_exhausted_feeders() {
        let mut g: Grid<Wire> = Grid::new(2, 2, |_, _| Wire);
        g.set_north_feeder(ScheduleFeeder::from_entries([(3, 0, Word::Elem(1))]));
        assert!(!g.is_quiescent(), "future injection pending");
        g.run_until_quiescent(100).unwrap();
        assert!(g.is_quiescent());
        // Pulses: injection at 3, exits after traversing 2 rows at pulse 4,
        // so 5 pulses total.
        assert_eq!(g.pulse(), 5);
    }

    #[test]
    fn run_reports_failure_instead_of_hanging() {
        /// A pathological cell that regenerates a word forever.
        struct Oscillator;
        impl Cell for Oscillator {
            fn pulse(&mut self, io: &mut CellIo) {
                io.t_out = Word::Bool(true);
                let _ = io;
            }
        }
        let mut g: Grid<Oscillator> = Grid::new(1, 2, |_, _| Oscillator);
        g.set_west_feeder(ScheduleFeeder::from_entries([(0, 0, Word::Bool(true))]));
        let err = g.run_until_quiescent(10).unwrap_err();
        assert_eq!(err, NotQuiescent { max_pulses: 10 });
        assert!(err.to_string().contains("10 pulses"));
    }

    #[test]
    fn utilisation_counts_busy_cells_only() {
        let mut g: Grid<Wire> = Grid::new(1, 4, |_, _| Wire);
        g.set_west_feeder(ScheduleFeeder::from_entries([(0, 0, Word::Bool(true))]));
        g.run_until_quiescent(100).unwrap();
        let s = g.stats();
        // One word crosses 4 cells: 4 busy cell-pulses over 4 pulses x 4 cells.
        assert_eq!(s.busy_cell_pulses, 4);
        assert_eq!(s.total_cell_pulses, 16);
        assert!((s.utilisation() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn reset_allows_reuse_with_identical_results() {
        let mut g: Grid<Wire> = Grid::new(2, 1, |_, _| Wire);
        g.set_north_feeder(ScheduleFeeder::from_entries([(0, 0, Word::Elem(1))]));
        g.run_until_quiescent(100).unwrap();
        let first = g.south_emissions().emissions().to_vec();
        g.reset();
        assert_eq!(g.pulse(), 0);
        assert!(g.south_emissions().is_empty());
        g.set_north_feeder(ScheduleFeeder::from_entries([(0, 0, Word::Elem(1))]));
        g.run_until_quiescent(100).unwrap();
        assert_eq!(g.south_emissions().emissions(), first.as_slice());
    }

    #[test]
    fn reset_forgets_the_last_problems_feeders() {
        let mut g: Grid<Wire> = Grid::new(2, 2, |_, _| Wire);
        g.set_west_feeder(ScheduleFeeder::from_entries([(0, 0, Word::Bool(true))]));
        g.run_until_quiescent(100).unwrap();
        assert_eq!(g.east_emissions().len(), 1);
        g.reset();
        g.set_north_feeder(ScheduleFeeder::from_entries([(0, 1, Word::Elem(5))]));
        g.run_until_quiescent(100).unwrap();
        // The old west schedule is not replayed from pulse 0.
        assert!(g.east_emissions().is_empty());
        assert_eq!(g.south_emissions().at(1, 1), Some(Word::Elem(5)));
        assert_eq!(g.pulse(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_sized_grid_is_rejected() {
        let _: Grid<Wire> = Grid::new(0, 3, |_, _| Wire);
    }
}
