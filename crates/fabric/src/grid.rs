//! The orthogonally connected processor grid of Figure 2-1(a).
//!
//! A [`Grid`] is an `rows x cols` fabric of identical-interface cells with
//! three wire planes matching the processor prototype (Fig 2-2):
//!
//! * the `a` plane carries relation `A` southbound (top-to-bottom),
//! * the `b` plane carries relation `B` northbound (bottom-to-top),
//! * the `t` plane carries intermediate results eastbound (left-to-right).
//!
//! All wires are double-buffered: a word written by a cell at pulse `k` is
//! visible to its neighbour at pulse `k+1`, so "all of the data in the array
//! moves synchronously" (§2.1) regardless of evaluation order. Words that
//! fall off the south, north, or east edges are recorded by [`Collector`]s;
//! boundary inputs come from pulse-bucketed [`ScheduleFeeder`]s on the
//! north, south and west edges, one lane-ascending pass per edge per pulse.
//! Linearly connected arrays (Fig 2-1(b)) are grids with a single row or column.
//!
//! A pulse costs what moves: each cell takes its input latches as it reads
//! them, so the planes swapped out for the next pulse are already idle, and
//! the grid counts the words left on its wires, so quiescence is one
//! comparison. Every cell is still pulsed every pulse.

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
    /// Number of cell activations that performed a comparison or logic
    /// operation (incremented by cells via [`CellIo`] conventions: a cell is
    /// counted as working when any input was present).
    pub active_ops: u64,
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
    /// Southbound words entering each cell this pulse (`rows x cols`).
    a: Vec<Word>,
    /// Northbound words entering each cell this pulse.
    b: Vec<Word>,
    /// Eastbound words entering each cell this pulse.
    t: Vec<Word>,
    /// Planes for the next pulse (double buffering); all idle between
    /// pulses, because `step` takes every input latch it reads.
    a_next: Vec<Word>,
    b_next: Vec<Word>,
    t_next: Vec<Word>,
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
            a_next: vec![Word::Null; n],
            b_next: vec![Word::Null; n],
            t_next: vec![Word::Null; n],
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

    /// Execute one pulse: latch boundary inputs, pulse every cell, transfer
    /// outputs to neighbouring latches and edge collectors.
    pub fn step(&mut self) {
        let pulse = self.pulse;
        let (rows, cols) = (self.rows, self.cols);
        // Boundary injection: this pulse's scheduled words go straight into
        // the input latches of the edge cells, which no neighbour writes.
        // Lanes beyond the edge are never read.
        let south_row = (rows - 1) * cols;
        for (c, w) in self.north.at(pulse).take_while(|&(c, _)| c < cols) {
            self.a[c] = w;
        }
        for (c, w) in self.south.at(pulse).take_while(|&(c, _)| c < cols) {
            self.b[south_row + c] = w;
        }
        for (r, w) in self.west.at(pulse).take_while(|&(r, _)| r < rows) {
            self.t[r * cols] = w;
        }

        if let Some(tracer) = &mut self.tracer {
            tracer.snapshot(pulse, rows, cols, &self.a, &self.b, &self.t);
        }

        let mut busy = 0u64;
        let mut live = 0usize;
        for r in 0..rows {
            for c in 0..cols {
                let idx = r * cols + c;
                let mut io = CellIo::with_inputs(
                    std::mem::take(&mut self.a[idx]),
                    std::mem::take(&mut self.b[idx]),
                    std::mem::take(&mut self.t[idx]),
                );
                if io.any_input() {
                    busy += 1;
                }
                self.cells[idx].pulse(&mut io);
                if r + 1 < rows {
                    self.a_next[idx + cols] = io.a_out;
                    live += usize::from(io.a_out.is_present());
                } else {
                    self.south_out.collect(pulse, c, io.a_out);
                }
                if r > 0 {
                    self.b_next[idx - cols] = io.b_out;
                    live += usize::from(io.b_out.is_present());
                } else {
                    self.north_out.collect(pulse, c, io.b_out);
                }
                if c + 1 < cols {
                    self.t_next[idx + 1] = io.t_out;
                    live += usize::from(io.t_out.is_present());
                } else {
                    self.east_out.collect(pulse, r, io.t_out);
                }
            }
        }

        // Every latch of `a`, `b` and `t` was taken above, so the planes
        // swapped out are idle and need no clearing.
        std::mem::swap(&mut self.a, &mut self.a_next);
        std::mem::swap(&mut self.b, &mut self.b_next);
        std::mem::swap(&mut self.t, &mut self.t_next);
        self.live = live;

        self.stats.pulses += 1;
        self.stats.busy_cell_pulses += busy;
        self.stats.active_ops += busy;
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

    /// Reset dynamic state (wires, pulse counter, collectors, stats, cell
    /// state) so the same physical array can run another problem — §9's
    /// integrated system reuses its fixed arrays across operations.
    pub fn reset(&mut self) {
        for plane in [
            &mut self.a,
            &mut self.b,
            &mut self.t,
            &mut self.a_next,
            &mut self.b_next,
            &mut self.t_next,
        ] {
            plane.fill(Word::Null);
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
    #[should_panic(expected = "at least one cell")]
    fn zero_sized_grid_is_rejected() {
        let _: Grid<Wire> = Grid::new(0, 3, |_, _| Wire);
    }
}
