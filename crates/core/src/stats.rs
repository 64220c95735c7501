//! Execution statistics of a simulated array run.

use systolic_fabric::GridStats;

/// What one (or a sequence of) array run(s) cost: the quantities the paper
/// reasons about in §8 — pulses (each pulse is one comparison time on the
/// hardware), processor count, and utilisation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Pulses executed (hardware latency = `pulses x comparison_time`).
    pub pulses: u64,
    /// Processors in the array.
    pub cells: usize,
    /// Cell-pulses during which a cell had input (work performed).
    pub busy_cell_pulses: u64,
    /// `pulses x cells` — the utilisation denominator.
    pub total_cell_pulses: u64,
    /// Separate array invocations (1 for a single run; >1 when a problem is
    /// decomposed over a fixed-size array, §8).
    pub array_runs: u64,
}

impl ExecStats {
    /// Assemble from a grid run.
    pub fn from_grid(stats: GridStats, cells: usize) -> Self {
        ExecStats {
            pulses: stats.pulses,
            cells,
            busy_cell_pulses: stats.busy_cell_pulses,
            total_cell_pulses: stats.total_cell_pulses,
            array_runs: 1,
        }
    }

    /// One array run of `pulses` pulses on `cells` processors, `busy` of
    /// its cell-pulses doing work: what the closed forms count.
    pub(crate) fn one_run(pulses: u64, cells: usize, busy: u64) -> Self {
        ExecStats {
            pulses,
            cells,
            busy_cell_pulses: busy,
            total_cell_pulses: pulses * cells as u64,
            array_runs: 1,
        }
    }

    /// Fraction of cell-pulses doing work, in `[0, 1]`.
    pub fn utilisation(&self) -> f64 {
        if self.total_cell_pulses == 0 {
            0.0
        } else {
            self.busy_cell_pulses as f64 / self.total_cell_pulses as f64
        }
    }

    /// Hardware time for the run under a given per-pulse comparison time
    /// (§8's conservative figure is 350 ns per comparison).
    pub fn hardware_time_ns(&self, pulse_ns: f64) -> f64 {
        self.pulses as f64 * pulse_ns
    }

    /// Merge the statistics of a subsequent run on the same physical array
    /// (sequential composition: pulses add, cell count is the maximum —
    /// the physical array is as large as the largest tile it hosted).
    pub fn merge_sequential(&mut self, other: &ExecStats) {
        self.pulses += other.pulses;
        self.busy_cell_pulses += other.busy_cell_pulses;
        self.total_cell_pulses += other.total_cell_pulses;
        self.cells = self.cells.max(other.cells);
        self.array_runs += other.array_runs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilisation_and_time() {
        let s = ExecStats {
            pulses: 100,
            cells: 10,
            busy_cell_pulses: 250,
            total_cell_pulses: 1000,
            array_runs: 1,
        };
        assert!((s.utilisation() - 0.25).abs() < 1e-12);
        assert!((s.hardware_time_ns(350.0) - 35_000.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_have_zero_utilisation() {
        assert_eq!(ExecStats::default().utilisation(), 0.0);
    }

    #[test]
    fn sequential_merge_adds_pulses_and_keeps_max_cells() {
        let mut a = ExecStats {
            pulses: 10,
            cells: 8,
            busy_cell_pulses: 5,
            total_cell_pulses: 80,
            array_runs: 1,
        };
        let b = ExecStats {
            pulses: 20,
            cells: 4,
            busy_cell_pulses: 9,
            total_cell_pulses: 80,
            array_runs: 1,
        };
        a.merge_sequential(&b);
        assert_eq!(a.pulses, 30);
        assert_eq!(a.cells, 8);
        assert_eq!(a.busy_cell_pulses, 14);
        assert_eq!(a.array_runs, 2);
    }
}
