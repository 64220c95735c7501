//! Schedule-accurate capacity model: the §8 arithmetic, priced by the
//! machine's own pricer.
//!
//! §8's headline calculation divides total bit comparisons by the device's
//! parallel comparator count — implicitly assuming every comparator
//! performs a useful comparison on every pulse. The same section admits the
//! marching layouts keep "only half of the processors ... busy at any one
//! time". This module closes that loop: it sizes tiles for a device of
//! `parallel_comparators()` bit processors and prices the decomposition
//! with [`systolic_core::ops::price_membership`] at that device's
//! [`ArrayLimits`] — the same closed forms, over the same
//! [`TileStream`], that charge every served query and equal the
//! cycle-accurate simulator exactly. It predicts end-to-end intersection
//! time for the marching (§3–4) and fixed-operand (§8) layouts, quantifying
//! exactly how far the idealised 52.5 ms figure stretches.

use systolic_core::ops::{price_membership, Execution};
use systolic_core::tiling::{ArrayLimits, Seed, TileStream};
use systolic_core::ExecStats;

use crate::predict::Workload;
use crate::technology::Technology;

/// Which §8 layout the device uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Both relations march (§3–§4): `n_a + n_b - 1` rows per tile,
    /// draining between tiles.
    Marching,
    /// As [`Layout::Marching`], but with tiles streamed back-to-back
    /// through the running array (E19 pipelining): the drain is paid once.
    MarchingPipelined,
    /// One relation resident (§8): `n_b` rows per tile, `A` streams whole.
    FixedOperand,
}

/// An end-to-end, schedule-accurate prediction for intersecting a workload
/// on a device of fixed comparator capacity.
#[derive(Debug, Clone, Copy)]
pub struct CapacityPlan {
    /// The technology (supplies capacity and pulse time).
    pub technology: Technology,
    /// The workload (tuple bits, cardinalities).
    pub workload: Workload,
    /// The array layout.
    pub layout: Layout,
    /// Tuples of `A` per tile.
    pub tile_a: u64,
    /// Tuples of `B` per tile.
    pub tile_b: u64,
    /// What the device's array runs cost in all: pulses, processors,
    /// busy/total cell-pulses and tile runs (the tiles are not identical,
    /// so no per-tile figure stands for them).
    pub stats: ExecStats,
}

impl CapacityPlan {
    /// Plan the decomposition: choose the largest square-ish tile whose
    /// bit-level array (rows x (tuple_bits + 1) cells, §8 bit-level cells
    /// including the accumulation column) fits the device, then price it.
    pub fn plan(technology: Technology, workload: Workload, layout: Layout) -> Self {
        let capacity = technology.parallel_comparators();
        let cells_per_row = workload.tuple_bits + 1;
        let max_rows = (capacity / cells_per_row).max(1);
        let (tile_a, tile_b) = match layout {
            // rows = tile_a + tile_b - 1 with tile_a = tile_b = t.
            Layout::Marching | Layout::MarchingPipelined => {
                let t = max_rows
                    .div_ceil(2)
                    .clamp(1, workload.n_a.max(workload.n_b));
                (t.min(workload.n_a), t.min(workload.n_b))
            }
            // rows = tile_b; the whole of A streams through each pass.
            Layout::FixedOperand => (workload.n_a, max_rows.min(workload.n_b)),
        };
        let (n_a, n_b, m) = (
            workload.n_a as usize,
            workload.n_b as usize,
            workload.tuple_bits as usize,
        );
        let limits = ArrayLimits::new(tile_a as usize, tile_b as usize, m);
        let stats = match layout {
            Layout::Marching => price_membership(Execution::Tiled(limits), n_a, n_b, m),
            Layout::MarchingPipelined => {
                price_membership(Execution::TiledPipelined(limits), n_a, n_b, m)
            }
            // The stream of `B`-slices with `A` whole: each slice is one
            // fixed-operand run, the slices one after another.
            Layout::FixedOperand => {
                let mut stats = ExecStats::default();
                for run in TileStream::new(n_a, n_b, m, limits, Seed::All).runs() {
                    let slice = price_membership(Execution::FixedOperand, run.ta, run.tb, m);
                    for _ in 0..run.count {
                        stats.merge_sequential(&slice);
                    }
                }
                stats
            }
        };
        CapacityPlan {
            technology,
            workload,
            layout,
            tile_a,
            tile_b,
            stats,
        }
    }

    /// End-to-end intersection time in milliseconds.
    pub fn intersection_ms(&self) -> f64 {
        self.stats
            .hardware_time_ns(self.technology.comparison_time_ns)
            * 1e-6
    }

    /// The §8 idealised time (every comparator busy every pulse) for the
    /// same device — the paper's own arithmetic, for comparison.
    pub fn ideal_ms(&self) -> f64 {
        crate::predict::Prediction::new(self.technology, self.workload).intersection_ms()
    }

    /// How much slower the schedule-accurate layout is than the idealised
    /// §8 arithmetic (1.0 = matches the paper's assumption).
    pub fn overhead_factor(&self) -> f64 {
        self.intersection_ms() / self.ideal_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_workload_plans_fit_the_device() {
        let w = Workload::paper_typical();
        let t = Technology::paper_conservative();
        for layout in [
            Layout::Marching,
            Layout::MarchingPipelined,
            Layout::FixedOperand,
        ] {
            let plan = CapacityPlan::plan(t, w, layout);
            assert!(
                plan.stats.cells as u64 <= t.parallel_comparators(),
                "{layout:?} array of {} cells exceeds device capacity",
                plan.stats.cells
            );
            assert!(plan.stats.array_runs >= 1);
        }
    }

    #[test]
    fn schedule_accurate_time_exceeds_the_idealised_figure() {
        // The central finding: the §8 arithmetic is optimistic by a small
        // constant factor that the schedules make precise.
        let w = Workload::paper_typical();
        let t = Technology::paper_conservative();
        let marching = CapacityPlan::plan(t, w, Layout::Marching);
        let fixed = CapacityPlan::plan(t, w, Layout::FixedOperand);
        assert!(marching.overhead_factor() > 1.0);
        assert!(fixed.overhead_factor() > 1.0);
        assert!(
            fixed.intersection_ms() < marching.intersection_ms(),
            "the §8 fixed-operand layout must beat marching end-to-end: {} vs {}",
            fixed.intersection_ms(),
            marching.intersection_ms()
        );
    }

    #[test]
    fn fixed_operand_overhead_is_modest() {
        // The fixed layout wastes only pipeline fill/drain; its end-to-end
        // time stays within a small factor of the idealised figure.
        let plan = CapacityPlan::plan(
            Technology::paper_conservative(),
            Workload::paper_typical(),
            Layout::FixedOperand,
        );
        assert!(
            plan.overhead_factor() < 30.0,
            "factor {}",
            plan.overhead_factor()
        );
    }

    #[test]
    fn plans_equal_the_cycle_accurate_simulator_exactly() {
        use systolic_core::tiling::{t_matrix_tiled, t_matrix_tiled_pipelined};
        use systolic_core::{FixedOperandArray, SetOpMode};
        use systolic_fabric::CompareOp;
        // A 24-comparator device (one 6µ chip of 1.5µ x 1µ comparators) and
        // 13 x 17 tuples of 3 bits: 4 cells a row, so 3 x 3 marching tiles
        // (5 rows) and resident slices of 6 tuples, with short edge tiles
        // on both axes and runs of several identical tiles.
        let t = Technology {
            comparator_width_um: 1.5,
            comparator_height_um: 1.0,
            chip_side_um: 6.0,
            chips: 1,
            ..Technology::paper_conservative()
        };
        let w = Workload {
            tuple_bits: 3,
            n_a: 13,
            n_b: 17,
        };
        let rows = |n: usize, salt: i64| -> Vec<Vec<i64>> {
            (0..n as i64)
                .map(|i| (0..3).map(|c| (i * 5 + salt + c) % 4).collect())
                .collect()
        };
        let (a, b) = (rows(13, 0), rows(17, 1));
        let ops = vec![CompareOp::Eq; 3];

        let marching = CapacityPlan::plan(t, w, Layout::Marching);
        let piped = CapacityPlan::plan(t, w, Layout::MarchingPipelined);
        assert_eq!((marching.tile_a, marching.tile_b), (3, 3));
        let limits = ArrayLimits::new(3, 3, 3);
        let sim = t_matrix_tiled(&a, &b, &ops, limits, Seed::All).unwrap();
        assert_eq!(marching.stats, sim.stats);
        let sim = t_matrix_tiled_pipelined(&a, &b, &ops, limits, Seed::All).unwrap();
        assert_eq!(piped.stats, sim.stats);
        assert_eq!(piped.stats.array_runs, 5 * 6);

        let fixed = CapacityPlan::plan(t, w, Layout::FixedOperand);
        assert_eq!((fixed.tile_a, fixed.tile_b), (13, 6));
        let mut sim = ExecStats::default();
        for slice in b.chunks(6) {
            let out = FixedOperandArray::preload(slice)
                .run(&a, SetOpMode::Intersect)
                .unwrap();
            sim.merge_sequential(&out.stats);
        }
        assert_eq!(fixed.stats, sim);
        assert_eq!(fixed.stats.array_runs, 3);
    }

    #[test]
    fn pipelined_tiles_beat_sequential_marching() {
        let w = Workload::paper_typical();
        let t = Technology::paper_conservative();
        let seq = CapacityPlan::plan(t, w, Layout::Marching);
        let piped = CapacityPlan::plan(t, w, Layout::MarchingPipelined);
        assert!(piped.intersection_ms() < seq.intersection_ms());
        assert!(
            piped.intersection_ms()
                > CapacityPlan::plan(t, w, Layout::FixedOperand).intersection_ms()
        );
    }

    #[test]
    fn tiny_workloads_run_in_one_tile() {
        let w = Workload {
            tuple_bits: 64,
            n_a: 8,
            n_b: 8,
        };
        let plan = CapacityPlan::plan(Technology::paper_conservative(), w, Layout::Marching);
        assert_eq!(plan.stats.array_runs, 1);
        assert_eq!(plan.tile_a, 8);
        // One tile is §3.2's whole comparison array.
        let rows: Vec<Vec<i64>> = (0..8).map(|i| vec![i; 64]).collect();
        let whole = systolic_core::ComparisonArray2d::equality(64)
            .t_matrix(&rows, &rows, Seed::All)
            .unwrap();
        assert_eq!(plan.stats, whole.stats);
    }
}
