//! Schedule-accurate capacity model: the §8 arithmetic, re-derived with
//! real array schedules.
//!
//! §8's headline calculation divides total bit comparisons by the device's
//! parallel comparator count — implicitly assuming every comparator
//! performs a useful comparison on every pulse. The same section admits the
//! marching layouts keep "only half of the processors ... busy at any one
//! time". This module closes that loop: it sizes tiles for a device of
//! `parallel_comparators()` bit processors, uses the *closed-form pulse
//! counts of the actual schedules* (verified against the cycle-accurate
//! simulator in this crate's tests), and predicts end-to-end intersection
//! time for both the marching (§3–4) and fixed-operand (§8) layouts —
//! quantifying exactly how far the idealised 52.5 ms figure stretches.

use crate::predict::Workload;
use crate::technology::Technology;

/// Closed-form pulse count of the marching intersection array (relations of
/// `n_a` and `n_b` tuples, `m` columns, plus the accumulation column),
/// until full quiescence. At equal cardinalities the last accumulated `t`
/// is the final event (`4n + m - 3` total); at unequal cardinalities the
/// longer relation's tail draining out of the array dominates. Verified
/// against the cycle-accurate simulator in the tests below.
pub fn marching_pulses(n_a: u64, n_b: u64, m: u64) -> u64 {
    let rows = n_a + n_b - 1;
    if n_a >= n_b {
        // The last accumulated t_{n_a-1} is the final event.
        rows + m + 2 * n_a - 2
    } else {
        // The longer B stream's tail drains last.
        rows + m + 2 * n_b - 3
    }
}

/// Closed-form pulse count of the fixed-operand intersection array
/// (`n_b` resident rows, `n_a` streaming tuples, `m` columns + accumulator):
/// the last `t` exits at `(n_a-1) + m + (n_b-1)`, plus the drain pulse.
pub fn fixed_pulses(n_a: u64, n_b: u64, m: u64) -> u64 {
    n_a + n_b + m - 1
}

/// Per-tile *stream span* of the marching schedule when tiles are
/// pipelined back-to-back (E19): the next tile's first injection lands two
/// pulses behind this tile's last, so each tile occupies
/// `max(last A injection, last B injection) + 2` pulses of input stream.
pub fn marching_pipelined_span(n_a: u64, n_b: u64, m: u64) -> u64 {
    let phi_a = n_b.saturating_sub(n_a);
    let phi_b = n_a.saturating_sub(n_b);
    let last_a = 2 * (n_a - 1) + (m - 1) + phi_a;
    let last_b = 2 * (n_b - 1) + (m - 1) + phi_b;
    last_a.max(last_b) + 2
}

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
    /// Number of tile runs.
    pub tiles: u64,
    /// Pulses per tile run.
    pub pulses_per_tile: u64,
}

impl CapacityPlan {
    /// Plan the decomposition: choose the largest square-ish tile whose
    /// bit-level array (rows x (tuple_bits + 1) cells, §8 bit-level cells
    /// including the accumulation column) fits the device.
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
        let tiles_a = workload.n_a.div_ceil(tile_a);
        let tiles_b = workload.n_b.div_ceil(tile_b);
        let tiles = tiles_a * tiles_b;
        let pulses_per_tile = match layout {
            Layout::Marching => marching_pulses(tile_a, tile_b, workload.tuple_bits),
            // Pipelined tiles cost their stream span; the fill/drain is
            // paid once per problem and is negligible against tiles*span.
            Layout::MarchingPipelined => {
                marching_pipelined_span(tile_a, tile_b, workload.tuple_bits)
            }
            Layout::FixedOperand => fixed_pulses(tile_a, tile_b, workload.tuple_bits),
        };
        CapacityPlan {
            technology,
            workload,
            layout,
            tile_a,
            tile_b,
            tiles,
            pulses_per_tile,
        }
    }

    /// Total pulses across all tile runs (one physical device, sequential).
    pub fn total_pulses(&self) -> u64 {
        self.tiles * self.pulses_per_tile
    }

    /// End-to-end intersection time in milliseconds.
    pub fn intersection_ms(&self) -> f64 {
        self.total_pulses() as f64 * self.technology.comparison_time_ns * 1e-6
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
    fn marching_formula_matches_equal_cardinalities() {
        // 4n + m - 3 for n_a = n_b = n.
        for n in [2u64, 5, 16] {
            for m in [1u64, 2, 4] {
                assert_eq!(marching_pulses(n, n, m), 4 * n + m - 3, "n={n} m={m}");
            }
        }
    }

    #[test]
    fn fixed_formula_matches_known_values() {
        // 2n + 1 for n_a = n_b = n, m = 2 (measured in E10).
        assert_eq!(fixed_pulses(16, 16, 2), 33);
        assert_eq!(fixed_pulses(256, 256, 2), 513);
    }

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
            let rows = match layout {
                Layout::Marching | Layout::MarchingPipelined => plan.tile_a + plan.tile_b - 1,
                Layout::FixedOperand => plan.tile_b,
            };
            assert!(
                rows * (w.tuple_bits + 1) <= t.parallel_comparators(),
                "{layout:?} tile exceeds device capacity"
            );
            assert!(plan.tiles >= 1);
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
    fn closed_forms_match_the_cycle_accurate_simulator() {
        use systolic_core::{FixedOperandArray, IntersectionArray, SetOpMode};
        for (n_a, n_b, m) in [(3u64, 3u64, 1u64), (5, 9, 2), (9, 5, 3), (16, 16, 4)] {
            let a: Vec<Vec<i64>> = (0..n_a as i64)
                .map(|i| (0..m as i64).map(|c| i + c).collect())
                .collect();
            let b: Vec<Vec<i64>> = (0..n_b as i64)
                .map(|i| (0..m as i64).map(|c| i + c + 1).collect())
                .collect();
            let marching = IntersectionArray::new(m as usize)
                .run(&a, &b, SetOpMode::Intersect)
                .unwrap();
            assert_eq!(
                marching.stats.pulses,
                marching_pulses(n_a, n_b, m),
                "marching n_a={n_a} n_b={n_b} m={m}"
            );
            let fixed = FixedOperandArray::preload(&b)
                .run(&a, SetOpMode::Intersect)
                .unwrap();
            assert_eq!(
                fixed.stats.pulses,
                fixed_pulses(n_a, n_b, m),
                "fixed n_a={n_a} n_b={n_b} m={m}"
            );
        }
    }

    #[test]
    fn pipelined_span_matches_the_simulated_pipelined_tiling() {
        use systolic_core::tiling::{t_matrix_tiled_pipelined, ArrayLimits, Seed};
        use systolic_fabric::CompareOp;
        // Total pipelined pulses = tiles x span + one final fill/drain tail.
        let (n, t, m) = (24usize, 4usize, 2usize);
        let rows: Vec<Vec<i64>> = (0..n as i64).map(|i| vec![i, i]).collect();
        let ops = vec![CompareOp::Eq; m];
        let out =
            t_matrix_tiled_pipelined(&rows, &rows, &ops, ArrayLimits::new(t, t, m), Seed::All)
                .unwrap();
        let tiles = ((n / t) * (n / t)) as u64;
        let span = marching_pipelined_span(t as u64, t as u64, m as u64);
        let modelled = tiles * span;
        let measured = out.stats.pulses;
        // The model omits only the single final drain (< one tile's rows+m).
        assert!(
            measured >= modelled && measured <= modelled + (2 * t + m + 4) as u64,
            "measured {measured} vs modelled {modelled}"
        );
    }

    #[test]
    fn pipelined_layout_beats_sequential_marching() {
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
        assert_eq!(plan.tiles, 1);
        assert_eq!(plan.tile_a, 8);
        assert_eq!(plan.pulses_per_tile, marching_pulses(8, 8, 64));
    }
}
