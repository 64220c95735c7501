//! The intersection array (§4, Figure 4-1) and the difference variant
//! (§4.3).
//!
//! "The intersection array ... consists of a (two-dimensional) comparison
//! array on the left and a (linear) accumulation array on the right. The
//! comparison array performs comparisons between tuples in A and tuples in
//! B, to produce the matrix T, whereas the accumulation array accumulates
//! t_{ij} to form t_i = OR_{1<=j<=n} t_{ij} (4.1)."
//!
//! The difference `A - B` is the same array with inverted output: "t_i is
//! FALSE for any a_i that was in A, but not in B, which is precisely the
//! condition for a_i being in the difference" (§4.3).

use systolic_fabric::{
    Cell, CellIo, CompareOp, CompareSchedule, Elem, Grid, ScheduleFeeder, TraceFrame, Word,
};

use crate::comparison::CompareCell;
use crate::error::{CoreError, Result};
use crate::stats::ExecStats;

/// An accumulation processor (§4.2): "takes its left input (some t_{ij}
/// from the comparison array), OR's that with the top input (some t_i), and
/// passes on the result as its output (the updated t_i) to the processor
/// below"; when idle it "simply pass\[es\] on the t_i" it holds.
#[derive(Debug, Clone, Copy, Default)]
pub struct AccumulateCell;

impl Cell for AccumulateCell {
    fn pulse(&mut self, io: &mut CellIo) {
        io.a_out = match (io.a_in.as_bool(), io.t_in.as_bool()) {
            (Some(acc), Some(t)) => Word::Bool(acc || t),
            (Some(acc), None) => Word::Bool(acc),
            // A t with no running accumulator is a schedule anomaly (a
            // correctly staggered run always delivers the FALSE-initialised
            // accumulator alongside the first t, §4.2); dropping it keeps
            // the fault visible as a missing output downstream.
            (None, _) => Word::Null,
        };
        // Accumulated values leave through the bottom, not the east edge.
        io.t_out = Word::Null;
        io.b_out = Word::Null;
    }
}

/// A cell of the combined intersection array: comparison columns on the
/// left, one accumulation column on the right (Figure 4-1 shows the two
/// modules side by side; physically they form one grid).
#[derive(Debug, Clone, Copy)]
pub enum IntersectCell {
    /// A comparison processor (Figure 3-2).
    Compare(CompareCell),
    /// An accumulation processor (§4.2).
    Accumulate(AccumulateCell),
}

impl Cell for IntersectCell {
    fn pulse(&mut self, io: &mut CellIo) {
        match self {
            IntersectCell::Compare(c) => c.pulse(io),
            IntersectCell::Accumulate(c) => c.pulse(io),
        }
    }
}

/// Which set operation to derive from the accumulated `t_i` bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOpMode {
    /// Keep `a_i` when `t_i` is TRUE (`A ∩ B`).
    Intersect,
    /// Keep `a_i` when `t_i` is FALSE (`A - B`) — "alternatively, we could
    /// just put an inverter on the output line of the accumulation array".
    Difference,
}

/// Outcome of an intersection-array run: one keep-flag per tuple of `A`.
#[derive(Debug, Clone)]
pub struct MembershipOutcome {
    /// `keep[i]` is TRUE iff `a_i` belongs to the result.
    pub keep: Vec<bool>,
    /// The raw accumulated `t_i` bits (before any inversion).
    pub t: Vec<bool>,
    /// Run statistics.
    pub stats: ExecStats,
    /// Wire snapshots, if tracing was requested.
    pub frames: Vec<TraceFrame>,
}

/// The intersection array of Figure 4-1.
///
/// ```
/// use systolic_core::{IntersectionArray, SetOpMode};
/// let a = vec![vec![1, 1], vec![2, 2], vec![3, 3]];
/// let b = vec![vec![2, 2], vec![9, 9]];
/// let out = IntersectionArray::new(2).run(&a, &b, SetOpMode::Intersect).unwrap();
/// assert_eq!(out.keep, vec![false, true, false]); // only (2,2) is in both
/// ```
#[derive(Debug, Clone, Copy)]
pub struct IntersectionArray {
    /// Tuple width.
    pub m: usize,
}

impl IntersectionArray {
    /// An intersection array for tuples of width `m`.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "tuple width must be positive");
        IntersectionArray { m }
    }

    /// Run the array over relations `a` and `b`, producing keep-flags for
    /// the tuples of `a` under `mode`.
    pub fn run(
        &self,
        a: &[Vec<Elem>],
        b: &[Vec<Elem>],
        mode: SetOpMode,
    ) -> Result<MembershipOutcome> {
        self.run_masked(a, b, mode, |_, _| true, false)
    }

    /// The general form used by both intersection (§4) and
    /// remove-duplicates (§5): `initial(i, j)` supplies the west-edge `t`
    /// seed per pair (TRUE everywhere for intersection; `i > j` for
    /// remove-duplicates).
    pub fn run_masked(
        &self,
        a: &[Vec<Elem>],
        b: &[Vec<Elem>],
        mode: SetOpMode,
        initial: impl FnMut(usize, usize) -> bool,
        trace: bool,
    ) -> Result<MembershipOutcome> {
        let m = self.m;
        let sched = CompareSchedule::new(a.len(), b.len(), m);
        // Comparison columns 0..m-1, accumulation column m.
        let mut grid: Grid<IntersectCell> = Grid::new(sched.rows(), m + 1, |_, c| {
            if c < m {
                IntersectCell::Compare(CompareCell::new(CompareOp::Eq))
            } else {
                IntersectCell::Accumulate(AccumulateCell)
            }
        });
        if trace {
            grid.enable_tracing();
        }
        // North feeder carries both relation A (columns 0..m-1) and the
        // FALSE-initialised accumulator stream (column m, §4.2).
        let north = sched.a_entries(a).chain(sched.acc_feeder_entries());
        grid.set_north_feeder(ScheduleFeeder::from_entries(north));
        grid.set_south_feeder(sched.b_feeder(b));
        grid.set_west_feeder(sched.t_feeder(initial));
        grid.run_until_quiescent(sched.pulse_bound())?;

        // Accumulated t_i values leave the bottom of the accumulation
        // column; everything else exiting south is relation A marching out.
        let mut t = vec![None; a.len()];
        for em in grid.south_emissions().emissions() {
            if em.lane != sched.acc_col() {
                continue;
            }
            let i =
                sched
                    .tuple_at_acc_exit(em.pulse)
                    .ok_or_else(|| CoreError::ScheduleViolation {
                        detail: format!("unexpected accumulator emission at pulse {}", em.pulse),
                    })?;
            let v = em
                .word
                .as_bool()
                .ok_or_else(|| CoreError::ScheduleViolation {
                    detail: format!("non-boolean accumulator output {:?}", em.word),
                })?;
            t[i] = Some(v);
        }
        let t: Vec<bool> = t
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                v.ok_or_else(|| CoreError::ScheduleViolation {
                    detail: format!("no accumulated t for tuple {i}"),
                })
            })
            .collect::<Result<_>>()?;
        let keep = match mode {
            SetOpMode::Intersect => t.clone(),
            SetOpMode::Difference => t.iter().map(|&b| !b).collect(),
        };
        let stats = ExecStats::from_grid(grid.stats(), grid.cell_count());
        Ok(MembershipOutcome {
            keep,
            t,
            stats,
            frames: grid.trace_frames().to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(vals: &[&[Elem]]) -> Vec<Vec<Elem>> {
        vals.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn reproduces_the_figure_4_1_shape() {
        // Two 3x3 relations, as in the worked example of §4.2.
        let a = rows(&[&[1, 2, 3], &[4, 5, 6], &[7, 8, 9]]);
        let b = rows(&[&[4, 5, 6], &[0, 0, 0], &[7, 8, 9]]);
        let out = IntersectionArray::new(3)
            .run(&a, &b, SetOpMode::Intersect)
            .unwrap();
        assert_eq!(out.keep, vec![false, true, true]);
        // (n_A + n_B - 1) rows of (m comparison + 1 accumulation) cells.
        assert_eq!(out.stats.cells, 5 * 4);
    }

    #[test]
    fn difference_is_the_inverted_output() {
        let a = rows(&[&[1, 1], &[2, 2], &[3, 3]]);
        let b = rows(&[&[2, 2]]);
        let arr = IntersectionArray::new(2);
        let inter = arr.run(&a, &b, SetOpMode::Intersect).unwrap();
        let diff = arr.run(&a, &b, SetOpMode::Difference).unwrap();
        assert_eq!(inter.keep, vec![false, true, false]);
        assert_eq!(diff.keep, vec![true, false, true]);
        // Same raw t bits in both modes — only the interpretation differs.
        assert_eq!(inter.t, diff.t);
    }

    #[test]
    fn duplicate_matches_in_b_still_give_a_single_true() {
        // OR-accumulation is idempotent: multiple matching b_j do not break
        // anything.
        let a = rows(&[&[5]]);
        let b = rows(&[&[5], &[5], &[5]]);
        let out = IntersectionArray::new(1)
            .run(&a, &b, SetOpMode::Intersect)
            .unwrap();
        assert_eq!(out.keep, vec![true]);
    }

    #[test]
    fn disjoint_relations_intersect_empty() {
        let a = rows(&[&[1], &[2]]);
        let b = rows(&[&[3], &[4], &[5]]);
        let out = IntersectionArray::new(1)
            .run(&a, &b, SetOpMode::Intersect)
            .unwrap();
        assert!(out.keep.iter().all(|&k| !k));
        let out = IntersectionArray::new(1)
            .run(&a, &b, SetOpMode::Difference)
            .unwrap();
        assert!(out.keep.iter().all(|&k| k));
    }

    #[test]
    fn masked_run_implements_triangle_suppression() {
        // Feeding A against itself with the §5 mask: only strictly-lower
        // pairs may produce TRUE.
        let a = rows(&[&[9], &[9], &[9]]);
        let out = IntersectionArray::new(1)
            .run_masked(&a, &a, SetOpMode::Intersect, |i, j| i > j, false)
            .unwrap();
        // Tuple 0 has no prior equal tuple; tuples 1 and 2 do.
        assert_eq!(out.t, vec![false, true, true]);
    }

    #[test]
    fn agrees_with_nested_loop_reference_on_random_inputs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use systolic_relation::gen;
        let mut rng = StdRng::seed_from_u64(2024);
        for _ in 0..10 {
            let (a, b) = gen::pair_with_overlap(&mut rng, 12, 9, 2, 0.5);
            let arr = IntersectionArray::new(2);
            let (rows_a, rows_b) = (a.rows().to_vec(), b.rows().to_vec());
            let out = arr.run(&rows_a, &rows_b, SetOpMode::Intersect).unwrap();
            for (i, row) in a.rows().iter().enumerate() {
                assert_eq!(out.keep[i], b.contains(row), "row {i}");
            }
        }
    }

    #[test]
    fn utilisation_is_at_most_about_a_half() {
        // §8: "only half of the processors in a systolic array are busy at
        // any one time" when both relations march.
        let a: Vec<Vec<Elem>> = (0..16).map(|i| vec![i, i]).collect();
        let out = IntersectionArray::new(2)
            .run(&a, &a, SetOpMode::Intersect)
            .unwrap();
        let u = out.stats.utilisation();
        assert!(
            u <= 0.55,
            "marching arrays should not exceed ~50% utilisation, got {u}"
        );
    }

    #[test]
    fn single_tuple_each_side() {
        let out = IntersectionArray::new(2)
            .run(&rows(&[&[3, 4]]), &rows(&[&[3, 4]]), SetOpMode::Intersect)
            .unwrap();
        assert_eq!(out.keep, vec![true]);
    }
}
