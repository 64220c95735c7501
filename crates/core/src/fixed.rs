//! The fixed-operand optimisation of §8.
//!
//! "In some of the schemes presented in this paper, it is the case that only
//! half of the processors in a systolic array are busy at any one time. This
//! inefficiency can be avoided in the following implementation: rather than
//! marching two relations against each other along the systolic array, we
//! let only one relation move while the other remains fixed."
//!
//! Relation `B` is pre-loaded one tuple per row (one element per cell);
//! relation `A` streams south with consecutive tuples only *one* pulse
//! apart. Compared with the marching design this needs `n_B` rows instead of
//! `n_A + n_B - 1`, runs in roughly half the pulses, and roughly doubles
//! utilisation — all measured by experiment E10.

use systolic_fabric::{Cell, CellIo, CompareOp, Elem, FixedSchedule, Grid, ScheduleFeeder, Word};

use crate::error::{CoreError, Result};
use crate::intersection::{AccumulateCell, MembershipOutcome, SetOpMode};
use crate::matrix::TMatrix;
use crate::stats::ExecStats;

/// A comparison processor with a pre-loaded ("resident") operand element.
#[derive(Debug, Clone, Copy)]
pub struct StoredCompareCell {
    /// The resident element of `B`.
    pub stored: Elem,
    /// The comparison applied.
    pub op: CompareOp,
}

impl Cell for StoredCompareCell {
    fn pulse(&mut self, io: &mut CellIo) {
        io.a_out = io.a_in; // A streams through southbound
        match io.a_in.as_elem() {
            Some(a) => {
                let cmp = self.op.eval(a, self.stored);
                io.t_out = match io.t_in {
                    Word::Bool(t) => Word::Bool(t && cmp),
                    _ => Word::Bool(cmp),
                };
            }
            None => io.t_out = io.t_in,
        }
    }
}

/// A cell of the fixed-operand membership array: stored comparators plus an
/// accumulation column.
#[derive(Debug, Clone, Copy)]
pub enum FixedCell {
    /// A comparator with a resident element.
    Stored(StoredCompareCell),
    /// An accumulation processor (§4.2).
    Accumulate(AccumulateCell),
}

impl Cell for FixedCell {
    fn pulse(&mut self, io: &mut CellIo) {
        match self {
            FixedCell::Stored(c) => c.pulse(io),
            FixedCell::Accumulate(c) => c.pulse(io),
        }
    }
}

/// The fixed-operand intersection/difference array: `B` resident, `A`
/// streaming, OR-accumulation on the right.
#[derive(Debug, Clone)]
pub struct FixedOperandArray {
    b: Vec<Vec<Elem>>,
    m: usize,
}

impl FixedOperandArray {
    /// Pre-load relation `B` (its tuples become the array's rows).
    ///
    /// # Panics
    /// Panics if `b` is empty or its rows are not uniformly sized.
    pub fn preload(b: &[Vec<Elem>]) -> Self {
        assert!(!b.is_empty(), "fixed operand must be non-empty");
        let m = b[0].len();
        assert!(
            m > 0 && b.iter().all(|r| r.len() == m),
            "uniform tuple width required"
        );
        FixedOperandArray { b: b.to_vec(), m }
    }

    /// Tuple width.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of resident tuples (array rows).
    pub fn rows(&self) -> usize {
        self.b.len()
    }

    /// Stream `A` through the array and report, per tuple of `A`, whether it
    /// matched any resident tuple (intersection) or none (difference).
    pub fn run(&self, a: &[Vec<Elem>], mode: SetOpMode) -> Result<MembershipOutcome> {
        self.run_masked(a, mode, |_, _| true)
    }

    /// As [`Self::run`], with a per-pair west-edge seed: `initial(i, j)` for
    /// streamed tuple `i` against resident row `j`. Pre-loading a relation
    /// against itself with the `i > j` mask gives the fixed-operand
    /// remove-duplicates array (§5 masking + §8 layout).
    pub fn run_masked(
        &self,
        a: &[Vec<Elem>],
        mode: SetOpMode,
        initial: impl FnMut(usize, usize) -> bool,
    ) -> Result<MembershipOutcome> {
        let sched = FixedSchedule::new(a.len(), self.b.len(), self.m);
        let b = &self.b;
        let m = self.m;
        let mut grid: Grid<FixedCell> = Grid::new(sched.rows(), m + 1, |r, c| {
            if c < m {
                FixedCell::Stored(StoredCompareCell {
                    stored: b[r][c],
                    op: CompareOp::Eq,
                })
            } else {
                FixedCell::Accumulate(AccumulateCell)
            }
        });
        let north = sched.a_entries(a).chain(sched.acc_feeder_entries());
        grid.set_north_feeder(ScheduleFeeder::from_entries(north));
        grid.set_west_feeder(sched.t_feeder(initial));
        grid.run_until_quiescent(sched.pulse_bound())?;

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
            t[i] = em.word.as_bool();
        }
        let t: Vec<bool> = t
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                v.ok_or_else(|| CoreError::ScheduleViolation {
                    detail: format!("no accumulated t for streamed tuple {i}"),
                })
            })
            .collect::<Result<_>>()?;
        let keep = match mode {
            SetOpMode::Intersect => t.clone(),
            SetOpMode::Difference => t.iter().map(|&x| !x).collect(),
        };
        let stats = ExecStats::from_grid(grid.stats(), grid.cell_count());
        Ok(MembershipOutcome {
            keep,
            t,
            stats,
            frames: Vec::new(),
        })
    }

    /// Produce the full match matrix `T` (fixed-operand variant of the
    /// comparison array / join array): no accumulation column, results
    /// collected individually from the east edge.
    pub fn t_matrix(&self, a: &[Vec<Elem>], ops: &[CompareOp]) -> Result<(TMatrix, ExecStats)> {
        assert_eq!(ops.len(), self.m, "one comparator per column");
        let sched = FixedSchedule::new(a.len(), self.b.len(), self.m);
        let b = &self.b;
        let mut grid: Grid<StoredCompareCell> =
            Grid::new(sched.rows(), self.m, |r, c| StoredCompareCell {
                stored: b[r][c],
                op: ops[c],
            });
        grid.set_north_feeder(sched.a_feeder(a));
        grid.set_west_feeder(sched.t_feeder(|_, _| true));
        grid.run_until_quiescent(sched.pulse_bound())?;
        let mut t = TMatrix::new(a.len(), self.b.len());
        let mut seen = 0usize;
        for em in grid.east_emissions().emissions() {
            let (i, j) = sched.pair_at_exit(em.lane, em.pulse).ok_or_else(|| {
                CoreError::ScheduleViolation {
                    detail: format!("unexpected emission at row {}, pulse {}", em.lane, em.pulse),
                }
            })?;
            let v = em
                .word
                .as_bool()
                .ok_or_else(|| CoreError::ScheduleViolation {
                    detail: format!("non-boolean result {:?}", em.word),
                })?;
            t.set(i, j, v);
            seen += 1;
        }
        if seen != a.len() * self.b.len() {
            return Err(CoreError::ScheduleViolation {
                detail: format!("expected {} results, saw {seen}", a.len() * self.b.len()),
            });
        }
        Ok((t, ExecStats::from_grid(grid.stats(), grid.cell_count())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersection::IntersectionArray;

    fn rows(vals: &[&[Elem]]) -> Vec<Vec<Elem>> {
        vals.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn fixed_intersection_agrees_with_the_marching_array() {
        let a = rows(&[&[1, 1], &[2, 2], &[3, 3], &[4, 4]]);
        let b = rows(&[&[2, 2], &[4, 4], &[9, 9]]);
        let marching = IntersectionArray::new(2)
            .run(&a, &b, SetOpMode::Intersect)
            .unwrap();
        let fixed = FixedOperandArray::preload(&b)
            .run(&a, SetOpMode::Intersect)
            .unwrap();
        assert_eq!(marching.keep, fixed.keep);
        let marching_d = IntersectionArray::new(2)
            .run(&a, &b, SetOpMode::Difference)
            .unwrap();
        let fixed_d = FixedOperandArray::preload(&b)
            .run(&a, SetOpMode::Difference)
            .unwrap();
        assert_eq!(marching_d.keep, fixed_d.keep);
    }

    #[test]
    fn fixed_array_is_smaller_and_faster() {
        // §8's point: n_B rows instead of n_A + n_B - 1, and roughly half
        // the pulses because tuples stream one (not two) pulses apart.
        let n = 16usize;
        let a: Vec<Vec<Elem>> = (0..n as i64).map(|i| vec![i, i]).collect();
        let marching = IntersectionArray::new(2)
            .run(&a, &a, SetOpMode::Intersect)
            .unwrap();
        let fixed = FixedOperandArray::preload(&a)
            .run(&a, SetOpMode::Intersect)
            .unwrap();
        // n rows instead of 2n-1: cells shrink by a factor approaching 2.
        assert!(fixed.stats.cells * 2 <= marching.stats.cells + 2 * (2 + 1));
        assert!(
            fixed.stats.pulses * 2 <= marching.stats.pulses + 8,
            "fixed {} vs marching {}",
            fixed.stats.pulses,
            marching.stats.pulses
        );
    }

    #[test]
    fn fixed_array_roughly_doubles_utilisation() {
        let n = 24usize;
        let a: Vec<Vec<Elem>> = (0..n as i64).map(|i| vec![i, i]).collect();
        let marching = IntersectionArray::new(2)
            .run(&a, &a, SetOpMode::Intersect)
            .unwrap();
        let fixed = FixedOperandArray::preload(&a)
            .run(&a, SetOpMode::Intersect)
            .unwrap();
        // At n = 24 pipeline fill/drain still dilutes both figures; the
        // steady-state ratio approaches 2 as n grows (measured in E10).
        assert!(
            fixed.stats.utilisation() > 1.35 * marching.stats.utilisation(),
            "fixed {} vs marching {}",
            fixed.stats.utilisation(),
            marching.stats.utilisation()
        );
        assert!(
            marching.stats.utilisation() < 0.40,
            "marching stays below ~50%"
        );
        assert!(
            fixed.stats.utilisation() > 0.45,
            "fixed approaches full utilisation"
        );
    }

    #[test]
    fn fixed_t_matrix_agrees_with_direct_computation() {
        let a = rows(&[&[1, 5], &[2, 6], &[3, 5]]);
        let b = rows(&[&[1, 5], &[3, 9]]);
        let (t, _) = FixedOperandArray::preload(&b)
            .t_matrix(&a, &[CompareOp::Eq, CompareOp::Eq])
            .unwrap();
        let expect = TMatrix::from_fn(3, 2, |i, j| a[i] == b[j]);
        assert_eq!(t, expect);
    }

    #[test]
    fn fixed_t_matrix_supports_theta_comparators() {
        let a = rows(&[&[5], &[1]]);
        let b = rows(&[&[3]]);
        let (t, _) = FixedOperandArray::preload(&b)
            .t_matrix(&a, &[CompareOp::Gt])
            .unwrap();
        assert!(t.get(0, 0));
        assert!(!t.get(1, 0));
    }

    #[test]
    fn single_row_resident_relation() {
        let b = rows(&[&[7, 7]]);
        let a = rows(&[&[7, 7], &[8, 8]]);
        let out = FixedOperandArray::preload(&b)
            .run(&a, SetOpMode::Intersect)
            .unwrap();
        assert_eq!(out.keep, vec![true, false]);
    }

    #[test]
    fn fixed_dedup_via_triangle_mask() {
        let a = rows(&[&[4], &[5], &[4], &[4]]);
        let out = FixedOperandArray::preload(&a)
            .run_masked(&a, SetOpMode::Difference, |i, j| i > j)
            .unwrap();
        assert_eq!(out.keep, vec![true, true, false, false]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_preload_rejected() {
        FixedOperandArray::preload(&[]);
    }
}
