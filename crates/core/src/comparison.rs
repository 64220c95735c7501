//! Arrays for tuple comparison (§3, Figures 3-1 through 3-4).
//!
//! The basic building block of most arrays in the paper: a linear array of
//! `m` comparison processors tests two tuples for equality by ANDing the
//! element-wise comparison results as they propagate east (§3.1); stacking
//! `n_A + n_B - 1` such rows and marching `A` south and `B` north pipelines
//! *all* `|A| x |B|` tuple comparisons and produces the boolean matrix `T`
//! (§3.2, §3.3).

use systolic_fabric::{Cell, CellIo, CompareOp, Elem, TraceFrame, Word};
use systolic_relation::Rows;

use crate::error::Result;
use crate::matrix::TMatrix;
use crate::stats::ExecStats;
use crate::tiling::{self, Operand, Seed};

/// The individual comparison processor of Figure 3-2:
/// `t_OUT = t_IN AND (a_IN = b_IN)`, with `a` and `b` passed through.
///
/// The comparator is parameterised by a [`CompareOp`] to support the
/// non-equi-join of §6.3.2 ("processors in the array would simply perform
/// that comparison"); the default is equality.
///
/// The comparison arrays themselves run on [`systolic_fabric::CompareGrid`],
/// which steps this cell's rule over packed wire planes; the cell is the
/// rule as a [`Cell`], for arrays that mix it with other processors and as
/// the reference a `Grid` of it pins `CompareGrid` to.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompareCell {
    /// The comparison this processor applies.
    pub op: CompareOp,
}

impl CompareCell {
    /// A comparator applying `op`.
    pub fn new(op: CompareOp) -> Self {
        CompareCell { op }
    }
}

impl Cell for CompareCell {
    fn pulse(&mut self, io: &mut CellIo) {
        io.pass_through();
        match (io.a_in.as_elem(), io.b_in.as_elem()) {
            (Some(a), Some(b)) => {
                let cmp = self.op.eval(a, b);
                io.t_out = match io.t_in {
                    // The AND of Figure 3-2. A FALSE input poisons the
                    // result no matter what the comparison says (§3.1:
                    // "if the initial input is FALSE, then the output ...
                    // is guaranteed to be false").
                    Word::Bool(t) => Word::Bool(t && cmp),
                    // No partial result yet: treat as the TRUE seed.
                    _ => Word::Bool(cmp),
                };
            }
            // No meeting this pulse: pass any in-flight t along unchanged.
            _ => io.t_out = io.t_in,
        }
    }
}

/// Outcome of a single-tuple-pair comparison on the linear array.
#[derive(Debug, Clone)]
pub struct LinearOutcome {
    /// The equality verdict emitted by the rightmost processor.
    pub result: bool,
    /// Run statistics.
    pub stats: ExecStats,
    /// Per-pulse wire snapshots, if tracing was requested.
    pub frames: Vec<TraceFrame>,
}

/// The linear comparison array of Figure 3-1: `m` processors compare one
/// tuple pair in `m` pulses.
///
/// ```
/// use systolic_core::LinearComparisonArray;
/// let arr = LinearComparisonArray::new(3);
/// assert!(arr.compare(&[1, 2, 3], &[1, 2, 3], true).unwrap().result);
/// assert!(!arr.compare(&[1, 2, 3], &[1, 9, 3], true).unwrap().result);
/// // §3.1: a FALSE initial input poisons the output.
/// assert!(!arr.compare(&[1, 2, 3], &[1, 2, 3], false).unwrap().result);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct LinearComparisonArray {
    /// Tuple width (number of processors).
    pub m: usize,
    /// Comparator applied at every position (equality for tuple equality).
    pub op: CompareOp,
}

impl LinearComparisonArray {
    /// An equality-comparison array of width `m`.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "tuple width must be positive");
        LinearComparisonArray {
            m,
            op: CompareOp::Eq,
        }
    }

    /// Compare two tuples; `initial` is the boolean fed to the leftmost
    /// processor (TRUE for a plain equality test).
    pub fn compare(&self, a: &[Elem], b: &[Elem], initial: bool) -> Result<LinearOutcome> {
        self.run(a, b, initial, false)
    }

    /// As [`Self::compare`], optionally recording wire snapshots for
    /// rendering (Figure 3-1 as an animation).
    pub fn run(&self, a: &[Elem], b: &[Elem], initial: bool, trace: bool) -> Result<LinearOutcome> {
        assert_eq!(a.len(), self.m, "tuple a has wrong width");
        assert_eq!(b.len(), self.m, "tuple b has wrong width");
        // One tuple pair is a one-tile stream on a one-row grid: element k
        // of both tuples enters lane k at pulse k (the "slanted" tuples of
        // Figure 3-1), so that a_k and b_k meet the k-th processor at pulse
        // k together with the running AND, and the verdict exits east at
        // pulse m - 1. Of the two seeds, `All` puts TRUE on the one pair
        // and `StrictLower` FALSE.
        let seed = if initial {
            Seed::All
        } else {
            Seed::StrictLower
        };
        let mut t = TMatrix::new(1, 1);
        let cols = tiling::every_column(self.m);
        let out = tiling::run_tile(
            Operand::new(Rows::new(a, self.m), &cols),
            Operand::new(Rows::new(b, self.m), &cols),
            &vec![self.op; self.m],
            seed,
            (0..1, 0..1),
            &mut t,
            trace,
        )?;
        Ok(LinearOutcome {
            result: t.get(0, 0),
            stats: out.stats,
            frames: out.frames,
        })
    }
}

/// Tuples given one `Vec` each, copied into one buffer so that a tiler can
/// read them as an [`Operand`] over all their columns: the arrays that
/// still take row lists (§3's whole-array comparison) and the tests.
#[derive(Debug, Clone)]
pub struct Tuples {
    codes: Vec<Elem>,
    m: usize,
    cols: Vec<usize>,
}

impl Tuples {
    /// Copy `rows`, each `m` wide.
    ///
    /// # Panics
    /// Panics if `m` is zero or a row is not `m` wide.
    pub fn new(rows: &[Vec<Elem>], m: usize) -> Self {
        assert!(
            rows.iter().all(|row| row.len() == m),
            "tuples must be {m} wide"
        );
        Tuples {
            codes: rows.concat(),
            m,
            cols: tiling::every_column(m),
        }
    }

    /// The copy, compared on every column.
    pub fn operand(&self) -> Operand<'_> {
        Operand::new(Rows::new(&self.codes, self.m), &self.cols)
    }
}

/// Outcome of a two-dimensional comparison-array run.
#[derive(Debug, Clone)]
pub struct MatrixOutcome {
    /// The boolean matrix `T` (§3.3).
    pub t: TMatrix,
    /// Run statistics.
    pub stats: ExecStats,
    /// Per-pulse wire snapshots, if tracing was requested.
    pub frames: Vec<TraceFrame>,
}

/// The two-dimensional (orthogonal) comparison array of Figure 3-3.
///
/// Per-column comparators allow the multi-column join of §6.3.1, where
/// "each processor column is responsible for comparing a_i and b_j in some
/// particular column pair".
///
/// ```
/// use systolic_core::{tiling::Seed, ComparisonArray2d};
/// let a = vec![vec![1, 2], vec![3, 4]];
/// let b = vec![vec![3, 4], vec![5, 6], vec![1, 2]];
/// let out = ComparisonArray2d::equality(2).t_matrix(&a, &b, Seed::All).unwrap();
/// assert!(out.t.get(0, 2) && out.t.get(1, 0));
/// assert_eq!(out.t.count_true(), 2);
/// assert_eq!(out.stats.cells, (2 + 3 - 1) * 2); // n_A + n_B - 1 rows of m cells
/// ```
#[derive(Debug, Clone)]
pub struct ComparisonArray2d {
    ops: Vec<CompareOp>,
}

impl ComparisonArray2d {
    /// An equality array for tuples of width `m` (intersection-style use).
    pub fn equality(m: usize) -> Self {
        assert!(m > 0, "tuple width must be positive");
        ComparisonArray2d {
            ops: vec![CompareOp::Eq; m],
        }
    }

    /// An array with one comparator per column (theta-join use).
    pub fn with_ops(ops: Vec<CompareOp>) -> Self {
        assert!(!ops.is_empty(), "tuple width must be positive");
        ComparisonArray2d { ops }
    }

    /// Tuple width.
    pub fn m(&self) -> usize {
        self.ops.len()
    }

    /// Produce the matrix `T` for relations `a` (fed from the top) and `b`
    /// (fed from the bottom). `seed` supplies the `t` value injected at the
    /// west edge for each pair `(i, j)`: TRUE everywhere for a plain
    /// comparison ([`Seed::All`]), FALSE on `i <= j` for remove-duplicates
    /// (§5, [`Seed::StrictLower`]).
    pub fn t_matrix(&self, a: &[Vec<Elem>], b: &[Vec<Elem>], seed: Seed) -> Result<MatrixOutcome> {
        self.run(a, b, seed, false)
    }

    /// As [`Self::t_matrix`], optionally recording wire snapshots.
    pub fn run(
        &self,
        a: &[Vec<Elem>],
        b: &[Vec<Elem>],
        seed: Seed,
        trace: bool,
    ) -> Result<MatrixOutcome> {
        // The whole problem is one tile on an `n_A + n_B - 1`-row grid.
        let (a_tuples, b_tuples) = (Tuples::new(a, self.m()), Tuples::new(b, self.m()));
        let mut t = TMatrix::new(a.len(), b.len());
        let out = tiling::run_tile(
            a_tuples.operand(),
            b_tuples.operand(),
            &self.ops,
            seed,
            (0..a.len(), 0..b.len()),
            &mut t,
            trace,
        )?;
        Ok(MatrixOutcome {
            t,
            stats: out.stats,
            frames: out.frames,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_array_tests_tuple_equality() {
        let arr = LinearComparisonArray::new(3);
        assert!(arr.compare(&[1, 2, 3], &[1, 2, 3], true).unwrap().result);
        assert!(!arr.compare(&[1, 2, 3], &[1, 9, 3], true).unwrap().result);
        assert!(!arr.compare(&[1, 2, 3], &[9, 2, 3], true).unwrap().result);
        assert!(!arr.compare(&[1, 2, 3], &[1, 2, 9], true).unwrap().result);
    }

    #[test]
    fn false_input_poisons_the_output() {
        // §3.1: "if the initial input is FALSE, then the output at the right
        // side of the array is guaranteed to be false."
        let arr = LinearComparisonArray::new(4);
        assert!(
            !arr.compare(&[5, 5, 5, 5], &[5, 5, 5, 5], false)
                .unwrap()
                .result
        );
    }

    #[test]
    fn verdict_takes_exactly_m_pulses_to_form() {
        // The result is computed by the rightmost processor at pulse m-1;
        // the grid then needs the remaining in-flight words to drain.
        let arr = LinearComparisonArray::new(5);
        let out = arr
            .compare(&[1, 2, 3, 4, 5], &[1, 2, 3, 4, 5], true)
            .unwrap();
        assert!(out.result);
        // Last element injected at pulse m-1 is consumed that same pulse by
        // the single-row grid, so the run is exactly m pulses long.
        assert_eq!(out.stats.pulses, 5);
        assert_eq!(out.stats.cells, 5);
    }

    #[test]
    fn single_element_tuples() {
        let arr = LinearComparisonArray::new(1);
        assert!(arr.compare(&[7], &[7], true).unwrap().result);
        assert!(!arr.compare(&[7], &[8], true).unwrap().result);
    }

    #[test]
    fn two_dimensional_array_produces_the_full_t_matrix() {
        // The 3x3 example of Figures 3-3/3-4.
        let a = vec![vec![1, 2, 3], vec![4, 5, 6], vec![1, 2, 3]];
        let b = vec![vec![4, 5, 6], vec![7, 8, 9], vec![1, 2, 3]];
        let out = ComparisonArray2d::equality(3)
            .t_matrix(&a, &b, Seed::All)
            .unwrap();
        let expect = TMatrix::from_fn(3, 3, |i, j| a[i] == b[j]);
        assert_eq!(out.t, expect);
        assert_eq!(
            out.stats.cells,
            (3 + 3 - 1) * 3,
            "n_A+n_B-1 rows of m cells"
        );
    }

    #[test]
    fn asymmetric_cardinalities() {
        let a: Vec<Vec<Elem>> = (0..5).map(|i| vec![i, i]).collect();
        let b: Vec<Vec<Elem>> = (3..10).map(|j| vec![j, j]).collect();
        let out = ComparisonArray2d::equality(2)
            .t_matrix(&a, &b, Seed::All)
            .unwrap();
        let expect = TMatrix::from_fn(5, 7, |i, j| a[i] == b[j]);
        assert_eq!(out.t, expect);
    }

    #[test]
    fn initial_false_mask_suppresses_selected_pairs() {
        // The §5 masking: pairs with i <= j are forced FALSE even when the
        // tuples are equal.
        let a = vec![vec![1], vec![1], vec![1]];
        let out = ComparisonArray2d::equality(1)
            .t_matrix(&a, &a, Seed::StrictLower)
            .unwrap();
        let expect = TMatrix::from_fn(3, 3, |i, j| i > j);
        assert_eq!(out.t, expect);
    }

    #[test]
    fn per_column_comparators_support_theta_semantics() {
        // Column 0 tested with <, column 1 with equality.
        let a = vec![vec![1, 7], vec![5, 7]];
        let b = vec![vec![3, 7], vec![0, 7]];
        let arr = ComparisonArray2d::with_ops(vec![CompareOp::Lt, CompareOp::Eq]);
        let out = arr.t_matrix(&a, &b, Seed::All).unwrap();
        let expect = TMatrix::from_fn(2, 2, |i, j| a[i][0] < b[j][0] && a[i][1] == b[j][1]);
        assert_eq!(out.t, expect);
    }

    #[test]
    fn latency_grows_additively_with_cardinality() {
        // §1 property 3: the pipeline sustains a high data rate; total run
        // time is O(n_A + n_B + m), not O(n_A * n_B * m).
        let make = |n: usize| -> Vec<Vec<Elem>> { (0..n as i64).map(|i| vec![i, i]).collect() };
        let small = ComparisonArray2d::equality(2)
            .t_matrix(&make(8), &make(8), Seed::All)
            .unwrap();
        let large = ComparisonArray2d::equality(2)
            .t_matrix(&make(32), &make(32), Seed::All)
            .unwrap();
        // 4x the tuples -> ~4x the pulses (not 16x).
        let ratio = large.stats.pulses as f64 / small.stats.pulses as f64;
        assert!(ratio < 6.0, "pulse ratio {ratio} should be ~4, not ~16");
    }

    #[test]
    fn single_tuple_relations_reduce_to_the_linear_array() {
        let out = ComparisonArray2d::equality(3)
            .t_matrix(&[vec![1, 2, 3]], &[vec![1, 2, 3]], Seed::All)
            .unwrap();
        assert!(out.t.get(0, 0));
        assert_eq!(out.stats.cells, 3);
    }

    #[test]
    fn tracing_captures_data_in_flight() {
        let arr = LinearComparisonArray::new(3);
        let out = arr.run(&[1, 2, 3], &[1, 2, 3], true, true).unwrap();
        assert!(!out.frames.is_empty());
        assert!(out.frames.iter().any(|f| !f.is_idle()));
    }

    #[test]
    #[should_panic(expected = "wrong width")]
    fn width_mismatch_panics() {
        LinearComparisonArray::new(2)
            .compare(&[1], &[1, 2], true)
            .unwrap();
    }
}
