//! Arrays for join (§6, Figure 6-1).
//!
//! The join array produces the matrix `T` whose entry `t_{ij}` is TRUE iff
//! `a_i` and `b_j` match in the specified columns; result tuples are then
//! assembled host-side from the TRUE entries ("if we have the matrix T, it
//! is straightforward to generate the relation C", §6.2). A single join
//! column needs only a linear (one-column) array; joining over several
//! columns uses one processor column per column pair (§6.3.1); any binary
//! comparison can replace equality (§6.3.2).

use systolic_fabric::{CompareOp, Elem, TraceFrame};
use systolic_relation::Rows;

use crate::comparison::{CompareCell, ComparisonArray2d};
use crate::error::Result;
use crate::matrix::TMatrix;
use crate::stats::ExecStats;
use crate::tiling::Seed;

/// One join condition: compare `A` column `col_a` against `B` column
/// `col_b` under `op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinSpec {
    /// Column of the left relation.
    pub col_a: usize,
    /// Column of the right relation.
    pub col_b: usize,
    /// Comparison predicate (equality for an equi-join).
    pub op: CompareOp,
}

impl JoinSpec {
    /// An equality condition (`A.col_a = B.col_b`).
    pub fn eq(col_a: usize, col_b: usize) -> Self {
        JoinSpec {
            col_a,
            col_b,
            op: CompareOp::Eq,
        }
    }

    /// A theta condition.
    pub fn theta(col_a: usize, col_b: usize, op: CompareOp) -> Self {
        JoinSpec { col_a, col_b, op }
    }
}

/// Outcome of a join-array run.
#[derive(Debug, Clone)]
pub struct JoinOutcome {
    /// The match matrix `T` (`t_{ij}` TRUE iff `a_i` joins `b_j`).
    pub t: TMatrix,
    /// Run statistics.
    pub stats: ExecStats,
    /// Wire snapshots, if tracing was requested.
    pub frames: Vec<TraceFrame>,
}

/// The join array: a comparison array whose columns carry only the join
/// columns of the two relations, with per-column comparators, and *no*
/// accumulation stage ("here we are interested in the t_{ij} individually,
/// and do not perform further accumulation operations on them", §6.2).
#[derive(Debug, Clone)]
pub struct JoinArray {
    specs: Vec<JoinSpec>,
}

impl JoinArray {
    /// A join array for the given conditions (one processor column each).
    ///
    /// # Panics
    /// Panics on an empty condition list.
    pub fn new(specs: Vec<JoinSpec>) -> Self {
        assert!(!specs.is_empty(), "join needs at least one column pair");
        JoinArray { specs }
    }

    /// A single-column equi-join array (the Figure 6-1 case).
    pub fn equi(col_a: usize, col_b: usize) -> Self {
        JoinArray::new(vec![JoinSpec::eq(col_a, col_b)])
    }

    /// The join conditions.
    pub fn specs(&self) -> &[JoinSpec] {
        &self.specs
    }

    /// Produce the match matrix for full rows of `a` and `b`; only the join
    /// columns are streamed through the array (the rest of each tuple stays
    /// in memory until result assembly).
    pub fn t_matrix(&self, a: &[Vec<Elem>], b: &[Vec<Elem>]) -> Result<JoinOutcome> {
        self.run(a, b, false)
    }

    /// As [`Self::t_matrix`], optionally tracing.
    pub fn run(&self, a: &[Vec<Elem>], b: &[Vec<Elem>], trace: bool) -> Result<JoinOutcome> {
        // Extract the join-column projections that actually enter the array.
        let a_keys: Vec<Vec<Elem>> = a
            .iter()
            .map(|row| self.specs.iter().map(|s| row[s.col_a]).collect())
            .collect();
        let b_keys: Vec<Vec<Elem>> = b
            .iter()
            .map(|row| self.specs.iter().map(|s| row[s.col_b]).collect())
            .collect();
        let ops: Vec<CompareOp> = self.specs.iter().map(|s| s.op).collect();
        let out = ComparisonArray2d::with_ops(ops).run(&a_keys, &b_keys, Seed::All, trace)?;
        Ok(JoinOutcome {
            t: out.t,
            stats: out.stats,
            frames: out.frames,
        })
    }

    /// Assemble the joined rows from a match matrix — the host-side step of
    /// §6.2 — end to end into one buffer, in `T`'s row-major order. For a
    /// pure equi-join, `B`'s join columns are dropped ("removing the
    /// redundant column"); for joins involving any non-equality comparison
    /// all columns of both relations are kept.
    pub fn assemble(&self, a: Rows<'_>, b: Rows<'_>, t: &TMatrix) -> Vec<Elem> {
        let pure_equi = self.specs.iter().all(|s| s.op == CompareOp::Eq);
        let kept_b: Vec<usize> = (0..b.arity())
            .filter(|&k| !pure_equi || self.specs.iter().all(|s| s.col_b != k))
            .collect();
        let mut out = Vec::with_capacity(t.count_true() * (a.arity() + kept_b.len()));
        for (i, j) in t.true_pairs() {
            let row_b = &b[j];
            out.extend_from_slice(&a[i]);
            out.extend(kept_b.iter().map(|&k| row_b[k]));
        }
        out
    }
}

/// A comparison processor whose comparator is *programmed at run time* by
/// an opcode word swept through the row ahead of the data — the second
/// §6.3.2 option ("the particular operation to be performed might be
/// encoded in a few bits, and passed along with the a_ij ... This
/// illustrates that some degree of programability can often be provided to
/// a processor array at the expense of additional logic").
///
/// Programming protocol: `m` opcode words enter each row from the west
/// before that row's first data; an unprogrammed cell latches (consumes)
/// the first opcode it sees, a programmed cell forwards opcodes east, so
/// the c-th opcode programs the c-th cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProgrammableCompareCell {
    op: Option<CompareOp>,
}

impl systolic_fabric::Cell for ProgrammableCompareCell {
    fn pulse(&mut self, io: &mut systolic_fabric::CellIo) {
        use systolic_fabric::Word;
        if let Word::Op(op) = io.t_in {
            io.pass_through();
            if self.op.is_none() {
                self.op = Some(op); // latch and consume
            } else {
                io.t_out = Word::Op(op); // forward to the next cell
            }
            return;
        }
        let mut inner = CompareCell::new(self.op.unwrap_or_default());
        systolic_fabric::Cell::pulse(&mut inner, io);
    }

    fn reset(&mut self) {
        self.op = None;
    }
}

/// A join array whose per-column comparators are loaded at run time instead
/// of being wired in — the same physical array executes an equi-join one
/// transaction and a greater-than join the next.
#[derive(Debug, Clone)]
pub struct ProgrammableJoinArray {
    m: usize,
}

impl ProgrammableJoinArray {
    /// An array with `m` programmable processor columns.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "array needs at least one column");
        ProgrammableJoinArray { m }
    }

    /// Produce the match matrix for the key projections `a` and `b` under
    /// run-time-programmed comparators `ops` (one per column).
    pub fn t_matrix(
        &self,
        a: &[Vec<Elem>],
        b: &[Vec<Elem>],
        ops: &[CompareOp],
    ) -> Result<JoinOutcome> {
        use systolic_fabric::{Grid, ScheduleFeeder, Word};
        assert_eq!(ops.len(), self.m, "one opcode per processor column");
        let m = self.m;
        let sched = systolic_fabric::CompareSchedule::new(a.len(), b.len(), m);
        // Delay the whole data schedule by `m` pulses to make room for the
        // opcode sweep in front of each row's first meeting.
        let delay = m as u64;
        let mut grid: Grid<ProgrammableCompareCell> =
            Grid::new(sched.rows(), m, |_, _| ProgrammableCompareCell::default());
        let mut north = Vec::new();
        for (i, tup) in a.iter().enumerate() {
            for (c, &e) in tup.iter().enumerate() {
                north.push((sched.a_injection(i, c) + delay, c, Word::Elem(e)));
            }
        }
        grid.set_north_feeder(ScheduleFeeder::from_entries(north));
        let mut south = Vec::new();
        for (j, tup) in b.iter().enumerate() {
            for (c, &e) in tup.iter().enumerate() {
                south.push((sched.b_injection(j, c) + delay, c, Word::Elem(e)));
            }
        }
        grid.set_south_feeder(ScheduleFeeder::from_entries(south));
        let mut west = Vec::new();
        // Data seeds, delayed.
        for i in 0..a.len() {
            for j in 0..b.len() {
                let (lane, pulse) = sched.t_injection(i, j);
                west.push((pulse + delay, lane, Word::Bool(true)));
            }
        }
        // The opcode sweep: for each row, m opcodes ending one pulse before
        // that row's first meeting. Cell c latches the c-th opcode at pulse
        // start + 2c, which precedes its first meeting at first + c because
        // start = first - m + delay' arithmetic keeps a one-pulse margin.
        for lane in 0..sched.rows() {
            let first = (0..a.len())
                .flat_map(|i| (0..b.len()).map(move |j| (i, j)))
                .filter(|&(i, j)| sched.meeting_row(i, j) == lane)
                .map(|(i, j)| sched.meeting_pulse(i, j, 0))
                .min();
            if let Some(first) = first {
                let start = first + delay - m as u64;
                for (c, &op) in ops.iter().enumerate() {
                    west.push((start + c as u64, lane, Word::Op(op)));
                }
            }
        }
        grid.set_west_feeder(ScheduleFeeder::from_entries(west));
        grid.run_until_quiescent(sched.pulse_bound() + delay + 4)?;

        let mut t = TMatrix::new(a.len(), b.len());
        let mut seen = 0usize;
        for em in grid.east_emissions().emissions() {
            let (i, j) = sched
                .pair_at_exit(em.lane, em.pulse - delay)
                .ok_or_else(|| crate::error::CoreError::ScheduleViolation {
                    detail: format!(
                        "unexpected emission {:?} at row {}, pulse {}",
                        em.word, em.lane, em.pulse
                    ),
                })?;
            let v =
                em.word
                    .as_bool()
                    .ok_or_else(|| crate::error::CoreError::ScheduleViolation {
                        detail: format!("non-boolean result {:?}", em.word),
                    })?;
            t.set(i, j, v);
            seen += 1;
        }
        if seen != a.len() * b.len() {
            return Err(crate::error::CoreError::ScheduleViolation {
                detail: format!("expected {} results, saw {seen}", a.len() * b.len()),
            });
        }
        let stats = ExecStats::from_grid(grid.stats(), grid.cell_count());
        Ok(JoinOutcome {
            t,
            stats,
            frames: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(vals: &[&[Elem]]) -> Vec<Vec<Elem>> {
        vals.iter().map(|r| r.to_vec()).collect()
    }

    /// [`JoinArray::assemble`] over row lists, its buffer cut back into
    /// rows of `width`.
    fn assembled(
        arr: &JoinArray,
        a: &[Vec<Elem>],
        b: &[Vec<Elem>],
        t: &TMatrix,
        width: usize,
    ) -> Vec<Vec<Elem>> {
        let (fa, fb) = (a.concat(), b.concat());
        let codes = arr.assemble(Rows::new(&fa, a[0].len()), Rows::new(&fb, b[0].len()), t);
        codes.chunks(width).map(<[Elem]>::to_vec).collect()
    }

    #[test]
    fn single_column_equi_join_matches_figure_6_1_semantics() {
        // Column 2 of A against column 0 of B (the figure joins A's column
        // 3 with B's column 1, 1-based).
        let a = rows(&[&[1, 1, 7], &[2, 2, 8], &[3, 3, 7]]);
        let b = rows(&[&[7, 100], &[9, 200]]);
        let arr = JoinArray::equi(2, 0);
        let out = arr.t_matrix(&a, &b).unwrap();
        let expect = TMatrix::from_fn(3, 2, |i, j| a[i][2] == b[j][0]);
        assert_eq!(out.t, expect);
        assert_eq!(out.t.count_true(), 2);
        // One processor column suffices; the array is linear.
        assert_eq!(out.stats.cells, 3 + 2 - 1);
    }

    #[test]
    fn assembly_drops_the_redundant_column_for_equi_joins() {
        let a = rows(&[&[10, 7]]);
        let b = rows(&[&[7, 99]]);
        let arr = JoinArray::equi(1, 0);
        let out = arr.t_matrix(&a, &b).unwrap();
        let joined = assembled(&arr, &a, &b, &out.t, 3);
        assert_eq!(joined, vec![vec![10, 7, 99]]);
    }

    #[test]
    fn multi_column_join_uses_one_processor_column_per_pair() {
        let a = rows(&[&[1, 2, 50], &[1, 3, 60]]);
        let b = rows(&[&[1, 2, 70], &[1, 9, 80]]);
        let arr = JoinArray::new(vec![JoinSpec::eq(0, 0), JoinSpec::eq(1, 1)]);
        let out = arr.t_matrix(&a, &b).unwrap();
        let expect = TMatrix::from_fn(2, 2, |i, j| a[i][0] == b[j][0] && a[i][1] == b[j][1]);
        assert_eq!(out.t, expect);
        assert_eq!(out.stats.cells, (2 + 2 - 1) * 2, "two processor columns");
        let joined = assembled(&arr, &a, &b, &out.t, 4);
        assert_eq!(joined, vec![vec![1, 2, 50, 70]]);
    }

    #[test]
    fn greater_than_join() {
        // §6.3.2: "for greater-than-join, say, processors in the array would
        // simply perform that comparison".
        let a = rows(&[&[5], &[1], &[9]]);
        let b = rows(&[&[3], &[7]]);
        let arr = JoinArray::new(vec![JoinSpec::theta(0, 0, CompareOp::Gt)]);
        let out = arr.t_matrix(&a, &b).unwrap();
        let expect = TMatrix::from_fn(3, 2, |i, j| a[i][0] > b[j][0]);
        assert_eq!(out.t, expect);
        // Theta-join assembly keeps both compared columns.
        let joined = assembled(&arr, &a, &b, &out.t, 2);
        assert!(joined.contains(&vec![5, 3]));
        assert!(joined.contains(&vec![9, 7]));
        assert_eq!(joined.len(), 3);
    }

    #[test]
    fn every_theta_operator_matches_the_reference_predicate() {
        let a = rows(&[&[1], &[2], &[3]]);
        let b = rows(&[&[2]]);
        for op in CompareOp::ALL {
            let arr = JoinArray::new(vec![JoinSpec::theta(0, 0, op)]);
            let out = arr.t_matrix(&a, &b).unwrap();
            let expect = TMatrix::from_fn(3, 1, |i, j| op.eval(a[i][0], b[j][0]));
            assert_eq!(out.t, expect, "operator {op}");
        }
    }

    #[test]
    fn degenerate_all_match_join_reaches_the_product_bound() {
        // §6.2: "|C| might be as large as the product |A||B|".
        let a = rows(&[&[7, 1], &[7, 2]]);
        let b = rows(&[&[7, 10], &[7, 20], &[7, 30]]);
        let arr = JoinArray::equi(0, 0);
        let out = arr.t_matrix(&a, &b).unwrap();
        assert_eq!(out.t.count_true(), 6);
        assert_eq!(assembled(&arr, &a, &b, &out.t, 3).len(), 6);
    }

    #[test]
    fn agrees_with_nested_loop_join_on_random_inputs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use systolic_baseline::{nested_loop, OpCounter};
        use systolic_relation::gen::{self, synth_schema};
        use systolic_relation::MultiRelation;
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..8 {
            let (a, b, ka, kb) = gen::join_pair(&mut rng, 10, 12, 3, 2, 4, 0.0);
            let arr = JoinArray::equi(ka, kb);
            let out = arr
                .t_matrix(&a.rows().to_vec(), &b.rows().to_vec())
                .unwrap();
            let joined = arr.assemble(a.rows(), b.rows(), &out.t);
            let got = MultiRelation::from_codes(synth_schema(4), joined).unwrap();
            let expect =
                nested_loop::equi_join(&a, &b, &[(ka, kb)], &mut OpCounter::new()).unwrap();
            assert!(got.set_eq(&expect));
            assert_eq!(got.len(), expect.len(), "multiplicities must match too");
        }
    }

    #[test]
    #[should_panic(expected = "at least one column pair")]
    fn empty_spec_rejected() {
        JoinArray::new(vec![]);
    }

    #[test]
    fn programmable_array_matches_preloaded_array_for_every_operator() {
        let a = rows(&[&[1], &[3], &[5]]);
        let b = rows(&[&[2], &[4]]);
        let prog = ProgrammableJoinArray::new(1);
        for op in CompareOp::ALL {
            let programmed = prog.t_matrix(&a, &b, &[op]).unwrap();
            let preloaded = JoinArray::new(vec![JoinSpec::theta(0, 0, op)])
                .t_matrix(&a, &b)
                .unwrap();
            assert_eq!(programmed.t, preloaded.t, "operator {op}");
        }
    }

    #[test]
    fn programmable_multi_column_array() {
        // Column 0 programmed with <, column 1 with equality, at run time.
        let a = rows(&[&[1, 7], &[5, 7], &[2, 8]]);
        let b = rows(&[&[3, 7], &[0, 8]]);
        let out = ProgrammableJoinArray::new(2)
            .t_matrix(&a, &b, &[CompareOp::Lt, CompareOp::Eq])
            .unwrap();
        let expect = TMatrix::from_fn(3, 2, |i, j| a[i][0] < b[j][0] && a[i][1] == b[j][1]);
        assert_eq!(out.t, expect);
    }

    #[test]
    fn same_physical_array_reprogrammed_between_transactions() {
        // §6.3.2's point: programmability means one array serves different
        // joins; two consecutive runs with different opcodes both succeed.
        let a = rows(&[&[10], &[20]]);
        let b = rows(&[&[15]]);
        let prog = ProgrammableJoinArray::new(1);
        let lt = prog.t_matrix(&a, &b, &[CompareOp::Lt]).unwrap();
        let gt = prog.t_matrix(&a, &b, &[CompareOp::Gt]).unwrap();
        assert!(lt.t.get(0, 0) && !lt.t.get(1, 0));
        assert!(!gt.t.get(0, 0) && gt.t.get(1, 0));
    }

    #[test]
    fn programmable_array_with_unbalanced_cardinalities() {
        let a = rows(&[&[1, 1]]);
        let b: Vec<Vec<Elem>> = (0..7).map(|j| vec![j, j]).collect();
        let out = ProgrammableJoinArray::new(2)
            .t_matrix(&a, &b, &[CompareOp::Eq, CompareOp::Eq])
            .unwrap();
        let expect = TMatrix::from_fn(1, 7, |_, j| b[j] == vec![1, 1]);
        assert_eq!(out.t, expect);
    }
}
