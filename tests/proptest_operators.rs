//! Property-based verification: every systolic operator agrees with its
//! executable specification (the nested-loop baseline) on arbitrary inputs,
//! under both executions of `ops` — and so do §8's two layouts that `ops`
//! does not run (the resident operand and the tiler that drains between
//! tiles), called directly.

use proptest::prelude::*;

use systolic_db::arrays::ops::{self, Execution};
use systolic_db::arrays::tiling::{self, Operand, Seed};
use systolic_db::arrays::{
    ArrayLimits, Backend, FixedOperandArray, JoinArray, JoinSpec, SetOpMode,
};
use systolic_db::baseline::{nested_loop, OpCounter};
use systolic_db::fabric::{CompareOp, Elem};
use systolic_db::relation::gen::synth_schema;
use systolic_db::relation::MultiRelation;

/// An arbitrary multi-relation: up to `max_n` rows, arity `m`, elements in
/// a small domain so collisions (the interesting case) are common.
fn multi(max_n: usize, m: usize, domain: i64) -> impl Strategy<Value = MultiRelation> {
    prop::collection::vec(prop::collection::vec(0..domain, m), 1..=max_n)
        .prop_map(move |rows| MultiRelation::new(synth_schema(m), rows).unwrap())
}

fn executions() -> [Execution; 2] {
    [
        Execution::Marching,
        Execution::TiledPipelined(ArrayLimits::new(3, 4, 1)),
    ]
}

/// The tile shape of the drained layout below.
const DRAINED: ArrayLimits = ArrayLimits {
    max_a: 3,
    max_b: 4,
    max_cols: 1,
};

/// The rows of `a` kept under `mode` against `b`, on §8's two layouts that
/// `ops` does not run: `B` resident in `FixedOperandArray` (`run`, or
/// `run_masked` under §5's `i > j` seed), and `t_matrix_tiled` draining
/// between tiles.
fn resident_and_drained_keep(
    a: &MultiRelation,
    b: &MultiRelation,
    mode: SetOpMode,
    seed: Seed,
) -> [Vec<Vec<Elem>>; 2] {
    let (a_rows, b_rows) = (a.rows().to_vec(), b.rows().to_vec());
    let resident = FixedOperandArray::preload(&b_rows);
    let resident = match seed {
        Seed::All => resident.run(&a_rows, mode),
        Seed::StrictLower => resident.run_masked(&a_rows, mode, |i, j| seed.at(i, j)),
    };
    let cols = tiling::every_column(a.arity());
    let (a_all, b_all) = (Operand::new(a.rows(), &cols), Operand::new(b.rows(), &cols));
    let (drained, _) = tiling::membership_tiled(a_all, b_all, mode, DRAINED, seed).unwrap();
    [resident.unwrap().keep, drained].map(|keep| a.filter_by_index(|i| keep[i]).rows().to_vec())
}

/// The rows of the join of `a` and `b`, sorted, on §8's two layouts that
/// `ops` does not run: `T` from `FixedOperandArray::t_matrix` with `B`'s
/// key columns resident, and from `t_matrix_tiled` draining between tiles,
/// each assembled into rows of `arity` columns as `ops` assembles them.
fn resident_and_drained_join(
    a: &MultiRelation,
    b: &MultiRelation,
    specs: &[JoinSpec],
    arity: usize,
) -> [Vec<Vec<Elem>>; 2] {
    let cols_a: Vec<usize> = specs.iter().map(|s| s.col_a).collect();
    let cols_b: Vec<usize> = specs.iter().map(|s| s.col_b).collect();
    let ops: Vec<CompareOp> = specs.iter().map(|s| s.op).collect();
    let keys = |rel: &MultiRelation, cols: &[usize]| -> Vec<Vec<Elem>> {
        let key = |row: &[Elem]| cols.iter().map(|&c| row[c]).collect();
        rel.rows().iter().map(key).collect()
    };
    let (resident, _) = FixedOperandArray::preload(&keys(b, &cols_b))
        .t_matrix(&keys(a, &cols_a), &ops)
        .unwrap();
    let (a_keys, b_keys) = (
        Operand::new(a.rows(), &cols_a),
        Operand::new(b.rows(), &cols_b),
    );
    let drained = tiling::t_matrix_tiled(a_keys, b_keys, &ops, DRAINED, Seed::All).unwrap();
    [resident, drained.t].map(|t| {
        let codes = JoinArray::new(specs.to_vec()).assemble(a.rows(), b.rows(), &t);
        sorted(codes.chunks(arity).map(<[Elem]>::to_vec).collect())
    })
}

fn sorted(mut rows: Vec<Vec<Elem>>) -> Vec<Vec<Elem>> {
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn intersection_matches_specification(
        a in multi(10, 2, 6),
        b in multi(10, 2, 6),
    ) {
        let expect = nested_loop::intersect(&a, &b, &mut OpCounter::new()).unwrap();
        for exec in executions() {
            let (got, _) = ops::intersect_with(&a, &b, exec, Backend::Sim).unwrap();
            prop_assert!(got.set_eq(&expect), "{exec:?}");
            // Intersection preserves A's row order and multiplicity too.
            prop_assert_eq!(got.rows(), expect.rows(), "{:?}", exec);
        }
        for got in resident_and_drained_keep(&a, &b, SetOpMode::Intersect, Seed::All) {
            prop_assert_eq!(&got, &expect.rows().to_vec());
        }
    }

    #[test]
    fn difference_matches_specification(
        a in multi(10, 2, 6),
        b in multi(10, 2, 6),
    ) {
        let expect = nested_loop::difference(&a, &b, &mut OpCounter::new()).unwrap();
        for exec in executions() {
            let (got, _) = ops::difference_with(&a, &b, exec, Backend::Sim).unwrap();
            prop_assert_eq!(got.rows(), expect.rows(), "{:?}", exec);
        }
        for got in resident_and_drained_keep(&a, &b, SetOpMode::Difference, Seed::All) {
            prop_assert_eq!(&got, &expect.rows().to_vec());
        }
    }

    #[test]
    fn dedup_matches_specification(a in multi(12, 2, 4)) {
        let expect = nested_loop::dedup(&a, &mut OpCounter::new());
        for exec in executions() {
            let (got, _) = ops::dedup_with(&a, exec, Backend::Sim).unwrap();
            prop_assert_eq!(got.rows(), expect.rows(), "{:?}", exec);
            prop_assert!(got.is_set());
        }
        for got in resident_and_drained_keep(&a, &a, SetOpMode::Difference, Seed::StrictLower) {
            prop_assert_eq!(&got, &expect.rows().to_vec());
        }
    }

    #[test]
    fn union_matches_specification(
        a in multi(8, 2, 5),
        b in multi(8, 2, 5),
    ) {
        let expect = nested_loop::union(&a, &b, &mut OpCounter::new()).unwrap();
        for exec in executions() {
            let (got, _) = ops::union_with(&a, &b, exec, Backend::Sim).unwrap();
            prop_assert_eq!(got.rows(), expect.rows(), "{:?}", exec);
        }
    }

    #[test]
    fn projection_matches_specification(a in multi(10, 3, 4)) {
        let expect = nested_loop::project(&a, &[2, 0], &mut OpCounter::new()).unwrap();
        for exec in executions() {
            let (got, _) = ops::project_with(&a, &[2, 0], exec, Backend::Sim).unwrap();
            prop_assert_eq!(got.rows(), expect.rows(), "{:?}", exec);
        }
    }

    #[test]
    fn equi_join_matches_specification(
        a in multi(8, 2, 4),
        b in multi(8, 2, 4),
    ) {
        let expect =
            nested_loop::equi_join(&a, &b, &[(0, 0)], &mut OpCounter::new()).unwrap();
        for exec in executions() {
            let (got, _) = ops::join_with(&a, &b, &[JoinSpec::eq(0, 0)], exec, Backend::Sim).unwrap();
            prop_assert!(got.set_eq(&expect), "{exec:?}");
            prop_assert_eq!(got.len(), expect.len(), "{:?} multiplicity", exec);
        }
        for got in resident_and_drained_join(&a, &b, &[JoinSpec::eq(0, 0)], expect.arity()) {
            prop_assert_eq!(got, sorted(expect.rows().to_vec()));
        }
    }

    #[test]
    fn multi_column_join_matches_specification(
        a in multi(6, 3, 3),
        b in multi(6, 3, 3),
    ) {
        let expect =
            nested_loop::equi_join(&a, &b, &[(0, 0), (2, 1)], &mut OpCounter::new()).unwrap();
        let specs = [JoinSpec::eq(0, 0), JoinSpec::eq(2, 1)];
        for exec in executions() {
            let (got, _) = ops::join_with(&a, &b, &specs, exec, Backend::Sim).unwrap();
            prop_assert!(got.set_eq(&expect), "{exec:?}");
        }
        for got in resident_and_drained_join(&a, &b, &specs, expect.arity()) {
            prop_assert_eq!(got, sorted(expect.rows().to_vec()));
        }
    }

    #[test]
    fn theta_join_matches_specification(
        a in multi(7, 2, 5),
        b in multi(7, 2, 5),
        op_idx in 0usize..6,
    ) {
        let op = CompareOp::ALL[op_idx];
        // A pure-equality spec takes the §6.1 equi path (B's join column is
        // dropped as redundant); any other comparator keeps all columns.
        let expect = if op == CompareOp::Eq {
            nested_loop::equi_join(&a, &b, &[(1, 0)], &mut OpCounter::new()).unwrap()
        } else {
            nested_loop::theta_join(&a, &b, &[(1, 0, op)], &mut OpCounter::new()).unwrap()
        };
        for exec in executions() {
            let (got, _) = ops::join_with(&a, &b, &[JoinSpec::theta(1, 0, op)], exec, Backend::Sim).unwrap();
            prop_assert!(got.set_eq(&expect), "{exec:?} op {op}");
        }
        for got in resident_and_drained_join(&a, &b, &[JoinSpec::theta(1, 0, op)], expect.arity()) {
            prop_assert_eq!(got, sorted(expect.rows().to_vec()), "op {}", op);
        }
    }

    #[test]
    fn division_matches_specification(
        a in multi(12, 2, 5),
        b in multi(4, 1, 5),
    ) {
        let expect =
            nested_loop::divide_binary(&a, 0, 1, &b, 0, &mut OpCounter::new()).unwrap();
        for exec in executions() {
            let (got, _) = ops::divide_binary_with(&a, 0, 1, &b, 0, exec, Backend::Sim).unwrap();
            let keys: Vec<i64> = got.rows().iter().map(|r| r[0]).collect();
            prop_assert_eq!(&keys, &expect, "{:?}", exec);
        }
    }

    #[test]
    fn general_division_matches_specification(
        a in multi(10, 3, 3),
        b in multi(3, 1, 3),
    ) {
        let expect = nested_loop::divide(&a, &[2], &b, &[0], &mut OpCounter::new()).unwrap();
        let (got, _) = ops::divide_with(&a, &[2], &b, &[0], Execution::Marching, Backend::Sim).unwrap();
        prop_assert!(got.set_eq(&expect));
    }

    #[test]
    fn general_division_with_composite_values_matches_specification(
        a in multi(10, 4, 3),
        b in multi(3, 2, 3),
    ) {
        // Two compared columns: exercises the composite-encoding fallback.
        let expect =
            nested_loop::divide(&a, &[2, 3], &b, &[0, 1], &mut OpCounter::new()).unwrap();
        let (got, _) = ops::divide_with(&a, &[2, 3], &b, &[0, 1], Execution::Marching, Backend::Sim).unwrap();
        prop_assert!(got.set_eq(&expect));
    }

    #[test]
    fn intersection_result_is_always_a_subset_of_a(
        a in multi(10, 2, 5),
        b in multi(10, 2, 5),
    ) {
        let (got, _) = ops::intersect_with(&a, &b, Execution::Marching, Backend::Sim).unwrap();
        for row in got.rows() {
            prop_assert!(a.contains(row));
            prop_assert!(b.contains(row));
        }
    }

    #[test]
    fn difference_and_intersection_partition_a(
        a in multi(10, 2, 5),
        b in multi(10, 2, 5),
    ) {
        let (inter, _) = ops::intersect_with(&a, &b, Execution::Marching, Backend::Sim).unwrap();
        let (diff, _) = ops::difference_with(&a, &b, Execution::Marching, Backend::Sim).unwrap();
        prop_assert_eq!(inter.len() + diff.len(), a.len());
    }
}

#[test]
fn tiled_execution_handles_empty_and_single_tile_cases() {
    // Deterministic edge cases the strategies above cannot generate: an
    // empty operand (short-circuits before any grid run) and a relation
    // that fits a single tile.
    let exec = Execution::TiledPipelined(ArrayLimits::new(8, 8, 2));
    let empty = MultiRelation::empty(synth_schema(2));
    let one = MultiRelation::new(synth_schema(2), vec![vec![1, 2]]).unwrap();
    let (r, s) = ops::intersect_with(&empty, &one, exec, Backend::Sim).unwrap();
    assert!(r.is_empty());
    assert_eq!(s, systolic_db::arrays::ExecStats::default());
    let (r, _) = ops::difference_with(&one, &empty, exec, Backend::Sim).unwrap();
    assert_eq!(r.rows(), one.rows());
    let (r, s) = ops::intersect_with(&one, &one, exec, Backend::Sim).unwrap();
    assert_eq!(r.rows(), one.rows());
    assert_eq!(s.array_runs, 1, "one tile, one array run");
}
