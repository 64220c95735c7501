//! Property-based verification: every systolic operator agrees with its
//! executable specification (the nested-loop baseline) on arbitrary inputs,
//! under every hardware execution strategy.

use proptest::prelude::*;

use systolic_db::arrays::ops::{self, Execution};
use systolic_db::arrays::{ArrayLimits, JoinSpec};
use systolic_db::baseline::{nested_loop, OpCounter};
use systolic_db::fabric::CompareOp;
use systolic_db::relation::gen::synth_schema;
use systolic_db::relation::MultiRelation;

/// An arbitrary multi-relation: up to `max_n` rows, arity `m`, elements in
/// a small domain so collisions (the interesting case) are common.
fn multi(max_n: usize, m: usize, domain: i64) -> impl Strategy<Value = MultiRelation> {
    prop::collection::vec(prop::collection::vec(0..domain, m), 1..=max_n)
        .prop_map(move |rows| MultiRelation::new(synth_schema(m), rows).unwrap())
}

fn executions() -> [Execution; 3] {
    [
        Execution::Marching,
        Execution::FixedOperand,
        Execution::Tiled(ArrayLimits::new(3, 4, 1)),
    ]
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
            let (got, _) = ops::intersect(&a, &b, exec).unwrap();
            prop_assert!(got.set_eq(&expect), "{exec:?}");
            // Intersection preserves A's row order and multiplicity too.
            prop_assert_eq!(got.rows(), expect.rows(), "{:?}", exec);
        }
    }

    #[test]
    fn difference_matches_specification(
        a in multi(10, 2, 6),
        b in multi(10, 2, 6),
    ) {
        let expect = nested_loop::difference(&a, &b, &mut OpCounter::new()).unwrap();
        for exec in executions() {
            let (got, _) = ops::difference(&a, &b, exec).unwrap();
            prop_assert_eq!(got.rows(), expect.rows(), "{:?}", exec);
        }
    }

    #[test]
    fn dedup_matches_specification(a in multi(12, 2, 4)) {
        let expect = nested_loop::dedup(&a, &mut OpCounter::new());
        for exec in executions() {
            let (got, _) = ops::dedup(&a, exec).unwrap();
            prop_assert_eq!(got.rows(), expect.rows(), "{:?}", exec);
            prop_assert!(got.is_set());
        }
    }

    #[test]
    fn union_matches_specification(
        a in multi(8, 2, 5),
        b in multi(8, 2, 5),
    ) {
        let expect = nested_loop::union(&a, &b, &mut OpCounter::new()).unwrap();
        for exec in executions() {
            let (got, _) = ops::union(&a, &b, exec).unwrap();
            prop_assert_eq!(got.rows(), expect.rows(), "{:?}", exec);
        }
    }

    #[test]
    fn projection_matches_specification(a in multi(10, 3, 4)) {
        let expect = nested_loop::project(&a, &[2, 0], &mut OpCounter::new()).unwrap();
        for exec in executions() {
            let (got, _) = ops::project(&a, &[2, 0], exec).unwrap();
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
            let (got, _) = ops::join(&a, &b, &[JoinSpec::eq(0, 0)], exec).unwrap();
            prop_assert!(got.set_eq(&expect), "{exec:?}");
            prop_assert_eq!(got.len(), expect.len(), "{:?} multiplicity", exec);
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
            let (got, _) = ops::join(&a, &b, &specs, exec).unwrap();
            prop_assert!(got.set_eq(&expect), "{exec:?}");
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
            let (got, _) = ops::join(&a, &b, &[JoinSpec::theta(1, 0, op)], exec).unwrap();
            prop_assert!(got.set_eq(&expect), "{exec:?} op {op}");
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
            let (got, _) = ops::divide_binary(&a, 0, 1, &b, 0, exec).unwrap();
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
        let (got, _) = ops::divide(&a, &[2], &b, &[0], Execution::Marching).unwrap();
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
        let (got, _) = ops::divide(&a, &[2, 3], &b, &[0, 1], Execution::Marching).unwrap();
        prop_assert!(got.set_eq(&expect));
    }

    #[test]
    fn intersection_result_is_always_a_subset_of_a(
        a in multi(10, 2, 5),
        b in multi(10, 2, 5),
    ) {
        let (got, _) = ops::intersect(&a, &b, Execution::Marching).unwrap();
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
        let (inter, _) = ops::intersect(&a, &b, Execution::Marching).unwrap();
        let (diff, _) = ops::difference(&a, &b, Execution::Marching).unwrap();
        prop_assert_eq!(inter.len() + diff.len(), a.len());
    }
}

#[test]
fn tiled_execution_handles_empty_and_single_tile_cases() {
    // Deterministic edge cases the strategies above cannot generate: an
    // empty operand (short-circuits before any grid run) and a relation
    // that fits a single tile.
    let exec = Execution::Tiled(ArrayLimits::new(8, 8, 2));
    let empty = MultiRelation::empty(synth_schema(2));
    let one = MultiRelation::new(synth_schema(2), vec![vec![1, 2]]).unwrap();
    let (r, s) = ops::intersect(&empty, &one, exec).unwrap();
    assert!(r.is_empty());
    assert_eq!(s, systolic_db::arrays::ExecStats::default());
    let (r, _) = ops::difference(&one, &empty, exec).unwrap();
    assert_eq!(r.rows(), one.rows());
    let (r, s) = ops::intersect(&one, &one, exec).unwrap();
    assert_eq!(r.rows(), one.rows());
    assert_eq!(s.array_runs, 1, "one tile, one array run");
}
