//! Property-based verification of the scheduling and hardware-level
//! invariants: the §3 staggering, the §8 transformations (fixed-operand,
//! bit-level, decomposition), and the FALSE-poisoning property.

use proptest::prelude::*;

use systolic_db::arrays::bitlevel::{BitLinearComparisonArray, BitSerialComparator};
use systolic_db::arrays::tiling::{self, ArrayLimits, Seed};
use systolic_db::arrays::{
    ComparisonArray2d, FixedOperandArray, IntersectionArray, LinearComparisonArray, SetOpMode,
    TMatrix, Tuples,
};
use systolic_db::fabric::{CompareOp, CompareSchedule, Elem};

fn rows(max_n: usize, m: usize, domain: i64) -> impl Strategy<Value = Vec<Vec<Elem>>> {
    prop::collection::vec(prop::collection::vec(0..domain, m), 1..=max_n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn schedule_meetings_are_unique_and_in_range(
        n_a in 1usize..20,
        n_b in 1usize..20,
        m in 1usize..6,
    ) {
        let s = CompareSchedule::new(n_a, n_b, m);
        let mut seen = std::collections::HashSet::new();
        for i in 0..n_a {
            for j in 0..n_b {
                let row = s.meeting_row(i, j);
                prop_assert!(row < s.rows());
                for c in 0..m {
                    prop_assert!(seen.insert((row, c, s.meeting_pulse(i, j, c))),
                        "cell collision for pair ({i},{j}) element {c}");
                }
                prop_assert_eq!(s.pair_at_exit(row, s.t_exit_pulse(i, j)), Some((i, j)));
            }
        }
    }

    #[test]
    fn t_matrix_from_the_array_equals_direct_computation(
        a in rows(9, 2, 5),
        b in rows(9, 2, 5),
    ) {
        let out = ComparisonArray2d::equality(2).t_matrix(&a, &b, Seed::All).unwrap();
        let expect = TMatrix::from_fn(a.len(), b.len(), |i, j| a[i] == b[j]);
        prop_assert_eq!(out.t, expect);
    }

    #[test]
    fn linear_array_equality_verdicts_are_exact(
        a in prop::collection::vec(0i64..4, 1..6),
        b_seed in prop::collection::vec(0i64..4, 1..6),
        equal in any::<bool>(),
    ) {
        let m = a.len();
        let b: Vec<Elem> = if equal {
            a.clone()
        } else {
            b_seed.iter().cycle().take(m).copied().collect()
        };
        let out = LinearComparisonArray::new(m).compare(&a, &b, true).unwrap();
        prop_assert_eq!(out.result, a == b);
    }

    #[test]
    fn false_poisoning_holds_for_any_tuples(
        a in prop::collection::vec(0i64..8, 1..6),
    ) {
        // §3.1: a FALSE initial input forces a FALSE output even for equal
        // tuples.
        let out = LinearComparisonArray::new(a.len()).compare(&a, &a, false).unwrap();
        prop_assert!(!out.result);
    }

    #[test]
    fn fixed_operand_agrees_with_marching(
        a in rows(8, 2, 5),
        b in rows(8, 2, 5),
    ) {
        let marching = IntersectionArray::new(2).run(&a, &b, SetOpMode::Intersect).unwrap();
        let fixed = FixedOperandArray::preload(&b).run(&a, SetOpMode::Intersect).unwrap();
        prop_assert_eq!(marching.keep, fixed.keep);
    }

    #[test]
    fn tiling_is_invisible_to_results(
        a in rows(10, 4, 3),
        b in rows(10, 4, 3),
        arity in 1usize..=4,
        max_a in 1usize..5,
        max_b in 1usize..5,
        max_cols in 1usize..=3,
    ) {
        // Arity above max_cols splits every tile into column groups.
        let narrow = |rows: &[Vec<Elem>]| -> Vec<Vec<Elem>> {
            rows.iter().map(|row| row[..arity].to_vec()).collect()
        };
        let (a, b) = (narrow(&a), narrow(&b));
        let ops_eq = vec![CompareOp::Eq; arity];
        let limits = ArrayLimits::new(max_a, max_b, max_cols);
        let whole = ComparisonArray2d::equality(arity).t_matrix(&a, &b, Seed::All).unwrap();
        let (a_tuples, b_tuples) = (Tuples::new(&a, arity), Tuples::new(&b, arity));
        let (a_all, b_all) = (a_tuples.operand(), b_tuples.operand());
        let tiled = tiling::t_matrix_tiled(a_all, b_all, &ops_eq, limits, Seed::All).unwrap();
        prop_assert_eq!(&whole.t, &tiled.t);
        let piped = tiling::t_matrix_tiled_pipelined(a_all, b_all, &ops_eq, limits, Seed::All).unwrap();
        prop_assert_eq!(&whole.t, &piped.t);
        prop_assert_eq!(tiled.stats.array_runs, piped.stats.array_runs);
    }

    #[test]
    fn bit_level_equality_equals_word_level(
        a in prop::collection::vec(0i64..256, 1..4),
        b in prop::collection::vec(0i64..256, 1..4),
        same in any::<bool>(),
    ) {
        let m = a.len();
        let b: Vec<Elem> = if same { a.clone() } else { b.iter().cycle().take(m).copied().collect() };
        let word = LinearComparisonArray::new(m).compare(&a, &b, true).unwrap().result;
        let (bit, _) = BitLinearComparisonArray::new(m, 8).compare(&a, &b, true).unwrap();
        prop_assert_eq!(word, bit);
    }

    #[test]
    fn bit_serial_magnitude_comparator_is_exact(
        a in 0i64..1024,
        b in 0i64..1024,
        op_idx in 0usize..6,
    ) {
        let op = CompareOp::ALL[op_idx];
        let (v, _) = BitSerialComparator::new(10, op).compare(a, b).unwrap();
        prop_assert_eq!(v, op.eval(a, b), "{} {} {}", a, op, b);
    }

    #[test]
    fn utilisation_never_exceeds_one_and_marching_stays_near_half(
        a in rows(12, 2, 6),
    ) {
        let out = IntersectionArray::new(2).run(&a, &a, SetOpMode::Intersect).unwrap();
        let u = out.stats.utilisation();
        prop_assert!(u > 0.0 && u <= 1.0);
        // §8: marching arrays cannot exceed ~50% (small-n edge effects stay
        // below this bound too).
        prop_assert!(u <= 0.55, "utilisation {u}");
    }

    #[test]
    fn pulse_counts_are_linear_in_input_size(
        n in 2usize..16,
    ) {
        // The headline systolic claim, as a checked formula: the 2-D
        // comparison array with accumulation drains within the schedule
        // bound, which is linear in n_A + n_B + m.
        let a: Vec<Vec<Elem>> = (0..n as i64).map(|i| vec![i, i]).collect();
        let out = IntersectionArray::new(2).run(&a, &a, SetOpMode::Intersect).unwrap();
        let bound = CompareSchedule::new(n, n, 2).pulse_bound();
        prop_assert!(out.stats.pulses <= bound);
        prop_assert!(out.stats.pulses >= (2 * n) as u64, "pipeline must at least drain");
    }
}
