//! The cross-backend differential harness: for every operator, every
//! execution strategy, and randomly drawn relations, comparator vectors,
//! and tile shapes, the columnar backend — bit-sliced word-plane scans
//! plus analytic accounting — must agree with the pulse-accurate
//! simulator bit-for-bit: the same result rows, the same `TMatrix`, and
//! the same `ExecStats` (pulses, busy/total cell-pulses, array runs) the
//! grid would have counted.
//!
//! The unit tests inside `core::kernel` pin each analytic formula to its
//! array over exhaustive small-shape sweeps; this suite completes the
//! picture with randomized relations (duplicates, empties, ragged tile
//! remainders) flowing through the *public* operator API.

use proptest::prelude::*;

use systolic_core::ops::{self, Execution};
use systolic_core::{ArrayLimits, Backend, JoinSpec, ProgrammableJoinArray};
use systolic_fabric::CompareOp;
use systolic_relation::gen::synth_schema;
use systolic_relation::{MultiRelation, Rows};

fn rel(m: usize, rows: Vec<Vec<i64>>) -> MultiRelation {
    MultiRelation::new(synth_schema(m), rows).unwrap()
}

/// Tuples over a tiny domain so equalities (and therefore interesting
/// T-matrix structure) actually occur.
fn rows_strategy(m: usize, max_rows: usize) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(-2i64..3, m..=m), 0..=max_rows)
}

/// Tile shapes from degenerate 1x1x1 through single-tile covers, so both
/// ragged remainders and the no-decomposition case are drawn.
fn limits_strategy() -> impl Strategy<Value = ArrayLimits> {
    (1usize..=6, 1usize..=6, 1usize..=4).prop_map(|(a, b, c)| ArrayLimits::new(a, b, c))
}

fn exec_strategy() -> impl Strategy<Value = Execution> {
    prop_oneof![
        Just(Execution::Marching),
        limits_strategy().prop_map(Execution::TiledPipelined),
    ]
}

fn op_strategy() -> impl Strategy<Value = CompareOp> {
    prop_oneof![
        Just(CompareOp::Eq),
        Just(CompareOp::Ne),
        Just(CompareOp::Lt),
        Just(CompareOp::Le),
        Just(CompareOp::Gt),
        Just(CompareOp::Ge),
    ]
}

/// Assert both backends produce identical rows and identical stats.
fn assert_identical(
    label: &str,
    sim: &(MultiRelation, systolic_core::ExecStats),
    fast: &(MultiRelation, systolic_core::ExecStats),
) -> Result<(), TestCaseError> {
    prop_assert_eq!(fast.0.rows(), sim.0.rows(), "{} rows", label);
    prop_assert_eq!(&fast.1, &sim.1, "{} stats", label);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Set operators (§4–§5): intersection, difference, union, dedup, and
    /// projection agree across backends for every execution strategy.
    #[test]
    fn set_operators_agree(
        m in 1usize..=3,
        exec in exec_strategy(),
        seed_a in rows_strategy(3, 9),
        seed_b in rows_strategy(3, 9),
    ) {
        let trim = |rows: Vec<Vec<i64>>| {
            rows.into_iter().map(|r| r[..m].to_vec()).collect::<Vec<_>>()
        };
        let a = rel(m, trim(seed_a));
        let b = rel(m, trim(seed_b));
        for (label, sim, fast) in [
            (
                "intersect",
                ops::intersect_with(&a, &b, exec, Backend::Sim),
                ops::intersect_with(&a, &b, exec, Backend::Columnar),
            ),
            (
                "difference",
                ops::difference_with(&a, &b, exec, Backend::Sim),
                ops::difference_with(&a, &b, exec, Backend::Columnar),
            ),
            (
                "union",
                ops::union_with(&a, &b, exec, Backend::Sim),
                ops::union_with(&a, &b, exec, Backend::Columnar),
            ),
            (
                "dedup",
                ops::dedup_with(&a, exec, Backend::Sim),
                ops::dedup_with(&a, exec, Backend::Columnar),
            ),
            (
                "project",
                ops::project_with(&a, &[0], exec, Backend::Sim),
                ops::project_with(&a, &[0], exec, Backend::Columnar),
            ),
        ] {
            assert_identical(label, &sim.unwrap(), &fast.unwrap())?;
        }
    }

    /// Theta-joins (§6): random comparator vectors over random key columns,
    /// through every execution strategy.
    #[test]
    fn theta_joins_agree(
        exec in exec_strategy(),
        specs in prop::collection::vec((0usize..2, 0usize..2, op_strategy()), 1..=3),
        seed_a in rows_strategy(2, 8),
        seed_b in rows_strategy(2, 8),
    ) {
        let a = rel(2, seed_a);
        let b = rel(2, seed_b);
        let specs: Vec<JoinSpec> = specs
            .into_iter()
            .map(|(ca, cb, op)| JoinSpec::theta(ca, cb, op))
            .collect();
        let sim = ops::join_with(&a, &b, &specs, exec, Backend::Sim).unwrap();
        let fast = ops::join_with(&a, &b, &specs, exec, Backend::Columnar).unwrap();
        assert_identical("join", &sim, &fast)?;
    }

    /// Equi-joins (§6.1), which the columnar backend answers from key
    /// buckets without building `T`: one to three key columns over a tiny
    /// domain (every key heavily duplicated on both sides), `A` values far
    /// outside anything `B` holds, through every execution strategy — equal
    /// to the simulator as an *ordered* relation (schema and row sequence)
    /// with its stats.
    #[test]
    fn equi_joins_agree(
        exec in exec_strategy(),
        pairs in prop::collection::vec((0usize..3, 0usize..3), 1..=3),
        seed_a in prop::collection::vec(
            prop::collection::vec(
                prop_oneof![-2i64..3, -2i64..3, Just(i64::MIN), Just(i64::MAX), Just(40i64)],
                3,
            ),
            0..=9,
        ),
        seed_b in rows_strategy(3, 9),
    ) {
        let a = rel(3, seed_a);
        let b = rel(3, seed_b);
        let specs: Vec<JoinSpec> = pairs.into_iter().map(|(ca, cb)| JoinSpec::eq(ca, cb)).collect();
        let sim = ops::join_with(&a, &b, &specs, exec, Backend::Sim).unwrap();
        let fast = ops::join_with(&a, &b, &specs, exec, Backend::Columnar).unwrap();
        prop_assert_eq!(&fast, &sim, "{:?}", exec);
    }

    /// The word-plane `T` equals the programmable array's, entry for
    /// entry, for arbitrary comparator vectors — the matrix itself, not
    /// just the assembled result.
    #[test]
    fn programmable_t_matrix_agrees(
        ops_vec in prop::collection::vec(op_strategy(), 1..=3),
        seed_a in rows_strategy(3, 6),
        seed_b in rows_strategy(3, 6),
    ) {
        let m = ops_vec.len();
        let trim = |rows: Vec<Vec<i64>>| {
            rows.into_iter().map(|r| r[..m].to_vec()).collect::<Vec<_>>()
        };
        let (a, b) = (trim(seed_a), trim(seed_b));
        if a.is_empty() || b.is_empty() {
            // The physical array needs at least one tuple per side; the
            // operator front-ends short-circuit empties before reaching it
            // (covered by `empty_and_exact_fit_shapes_agree`).
            return Ok(());
        }
        let sim = ProgrammableJoinArray::new(m)
            .t_matrix(&a, &b, &ops_vec)
            .unwrap();
        let packed = systolic_relation::ColumnarRelation::from_rows(&b, m);
        let cols: Vec<usize> = (0..m).collect();
        let cols_scan =
            systolic_core::columnar::t_matrix(Rows::new(&a.concat(), m), &cols, &packed, &cols, &ops_vec);
        prop_assert_eq!(cols_scan, sim.t);
    }

    /// Division (§7): binary dividend against a random divisor, with keys
    /// that may or may not cover every pair.
    #[test]
    fn division_agrees(
        exec in exec_strategy(),
        seed_a in rows_strategy(2, 9),
        seed_b in rows_strategy(1, 5),
    ) {
        let a = rel(2, seed_a);
        let b = rel(1, seed_b);
        let sim = ops::divide_binary_with(&a, 0, 1, &b, 0, exec, Backend::Sim).unwrap();
        let fast = ops::divide_binary_with(&a, 0, 1, &b, 0, exec, Backend::Columnar).unwrap();
        assert_identical("divide", &sim, &fast)?;
    }

    /// Selection: random predicate columns and constants.
    #[test]
    fn selection_agrees(
        preds in prop::collection::vec((0usize..2, op_strategy(), -2i64..3), 1..=3),
        seed_a in rows_strategy(2, 8),
    ) {
        let a = rel(2, seed_a.clone());
        if a.is_empty() {
            return Ok(());
        }
        let encoded = a.rows();
        let preds: Vec<systolic_core::Predicate> = preds
            .into_iter()
            .map(|(col, op, v)| {
                // Predicates compare against encoded values; pick a real
                // encoded element so comparisons are meaningful, falling
                // back to the raw constant's encoding position 0.
                let value = encoded[v.rem_euclid(encoded.len() as i64) as usize][col];
                systolic_core::Predicate { col, op, value }
            })
            .collect();
        let sim = ops::select_with(&a, &preds, Execution::Marching, Backend::Sim).unwrap();
        let fast = ops::select_with(&a, &preds, Execution::Marching, Backend::Columnar).unwrap();
        assert_identical("select", &sim, &fast)?;
    }
}

/// Empty relations on either (or both) sides, plus the single-tile and
/// exact-fit shapes, pinned deterministically for every operator.
#[test]
fn empty_and_exact_fit_shapes_agree() {
    type Rows = Vec<Vec<i64>>;
    let shapes: &[(Rows, Rows)] = &[
        (vec![], vec![]),
        (vec![], vec![vec![1, 2]]),
        (vec![vec![1, 2]], vec![]),
        (vec![vec![1, 2], vec![1, 2]], vec![vec![1, 2]]),
        // Exactly one 4x4 tile under ArrayLimits::new(4, 4, 2).
        (
            (0..4).map(|i| vec![i, i % 2]).collect(),
            (2..6).map(|i| vec![i, i % 2]).collect(),
        ),
        // One row over: a ragged 2-tile decomposition.
        (
            (0..5).map(|i| vec![i, i % 2]).collect(),
            (2..7).map(|i| vec![i, i % 2]).collect(),
        ),
    ];
    let execs = [
        Execution::Marching,
        Execution::TiledPipelined(ArrayLimits::new(4, 4, 2)),
    ];
    for (rows_a, rows_b) in shapes {
        let a = rel(2, rows_a.clone());
        let b = rel(2, rows_b.clone());
        for exec in execs {
            let ident = |label: &str,
                         sim: (MultiRelation, systolic_core::ExecStats),
                         fast: (MultiRelation, systolic_core::ExecStats)| {
                assert_eq!(
                    fast.0.rows(),
                    sim.0.rows(),
                    "{label} rows ({rows_a:?} vs {rows_b:?}, {exec:?})"
                );
                assert_eq!(
                    fast.1, sim.1,
                    "{label} stats ({rows_a:?} vs {rows_b:?}, {exec:?})"
                );
            };
            let fast = Backend::Columnar;
            ident(
                "intersect",
                ops::intersect_with(&a, &b, exec, Backend::Sim).unwrap(),
                ops::intersect_with(&a, &b, exec, fast).unwrap(),
            );
            ident(
                "union",
                ops::union_with(&a, &b, exec, Backend::Sim).unwrap(),
                ops::union_with(&a, &b, exec, fast).unwrap(),
            );
            ident(
                "dedup",
                ops::dedup_with(&a, exec, Backend::Sim).unwrap(),
                ops::dedup_with(&a, exec, fast).unwrap(),
            );
            let specs = [JoinSpec::eq(0, 0)];
            ident(
                "join",
                ops::join_with(&a, &b, &specs, exec, Backend::Sim).unwrap(),
                ops::join_with(&a, &b, &specs, exec, fast).unwrap(),
            );
            ident(
                "divide",
                ops::divide_binary_with(&a, 0, 1, &b, 0, exec, Backend::Sim).unwrap(),
                ops::divide_binary_with(&a, 0, 1, &b, 0, exec, fast).unwrap(),
            );
        }
    }
}

/// Two full-range columns need 128 composite-code bits, so the columnar
/// set operators hash whole rows instead of one-word codes — the one input
/// class the word-plane layout cannot code. Rows and stats must still be
/// the simulator's.
#[test]
fn overwide_relations_agree() {
    let wide = |rows: &[[i64; 2]]| rel(2, rows.iter().map(|r| r.to_vec()).collect());
    let a = wide(&[[0, 5], [i64::MAX, i64::MAX], [1, 1], [0, 5], [i64::MIN, 0]]);
    let b = wide(&[[i64::MIN, 0], [i64::MAX, i64::MAX], [7, 7]]);
    assert!(a.composite_spec().is_none() && b.composite_spec().is_none());
    for exec in [
        Execution::Marching,
        Execution::TiledPipelined(ArrayLimits::new(2, 2, 2)),
        Execution::TiledPipelined(ArrayLimits::new(2, 2, 1)),
    ] {
        for (label, sim, fast) in [
            (
                "intersect",
                ops::intersect_with(&a, &b, exec, Backend::Sim),
                ops::intersect_with(&a, &b, exec, Backend::Columnar),
            ),
            (
                "difference",
                ops::difference_with(&a, &b, exec, Backend::Sim),
                ops::difference_with(&a, &b, exec, Backend::Columnar),
            ),
            (
                "union",
                ops::union_with(&a, &b, exec, Backend::Sim),
                ops::union_with(&a, &b, exec, Backend::Columnar),
            ),
            (
                "dedup",
                ops::dedup_with(&a, exec, Backend::Sim),
                ops::dedup_with(&a, exec, Backend::Columnar),
            ),
        ] {
            let (sim, fast) = (sim.unwrap(), fast.unwrap());
            assert_eq!(fast.0.rows(), sim.0.rows(), "{label} rows ({exec:?})");
            assert_eq!(fast.1, sim.1, "{label} stats ({exec:?})");
        }
    }
    let (i, _) = ops::intersect_with(&a, &b, Execution::Marching, Backend::Columnar).unwrap();
    assert_eq!(
        i.rows().to_vec(),
        [vec![i64::MAX, i64::MAX], vec![i64::MIN, 0]]
    );
    let (d, _) = ops::dedup_with(&a, Execution::Marching, Backend::Columnar).unwrap();
    assert_eq!(d.len(), 4, "the second (0, 5) is dropped");
}

fn every_execution() -> [Execution; 3] {
    [
        Execution::Marching,
        Execution::TiledPipelined(ArrayLimits::new(2, 3, 2)),
        Execution::TiledPipelined(ArrayLimits::new(2, 3, 1)),
    ]
}

/// The equi-join's corner inputs, pinned for every execution: an empty side,
/// and two full-range key columns whose composite code needs 128 bits, so
/// the buckets are keyed by the key slices themselves.
#[test]
fn equi_join_corner_inputs_agree() {
    let wide = |rows: &[[i64; 3]]| rel(3, rows.iter().map(|r| r.to_vec()).collect());
    let a = wide(&[
        [i64::MIN, i64::MAX, 1],
        [0, 5, 2],
        [i64::MIN, i64::MAX, 3],
        [i64::MAX, i64::MIN, 4],
        [0, 6, 5],
    ]);
    let b = wide(&[
        [0, 5, 10],
        [i64::MIN, i64::MAX, 11],
        [i64::MAX, i64::MAX, 12],
        [0, 5, 13],
        [i64::MIN, i64::MAX, 14],
    ]);
    let empty = rel(3, vec![]);
    let one = [JoinSpec::eq(0, 0)];
    let two = [JoinSpec::eq(0, 0), JoinSpec::eq(1, 1)];
    let key_rows: Vec<Vec<i64>> = b.rows().iter().map(|r| r[..2].to_vec()).collect();
    assert!(
        systolic_relation::CompositeSpec::from_rows(&key_rows, 2).is_none(),
        "the two-column key must not fit one code word"
    );
    for exec in every_execution() {
        for (label, left, right, specs) in [
            ("wide key", &a, &b, &two[..]),
            ("one column of it", &a, &b, &one[..]),
            ("empty A", &empty, &b, &two[..]),
            ("empty B", &a, &empty, &one[..]),
            ("both empty", &empty, &empty, &two[..]),
        ] {
            let sim = ops::join_with(left, right, specs, exec, Backend::Sim).unwrap();
            let fast = ops::join_with(left, right, specs, exec, Backend::Columnar).unwrap();
            assert_eq!(fast, sim, "{label} ({exec:?})");
        }
    }
    let (rows, _) = ops::join_with(&a, &b, &two, Execution::Marching, Backend::Columnar).unwrap();
    assert_eq!(
        rows.rows().to_vec(),
        [
            vec![i64::MIN, i64::MAX, 1, 11],
            vec![i64::MIN, i64::MAX, 1, 14],
            vec![0, 5, 2, 10],
            vec![0, 5, 2, 13],
            vec![i64::MIN, i64::MAX, 3, 11],
            vec![i64::MIN, i64::MAX, 3, 14],
        ],
        "row-major (i, j): T's order"
    );
}

/// Which join path ran is a property of the comparators alone. The theta
/// path scans `B`'s word planes (`columnar::t_matrix`), so it packs them; the
/// bucketed equi-join reads rows and packs nothing. One `<` beside an `=`
/// is enough to need `T`.
#[test]
fn a_theta_comparator_still_goes_through_the_word_plane_t_matrix() {
    let rows =
        |seed: i64| -> Vec<Vec<i64>> { (0..7).map(|i| vec![(i + seed) % 3, i % 4]).collect() };
    let a = rel(2, rows(0));
    let equi = [JoinSpec::eq(0, 0), JoinSpec::eq(1, 1)];
    let mixed = [JoinSpec::eq(0, 0), JoinSpec::theta(1, 1, CompareOp::Lt)];
    for exec in every_execution() {
        let b = rel(2, rows(1));
        let fast = ops::join_with(&a, &b, &equi, exec, Backend::Columnar).unwrap();
        assert_eq!(
            fast,
            ops::join_with(&a, &b, &equi, exec, Backend::Sim).unwrap()
        );
        assert!(!b.columnar_built(), "an equi-join built planes ({exec:?})");
        let fast = ops::join_with(&a, &b, &mixed, exec, Backend::Columnar).unwrap();
        assert_eq!(
            fast,
            ops::join_with(&a, &b, &mixed, exec, Backend::Sim).unwrap()
        );
        assert!(
            b.columnar_built(),
            "a theta join skipped t_matrix ({exec:?})"
        );
        assert_eq!(fast.0.arity(), 4, "a theta join keeps B's key columns");
    }
}
