//! The paper's explicit claims, checked one by one against the
//! reproduction. Each test cites the section it reproduces.

use systolic_db::arrays::ops::{self, Execution};
use systolic_db::arrays::tiling::Seed;
use systolic_db::arrays::{
    ComparisonArray2d, DivisionArray, FixedOperandArray, IntersectionArray, LinearComparisonArray,
    SetOpMode,
};
use systolic_db::fabric::Elem;
use systolic_db::perfmodel::{
    array_keeps_up_with_disk, DiskModel, Prediction, Technology, Workload,
};
use systolic_db::relation::gen::synth_schema;
use systolic_db::relation::MultiRelation;

fn seq(range: std::ops::Range<i64>, m: usize) -> Vec<Vec<Elem>> {
    range
        .map(|i| (0..m).map(|c| i + c as i64).collect())
        .collect()
}

/// §3.1: "after m time steps the output at the right-most processor of the
/// processor array will be a bit indicating whether the two tuples are
/// equal."
#[test]
fn claim_3_1_linear_array_takes_m_steps() {
    for m in [1usize, 2, 5, 16, 64] {
        let a: Vec<Elem> = (0..m as i64).collect();
        let out = LinearComparisonArray::new(m).compare(&a, &a, true).unwrap();
        assert!(out.result);
        assert_eq!(out.stats.pulses, m as u64, "width {m}");
    }
}

/// §3.2: every pair of tuples crosses; the array computes the complete T.
#[test]
fn claim_3_2_all_pairs_compared() {
    let a = seq(0..7, 3);
    let b = seq(3..12, 3);
    let out = ComparisonArray2d::equality(3)
        .t_matrix(&a, &b, Seed::All)
        .unwrap();
    for (i, ra) in a.iter().enumerate() {
        for (j, rb) in b.iter().enumerate() {
            assert_eq!(out.t.get(i, j), ra == rb, "pair ({i},{j})");
        }
    }
}

/// §4.2: "a tuple a_i ∈ A is a member of the intersection ... if and only
/// if t_i is true"; §4.3: difference = inverted output.
#[test]
fn claim_4_intersection_and_difference() {
    let a = seq(0..10, 2);
    let b = seq(5..15, 2);
    let arr = IntersectionArray::new(2);
    let inter = arr.run(&a, &b, SetOpMode::Intersect).unwrap();
    let diff = arr.run(&a, &b, SetOpMode::Difference).unwrap();
    for (i, row) in a.iter().enumerate() {
        let in_b = b.contains(row);
        assert_eq!(inter.keep[i], in_b);
        assert_eq!(diff.keep[i], !in_b);
    }
}

/// §5: union via remove-duplicates over the concatenation.
#[test]
fn claim_5_union_is_dedup_of_concatenation() {
    let a = MultiRelation::new(synth_schema(1), seq(0..6, 1)).unwrap();
    let b = MultiRelation::new(synth_schema(1), seq(3..9, 1)).unwrap();
    let concat = a.concat(&b).unwrap();
    let (via_dedup, _) = ops::dedup(&concat, Execution::Marching).unwrap();
    let (via_union, _) = ops::union(&a, &b, Execution::Marching).unwrap();
    assert_eq!(via_dedup.rows(), via_union.rows());
    assert_eq!(via_union.len(), 9);
}

/// §6.2: "the size of the join |C| might be as large as the product
/// |A||B|" and T is produced for all pairs by a linear array when joining
/// over one column.
#[test]
fn claim_6_join_matrix_and_degenerate_bound() {
    use systolic_db::arrays::JoinArray;
    let a: Vec<Vec<Elem>> = (0..6).map(|i| vec![i, 42]).collect();
    let b: Vec<Vec<Elem>> = (0..5).map(|i| vec![42, i]).collect();
    let arr = JoinArray::equi(1, 0);
    let out = arr.t_matrix(&a, &b).unwrap();
    assert_eq!(out.t.count_true(), 30, "degenerate all-match join");
    assert_eq!(out.stats.cells, 6 + 5 - 1, "a linear (one-column) array");
}

/// §7 / Figure 7-1: the worked division example yields C = {i}.
#[test]
fn claim_7_division_example() {
    let (i, j, k) = (1, 2, 3);
    let (a, b, c, d, e) = (10, 11, 12, 13, 14);
    let pairs = [
        (i, a),
        (i, b),
        (i, c),
        (j, a),
        (j, c),
        (k, a),
        (i, d),
        (j, e),
        (k, c),
        (k, d),
    ];
    let out = DivisionArray.divide(&pairs, &[a, b, c, d]).unwrap();
    assert_eq!(out.quotient, vec![i]);
}

/// §8: "only half of the processors in a systolic array are busy at any
/// one time" (marching) and the fixed-operand fix roughly doubles it.
#[test]
fn claim_8_utilisation_and_fixed_operand() {
    let a = seq(0..48, 2);
    let marching = IntersectionArray::new(2)
        .run(&a, &a, SetOpMode::Intersect)
        .unwrap();
    let fixed = FixedOperandArray::preload(&a)
        .run(&a, SetOpMode::Intersect)
        .unwrap();
    // Marching two equal relations never exceeds half utilisation (it
    // converges to ~1/3 including fill/drain); the fixed-operand layout
    // converges to ~1/2 at equal cardinalities...
    assert!(marching.stats.utilisation() < 0.5 + 1e-9);
    assert!(fixed.stats.utilisation() > 1.4 * marching.stats.utilisation());
    // ...and approaches full utilisation when a long relation streams past
    // a small resident one (the intended §8 operating regime).
    let long = seq(0..256, 2);
    let small = seq(0..8, 2);
    let streaming = FixedOperandArray::preload(&small)
        .run(&long, SetOpMode::Intersect)
        .unwrap();
    assert!(
        streaming.stats.utilisation() > 0.8,
        "streaming utilisation {}",
        streaming.stats.utilisation()
    );
    // The fixed array halves the hardware too.
    assert!(fixed.stats.cells < marching.stats.cells);
    // Both schedules run to their closed forms: 4n - 1 pulses marching
    // (tuples two pulses apart), 2n + 1 with B resident.
    assert_eq!(marching.stats.pulses, 4 * 48 - 1);
    assert_eq!(fixed.stats.pulses, 2 * 48 + 1);
}

/// §8: the analytic model's headline numbers, exactly as printed in the
/// paper: 1.5x10^11 bit comparisons; ~50 ms conservative; ~10 ms
/// optimistic; 1000 comparators per chip; 10^6 parallel comparisons.
#[test]
fn claim_8_performance_model() {
    let w = Workload::paper_typical();
    assert_eq!(w.bit_comparisons(), 150_000_000_000u64);
    let conservative = Prediction::new(Technology::paper_conservative(), w);
    let optimistic = Prediction::new(Technology::paper_optimistic(), w);
    assert_eq!(
        Technology::paper_conservative().comparators_per_chip(),
        1000
    );
    assert_eq!(
        Technology::paper_conservative().parallel_comparators(),
        1_000_000
    );
    assert!(
        (conservative.intersection_ms() - 52.5).abs() < 1e-9,
        "'about 50ms'"
    );
    assert!(
        (optimistic.intersection_ms() - 10.0).abs() < 1e-9,
        "'about 10ms'"
    );
}

/// §8: the disk-rate comparison — a 3600 rpm disk revolves in ~17 ms and
/// delivers 500,000 bytes per revolution; the array keeps up.
#[test]
fn claim_8_disk_comparison() {
    let d = DiskModel::paper_disk();
    assert!((d.revolution_ms() - 17.0).abs() < 0.5);
    let p = Prediction::new(Technology::paper_conservative(), Workload::paper_typical());
    assert!(array_keeps_up_with_disk(&p, &d));
    // "relations, each of about 2 million bytes"
    let bytes = p.workload.relation_bytes(p.workload.n_a);
    assert!((1.5e6..2.5e6).contains(&bytes));
}

/// §8: decomposition — a fixed-size array solves problems that do not fit
/// on it, producing identical results piecewise.
#[test]
fn claim_8_decomposition() {
    use systolic_db::arrays::tiling::{
        membership_tiled, t_matrix_tiled, t_matrix_tiled_pipelined, ArrayLimits,
    };
    use systolic_db::fabric::CompareOp;
    let a = seq(0..40, 2);
    let b = seq(20..60, 2);
    let whole = IntersectionArray::new(2)
        .run(&a, &b, SetOpMode::Intersect)
        .unwrap();
    let (tiled, stats) = membership_tiled(
        &a,
        &b,
        SetOpMode::Intersect,
        ArrayLimits::new(8, 8, 2),
        Seed::All,
    )
    .unwrap();
    assert_eq!(tiled, whole.keep);
    assert_eq!(stats.array_runs, 25, "5x5 tile grid");

    // "Each of these sub-problems would generate a piece of the matrix":
    // §5's remove-duplicates seeds T's upper triangle and diagonal FALSE,
    // so over t equal tiles per side the t(t - 1)/2 tiles above the
    // diagonal have a known piece and only t(t + 1)/2 run.
    let limits = ArrayLimits::new(8, 8, 2);
    let ops_eq = vec![CompareOp::Eq; 2];
    for t in 1..=4u64 {
        let rows: Vec<Vec<Elem>> = (0..8 * t as i64).map(|i| vec![i % 5, i % 3]).collect();
        let whole = ComparisonArray2d::equality(2)
            .t_matrix(&rows, &rows, Seed::StrictLower)
            .unwrap();
        let seq = t_matrix_tiled(&rows, &rows, &ops_eq, limits, Seed::StrictLower).unwrap();
        let piped =
            t_matrix_tiled_pipelined(&rows, &rows, &ops_eq, limits, Seed::StrictLower).unwrap();
        for out in [seq, piped] {
            assert_eq!(out.t, whole.t, "{t} tiles per side");
            assert_eq!(out.stats.array_runs, t * (t + 1) / 2, "{t} tiles per side");
        }
    }
}

/// §9: "a systolic array may process hundreds of thousands of bytes per
/// millisecond" — checked against the optimistic model.
#[test]
fn claim_9_throughput() {
    let p = Prediction::new(Technology::paper_optimistic(), Workload::paper_typical());
    assert!(p.bytes_per_second() / 1e3 >= 100_000.0);
}

/// §9: concurrency through the crossbar (measured by the machine tests in
/// detail; here the headline assertion on the default machine, and the
/// overlap a batch gets from one and from two set-operation devices).
#[test]
fn claim_9_concurrency() {
    use systolic_db::arrays::ArrayLimits;
    use systolic_db::machine::{DeviceKind, Expr, MachineConfig, System};
    let loaded = |mut sys: System| {
        for (name, r) in [
            ("a", 0..64),
            ("b", 32..96),
            ("c", 200..264),
            ("d", 232..296),
        ] {
            sys.load_base(
                name,
                MultiRelation::new(synth_schema(2), seq(r, 2)).unwrap(),
            );
        }
        sys
    };
    let expr = Expr::scan("a")
        .intersect(Expr::scan("b"))
        .union(Expr::scan("c").intersect(Expr::scan("d")));
    let out = loaded(System::default_machine()).run(&expr).unwrap();
    assert!(out.stats.max_device_concurrency >= 2);
    let batch = [
        Expr::scan("a").intersect(Expr::scan("b")),
        Expr::scan("c").intersect(Expr::scan("d")),
    ];
    for setops in [1usize, 2] {
        let limits = ArrayLimits::new(32, 32, 8);
        let mut devices = vec![(DeviceKind::SetOp, limits); setops];
        devices.push((DeviceKind::Join, limits));
        let config = MachineConfig {
            devices,
            ..MachineConfig::default()
        };
        let (_, outcome) = loaded(System::new(config).unwrap())
            .run_batch(&batch)
            .unwrap();
        assert_eq!(
            outcome.stats.max_device_concurrency, setops,
            "{setops} set-op devices"
        );
    }
}
