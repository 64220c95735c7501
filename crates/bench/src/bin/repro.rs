//! Regenerate every experiment table in EXPERIMENTS.md.
//!
//! Run with: `cargo run -p systolic-bench --bin repro --release`
//!
//! Each section corresponds to one experiment id in DESIGN.md §5, and each
//! states the paper's claim next to the measured value. All workloads are
//! seeded; the output is deterministic.
//!
//! `repro --json [DIR]` additionally writes one `BENCH_<name>.json`
//! artifact per experiment (pulses, utilisation, host wall ns, queries/sec)
//! into `DIR` (default `bench-artifacts/`). What a served query costs is
//! measured by `benchmark/`, not here.
//!
//! `repro --render-docs [DIR]` runs no experiment: it rewrites the tables
//! between `<!-- repro:NAME -->` markers in `README.md` and `EXPERIMENTS.md`
//! (in the current directory) from the artifacts in `DIR` (default
//! `bench-artifacts/`). Run it from the repository root after `--json`.

use std::time::Instant;

use systolic_bench::artifact::{ArtifactSink, Extra, Summary};
use systolic_bench::docs;
use systolic_bench::table::{fmt_ns, Table};
use systolic_bench::{hardware_ns, intersection_pulses, workloads, PULSE_NS};

use systolic_baseline::{hashed, nested_loop, sorted, OpCounter};
use systolic_core::bitlevel::{BitLinearComparisonArray, BitSerialComparator};
use systolic_core::ops::{self, Execution};
use systolic_core::tiling::{membership_tiled, t_matrix_tiled, Seed};
use systolic_core::{
    ArrayLimits, ComparisonArray2d, DivisionArray, FixedOperandArray, IntersectionArray, JoinSpec,
    LinearComparisonArray, SetOpMode, Tuples,
};
use systolic_fabric::{CompareOp, Elem};
use systolic_machine::{Backend, Expr, System};
use systolic_perfmodel::{array_keeps_up_with_disk, DiskModel, Prediction, Technology, Workload};

fn heading(id: &str, title: &str, claim: &str) {
    println!("\n### {id} — {title}");
    println!("paper: {claim}\n");
}

fn e1_linear_comparison() -> Summary {
    let mut sum = Summary::default();
    heading(
        "E1",
        "linear comparison array (Fig 3-1/3-2, §3.1)",
        "one tuple comparison completes in m pulses; a FALSE input poisons the output",
    );
    let mut t = Table::new(&[
        "m",
        "cells",
        "pulses",
        "pulses==m",
        "hw time",
        "false-poisoned",
    ]);
    for m in [1usize, 2, 4, 8, 16, 32, 64] {
        let tup: Vec<Elem> = (0..m as i64).collect();
        let arr = LinearComparisonArray::new(m);
        let out = arr.compare(&tup, &tup, true).unwrap();
        sum.exec(&out.stats);
        let poisoned = !arr.compare(&tup, &tup, false).unwrap().result;
        t.rowd(&[
            m.to_string(),
            out.stats.cells.to_string(),
            out.stats.pulses.to_string(),
            (out.stats.pulses == m as u64).to_string(),
            fmt_ns(hardware_ns(out.stats.pulses)),
            poisoned.to_string(),
        ]);
    }
    print!("{}", t.render());
    sum
}

fn e2_comparison_2d() -> Summary {
    let mut sum = Summary::default();
    heading(
        "E2",
        "two-dimensional comparison array (Fig 3-3/3-4, §3.2)",
        "all |A|x|B| pairs compared on n_A+n_B-1 rows; latency linear in n, not quadratic",
    );
    let mut t = Table::new(&[
        "n_A=n_B",
        "m",
        "rows",
        "cells",
        "pulses",
        "pulses/n",
        "T correct",
    ]);
    for n in [4usize, 8, 16, 32, 64, 128] {
        let m = 2;
        let a = workloads::seq_rows(n, m, 0);
        let b = workloads::seq_rows(n, m, (n / 2) as i64);
        let out = ComparisonArray2d::equality(m)
            .t_matrix(&a, &b, Seed::All)
            .unwrap();
        sum.exec(&out.stats);
        let correct = (0..n).all(|i| (0..n).all(|j| out.t.get(i, j) == (a[i] == b[j])));
        assert!(
            correct,
            "E2: T of the {n}x{n} array, m = {m}, is not pairwise equality"
        );
        t.rowd(&[
            n.to_string(),
            m.to_string(),
            (2 * n - 1).to_string(),
            out.stats.cells.to_string(),
            out.stats.pulses.to_string(),
            format!("{:.2}", out.stats.pulses as f64 / n as f64),
            correct.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!("(pulses/n converging to a constant = linear pipeline latency)");
    sum
}

fn e3_intersection() -> Summary {
    let mut sum = Summary::default();
    heading(
        "E3",
        "intersection & difference array (Fig 4-1, §4)",
        "t_i = OR_j t_ij selects members of A∩B; inverter gives A-B; results = set semantics",
    );
    let mut t = Table::new(&[
        "n",
        "overlap",
        "|A∩B|",
        "|A-B|",
        "pulses",
        "hw time",
        "== reference",
    ]);
    for (n, overlap) in [
        (32usize, 0.0),
        (32, 0.25),
        (32, 0.5),
        (32, 1.0),
        (128, 0.5),
        (256, 0.5),
    ] {
        let (a, b) = workloads::overlap_pair(n, 2, overlap);
        let (inter, s) = ops::intersect_with(&a, &b, Execution::Marching, Backend::Sim).unwrap();
        let (diff, sd) = ops::difference_with(&a, &b, Execution::Marching, Backend::Sim).unwrap();
        sum.exec(&s);
        sum.exec(&sd);
        let expect = nested_loop::intersect(&a, &b, &mut OpCounter::new()).unwrap();
        let same = inter.set_eq(&expect);
        assert!(
            same,
            "E3: A∩B at n = {n}, overlap {overlap} differs from the nested loop's"
        );
        t.rowd(&[
            n.to_string(),
            format!("{overlap:.2}"),
            inter.len().to_string(),
            diff.len().to_string(),
            s.pulses.to_string(),
            fmt_ns(hardware_ns(s.pulses)),
            same.to_string(),
        ]);
    }
    print!("{}", t.render());
    sum
}

fn e4_dedup_union() -> Summary {
    let mut sum = Summary::default();
    heading(
        "E4",
        "remove-duplicates, union, projection (§5)",
        "triangle-masked t inputs keep first occurrences; union = dedup(A+B); projection strips then dedups",
    );
    let mut t = Table::new(&[
        "n_unique",
        "dup",
        "rows in",
        "rows out",
        "pulses",
        "== reference",
    ]);
    for (nu, dup) in [(16usize, 1usize), (16, 2), (16, 4), (16, 8), (64, 4)] {
        let multi = workloads::duplicated(nu, dup, 2);
        let (out, s) = ops::dedup_with(&multi, Execution::Marching, Backend::Sim).unwrap();
        sum.exec(&s);
        let expect = nested_loop::dedup(&multi, &mut OpCounter::new());
        let same = out.rows() == expect.rows();
        assert!(
            same,
            "E4: dedup of {nu} tuples x {dup} differs from the nested loop's"
        );
        t.rowd(&[
            nu.to_string(),
            dup.to_string(),
            multi.len().to_string(),
            out.len().to_string(),
            s.pulses.to_string(),
            same.to_string(),
        ]);
    }
    print!("{}", t.render());
    let a = workloads::seq_multi(24, 2, 0);
    let b = workloads::seq_multi(24, 2, 12);
    let (u, su) = ops::union_with(&a, &b, Execution::Marching, Backend::Sim).unwrap();
    sum.exec(&su);
    assert_eq!(
        u.len(),
        36,
        "E4: |A∪B| of two 24-tuple relations sharing 12"
    );
    println!(
        "union check: |A|=24, |B|=24, |A∩B|=12 -> |A∪B| = {} (expected 36)",
        u.len()
    );
    let (p, sp) = ops::project_with(&a, &[0], Execution::Marching, Backend::Sim).unwrap();
    sum.exec(&sp);
    assert_eq!(p.len(), 24, "E4: project(A, [c0]) of 24 distinct c0 values");
    println!(
        "projection check: project(A, [c0]) -> {} distinct values (expected 24)",
        p.len()
    );
    sum
}

fn e5_join() -> Summary {
    let mut sum = Summary::default();
    heading(
        "E5",
        "join array (Fig 6-1, §6)",
        "a linear array per join column produces T; |C| can reach |A||B|; any comparator works (§6.3.2)",
    );
    let mut t = Table::new(&[
        "n",
        "keys",
        "skew",
        "|C|",
        "pulses",
        "cells",
        "== reference",
    ]);
    for (n, keys, skew) in [
        (32usize, 8usize, 0.0f64),
        (32, 8, 1.2),
        (64, 4, 0.0),
        (64, 64, 0.0),
        (128, 16, 1.2),
    ] {
        let (a, b, ka, kb) = workloads::join_pair(n, keys, skew);
        let (c, s) = ops::join_with(
            &a,
            &b,
            &[JoinSpec::eq(ka, kb)],
            Execution::Marching,
            Backend::Sim,
        )
        .unwrap();
        sum.exec(&s);
        let expect = nested_loop::equi_join(&a, &b, &[(ka, kb)], &mut OpCounter::new()).unwrap();
        let same = c.set_eq(&expect);
        assert!(
            same,
            "E5: equi-join at n = {n}, {keys} keys, skew {skew} differs from the nested loop's"
        );
        t.rowd(&[
            n.to_string(),
            keys.to_string(),
            format!("{skew:.1}"),
            c.len().to_string(),
            s.pulses.to_string(),
            s.cells.to_string(),
            same.to_string(),
        ]);
    }
    print!("{}", t.render());

    let mut t = Table::new(&["theta op", "|C|", "== reference"]);
    let (a, b, ka, kb) = workloads::join_pair(24, 6, 0.0);
    for op in CompareOp::ALL {
        let (c, st) = ops::join_with(
            &a,
            &b,
            &[JoinSpec::theta(ka, kb, op)],
            Execution::Marching,
            Backend::Sim,
        )
        .unwrap();
        sum.exec(&st);
        let expect = if op == CompareOp::Eq {
            nested_loop::equi_join(&a, &b, &[(ka, kb)], &mut OpCounter::new()).unwrap()
        } else {
            nested_loop::theta_join(&a, &b, &[(ka, kb, op)], &mut OpCounter::new()).unwrap()
        };
        let same = c.set_eq(&expect);
        assert!(
            same,
            "E5: theta join on {op} at n = 24 differs from the nested loop's"
        );
        t.rowd(&[op.to_string(), c.len().to_string(), same.to_string()]);
    }
    print!("{}", t.render());
    sum
}

fn e6_division() -> Summary {
    let mut sum = Summary::default();
    heading(
        "E6",
        "division array (Fig 7-1/7-2, §7)",
        "dividend array gates y values by key match; divisor array ANDs per-row coverage; paper example: A ÷ B = {i}",
    );
    // The exact Figure 7-1 instance.
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
    sum.exec(&out.stats);
    assert_eq!(out.quotient, [i], "E6: the Figure 7-1 quotient is {{i}}");
    println!(
        "figure 7-1 instance: quotient = {:?} (paper: [1] i.e. {{i}}), {} pulses on {} cells",
        out.quotient, out.stats.pulses, out.stats.cells
    );
    let mut t = Table::new(&[
        "|A1| keys",
        "|B|",
        "planted |C|",
        "measured |C|",
        "pulses",
        "correct",
    ]);
    for (xu, dv, q) in [
        (8usize, 3usize, 2usize),
        (16, 4, 5),
        (32, 6, 10),
        (64, 8, 16),
    ] {
        let (dividend, divisor, expected) = workloads::division(xu, dv, q);
        let (got, s) = ops::divide_binary_with(
            &dividend,
            0,
            1,
            &divisor,
            0,
            Execution::Marching,
            Backend::Sim,
        )
        .unwrap();
        sum.exec(&s);
        let mut keys: Vec<Elem> = got.rows().iter().map(|r| r[0]).collect();
        keys.sort_unstable();
        let correct = keys == expected;
        assert!(
            correct,
            "E6: quotient over {xu} keys by {dv} divisor values, {q} planted, is wrong"
        );
        t.rowd(&[
            xu.to_string(),
            dv.to_string(),
            q.to_string(),
            got.len().to_string(),
            s.pulses.to_string(),
            correct.to_string(),
        ]);
    }
    print!("{}", t.render());
    // The §7 "general case": composite keys compared entirely in hardware.
    use systolic_core::DivisionArrayMulti;
    let rows: Vec<Vec<Elem>> = vec![
        vec![1, 1, 10],
        vec![1, 1, 11],
        vec![1, 2, 10],
        vec![2, 2, 10],
        vec![2, 2, 11],
    ];
    let out = DivisionArrayMulti::new(2).divide(&rows, &[10, 11]).unwrap();
    sum.exec(&out.stats);
    assert_eq!(
        out.quotient,
        [vec![1, 1], vec![2, 2]],
        "E6: general-case quotient"
    );
    println!(
        "multi-column keys (general case): quotient over (x1,x2) = {:?} on {} cells",
        out.quotient, out.stats.cells
    );
    sum
}

fn e7_perfmodel() -> Summary {
    let mut sum = Summary::default();
    heading(
        "E7",
        "the §8 analytic performance model",
        "1.5e11 bit comparisons; ~50 ms conservative (350 ns, 1000 chips); ~10 ms optimistic (200 ns, 3000 chips)",
    );
    let w = Workload::paper_typical();
    let mut t = Table::new(&[
        "technology",
        "ns/cmp",
        "chips",
        "cmp/chip",
        "parallel",
        "predicted",
        "paper says",
    ]);
    for (name, tech, paper) in [
        (
            "conservative",
            Technology::paper_conservative(),
            "about 50ms",
        ),
        ("optimistic", Technology::paper_optimistic(), "about 10ms"),
    ] {
        let p = Prediction::new(tech, w);
        sum.tick();
        t.rowd(&[
            name.to_string(),
            format!("{:.0}", tech.comparison_time_ns),
            tech.chips.to_string(),
            tech.comparators_per_chip().to_string(),
            tech.parallel_comparators().to_string(),
            format!("{:.1} ms", p.intersection_ms()),
            paper.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!(
        "bit comparisons for the typical workload: {:.3e} (paper: 1.5 x 10^11)",
        w.bit_comparisons() as f64
    );
    // Sweep: chips vs predicted time (the model's scaling behaviour).
    let mut t = Table::new(&["chips", "predicted intersection"]);
    for chips in [250u64, 500, 1000, 2000, 3000, 4000] {
        let tech = Technology {
            chips,
            ..Technology::paper_conservative()
        };
        let p = Prediction::new(tech, w);
        sum.tick();
        t.rowd(&[chips.to_string(), format!("{:.1} ms", p.intersection_ms())]);
    }
    print!("{}", t.render());
    // §1's prediction: "VLSI technology promises an increase of this number
    // by at least one or two orders of magnitude in the next decade" —
    // shrink the comparator footprint 10x and 100x on the same chips.
    let mut t = Table::new(&["density vs 1980", "cmp/chip", "parallel", "predicted"]);
    for (label, shrink) in [("1x (paper)", 1.0f64), ("10x", 10.0), ("100x", 100.0)] {
        let base = Technology::paper_conservative();
        let tech = Technology {
            comparator_width_um: base.comparator_width_um / shrink.sqrt(),
            comparator_height_um: base.comparator_height_um / shrink.sqrt(),
            ..base
        };
        let p = Prediction::new(tech, w);
        sum.tick();
        t.rowd(&[
            label.to_string(),
            tech.comparators_per_chip().to_string(),
            tech.parallel_comparators().to_string(),
            format!("{:.2} ms", p.intersection_ms()),
        ]);
    }
    print!("{}", t.render());
    sum
}

fn e8_disk() -> Summary {
    let mut sum = Summary::default();
    heading(
        "E8",
        "the §8 disk-rate comparison",
        "3600 rpm = ~17 ms/rev; 500,000 bytes/rev; the array intersects two ~2 MB relations in comparable time",
    );
    let disk = DiskModel::paper_disk();
    let w = Workload::paper_typical();
    let conservative = Prediction::new(Technology::paper_conservative(), w);
    let optimistic = Prediction::new(Technology::paper_optimistic(), w);
    sum.tick();
    sum.tick();
    let total_bytes = 2.0 * w.relation_bytes(w.n_a);
    let mut t = Table::new(&["quantity", "measured", "paper says"]);
    t.rowd(&[
        "revolution time".into(),
        format!("{:.2} ms", disk.revolution_ms()),
        "about 17ms".to_string(),
    ]);
    t.rowd(&[
        "relation size".into(),
        format!("{:.3} MB", w.relation_bytes(w.n_a) / 1e6),
        "about 2 million bytes".to_string(),
    ]);
    t.rowd(&[
        "disk time, both relations".into(),
        format!("{:.1} ms", disk.read_ms(total_bytes)),
        "-".to_string(),
    ]);
    t.rowd(&[
        "array time (conservative)".into(),
        format!("{:.1} ms", conservative.intersection_ms()),
        "about 50ms".to_string(),
    ]);
    t.rowd(&[
        "array time (optimistic)".into(),
        format!("{:.1} ms", optimistic.intersection_ms()),
        "about 10ms".to_string(),
    ]);
    t.rowd(&[
        "array keeps up with disk".into(),
        array_keeps_up_with_disk(&conservative, &disk).to_string(),
        "yes".to_string(),
    ]);
    print!("{}", t.render());
    sum
}

fn e9_tiling() -> Summary {
    let mut sum = Summary::default();
    heading(
        "E9",
        "problem decomposition (§8)",
        "a fixed-size array solves oversized problems by partitioning T; pieces combine to the identical result",
    );
    let a = workloads::seq_rows(64, 4, 0);
    let b = workloads::seq_rows(64, 4, 32);
    let ops_eq = vec![CompareOp::Eq; 4];
    let whole = ComparisonArray2d::equality(4)
        .t_matrix(&a, &b, Seed::All)
        .unwrap();
    let (a_tuples, b_tuples) = (Tuples::new(&a, 4), Tuples::new(&b, 4));
    let (a_all, b_all) = (a_tuples.operand(), b_tuples.operand());
    sum.exec(&whole.stats);
    let mut t = Table::new(&[
        "physical array",
        "tile runs",
        "total pulses",
        "cells",
        "T identical",
    ]);
    t.rowd(&[
        "unbounded".to_string(),
        "1".to_string(),
        whole.stats.pulses.to_string(),
        whole.stats.cells.to_string(),
        "-".to_string(),
    ]);
    for (ma, mb, mc) in [
        (32usize, 32usize, 4usize),
        (16, 16, 4),
        (16, 16, 2),
        (8, 8, 2),
        (4, 4, 1),
    ] {
        let limits = ArrayLimits::new(ma, mb, mc);
        let tiled = t_matrix_tiled(a_all, b_all, &ops_eq, limits, Seed::All).unwrap();
        sum.exec(&tiled.stats);
        let identical = tiled.t == whole.t;
        assert!(
            identical,
            "E9: T tiled on a {ma}x{mb}x{mc} array differs from the unbounded array's"
        );
        t.rowd(&[
            format!("{ma}x{mb}x{mc}"),
            tiled.stats.array_runs.to_string(),
            tiled.stats.pulses.to_string(),
            tiled.stats.cells.to_string(),
            identical.to_string(),
        ]);
    }
    print!("{}", t.render());
    // Membership (intersection) variant.
    let (keep_whole, s_whole) = membership_tiled(
        a_all,
        b_all,
        SetOpMode::Intersect,
        ArrayLimits::new(1000, 1000, 4),
        Seed::All,
    )
    .unwrap();
    let (keep_tiled, s_tiled) = membership_tiled(
        a_all,
        b_all,
        SetOpMode::Intersect,
        ArrayLimits::new(8, 8, 2),
        Seed::All,
    )
    .unwrap();
    sum.exec(&s_whole);
    sum.exec(&s_tiled);
    let identical = keep_whole == keep_tiled;
    assert!(
        identical,
        "E9: intersection membership tiled on an 8x8x2 array differs from the 1000x1000x4 run"
    );
    println!("tiled intersection membership identical: {identical}");
    sum
}

fn e10_fixed_operand() -> Summary {
    let mut sum = Summary::default();
    heading(
        "E10",
        "fixed-operand ablation (§8)",
        "letting one relation stay resident avoids the half-busy inefficiency: fewer rows, fewer pulses, higher utilisation",
    );
    let mut t = Table::new(&[
        "n",
        "layout",
        "rows",
        "cells",
        "pulses",
        "utilisation",
        "same result",
    ]);
    for n in [16usize, 64, 256] {
        let a = workloads::seq_rows(n, 2, 0);
        let marching = IntersectionArray::new(2)
            .run(&a, &a, SetOpMode::Intersect)
            .unwrap();
        let fixed = FixedOperandArray::preload(&a)
            .run(&a, SetOpMode::Intersect)
            .unwrap();
        sum.exec(&marching.stats);
        sum.exec(&fixed.stats);
        let same = marching.keep == fixed.keep;
        assert!(
            same,
            "E10: fixed-B membership at n = {n} differs from the marching array's"
        );
        t.rowd(&[
            n.to_string(),
            "marching".to_string(),
            (2 * n - 1).to_string(),
            marching.stats.cells.to_string(),
            marching.stats.pulses.to_string(),
            format!("{:.3}", marching.stats.utilisation()),
            same.to_string(),
        ]);
        t.rowd(&[
            n.to_string(),
            "fixed-B".to_string(),
            n.to_string(),
            fixed.stats.cells.to_string(),
            fixed.stats.pulses.to_string(),
            format!("{:.3}", fixed.stats.utilisation()),
            same.to_string(),
        ]);
    }
    print!("{}", t.render());
    // The intended operating regime: a long relation streaming past a
    // small resident one.
    let long = workloads::seq_rows(512, 2, 0);
    let small = workloads::seq_rows(16, 2, 0);
    let streaming = FixedOperandArray::preload(&small)
        .run(&long, SetOpMode::Intersect)
        .unwrap();
    sum.exec(&streaming.stats);
    println!(
        "streaming regime (|A|=512 past resident |B|=16): utilisation {:.3} (approaches 1)",
        streaming.stats.utilisation()
    );
    sum
}

fn e11_bitlevel() -> Summary {
    let mut sum = Summary::default();
    heading(
        "E11",
        "word-level to bit-level transformation (§8)",
        "each word processor partitions into bit processors; results identical, cells x width, pulses x width",
    );
    let mut t = Table::new(&[
        "width w",
        "word cells",
        "bit cells",
        "word pulses",
        "bit pulses",
        "agree",
    ]);
    for w in [4u32, 8, 16, 32] {
        let m = 3usize;
        let max = (1i64 << w) - 1;
        let a = vec![max, 0, max / 2];
        let b = vec![max, 0, max / 2];
        let word = LinearComparisonArray::new(m).compare(&a, &b, true).unwrap();
        let bit = BitLinearComparisonArray::new(m, w);
        let (bv, bs) = bit.compare(&a, &b, true).unwrap();
        sum.exec(&word.stats);
        sum.exec(&bs);
        let agree = word.result == bv;
        assert!(
            agree,
            "E11: the {w}-bit array's verdict differs from the word array's"
        );
        t.rowd(&[
            w.to_string(),
            word.stats.cells.to_string(),
            bs.cells.to_string(),
            word.stats.pulses.to_string(),
            bs.pulses.to_string(),
            agree.to_string(),
        ]);
    }
    print!("{}", t.render());
    // Bit-serial magnitude comparators across all six operators.
    for op in CompareOp::ALL {
        let cmp = BitSerialComparator::new(12, op);
        for (x, y) in [(0, 0), (5, 2000), (2000, 5), (4095, 4095)] {
            let (v, st) = cmp.compare(x, y).unwrap();
            sum.exec(&st);
            assert_eq!(v, op.eval(x, y), "E11: bit-serial {x} {op} {y}");
        }
    }
    println!("bit-serial magnitude comparator agrees with all 6 operators: true");
    sum
}

fn e12_shape() -> Summary {
    let mut sum = Summary::default();
    heading(
        "E12",
        "shape claim: systolic pipeline vs sequential software (§1/§8)",
        "hardware latency grows linearly (O(n+m)) with n-way parallel comparisons; sequential comparisons grow as n^2 m",
    );
    let mut t = Table::new(&[
        "n",
        "systolic pulses",
        "systolic hw time",
        "nested-loop cmps",
        "nested-loop t(est)",
        "hash ops",
        "speedup vs NL",
    ]);
    // Sequential estimate: one element comparison per 350 ns on a 1980-era
    // processor — the generous like-for-like unit the paper itself uses.
    for n in [64u64, 256, 1024, 4096, 10_000] {
        let m = 2u64;
        let pulses = intersection_pulses(n, m);
        sum.tick();
        let hw = hardware_ns(pulses);
        let nl_cmps = n * n * m;
        let nl_time = nl_cmps as f64 * PULSE_NS;
        let hash_ops = 2 * n;
        t.rowd(&[
            n.to_string(),
            pulses.to_string(),
            fmt_ns(hw),
            nl_cmps.to_string(),
            fmt_ns(nl_time),
            hash_ops.to_string(),
            format!("{:.0}x", nl_time / hw),
        ]);
    }
    print!("{}", t.render());
    println!("(pulse formula verified against cycle-accurate simulation up to n=256 below)");
    let mut t = Table::new(&["n", "simulated pulses", "formula", "match"]);
    for n in [16usize, 64, 256] {
        let a = workloads::seq_rows(n, 2, 0);
        let out = IntersectionArray::new(2)
            .run(&a, &a, SetOpMode::Intersect)
            .unwrap();
        sum.exec(&out.stats);
        let f = intersection_pulses(n as u64, 2);
        assert_eq!(
            out.stats.pulses, f,
            "E12: simulated pulses at n = {n} against the formula"
        );
        t.rowd(&[
            n.to_string(),
            out.stats.pulses.to_string(),
            f.to_string(),
            (out.stats.pulses == f).to_string(),
        ]);
    }
    print!("{}", t.render());
    // Host-side wall-time sanity: hash beats nested-loop, both scale as
    // expected; the systolic win is in *hardware* latency, not host time.
    let (a, b) = workloads::overlap_pair(512, 2, 0.5);
    let mut c_nl = OpCounter::new();
    let mut c_h = OpCounter::new();
    let mut c_s = OpCounter::new();
    let t0 = std::time::Instant::now();
    nested_loop::intersect(&a, &b, &mut c_nl).unwrap();
    let t_nl = t0.elapsed();
    let t0 = std::time::Instant::now();
    hashed::intersect(&a, &b, &mut c_h).unwrap();
    let t_h = t0.elapsed();
    let t0 = std::time::Instant::now();
    sorted::intersect(&a, &b, &mut c_s).unwrap();
    let t_s = t0.elapsed();
    println!(
        "host wall time at n=512: nested-loop {:?} ({} cmps), hash {:?} ({} hashes), sort {:?} ({} cmps)",
        t_nl, c_nl.element_comparisons, t_h, c_h.hash_ops, t_s, c_s.element_comparisons
    );
    sum
}

fn e13_machine() -> Summary {
    let mut sum = Summary::default();
    heading(
        "E13",
        "integrated systolic system (Fig 9-1, §9)",
        "transactions pipeline disk -> memories -> arrays -> memories over a crossbar; independent operations run concurrently",
    );
    let mut sys = System::default_machine();
    sys.load_base("a", workloads::seq_multi(64, 2, 0));
    sys.load_base("b", workloads::seq_multi(64, 2, 32));
    sys.load_base("c", workloads::seq_multi(64, 2, 200));
    sys.load_base("d", workloads::seq_multi(64, 2, 232));
    let expr = Expr::scan("a")
        .intersect(Expr::scan("b"))
        .union(Expr::scan("c").intersect(Expr::scan("d")));
    let out = sys.run(&expr).unwrap();
    sum.pulses(out.stats.total_pulses);
    let mut t = Table::new(&["quantity", "value"]);
    t.rowd(&["result tuples".to_string(), out.result.len().to_string()]);
    t.rowd(&["makespan".to_string(), fmt_ns(out.stats.makespan_ns as f64)]);
    t.rowd(&[
        "array pulses".to_string(),
        out.stats.total_pulses.to_string(),
    ]);
    t.rowd(&["tile runs".to_string(), out.stats.array_runs.to_string()]);
    t.rowd(&[
        "bytes from disk".to_string(),
        out.stats.bytes_from_disk.to_string(),
    ]);
    t.rowd(&[
        "device concurrency".to_string(),
        out.stats.max_device_concurrency.to_string(),
    ]);
    print!("{}", t.render());
    println!("schedule:");
    println!(
        "{}",
        out.timeline.render_gantt(out.stats.makespan_ns / 64 + 1)
    );
    sum
}

fn e14_tree_machine() -> Summary {
    use systolic_machine::TreeMachine;
    let mut sum = Summary::default();
    heading(
        "E14",
        "tree machine comparison (§9, Song [9])",
        "\"a detailed comparison of these and other database machine structures is needed\" — membership on the systolic array vs the tree machine",
    );
    let mut t = Table::new(&[
        "n (stored=probes)",
        "systolic pulses",
        "tree pulses",
        "tree depth",
        "results agree",
    ]);
    for n in [16usize, 64, 256] {
        let stored = workloads::seq_rows(n, 2, 0);
        let probes = workloads::seq_rows(n, 2, (n / 2) as i64);
        let systolic = IntersectionArray::new(2)
            .run(&probes, &stored, SetOpMode::Intersect)
            .unwrap();
        let mut tree = TreeMachine::new(4);
        tree.load(
            &systolic_relation::MultiRelation::new(
                systolic_relation::gen::synth_schema(2),
                stored.clone(),
            )
            .unwrap(),
        );
        let (tree_keep, tree_stats) = tree.membership(&probes).unwrap();
        let agree = tree_keep == systolic.keep;
        assert!(
            agree,
            "E14: tree-machine membership at n = {n} differs from the systolic array's"
        );
        sum.exec(&systolic.stats);
        sum.pulses(tree_stats.total_pulses());
        t.rowd(&[
            n.to_string(),
            systolic.stats.pulses.to_string(),
            tree_stats.total_pulses().to_string(),
            tree_stats.depth.to_string(),
            agree.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!(
        "(both organisations are linear in n for membership; the tree's broadcast/combine adds \
         only log n, but its root serialises high-fan-out result extraction — see probe_join \
         in systolic_machine::tree)"
    );
    sum
}

fn e15_machine_ablation() -> Summary {
    use systolic_machine::{DeviceKind, MachineConfig};
    let mut sum = Summary::default();
    heading(
        "E15",
        "machine ablation (§9)",
        "\"due to the crossbar structure, several operations may be run concurrently\" — makespan of a 4-transaction batch vs number of set-op devices",
    );
    let batch: Vec<Expr> = vec![
        Expr::scan("a").intersect(Expr::scan("b")),
        Expr::scan("c").intersect(Expr::scan("d")),
        Expr::scan("a").difference(Expr::scan("b")),
        Expr::scan("c").union(Expr::scan("d")),
    ];
    let mut t = Table::new(&[
        "set-op devices",
        "memories",
        "makespan",
        "device concurrency",
    ]);
    for (setops, memories) in [(1usize, 4usize), (2, 4), (4, 8), (4, 12)] {
        let limits = ArrayLimits::new(32, 32, 8);
        let mut devices = vec![(DeviceKind::SetOp, limits); setops];
        devices.push((DeviceKind::Join, limits));
        devices.push((DeviceKind::Divide, limits));
        let mut sys = System::new(MachineConfig {
            memories,
            devices,
            ..MachineConfig::default()
        })
        .unwrap();
        sys.load_base("a", workloads::seq_multi(64, 2, 0));
        sys.load_base("b", workloads::seq_multi(64, 2, 32));
        sys.load_base("c", workloads::seq_multi(64, 2, 200));
        sys.load_base("d", workloads::seq_multi(64, 2, 232));
        let (_, outcome) = sys.run_batch(&batch).unwrap();
        sum.pulses(outcome.stats.total_pulses);
        t.rowd(&[
            setops.to_string(),
            memories.to_string(),
            fmt_ns(outcome.stats.makespan_ns as f64),
            outcome.stats.max_device_concurrency.to_string(),
        ]);
    }
    print!("{}", t.render());
    // Interconnect comparison (§9: "many strategies are possible for the
    // interconnection"): the crossbar against a single shared bus.
    use systolic_machine::Interconnect;
    let mut t = Table::new(&["interconnect", "makespan", "device concurrency"]);
    for (name, interconnect) in [
        ("crossbar (Fig 9-1)", Interconnect::Crossbar),
        ("shared bus", Interconnect::SharedBus),
    ] {
        let mut sys = System::new(MachineConfig {
            interconnect,
            ..MachineConfig::default()
        })
        .unwrap();
        sys.load_base("a", workloads::seq_multi(64, 2, 0));
        sys.load_base("b", workloads::seq_multi(64, 2, 32));
        sys.load_base("c", workloads::seq_multi(64, 2, 200));
        sys.load_base("d", workloads::seq_multi(64, 2, 232));
        let (_, outcome) = sys.run_batch(&batch).unwrap();
        sum.pulses(outcome.stats.total_pulses);
        t.rowd(&[
            name.to_string(),
            fmt_ns(outcome.stats.makespan_ns as f64),
            outcome.stats.max_device_concurrency.to_string(),
        ]);
    }
    print!("{}", t.render());
    sum
}

fn e16_programmable() -> Summary {
    use systolic_core::ProgrammableJoinArray;
    let mut sum = Summary::default();
    heading(
        "E16",
        "run-time programmable comparators (§6.3.2)",
        "\"the particular operation to be performed might be encoded in a few bits, and passed along with the data\" — opcode words sweep the rows ahead of the data",
    );
    let a = workloads::seq_rows(16, 1, 0);
    let b = workloads::seq_rows(12, 1, 4);
    let prog = ProgrammableJoinArray::new(1);
    let mut t = Table::new(&["programmed op", "TRUE entries", "== preloaded array"]);
    for op in CompareOp::ALL {
        let programmed = prog.t_matrix(&a, &b, &[op]).unwrap();
        let preloaded = systolic_core::JoinArray::new(vec![JoinSpec::theta(0, 0, op)])
            .t_matrix(&a, &b)
            .unwrap();
        sum.exec(&programmed.stats);
        sum.exec(&preloaded.stats);
        let same = programmed.t == preloaded.t;
        assert!(
            same,
            "E16: T programmed with {op} differs from the preloaded {op} array's"
        );
        t.rowd(&[
            op.to_string(),
            programmed.t.count_true().to_string(),
            same.to_string(),
        ]);
    }
    print!("{}", t.render());
    sum
}

fn e17_pattern_match() -> Summary {
    use systolic_core::PatternMatchChip;
    let mut sum = Summary::default();
    heading(
        "E17",
        "the pattern-match chip (§8, ref [3])",
        "\"the pattern-match chip can be viewed as a scaled-down version of the comparison array in Section 3\" — fabricated, tested, found to work",
    );
    let chip = PatternMatchChip::from_bytes(b"syst?lic");
    let text = b"systolic arrays are systalic? no: systolic and systylic";
    let hits = chip.find_in_bytes(text).unwrap();
    sum.tick();
    println!(
        "pattern \"syst?lic\" over {:?}:",
        String::from_utf8_lossy(text)
    );
    println!("matches at offsets {hits:?} (wildcard '?' matches o/a/y)");
    let mut t = Table::new(&["text length", "pattern k", "cells", "pulses", "matches"]);
    for len in [64usize, 256, 1024] {
        let text: Vec<Elem> = (0..len as i64).map(|i| i % 4).collect();
        let chip = PatternMatchChip::preload(&[0, 1, 2]);
        let (hits, stats) = chip.search(&text).unwrap();
        sum.exec(&stats);
        t.rowd(&[
            len.to_string(),
            3.to_string(),
            stats.cells.to_string(),
            stats.pulses.to_string(),
            hits.iter().filter(|&&h| h).count().to_string(),
        ]);
    }
    print!("{}", t.render());
    println!("(one verdict per text position; pulses linear in text length, k cells total)");
    sum
}

/// E18: §8's intersection on §8's device, priced per layout by the pricer
/// the machine serves. Returns each layout's tiles and cost as artifact
/// extras, from which `repro --render-docs` renders EXPERIMENTS.md's table.
fn e18_capacity() -> (Summary, Vec<(String, Extra)>) {
    use systolic_perfmodel::{CapacityPlan, Layout};
    let mut sum = Summary::default();
    heading(
        "E18",
        "schedule-accurate capacity model (§8 re-derived)",
        "the 52.5 ms figure assumes every comparator is busy every pulse; real schedules pay tile and pipeline overheads that §8's own 'half busy' remark anticipates",
    );
    let w = Workload::paper_typical();
    let t = Technology::paper_conservative();
    let ideal_ms = Prediction::new(t, w).intersection_ms();
    let mut extras = vec![("ideal_ms".to_string(), Extra::F64(ideal_ms))];
    let mut tbl = Table::new(&[
        "layout",
        "tile (AxB)",
        "tiles",
        "pulses",
        "total time",
        "vs ideal",
        "utilisation",
    ]);
    let layouts = [
        Layout::Marching,
        Layout::MarchingPipelined,
        Layout::FixedOperand,
    ];
    let mut ms = Vec::new();
    for ((key, name), layout) in docs::E18_LAYOUTS.into_iter().zip(layouts) {
        let plan = CapacityPlan::plan(t, w, layout);
        let s = plan.stats;
        sum.exec(&s);
        ms.push(plan.intersection_ms());
        for (field, value) in [
            ("tile_a", plan.tile_a),
            ("tile_b", plan.tile_b),
            ("tiles", s.array_runs),
            ("pulses", s.pulses),
            ("busy", s.busy_cell_pulses),
            ("total", s.total_cell_pulses),
        ] {
            extras.push((format!("{field}_{key}"), Extra::U64(value)));
        }
        tbl.rowd(&[
            name.to_string(),
            format!("{}x{}", plan.tile_a, plan.tile_b),
            s.array_runs.to_string(),
            s.pulses.to_string(),
            format!("{:.1} ms", plan.intersection_ms()),
            format!("{:.1}x", plan.overhead_factor()),
            format!("{:.3}", s.utilisation()),
        ]);
    }
    print!("{}", tbl.render());
    assert!(
        ms[2] < ms[0] && ms[2] < ms[1],
        "E18: the fixed-operand layout must beat both marching layouts: {ms:?} ms"
    );
    println!(
        "(priced at the device's array limits by kernel's closed forms, which equal the \
         cycle-accurate simulator — the pipelined layout by ops::price_membership, as served \
         queries are; the fixed-operand layout — §8's own fix — recovers most of the idealised \
         {ideal_ms:.1} ms)"
    );
    (sum, extras)
}

fn e19_pipelined_tiles() -> Summary {
    use systolic_core::tiling::t_matrix_tiled_pipelined;
    let mut sum = Summary::default();
    heading(
        "E19",
        "pipelined decomposition (§1 'extensive pipelining' across §8 tiles)",
        "streaming successive tiles back-to-back through one running array pays the fill/drain cost once per problem instead of once per tile",
    );
    let mut tbl = Table::new(&[
        "tile",
        "arity",
        "tiles",
        "sequential pulses",
        "pipelined pulses",
        "speedup",
        "T identical",
    ]);
    // Every array has two columns; arity 4 splits each tile into two
    // column groups, one pipelined pass each.
    for (ta, tb, m) in [
        (32usize, 32usize, 2usize),
        (16, 16, 2),
        (8, 8, 2),
        (4, 4, 2),
        (16, 16, 4),
    ] {
        let a = workloads::seq_rows(64, m, 0);
        let b = workloads::seq_rows(64, m, 32);
        let ops_eq = vec![CompareOp::Eq; m];
        let limits = ArrayLimits::new(ta, tb, 2);
        let (a_tuples, b_tuples) = (Tuples::new(&a, m), Tuples::new(&b, m));
        let (a_all, b_all) = (a_tuples.operand(), b_tuples.operand());
        let seq = t_matrix_tiled(a_all, b_all, &ops_eq, limits, Seed::All).unwrap();
        let piped = t_matrix_tiled_pipelined(a_all, b_all, &ops_eq, limits, Seed::All).unwrap();
        sum.exec(&seq.stats);
        sum.exec(&piped.stats);
        let identical = seq.t == piped.t;
        assert!(
            identical,
            "E19: pipelined T on {ta}x{tb}x2 tiles, arity {m}, differs from the sequential tiles'"
        );
        assert!(
            piped.stats.pulses < seq.stats.pulses,
            "E19: pipelined {ta}x{tb}x2 tiles, arity {m}, took {} pulses, sequential {}",
            piped.stats.pulses,
            seq.stats.pulses
        );
        tbl.rowd(&[
            format!("{ta}x{tb}"),
            m.to_string(),
            piped.stats.array_runs.to_string(),
            seq.stats.pulses.to_string(),
            piped.stats.pulses.to_string(),
            format!(
                "{:.2}x",
                seq.stats.pulses as f64 / piped.stats.pulses as f64
            ),
            identical.to_string(),
        ]);
    }
    print!("{}", tbl.render());
    println!(
        "(cross-tile in-flight comparisons produce don't-care outputs that the controller \
         discards by schedule — result capture is gated exactly as in §9)"
    );
    sum
}

/// E21: host wall time of the pulse-accurate simulator against the
/// closed-form columnar backend, per operator, asserting bit-identical
/// output along the way. Returns the per-operator wall times and the
/// aggregate speedup as artifact extras.
fn e21_backend_speedup() -> (Summary, Vec<(String, Extra)>) {
    let mut sum = Summary::default();
    heading(
        "E21",
        "closed-form backend vs pulse simulator (host wall time)",
        "word-plane scans plus analytic accounting reproduce the arrays' rows and pulse counts bit-for-bit without stepping the grid; host time drops >= 100x",
    );
    let n = 256;
    let (sa, sb) = workloads::overlap_pair(n, 2, 0.5);
    let (ja, jb, ka, kb) = workloads::join_pair(n, 16, 0.0);
    let (dividend, divisor, _) = workloads::division(64, 8, 16);
    let exec = Execution::Marching;
    let join_specs = [JoinSpec::eq(ka, kb)];

    type Run = (systolic_relation::MultiRelation, systolic_core::ExecStats);
    type Runner<'a> = Box<dyn Fn(Backend) -> Run + 'a>;
    let runners: Vec<(&str, Runner)> = vec![
        (
            "intersect",
            Box::new(|bk| ops::intersect_with(&sa, &sb, exec, bk).unwrap()),
        ),
        (
            "union",
            Box::new(|bk| ops::union_with(&sa, &sb, exec, bk).unwrap()),
        ),
        (
            "difference",
            Box::new(|bk| ops::difference_with(&sa, &sb, exec, bk).unwrap()),
        ),
        (
            "dedup",
            Box::new(|bk| ops::dedup_with(&sa, exec, bk).unwrap()),
        ),
        (
            "join",
            Box::new(|bk| ops::join_with(&ja, &jb, &join_specs, exec, bk).unwrap()),
        ),
        (
            "divide",
            Box::new(|bk| ops::divide_binary_with(&dividend, 0, 1, &divisor, 0, exec, bk).unwrap()),
        ),
    ];

    const REPS: usize = 3;
    let mut extras: Vec<(String, Extra)> = Vec::new();
    let mut sim_total = 0u64;
    let mut columnar_total = 0u64;
    let mut t = Table::new(&[
        "op",
        "sim wall",
        "columnar wall",
        "speedup",
        "bit-identical",
    ]);
    for (name, run) in &runners {
        // One untimed warm-up iteration per backend primes allocator and
        // cache state — for the columnar backend that includes the one-time
        // word-plane pack — then best-of-REPS damps scheduler noise. Both
        // backends get the same treatment.
        let mut best = |bk: Backend| -> (Run, u64) {
            let _ = run(bk);
            let mut best_ns = u64::MAX;
            let mut out = None;
            for _ in 0..REPS {
                let t0 = Instant::now();
                let r = run(bk);
                let ns = t0.elapsed().as_nanos() as u64;
                sum.exec(&r.1);
                if ns < best_ns {
                    best_ns = ns;
                    out = Some(r);
                }
            }
            (out.unwrap(), best_ns)
        };
        let (sim, sim_ns) = best(Backend::Sim);
        let (packed, columnar_ns) = best(Backend::Columnar);
        let identical = sim.0.rows() == packed.0.rows() && sim.1 == packed.1;
        assert!(
            identical,
            "E21: {name} (n = {n}) differs between the sim and columnar backends"
        );
        sim_total += sim_ns;
        columnar_total += columnar_ns;
        extras.push((format!("sim_ns_{name}"), Extra::U64(sim_ns)));
        extras.push((format!("columnar_ns_{name}"), Extra::U64(columnar_ns)));
        t.rowd(&[
            name.to_string(),
            fmt_ns(sim_ns as f64),
            fmt_ns(columnar_ns as f64),
            format!("{:.0}x", sim_ns as f64 / columnar_ns.max(1) as f64),
            identical.to_string(),
        ]);
    }
    print!("{}", t.render());
    let speedup = sim_total as f64 / columnar_total.max(1) as f64;
    println!(
        "aggregate: sim {} vs columnar {} -> {speedup:.1}x (target >= 100x: {})",
        fmt_ns(sim_total as f64),
        fmt_ns(columnar_total as f64),
        speedup >= 100.0,
    );
    extras.push(("sim_wall_ns".to_string(), Extra::U64(sim_total)));
    extras.push(("columnar_wall_ns".to_string(), Extra::U64(columnar_total)));
    extras.push(("speedup".to_string(), Extra::F64(speedup)));
    (sum, extras)
}

/// E22: the columnar backend on its own terms. Two acts: the six
/// operators on the device path the machine serves them on, with the
/// accounting's share of each run; and ingest bandwidth of the
/// zero-detour columnar CSV path against parse-rows-then-pack.
fn e22_columnar() -> (Summary, Vec<(String, Extra)>) {
    use systolic_relation::{import_csv, import_csv_columnar, Catalog, Column, DomainKind, Schema};

    let mut sum = Summary::default();
    let mut extras: Vec<(String, Extra)> = Vec::new();
    heading(
        "E22",
        "columnar word-plane execution (host wall time)",
        "\u{a7}2.3 domain coding packs tuples into bit planes; one 64-bit word then carries 64 tuples per host op",
    );

    // Act 1: the served path. The simulator is out of the picture, so the
    // workloads can be big enough for the word-level parallelism to show:
    // n = 2048 where E21 used 256.
    let n = 2048;
    let (sa, sb) = workloads::overlap_pair(n, 2, 0.5);
    let (ja, jb, ka, kb) = workloads::join_pair(n, 64, 0.0);
    let (dividend, divisor, _) = workloads::division(256, 8, 32);
    let join_specs = [JoinSpec::eq(ka, kb)];

    // Marching is what the paper draws, but no device in `machine` runs
    // it: they all run `TiledPipelined` on the 32 x 32 x 8 array, whose
    // accounting walks tile shapes instead of evaluating one formula.
    let device = Execution::TiledPipelined(ArrayLimits::new(32, 32, 8));
    let columnar = Backend::Columnar;
    type Run = (systolic_relation::MultiRelation, systolic_core::ExecStats);
    type Runner<'a> = Box<dyn Fn() -> Run + 'a>;
    let runners: Vec<(&str, Runner)> = vec![
        (
            "intersect",
            Box::new(|| ops::intersect_with(&sa, &sb, device, columnar).unwrap()),
        ),
        (
            "union",
            Box::new(|| ops::union_with(&sa, &sb, device, columnar).unwrap()),
        ),
        (
            "difference",
            Box::new(|| ops::difference_with(&sa, &sb, device, columnar).unwrap()),
        ),
        (
            "dedup",
            Box::new(|| ops::dedup_with(&sa, device, columnar).unwrap()),
        ),
        (
            "join",
            Box::new(|| ops::join_with(&ja, &jb, &join_specs, device, columnar).unwrap()),
        ),
        (
            "divide",
            Box::new(|| {
                ops::divide_binary_with(&dividend, 0, 1, &divisor, 0, device, columnar).unwrap()
            }),
        ),
    ];

    // Next to each run, the time its price function takes alone — the
    // share of a run that is bookkeeping rather than the operator.
    const REPS: usize = 3;
    println!("device path (TiledPipelined 32x32x8, columnar, n = {n}) and its accounting:");
    let m = sa.arity();
    let pricers: [&dyn Fn() -> systolic_core::ExecStats; 6] = [
        &|| ops::price_membership(device, sa.len(), sb.len(), m),
        &|| ops::price_union(device, sa.len(), sb.len(), m),
        &|| ops::price_membership(device, sa.len(), sb.len(), m),
        &|| ops::price_dedup(device, sa.len(), m),
        &|| ops::price_join(device, ja.len(), jb.len(), join_specs.len()),
        // Division has no price function (its array's cost depends on the
        // data); its shape-priced part is the distinct-key pre-pass.
        &|| ops::price_project(device, dividend.len(), 1),
    ];
    let mut run_total = 0u64;
    let mut price_total = 0u64;
    let mut t = Table::new(&["op", "device wall", "price wall"]);
    for ((name, run), price) in runners.iter().zip(pricers) {
        // One untimed warm-up performs the one-time word-plane pack.
        let _ = run();
        let mut run_ns = u64::MAX;
        let mut price_ns = u64::MAX;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let (_, stats) = run();
            run_ns = run_ns.min(t0.elapsed().as_nanos() as u64);
            let t0 = Instant::now();
            std::hint::black_box(price());
            price_ns = price_ns.min(t0.elapsed().as_nanos() as u64);
            sum.exec(&stats);
        }
        // The largest is union's dedup of 2n = 4096 rows: 16 384 tiles of
        // 4096 x 4096 x 2, priced by shape.
        assert!(price_ns < 2_000_000, "{name} priced in {price_ns} ns");
        run_total += run_ns;
        price_total += price_ns;
        extras.push((format!("pipelined_ns_{name}"), Extra::U64(run_ns)));
        t.rowd(&[
            name.to_string(),
            fmt_ns(run_ns as f64),
            fmt_ns(price_ns as f64),
        ]);
    }
    print!("{}", t.render());
    let share = price_total as f64 / run_total.max(1) as f64;
    println!(
        "accounting share: {} of {} -> {share:.4} (bound 0.5)",
        fmt_ns(price_total as f64),
        fmt_ns(run_total as f64),
    );
    extras.push(("pipelined_accounting_share".to_string(), Extra::F64(share)));

    // Act 2: ingest bandwidth. The zero-detour path packs word planes
    // while parsing; the detour path parses rows first and packs after —
    // same catalog, same CSV, both ending with rows AND planes in memory.
    println!();
    println!("CSV ingest to rows + word planes (50k rows x 4 int columns):");
    let rows = 50_000i64;
    let csv: String = (0..rows)
        .map(|i| format!("{},{},{},{}\n", i, (i * 7) % 1000, i % 97, (i * 13) % 8191))
        .collect();
    let mb = csv.len() as f64 / 1e6;
    let mut cat = Catalog::new();
    let schema = Schema::new(
        (0..4)
            .map(|c| {
                Column::new(
                    format!("c{c}"),
                    cat.add_domain(format!("d{c}"), DomainKind::Int),
                )
            })
            .collect(),
    );
    let mut best_ingest = |zero_detour: bool| -> u64 {
        let mut best_ns = u64::MAX;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let rel = if zero_detour {
                import_csv_columnar(&mut cat, &schema, &csv).unwrap()
            } else {
                let rel = import_csv(&mut cat, &schema, &csv).unwrap();
                rel.columnar();
                rel
            };
            let ns = t0.elapsed().as_nanos() as u64;
            assert_eq!(rel.len(), rows as usize);
            sum.tick();
            best_ns = best_ns.min(ns);
        }
        best_ns
    };
    let row_ns = best_ingest(false);
    let columnar_ns = best_ingest(true);
    let row_rate = mb / (row_ns as f64 / 1e9);
    let columnar_rate = mb / (columnar_ns as f64 / 1e9);
    let mut t = Table::new(&["path", "wall", "MB/s"]);
    t.rowd(&[
        "rows, then pack".to_string(),
        fmt_ns(row_ns as f64),
        format!("{row_rate:.0}"),
    ]);
    t.rowd(&[
        "zero-detour columnar".to_string(),
        fmt_ns(columnar_ns as f64),
        format!("{columnar_rate:.0}"),
    ]);
    print!("{}", t.render());
    extras.push(("ingest_row_mb_per_sec".to_string(), Extra::F64(row_rate)));
    extras.push((
        "ingest_columnar_mb_per_sec".to_string(),
        Extra::F64(columnar_rate),
    ));
    (sum, extras)
}

/// E20: what the telemetry layer costs the code it threads through. The
/// span and metric calls in `machine` and the server run on every query
/// whether or not a collector is installed, so the disabled cost is what
/// every uninstrumented run pays; an enabled span is the yardstick it must
/// stay far below.
fn e20_telemetry() -> (Summary, Vec<(String, Extra)>) {
    use std::hint::black_box;
    use systolic_telemetry::metrics::Counter;
    use systolic_telemetry::{install, record_between, span, uninstall};

    let mut sum = Summary::default();
    heading(
        "E20",
        "telemetry overhead (host wall time)",
        "with no collector installed a span is one flag test and an inert guard; recording one costs a clock read, ids and a buffer push",
    );
    /// Best of five timings of `iters` calls to `op`, in ns per call;
    /// `reset` runs untimed after each timing.
    fn per_call_ns(iters: u32, mut op: impl FnMut(), mut reset: impl FnMut()) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = Instant::now();
            for _ in 0..iters {
                op();
            }
            best = best.min(t0.elapsed().as_nanos() as f64 / f64::from(iters));
            reset();
        }
        best
    }
    const ITERS: u32 = 200_000;

    uninstall();
    let probe = span("bench.noop");
    assert!(
        !probe.is_recording() && probe.ctx().is_none(),
        "E20: a span opened with no collector installed is recording"
    );
    drop(probe);
    let disabled_span = per_call_ns(
        ITERS,
        || drop(black_box(span(black_box("bench.noop")))),
        || {},
    );
    let disabled_span_arg = per_call_ns(
        ITERS,
        || {
            let mut guard = span(black_box("bench.noop"));
            guard.arg("k", black_box(42u64));
            guard.arg("label", "value");
            drop(black_box(guard));
        },
        || {},
    );
    let t0 = Instant::now();
    let between = per_call_ns(
        ITERS,
        || {
            black_box(record_between(black_box("bench.wait"), None, t0, t0));
        },
        || {},
    );
    let counter = Counter::new();
    let counter_inc = per_call_ns(ITERS, || black_box(&counter).inc(), || {});

    // Each enabled span lands in the collector's buffer: drain it between
    // timings, and uninstall before any later experiment runs.
    let collector = install();
    let probe = span("bench.live");
    assert!(
        probe.is_recording(),
        "E20: a span opened under a collector is not recording"
    );
    drop(probe);
    let enabled_span = per_call_ns(
        ITERS / 10,
        || drop(black_box(span(black_box("bench.live")))),
        || drop(collector.drain()),
    );
    uninstall();

    let mut t = Table::new(&["call", "collector", "ns/call"]);
    for (call, installed, ns) in [
        ("span open + drop", "none", disabled_span),
        ("span + 2 args", "none", disabled_span_arg),
        ("record_between", "none", between),
        ("Counter::inc", "-", counter_inc),
        ("span open + drop", "installed", enabled_span),
    ] {
        sum.tick();
        t.rowd(&[call.to_string(), installed.to_string(), format!("{ns:.2}")]);
    }
    print!("{}", t.render());
    println!(
        "disabled span: {:.1}x cheaper than a recorded one (floor 5x)",
        enabled_span / disabled_span.max(1e-3)
    );
    let extras = vec![
        ("disabled_span_ns".to_string(), Extra::F64(disabled_span)),
        ("enabled_span_ns".to_string(), Extra::F64(enabled_span)),
    ];
    (sum, extras)
}

/// Time `f`, then record its summary as `BENCH_<name>.json` (a no-op when
/// the sink is disabled).
fn run_exp(sink: &mut ArtifactSink, name: &str, f: impl FnOnce() -> Summary) {
    run_exp_extras(sink, name, || (f(), Vec::new()));
}

/// [`run_exp`] for experiments that also emit extra artifact fields.
fn run_exp_extras(
    sink: &mut ArtifactSink,
    name: &str,
    f: impl FnOnce() -> (Summary, Vec<(String, Extra)>),
) {
    let started = Instant::now();
    let (sum, extras) = f();
    if let Err(e) = sink.record_with(name, &sum, started.elapsed(), &extras) {
        eprintln!("warning: failed to write artifact for {name}: {e}");
    }
}

/// Rewrite the artifact-rendered tables of the documents in the current
/// directory from the artifacts in `dir`.
fn render_docs(dir: &str) -> Result<(), String> {
    let artifact = |name: &str| {
        let path = format!("{dir}/BENCH_{name}.json");
        std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))
    };
    let e18 = docs::e18_table(&artifact("e18_capacity")?)?;
    let e21 = docs::e21_table(&artifact("e21_backend_speedup")?)?;
    let renders: [(&str, &[(&str, &String)]); 2] = [
        ("README.md", &[("e21", &e21)]),
        ("EXPERIMENTS.md", &[("e18", &e18), ("e21", &e21)]),
    ];
    for (doc, tables) in renders {
        let mut text = std::fs::read_to_string(doc).map_err(|e| format!("{doc}: {e}"))?;
        for (name, table) in tables {
            text = docs::splice(&text, name, table).map_err(|e| format!("{doc}: {e}"))?;
            println!("rendered {} into {doc}", name.to_uppercase());
        }
        std::fs::write(doc, text).map_err(|e| format!("{doc}: {e}"))?;
    }
    Ok(())
}

fn main() {
    let mut sink = ArtifactSink::disabled();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut dir = || match args.peek() {
            Some(d) if !d.starts_with('-') => args.next().unwrap(),
            _ => "bench-artifacts".to_string(),
        };
        match arg.as_str() {
            "--json" => {
                let dir = dir();
                sink = match ArtifactSink::to_dir(&dir) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("error: cannot create artifact directory {dir}: {e}");
                        std::process::exit(2);
                    }
                };
            }
            "--render-docs" => {
                if let Err(e) = render_docs(&dir()) {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
                return;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!("usage: repro [--json [DIR]] | repro --render-docs [DIR]");
                std::process::exit(2);
            }
        }
    }
    println!(
        "# Systolic (VLSI) Arrays for Relational Database Operations — experiment reproduction"
    );
    println!(
        "(Kung & Lehman, SIGMOD 1980; all workloads seeded with 0x{:x})",
        workloads::SEED
    );
    run_exp(&mut sink, "e01_linear_comparison", e1_linear_comparison);
    run_exp(&mut sink, "e02_comparison_2d", e2_comparison_2d);
    run_exp(&mut sink, "e03_intersection", e3_intersection);
    run_exp(&mut sink, "e04_dedup_union", e4_dedup_union);
    run_exp(&mut sink, "e05_join", e5_join);
    run_exp(&mut sink, "e06_division", e6_division);
    run_exp(&mut sink, "e07_perfmodel", e7_perfmodel);
    run_exp(&mut sink, "e08_disk", e8_disk);
    run_exp(&mut sink, "e09_tiling", e9_tiling);
    run_exp(&mut sink, "e10_fixed_operand", e10_fixed_operand);
    run_exp(&mut sink, "e11_bitlevel", e11_bitlevel);
    run_exp(&mut sink, "e12_shape", e12_shape);
    run_exp(&mut sink, "e13_machine", e13_machine);
    run_exp(&mut sink, "e14_tree_machine", e14_tree_machine);
    run_exp(&mut sink, "e15_machine_ablation", e15_machine_ablation);
    run_exp(&mut sink, "e16_programmable", e16_programmable);
    run_exp(&mut sink, "e17_pattern_match", e17_pattern_match);
    run_exp_extras(&mut sink, "e18_capacity", e18_capacity);
    run_exp(&mut sink, "e19_pipelined_tiles", e19_pipelined_tiles);
    run_exp_extras(&mut sink, "e21_backend_speedup", e21_backend_speedup);
    run_exp_extras(&mut sink, "e22_columnar", e22_columnar);
    run_exp_extras(&mut sink, "e20_telemetry", e20_telemetry);
    println!("\nAll experiments complete.");
    if sink.enabled() {
        println!("wrote {} JSON artifacts:", sink.written.len());
        for path in &sink.written {
            println!("  {}", path.display());
        }
    }
}
