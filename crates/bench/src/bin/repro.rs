//! Regenerate every experiment table in EXPERIMENTS.md.
//!
//! Run with: `cargo run -p systolic-bench --bin repro --release`
//!
//! Each section corresponds to one experiment id in DESIGN.md §5, and each
//! states the paper's claim next to the measured value. All workloads are
//! seeded; the output is deterministic.
//!
//! `repro --json [DIR]` additionally writes one `BENCH_<name>.json`
//! artifact per workload (pulses, utilisation, host wall ns, queries/sec)
//! into `DIR` (default `bench-artifacts/`), and appends the
//! `serve_throughput` workload to the run so every workload is covered.

use std::time::Instant;

use systolic_bench::artifact::{ArtifactSink, Extra, Summary};
use systolic_bench::table::{fmt_ns, Table};
use systolic_bench::{hardware_ns, intersection_pulses, workloads, PULSE_NS};

use systolic_baseline::{hashed, nested_loop, sorted, OpCounter};
use systolic_core::bitlevel::{BitLinearComparisonArray, BitSerialComparator};
use systolic_core::ops::{self, Execution};
use systolic_core::tiling::{membership_tiled, t_matrix_tiled};
use systolic_core::{
    ArrayLimits, ComparisonArray2d, DivisionArray, FixedOperandArray, IntersectionArray, JoinSpec,
    LinearComparisonArray, SetOpMode,
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
            .t_matrix(&a, &b, |_, _| true)
            .unwrap();
        sum.exec(&out.stats);
        let correct = (0..n).all(|i| (0..n).all(|j| out.t.get(i, j) == (a[i] == b[j])));
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
        let (inter, s) = ops::intersect(&a, &b, Execution::Marching).unwrap();
        let (diff, sd) = ops::difference(&a, &b, Execution::Marching).unwrap();
        sum.exec(&s);
        sum.exec(&sd);
        let expect = nested_loop::intersect(&a, &b, &mut OpCounter::new()).unwrap();
        t.rowd(&[
            n.to_string(),
            format!("{overlap:.2}"),
            inter.len().to_string(),
            diff.len().to_string(),
            s.pulses.to_string(),
            fmt_ns(hardware_ns(s.pulses)),
            inter.set_eq(&expect).to_string(),
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
        let (out, s) = ops::dedup(&multi, Execution::Marching).unwrap();
        sum.exec(&s);
        let expect = nested_loop::dedup(&multi, &mut OpCounter::new());
        t.rowd(&[
            nu.to_string(),
            dup.to_string(),
            multi.len().to_string(),
            out.len().to_string(),
            s.pulses.to_string(),
            (out.rows() == expect.rows()).to_string(),
        ]);
    }
    print!("{}", t.render());
    let a = workloads::seq_multi(24, 2, 0);
    let b = workloads::seq_multi(24, 2, 12);
    let (u, su) = ops::union(&a, &b, Execution::Marching).unwrap();
    sum.exec(&su);
    println!(
        "union check: |A|=24, |B|=24, |A∩B|=12 -> |A∪B| = {} (expected 36)",
        u.len()
    );
    let (p, sp) = ops::project(&a, &[0], Execution::Marching).unwrap();
    sum.exec(&sp);
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
        let (c, s) = ops::join(&a, &b, &[JoinSpec::eq(ka, kb)], Execution::Marching).unwrap();
        sum.exec(&s);
        let expect = nested_loop::equi_join(&a, &b, &[(ka, kb)], &mut OpCounter::new()).unwrap();
        t.rowd(&[
            n.to_string(),
            keys.to_string(),
            format!("{skew:.1}"),
            c.len().to_string(),
            s.pulses.to_string(),
            s.cells.to_string(),
            c.set_eq(&expect).to_string(),
        ]);
    }
    print!("{}", t.render());

    let mut t = Table::new(&["theta op", "|C|", "== reference"]);
    let (a, b, ka, kb) = workloads::join_pair(24, 6, 0.0);
    for op in CompareOp::ALL {
        let (c, st) =
            ops::join(&a, &b, &[JoinSpec::theta(ka, kb, op)], Execution::Marching).unwrap();
        sum.exec(&st);
        let expect = if op == CompareOp::Eq {
            nested_loop::equi_join(&a, &b, &[(ka, kb)], &mut OpCounter::new()).unwrap()
        } else {
            nested_loop::theta_join(&a, &b, &[(ka, kb, op)], &mut OpCounter::new()).unwrap()
        };
        t.rowd(&[
            op.to_string(),
            c.len().to_string(),
            c.set_eq(&expect).to_string(),
        ]);
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
        let (got, s) =
            ops::divide_binary(&dividend, 0, 1, &divisor, 0, Execution::Marching).unwrap();
        sum.exec(&s);
        let mut keys: Vec<Elem> = got.rows().iter().map(|r| r[0]).collect();
        keys.sort_unstable();
        t.rowd(&[
            xu.to_string(),
            dv.to_string(),
            q.to_string(),
            got.len().to_string(),
            s.pulses.to_string(),
            (keys == expected).to_string(),
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
        .t_matrix(&a, &b, |_, _| true)
        .unwrap();
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
        let tiled = t_matrix_tiled(&a, &b, &ops_eq, limits, |_, _| true).unwrap();
        sum.exec(&tiled.stats);
        t.rowd(&[
            format!("{ma}x{mb}x{mc}"),
            tiled.stats.array_runs.to_string(),
            tiled.stats.pulses.to_string(),
            tiled.stats.cells.to_string(),
            (tiled.t == whole.t).to_string(),
        ]);
    }
    print!("{}", t.render());
    // Membership (intersection) variant.
    let (keep_whole, s_whole) = membership_tiled(
        &a,
        &b,
        SetOpMode::Intersect,
        ArrayLimits::new(1000, 1000, 4),
        |_, _| true,
    )
    .unwrap();
    let (keep_tiled, s_tiled) = membership_tiled(
        &a,
        &b,
        SetOpMode::Intersect,
        ArrayLimits::new(8, 8, 2),
        |_, _| true,
    )
    .unwrap();
    sum.exec(&s_whole);
    sum.exec(&s_tiled);
    println!(
        "tiled intersection membership identical: {}",
        keep_whole == keep_tiled
    );
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
        t.rowd(&[
            w.to_string(),
            word.stats.cells.to_string(),
            bs.cells.to_string(),
            word.stats.pulses.to_string(),
            bs.pulses.to_string(),
            (word.result == bv).to_string(),
        ]);
    }
    print!("{}", t.render());
    // Bit-serial magnitude comparators across all six operators.
    let mut agree = true;
    for op in CompareOp::ALL {
        let cmp = BitSerialComparator::new(12, op);
        for (x, y) in [(0, 0), (5, 2000), (2000, 5), (4095, 4095)] {
            let (v, st) = cmp.compare(x, y).unwrap();
            sum.exec(&st);
            agree &= v == op.eval(x, y);
        }
    }
    println!("bit-serial magnitude comparator agrees with all 6 operators: {agree}");
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
        let mut tree = TreeMachine::new(4, PULSE_NS);
        tree.load(
            &systolic_relation::MultiRelation::new(
                systolic_relation::gen::synth_schema(2),
                stored.clone(),
            )
            .unwrap(),
        );
        let (tree_keep, tree_stats) = tree.membership(&probes).unwrap();
        sum.exec(&systolic.stats);
        sum.pulses(tree_stats.total_pulses());
        t.rowd(&[
            n.to_string(),
            systolic.stats.pulses.to_string(),
            tree_stats.total_pulses().to_string(),
            tree_stats.depth.to_string(),
            (tree_keep == systolic.keep).to_string(),
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
        t.rowd(&[
            op.to_string(),
            programmed.t.count_true().to_string(),
            (programmed.t == preloaded.t).to_string(),
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

fn e18_capacity() -> Summary {
    use systolic_perfmodel::{CapacityPlan, Layout};
    let mut sum = Summary::default();
    heading(
        "E18",
        "schedule-accurate capacity model (§8 re-derived)",
        "the 52.5 ms figure assumes every comparator is busy every pulse; real schedules pay tile and pipeline overheads that §8's own 'half busy' remark anticipates",
    );
    let w = Workload::paper_typical();
    let t = Technology::paper_conservative();
    let mut tbl = Table::new(&[
        "layout",
        "tile (AxB)",
        "tiles",
        "pulses/tile",
        "total time",
        "vs ideal 52.5 ms",
    ]);
    for (name, layout) in [
        ("marching", Layout::Marching),
        ("marching+pipelined tiles", Layout::MarchingPipelined),
        ("fixed-operand", Layout::FixedOperand),
    ] {
        let plan = CapacityPlan::plan(t, w, layout);
        sum.tick();
        tbl.rowd(&[
            name.to_string(),
            format!("{}x{}", plan.tile_a, plan.tile_b),
            plan.tiles.to_string(),
            plan.pulses_per_tile.to_string(),
            format!("{:.1} ms", plan.intersection_ms()),
            format!("{:.1}x", plan.overhead_factor()),
        ]);
    }
    print!("{}", tbl.render());
    println!(
        "(pulse formulas cross-validated against the cycle-accurate simulator; the fixed-operand \
         layout — §8's own fix — recovers most of the idealised figure)"
    );
    sum
}

fn e19_pipelined_tiles() -> Summary {
    use systolic_core::tiling::t_matrix_tiled_pipelined;
    let mut sum = Summary::default();
    heading(
        "E19",
        "pipelined decomposition (§1 'extensive pipelining' across §8 tiles)",
        "streaming successive tiles back-to-back through one running array pays the fill/drain cost once per problem instead of once per tile",
    );
    let a = workloads::seq_rows(64, 2, 0);
    let b = workloads::seq_rows(64, 2, 32);
    let ops_eq = vec![CompareOp::Eq; 2];
    let mut tbl = Table::new(&[
        "tile",
        "tiles",
        "sequential pulses",
        "pipelined pulses",
        "speedup",
        "T identical",
    ]);
    for (ta, tb) in [(32usize, 32usize), (16, 16), (8, 8), (4, 4)] {
        let limits = ArrayLimits::new(ta, tb, 2);
        let seq = t_matrix_tiled(&a, &b, &ops_eq, limits, |_, _| true).unwrap();
        let piped = t_matrix_tiled_pipelined(&a, &b, &ops_eq, limits, |_, _| true).unwrap();
        sum.exec(&seq.stats);
        sum.exec(&piped.stats);
        tbl.rowd(&[
            format!("{ta}x{tb}"),
            piped.stats.array_runs.to_string(),
            seq.stats.pulses.to_string(),
            piped.stats.pulses.to_string(),
            format!(
                "{:.2}x",
                seq.stats.pulses as f64 / piped.stats.pulses as f64
            ),
            (seq.t == piped.t).to_string(),
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

/// `repro serve-throughput`: queries/sec against a live in-process
/// systolic-server — the classic thread-per-connection front end at 1, 4
/// and 16 concurrent connections, then the poll(2) reactor with a 2-shard
/// router at 64, 256 and 1024 pipelined connections.
fn serve_throughput() -> (Summary, Vec<(String, Extra)>) {
    use systolic_machine::Backend;
    use systolic_server::{spawn, Client, IoModel, ServerConfig};

    let mut sum = Summary::default();
    let mut extras: Vec<(String, Extra)> = Vec::new();

    heading(
        "S1",
        "systolic-server throughput",
        "\u{a7}9: the crossbar organisation runs a set of transactions concurrently \u{2014} \
         here served to TCP clients through the admission scheduler",
    );
    let handle = spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    })
    .expect("bind a loopback server");
    let addr = handle.addr;
    let mut setup = Client::connect(addr).unwrap();
    let a_csv: String = (0..96).map(|i| format!("{}\n", i % 48)).collect();
    let b_csv: String = (0..96).map(|i| format!("{}\n", (i * 3) % 64)).collect();
    setup.load_csv("a", "int", &a_csv).unwrap();
    setup.load_csv("b", "int", &b_csv).unwrap();
    setup.close().unwrap();

    const QUERIES: &[&str] = &[
        "intersect(scan(a), scan(b))",
        "union(scan(a), scan(b))",
        "difference(scan(a), scan(b))",
        "dedup(scan(a))",
    ];
    const PER_CLIENT: usize = 8;

    let mut t = Table::new(&["connections", "queries", "wall time", "queries/sec"]);
    for clients in [1usize, 4, 16] {
        let started = Instant::now();
        let pulses: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|i| {
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).unwrap();
                        let mut pulses = 0u64;
                        for k in 0..PER_CLIENT {
                            let q = QUERIES[(i + k) % QUERIES.len()];
                            pulses += client.query(q).unwrap().total_pulses;
                        }
                        client.close().unwrap();
                        pulses
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let elapsed = started.elapsed().as_secs_f64();
        let total = clients * PER_CLIENT;
        sum.pulses += pulses;
        sum.queries += total as u64;
        t.rowd(&[
            clients.to_string(),
            total.to_string(),
            format!("{:.1} ms", elapsed * 1e3),
            format!("{:.0}", total as f64 / elapsed),
        ]);
    }
    print!("{}", t.render());
    handle.shutdown();
    let report = handle.join().unwrap();
    println!(
        "(answers are byte-identical to one-shot runs at every concurrency; merged \
         admission formed {} multi-query schedules, largest batch {})",
        report.batches, report.max_batch
    );

    // Second act: the event-driven front end. One poll(2) reactor thread
    // multiplexes every connection onto an 8-thread worker pool, relations
    // are hash-partitioned across 2 machine shards behind the router, and
    // the closed-form columnar backend (bit-identical RESULT frames — the
    // e2e suite proves it) lifts the per-query simulation cost off this
    // box's single core so the front end itself is what's measured. Every
    // connection has its request in flight before any answer is read.
    println!();
    println!(
        "poll(2) reactor + 2-shard router (columnar backend, pipelined connections, \
         8 workers):"
    );
    let handle = spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        io: IoModel::Poll,
        shards: 2,
        workers: 8,
        max_pending: 4096,
        max_batch: 64,
        machine: systolic_machine::MachineConfig {
            backend: Backend::Columnar,
            ..systolic_machine::MachineConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind a loopback server");
    let addr = handle.addr;
    let mut setup = Client::connect(addr).unwrap();
    setup.load_csv("a", "int", &a_csv).unwrap();
    setup.load_csv("b", "int", &b_csv).unwrap();
    // Serial baseline frames — every pipelined answer below must match.
    let baseline: Vec<String> = QUERIES
        .iter()
        .map(|q| setup.raw_query_frames(q).unwrap().0)
        .collect();
    setup.close().unwrap();

    let mut t = Table::new(&["connections", "queries", "wall time", "queries/sec"]);
    for conns in [64usize, 256, 1024] {
        let mut clients: Vec<Client> = (0..conns).map(|_| Client::connect(addr).unwrap()).collect();
        let started = Instant::now();
        for (i, client) in clients.iter_mut().enumerate() {
            client.send_query(QUERIES[i % QUERIES.len()]).unwrap();
        }
        let mut pulses = 0u64;
        for (i, client) in clients.iter_mut().enumerate() {
            let (frame, _host) = client.recv_query_frames().unwrap();
            assert_eq!(
                frame,
                baseline[i % QUERIES.len()],
                "pipelined answer diverged at connection {i}/{conns}"
            );
            pulses += systolic_server::protocol::parse_result_frame(&frame)
                .expect("well-formed RESULT frame")
                .total_pulses;
        }
        let elapsed = started.elapsed().as_secs_f64();
        for client in &mut clients {
            client.close().unwrap();
        }
        sum.pulses += pulses;
        sum.queries += conns as u64;
        let qps = conns as f64 / elapsed;
        extras.push((format!("poll_conns_{conns}_qps"), Extra::F64(qps)));
        t.rowd(&[
            conns.to_string(),
            conns.to_string(),
            format!("{:.1} ms", elapsed * 1e3),
            format!("{qps:.0}"),
        ]);
    }
    print!("{}", t.render());
    handle.shutdown();
    let report = handle.join().unwrap();
    println!(
        "(every pipelined RESULT frame byte-identical to the serial baseline; \
         {} queries served, {} answered via the shard router)",
        report.queries, report.sharded
    );
    extras.push(("poll_shards".to_string(), Extra::U64(2)));
    (sum, extras)
}

fn durability() -> (Summary, Vec<(String, Extra)>) {
    use std::sync::Arc;
    use systolic_storage::{
        BlobStore, ReplacerKind, SharedBlobStore, StorageEngine, StorageMetrics,
    };
    use systolic_telemetry::metrics::Registry;

    let mut sum = Summary::default();
    let mut extras: Vec<(String, Extra)> = Vec::new();

    heading(
        "D1",
        "durable storage engine",
        "\u{a7}9: the database is disk-resident \u{2014} acknowledged loads and queries \
         survive power loss. Every number here is host time; none of it ever \
         enters the simulated pulse accounting (the two-clocks rule)",
    );
    let base = std::env::temp_dir().join(format!("sdb_bench_durability_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // Act 1: WAL append throughput. Each append is fsynced before it
    // returns — this is the price of the ack-after-durable discipline.
    let dir = base.join("wal");
    std::fs::create_dir_all(&dir).unwrap();
    let (mut engine, _, _) = StorageEngine::open_with(&dir, 64, ReplacerKind::Clock).unwrap();
    let kinds = vec!["int".to_string(), "str".to_string()];
    let csv: String = (0..32).map(|i| format!("{i},row-{i}\n")).collect();
    const APPENDS: usize = 512;
    let started = Instant::now();
    for i in 0..APPENDS {
        engine.log_load(&format!("r{i}"), &kinds, &csv).unwrap();
        sum.tick();
    }
    let wall = started.elapsed().as_secs_f64().max(1e-9);
    let log_bytes = engine.wal_bytes();
    drop(engine);
    let records_per_sec = APPENDS as f64 / wall;
    let bytes_per_sec = log_bytes as f64 / wall;
    let mut t = Table::new(&[
        "appends",
        "log bytes",
        "wall time",
        "records/sec",
        "MiB/sec",
    ]);
    t.rowd(&[
        APPENDS.to_string(),
        log_bytes.to_string(),
        fmt_ns(wall * 1e9),
        format!("{records_per_sec:.0}"),
        format!("{:.1}", bytes_per_sec / (1024.0 * 1024.0)),
    ]);
    print!("{}", t.render());
    println!("(each append fsyncs the log before returning: acked => on stable storage)");
    extras.push((
        "wal_append_records_per_sec".to_string(),
        Extra::F64(records_per_sec),
    ));
    extras.push((
        "wal_append_bytes_per_sec".to_string(),
        Extra::F64(bytes_per_sec),
    ));

    // Act 2: crash-recovery time against log length. Recovery replays the
    // logical WAL suffix through the same front door a client would use,
    // so its cost is linear in the un-checkpointed tail.
    println!();
    println!("crash recovery (reopen + logical redo) vs write-ahead log length:");
    let mut t = Table::new(&["wal records", "replayed", "recovery time"]);
    for n in [100usize, 400, 1600] {
        let dir = base.join(format!("recover_{n}"));
        std::fs::create_dir_all(&dir).unwrap();
        {
            let (mut engine, _, _) =
                StorageEngine::open_with(&dir, 64, ReplacerKind::Clock).unwrap();
            for i in 0..n {
                engine
                    .log_load(&format!("r{}", i % 8), &kinds, &csv)
                    .unwrap();
                sum.tick();
            }
        }
        let (engine, replay, report) =
            StorageEngine::open_with(&dir, 64, ReplacerKind::Clock).unwrap();
        assert_eq!(replay.len(), n, "every appended record replays");
        assert_eq!(engine.wal_records(), n);
        assert_eq!(
            report.dropped_tail_bytes, 0,
            "clean shutdown leaves no torn tail"
        );
        t.rowd(&[
            n.to_string(),
            report.wal_records.to_string(),
            fmt_ns(report.recovery_ns as f64),
        ]);
        extras.push((format!("recovery_{n}_ns"), Extra::U64(report.recovery_ns)));
    }
    print!("{}", t.render());

    // Act 3: buffer-pool hit rate as sessions pile up. A 32-frame pool over
    // 24 three-page blobs; each session cycles a small working set of its
    // own, so the rate measures how well the pool holds the sessions' union
    // as it grows past the frame budget.
    println!();
    println!("buffer-pool hit rate under concurrent sessions (32-frame pool, 24 blobs):");
    const BLOBS: usize = 24;
    const READS: usize = 64;
    let blob: Vec<u8> = (0..20 * 1024).map(|i| (i % 251) as u8).collect();
    let mut t = Table::new(&["sessions", "page reads", "hits", "misses", "hit rate"]);
    for sessions in [1usize, 4, 16] {
        let registry = Registry::new();
        let metrics = Arc::new(StorageMetrics::from_registry(&registry));
        let dir = base.join(format!("pool_{sessions}"));
        std::fs::create_dir_all(&dir).unwrap();
        let store = BlobStore::create(
            &dir.join("relations.pg"),
            32,
            ReplacerKind::Clock,
            Arc::clone(&metrics),
        )
        .unwrap();
        let store = SharedBlobStore::new(store);
        for b in 0..BLOBS {
            store.put_next(&format!("blob{b}"), &blob).unwrap();
        }
        let (hits0, misses0) = (metrics.pool_hits.get(), metrics.pool_misses.get());
        std::thread::scope(|scope| {
            for s in 0..sessions {
                let store = &store;
                let blob_len = blob.len();
                scope.spawn(move || {
                    for k in 0..READS {
                        // Each session cycles its own 6-blob working set,
                        // offset per session so the union widens with the
                        // session count.
                        let b = (s * 5 + k % 6) % BLOBS;
                        let bytes = store.get(&format!("blob{b}")).unwrap();
                        assert_eq!(bytes.len(), blob_len);
                    }
                });
            }
        });
        let hits = metrics.pool_hits.get() - hits0;
        let misses = metrics.pool_misses.get() - misses0;
        assert!(hits + misses > 0, "the read path goes through the pool");
        let rate = hits as f64 / (hits + misses) as f64;
        for _ in 0..sessions * READS {
            sum.tick();
        }
        t.rowd(&[
            sessions.to_string(),
            (hits + misses).to_string(),
            hits.to_string(),
            misses.to_string(),
            format!("{rate:.3}"),
        ]);
        extras.push((
            format!("pool_hit_rate_{sessions}_sessions"),
            Extra::F64(rate),
        ));
    }
    print!("{}", t.render());

    let _ = std::fs::remove_dir_all(&base);
    (sum, extras)
}

/// `repro` P1 — the cost-based plan compiler: every optimizer workload
/// query is compiled, both the original and the chosen plan run on a real
/// machine, and the rows must match byte for byte while the chosen plan's
/// measured pulses never exceed the baseline's. The artifact records the
/// aggregate pulse saving, per-rule rewrite hit counts, and compile time.
fn optimizer() -> (Summary, Vec<(String, Extra)>) {
    use std::collections::BTreeMap;
    use systolic_analyzer::{CatalogView, ColumnInfo};
    use systolic_machine::{parse_spanned, MachineConfig};
    use systolic_relation::{Column, DomainId, DomainKind, MultiRelation, Schema};

    let mut sum = Summary::default();
    let mut extras: Vec<(String, Extra)> = Vec::new();

    heading(
        "P1",
        "cost-based plan compiler",
        "verified algebraic rewrites costed by the \u{a7}8 pulse model pick a \
         cheaper plan with byte-identical rows; the compile itself is host \
         time and never enters the pulse accounting",
    );

    // The same workload the server e2e suite proves transparent: redundant
    // dedups, nested projections, pushable filters — plus identity-path
    // queries where no rule may fire.
    const D_INT: DomainId = DomainId(0);
    const D_STR: DomainId = DomainId(1);
    let schema = |cols: &[DomainId]| {
        Schema::new(
            cols.iter()
                .enumerate()
                .map(|(k, d)| Column::new(format!("c{k}"), *d))
                .collect(),
        )
    };
    type Fixture = (&'static str, Vec<DomainId>, Vec<Vec<i64>>);
    let tables: Vec<Fixture> = vec![
        (
            "emp",
            vec![D_STR, D_INT],
            vec![vec![1, 10], vec![2, 20], vec![3, 30]],
        ),
        ("dept", vec![D_INT, D_STR], vec![vec![10, 1], vec![20, 2]]),
        (
            "a",
            vec![D_INT],
            vec![vec![1], vec![2], vec![2], vec![3], vec![4]],
        ),
        ("b", vec![D_INT], vec![vec![2], vec![3], vec![5]]),
        (
            "ta",
            vec![D_INT, D_INT],
            (0..24).map(|i| vec![i, i % 3]).collect(),
        ),
        (
            "tb",
            vec![D_INT, D_INT],
            (5..21).map(|i| vec![i, i % 3]).collect(),
        ),
    ];
    let mut view = CatalogView::new();
    for (name, cols, rows) in &tables {
        let info: Vec<ColumnInfo> = cols
            .iter()
            .map(|d| ColumnInfo {
                domain: *d,
                kind: if *d == D_STR {
                    DomainKind::Str
                } else {
                    DomainKind::Int
                },
            })
            .collect();
        view.add_table(*name, info, rows.len() as u64);
    }
    let fresh_system = || {
        let mut sys = System::new(MachineConfig::default()).unwrap();
        for (name, cols, rows) in &tables {
            sys.load_base(
                *name,
                MultiRelation::new(schema(cols), rows.clone()).unwrap(),
            );
        }
        sys
    };

    const QUERIES: &[&str] = &[
        "dedup(union(scan(a), scan(b)))",
        "project(project(scan(emp), [1, 0]), [0])",
        "project(dedup(scan(ta)), [1])",
        "filter(filter(scan(ta), c0 >= 2), c1 <= 1)",
        "filter(intersect(scan(ta), scan(tb)), c0 <= 6)",
        "filter(union(scan(a), scan(b)), c0 >= 2)",
        "filter(join(scan(ta), scan(tb), 1 = 1), c0 >= 1)",
        "join(scan(emp), scan(dept), 1 = 0)",
        "difference(scan(a), scan(b))",
        "dedup(scan(a))",
    ];

    let machine = MachineConfig::default();
    let mut pulses_baseline = 0u64;
    let mut pulses_optimized = 0u64;
    let mut rewrite_hits = 0u64;
    let mut compile_ns = 0u64;
    let mut per_rule: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut t = Table::new(&[
        "query", "baseline", "chosen", "saved", "rewrites", "compile",
    ]);
    for q in QUERIES {
        let (expr, _) = parse_spanned(q).unwrap();
        let choice = systolic_planner::optimize(&expr, &view, &machine)
            .unwrap_or_else(|d| panic!("{q}: workload query rejected: {d:?}"));
        compile_ns += choice.compile_ns;
        for event in &choice.rewrites {
            rewrite_hits += event.sites as u64;
            *per_rule.entry(event.rule).or_default() += event.sites as u64;
        }
        // Differential proof on a real machine: same rows, measured pulses
        // never above the baseline's.
        let base = fresh_system().run(&expr).unwrap();
        let opt = fresh_system().run(&choice.expr).unwrap();
        assert_eq!(
            base.result.rows(),
            opt.result.rows(),
            "{q}: chosen plan changed the rows"
        );
        assert!(
            opt.stats.total_pulses <= base.stats.total_pulses,
            "{q}: chosen plan measured dearer: {} > {}",
            opt.stats.total_pulses,
            base.stats.total_pulses
        );
        pulses_baseline += base.stats.total_pulses;
        pulses_optimized += opt.stats.total_pulses;
        sum.pulses(opt.stats.total_pulses);
        t.rowd(&[
            (*q).to_string(),
            base.stats.total_pulses.to_string(),
            opt.stats.total_pulses.to_string(),
            (base.stats.total_pulses - opt.stats.total_pulses).to_string(),
            choice
                .rewrites
                .iter()
                .map(|r| format!("{} x{}", r.rule, r.sites))
                .collect::<Vec<_>>()
                .join(", "),
            fmt_ns(choice.compile_ns as f64),
        ]);
    }
    print!("{}", t.render());
    assert!(
        per_rule.len() >= 4,
        "expected >= 4 distinct rules on the workload, got {per_rule:?}"
    );
    assert!(
        pulses_optimized < pulses_baseline,
        "optimizer saved nothing: {pulses_optimized} vs {pulses_baseline}"
    );
    println!(
        "aggregate: {pulses_baseline} -> {pulses_optimized} pulses \
         ({} saved, {:.1}%), {} distinct rules / {rewrite_hits} rewrite sites, \
         {} total compile time",
        pulses_baseline - pulses_optimized,
        100.0 * (pulses_baseline - pulses_optimized) as f64 / pulses_baseline as f64,
        per_rule.len(),
        fmt_ns(compile_ns as f64)
    );
    extras.push(("pulses_baseline".to_string(), Extra::U64(pulses_baseline)));
    extras.push(("pulses_optimized".to_string(), Extra::U64(pulses_optimized)));
    extras.push((
        "pulses_saved".to_string(),
        Extra::U64(pulses_baseline - pulses_optimized),
    ));
    extras.push(("rewrite_hits".to_string(), Extra::U64(rewrite_hits)));
    extras.push(("rules_fired".to_string(), Extra::U64(per_rule.len() as u64)));
    extras.push(("plan_compile_ns".to_string(), Extra::U64(compile_ns)));
    for (rule, sites) in &per_rule {
        extras.push((
            format!("rewrites_{}", rule.replace('-', "_")),
            Extra::U64(*sites),
        ));
    }
    (sum, extras)
}

/// `repro` O1 — observability: what a `PROFILE`d query costs next to the
/// plain path (the `RESULT` frame must stay byte-identical), how long the
/// shutdown trace merge takes with a 2-shard fan-out feeding it, and how
/// much memory the flight recorder's retained profiles occupy.
fn observability() -> (Summary, Vec<(String, Extra)>) {
    use systolic_server::{spawn, Client, ServerConfig};
    use systolic_telemetry::json::{self, Json};

    let mut sum = Summary::default();
    let mut extras: Vec<(String, Extra)> = Vec::new();

    heading(
        "O1",
        "end-to-end query profiles",
        "\u{a7}8: the analyzer's pulse budgets are sound upper bounds \u{2014} the \
         profile lines them up against the machine's actual accounting on \
         every served query, and the flight recorder keeps the recent ones",
    );

    let trace_path =
        std::env::temp_dir().join(format!("sdb_bench_obs_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&trace_path);
    const HISTORY: usize = 64;
    let handle = spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 2,
        trace_out: Some(trace_path.clone()),
        profile_history: HISTORY,
        ..ServerConfig::default()
    })
    .expect("bind a loopback server");
    let mut client = Client::connect(handle.addr).unwrap();
    let a_csv: String = (0..96).map(|i| format!("{}\n", i % 48)).collect();
    let b_csv: String = (0..96).map(|i| format!("{}\n", (i * 3) % 64)).collect();
    client.load_csv("a", "int", &a_csv).unwrap();
    client.load_csv("b", "int", &b_csv).unwrap();

    const QUERIES: &[&str] = &[
        "intersect(scan(a), scan(b))",
        "union(scan(a), scan(b))",
        "difference(scan(a), scan(b))",
        "dedup(scan(a))",
    ];
    const ROUNDS: usize = 32;

    // Act 1: profile overhead. The same queries plain and PROFILE'd; every
    // profiled RESULT frame must equal the plain one byte for byte, and
    // the budget must bound the actual pulses on every single profile.
    let baseline: Vec<String> = QUERIES
        .iter()
        .map(|q| client.raw_query_frames(q).unwrap().0)
        .collect();
    let started = Instant::now();
    for _ in 0..ROUNDS {
        for q in QUERIES {
            sum.pulses += client.query(q).unwrap().total_pulses;
            sum.queries += 1;
        }
    }
    let plain_wall = started.elapsed().as_secs_f64().max(1e-9);
    let started = Instant::now();
    let mut min_drift = i64::MAX;
    for _ in 0..ROUNDS {
        for (i, q) in QUERIES.iter().enumerate() {
            let (result, profile) = client.profile(q).unwrap();
            assert_eq!(result.raw, baseline[i], "PROFILE changed the RESULT frame");
            let doc = json::parse(&profile).expect("profile is one JSON line");
            let budget = doc
                .get("predicted")
                .and_then(|p| p.get("pulse_budget"))
                .and_then(Json::as_u64)
                .unwrap();
            let pulses = doc
                .get("actual")
                .and_then(|a| a.get("pulses"))
                .and_then(Json::as_u64)
                .unwrap();
            assert!(
                budget >= pulses,
                "{q}: predicted budget {budget} < actual {pulses}"
            );
            assert_eq!(pulses, result.total_pulses, "profile vs RESULT pulses");
            min_drift = min_drift.min(budget as i64 - pulses as i64);
            sum.pulses += pulses;
            sum.queries += 1;
        }
    }
    let profile_wall = started.elapsed().as_secs_f64().max(1e-9);
    let n = (ROUNDS * QUERIES.len()) as f64;
    let overhead_ns = (profile_wall - plain_wall) * 1e9 / n;
    let ratio = profile_wall / plain_wall;
    let mut t = Table::new(&[
        "path",
        "queries",
        "wall time",
        "ns/query",
        "overhead ns/query",
    ]);
    t.rowd(&[
        "QUERY".into(),
        format!("{}", n as u64),
        format!("{:.1} ms", plain_wall * 1e3),
        format!("{:.0}", plain_wall * 1e9 / n),
        "-".into(),
    ]);
    t.rowd(&[
        "PROFILE".into(),
        format!("{}", n as u64),
        format!("{:.1} ms", profile_wall * 1e3),
        format!("{:.0}", profile_wall * 1e9 / n),
        format!("{overhead_ns:.0}"),
    ]);
    print!("{}", t.render());
    println!(
        "(every PROFILE'd RESULT frame byte-identical to the plain path; \
         worst drift: budget - actual = {min_drift} pulses, never negative)"
    );
    extras.push(("profile_overhead_ratio".to_string(), Extra::F64(ratio)));
    extras.push((
        "profile_plain_ns_per_query".to_string(),
        Extra::F64(plain_wall * 1e9 / n),
    ));
    extras.push((
        "profile_profiled_ns_per_query".to_string(),
        Extra::F64(profile_wall * 1e9 / n),
    ));

    // Act 2: flight-recorder memory — the retained dump is exactly what
    // `PROFILES` ships, so its JSON byte total is the recorder's live
    // payload.
    let dump = client.profiles().unwrap();
    assert_eq!(dump.len(), HISTORY, "recorder full after {} queries", n);
    let recorder_bytes: usize = dump.iter().map(String::len).sum();
    println!(
        "flight recorder: {} profiles retained, {} bytes ({} bytes/profile)",
        dump.len(),
        recorder_bytes,
        recorder_bytes / dump.len().max(1)
    );
    extras.push((
        "flight_recorder_profiles".to_string(),
        Extra::U64(dump.len() as u64),
    ));
    extras.push((
        "flight_recorder_bytes".to_string(),
        Extra::U64(recorder_bytes as u64),
    ));
    client.close().unwrap();

    // Act 3: the shutdown trace merge — collector drain + shard trailer
    // dedup + Chrome render + write, timed as the shutdown's cost.
    handle.shutdown();
    let started = Instant::now();
    handle.join().unwrap();
    let merge_ns = started.elapsed().as_nanos() as u64;
    let trace = std::fs::read_to_string(&trace_path).expect("shutdown wrote the trace");
    let events = json::parse(&trace)
        .expect("trace is valid JSON")
        .get("traceEvents")
        .and_then(Json::as_array)
        .map_or(0, <[Json]>::len);
    assert!(events > 0, "the merged trace has events");
    println!(
        "shutdown trace merge: {} events, {} bytes, {} to merge and write",
        events,
        trace.len(),
        fmt_ns(merge_ns as f64)
    );
    extras.push(("trace_merge_ns".to_string(), Extra::U64(merge_ns)));
    extras.push(("trace_events".to_string(), Extra::U64(events as u64)));
    let _ = std::fs::remove_file(&trace_path);
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

fn main() {
    let mut serve_only = false;
    let mut sink = ArtifactSink::disabled();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "serve-throughput" => serve_only = true,
            "--json" => {
                let dir = match args.peek() {
                    Some(d) if !d.starts_with('-') && d.as_str() != "serve-throughput" => {
                        args.next().unwrap()
                    }
                    _ => "bench-artifacts".to_string(),
                };
                sink = match ArtifactSink::to_dir(&dir) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("error: cannot create artifact directory {dir}: {e}");
                        std::process::exit(2);
                    }
                };
            }
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!("usage: repro [serve-throughput] [--json [DIR]]");
                std::process::exit(2);
            }
        }
    }
    if serve_only {
        run_exp_extras(&mut sink, "serve_throughput", serve_throughput);
        finish(&sink);
        return;
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
    run_exp(&mut sink, "e18_capacity", e18_capacity);
    run_exp(&mut sink, "e19_pipelined_tiles", e19_pipelined_tiles);
    run_exp_extras(&mut sink, "e21_backend_speedup", e21_backend_speedup);
    run_exp_extras(&mut sink, "e22_columnar", e22_columnar);
    run_exp_extras(&mut sink, "durability", durability);
    run_exp_extras(&mut sink, "observability", observability);
    run_exp_extras(&mut sink, "optimizer", optimizer);
    if sink.enabled() {
        // `--json` covers every workload, the server one included.
        run_exp_extras(&mut sink, "serve_throughput", serve_throughput);
    }
    println!("\nAll experiments complete.");
    finish(&sink);
}

fn finish(sink: &ArtifactSink) {
    if sink.enabled() {
        println!("wrote {} JSON artifacts:", sink.written.len());
        for path in &sink.written {
            println!("  {}", path.display());
        }
    }
}
