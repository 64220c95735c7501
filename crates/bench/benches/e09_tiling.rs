//! E9 — problem decomposition (§8): cost of solving one problem on
//! progressively smaller physical arrays. Results are asserted identical to
//! the unbounded run every iteration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use systolic_bench::workloads;
use systolic_core::tiling::{t_matrix_tiled, ArrayLimits};
use systolic_core::ComparisonArray2d;
use systolic_fabric::CompareOp;

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(700))
}

fn bench_tiling(c: &mut Criterion) {
    let a = workloads::seq_rows(48, 2, 0);
    let b = workloads::seq_rows(48, 2, 24);
    let ops_eq = vec![CompareOp::Eq; 2];
    let whole = ComparisonArray2d::equality(2)
        .t_matrix(&a, &b, |_, _| true)
        .unwrap();
    let mut g = c.benchmark_group("e09/tiling");
    for (ma, mb, mc) in [(48usize, 48usize, 2usize), (16, 16, 2), (8, 8, 1)] {
        let limits = ArrayLimits::new(ma, mb, mc);
        let label = format!("{ma}x{mb}x{mc}");
        g.bench_with_input(
            BenchmarkId::from_parameter(&label),
            &limits,
            |bch, &limits| {
                bch.iter(|| {
                    let tiled =
                        t_matrix_tiled(black_box(&a), black_box(&b), &ops_eq, limits, |_, _| true)
                            .unwrap();
                    assert_eq!(tiled.t, whole.t);
                    tiled.stats.array_runs
                })
            },
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_tiling
}
criterion_main!(benches);
