//! E20 — telemetry overhead: the disabled hot path must be a no-op.
//!
//! The span/metric instrumentation threads through `machine::system` and
//! the server request loop, so its *disabled* cost is what every
//! uninstrumented run pays. These benchmarks measure that cost directly
//! (span open/drop, annotated span, `record_between`, counter increments)
//! against an installed-collector run of the same code, and assert the
//! functional no-op properties every iteration: an inert guard, no context,
//! nothing recorded.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

use systolic_machine::{Expr, System};
use systolic_telemetry::metrics::Counter;
use systolic_telemetry::{enabled, install, record_between, span, uninstall};

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600))
}

fn bench_disabled_spans(c: &mut Criterion) {
    uninstall();
    assert!(!enabled(), "collector must be absent for the no-op benches");
    let mut g = c.benchmark_group("e20/disabled");
    g.bench_function("span_open_drop", |b| {
        b.iter(|| {
            let guard = span(black_box("bench.noop"));
            assert!(!guard.is_recording());
            assert!(guard.ctx().is_none());
            guard
        })
    });
    g.bench_function("span_with_args", |b| {
        b.iter(|| {
            let mut guard = span(black_box("bench.noop"));
            // Disabled guards skip the annotation entirely — the Display
            // impl is never invoked, no String is built.
            guard.arg("k", black_box(42u64));
            guard.arg("label", "value");
            guard
        })
    });
    g.bench_function("record_between", |b| {
        let t0 = Instant::now();
        b.iter(|| {
            let ctx = record_between(black_box("bench.wait"), None, t0, t0);
            assert!(ctx.is_none());
            ctx
        })
    });
    g.finish();
}

fn bench_enabled_spans(c: &mut Criterion) {
    let collector = install();
    let mut g = c.benchmark_group("e20/enabled");
    g.bench_function("span_open_drop", |b| {
        b.iter(|| {
            let guard = span(black_box("bench.live"));
            assert!(guard.is_recording());
            guard
        });
        // Bound collector memory between samples.
        collector.drain();
    });
    g.finish();
    uninstall();
}

fn bench_machine_run_with_telemetry_off(c: &mut Criterion) {
    uninstall();
    assert!(!enabled());
    let mut g = c.benchmark_group("e20/machine");
    // The instrumented end-to-end path (parse -> plan -> execute -> account)
    // running with no collector: what a plain CLI run pays.
    g.bench_function("run_disabled", |b| {
        b.iter(|| {
            let mut sys = System::default_machine();
            sys.load_base("a", systolic_bench::workloads::seq_multi(64, 2, 0));
            sys.load_base("b", systolic_bench::workloads::seq_multi(64, 2, 32));
            let expr = Expr::scan("a").intersect(Expr::scan("b"));
            let out = sys.run(black_box(&expr)).unwrap();
            assert_eq!(out.result.len(), 32);
            out.stats.total_pulses
        })
    });
    g.finish();
}

fn bench_server_plain_path_with_profiling_off(c: &mut Criterion) {
    use systolic_server::{spawn, Client, ServerConfig};

    // The plain QUERY path against a live server, with the flight recorder
    // disabled (history 0) and enabled (the default ring): the always-on
    // recorder must not tax the un-PROFILE'd path beyond the ring push.
    // Tracing stays off in both runs — no collector, so the span layer is
    // the no-op guard measured above.
    uninstall();
    assert!(
        !enabled(),
        "collector must be absent for the server benches"
    );
    let mut g = c.benchmark_group("e20/server");
    for (label, history) in [("query_recorder_off", 0usize), ("query_recorder_on", 16)] {
        let handle = spawn(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            profile_history: history,
            ..ServerConfig::default()
        })
        .expect("bind a loopback server");
        let mut client = Client::connect(handle.addr).unwrap();
        let csv: String = (0..64).map(|i| format!("{}\n", i % 32)).collect();
        client.load_csv("a", "int", &csv).unwrap();
        g.bench_function(label, |b| {
            b.iter(|| {
                let out = client.query(black_box("dedup(scan(a))")).unwrap();
                assert_eq!(out.rows, 32);
                out.total_pulses
            })
        });
        client.close().unwrap();
        handle.shutdown();
        handle.join().unwrap();
    }
    g.finish();
}

fn bench_disabled_counter(c: &mut Criterion) {
    let mut g = c.benchmark_group("e20/metrics");
    let counter = Counter::new();
    g.bench_function("counter_inc", |b| {
        b.iter(|| {
            counter.inc();
            counter.get()
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_disabled_spans,
        bench_enabled_spans,
        bench_machine_run_with_telemetry_off,
        bench_server_plain_path_with_profiling_off,
        bench_disabled_counter
}
criterion_main!(benches);
