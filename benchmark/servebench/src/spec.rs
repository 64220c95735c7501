//! The metric catalogue: names, units, direction and regression bounds.
//! `BENCHMARK.json` at the repository root is this table as JSON; a unit
//! test keeps the two identical.

use crate::gen::Workload;
use Better::{Higher, Lower};

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// `change` as a share of `base`, positive when it got worse.
    pub fn worsening(self, base: f64, change: f64) -> f64 {
        let delta = match self {
            Better::Lower => change - base,
            Better::Higher => base - change,
        };
        delta / base.abs()
    }
}

/// A metric definition.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the metric
    /// may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// What a user of `sdb serve` sees, on every workload. Metrics that exist on
/// one workload only (`durable.*`) or read 0 on a clean tree
/// (`bench.failed_ops_share`) are per-layer metrics: an end-to-end metric is
/// reported by every run and is never 0.
///
/// One timed metric is gated. On this shared two-core guest a CPU-bound
/// query often runs either undisturbed or about a third slower, the disturbed
/// share of a run swinging between a tenth and two thirds for minutes at a
/// time: medians, p95s and ops/s of one binary then spread 12-27 % over ten
/// runs, and the driver's check refused them. `op_fast_ms` reads each kind of
/// op at its fastest decile, which stays in the undisturbed mode: 1-4 % spread
/// on a quiet host, medians within 8 % of quiet beside a half-duty CPU hog.
/// It does not withstand the other thing this host does, slowing down as a
/// whole: with a plain integer loop running 40 % slower, `scan_reads` read
/// 12-19 % higher on every run, and 5-10 % higher for an hour after the loop
/// was back to speed. Hence the contract's widest bound, and
/// `bench.host_spin_us` printed beside the layers (`REPEATABILITY.md`).
/// The distribution as the clients saw it (`server.query_p50_ms`, `_p95_ms`,
/// `_p99_ms`, `server.throughput_ops_s` - in a closed loop the reciprocal of
/// mean latency) and CPU time per op (the guest is charged for stolen time)
/// are reported per layer, ungated.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("op_fast_ms", "ms", Better::Lower, 0.25),
    // Peak RSS of one binary and seed takes one of two values about 2 MiB
    // apart (an allocator arena touched or not, by thread timing): a fifth
    // of `sim_reads`' 12 MiB, in anything from one to four runs of ten.
    e2e("server_rss_mb", "MiB", Better::Lower, 0.25),
    e2e("sim_pulses_per_query", "pulses", Better::Lower, 0.05),
    e2e("sim_makespan_us_per_query", "sim_us", Better::Lower, 0.05),
];

/// Single-layer metrics, grouped by the crate they measure. Sources: **T**
/// `layerprobe`'s in-process spans, **P** `PROFILE`/`HOST` frames, **M**
/// `STATS`/`METRICS` deltas over the untraced window. A metric that does not
/// apply to a workload reads 0 there.
pub const PER_LAYER: [Metric; 62] = [
    // server
    layer("server.queue_wait_us", "us", Lower),
    layer("server.lock_wait_us_p50", "us", Lower),
    layer("server.lock_wait_us_p95", "us", Lower),
    layer("server.host_us", "us", Lower),
    layer("server.protocol_parse_us", "us", Lower),
    layer("server.render_us", "us", Lower),
    layer("server.admission_us", "us", Lower),
    layer("server.unattributed_us", "us", Lower),
    layer("server.mean_batch", "count", Higher),
    layer("server.batches", "count", Higher),
    layer("server.cse_hits", "count", Higher),
    layer("server.fused_steps_per_batch", "count", Higher),
    layer("server.plan_cache_hit_ratio", "ratio", Higher),
    layer("server.sharded_share", "ratio", Higher),
    layer("server.fallback_share", "ratio", Lower),
    layer("server.router_us", "us", Lower),
    layer("server.refused", "count", Lower),
    layer("server.timeouts", "count", Lower),
    layer("server.query_p50_ms", "ms", Lower),
    layer("server.query_p95_ms", "ms", Lower),
    layer("server.query_p99_ms", "ms", Lower),
    layer("server.throughput_ops_s", "1/s", Higher),
    layer("server.cpu_ms_per_op", "ms", Lower),
    // planner
    layer("planner.optimize_us", "us", Lower),
    layer("planner.fingerprint_us_10", "us", Lower),
    layer("planner.fingerprint_us_1000", "us", Lower),
    layer("planner.fingerprint_us_3000", "us", Lower),
    layer("planner.rewrites_per_query", "count", Higher),
    // analyzer
    layer("analyzer.analyze_us", "us", Lower),
    layer("analyzer.budget_over_actual", "ratio", Lower),
    // machine
    layer("machine.parse_us", "us", Lower),
    layer("machine.run_us", "us", Lower),
    layer("machine.self_us", "us", Lower),
    layer("machine.array_runs_per_query", "count", Lower),
    layer("machine.price_plan_us", "us", Lower),
    // core
    layer("core.intersect_us", "us", Lower),
    layer("core.union_us", "us", Lower),
    layer("core.difference_us", "us", Lower),
    layer("core.dedup_us", "us", Lower),
    layer("core.join_us", "us", Lower),
    layer("core.select_us", "us", Lower),
    layer("core.divide_us", "us", Lower),
    // fabric
    layer("fabric.cell_pulses_per_host_s", "1/s", Higher),
    layer("fabric.utilisation", "ratio", Higher),
    // relation
    layer("relation.import_mb_s", "MB/s", Higher),
    layer("relation.export_mb_s", "MB/s", Higher),
    layer("relation.columnar_builds", "count", Lower),
    // storage
    layer("storage.log_append_us", "us", Lower),
    layer("storage.fsync_us", "us", Lower),
    layer("storage.fsyncs_per_ack", "ratio", Lower),
    layer("storage.wal_bytes_per_user_byte", "ratio", Lower),
    layer("storage.recover_us_per_record", "us", Lower),
    layer("storage.pool_hit_ratio", "ratio", Higher),
    layer("storage.lock_acquire_us", "us", Lower),
    // telemetry and the benchmark itself
    layer("telemetry.metrics_scrape_us", "us", Lower),
    layer("bench.trace_overhead_share", "ratio", Lower),
    layer("bench.failed_ops_share", "ratio", Lower),
    layer("bench.host_spin_us", "us", Lower),
    // durable_mix only
    layer("durable.load_p50_ms", "ms", Lower),
    layer("durable.load_p95_ms", "ms", Lower),
    layer("durable.stored_bytes_per_user_byte", "ratio", Lower),
    layer("durable.recovery_ms_per_krecord", "ms", Lower),
];

/// Why each workload exists, one line each (the README has the long form).
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::PointReads => {
            "one small query at a time: machine work is microseconds, so latency is the \
             front end (admission window, scheduler hop, plan cache, render)"
        }
        Workload::BatchReads => {
            "pipelined rounds of 7 on the poll front end: merged admission, fused scans \
             and batch CSE do the work; a window change that breaks batching shows here"
        }
        Workload::ScanReads => {
            "seven operator queries over 2048-row relations, columnar backend: machine, \
             core kernels and CSV render dominate; the admission window does not"
        }
        Workload::SimReads => {
            "the same seven operators on the pulse simulator (96 rows): the paper \
             reproduction itself; fabric pulse loops dominate and every fast path must \
             match its frames"
        }
        Workload::ShardedReads => {
            "two shards behind the router: 8 routable and 4 declined queries exercise \
             fan-out, text merge, re-pricing and the full-copy fallback"
        }
        Workload::DurableMix => {
            "80% reads, 20% fsynced writes on a data dir with a growing catalog: WAL, \
             locks, plan-cache invalidation; ends in SIGKILL, restart and re-query of \
             every acked write"
        }
    }
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|&w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                why(w)
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"workloads\": [\n{}\n  ],\n",
        workloads.join(",\n")
    ));
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.word(),
                m.bound
            )
        })
        .collect();
    out.push_str(&format!("  \"end_to_end\": [\n{}\n  ],\n", e2e.join(",\n")));
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.word()
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"per_layer\": [\n{}\n  ]\n}}\n",
        layers.join(",\n")
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn the_catalogue_meets_the_contract_limits() {
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let unique: std::collections::HashSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128);
        for w in Workload::ALL {
            assert!(
                why(w).len() <= 200 && !why(w).contains('\n'),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate BENCHMARK.json from spec.rs"
        );
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert_eq!(Better::Lower.worsening(10.0, 11.0), 0.1);
        assert_eq!(Better::Lower.worsening(10.0, 9.0), -0.1);
        assert_eq!(Better::Higher.worsening(10.0, 9.0), 0.1);
    }
}
