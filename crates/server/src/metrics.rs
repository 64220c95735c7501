//! Per-server metric instruments and the `METRICS` exposition.
//!
//! Request-level series live in a registry owned by the server instance (so
//! two servers in one process — common in tests — don't mix request
//! metrics), while substrate series (grid, machine) accumulate in the
//! process-global registry. The `METRICS` wire verb renders both.

use std::sync::Arc;

use systolic_telemetry::metrics::{Counter, Gauge, Histogram, Registry, LATENCY_BOUNDS_NS};

/// Instruments for one server instance.
pub(crate) struct ServerMetrics {
    registry: Registry,
    /// End-to-end request latency (receive -> response written), host ns.
    pub(crate) latency: Arc<Histogram>,
    /// Connections waiting for a worker right now.
    pub(crate) queue_depth: Arc<Gauge>,
    /// High-water mark of the connection queue.
    pub(crate) queue_depth_hwm: Arc<Gauge>,
    /// Queries answered (including failed ones).
    pub(crate) queries: Arc<Counter>,
    /// Tables loaded.
    pub(crate) loads: Arc<Counter>,
    /// Connections refused with `ERR overloaded`.
    pub(crate) refused: Arc<Counter>,
    /// Requests that hit the per-request timeout.
    pub(crate) timeouts: Arc<Counter>,
    /// Queries slower than the configured slow-query threshold.
    pub(crate) slow_queries: Arc<Counter>,
    /// Queries whose compiled plan was served from the plan cache.
    pub(crate) plan_cache_hits: Arc<Counter>,
    /// Queries compiled on a plan-cache miss.
    pub(crate) plan_cache_misses: Arc<Counter>,
    /// Columnar word-plane packs performed process-wide, synced from the
    /// relation crate's counter at exposition time (ingest-time packs and
    /// lazy packs both count; a low number relative to loads means the
    /// zero-detour path is doing its job).
    pub(crate) columnar_builds: Arc<Gauge>,
    /// Requests waiting for their turn on the machine, synced from the
    /// turn queue at exposition time.
    waiting: Arc<Gauge>,
}

impl ServerMetrics {
    pub(crate) fn new() -> Self {
        let registry = Registry::new();
        let latency = registry.histogram(
            "sdb_request_latency_ns",
            "End-to-end request latency in host nanoseconds.",
            LATENCY_BOUNDS_NS,
        );
        let queue_depth = registry.gauge(
            "sdb_queue_depth",
            "Accepted connections currently waiting for a worker.",
        );
        let queue_depth_hwm = registry.gauge(
            "sdb_queue_depth_hwm",
            "High-water mark of the connection wait queue.",
        );
        let queries = registry.counter("sdb_server_queries_total", "Queries answered.");
        let loads = registry.counter("sdb_server_loads_total", "Tables loaded.");
        let refused = registry.counter(
            "sdb_server_refused_total",
            "Connections refused with ERR overloaded.",
        );
        let timeouts = registry.counter(
            "sdb_server_timeouts_total",
            "Requests that hit the per-request timeout.",
        );
        let slow_queries = registry.counter(
            "sdb_server_slow_queries_total",
            "Queries slower than the slow-query threshold.",
        );
        let plan_cache_hits = registry.counter(
            "sdb_plan_cache_hits_total",
            "Queries whose compiled plan came from the plan cache.",
        );
        let plan_cache_misses = registry.counter(
            "sdb_plan_cache_misses_total",
            "Queries compiled on a plan-cache miss.",
        );
        let columnar_builds = registry.gauge(
            "sdb_columnar_builds",
            "Columnar word-plane packs performed by this process (ingest-time and lazy).",
        );
        let waiting = registry.gauge(
            "sdb_machine_waiting",
            "Requests waiting for their turn on the machine.",
        );
        ServerMetrics {
            registry,
            latency,
            queue_depth,
            queue_depth_hwm,
            queries,
            loads,
            refused,
            timeouts,
            slow_queries,
            plan_cache_hits,
            plan_cache_misses,
            columnar_builds,
            waiting,
        }
    }

    /// The backend identity series, `sdb_server_backend_info{backend=...}`:
    /// set to 1 at startup so a scraper can tell whether this server runs
    /// the pulse simulator or the closed-form columnar scans. RESULT frames
    /// are bit-identical either way; only host speed differs.
    pub(crate) fn backend_info(&self, backend: &str) -> Arc<Counter> {
        self.registry.counter_with(
            "sdb_server_backend_info",
            "1 for the operator backend this server was started with.",
            &[("backend", backend)],
        )
    }

    /// The per-operator simulated-pulse counter (`op` is the §8 operator
    /// label: `intersect`, `join`, ...). Called only by the worker holding
    /// the machine, once per run.
    pub(crate) fn op_pulses(&self, op: &str) -> Arc<Counter> {
        self.registry.counter_with(
            "sdb_op_pulses_total",
            "Simulated array pulses per relational operator (§8).",
            &[("op", op)],
        )
    }

    /// The per-rule planner rewrite counter
    /// (`sdb_planner_rewrites_total{rule=...}`): how many sites each
    /// algebraic rewrite rule fired on across compiled queries.
    pub(crate) fn rewrite_hits(&self, rule: &str) -> Arc<Counter> {
        self.registry.counter_with(
            "sdb_planner_rewrites_total",
            "Accepted planner rewrite sites per rule.",
            &[("rule", rule)],
        )
    }

    /// Render this server's exposition followed by the process-global one.
    pub(crate) fn exposition(&self, waiting: usize) -> String {
        self.waiting.set(waiting as f64);
        // The relation crate cannot depend on the telemetry registry, so
        // its pack counter is bridged into the exposition here.
        self.columnar_builds
            .set(systolic_relation::columnar::build_count() as f64);
        let mut text = self.registry.render();
        text.push_str(&systolic_telemetry::metrics::global().render());
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_validates_and_contains_both_registries() {
        let m = ServerMetrics::new();
        m.queries.inc();
        m.latency.observe(1_000_000);
        m.op_pulses("intersect").add(42);
        // Make sure at least one global series exists.
        systolic_telemetry::metrics::global()
            .counter("sdb_machine_runs_total", "")
            .add(0);
        let text = m.exposition(2);
        let exp = systolic_telemetry::prom::validate(&text).expect("exposition parses");
        assert_eq!(exp.value("sdb_server_queries_total", ""), Some(1.0));
        assert_eq!(exp.value("sdb_machine_waiting", ""), Some(2.0));
        assert_eq!(
            exp.value("sdb_op_pulses_total", "{op=\"intersect\"}"),
            Some(42.0)
        );
        assert!(exp.types.contains_key("sdb_request_latency_ns"));
        assert!(exp.types.contains_key("sdb_machine_runs_total"));
    }

    #[test]
    fn two_servers_keep_request_metrics_apart() {
        let a = ServerMetrics::new();
        let b = ServerMetrics::new();
        a.queries.add(5);
        assert_eq!(b.queries.get(), 0);
    }
}
