//! Counters, gauges and fixed-bucket histograms, collected in a [`Registry`]
//! that renders Prometheus text exposition.
//!
//! Instruments are `Arc`-shared and updated with relaxed atomics, so the hot
//! path never takes a lock or allocates. A process-wide kill switch
//! ([`set_metrics_enabled`]) turns every update into a single relaxed load —
//! used by the no-op overhead bench.
//!
//! Registries are cheap; the process keeps one [`global`] registry for
//! substrate-level series (grid pulses, machine runs) while a server
//! instance owns a private registry for its request-level series, so two
//! servers in one process don't mix request metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

static METRICS_ENABLED: AtomicBool = AtomicBool::new(true);

/// Process-wide kill switch for metric updates (spans have their own switch:
/// they are off unless a collector is installed).
pub fn set_metrics_enabled(on: bool) {
    METRICS_ENABLED.store(on, Ordering::Release);
}

/// True when metric updates are being applied.
#[inline]
pub fn metrics_enabled() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed)
}

/// Monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if metrics_enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-value (or high-water-mark) gauge holding an `f64`.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, v: f64) {
        if metrics_enabled() {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Raise the gauge to `v` if `v` exceeds the current value (high-water
    /// mark semantics).
    pub fn set_max(&self, v: f64) {
        if !metrics_enabled() {
            return;
        }
        let mut cur = self.bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Fixed upper bounds (ns) for request/run latency histograms: 10µs … 10s.
pub const LATENCY_BOUNDS_NS: &[u64] = &[
    10_000,
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
    25_000_000,
    50_000_000,
    100_000_000,
    250_000_000,
    500_000_000,
    1_000_000_000,
    2_500_000_000,
    5_000_000_000,
    10_000_000_000,
];

/// Fixed-bucket histogram over `u64` observations.
#[derive(Debug)]
pub struct Histogram {
    /// Inclusive upper bounds, strictly increasing; an implicit `+Inf`
    /// bucket follows the last bound.
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    pub fn observe(&self, v: u64) {
        if !metrics_enabled() {
            return;
        }
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Upper bound of the bucket containing the `q`-quantile (the largest
    /// observed value for the `+Inf` bucket). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= target {
                return match self.bounds.get(i) {
                    Some(&bound) => bound.min(self.max()),
                    None => self.max(),
                };
            }
        }
        self.max()
    }

    fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// The p50/p95/p99 latency summary rendered by `STATS` and by query profiles —
/// one shared reading of a [`Histogram`] so both surfaces agree on the digits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuantileSummary {
    /// Median (bucket upper bound, capped at the observed max).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Number of observations the quantiles summarise.
    pub count: u64,
}

impl QuantileSummary {
    /// Read p50/p95/p99 and the observation count out of `h` in one pass of
    /// calls. All zeros when the histogram is empty.
    pub fn from_histogram(h: &Histogram) -> Self {
        QuantileSummary {
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
            count: h.count(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Default)]
struct Inner {
    /// metric name -> (kind, help)
    meta: BTreeMap<String, (Kind, &'static str)>,
    /// (metric name, rendered label pairs) -> instrument
    series: BTreeMap<(String, String), Instrument>,
}

/// A named collection of instruments, rendered as Prometheus text exposition.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort_unstable();
    let mut out = String::from("{");
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let escaped = v
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n");
        let _ = write!(out, "{k}=\"{escaped}\"");
    }
    out.push('}');
    out
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
        kind: Kind,
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let mut inner = self.inner.lock().unwrap();
        if let Some((existing, _)) = inner.meta.get(name) {
            assert_eq!(
                *existing,
                kind,
                "metric {name} already registered as {}",
                existing.as_str()
            );
        } else {
            inner.meta.insert(name.to_string(), (kind, help));
        }
        let key = (name.to_string(), render_labels(labels));
        inner.series.entry(key).or_insert_with(make).clone()
    }

    pub fn counter(&self, name: &str, help: &'static str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    pub fn counter_with(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Counter> {
        match self.get_or_insert(name, help, labels, Kind::Counter, || {
            Instrument::Counter(Arc::new(Counter::new()))
        }) {
            Instrument::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    pub fn gauge(&self, name: &str, help: &'static str) -> Arc<Gauge> {
        match self.get_or_insert(name, help, &[], Kind::Gauge, || {
            Instrument::Gauge(Arc::new(Gauge::new()))
        }) {
            Instrument::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    pub fn histogram(&self, name: &str, help: &'static str, bounds: &[u64]) -> Arc<Histogram> {
        match self.get_or_insert(name, help, &[], Kind::Histogram, || {
            Instrument::Histogram(Arc::new(Histogram::new(bounds)))
        }) {
            Instrument::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Render every registered series as Prometheus text exposition.
    pub fn render(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::new();
        for (name, (kind, help)) in &inner.meta {
            if !help.is_empty() {
                let _ = writeln!(out, "# HELP {name} {help}");
            }
            let _ = writeln!(out, "# TYPE {name} {}", kind.as_str());
            for ((series_name, labels), instrument) in &inner.series {
                if series_name != name {
                    continue;
                }
                match instrument {
                    Instrument::Counter(c) => {
                        let _ = writeln!(out, "{name}{labels} {}", c.get());
                    }
                    Instrument::Gauge(g) => {
                        let _ = writeln!(out, "{name}{labels} {}", g.get());
                    }
                    Instrument::Histogram(h) => {
                        debug_assert!(labels.is_empty(), "labeled histograms unsupported");
                        let counts = h.bucket_counts();
                        let mut cum = 0u64;
                        for (i, c) in counts.iter().enumerate() {
                            cum += c;
                            let le = match h.bounds.get(i) {
                                Some(b) => b.to_string(),
                                None => "+Inf".to_string(),
                            };
                            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
                        }
                        let _ = writeln!(out, "{name}_sum {}", h.sum());
                        // `observe` bumps a bucket and the count as two
                        // separate adds, so a scrape can land between them:
                        // the `+Inf` total just summed is the count this
                        // rendering's buckets agree with.
                        let _ = writeln!(out, "{name}_count {cum}");
                    }
                }
            }
        }
        out
    }
}

/// Serialises tests that update instruments against the test that flips the
/// process-global kill switch.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry for substrate-level series.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The kill switch is process-global, so tests that update instruments
    // must not interleave with the test that flips it.
    fn locked() -> std::sync::MutexGuard<'static, ()> {
        test_guard()
    }

    #[test]
    fn counter_and_gauge_round_trip() {
        let _l = locked();
        let r = Registry::new();
        let c = r.counter("runs_total", "Total runs.");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name returns the same instrument.
        assert_eq!(r.counter("runs_total", "Total runs.").get(), 5);

        let g = r.gauge("util", "Utilisation.");
        g.set(0.5);
        g.set_max(0.25);
        assert_eq!(g.get(), 0.5);
        g.set_max(0.75);
        assert_eq!(g.get(), 0.75);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x", "");
        r.gauge("x", "");
    }

    #[test]
    fn histogram_buckets_quantiles_and_max() {
        let _l = locked();
        let h = Histogram::new(&[10, 100, 1000]);
        for v in [1, 5, 10, 11, 90, 5000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 5117);
        assert_eq!(h.max(), 5000);
        // buckets: le=10 -> 3, le=100 -> 2, le=1000 -> 0, +Inf -> 1
        assert_eq!(h.bucket_counts(), vec![3, 2, 0, 1]);
        assert_eq!(h.quantile(0.5), 10);
        assert_eq!(h.quantile(0.75), 100);
        // Falls in the +Inf bucket: report the observed max.
        assert_eq!(h.quantile(1.0), 5000);
        assert_eq!(Histogram::new(&[10]).quantile(0.5), 0);
    }

    #[test]
    fn quantile_summary_matches_direct_reads() {
        let _l = locked();
        let h = Histogram::new(&[10, 100, 1000]);
        assert_eq!(
            QuantileSummary::from_histogram(&h),
            QuantileSummary::default()
        );
        for v in [1, 5, 10, 11, 90, 5000] {
            h.observe(v);
        }
        let s = QuantileSummary::from_histogram(&h);
        assert_eq!(s.p50, h.quantile(0.50));
        assert_eq!(s.p95, h.quantile(0.95));
        assert_eq!(s.p99, h.quantile(0.99));
        assert_eq!(s.count, 6);
    }

    #[test]
    fn labeled_counters_render_sorted_series() {
        let _l = locked();
        let r = Registry::new();
        r.counter_with("op_pulses_total", "Pulses per op.", &[("op", "join")])
            .add(7);
        r.counter_with("op_pulses_total", "Pulses per op.", &[("op", "intersect")])
            .add(3);
        let text = r.render();
        let int_pos = text.find("op=\"intersect\"").unwrap();
        let join_pos = text.find("op=\"join\"").unwrap();
        assert!(int_pos < join_pos, "series sorted by label value:\n{text}");
        assert!(text.contains("# TYPE op_pulses_total counter"));
        assert!(text.contains("op_pulses_total{op=\"intersect\"} 3"));
        assert!(text.contains("op_pulses_total{op=\"join\"} 7"));
        // TYPE line appears exactly once even with two series.
        assert_eq!(text.matches("# TYPE op_pulses_total").count(), 1);
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let _l = locked();
        let r = Registry::new();
        let h = r.histogram("lat_ns", "Latency.", &[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(500);
        let text = r.render();
        assert!(text.contains("# TYPE lat_ns histogram"));
        assert!(text.contains("lat_ns_bucket{le=\"10\"} 1"));
        assert!(text.contains("lat_ns_bucket{le=\"100\"} 2"));
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_ns_sum 555"));
        assert!(text.contains("lat_ns_count 3"));
    }

    #[test]
    fn kill_switch_stops_updates() {
        let _l = locked();
        let r = Registry::new();
        let c = r.counter("kc", "");
        let g = r.gauge("kg", "");
        let h = r.histogram("kh", "", &[10]);
        set_metrics_enabled(false);
        c.inc();
        g.set(5.0);
        g.set_max(9.0);
        h.observe(3);
        set_metrics_enabled(true);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.count(), 0);
        c.inc();
        assert_eq!(c.get(), 1);
    }
}
