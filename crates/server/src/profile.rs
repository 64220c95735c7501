//! End-to-end query profiles and the flight recorder.
//!
//! A profile lines up the three layers that each claim the same numbers:
//! the analyzer's §8 predictions (tile counts, pulse budgets, row bounds),
//! the machine's actual accounting (pulses, device occupancy, makespan on
//! the simulated clock), and the server's host-side costs (queue wait,
//! lock wait, WAL fsync, buffer-pool traffic). Predicted-vs-actual drift
//! is a first-class field so a budget regression is one comparison away.
//!
//! The two clocks never mix: `steps[].start_ns`/`end_ns` and everything
//! under `actual` are simulated pulse-clock quantities; everything under
//! `host` is wall time. The flight recorder retains the last N profiles in
//! a ring so post-hoc diagnosis (`PROFILES`, the slow-query log, the
//! shutdown Chrome trace) needs no reproduction.

use std::collections::VecDeque;
use std::sync::Mutex;

use systolic_analyzer::Analysis;
use systolic_machine::{Action, Plan};
use systolic_telemetry::chrome::{ArgValue, ChromeTrace, PID_HOST, PID_SIMULATED};
use systolic_telemetry::json;
use systolic_telemetry::metrics::QuantileSummary;
use systolic_telemetry::SpanRecord;

use crate::locks;
use crate::scheduler::QueryReply;

/// One plan step's predicted-vs-actual row in a [`QueryProfile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StepProfile {
    /// Step index (position in the compiled plan).
    pub id: usize,
    /// Operator label (`scan(emp)`, `join[1]`, ...).
    pub label: String,
    /// Name the step's result is staged under.
    pub output: String,
    /// Analyzer row bound for this step's output (0 when unaligned).
    pub predicted_rows: u64,
    /// Analyzer §8 tile count (0 for loads/stores).
    pub predicted_tiles: u64,
    /// Analyzer pulse budget (upper estimate; 0 for loads/stores).
    pub predicted_pulses: u64,
    /// Rows the step actually produced.
    pub actual_rows: u64,
    /// Pulses the step actually consumed.
    pub actual_pulses: u64,
    /// Resource that ran the step (`setop0`, `join1`, `mem2`, `disk0`).
    pub device: String,
    /// Step start on the simulated clock, in nanoseconds.
    pub start_ns: u64,
    /// Step end on the simulated clock, in nanoseconds.
    pub end_ns: u64,
}

/// A complete end-to-end query profile (one `PROFILE` frame's payload, one
/// flight-recorder slot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct QueryProfile {
    /// The query text.
    pub query: String,
    /// Trace id of the serving request span (0 when tracing is off).
    pub trace_id: u64,
    /// Executing backend label (`sim` or `columnar`).
    pub backend: String,
    /// The `ERR` frame, for queries that failed instead of producing
    /// numbers — error profiles still land in the flight recorder.
    pub error: Option<String>,
    /// Analyzer total pulse budget (sound upper bound on `actual_pulses`).
    pub predicted_pulse_budget: u64,
    /// Analyzer total §8 tile count.
    pub predicted_tiles: u64,
    /// Analyzer staged-bytes bound.
    pub predicted_staged_bytes_bound: u64,
    /// Analyzer row bound for the result.
    pub predicted_rows_bound: u64,
    /// Pulses actually consumed (equals the `RESULT` frame's `pulses=`).
    pub actual_pulses: u64,
    /// Physical array invocations.
    pub actual_array_runs: u64,
    /// Simulated makespan in nanoseconds.
    pub actual_makespan_ns: u64,
    /// Bytes delivered by the simulated disks.
    pub actual_disk_bytes: u64,
    /// Maximum simultaneous devices.
    pub actual_concurrency: u64,
    /// Result rows actually produced.
    pub actual_rows: u64,
    /// `predicted_pulse_budget - actual_pulses`; negative means the
    /// analyzer's bound was unsound — the one number a budget regression
    /// cannot hide behind.
    pub drift_pulses: i64,
    /// Host ns the request waited for its turn on the machine.
    pub queue_wait_ns: u64,
    /// Host ns spent acquiring relation locks.
    pub lock_wait_ns: u64,
    /// Host ns spent write-ahead-logging (0 when read-only or in-memory).
    pub wal_fsync_ns: u64,
    /// Buffer-pool hits over the run (process-wide, best effort).
    pub pool_hits: u64,
    /// Buffer-pool misses over the same interval.
    pub pool_misses: u64,
    /// Host wall ns for the run that produced the answer.
    pub host_wall_ns: u64,
    /// Server-wide request-latency quantiles at profile time.
    pub latency: QuantileSummary,
    /// Per-plan-step predicted-vs-actual rows.
    pub steps: Vec<StepProfile>,
}

impl QueryProfile {
    /// A profile for a query that failed: the error frame plus identity
    /// fields, all numbers zero.
    pub fn error(query: &str, trace_id: u64, backend: &str, err_frame: &str) -> QueryProfile {
        QueryProfile {
            query: query.to_string(),
            trace_id,
            backend: backend.to_string(),
            error: Some(err_frame.to_string()),
            predicted_pulse_budget: 0,
            predicted_tiles: 0,
            predicted_staged_bytes_bound: 0,
            predicted_rows_bound: 0,
            actual_pulses: 0,
            actual_array_runs: 0,
            actual_makespan_ns: 0,
            actual_disk_bytes: 0,
            actual_concurrency: 0,
            actual_rows: 0,
            drift_pulses: 0,
            queue_wait_ns: 0,
            lock_wait_ns: 0,
            wal_fsync_ns: 0,
            pool_hits: 0,
            pool_misses: 0,
            host_wall_ns: 0,
            latency: QuantileSummary::default(),
            steps: Vec::new(),
        }
    }

    /// Single-line JSON rendering (the `PROFILE` frame payload before
    /// escaping; also one `PROFILES` dump line).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"query\":");
        json::write_str(&mut out, &self.query);
        let _ = write!(out, ",\"trace_id\":{},\"backend\":", self.trace_id);
        json::write_str(&mut out, &self.backend);
        if let Some(err) = &self.error {
            out.push_str(",\"error\":");
            json::write_str(&mut out, err);
        }
        let _ = write!(
            out,
            ",\"predicted\":{{\"pulse_budget\":{},\"tiles\":{},\"staged_bytes_bound\":{},\
             \"rows_bound\":{}}}",
            self.predicted_pulse_budget,
            self.predicted_tiles,
            self.predicted_staged_bytes_bound,
            self.predicted_rows_bound,
        );
        let _ = write!(
            out,
            ",\"actual\":{{\"pulses\":{},\"array_runs\":{},\"makespan_ns\":{},\"disk_bytes\":{},\
             \"concurrency\":{},\"rows\":{}}}",
            self.actual_pulses,
            self.actual_array_runs,
            self.actual_makespan_ns,
            self.actual_disk_bytes,
            self.actual_concurrency,
            self.actual_rows,
        );
        let _ = write!(out, ",\"drift_pulses\":{}", self.drift_pulses);
        let _ = write!(
            out,
            ",\"host\":{{\"queue_wait_ns\":{},\"lock_wait_ns\":{},\"wal_fsync_ns\":{},\
             \"pool_hits\":{},\"pool_misses\":{},\"host_wall_ns\":{}}}",
            self.queue_wait_ns,
            self.lock_wait_ns,
            self.wal_fsync_ns,
            self.pool_hits,
            self.pool_misses,
            self.host_wall_ns,
        );
        let _ = write!(
            out,
            ",\"latency\":{{\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"count\":{}}}",
            self.latency.p50, self.latency.p95, self.latency.p99, self.latency.count,
        );
        out.push_str(",\"steps\":[");
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"id\":{},\"label\":", s.id);
            json::write_str(&mut out, &s.label);
            out.push_str(",\"output\":");
            json::write_str(&mut out, &s.output);
            out.push_str(",\"device\":");
            json::write_str(&mut out, &s.device);
            let _ = write!(
                out,
                ",\"predicted_rows\":{},\"predicted_tiles\":{},\"predicted_pulses\":{},\
                 \"actual_rows\":{},\"actual_pulses\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.predicted_rows,
                s.predicted_tiles,
                s.predicted_pulses,
                s.actual_rows,
                s.actual_pulses,
                s.start_ns,
                s.end_ns,
            );
        }
        out.push_str("]}");
        out
    }
}

/// Build a successful query's profile by aligning three views of the same
/// run: the analyzer report (`analysis.nodes[alignment[step.id]]`), the
/// compiled plan (labels, outputs), and the machine's reply (stats, the
/// solo-accounted timeline, host waits).
#[allow(clippy::too_many_arguments)]
pub(crate) fn build(
    query: &str,
    trace_id: u64,
    backend: &str,
    analysis: Option<&Analysis>,
    alignment: &[usize],
    plan: &Plan,
    reply: &QueryReply,
    rows: u64,
    lock_wait_ns: u64,
    latency: QuantileSummary,
) -> QueryProfile {
    let events = reply.timeline.events();
    let steps = plan
        .steps
        .iter()
        .map(|step| {
            let node = analysis.and_then(|a| alignment.get(step.id).and_then(|&n| a.nodes.get(n)));
            // Each step has a unique timeline signature: ops are the pulsed
            // `"<op> -> <output>"` event on their device, loads the
            // `"receive <output>"` staging event, stores the
            // `"write <name>"` disk event.
            let (label, wanted) = match &step.action {
                Action::Load { relation, .. } => (
                    format!("scan({relation})"),
                    format!("receive {}", step.output),
                ),
                Action::Op { op, .. } => (op.label(), format!(" -> {}", step.output)),
                Action::Store { as_name, .. } => {
                    (format!("store({as_name})"), format!("write {as_name}"))
                }
            };
            let event = events.iter().find(|e| match &step.action {
                Action::Op { .. } => e.label.ends_with(&wanted),
                _ => e.label == wanted,
            });
            StepProfile {
                id: step.id,
                label,
                output: step.output.clone(),
                predicted_rows: node.map_or(0, |n| n.rows_bound),
                predicted_tiles: node.map_or(0, |n| n.tiles),
                predicted_pulses: node.map_or(0, |n| n.pulse_budget),
                actual_rows: reply.step_rows.get(step.id).copied().unwrap_or(0),
                actual_pulses: event.map_or(0, |e| e.pulses),
                device: event.map_or_else(String::new, |e| e.resource.clone()),
                start_ns: event.map_or(0, |e| e.start_ns),
                end_ns: event.map_or(0, |e| e.end_ns),
            }
        })
        .collect();
    let predicted_pulse_budget = analysis.map_or(0, |a| a.pulse_budget);
    QueryProfile {
        query: query.to_string(),
        trace_id,
        backend: backend.to_string(),
        error: None,
        predicted_pulse_budget,
        predicted_tiles: analysis.map_or(0, |a| a.tiles),
        predicted_staged_bytes_bound: analysis.map_or(0, |a| a.staged_bytes_bound),
        predicted_rows_bound: analysis.map_or(0, |a| a.nodes.first().map_or(0, |n| n.rows_bound)),
        actual_pulses: reply.stats.total_pulses,
        actual_array_runs: reply.stats.array_runs,
        actual_makespan_ns: reply.stats.makespan_ns,
        actual_disk_bytes: reply.stats.bytes_from_disk,
        actual_concurrency: reply.stats.max_device_concurrency as u64,
        actual_rows: rows,
        drift_pulses: predicted_pulse_budget as i64 - reply.stats.total_pulses as i64,
        queue_wait_ns: reply.queue_wait_ns,
        lock_wait_ns,
        wal_fsync_ns: reply.wal_fsync_ns,
        pool_hits: reply.pool_hits,
        pool_misses: reply.pool_misses,
        host_wall_ns: reply.host_wall_ns,
        latency,
        steps,
    }
}

/// The always-on ring buffer of recent query profiles.
#[derive(Debug)]
pub(crate) struct FlightRecorder {
    capacity: usize,
    ring: Mutex<VecDeque<QueryProfile>>,
}

impl FlightRecorder {
    /// A recorder retaining up to `capacity` profiles (0 disables it).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(64))),
        }
    }

    /// Retain a profile, evicting the oldest beyond capacity.
    pub fn record(&self, profile: QueryProfile) {
        if self.capacity == 0 {
            return;
        }
        let mut ring = locks::lock(&self.ring);
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(profile);
    }

    /// JSON lines of every retained profile, newest first (the `PROFILES`
    /// dump order: the query under investigation is almost always recent).
    pub fn dump_json(&self) -> Vec<String> {
        locks::lock(&self.ring)
            .iter()
            .rev()
            .map(QueryProfile::to_json)
            .collect()
    }

    /// Copies of the retained profiles, oldest first.
    pub fn profiles(&self) -> Vec<QueryProfile> {
        locks::lock(&self.ring).iter().cloned().collect()
    }
}

/// Build the server's shutdown Chrome trace on the two-clock pid
/// convention: pid 1 carries the retained profiles' per-step simulated
/// schedule, pid 2 carries every host span the collector recorded.
pub(crate) fn server_trace(spans: &[SpanRecord], profiles: &[QueryProfile]) -> ChromeTrace {
    let mut trace = ChromeTrace::new();
    trace.set_process_name(PID_SIMULATED, "simulated machine (pulse time)");
    trace.set_process_name(PID_HOST, "server host (wall time)");
    let mut devices: Vec<&str> = profiles
        .iter()
        .flat_map(|p| p.steps.iter().map(|s| s.device.as_str()))
        .filter(|d| !d.is_empty())
        .collect();
    devices.sort_unstable();
    devices.dedup();
    for (tid, device) in devices.iter().enumerate() {
        trace.set_thread_name(PID_SIMULATED, tid as u32 + 1, device);
    }
    for p in profiles {
        for s in &p.steps {
            let Some(tid) = devices.iter().position(|d| *d == s.device) else {
                continue;
            };
            trace.complete(
                PID_SIMULATED,
                tid as u32 + 1,
                &format!("{} -> {}", s.label, s.output),
                s.start_ns,
                s.end_ns.saturating_sub(s.start_ns),
                vec![
                    ("trace_id".to_string(), ArgValue::U64(p.trace_id)),
                    ("pulses".to_string(), ArgValue::U64(s.actual_pulses)),
                ],
            );
        }
    }
    let mut threads: Vec<&str> = spans.iter().map(|s| s.thread.as_str()).collect();
    threads.sort_unstable();
    threads.dedup();
    for (tid, thread) in threads.iter().enumerate() {
        trace.set_thread_name(PID_HOST, tid as u32 + 1, thread);
    }
    for span in spans {
        let tid = threads.iter().position(|t| *t == span.thread).unwrap_or(0) as u32 + 1;
        let mut args = vec![
            ("trace_id".to_string(), ArgValue::U64(span.trace_id)),
            ("span_id".to_string(), ArgValue::U64(span.span_id)),
        ];
        if let Some(parent) = span.parent_id {
            args.push(("parent_id".to_string(), ArgValue::U64(parent)));
        }
        for (k, v) in &span.args {
            args.push((k.to_string(), ArgValue::Str(v.clone())));
        }
        trace.complete(
            PID_HOST,
            tid,
            span.name,
            span.start_ns,
            span.end_ns.saturating_sub(span.start_ns),
            args,
        );
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_telemetry::json::Json;

    fn sample_profile() -> QueryProfile {
        QueryProfile {
            query: "scan(emp)".to_string(),
            trace_id: 9,
            backend: "sim".to_string(),
            error: None,
            predicted_pulse_budget: 120,
            predicted_tiles: 4,
            predicted_staged_bytes_bound: 4096,
            predicted_rows_bound: 100,
            actual_pulses: 96,
            actual_array_runs: 2,
            actual_makespan_ns: 5000,
            actual_disk_bytes: 800,
            actual_concurrency: 1,
            actual_rows: 90,
            drift_pulses: 24,
            queue_wait_ns: 10,
            lock_wait_ns: 20,
            wal_fsync_ns: 0,
            pool_hits: 3,
            pool_misses: 1,
            host_wall_ns: 7000,
            latency: QuantileSummary {
                p50: 1,
                p95: 2,
                p99: 3,
                count: 4,
            },
            steps: vec![StepProfile {
                id: 0,
                label: "scan(emp)".to_string(),
                output: "emp@mem".to_string(),
                predicted_rows: 100,
                predicted_tiles: 4,
                predicted_pulses: 120,
                actual_rows: 90,
                actual_pulses: 96,
                device: "mem0".to_string(),
                start_ns: 0,
                end_ns: 900,
            }],
        }
    }

    #[test]
    fn profile_json_is_one_parseable_line() {
        let p = sample_profile();
        let text = p.to_json();
        assert!(!text.contains('\n'));
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.get("query").and_then(Json::as_str), Some("scan(emp)"));
        assert_eq!(doc.get("trace_id").and_then(Json::as_u64), Some(9));
        assert_eq!(doc.get("error"), None);
        let predicted = doc.get("predicted").unwrap();
        assert_eq!(
            predicted.get("pulse_budget").and_then(Json::as_u64),
            Some(120)
        );
        let actual = doc.get("actual").unwrap();
        assert_eq!(actual.get("pulses").and_then(Json::as_u64), Some(96));
        assert_eq!(doc.get("drift_pulses").and_then(Json::as_f64), Some(24.0));
        let host = doc.get("host").unwrap();
        assert_eq!(host.get("lock_wait_ns").and_then(Json::as_u64), Some(20));
        let steps = doc.get("steps").and_then(Json::as_array).unwrap();
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].get("device").and_then(Json::as_str), Some("mem0"));
    }

    #[test]
    fn error_profiles_carry_the_frame() {
        let p = QueryProfile::error("scan(ghost)", 3, "sim", "ERR machine boom");
        let doc = json::parse(&p.to_json()).unwrap();
        assert_eq!(
            doc.get("error").and_then(Json::as_str),
            Some("ERR machine boom")
        );
        assert_eq!(doc.get("trace_id").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn recorder_evicts_oldest_and_dumps_newest_first() {
        let recorder = FlightRecorder::new(2);
        for i in 0..3 {
            let mut p = sample_profile();
            p.query = format!("q{i}");
            recorder.record(p);
        }
        let dump = recorder.dump_json();
        assert_eq!(dump.len(), 2);
        assert!(dump[0].contains("\"q2\""), "{}", dump[0]);
        assert!(dump[1].contains("\"q1\""), "{}", dump[1]);
        let zero = FlightRecorder::new(0);
        zero.record(sample_profile());
        assert!(zero.dump_json().is_empty());
    }

    #[test]
    fn server_traces_put_host_spans_and_device_steps_on_two_pids() {
        let span = SpanRecord {
            name: "server.request",
            trace_id: 9,
            span_id: 1,
            parent_id: None,
            start_ns: 0,
            end_ns: 100,
            thread: "worker-0".to_string(),
            args: vec![("query", "scan(emp)".to_string())],
        };
        let trace = server_trace(&[span], &[sample_profile()]);
        let doc = json::parse(&trace.to_json()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let completes: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        // One host span + one simulated step.
        assert_eq!(completes.len(), 2);
        let pids: Vec<u64> = completes
            .iter()
            .filter_map(|e| e.get("pid").and_then(Json::as_u64))
            .collect();
        assert!(pids.contains(&(PID_SIMULATED as u64)));
        assert!(pids.contains(&(PID_HOST as u64)));
    }
}
