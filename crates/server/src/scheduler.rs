//! The admission scheduler: the single thread that owns the machine.
//!
//! Workers hand it jobs over a channel; it gathers what is *present* —
//! whatever queued while the machine was busy, plus every request already
//! read off a socket and still on its way (the [`Arrivals`] count) — and
//! admits the set as *one* merged dependency-level schedule via
//! [`System::run_batch_accounted`] — this is where the paper's "set of
//! transactions" concurrency actually happens: queries from different TCP
//! connections share crossbar ports and devices inside one simulated
//! makespan. Batching comes from backpressure, never from a timer: with
//! the queue empty and nothing counted the batch is admitted at once, and
//! the batch window only bounds how long a counted request may be waited
//! for.
//!
//! Each query's reply still carries its *standalone* accounting (stats and
//! timeline priced as if it ran alone), which `run_batch_accounted`
//! guarantees is bit-identical to a fresh solo run — so batching changes
//! throughput, never answers.
//!
//! Telemetry: the gather phase runs under a `server.batch_window` span and
//! each merged admission under a `server.batch` span (the machine's own
//! spans nest beneath it). Per request, a `server.batch_run` span parented
//! to *that request's* trace carries the shared batch span id — so two
//! merged requests keep distinct trace ids while both point at the one
//! batch that served them.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use systolic_machine::{Expr, MachineError, Plan, RunStats, System, Timeline};
use systolic_relation::{DomainKind, MultiRelation};
use systolic_storage::StorageEngine;
use systolic_telemetry::{root_span, span_in, TraceCtx};

use crate::engine::{kind_name, store_names};
use crate::metrics::ServerMetrics;
use crate::server::{Counters, DurableStats, Shared};

/// A query waiting in a merged batch: its expression and source text, the
/// submitting request's trace, its timeout fence, the reply channel, and the
/// host-side waits measured on its way through the scheduler.
struct PendingQuery {
    expr: Expr,
    text: String,
    trace: Option<TraceCtx>,
    fence: Arc<AtomicBool>,
    reply: SyncSender<QueryAnswer>,
    /// When the submitting worker handed the job to the scheduler.
    submitted: Instant,
    /// Host ns from submission to admission (queue + gather window).
    queue_wait_ns: u64,
    /// Host ns spent write-ahead-logging this query (0 when read-only or
    /// not durable).
    wal_fsync_ns: u64,
}

/// The scheduler's durable half: the storage engine (WAL + paged store)
/// plus the gauges `STATS` reads. Owned by the scheduler thread, so every
/// log append happens in admission order — the order recovery replays.
pub(crate) struct Durable {
    pub(crate) engine: StorageEngine,
    pub(crate) stats: Arc<DurableStats>,
}

impl Durable {
    fn refresh(&self) {
        self.stats
            .wal_bytes
            .store(self.engine.wal_bytes(), Ordering::SeqCst);
        self.stats
            .wal_records
            .store(self.engine.wal_records() as u64, Ordering::SeqCst);
    }

    /// Write-ahead a load. A failed append degrades durability, not
    /// service: the load still lands and the client is still answered.
    fn log_load(&mut self, name: &str, kinds: &[DomainKind], csv: &str) {
        let kinds: Vec<String> = kinds.iter().map(|&k| kind_name(k).to_string()).collect();
        if let Err(e) = self.engine.log_load(name, &kinds, csv) {
            eprintln!("wal: failed to log load {name:?}: {e}");
        }
        self.refresh();
    }

    /// Write-ahead a query, but only when it has `store(...)` side effects —
    /// read-only queries change no durable state and replay would only
    /// slow recovery down.
    fn log_query(&mut self, expr: &Expr, text: &str) {
        if store_names(expr).is_empty() {
            return;
        }
        if let Err(e) = self.engine.log_query(text) {
            eprintln!("wal: failed to log query {text:?}: {e}");
        }
        self.refresh();
    }

    /// Snapshot the history and reset the log; returns (records, snapshot
    /// bytes).
    fn checkpoint(&mut self) -> Result<(u64, u64), String> {
        let report = self.engine.checkpoint().map_err(|e| e.to_string())?;
        self.stats.checkpoints.fetch_add(1, Ordering::SeqCst);
        self.refresh();
        Ok((report.records as u64, report.bytes))
    }
}

/// Claim a job's timeout fence. Exactly one side wins the swap: if the
/// scheduler wins, the job runs (and its side effects land) and the reply
/// is delivered, so a worker that times out after losing the swap must keep
/// waiting for the real answer. If the worker wins (it timed out first),
/// the scheduler sees `true` here and must skip the job entirely — no run,
/// no `store(...)` write-back, no catalog change the client was never told
/// about.
fn claim(fence: &AtomicBool) -> bool {
    !fence.swap(true, Ordering::SeqCst)
}

/// How a worker's wait on a fenced job ended.
pub(crate) enum Fenced<T> {
    /// The scheduler ran the job and this is its answer.
    Answered(T),
    /// The worker timed out first and took the fence: the scheduler will
    /// skip the job whole, so `ERR timeout` is the truth. Already counted.
    TimedOut,
    /// The scheduler hung up — `mid_run` when it had claimed the job first
    /// (its side effects may have landed), otherwise before touching it.
    Gone { mid_run: bool },
}

/// The worker's half of the fence race: submit the job `build` makes around
/// a fresh fence and capacity-1 reply channel (the send never blocks, even
/// to a worker that gave up), and wait out the request timeout for its
/// answer. On expiry the worker tries to [`claim`] the fence itself; losing
/// means the job is running and its side effects will land, so it blocks
/// for the real answer rather than tell the client a lie.
pub(crate) fn submit_fenced<T>(
    shared: &Shared,
    tx: &Sender<Job>,
    build: impl FnOnce(Arc<AtomicBool>, SyncSender<T>) -> Job,
) -> Fenced<T> {
    let fence = Arc::new(AtomicBool::new(false));
    let (reply_tx, reply_rx) = sync_channel(1);
    if tx.send(build(Arc::clone(&fence), reply_tx)).is_err() {
        return Fenced::Gone { mid_run: false };
    }
    match reply_rx.recv_timeout(shared.cfg.request_timeout) {
        Ok(answer) => Fenced::Answered(answer),
        Err(RecvTimeoutError::Disconnected) => Fenced::Gone { mid_run: false },
        Err(RecvTimeoutError::Timeout) if claim(&fence) => {
            shared.count_timeout();
            Fenced::TimedOut
        }
        Err(RecvTimeoutError::Timeout) => match reply_rx.recv() {
            Ok(answer) => Fenced::Answered(answer),
            Err(_) => Fenced::Gone { mid_run: true },
        },
    }
}

/// Requests that have been read off a socket but have not reached the
/// scheduler yet. The gather loop admits the moment its queue is empty and
/// this reads zero; every counted request gives its count back exactly once
/// — see [`Arrival`] (worker side) and [`Counted`] (travelling in a job).
#[derive(Debug, Default)]
pub(crate) struct Arrivals(AtomicUsize);

impl Arrivals {
    /// Count one request just read off a socket.
    fn add(&self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }

    /// Requests currently on their way.
    pub(crate) fn pending(&self) -> usize {
        self.0.load(Ordering::SeqCst)
    }

    /// Give one count back; `true` when that left nothing on its way.
    fn give_back(&self) -> bool {
        self.0.fetch_sub(1, Ordering::SeqCst) == 1
    }
}

/// One counted request in the hands of the worker serving it. Dropping it
/// gives the count back and wakes the scheduler — the request ended without
/// a job (`ERR`, `STATS`, shed, draining) or is about to park on something
/// slow (a relation lock, the shard fan-out), and a gather must not sit out
/// its window waiting for it. [`Arrival::into_job`] moves the count into a
/// job instead.
pub(crate) struct Arrival<'a> {
    arrivals: &'a Arc<Arrivals>,
    wake: &'a Sender<Job>,
}

impl<'a> Arrival<'a> {
    /// Count one request just read off a socket.
    pub(crate) fn new(arrivals: &'a Arc<Arrivals>, wake: &'a Sender<Job>) -> Self {
        arrivals.add();
        Arrival { arrivals, wake }
    }

    /// Travel with a job. The count must not come back on the sender's side
    /// of the channel: the scheduler would wake on the job, see its own
    /// submitter still counted, and sleep out the window.
    pub(crate) fn into_job(self) -> Counted {
        let counted = Counted(Arc::clone(self.arrivals));
        std::mem::forget(self);
        counted
    }
}

impl Drop for Arrival<'_> {
    fn drop(&mut self) {
        if self.arrivals.give_back() {
            let _ = self.wake.send(Job::Wake);
        }
    }
}

/// A count travelling inside a [`Job`]; given back when the scheduler
/// dequeues the job (or when an undeliverable job is dropped).
pub(crate) struct Counted(Arc<Arrivals>);

impl Drop for Counted {
    fn drop(&mut self) {
        self.0.give_back();
    }
}

/// Why a gather stopped and its batch was admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WindowClose {
    /// The queue was empty and nothing was on its way.
    Idle,
    /// The batch reached `max_batch`.
    Full,
    /// A counted request did not show up within the batch window.
    Deadline,
}

impl WindowClose {
    /// Every reason, in declaration order (`reason as usize` indexes it).
    pub(crate) const ALL: [WindowClose; 3] =
        [WindowClose::Idle, WindowClose::Full, WindowClose::Deadline];

    /// The `reason` label of `sdb_batch_window_close_total` and of the
    /// `server.batch_window` span.
    pub(crate) fn label(self) -> &'static str {
        match self {
            WindowClose::Idle => "idle",
            WindowClose::Full => "full",
            WindowClose::Deadline => "deadline",
        }
    }
}

/// What a [`Job::Query`] is answered with: the result relation (still
/// encoded; the worker renders it) and the run's report.
pub(crate) type QueryAnswer = Result<(MultiRelation, QueryReply), MachineError>;

/// What the machine reported about a finished query — run or, for
/// [`Job::Price`], priced from cardinalities (which yields no relation).
pub(crate) struct QueryReply {
    /// Standalone simulated-hardware statistics.
    pub stats: RunStats,
    /// Host wall-clock nanoseconds for the run that produced this answer
    /// (the whole batch, when batched — it ran as one schedule).
    pub host_wall_ns: u64,
    /// Per-plan-step output cardinalities (see
    /// [`systolic_machine::RunOutcome::step_rows`]) — what a shard reports
    /// via `CARDS` so a router can re-price the merged run.
    pub step_rows: Vec<u64>,
    /// The query's standalone simulated schedule (solo-accounted even when
    /// it ran in a merged batch) — what the profiler mines for per-step
    /// actual pulses and device occupancy.
    pub timeline: Timeline,
    /// Host ns the job waited between submission and admission.
    pub queue_wait_ns: u64,
    /// Host ns spent write-ahead-logging this query (0 when read-only).
    pub wal_fsync_ns: u64,
    /// Buffer-pool hits observed process-wide across this run (batch-scoped
    /// when the query ran in a merged batch — best-effort attribution).
    pub pool_hits: u64,
    /// Buffer-pool misses over the same interval as `pool_hits`.
    pub pool_misses: u64,
}

/// A unit of work submitted to the scheduler.
pub(crate) enum Job {
    /// Run a prepared query.
    Query {
        /// The prepared (parsed + rewritten) expression.
        expr: Expr,
        /// The original query text, as logged to the WAL when the query has
        /// durable side effects.
        text: String,
        /// The submitting request's trace context, so scheduler spans for
        /// this query land in the request's trace.
        trace: Option<TraceCtx>,
        /// Timeout fence, shared with the submitting worker (see [`claim`]).
        fence: Arc<AtomicBool>,
        /// Where to deliver the answer; capacity-1 channel so the send
        /// never blocks even if the worker gave up waiting.
        reply: SyncSender<QueryAnswer>,
        /// When the worker submitted the job (host clock; feeds the
        /// profile's queue-wait, never pulse accounting).
        submitted: Instant,
        /// The request's arrival count, when it is still counted.
        arrival: Option<Counted>,
    },
    /// Price a prepared query from per-step cardinalities gathered off the
    /// machine (the shard router's merge path) — stored shapes for the
    /// `Load` steps, analytic stats for the `Op` steps; no row is touched.
    Price {
        /// The prepared expression (identical to what the shards ran).
        expr: Expr,
        /// Summed per-step output cardinalities across the shards.
        cards: Vec<u64>,
        /// The submitting request's trace context.
        trace: Option<TraceCtx>,
        /// Timeout fence, shared with the submitting worker (see [`claim`]).
        fence: Arc<AtomicBool>,
        /// Where to deliver the priced outcome.
        reply: SyncSender<Result<QueryReply, MachineError>>,
        /// When the worker submitted the job (host clock).
        submitted: Instant,
    },
    /// Load an encoded relation onto the machine's disk.
    Load {
        /// Base-relation name.
        name: String,
        /// The encoded relation.
        rel: MultiRelation,
        /// Column kinds, for the write-ahead log record.
        kinds: Vec<DomainKind>,
        /// The original CSV text, for the write-ahead log record (replay
        /// re-imports it so §2.3 dictionary codes come out identical).
        csv: String,
        /// Timeout fence, shared with the submitting worker (see [`claim`]).
        fence: Arc<AtomicBool>,
        /// Acknowledgement carrying the row count.
        reply: SyncSender<usize>,
        /// The request's arrival count, when it is still counted.
        arrival: Option<Counted>,
    },
    /// Snapshot the durable history and reset the WAL.
    Checkpoint {
        /// Delivers (records, snapshot bytes) or the rendered error.
        reply: SyncSender<Result<(u64, u64), String>>,
    },
    /// No work: a count was given back off the scheduler thread, so a
    /// gather waiting on it should look again. Neither starts nor closes a
    /// batch.
    Wake,
}

impl Job {
    /// The job has reached the scheduler: its journey, and so its arrival
    /// count, ends here.
    fn dequeued(mut self) -> Job {
        if let Job::Query { arrival, .. } | Job::Load { arrival, .. } = &mut self {
            *arrival = None;
        }
        self
    }
}

/// Gather one batch behind `first`: everything already queued joins; with
/// the queue empty the batch closes at once unless a counted request is
/// still on its way, and such a request is waited for no longer than
/// `window`.
fn gather(
    first: Job,
    jobs: &Receiver<Job>,
    arrivals: &Arrivals,
    window: Duration,
    max_batch: usize,
) -> (Vec<Job>, WindowClose) {
    let mut batch = vec![first.dequeued()];
    let deadline = Instant::now() + window;
    let reason = loop {
        if batch.len() >= max_batch.max(1) {
            break WindowClose::Full;
        }
        let next = match jobs.try_recv() {
            Ok(job) => Ok(job),
            Err(TryRecvError::Disconnected) => break WindowClose::Idle,
            Err(TryRecvError::Empty) => {
                if arrivals.pending() == 0 {
                    break WindowClose::Idle;
                }
                let now = Instant::now();
                if now >= deadline {
                    break WindowClose::Deadline;
                }
                jobs.recv_timeout(deadline - now)
            }
        };
        match next {
            Ok(Job::Wake) => {}
            Ok(job) => batch.push(job.dequeued()),
            Err(RecvTimeoutError::Timeout) => break WindowClose::Deadline,
            Err(RecvTimeoutError::Disconnected) => break WindowClose::Idle,
        }
    };
    (batch, reason)
}

/// Run the scheduler until every job sender has hung up.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    mut system: System,
    jobs: Receiver<Job>,
    arrivals: Arc<Arrivals>,
    window: Duration,
    max_batch: usize,
    counters: Arc<Counters>,
    metrics: Arc<ServerMetrics>,
    mut durable: Option<Durable>,
) {
    while let Ok(first) = jobs.recv() {
        if matches!(first, Job::Wake) {
            continue;
        }
        let mut window_span = root_span("server.batch_window");
        let (batch, reason) = gather(first, &jobs, &arrivals, window, max_batch);
        window_span.arg("jobs", batch.len());
        window_span.arg("reason", reason.label());
        drop(window_span);
        metrics.window_close(reason).inc();

        // Loads first, in arrival order: a query admitted in the same
        // window as the load it depends on sees the table. A load whose
        // worker already fenced it off (client told `ERR timeout`) is
        // skipped whole — its relation must never reach the machine.
        let mut queries = Vec::new();
        for job in batch {
            match job {
                Job::Load {
                    name,
                    rel,
                    kinds,
                    csv,
                    fence,
                    reply,
                    arrival: _,
                } => {
                    if !claim(&fence) {
                        continue;
                    }
                    // Write-ahead: the log record lands (and is fsynced)
                    // before the relation reaches the machine.
                    if let Some(d) = durable.as_mut() {
                        d.log_load(&name, &kinds, &csv);
                    }
                    let rows = rel.len();
                    system.load_base(name, rel);
                    counters.update(|c| c.loads += 1);
                    metrics.loads.inc();
                    let _ = reply.send(rows);
                }
                Job::Checkpoint { reply } => {
                    let answer = match durable.as_mut() {
                        Some(d) => d.checkpoint(),
                        None => Err("server is running without --data-dir".to_string()),
                    };
                    let _ = reply.send(answer);
                }
                Job::Wake => {}
                Job::Price {
                    expr,
                    cards,
                    trace,
                    fence,
                    reply,
                    submitted,
                } => {
                    if !claim(&fence) {
                        continue;
                    }
                    counters.update(|c| c.queries += 1);
                    metrics.queries.add(1);
                    let queue_wait_ns = submitted.elapsed().as_nanos() as u64;
                    let _span = span_in(trace, "server.price");
                    let plan = Plan::compile(&expr);
                    let _ = reply.send(system.price_plan(&plan, &cards).map(|o| QueryReply {
                        stats: o.stats,
                        host_wall_ns: o.host_wall_ns,
                        step_rows: o.step_rows,
                        timeline: o.timeline,
                        queue_wait_ns,
                        wal_fsync_ns: 0,
                        pool_hits: 0,
                        pool_misses: 0,
                    }));
                }
                Job::Query {
                    expr,
                    text,
                    trace,
                    fence,
                    reply,
                    submitted,
                    arrival: _,
                } => queries.push(PendingQuery {
                    expr,
                    text,
                    trace,
                    fence,
                    reply,
                    submitted,
                    queue_wait_ns: 0,
                    wal_fsync_ns: 0,
                }),
            }
        }
        // Cross-query hazard analysis: a query that reads or writes a
        // relation an earlier admitted query writes must not share the
        // merged schedule — it is deferred and run solo, after the batch,
        // in arrival order, so it observes the earlier write-back whole.
        let mut deferred = Vec::new();
        if queries.len() > 1 {
            let exprs: Vec<Expr> = queries.iter().map(|q| q.expr.clone()).collect();
            let conflicted = systolic_analyzer::deferred_indices(&exprs);
            if !conflicted.is_empty() {
                let mut admitted = Vec::new();
                for (i, q) in queries.into_iter().enumerate() {
                    if conflicted.contains(&i) {
                        deferred.push(q);
                    } else {
                        admitted.push(q);
                    }
                }
                queries = admitted;
            }
        }
        // Claim the admitted queries' fences *before* running: a query
        // whose worker timed out first never runs (no store(...) side
        // effects can land behind the client's back).
        queries.retain(|q| claim(&q.fence));
        // Admission: the queue wait ends here, whatever happens next.
        for q in &mut queries {
            q.queue_wait_ns = q.submitted.elapsed().as_nanos() as u64;
        }
        // Write-ahead the admitted queries' side effects in admission
        // order — the order the merged run's write-backs are equivalent to
        // (hazard analysis deferred anything that could tell the
        // difference).
        if let Some(d) = durable.as_mut() {
            for q in &mut queries {
                let logged = Instant::now();
                d.log_query(&q.expr, &q.text);
                q.wal_fsync_ns = logged.elapsed().as_nanos() as u64;
            }
        }
        let n = queries.len();
        counters.update(|c| c.queries += n as u64);
        metrics.queries.add(n as u64);
        if n > 0 {
            metrics.batch_size.observe(n as u64);
        }
        match queries.len() {
            0 => {}
            1 => {
                let q = queries.pop().expect("len checked");
                let _span = span_in(q.trace, "server.run_solo");
                let _ = q.reply.send(run_solo(&mut system, &q, &metrics));
            }
            n => {
                counters.update(|c| {
                    c.batches += 1;
                    c.max_batch = c.max_batch.max(n as u64);
                });
                metrics.batches.inc();
                run_merged(&mut system, queries, &counters, &metrics);
            }
        }
        for mut q in deferred {
            if !claim(&q.fence) {
                continue;
            }
            q.queue_wait_ns = q.submitted.elapsed().as_nanos() as u64;
            if let Some(d) = durable.as_mut() {
                let logged = Instant::now();
                d.log_query(&q.expr, &q.text);
                q.wal_fsync_ns = logged.elapsed().as_nanos() as u64;
            }
            counters.update(|c| c.queries += 1);
            metrics.queries.add(1);
            let _span = span_in(q.trace, "server.run_solo");
            let _ = q.reply.send(run_solo(&mut system, &q, &metrics));
        }
    }
}

/// Run one pending query alone, stamping the host-side waits measured for
/// it onto the reply.
fn run_solo(system: &mut System, q: &PendingQuery, metrics: &ServerMetrics) -> QueryAnswer {
    let storage = systolic_storage::StorageMetrics::shared();
    let (hits0, misses0) = (storage.pool_hits.get(), storage.pool_misses.get());
    let out = system.run(&q.expr)?;
    record_op_pulses(metrics, &out.timeline);
    let reply = QueryReply {
        stats: out.stats,
        host_wall_ns: out.host_wall_ns,
        step_rows: out.step_rows,
        timeline: out.timeline,
        queue_wait_ns: q.queue_wait_ns,
        wal_fsync_ns: q.wal_fsync_ns,
        pool_hits: storage.pool_hits.get().saturating_sub(hits0),
        pool_misses: storage.pool_misses.get().saturating_sub(misses0),
    };
    Ok((out.result, reply))
}

/// Feed `sdb_op_pulses_total{op=...}` from timeline device events. Array
/// work is exactly the events that carry pulses; the op name is the label
/// up to the ` -> output` suffix, normalised past any `[...]` detail.
fn record_op_pulses(metrics: &ServerMetrics, timeline: &Timeline) {
    for event in timeline.events() {
        if event.pulses == 0 {
            continue;
        }
        let head = event.label.split(" -> ").next().unwrap_or(&event.label);
        let op = head.split('[').next().unwrap_or(head);
        metrics.op_pulses(op).add(event.pulses);
    }
}

/// Admit several queries as one merged schedule; on any failure fall back
/// to per-query solo runs so only the faulty requests see errors.
///
/// Batch-window common-subexpression elimination: queries in the window
/// whose prepared trees are identical and free of `store(...)` side effects
/// share one slot in the merged schedule, and the duplicates' replies are
/// clones of the shared outcome. Sound because `run_batch_accounted` prices
/// every query solo — the clone is bit-identical to what a separate slot
/// would have produced — and the plan compiler upstream normalises
/// equivalent texts toward the same tree, widening what "identical" catches.
fn run_merged(
    system: &mut System,
    mut queries: Vec<PendingQuery>,
    counters: &Counters,
    metrics: &ServerMetrics,
) {
    let mut unique: Vec<Expr> = Vec::new();
    let mut slots: Vec<usize> = Vec::with_capacity(queries.len());
    for q in &queries {
        // Identical exprs have identical store sets, so a sharable query
        // can only ever match a sharable slot.
        let hit = if store_names(&q.expr).is_empty() {
            unique.iter().position(|u| *u == q.expr)
        } else {
            None
        };
        match hit {
            Some(i) => slots.push(i),
            None => {
                slots.push(unique.len());
                unique.push(q.expr.clone());
            }
        }
    }
    let cse_hits = (queries.len() - unique.len()) as u64;
    // The batch gets its own trace: it belongs to no single request. The
    // span stays ambient while the machine runs so machine.batch nests here.
    let mut batch_span = root_span("server.batch");
    batch_span.arg("size", queries.len());
    batch_span.arg("unique", unique.len());
    let batch_ctx = batch_span.ctx();
    let storage = systolic_storage::StorageMetrics::shared();
    let (hits0, misses0) = (storage.pool_hits.get(), storage.pool_misses.get());
    let outcome = system.run_batch_accounted(&unique);
    let pool_hits = storage.pool_hits.get().saturating_sub(hits0);
    let pool_misses = storage.pool_misses.get().saturating_sub(misses0);
    drop(batch_span);
    match outcome {
        Ok(batch) => {
            if cse_hits > 0 {
                counters.update(|c| c.cse_hits += cse_hits);
                metrics.cse_hits.add(cse_hits);
            }
            record_op_pulses(metrics, &batch.combined.timeline);
            let host_wall_ns = batch.combined.host_wall_ns;
            for (slot, q) in slots.into_iter().zip(queries) {
                let outcome = batch.queries[slot].clone();
                let mut run_span = span_in(q.trace, "server.batch_run");
                if let Some(ctx) = batch_ctx {
                    run_span.arg("batch_span", ctx.span_id);
                }
                drop(run_span);
                let reply = QueryReply {
                    stats: outcome.stats,
                    host_wall_ns,
                    step_rows: outcome.step_rows,
                    timeline: outcome.timeline,
                    queue_wait_ns: q.queue_wait_ns,
                    wal_fsync_ns: q.wal_fsync_ns,
                    pool_hits,
                    pool_misses,
                };
                let _ = q.reply.send(Ok((outcome.result, reply)));
            }
        }
        Err(_) => {
            // Fences were already claimed at admission; the fallback must
            // not re-claim (it would see `true` and wrongly skip).
            for q in queries.drain(..) {
                let _span = span_in(q.trace, "server.run_solo");
                let _ = q.reply.send(run_solo(system, &q, metrics));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use systolic_machine::{parse, MachineConfig};
    use systolic_relation::gen::synth_schema;
    use systolic_relation::Elem;

    fn rel(rows: &[&[Elem]]) -> MultiRelation {
        MultiRelation::new(
            synth_schema(rows[0].len()),
            rows.iter().map(|r| r.to_vec()).collect(),
        )
        .unwrap()
    }

    /// Feed the jobs through a fresh scheduler until it drains, returning
    /// the counters it maintained.
    fn run_jobs(jobs: Vec<Job>) -> Arc<Counters> {
        let system = System::new(MachineConfig::default()).unwrap();
        let (tx, rx) = mpsc::channel();
        for job in jobs {
            tx.send(job).unwrap();
        }
        drop(tx);
        let counters = Arc::new(Counters::default());
        let metrics = Arc::new(ServerMetrics::new());
        run(
            system,
            rx,
            Arc::new(Arrivals::default()),
            Duration::from_millis(1),
            16,
            Arc::clone(&counters),
            metrics,
            None,
        );
        counters
    }

    fn load_job(
        name: &str,
        rel: MultiRelation,
        f: Arc<AtomicBool>,
        reply: SyncSender<usize>,
    ) -> Job {
        Job::Load {
            name: name.into(),
            rel,
            kinds: Vec::new(),
            csv: String::new(),
            fence: f,
            reply,
            arrival: None,
        }
    }

    fn query_job(text: &str, f: Arc<AtomicBool>, reply: SyncSender<QueryAnswer>) -> Job {
        Job::Query {
            expr: parse(text).unwrap(),
            text: text.into(),
            trace: None,
            fence: f,
            reply,
            submitted: Instant::now(),
            arrival: None,
        }
    }

    /// A live query job whose reply nobody reads, counted in `arrivals`
    /// when given.
    fn job(arrivals: Option<&Arc<Arrivals>>) -> Job {
        let (reply, _) = mpsc::sync_channel(1);
        let mut job = query_job("scan(t)", fence(false), reply);
        if let (Job::Query { arrival, .. }, Some(arrivals)) = (&mut job, arrivals) {
            arrivals.add();
            *arrival = Some(Counted(Arc::clone(arrivals)));
        }
        job
    }

    /// Long enough that a gather which waits it out is unmistakable.
    const LONG: Duration = Duration::from_millis(500);
    /// Short enough to sit out in a test.
    const SHORT: Duration = Duration::from_millis(30);

    #[test]
    fn an_idle_gather_admits_at_once() {
        let (_tx, rx) = mpsc::channel();
        let arrivals = Arrivals::default();
        let started = Instant::now();
        let (batch, reason) = gather(job(None), &rx, &arrivals, LONG, 16);
        assert_eq!((batch.len(), reason), (1, WindowClose::Idle));
        assert!(started.elapsed() < LONG / 4, "{:?}", started.elapsed());
    }

    #[test]
    fn queued_jobs_join_until_the_batch_is_full() {
        let (tx, rx) = mpsc::channel();
        let arrivals = Arc::new(Arrivals::default());
        for _ in 0..5 {
            tx.send(job(Some(&arrivals))).unwrap();
        }
        let (batch, reason) = gather(job(None), &rx, &arrivals, LONG, 4);
        assert_eq!((batch.len(), reason), (4, WindowClose::Full));
        // The two left behind are still queued, hence still counted.
        assert_eq!(arrivals.pending(), 2);
        let (batch, reason) = gather(rx.recv().unwrap(), &rx, &arrivals, LONG, 4);
        assert_eq!((batch.len(), reason), (2, WindowClose::Idle));
        assert_eq!(arrivals.pending(), 0);
    }

    #[test]
    fn a_counted_arrival_is_waited_for_and_merged() {
        let (tx, rx) = mpsc::channel();
        let arrivals = Arc::new(Arrivals::default());
        // Counted before the gather starts, sent only once it is running
        // (or about to): either way the gather must not admit without it.
        let late = job(Some(&arrivals));
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let sender = std::thread::spawn(move || {
            go_rx.recv().unwrap();
            tx.send(late).unwrap();
            tx
        });
        let started = Instant::now();
        go_tx.send(()).unwrap();
        let (batch, reason) = gather(job(None), &rx, &arrivals, LONG, 16);
        assert_eq!((batch.len(), reason), (2, WindowClose::Idle));
        assert!(started.elapsed() < LONG / 4, "{:?}", started.elapsed());
        assert_eq!(arrivals.pending(), 0);
        drop(sender.join().unwrap());
    }

    #[test]
    fn an_arrival_that_never_comes_is_bounded_by_the_window() {
        let (_tx, rx) = mpsc::channel();
        let arrivals = Arrivals::default();
        arrivals.add();
        let started = Instant::now();
        let (batch, reason) = gather(job(None), &rx, &arrivals, SHORT, 16);
        assert_eq!((batch.len(), reason), (1, WindowClose::Deadline));
        assert!(started.elapsed() >= SHORT);
    }

    #[test]
    fn a_wake_neither_starts_nor_closes_a_batch() {
        // Mid-gather: a wake makes the gather look again, and with a count
        // still out it keeps waiting — here, into the deadline.
        let (tx, rx) = mpsc::channel();
        let arrivals = Arrivals::default();
        arrivals.add();
        tx.send(Job::Wake).unwrap();
        let started = Instant::now();
        let (batch, reason) = gather(job(None), &rx, &arrivals, SHORT, 16);
        assert_eq!((batch.len(), reason), (1, WindowClose::Deadline));
        assert!(started.elapsed() >= SHORT);

        // Idle: wakes alone run nothing and close nothing.
        let (tx, rx) = mpsc::channel();
        tx.send(Job::Wake).unwrap();
        tx.send(Job::Wake).unwrap();
        drop(tx);
        let metrics = Arc::new(ServerMetrics::new());
        run(
            System::new(MachineConfig::default()).unwrap(),
            rx,
            Arc::new(Arrivals::default()),
            LONG,
            16,
            Arc::new(Counters::default()),
            Arc::clone(&metrics),
            None,
        );
        for reason in WindowClose::ALL {
            assert_eq!(metrics.window_close(reason).get(), 0, "{reason:?}");
        }
    }

    #[test]
    fn a_dropped_arrival_wakes_only_when_nothing_else_is_on_its_way() {
        let (tx, rx) = mpsc::channel();
        let arrivals = Arc::new(Arrivals::default());
        let [first, second, last] = [(); 3].map(|()| Arrival::new(&arrivals, &tx));
        assert_eq!(arrivals.pending(), 3);
        // Ends without a job while others are still out: no wake yet.
        drop(first);
        assert_eq!(arrivals.pending(), 2);
        assert!(rx.try_recv().is_err());
        // Moves into a job: the sender's side neither gives back nor wakes.
        let counted = second.into_job();
        assert_eq!(arrivals.pending(), 2);
        drop(counted);
        assert_eq!(arrivals.pending(), 1);
        assert!(rx.try_recv().is_err());
        // The last one out wakes the scheduler.
        drop(last);
        assert_eq!(arrivals.pending(), 0);
        assert!(matches!(rx.try_recv(), Ok(Job::Wake)));
    }

    fn fence(claimed_by_worker: bool) -> Arc<AtomicBool> {
        Arc::new(AtomicBool::new(claimed_by_worker))
    }

    #[test]
    fn a_fenced_load_never_reaches_the_machine() {
        let (dead_tx, dead_rx) = mpsc::sync_channel(1);
        let (live_tx, live_rx) = mpsc::sync_channel(1);
        let counters = run_jobs(vec![
            load_job("dead", rel(&[&[1], &[2], &[3]]), fence(true), dead_tx),
            load_job("alive", rel(&[&[4], &[5]]), fence(false), live_tx),
        ]);
        assert!(
            dead_rx.try_recv().is_err(),
            "a fenced load must never be acknowledged"
        );
        assert_eq!(live_rx.try_recv().unwrap(), 2);
        assert_eq!(counters.snapshot().loads, 1, "only the live load lands");
    }

    #[test]
    fn a_fenced_query_is_skipped_whole() {
        let (load_tx, _load_rx) = mpsc::sync_channel(1);
        let (dead_tx, dead_rx) = mpsc::sync_channel(1);
        let (live_tx, live_rx) = mpsc::sync_channel(1);
        let counters = run_jobs(vec![
            load_job("t", rel(&[&[1], &[2]]), fence(false), load_tx),
            query_job("scan(t)", fence(true), dead_tx),
            query_job("scan(t)", fence(false), live_tx),
        ]);
        assert!(
            dead_rx.try_recv().is_err(),
            "a fenced query must never be answered"
        );
        let (rows, _) = live_rx.try_recv().unwrap().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(counters.snapshot().queries, 1, "only the live query runs");
    }

    #[test]
    fn a_fenced_deferred_query_is_skipped_with_its_side_effects() {
        // q2 reads what q1 writes, so the hazard pass defers it; its fence
        // is already claimed, so the deferred pass must drop it — in
        // particular `store(scan(u), v)` must leave no `v` on the machine.
        let (load_tx, _load_rx) = mpsc::sync_channel(1);
        let (q1_tx, q1_rx) = mpsc::sync_channel(1);
        let (q2_tx, q2_rx) = mpsc::sync_channel(1);
        let counters = run_jobs(vec![
            load_job("t", rel(&[&[1], &[2]]), fence(false), load_tx),
            query_job("store(scan(t), u)", fence(false), q1_tx),
            query_job("store(scan(u), v)", fence(true), q2_tx),
        ]);
        assert!(q1_rx.try_recv().unwrap().is_ok());
        assert!(
            q2_rx.try_recv().is_err(),
            "a fenced deferred query must never run"
        );
        assert_eq!(counters.snapshot().queries, 1);
    }
}
