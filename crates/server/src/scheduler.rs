//! Admission: the machine is a lock, and the worker that finds it free
//! admits its own batch.
//!
//! A worker queues its job and, when no one holds the machine, takes it
//! itself. It gathers what is *present* — its own job, whatever queued
//! while the machine was busy, plus every request already read off a socket
//! and still on its way (the [`Arrivals`] count) — and admits the set as
//! *one* merged dependency-level schedule via
//! [`System::run_batch_accounted`] — this is where the paper's "set of
//! transactions" concurrency actually happens: queries from different TCP
//! connections share crossbar ports and devices inside one simulated
//! makespan. Batching comes from backpressure, never from a timer: with
//! the queue empty and nothing counted the batch is admitted at once, and
//! the batch window only bounds how long a counted request may be waited
//! for.
//!
//! A job that finds the machine held waits in the queue. The holder answers
//! the batch holding its own job and then stops: it hands the machine,
//! still held, to the oldest waiting job's worker, which gathers the next
//! batch. So an idle machine costs a query no wakeup, a queued query one
//! wakeup, and jobs queued behind a busy machine are still admitted
//! together when it frees.
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

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use systolic_machine::{Expr, MachineError, Plan, RunStats, System, Timeline};
use systolic_relation::{DomainKind, MultiRelation};
use systolic_storage::StorageEngine;
use systolic_telemetry::{root_span, span_in, TraceCtx};

use crate::engine::{kind_name, store_names};
use crate::locks;
use crate::metrics::ServerMetrics;
use crate::server::{Counters, DurableStats, Shared};

/// A query waiting in a merged batch: its expression and source text, the
/// submitting request's trace, its timeout fence, where its answer goes,
/// and the host-side waits measured on its way to the machine.
struct PendingQuery {
    expr: Expr,
    text: String,
    trace: Option<TraceCtx>,
    fence: Arc<Fence>,
    reply: ReplyTo<QueryAnswer>,
    /// When the submitting worker queued the job.
    submitted: Instant,
    /// Host ns from submission to admission (queue + gather window).
    queue_wait_ns: u64,
    /// Host ns spent write-ahead-logging this query (0 when read-only or
    /// not durable).
    wal_fsync_ns: u64,
}

/// The machine a server admits jobs onto: the §9 `System` and, on a
/// durable server, its durable half. One lock in [`Shared`] guards both.
pub(crate) struct Machine {
    pub(crate) system: System,
    pub(crate) durable: Option<Durable>,
}

/// The machine's durable half: the storage engine (WAL + paged store)
/// plus the gauges `STATS` reads. Behind the machine lock with the
/// `System`, so every log append happens in admission order — the order
/// recovery replays.
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

/// A job's timeout fence, shared by the worker that submitted the job and
/// whoever holds the machine. Exactly one side settles it. If the machine's
/// side [claims](Fence::claim) it first, the job runs (its side effects
/// land) and is answered, so a worker that times out afterwards must keep
/// waiting for the real answer. If the worker [times out](Fence::time_out)
/// first, the job is skipped whole — no run, no `store(...)` write-back, no
/// catalog change the client was never told about.
#[derive(Debug, Default)]
pub(crate) struct Fence(AtomicU8);

const OPEN: u8 = 0;
const CLAIMED: u8 = 1;
const TIMED_OUT: u8 = 2;

impl Fence {
    /// The machine's side: `true` when the job is the machine's to run,
    /// claimed now or already (a hand-off claims before admission does).
    fn claim(&self) -> bool {
        match self
            .0
            .compare_exchange(OPEN, CLAIMED, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => true,
            Err(state) => state == CLAIMED,
        }
    }

    /// The worker's side: `true` when it timed out before the machine
    /// claimed the job.
    fn time_out(&self) -> bool {
        self.0
            .compare_exchange(OPEN, TIMED_OUT, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// The machine has claimed the job: it will run, or has run.
    fn claimed(&self) -> bool {
        self.0.load(Ordering::SeqCst) == CLAIMED
    }
}

/// What a worker waiting on its job receives.
enum Handed<T> {
    /// The job ran; this is its answer.
    Answer(T),
    /// The machine itself: the previous holder claimed this job's fence and
    /// passed the machine on without releasing it.
    Machine,
}

/// Where a job's answer goes: a capacity-1 channel to the submitting
/// worker, which carries one [`Handed`] at a time, so no send ever blocks,
/// even to a worker that gave up.
pub(crate) struct ReplyTo<T>(SyncSender<Handed<T>>);

impl<T> ReplyTo<T> {
    fn send(&self, answer: T) {
        let _ = self.0.send(Handed::Answer(answer));
    }

    /// Hand the machine to the job's worker; `false` when it is gone.
    fn hand_machine(&self) -> bool {
        self.0.send(Handed::Machine).is_ok()
    }
}

/// How a worker's wait on a fenced job ended.
pub(crate) enum Fenced<T> {
    /// The job ran and this is its answer.
    Answered(T),
    /// The worker timed out first and took the fence: the job is skipped
    /// whole, so `ERR timeout` is the truth. Already counted.
    TimedOut,
    /// The job was dropped unanswered, because a panic while the machine
    /// was held left it out of service — `mid_run` when the machine had
    /// claimed the job first (its side effects may have landed).
    Gone { mid_run: bool },
}

/// The worker's half of the fence race: queue the job `build` makes around
/// a fresh fence and reply channel, taking the machine when it is free, and
/// wait out the request timeout for the answer — or for the machine, handed
/// on by its holder. On expiry the worker tries to [time out](Fence::time_out)
/// the fence itself; losing means the job is running, or its worker is about
/// to be handed the machine, so it blocks for the real answer rather than
/// tell the client a lie.
pub(crate) fn submit_fenced<T>(
    shared: &Shared,
    build: impl FnOnce(Arc<Fence>, ReplyTo<T>) -> Job,
) -> Fenced<T> {
    let fence = Arc::new(Fence::default());
    let (reply, handed) = sync_channel(1);
    let deadline = Instant::now() + shared.cfg.request_timeout;
    let mut holder = enqueue(shared, build(Arc::clone(&fence), ReplyTo(reply)));
    loop {
        // The batch holds this worker's own job; dropping the holder passes
        // the machine on before the answer is read, so rendering and the
        // socket write happen outside the lock.
        if let Some(holder) = holder.take() {
            holder.admit_batch();
        }
        let next = if fence.claimed() {
            handed.recv().map_err(|_| RecvTimeoutError::Disconnected)
        } else {
            handed.recv_timeout(deadline.saturating_duration_since(Instant::now()))
        };
        match next {
            Ok(Handed::Answer(answer)) => return Fenced::Answered(answer),
            Ok(Handed::Machine) => holder = Some(Holder { shared }),
            Err(RecvTimeoutError::Disconnected) => {
                return Fenced::Gone {
                    mid_run: fence.claimed(),
                }
            }
            Err(RecvTimeoutError::Timeout) if fence.time_out() => {
                shared.count_timeout();
                return Fenced::TimedOut;
            }
            // Claimed meanwhile: wait on, without a deadline.
            Err(RecvTimeoutError::Timeout) => {}
        }
    }
}

/// Requests that have been read off a socket but whose jobs have not been
/// gathered yet. A gather admits the moment the queue is empty and this
/// reads zero; every counted request gives its count back exactly once —
/// see [`Arrival`] (worker side) and [`Counted`] (travelling in a job).
#[derive(Debug, Default)]
struct Arrivals(AtomicUsize);

impl Arrivals {
    /// Count one request just read off a socket.
    fn add(&self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }

    /// Requests currently on their way.
    fn pending(&self) -> usize {
        self.0.load(Ordering::SeqCst)
    }

    /// Give one count back; `true` when that left nothing on its way.
    fn give_back(&self) -> bool {
        self.0.fetch_sub(1, Ordering::SeqCst) == 1
    }
}

/// One counted request in the hands of the worker serving it. Dropping it
/// gives the count back and, when it was the last one out, wakes a waiting
/// gather — the request ended without a job (`ERR`, `STATS`, shed,
/// draining) or is about to park on something slow (a relation lock, the
/// shard fan-out), and a gather must not sit out its window waiting for it.
/// [`Arrival::into_job`] moves the count into a job instead.
pub(crate) struct Arrival<'a> {
    jobs: &'a Jobs,
}

impl<'a> Arrival<'a> {
    /// Count one request just read off a socket.
    pub(crate) fn new(jobs: &'a Jobs) -> Self {
        jobs.arrivals.add();
        Arrival { jobs }
    }

    /// Travel with a job. The count must not come back on the submitter's
    /// side: the gather — the submitter's own, when the machine is free —
    /// would find the job, see its submitter still counted, and sit out the
    /// window.
    pub(crate) fn into_job(self) -> Counted {
        std::mem::forget(self);
        Counted(())
    }
}

impl Drop for Arrival<'_> {
    fn drop(&mut self) {
        if self.jobs.arrivals.give_back() {
            self.jobs.wake();
        }
    }
}

/// A count travelling inside a [`Job`]; given back when the job leaves the
/// queue.
pub(crate) struct Counted(());

/// The jobs waiting for the machine, and whether a worker holds it.
///
/// Why no job is ever stranded — queued while the machine is free: one
/// mutex guards both the queue and the `held` flag. A submitter pushes its
/// job and then tries to take the machine; a holder that is done releases
/// the machine and then re-checks the queue. Each pair is one critical
/// section, so whichever of the two comes second sees the other's effect:
/// a push after the release finds the machine free and takes it, and a
/// release after the push finds the job and hands the machine over instead
/// of freeing it. Whenever the mutex is free, `held || waiting.is_empty()`.
#[derive(Default)]
pub(crate) struct Jobs {
    queue: Mutex<Queue>,
    /// Wakes the holder's gather: a job was queued, or the last counted
    /// arrival gave its count back.
    arrived: Condvar,
    arrivals: Arrivals,
}

#[derive(Default)]
struct Queue {
    waiting: VecDeque<Job>,
    /// A worker holds the machine, or it has been handed to one that has
    /// not woken yet.
    held: bool,
}

impl Queue {
    /// Take the oldest job off the queue: its journey, and so its arrival
    /// count, ends here.
    fn pop(&mut self, arrivals: &Arrivals) -> Option<Job> {
        let mut job = self.waiting.pop_front()?;
        if let Job::Query { arrival, .. } | Job::Load { arrival, .. } = &mut job {
            if arrival.take().is_some() {
                arrivals.give_back();
            }
        }
        Some(job)
    }
}

impl Jobs {
    /// Requests currently on their way to the machine.
    pub(crate) fn arriving(&self) -> usize {
        self.arrivals.pending()
    }

    /// Queue `job`, then take the machine if no one holds it; `true` when
    /// the caller now holds it.
    fn push(&self, job: Job) -> bool {
        let mut queue = locks::lock(&self.queue);
        queue.waiting.push_back(job);
        let took = !queue.held;
        queue.held = true;
        drop(queue);
        if !took {
            self.arrived.notify_one();
        }
        took
    }

    /// Wake a gather waiting on the arrival count. Taking the mutex first
    /// means a gather that saw the count non-zero is already waiting.
    fn wake(&self) {
        if locks::lock(&self.queue).held {
            self.arrived.notify_one();
        }
    }

    /// Gather one batch from the queue: everything already queued joins;
    /// with the queue empty the batch closes at once unless a counted
    /// request is still on its way, and such a request is waited for no
    /// longer than `window`.
    fn gather(&self, window: Duration, max_batch: usize) -> (Vec<Job>, WindowClose) {
        let mut queue = locks::lock(&self.queue);
        let mut batch = Vec::new();
        let deadline = Instant::now() + window;
        let reason = loop {
            if batch.len() >= max_batch.max(1) {
                break WindowClose::Full;
            }
            if let Some(job) = queue.pop(&self.arrivals) {
                batch.push(job);
                continue;
            }
            if self.arrivals.pending() == 0 {
                break WindowClose::Idle;
            }
            let now = Instant::now();
            if now >= deadline {
                break WindowClose::Deadline;
            }
            queue = locks::wait_timeout(&self.arrived, queue, deadline - now);
        };
        (batch, reason)
    }

    /// Give the machine up: hand it to the oldest waiting job's worker, or
    /// free it when nothing waits.
    fn pass_on(&self) {
        let mut queue = locks::lock(&self.queue);
        while let Some(next) = queue.waiting.front() {
            // Claim before handing over, as admission claims before it
            // runs: a worker whose fence is claimed cannot time out, so it
            // is certain to take its turn. A job whose worker timed out
            // first is skipped whole.
            if next.fence().claim() && next.hand_machine() {
                return;
            }
            queue.pop(&self.arrivals);
        }
        queue.held = false;
    }

    /// Fail closed: drop every waiting job unanswered, so each worker sees
    /// [`Fenced::Gone`].
    fn drop_all(&self) {
        let mut queue = locks::lock(&self.queue);
        while queue.pop(&self.arrivals).is_some() {}
    }
}

/// Queue `job`, returning the machine when it was free.
fn enqueue(shared: &Shared, job: Job) -> Option<Holder<'_>> {
    shared.jobs.push(job).then(|| Holder { shared })
}

/// The machine, held by one worker: the one that found it free, or the one
/// it was handed to. Dropping the holder passes the machine on — also when
/// its worker panics.
struct Holder<'a> {
    shared: &'a Shared,
}

impl Holder<'_> {
    /// Gather one batch and admit it.
    fn admit_batch(&self) {
        let shared = self.shared;
        // The machine lock does not recover from poisoning: a panic while
        // it was held may have left the machine half-updated, and nothing
        // runs on it again. Every job is answered `Gone` instead.
        let Ok(mut machine) = shared.machine.lock() else {
            shared.jobs.drop_all();
            return;
        };
        let mut window_span = root_span("server.batch_window");
        let (batch, reason) = shared
            .jobs
            .gather(shared.cfg.batch_window, shared.cfg.max_batch);
        window_span.arg("jobs", batch.len());
        window_span.arg("reason", reason.label());
        drop(window_span);
        shared.metrics.window_close(reason).inc();
        admit(&mut machine, batch, &shared.counters, &shared.metrics);
    }
}

impl Drop for Holder<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.shared.jobs.drop_all();
        }
        self.shared.jobs.pass_on();
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

/// A unit of work for the machine.
pub(crate) enum Job {
    /// Run a prepared query.
    Query {
        /// The prepared (parsed + rewritten) expression.
        expr: Expr,
        /// The original query text, as logged to the WAL when the query has
        /// durable side effects.
        text: String,
        /// The submitting request's trace context, so admission spans for
        /// this query land in the request's trace.
        trace: Option<TraceCtx>,
        /// Timeout fence, shared with the submitting worker.
        fence: Arc<Fence>,
        /// Where to deliver the answer.
        reply: ReplyTo<QueryAnswer>,
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
        /// Timeout fence, shared with the submitting worker.
        fence: Arc<Fence>,
        /// Where to deliver the priced outcome.
        reply: ReplyTo<Result<QueryReply, MachineError>>,
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
        /// Timeout fence, shared with the submitting worker.
        fence: Arc<Fence>,
        /// Acknowledgement carrying the row count.
        reply: ReplyTo<usize>,
        /// The request's arrival count, when it is still counted.
        arrival: Option<Counted>,
    },
    /// Snapshot the durable history and reset the WAL.
    Checkpoint {
        /// Timeout fence, shared with the submitting worker.
        fence: Arc<Fence>,
        /// Delivers (records, snapshot bytes) or the rendered error.
        reply: ReplyTo<Result<(u64, u64), String>>,
    },
}

impl Job {
    fn fence(&self) -> &Fence {
        match self {
            Job::Query { fence, .. }
            | Job::Price { fence, .. }
            | Job::Load { fence, .. }
            | Job::Checkpoint { fence, .. } => fence,
        }
    }

    /// Hand the machine to this job's worker; `false` when it is gone.
    fn hand_machine(&self) -> bool {
        match self {
            Job::Query { reply, .. } => reply.hand_machine(),
            Job::Price { reply, .. } => reply.hand_machine(),
            Job::Load { reply, .. } => reply.hand_machine(),
            Job::Checkpoint { reply, .. } => reply.hand_machine(),
        }
    }
}

/// Admit one gathered batch onto the machine.
fn admit(machine: &mut Machine, batch: Vec<Job>, counters: &Counters, metrics: &ServerMetrics) {
    let Machine { system, durable } = machine;
    // Loads first, in arrival order: a query admitted in the same window as
    // the load it depends on sees the table. A job whose worker already
    // fenced it off (client told `ERR timeout`) is skipped whole — a load's
    // relation must never reach the machine, a checkpoint must not reset the
    // log.
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
                if !fence.claim() {
                    continue;
                }
                // Write-ahead: the log record lands (and is fsynced) before
                // the relation reaches the machine.
                if let Some(d) = durable.as_mut() {
                    d.log_load(&name, &kinds, &csv);
                }
                let rows = rel.len();
                system.load_base(name, rel);
                counters.update(|c| c.loads += 1);
                metrics.loads.inc();
                reply.send(rows);
            }
            Job::Checkpoint { fence, reply } => {
                if !fence.claim() {
                    continue;
                }
                reply.send(match durable.as_mut() {
                    Some(d) => d.checkpoint(),
                    None => Err("server is running without --data-dir".to_string()),
                });
            }
            Job::Price {
                expr,
                cards,
                trace,
                fence,
                reply,
                submitted,
            } => {
                if !fence.claim() {
                    continue;
                }
                counters.update(|c| c.queries += 1);
                metrics.queries.add(1);
                let queue_wait_ns = submitted.elapsed().as_nanos() as u64;
                let _span = span_in(trace, "server.price");
                let plan = Plan::compile(&expr);
                reply.send(system.price_plan(&plan, &cards).map(|o| QueryReply {
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
    // Cross-query hazard analysis: a query that reads or writes a relation
    // an earlier admitted query writes must not share the merged schedule —
    // it is deferred and run solo, after the batch, in arrival order, so it
    // observes the earlier write-back whole.
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
    // Claim the admitted queries' fences *before* running: a query whose
    // worker timed out first never runs (no store(...) side effects can
    // land behind the client's back).
    queries.retain(|q| q.fence.claim());
    // Admission: the queue wait ends here, whatever happens next.
    for q in &mut queries {
        q.queue_wait_ns = q.submitted.elapsed().as_nanos() as u64;
    }
    // Write-ahead the admitted queries' side effects in admission order —
    // the order the merged run's write-backs are equivalent to (hazard
    // analysis deferred anything that could tell the difference).
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
            q.reply.send(run_solo(system, &q, metrics));
        }
        n => {
            counters.update(|c| {
                c.batches += 1;
                c.max_batch = c.max_batch.max(n as u64);
            });
            metrics.batches.inc();
            run_merged(system, queries, counters, metrics);
        }
    }
    for mut q in deferred {
        if !q.fence.claim() {
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
        q.reply.send(run_solo(system, &q, metrics));
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
                q.reply.send(Ok((outcome.result, reply)));
            }
        }
        Err(_) => {
            // Fences were already claimed at admission.
            for q in queries.drain(..) {
                let _span = span_in(q.trace, "server.run_solo");
                q.reply.send(run_solo(system, &q, metrics));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc::{self, Receiver};
    use systolic_machine::{parse, Backend, MachineConfig};
    use systolic_relation::gen::synth_schema;
    use systolic_relation::Elem;

    use crate::server::{CounterState, ServerConfig};

    fn rel(rows: &[&[Elem]]) -> MultiRelation {
        MultiRelation::new(
            synth_schema(rows[0].len()),
            rows.iter().map(|r| r.to_vec()).collect(),
        )
        .unwrap()
    }

    fn shared_with(machine: MachineConfig, request_timeout: Duration) -> Shared {
        Shared::new(ServerConfig {
            machine,
            request_timeout,
            batch_window: Duration::from_millis(1),
            max_batch: 16,
            ..ServerConfig::default()
        })
        .unwrap()
    }

    fn shared() -> Shared {
        shared_with(MachineConfig::default(), Duration::from_secs(30))
    }

    /// No worker holds the machine and no job waits for it.
    fn idle(shared: &Shared) -> bool {
        let queue = locks::lock(&shared.jobs.queue);
        !queue.held && queue.waiting.is_empty()
    }

    /// Queue the jobs and admit them as the worker that found the machine
    /// free, returning the counters admission maintained.
    fn run_jobs(jobs: Vec<Job>) -> CounterState {
        let shared = shared();
        let mut jobs = jobs.into_iter();
        let holder = enqueue(&shared, jobs.next().unwrap()).expect("the machine is free");
        for job in jobs {
            assert!(enqueue(&shared, job).is_none(), "the machine is held");
        }
        holder.admit_batch();
        drop(holder);
        assert!(idle(&shared));
        shared.counters.snapshot()
    }

    /// A reply channel whose receiving end the test keeps.
    fn reply<T>() -> (ReplyTo<T>, Receiver<Handed<T>>) {
        let (tx, rx) = mpsc::sync_channel(1);
        (ReplyTo(tx), rx)
    }

    /// The answer delivered on `rx`, if any.
    fn answer<T>(rx: &Receiver<Handed<T>>) -> Option<T> {
        match rx.try_recv() {
            Ok(Handed::Answer(answer)) => Some(answer),
            _ => None,
        }
    }

    fn load_job(name: &str, rel: MultiRelation, f: Arc<Fence>, reply: ReplyTo<usize>) -> Job {
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

    fn query_job(text: &str, f: Arc<Fence>, reply: ReplyTo<QueryAnswer>) -> Job {
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

    /// A live query job whose reply nobody reads, carrying `arrival`.
    fn job(arrival: Option<Counted>) -> Job {
        let (reply, _) = reply();
        let mut job = query_job("scan(t)", fence(false), reply);
        if let Job::Query { arrival: slot, .. } = &mut job {
            *slot = arrival;
        }
        job
    }

    fn fence(timed_out_by_worker: bool) -> Arc<Fence> {
        let fence = Fence::default();
        assert!(!timed_out_by_worker || fence.time_out());
        Arc::new(fence)
    }

    /// Long enough that a gather which waits it out is unmistakable.
    const LONG: Duration = Duration::from_millis(500);
    /// Short enough to sit out in a test.
    const SHORT: Duration = Duration::from_millis(30);

    #[test]
    fn an_idle_gather_admits_at_once() {
        let jobs = Jobs::default();
        assert!(jobs.push(job(None)));
        let started = Instant::now();
        let (batch, reason) = jobs.gather(LONG, 16);
        assert_eq!((batch.len(), reason), (1, WindowClose::Idle));
        assert!(started.elapsed() < LONG / 4, "{:?}", started.elapsed());
    }

    #[test]
    fn queued_jobs_join_until_the_batch_is_full() {
        let jobs = Jobs::default();
        assert!(jobs.push(job(None)));
        for _ in 0..5 {
            assert!(!jobs.push(job(Some(Arrival::new(&jobs).into_job()))));
        }
        let (batch, reason) = jobs.gather(LONG, 4);
        assert_eq!((batch.len(), reason), (4, WindowClose::Full));
        // The two left behind are still queued, hence still counted.
        assert_eq!(jobs.arriving(), 2);
        let (batch, reason) = jobs.gather(LONG, 4);
        assert_eq!((batch.len(), reason), (2, WindowClose::Idle));
        assert_eq!(jobs.arriving(), 0);
    }

    #[test]
    fn a_counted_arrival_is_waited_for_and_merged() {
        let jobs = Jobs::default();
        assert!(jobs.push(job(None)));
        // Counted before the gather starts, queued only once it is running
        // (or about to): either way the gather must not admit without it.
        let late = job(Some(Arrival::new(&jobs).into_job()));
        thread::scope(|s| {
            let (go_tx, go_rx) = mpsc::channel::<()>();
            let jobs = &jobs;
            s.spawn(move || {
                go_rx.recv().unwrap();
                assert!(!jobs.push(late));
            });
            let started = Instant::now();
            go_tx.send(()).unwrap();
            let (batch, reason) = jobs.gather(LONG, 16);
            assert_eq!((batch.len(), reason), (2, WindowClose::Idle));
            assert!(started.elapsed() < LONG / 4, "{:?}", started.elapsed());
        });
        assert_eq!(jobs.arriving(), 0);
    }

    #[test]
    fn an_arrival_that_never_comes_is_bounded_by_the_window() {
        let jobs = Jobs::default();
        assert!(jobs.push(job(None)));
        let _never = Arrival::new(&jobs);
        let started = Instant::now();
        let (batch, reason) = jobs.gather(SHORT, 16);
        assert_eq!((batch.len(), reason), (1, WindowClose::Deadline));
        assert!(started.elapsed() >= SHORT);
    }

    #[test]
    fn a_spurious_wake_neither_starts_nor_closes_a_batch() {
        // Mid-gather: each wake makes the gather look again, and with a
        // count still out it keeps waiting — here, into the deadline.
        let jobs = Jobs::default();
        assert!(jobs.push(job(None)));
        let _never = Arrival::new(&jobs);
        let gathered = AtomicBool::new(false);
        thread::scope(|s| {
            s.spawn(|| {
                while !gathered.load(Ordering::SeqCst) {
                    jobs.wake();
                    thread::yield_now();
                }
            });
            let started = Instant::now();
            let (batch, reason) = jobs.gather(SHORT, 16);
            gathered.store(true, Ordering::SeqCst);
            assert_eq!((batch.len(), reason), (1, WindowClose::Deadline));
            assert!(started.elapsed() >= SHORT);
        });

        // Idle: wakes alone run nothing and close nothing.
        let shared = shared();
        drop(Arrival::new(&shared.jobs));
        shared.jobs.wake();
        for reason in WindowClose::ALL {
            assert_eq!(shared.metrics.window_close(reason).get(), 0, "{reason:?}");
        }
        assert!(idle(&shared));
    }

    #[test]
    fn a_dropped_arrival_wakes_only_when_nothing_else_is_on_its_way() {
        let jobs = Jobs::default();
        assert!(jobs.push(job(None)));
        let [first, second, last] = [(); 3].map(|()| Arrival::new(&jobs));
        thread::scope(|s| {
            let gather = s.spawn(|| {
                let started = Instant::now();
                let (batch, reason) = jobs.gather(LONG, 16);
                (batch.len(), reason, started.elapsed())
            });
            // Ends without a job while others are still out: the gather
            // keeps waiting.
            drop(first);
            // Moves into a job: the submitter's side neither gives back nor
            // wakes; the gather takes the job and the count with it.
            let counted = second.into_job();
            assert_eq!(jobs.arriving(), 2);
            assert!(!jobs.push(job(Some(counted))));
            // The last one out wakes the gather, long before its window.
            drop(last);
            let (jobs_gathered, reason, waited) = gather.join().unwrap();
            assert_eq!((jobs_gathered, reason), (2, WindowClose::Idle));
            assert!(waited < LONG / 4, "{waited:?}");
        });
        assert_eq!(jobs.arriving(), 0);
    }

    #[test]
    fn a_fenced_load_never_reaches_the_machine() {
        let (dead_tx, dead_rx) = reply();
        let (live_tx, live_rx) = reply();
        let counters = run_jobs(vec![
            load_job("dead", rel(&[&[1], &[2], &[3]]), fence(true), dead_tx),
            load_job("alive", rel(&[&[4], &[5]]), fence(false), live_tx),
        ]);
        assert!(
            answer(&dead_rx).is_none(),
            "a fenced load must never be acknowledged"
        );
        assert_eq!(answer(&live_rx), Some(2));
        assert_eq!(counters.loads, 1, "only the live load lands");
    }

    #[test]
    fn a_fenced_query_is_skipped_whole() {
        let (load_tx, _load_rx) = reply();
        let (dead_tx, dead_rx) = reply();
        let (live_tx, live_rx) = reply();
        let counters = run_jobs(vec![
            load_job("t", rel(&[&[1], &[2]]), fence(false), load_tx),
            query_job("scan(t)", fence(true), dead_tx),
            query_job("scan(t)", fence(false), live_tx),
        ]);
        assert!(
            answer(&dead_rx).is_none(),
            "a fenced query must never be answered"
        );
        let (rows, _) = answer(&live_rx).unwrap().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(counters.queries, 1, "only the live query runs");
    }

    #[test]
    fn a_fenced_deferred_query_is_skipped_with_its_side_effects() {
        // q2 reads what q1 writes, so the hazard pass defers it; its fence
        // is already taken by its worker, so the deferred pass must drop it
        // — in particular `store(scan(u), v)` must leave no `v` behind.
        let (load_tx, _load_rx) = reply();
        let (q1_tx, q1_rx) = reply();
        let (q2_tx, q2_rx) = reply();
        let counters = run_jobs(vec![
            load_job("t", rel(&[&[1], &[2]]), fence(false), load_tx),
            query_job("store(scan(t), u)", fence(false), q1_tx),
            query_job("store(scan(u), v)", fence(true), q2_tx),
        ]);
        assert!(answer(&q1_rx).unwrap().is_ok());
        assert!(
            answer(&q2_rx).is_none(),
            "a fenced deferred query must never run"
        );
        assert_eq!(counters.queries, 1);
    }

    /// Load `t` (two rows) through the front door.
    fn load_t(shared: &Shared) {
        let loaded = submit_fenced(shared, |fence, reply| {
            load_job("t", rel(&[&[1], &[2]]), fence, reply)
        });
        assert!(matches!(loaded, Fenced::Answered(2)));
    }

    /// Submit `scan(t)` as a worker would.
    fn scan_t(shared: &Shared) -> Fenced<QueryAnswer> {
        submit_fenced(shared, |fence, reply| query_job("scan(t)", fence, reply))
    }

    /// Block until a job waits behind the machine's holder.
    fn await_queued(shared: &Shared) {
        while locks::lock(&shared.jobs.queue).waiting.is_empty() {
            thread::yield_now();
        }
    }

    #[test]
    fn no_job_is_stranded_under_concurrent_submitters() {
        const THREADS: u64 = 8;
        const CALLS: u64 = 200;
        let shared = shared_with(
            MachineConfig {
                backend: Backend::Columnar,
                ..MachineConfig::default()
            },
            Duration::from_secs(30),
        );
        load_t(&shared);
        thread::scope(|s| {
            for t in 0..THREADS {
                let shared = &shared;
                s.spawn(move || {
                    // xorshift: random yields at the racy points.
                    let mut x = 0x9e37_79b9_7f4a_7c15_u64 ^ (t + 1);
                    let mut coin = || {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x.is_multiple_of(3)
                    };
                    for _ in 0..CALLS {
                        if coin() {
                            thread::yield_now();
                        }
                        let arrival = Arrival::new(&shared.jobs);
                        if coin() {
                            thread::yield_now();
                        }
                        let answered = submit_fenced(shared, |fence, reply| {
                            let mut job = query_job("scan(t)", fence, reply);
                            if let Job::Query { arrival: slot, .. } = &mut job {
                                *slot = Some(arrival.into_job());
                            }
                            job
                        });
                        assert!(matches!(answered, Fenced::Answered(Ok(_))));
                    }
                });
            }
        });
        assert_eq!(shared.jobs.arriving(), 0);
        assert_eq!(shared.counters.snapshot().queries, THREADS * CALLS);
        assert!(idle(&shared));
    }

    #[test]
    fn a_queued_job_is_handed_the_machine_when_its_worker_is_the_last_one_waiting() {
        let shared = shared();
        load_t(&shared);
        let (reply, _rx) = reply();
        let holder = enqueue(&shared, query_job("scan(t)", fence(false), reply))
            .expect("the machine is free");
        // The holder's batch is its own job alone.
        holder.admit_batch();
        thread::scope(|s| {
            let waiter = s.spawn(|| scan_t(&shared));
            await_queued(&shared);
            // The holder stops serving: no one but the waiter is left to
            // run its job.
            drop(holder);
            match waiter.join().unwrap() {
                Fenced::Answered(Ok((rows, _))) => assert_eq!(rows.len(), 2),
                _ => panic!("the queued job must be answered"),
            }
        });
        assert_eq!(shared.counters.snapshot().queries, 2);
        assert!(idle(&shared));
    }

    #[test]
    fn a_job_that_timed_out_in_the_queue_is_skipped_at_hand_off() {
        let shared = shared_with(MachineConfig::default(), SHORT);
        load_t(&shared);
        let (reply, _rx) = reply();
        let holder = enqueue(&shared, query_job("scan(t)", fence(false), reply))
            .expect("the machine is free");
        holder.admit_batch();
        thread::scope(|s| {
            let waiter = s.spawn(|| scan_t(&shared));
            await_queued(&shared);
            assert!(matches!(waiter.join().unwrap(), Fenced::TimedOut));
        });
        drop(holder);
        assert_eq!(
            shared.counters.snapshot().queries,
            1,
            "the timed-out job never ran"
        );
        assert_eq!(shared.counters.snapshot().timeouts, 1);
        assert!(idle(&shared));
    }

    #[test]
    fn a_panic_holding_the_machine_fails_every_later_job_closed() {
        let shared = shared();
        load_t(&shared);
        let (held_tx, held_rx) = mpsc::channel();
        thread::scope(|s| {
            let panicker = s.spawn(|| {
                let (reply, _rx) = reply();
                let _holder = enqueue(&shared, query_job("scan(t)", fence(false), reply))
                    .expect("the machine is free");
                let _machine = shared.machine.lock().unwrap();
                let _own = shared.jobs.gather(Duration::ZERO, 16);
                held_tx.send(()).unwrap();
                await_queued(&shared);
                panic!("injected panic while holding the machine");
            });
            held_rx.recv().unwrap();
            // Queued behind the holder when it panics.
            let queued = s.spawn(|| scan_t(&shared));
            assert!(panicker.join().is_err());
            assert!(matches!(
                queued.join().unwrap(),
                Fenced::Gone { mid_run: false }
            ));
        });
        assert!(shared.machine.is_poisoned());
        // Submitted to the free, poisoned machine.
        assert!(matches!(scan_t(&shared), Fenced::Gone { mid_run: false }));
        assert_eq!(shared.counters.snapshot().queries, 0, "nothing ran");
        assert_eq!(shared.jobs.arriving(), 0);
        assert!(idle(&shared));
    }
}
