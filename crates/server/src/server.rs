//! The TCP service: bounded worker pool, session loop, graceful shutdown.
//!
//! Plain `std::net` blocking sockets — no async runtime. The accept loop is
//! nonblocking and polls a stop flag; connections use short read timeouts
//! so every thread notices shutdown within ~100ms and drains: in-flight
//! requests are answered, idle sessions get `BYE`, new work is refused with
//! `ERR shutting_down`, and queued-but-unserved connections are still
//! picked up and told the same.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use systolic_analyzer::CatalogView;
use systolic_machine::{MachineConfig, System};
use systolic_relation::DomainKind;
use systolic_storage::{LockMode, LockTable, StorageEngine, WalRecord};
use systolic_telemetry::metrics::QuantileSummary;
use systolic_telemetry::{record_between, root_span, span_in, TraceCtx};

use crate::engine::{self, Compiled, EngineError, Store};
use crate::frame::{read_frame, FrameRead};
use crate::locks;
use crate::metrics::ServerMetrics;
use crate::profile::{self, FlightRecorder, QueryProfile};
use crate::protocol::{
    analysis_err_frame, checkpointed_frame, err_frame, host_frame, loaded_frame, metrics_frame,
    parse_err_frame, parse_request, profile_frame, profiles_frame, Request,
};
use crate::scheduler::{self, Fenced, Machine, Turns};
use crate::shutdown;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:4171` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads — the number of connections served simultaneously
    /// (one thread per connection).
    pub workers: usize,
    /// Accepted connections allowed to wait for a free worker before new
    /// ones are refused with `ERR overloaded`.
    pub max_pending: usize,
    /// Configuration of the shared simulated machine.
    pub machine: MachineConfig,
    /// How long a request waits for its turn on the machine before giving
    /// up with `ERR timeout` (a request whose turn has come runs to the
    /// end) — and how long a client may take to finish a frame it has
    /// started sending before it is answered `ERR timeout` and
    /// disconnected.
    pub request_timeout: Duration,
    /// Largest accepted request frame, in bytes.
    pub max_request_bytes: usize,
    /// Queries slower than this (end-to-end host time) are written to the
    /// slow-query log on stderr; `None` disables the log.
    pub slow_query: Option<Duration>,
    /// Durable storage directory. When set, every `LOAD` and every query
    /// with a `store(...)` side effect is written-ahead to a log under this
    /// directory, and startup replays the log (from the last checkpoint)
    /// before the listener starts answering — so a killed server restarted
    /// on the same directory serves byte-identical `RESULT` frames. `None`
    /// runs fully in memory, exactly as before.
    pub data_dir: Option<PathBuf>,
    /// Buffer-pool capacity of the paged relation store, in 8 KiB pages:
    /// frames for pages that are read (writes bypass the pool).
    pub pool_pages: usize,
    /// Chrome-trace output path. When set, the server installs the process
    /// span collector at startup and, at shutdown, writes one merged trace
    /// covering its own spans and the flight recorder's simulated per-step
    /// schedule — host time on pid 2, pulse time on pid 1, never mixed.
    pub trace_out: Option<PathBuf>,
    /// Flight-recorder capacity: how many recent query profiles the server
    /// retains for `PROFILES` and the shutdown trace (0 disables it).
    pub profile_history: usize,
    /// Let the cost-based planner choose the plan a query text compiles
    /// to on a plan-cache miss (`sdb serve --optimize on|off`); off keeps
    /// the checked tree. Either way the compiled plan is cached and a hit
    /// runs it as compiled. Every accepted rewrite is proven
    /// schema-preserving and never pulse-regressing by the planner, so
    /// result rows are byte-identical either way; only the pulse accounting
    /// (which prices the cheaper chosen plan) changes.
    pub optimize: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:4171".to_string(),
            workers: 32,
            max_pending: 32,
            machine: MachineConfig::default(),
            request_timeout: Duration::from_secs(30),
            max_request_bytes: 1 << 20,
            slow_query: Some(Duration::from_secs(1)),
            data_dir: None,
            pool_pages: 256,
            trace_out: None,
            profile_history: 64,
            optimize: true,
        }
    }
}

/// Live durability gauges the machine's turns maintain and `STATS` reads.
#[derive(Debug, Default)]
pub(crate) struct DurableStats {
    /// Current WAL file length in bytes (drops to 0 at a checkpoint).
    pub(crate) wal_bytes: AtomicU64,
    /// Logical records in the durable history (checkpoint + WAL).
    pub(crate) wal_records: AtomicU64,
    /// Checkpoints taken since startup.
    pub(crate) checkpoints: AtomicU64,
    /// Records replayed during startup recovery.
    pub(crate) recovered: AtomicU64,
}

/// Monotonic service counters, shared by every worker.
///
/// One mutex guards the whole set, so a concurrent `STATS` probe (or the
/// final report) always reads a consistent snapshot, never the torn view
/// independent atomics would allow.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    state: Mutex<CounterState>,
}

/// The counter fields; [`Counters::snapshot`] returns a copy of this.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct CounterState {
    pub(crate) queries: u64,
    pub(crate) loads: u64,
    pub(crate) refused: u64,
    pub(crate) timeouts: u64,
    pub(crate) slow_queries: u64,
    pub(crate) queue_hwm: u64,
    pub(crate) rewrites: u64,
    pub(crate) plan_cache_hits: u64,
}

impl Counters {
    /// Apply one mutation atomically with respect to snapshots.
    pub(crate) fn update(&self, f: impl FnOnce(&mut CounterState)) {
        f(&mut locks::lock(&self.state));
    }

    /// A consistent copy of every counter.
    pub(crate) fn snapshot(&self) -> CounterState {
        *locks::lock(&self.state)
    }
}

/// A snapshot of service counters, returned when the server exits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerReport {
    /// Queries answered (including failed ones).
    pub queries: u64,
    /// Tables loaded.
    pub loads: u64,
    /// Connections refused because the pool was full.
    pub refused: u64,
    /// Requests that hit the per-request timeout.
    pub timeouts: u64,
    /// High-water mark of the connection wait queue.
    pub queue_hwm: u64,
    /// Queries slower than the slow-query threshold.
    pub slow_queries: u64,
    /// Planner rewrites accepted across all compiled queries.
    pub rewrites: u64,
    /// Queries whose compiled plan came from the plan cache.
    pub plan_cache_hits: u64,
}

pub(crate) struct Shared {
    pub(crate) store: RwLock<Store>,
    pub(crate) counters: Counters,
    pub(crate) metrics: ServerMetrics,
    pub(crate) active: AtomicUsize,
    pub(crate) cfg: ServerConfig,
    pub(crate) stop: AtomicBool,
    /// The machine: held by one worker at a time, the one whose turn it
    /// is. It does not recover from poisoning: after a panic during a turn,
    /// every later request is answered `ERR shutting_down` instead of
    /// running.
    pub(crate) machine: Mutex<Machine>,
    /// The workers waiting for their turn on the machine, and whether one
    /// holds it.
    pub(crate) turns: Turns,
    pub(crate) started: Instant,
    /// Relation-name lock table: `LOAD` and `store(...)` take exclusive
    /// locks, scans take shared ones, so a concurrent reader can never
    /// observe a partially-loaded relation.
    pub(crate) lock_table: LockTable,
    /// Durability gauges, present when `cfg.data_dir` is set.
    pub(crate) durable: Option<Arc<DurableStats>>,
    /// The always-on ring of recent query profiles (`PROFILES`, the
    /// slow-query dump, the shutdown trace's simulated track).
    pub(crate) recorder: FlightRecorder,
    /// Compiled-plan cache: query text → its [`Compiled`] plan, valid while
    /// the catalog entries of the names it reads and writes are the ones it
    /// was compiled against ([`Compiled::is_current`]). Plans that write
    /// are never admitted: running one registers its target, so its text
    /// could only ever be refused (SA008) again.
    pub(crate) plan_cache: Mutex<HashMap<String, Arc<Compiled>>>,
}

/// Entries the plan cache holds before it is wholesale cleared. Compiling a
/// plan is microseconds, so an occasional cold restart is cheaper than
/// tracking recency.
const PLAN_CACHE_CAP: usize = 1024;

impl Shared {
    pub(crate) fn new(cfg: ServerConfig) -> io::Result<Self> {
        let system = System::new(cfg.machine.clone()).map_err(io::Error::other)?;
        let metrics = ServerMetrics::new();
        metrics.backend_info(cfg.machine.backend.label()).inc();
        let durable = cfg
            .data_dir
            .as_ref()
            .map(|_| Arc::new(DurableStats::default()));
        let recorder = FlightRecorder::new(cfg.profile_history);
        Ok(Shared {
            store: RwLock::new(Store::new()),
            counters: Counters::default(),
            metrics,
            active: AtomicUsize::new(0),
            cfg,
            stop: AtomicBool::new(false),
            machine: Mutex::new(Machine {
                system,
                durable: None,
            }),
            turns: Turns::default(),
            started: Instant::now(),
            lock_table: LockTable::new(),
            durable,
            recorder,
            plan_cache: Mutex::new(HashMap::new()),
        })
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || shutdown::signalled()
    }

    /// Count one request that hit the request timeout, in `STATS` and in
    /// `sdb_server_timeouts_total` alike.
    pub(crate) fn count_timeout(&self) {
        self.counters.update(|c| c.timeouts += 1);
        self.metrics.timeouts.inc();
    }

    fn report(&self) -> ServerReport {
        let c = self.counters.snapshot();
        ServerReport {
            queries: c.queries,
            loads: c.loads,
            refused: c.refused,
            timeouts: c.timeouts,
            queue_hwm: c.queue_hwm,
            slow_queries: c.slow_queries,
            rewrites: c.rewrites,
            plan_cache_hits: c.plan_cache_hits,
        }
    }
}

/// Accepted connections waiting for a worker.
#[derive(Default)]
struct ConnQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
}

#[derive(Default)]
struct QueueInner {
    conns: VecDeque<(TcpStream, Instant)>,
    closed: bool,
}

impl ConnQueue {
    /// Enqueue a connection (stamped with its arrival time, so the worker
    /// that picks it up can record the queue wait) and return the new depth.
    fn push(&self, stream: TcpStream) -> usize {
        let mut inner = locks::lock(&self.inner);
        inner.conns.push_back((stream, Instant::now()));
        let depth = inner.conns.len();
        drop(inner);
        self.ready.notify_one();
        depth
    }

    /// Next connection plus its enqueue time, blocking; `None` once closed
    /// *and* drained, so connections queued before shutdown still get
    /// served (and refused politely).
    fn pop(&self) -> Option<(TcpStream, Instant)> {
        let mut inner = locks::lock(&self.inner);
        loop {
            if let Some(entry) = inner.conns.pop_front() {
                return Some(entry);
            }
            if inner.closed {
                return None;
            }
            inner = locks::wait(&self.ready, inner);
        }
    }

    fn close(&self) {
        locks::lock(&self.inner).closed = true;
        self.ready.notify_all();
    }

    fn len(&self) -> usize {
        locks::lock(&self.inner).conns.len()
    }
}

/// A running server spawned in the background (the programmatic API; tests
/// and the throughput bench use this).
pub struct ServerHandle {
    /// The bound address — with `addr: "127.0.0.1:0"` this is where the
    /// kernel actually put the listener.
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    join: thread::JoinHandle<io::Result<ServerReport>>,
}

impl ServerHandle {
    /// Ask the server to drain and exit (what SIGTERM does to `run`).
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Wait for the server to exit and return its counter snapshot.
    pub fn join(self) -> io::Result<ServerReport> {
        self.join
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// Bind and serve in a background thread, returning immediately.
pub fn spawn(config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared::new(config)?);
    let serve_shared = Arc::clone(&shared);
    let join = thread::Builder::new()
        .name("systolic-serve".to_string())
        .spawn(move || serve_on(listener, serve_shared, || ()))?;
    Ok(ServerHandle { addr, shared, join })
}

/// Bind and serve on the calling thread until SIGINT/SIGTERM (the `sdb
/// serve` path). Prints a `listening on <addr>` line once ready — after
/// crash recovery has replayed the log, so a client connecting on that cue
/// sees the fully recovered catalog — and a summary line on shutdown.
pub fn run(config: ServerConfig) -> io::Result<ServerReport> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    shutdown::install();
    let shared = Arc::new(Shared::new(config)?);
    let report = serve_on(listener, Arc::clone(&shared), move || {
        println!("listening on {addr}");
        let _ = io::stdout().flush();
    })?;
    println!(
        "shutdown: {} queries, {} loads, {} refused, {} timeouts",
        report.queries, report.loads, report.refused, report.timeouts,
    );
    Ok(report)
}

fn serve_on(
    listener: TcpListener,
    shared: Arc<Shared>,
    ready: impl FnOnce(),
) -> io::Result<ServerReport> {
    listener.set_nonblocking(true)?;
    // Tracing on: install the process-global collector before any request
    // runs.
    let trace_collector = shared
        .cfg
        .trace_out
        .as_ref()
        .map(|_| systolic_telemetry::install());
    // Crash recovery happens before `ready()` fires and before any frame is
    // answered: open the durable engine, back the machine's disks with its
    // paged store, and redo the logged history in its original order.
    if let Some(dir) = &shared.cfg.data_dir {
        let mut machine = shared
            .machine
            .lock()
            .expect("no request has reached the machine yet");
        let (engine, records, report) =
            StorageEngine::open_with(dir, shared.cfg.pool_pages).map_err(io::Error::other)?;
        machine.system.attach_storage(&engine.blobs());
        replay(&shared, &mut machine.system, &records);
        let stats = shared
            .durable
            .as_ref()
            .expect("durable stats exist when data_dir is set");
        stats.wal_bytes.store(engine.wal_bytes(), Ordering::SeqCst);
        stats
            .wal_records
            .store(engine.wal_records() as u64, Ordering::SeqCst);
        stats.recovered.store(
            (report.checkpoint_records + report.wal_records) as u64,
            Ordering::SeqCst,
        );
        machine.durable = Some(scheduler::Durable {
            engine,
            stats: Arc::clone(stats),
        });
    }
    ready();
    let mut front_err: Option<io::Error> = None;
    thread::scope(|scope| {
        if let Err(e) = accept_loop(scope, &listener, &shared) {
            shared.stop.store(true, Ordering::SeqCst);
            front_err = Some(e);
        }
    });
    if let (Some(path), Some(collector)) = (&shared.cfg.trace_out, trace_collector) {
        systolic_telemetry::uninstall();
        let trace = profile::server_trace(&collector.drain(), &shared.recorder.profiles());
        if let Err(e) = trace.write_to(path) {
            eprintln!("trace-out: failed to write {}: {e}", path.display());
        }
    }
    match front_err {
        Some(e) => Err(e),
        None => Ok(shared.report()),
    }
}

/// Redo the durable history against a fresh system: loads re-register and
/// re-intern in original order (so §2.3 dictionary codes — and therefore
/// every rendered result — come out identical to the pre-crash server), and
/// logged `store(...)` queries re-run to rebuild their disk write-backs.
/// Individual record failures are logged and skipped: a deterministic
/// failure now also failed before the crash, so skipping reproduces the
/// pre-crash state.
fn replay(shared: &Shared, system: &mut System, records: &[WalRecord]) {
    for record in records {
        match record {
            WalRecord::Load { name, kinds, csv } => {
                let parsed: Option<Vec<DomainKind>> =
                    kinds.iter().map(|k| DomainKind::parse(k)).collect();
                let Some(parsed) = parsed else {
                    eprintln!("recovery: load {name:?} has unknown column kinds; skipped");
                    continue;
                };
                let rel = match locks::write(&shared.store).register(name, &parsed, csv) {
                    Ok(rel) => rel,
                    Err(e) => {
                        eprintln!("recovery: load {name:?} failed to re-register: {e}");
                        continue;
                    }
                };
                system.load_base(name.clone(), rel);
            }
            WalRecord::Query { text } => {
                // Only queries with store(...) side effects are logged; the
                // run rebuilds the write-back. Errors were deterministic
                // before the crash too.
                // Its targets enter the catalog as they did when it ran.
                let mut store = locks::write(&shared.store);
                let (plan, analysis) =
                    match engine::compile_logged(text, store.view(), &shared.cfg.machine) {
                        Ok(compiled) => compiled,
                        Err(e) => {
                            eprintln!("recovery: logged query failed to parse: {e}");
                            continue;
                        }
                    };
                match system.run_plan(&plan) {
                    Ok(out) => match analysis {
                        Some(analysis) => store.register_stored(&plan, &analysis, &out.step_rows),
                        None => eprintln!("recovery: logged query no longer analyzes"),
                    },
                    Err(e) => eprintln!("recovery: logged query failed to re-run: {e}"),
                }
            }
            WalRecord::Checkpoint => {}
        }
    }
}

/// The front end: a connection queue feeding thread-per-connection
/// workers. Returns when the stop flag is raised (or with the fatal
/// listener error), after closing the queue so workers drain and exit.
fn accept_loop<'scope>(
    scope: &'scope thread::Scope<'scope, '_>,
    listener: &TcpListener,
    shared: &Arc<Shared>,
) -> io::Result<()> {
    let queue = Arc::new(ConnQueue::default());
    let workers = shared.cfg.workers.max(1);
    for _ in 0..workers {
        let queue = Arc::clone(&queue);
        let shared = Arc::clone(shared);
        scope.spawn(move || worker_loop(&queue, &shared));
    }
    let mut result = Ok(());
    loop {
        if shared.stopping() {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let busy = shared.active.load(Ordering::SeqCst) + queue.len();
                if busy >= workers + shared.cfg.max_pending {
                    shared.counters.update(|c| c.refused += 1);
                    shared.metrics.refused.inc();
                    refuse(stream);
                } else {
                    let depth = queue.push(stream) as u64;
                    shared.metrics.queue_depth.set(depth as f64);
                    shared.metrics.queue_depth_hwm.set_max(depth as f64);
                    shared
                        .counters
                        .update(|c| c.queue_hwm = c.queue_hwm.max(depth));
                }
            }
            // Nonblocking "nothing to accept" is `WouldBlock` on Unix
            // but `TimedOut` on some platforms — treat both as idle.
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                shared.stop.store(true, Ordering::SeqCst);
                result = Err(e);
                break;
            }
        }
    }
    queue.close();
    result
}

fn refuse(mut stream: TcpStream) {
    let frame = err_frame("overloaded", "server is at capacity");
    let _ = stream.write_all(&Reply::closing(frame).into_wire());
}

fn worker_loop(queue: &ConnQueue, shared: &Shared) {
    while let Some((stream, enqueued)) = queue.pop() {
        shared.metrics.queue_depth.set(queue.len() as f64);
        record_between("server.queue_wait", None, enqueued, Instant::now());
        shared.active.fetch_add(1, Ordering::SeqCst);
        let _ = serve_conn(stream, shared);
        shared.active.fetch_sub(1, Ordering::SeqCst);
    }
}

fn engine_err_frame(err: &EngineError) -> String {
    match err {
        EngineError::Parse { err, query } => parse_err_frame(err, query),
        EngineError::Relation(e) => err_frame("relation", &e.to_string()),
        EngineError::Machine(e) => err_frame("machine", &e.to_string()),
        EngineError::Analysis { diags, query } => analysis_err_frame(diags, query),
    }
}

/// The frames answering one request, and whether the connection should be
/// closed after writing them.
struct Reply {
    /// Response frames, in order (a `QUERY` answers with `RESULT` + `HOST`).
    frames: Vec<String>,
    /// Close the connection after the frames are written.
    close: bool,
}

impl Reply {
    fn frame(frame: String) -> Reply {
        Reply {
            frames: vec![frame],
            close: false,
        }
    }

    fn closing(frame: String) -> Reply {
        Reply {
            frames: vec![frame],
            close: true,
        }
    }

    /// The reply as it goes on the wire — every frame and its newline in one
    /// buffer, so the socket gets a whole reply at a time (with
    /// `TCP_NODELAY`, a write is a segment). The buffer is the first
    /// frame's own: a `RESULT` is not copied again to be sent.
    fn into_wire(self) -> Vec<u8> {
        let mut frames = self.frames.into_iter();
        let mut bytes = frames.next().map(String::into_bytes).unwrap_or_default();
        bytes.push(b'\n');
        for frame in frames {
            bytes.extend_from_slice(frame.as_bytes());
            bytes.push(b'\n');
        }
        bytes
    }
}

/// Serve one request line on the connection's worker thread. Blocking is
/// allowed here: the worker waits on locks and for its turn on the machine.
fn handle_request(shared: &Shared, line: &str) -> Reply {
    let request = match parse_request(line) {
        Ok(request) => request,
        Err(msg) => return Reply::frame(err_frame("proto", &msg)),
    };
    match request {
        Request::Close => Reply::closing("BYE".to_string()),
        Request::Shutdown => {
            shared.stop.store(true, Ordering::SeqCst);
            Reply::closing("BYE".to_string())
        }
        Request::Stats => Reply::frame(stats_frame(shared)),
        // Like STATS: observability stays answerable while draining.
        Request::Metrics => Reply::frame(metrics_frame(
            &shared.metrics.exposition(shared.turns.waiting()),
        )),
        Request::Profiles => Reply::frame(profiles_frame(&shared.recorder.dump_json())),
        _ if shared.stopping() => Reply::frame(err_frame(
            "shutting_down",
            "server is draining; no new work",
        )),
        Request::Load { name, kinds, csv } => {
            Reply::frame(handle_load(shared, &name, &kinds, &csv))
        }
        Request::Query(query) => respond_query(shared, &query, false),
        Request::Profile(query) => respond_query(shared, &query, true),
        Request::Checkpoint => Reply::frame(handle_checkpoint(shared)),
    }
}

/// Answer a `CHECKPOINT`: snapshot the history and reset the log, on the
/// machine (which owns the WAL) in turn order. A checkpoint that times out
/// waiting for its turn is skipped whole.
fn handle_checkpoint(shared: &Shared) -> String {
    if shared.cfg.data_dir.is_none() {
        return err_frame("not_durable", "server is running without --data-dir");
    }
    match scheduler::checkpoint(shared) {
        Fenced::Answered(Ok((records, bytes))) => checkpointed_frame(records, bytes),
        Fenced::Answered(Err(detail)) => err_frame("storage", &detail),
        Fenced::TimedOut => err_frame("timeout", "checkpoint timed out"),
        Fenced::Gone => err_frame("shutting_down", MACHINE_GONE),
    }
}

/// The `ERR shutting_down` detail for a request a failed machine refused.
const MACHINE_GONE: &str = "the machine failed and runs no more requests";

/// Answer a `QUERY`, or with `profiled` a `PROFILE`, under the request
/// span, latency histogram, flight recorder, and slow-query log.
fn respond_query(shared: &Shared, query: &str, profiled: bool) -> Reply {
    let started = Instant::now();
    // A fresh trace per request: concurrent clients never share a trace id.
    let mut span = root_span("server.request");
    span.arg("query", query);
    let trace = span.ctx();
    let (frames, profile) = handle_query(shared, query, trace, profiled);
    drop(span);
    let elapsed = started.elapsed();
    shared.metrics.latency.observe(elapsed.as_nanos() as u64);
    let trace_id = trace.map_or(0, |c| c.trace_id);
    // Every query — not just `PROFILE` — feeds the flight recorder, and
    // failures are recorded (and dumped) too: post-hoc diagnosis must not
    // require reproduction.
    let failed = frames.first().is_some_and(|f| f.starts_with("ERR "));
    let recorded = match profile {
        Some(p) => Some(p),
        None if failed => Some(QueryProfile::error(
            query,
            trace_id,
            shared.cfg.machine.backend.label(),
            &frames[0],
        )),
        None => None,
    };
    let slow = slow_query_line(query, elapsed, shared.cfg.slow_query, trace_id);
    if let Some(p) = recorded {
        if failed || slow.is_some() {
            eprintln!("flight-recorder: {}", p.to_json());
        }
        shared.recorder.record(p);
    }
    if let Some(line) = slow {
        shared.counters.update(|c| c.slow_queries += 1);
        shared.metrics.slow_queries.inc();
        eprintln!("{line}");
    }
    Reply {
        frames,
        close: false,
    }
}

/// Write `bytes` to the client. A client that stops reading its replies
/// fills the socket buffer; a write still blocked after the request timeout
/// is counted as a timeout and fails, so the caller drops the connection
/// and frees its worker.
fn send(stream: &mut TcpStream, shared: &Shared, bytes: &[u8]) -> io::Result<()> {
    let sent = stream.write_all(bytes);
    if let Err(e) = &sent {
        if matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ) {
            shared.count_timeout();
        }
    }
    sent
}

fn serve_conn(mut stream: TcpStream, shared: &Shared) -> io::Result<()> {
    // Short read timeout: between frames every session polls the stop flag,
    // so shutdown drains idle connections instead of hanging on them. A
    // reply may block its write no longer than a request may take.
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    stream.set_write_timeout(Some(shared.cfg.request_timeout))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut partial = Vec::new();
    // When the frame now in `partial` was first seen. A connection idle
    // between frames may stay open; one that stops mid-frame may not hold
    // its worker past the request timeout.
    let mut frame_started: Option<Instant> = None;
    loop {
        let line = match read_frame(&mut reader, &mut partial, shared.cfg.max_request_bytes)? {
            FrameRead::Pending => {
                if shared.stopping() {
                    send(&mut stream, shared, b"BYE\n")?;
                    return Ok(());
                }
                if partial.is_empty() {
                    continue;
                }
                let started = *frame_started.get_or_insert_with(Instant::now);
                if started.elapsed() >= shared.cfg.request_timeout {
                    shared.count_timeout();
                    let frame =
                        err_frame("timeout", "frame not finished within the request timeout");
                    send(&mut stream, shared, &Reply::closing(frame).into_wire())?;
                    return Ok(());
                }
                continue;
            }
            FrameRead::Closed => return Ok(()),
            FrameRead::TooLong => {
                // Framing is lost once we stop mid-line; report and hang up.
                let frame = err_frame(
                    "too_large",
                    &format!("frame exceeds {} bytes", shared.cfg.max_request_bytes),
                );
                send(&mut stream, shared, &Reply::closing(frame).into_wire())?;
                return Ok(());
            }
            FrameRead::Frame(line) => {
                frame_started = None;
                line
            }
        };
        let reply = handle_request(shared, &line);
        let close = reply.close;
        send(&mut stream, shared, &reply.into_wire())?;
        if close {
            return Ok(());
        }
    }
}

fn stats_frame(shared: &Shared) -> String {
    let tables = locks::read(&shared.store).table_count();
    let report = shared.report();
    // The one shared reading of the latency histogram: `STATS` and the
    // profile output render the same digits by construction.
    let lat = QuantileSummary::from_histogram(&shared.metrics.latency);
    let (durable, wal_records, wal_bytes, checkpoints, recovered) = match &shared.durable {
        Some(d) => (
            1,
            d.wal_records.load(Ordering::SeqCst),
            d.wal_bytes.load(Ordering::SeqCst),
            d.checkpoints.load(Ordering::SeqCst),
            d.recovered.load(Ordering::SeqCst),
        ),
        None => (0, 0, 0, 0, 0),
    };
    // Clients key on names; new fields are appended.
    format!(
        "STATS tables={tables} queries={} loads={} refused={} \
         timeouts={} active={} uptime_ms={} queue_hwm={} slow={} lat_p50_ns={} \
         lat_p95_ns={} lat_p99_ns={} lat_count={} backend={} \
         durable={durable} wal_records={wal_records} \
         wal_bytes={wal_bytes} checkpoints={checkpoints} recovered={recovered} \
         optimize={optimize} rewrites={} plan_cache_hits={}",
        report.queries,
        report.loads,
        report.refused,
        report.timeouts,
        shared.active.load(Ordering::SeqCst),
        shared.started.elapsed().as_millis(),
        report.queue_hwm,
        report.slow_queries,
        lat.p50,
        lat.p95,
        lat.p99,
        lat.count,
        shared.cfg.machine.backend.label(),
        report.rewrites,
        report.plan_cache_hits,
        optimize = u8::from(shared.cfg.optimize),
    )
}

/// The slow-query log line, if `elapsed` reaches the threshold. Carries the
/// request's trace id (0 when tracing is off) so log lines join against
/// Chrome traces and flight-recorder profiles.
fn slow_query_line(
    query: &str,
    elapsed: Duration,
    threshold: Option<Duration>,
    trace_id: u64,
) -> Option<String> {
    let threshold = threshold?;
    if elapsed < threshold {
        return None;
    }
    Some(format!(
        "slow-query: {:.3}ms (threshold {}ms) trace={trace_id} {query}",
        elapsed.as_secs_f64() * 1e3,
        threshold.as_millis(),
    ))
}

fn valid_table_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn handle_load(
    shared: &Shared,
    name: &str,
    kinds: &[systolic_relation::DomainKind],
    csv: &str,
) -> String {
    if !valid_table_name(name) {
        return err_frame(
            "proto",
            &format!("bad table name {name:?}: letters, digits, underscores"),
        );
    }
    // Exclusive relation lock for the whole load: a concurrent query
    // scanning this name blocks until the relation is fully registered,
    // loaded, and acknowledged — it can never observe a partial load.
    let _lock = shared.lock_table.acquire(name, LockMode::Exclusive);
    // Register under the write lock, then load the encoded relation onto
    // the machine's disk on this request's turn. The registration is
    // speculative until the load is acknowledged: if we time out waiting
    // for the turn, the load never runs and we unregister — catalog and
    // machine stay in step with what the client was told.
    let rel = {
        let mut store = locks::write(&shared.store);
        if store.has_table(name) {
            return err_frame("conflict", &format!("table {name:?} already exists"));
        }
        match store.register(name, kinds, csv) {
            Ok(rel) => rel,
            Err(e) => return engine_err_frame(&e),
        }
    };
    let (kind, detail) = match scheduler::load(shared, name, rel, kinds, csv) {
        Fenced::Answered(rows) => return loaded_frame(name, rows),
        Fenced::TimedOut => ("timeout", "load timed out"),
        Fenced::Gone => ("shutting_down", MACHINE_GONE),
    };
    // The relation never reached the machine: undo the speculative catalog
    // registration to match.
    locks::write(&shared.store).unregister(name);
    err_frame(kind, detail)
}

/// The compiled plan of `query` against `view`: the cached one while it
/// [is current](Compiled::is_current) — no parse, analysis or compile —
/// else a fresh [`engine::compile`], admitted to the cache unless it
/// writes. The validity check reads only the catalog entries of the names
/// the query reads and writes, so a `LOAD` re-plans exactly the queries
/// that name the loaded table, at O(names in the query), not O(tables).
fn compile_cached(
    shared: &Shared,
    query: &str,
    view: &CatalogView,
) -> Result<Arc<Compiled>, EngineError> {
    let cached = locks::lock(&shared.plan_cache).get(query).cloned();
    if let Some(compiled) = cached.filter(|c| c.is_current(view)) {
        shared.metrics.plan_cache_hits.inc();
        shared.counters.update(|c| c.plan_cache_hits += 1);
        return Ok(compiled);
    }
    let compiled = engine::compile(query, view, &shared.cfg.machine, shared.cfg.optimize)?;
    shared.metrics.plan_cache_misses.inc();
    for event in &compiled.rewrites {
        shared
            .metrics
            .rewrite_hits(event.rule)
            .add(event.sites as u64);
    }
    shared
        .counters
        .update(|c| c.rewrites += compiled.rewrites.len() as u64);
    if compiled.writes.is_empty() {
        let mut cache = locks::lock(&shared.plan_cache);
        if cache.len() >= PLAN_CACHE_CAP {
            cache.clear();
        }
        cache.insert(query.to_string(), Arc::clone(&compiled));
    }
    Ok(compiled)
}

/// Answer one query: the `RESULT` (or `ERR`) frame, the `PROFILE` frame
/// when `profiled`, and the `HOST` frame on success — plus the built
/// [`QueryProfile`] for the flight recorder.
fn handle_query(
    shared: &Shared,
    query: &str,
    trace: Option<TraceCtx>,
    profiled: bool,
) -> (Vec<String>, Option<QueryProfile>) {
    // Static analysis before the machine: a query that cannot execute
    // (typo'd relation, type error, capacity overflow, ...) never takes a
    // turn, and the client gets a stable SA00N code with carets instead of
    // a mid-run machine error.
    //
    // Admission reads the store's live view under one read guard, dropped
    // before the relation locks and the machine's turn below
    // (`handle_load` takes a relation lock, then the store's write guard:
    // holding the guard across relation locks could deadlock). The
    // compiled plan's analysis predates the run, which may register
    // `store(...)` targets and change what the analyzer would say.
    let compiled = match compile_cached(shared, query, locks::read(&shared.store).view()) {
        Ok(compiled) => compiled,
        Err(e) => return (vec![engine_err_frame(&e)], None),
    };
    // Relation locks for the whole request: shared on every scanned name,
    // exclusive on every `store(...)` target. All-or-nothing acquisition
    // (sorted, no hold-and-wait) keeps concurrent sessions deadlock-free,
    // and a reader can never interleave with a load or store of its input.
    let reads = compiled.reads.iter().map(|n| (n.clone(), LockMode::Shared));
    let writes = compiled
        .writes
        .iter()
        .map(|n| (n.clone(), LockMode::Exclusive));
    let lock_started = Instant::now();
    let _lock = shared.lock_table.acquire_all(reads.chain(writes).collect());
    let lock_wait_ns = lock_started.elapsed().as_nanos() as u64;
    let finish = |result: String, reply: &scheduler::QueryReply, rows: u64| {
        let built = profile::build(
            query,
            trace.map_or(0, |c| c.trace_id),
            shared.cfg.machine.backend.label(),
            &compiled.analysis,
            &compiled.plan,
            reply,
            rows,
            lock_wait_ns,
            QuantileSummary::from_histogram(&shared.metrics.latency),
        );
        let mut frames = vec![result];
        if profiled {
            frames.push(profile_frame(&built.to_json()));
        }
        frames.push(host_frame(reply.host_wall_ns));
        (frames, Some(built))
    };
    let reply = match scheduler::run_query(shared, &compiled, query, trace) {
        Fenced::Answered(reply) => reply,
        // Never ran — no `store(...)` side effects.
        Fenced::TimedOut => return (vec![err_frame("timeout", "query timed out")], None),
        Fenced::Gone => return (vec![err_frame("shutting_down", MACHINE_GONE)], None),
    };
    match reply {
        Ok((rows, reply)) => {
            // The write-backs are tables now, under the exclusive relation
            // locks still held on their names.
            if !compiled.writes.is_empty() {
                locks::write(&shared.store).register_stored(
                    &compiled.plan,
                    &compiled.analysis,
                    &reply.step_rows,
                );
            }
            // From bits to bytes: the host-side step the arrays leave to us.
            let mut span = span_in(trace, "server.render");
            span.arg("rows", rows.len());
            let result = {
                let store = locks::read(&shared.store);
                store.render_result_frame(&rows, &reply.stats)
            };
            match result {
                Ok(result) => {
                    span.arg("bytes", result.len());
                    drop(span);
                    finish(result, &reply, rows.len() as u64)
                }
                Err(e) => (vec![engine_err_frame(&e)], None),
            }
        }
        Err(machine_err) => (vec![err_frame("machine", &machine_err.to_string())], None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_names_are_validated() {
        assert!(valid_table_name("emp"));
        assert!(valid_table_name("_t2"));
        assert!(!valid_table_name(""));
        assert!(!valid_table_name("2fast"));
        assert!(!valid_table_name("a-b"));
        assert!(!valid_table_name("a b"));
    }

    #[test]
    fn requests_refused_before_the_machine_never_take_a_turn() {
        let shared = Shared::new(ServerConfig::default()).unwrap();
        let ask = |line: &str| {
            let reply = handle_request(&shared, line);
            assert_eq!(shared.counters.snapshot().queries, 0, "{line}: ran a query");
            assert_eq!(shared.counters.snapshot().loads, 0, "{line}: ran a load");
            assert_eq!(shared.turns.waiting(), 0, "{line}");
            reply.frames[0].clone()
        };
        assert!(ask("BOGUS").starts_with("ERR proto "));
        assert!(ask("QUERY scan(").starts_with("ERR parse "));
        assert!(ask("QUERY scan(ghost)").starts_with("ERR analysis "));
        assert!(ask("LOAD 2fast int 1").starts_with("ERR proto "));
        assert!(ask("LOAD t int x").starts_with("ERR relation "));
        assert!(ask("STATS").starts_with("STATS "));
        assert!(ask("PROFILES").starts_with("PROFILES"));
        assert!(ask("CHECKPOINT").starts_with("ERR not_durable "));
        assert_eq!(ask("CLOSE"), "BYE");
        shared.stop.store(true, Ordering::SeqCst);
        assert!(ask("QUERY scan(t)").starts_with("ERR shutting_down "));
        assert!(ask("LOAD t int 1").starts_with("ERR shutting_down "));
    }

    #[test]
    fn plans_that_write_are_never_cached() {
        let shared = Shared::new(ServerConfig::default()).unwrap();
        let ok = |line: &str| {
            let frame = handle_request(&shared, line).frames.remove(0);
            assert!(!frame.starts_with("ERR "), "{line}: {frame}");
        };
        ok("LOAD a int,int 1,2\\n3,4\\n1,2\\n");
        ok("QUERY dedup(scan(a))");
        for k in 0..8 {
            ok(&format!("QUERY store(dedup(scan(a)), out_{k})"));
            ok(&format!("QUERY union(scan(a), scan(out_{k}))"));
        }
        ok("QUERY dedup(scan(a))");
        let cache = locks::lock(&shared.plan_cache);
        assert_eq!(cache.len(), 9, "one read plan per read text");
        assert!(cache.contains_key("dedup(scan(a))"));
        assert!(cache.values().all(|c| c.writes.is_empty()));
        assert_eq!(shared.counters.snapshot().plan_cache_hits, 1);
        assert_eq!(shared.metrics.plan_cache_misses.get(), 17);
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = ServerConfig::default();
        assert!(cfg.workers >= 16, "must sustain 16 concurrent connections");
        assert!(cfg.max_request_bytes >= 1 << 20);
        assert!(cfg.slow_query.is_some(), "slow-query log on by default");
    }

    #[test]
    fn slow_query_log_respects_threshold_and_disable() {
        let q = "scan(emp)";
        let ms = Duration::from_millis;
        assert_eq!(slow_query_line(q, ms(999), Some(ms(1000)), 0), None);
        assert_eq!(slow_query_line(q, ms(999), None, 7), None);
        let line = slow_query_line(q, ms(1500), Some(ms(1000)), 42).unwrap();
        assert!(line.starts_with("slow-query: "));
        assert!(line.contains("1500.000ms"));
        assert!(line.contains("(threshold 1000ms)"));
        assert!(line.contains("trace=42"), "{line}");
        assert!(line.ends_with(q));
    }

    #[test]
    fn counter_snapshots_are_consistent_under_concurrent_updates() {
        // Every update bumps queries and loads together under the one lock;
        // a snapshot must never observe them apart.
        let counters = Arc::new(Counters::default());
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let counters = Arc::clone(&counters);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    counters.update(|c| {
                        c.queries += 1;
                        c.loads += 1;
                    });
                }
            })
        };
        for _ in 0..1000 {
            let snap = counters.snapshot();
            assert_eq!(snap.queries, snap.loads, "torn counter snapshot");
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }
}
