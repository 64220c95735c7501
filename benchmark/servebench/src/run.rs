//! One benchmark run of one workload: set-up, the untraced timed window, the
//! answer and durability checks and — when tracing — the `PROFILE` passes
//! and the in-process layer probe.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use crate::child::Server;
use crate::gen::{self, render_rows, Inputs, Op, OpStream, Workload, ROUND};
use crate::oracle::Db;
use crate::procfs;
use crate::scrape::{self, number_after, Delta, Samples};
use crate::spec::PER_LAYER;
use crate::stats::{self, Sample};
use crate::trace::{self, Recorder};
use crate::wire::Conn;

/// Where the binaries are and where output goes.
#[derive(Debug, Clone)]
pub struct Env {
    /// The `sdb` binary under test.
    pub sdb: PathBuf,
    /// The `layerprobe` binary, when it built against this tree.
    pub probe: Option<PathBuf>,
    /// `benchmark/out`: traces, results, server logs, durable data.
    pub out: PathBuf,
}

/// How one run is shaped.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Also run the traced passes and report per-layer metrics.
    pub trace: bool,
    /// Set-ups to time; `setup_s` is their median.
    pub setups: usize,
}

/// The timed window is cut into this many slices; timings are medians over
/// slices, so one disturbed slice does not move them.
const SLICES: usize = 4;

/// The `PROFILE` pass stops after this many ops or this share of the window
/// length, whichever comes first.
const PROFILE_OPS: usize = 500;
const PROFILE_SHARE: f64 = 0.3;

/// What a run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload.
    pub workload: Workload,
    /// Ops attempted: every timed op, every reference and durability check.
    pub attempted: u64,
    /// Ops that failed: `ERR` frames, answers that differ from a reference,
    /// timeouts, dropped connections, acked writes missing after restart.
    pub failed: u64,
    /// End-to-end metrics by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (empty unless traced).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Sample counts and sizing remarks, printed with the metrics.
    pub notes: Vec<String>,
}

/// A server that finished set-up, and the warm-up `RESULT` frame of each
/// distinct query.
struct Live {
    server: Server,
    data_dir: Option<PathBuf>,
    reference: Vec<String>,
}

#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A write the client saw acknowledged: the relation and the CSV data lines
/// it must still hold after a crash.
struct Acked {
    name: String,
    body: String,
    /// Written by `store(...)`. The server does not enter a store target in
    /// its catalog (`scan` of one is `ERR analysis SA007`, before a crash as
    /// after), so these are checked through the recovered-record count.
    stored: bool,
}

/// The server's own account of one `PROFILE`d query.
#[derive(Debug, Clone, Copy)]
struct Profile {
    queue_wait_ns: u64,
    lock_wait_ns: u64,
    host_ns: u64,
}

/// One op as a client saw it.
struct OpRecord {
    client: usize,
    /// Which op of the workload this was: see [`Plan::kind`].
    kind: usize,
    write: bool,
    ok: bool,
    sample: Sample,
    /// Under `PROFILE`: the (first) query's profile.
    profile: Option<Profile>,
}

/// What the clients did during a pass.
#[derive(Default)]
struct PassLog {
    ops: Vec<OpRecord>,
    tally: Tally,
    /// Queries answered (a round counts [`ROUND`]) plus writes acknowledged.
    done: u64,
    acked: Vec<Acked>,
}

impl PassLog {
    fn samples(&self, write: bool) -> Vec<Sample> {
        self.ops
            .iter()
            .filter(|o| o.write == write)
            .map(|o| o.sample)
            .collect()
    }
}

fn csv_of(frame: &str) -> Option<&str> {
    frame.split_once(" csv=").map(|(_, csv)| csv)
}

/// CSV data lines of a `RESULT` frame: header dropped, unescaped.
fn body_of(frame: &str) -> Option<String> {
    let csv = scrape::unescape(csv_of(frame)?);
    Some(csv.split_once('\n')?.1.to_string())
}

fn profile_of(profile_frame: &str, host_frame: &str) -> Option<Profile> {
    Some(Profile {
        queue_wait_ns: number_after(profile_frame, "\"queue_wait_ns\":")?,
        lock_wait_ns: number_after(profile_frame, "\"lock_wait_ns\":")?,
        host_ns: number_after(host_frame, "HOST ns=")?,
    })
}

/// Everything a pass needs to send ops and check answers.
struct Plan<'a> {
    workload: Workload,
    inputs: &'a Inputs,
    /// Query text per id.
    texts: &'a [String],
    reference: &'a [String],
    seed: u64,
}

/// How a pass sends its queries.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Verb {
    /// `QUERY`: `RESULT` + `HOST`.
    Query,
    /// `PROFILE`: `RESULT` + `PROFILE` + `HOST`.
    Profile,
}

impl Verb {
    fn word(self) -> &'static str {
        match self {
            Verb::Query => "QUERY",
            Verb::Profile => "PROFILE",
        }
    }

    fn frames(self) -> usize {
        match self {
            Verb::Query => 2,
            Verb::Profile => 3,
        }
    }
}

/// The checked answer of one op.
struct Answer {
    ok: bool,
    profile: Option<Profile>,
}

impl Plan<'_> {
    /// Ops of one kind cost the same on an undisturbed host: a distinct
    /// query, a round around one array query, a `LOAD`, a `store`.
    fn kind(&self, op: &Op) -> usize {
        match op {
            Op::Query(id) => *id,
            // The fifth slot is the round's array query.
            Op::Round(ids) => ids[4],
            Op::Load { .. } => self.texts.len(),
            Op::Store { .. } => self.texts.len() + 1,
        }
    }

    /// Send one op, read its answer and check it against the warm-up
    /// reference. `Err` means the connection
    /// timed out or dropped and the stream position is lost.
    fn run_op(
        &self,
        conn: &mut Conn,
        op: &Op,
        verb: Verb,
        log: &mut PassLog,
    ) -> io::Result<Answer> {
        let (verb, frames_per_query) = (verb.word(), verb.frames());
        // An `ERR` answer is one frame; it fails the comparison below.
        let profile = |frames: &[String]| match frames {
            [_, profile, host] => profile_of(profile, host),
            _ => None,
        };
        match op {
            Op::Query(id) => {
                let frames = conn.call(&format!("{verb} {}", self.texts[*id]), frames_per_query)?;
                log.done += 1;
                Ok(Answer {
                    ok: frames[0] == self.reference[*id],
                    profile: profile(&frames),
                })
            }
            Op::Round(ids) => {
                let lines: Vec<String> = ids
                    .iter()
                    .map(|&id| format!("{verb} {}", self.texts[id]))
                    .collect();
                let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
                conn.send(&lines)?;
                let mut answer = Answer {
                    ok: true,
                    profile: None,
                };
                for &id in ids {
                    let frames = conn.recv_answer(frames_per_query)?;
                    answer.ok &= frames[0] == self.reference[id];
                    answer.profile = answer.profile.or(profile(&frames));
                }
                log.done += ROUND as u64;
                Ok(answer)
            }
            Op::Load { name, pool } => {
                let rows = &self.inputs.write_pool[*pool];
                let body = render_rows(rows);
                let frame = format!("LOAD {name} int,int {}", body.replace('\n', "\\n"));
                let reply = conn.call(&frame, 1)?;
                let ok = reply[0] == format!("LOADED {name} rows={}", rows.len());
                if ok {
                    log.done += 1;
                    log.acked.push(Acked {
                        name: name.clone(),
                        body,
                        stored: false,
                    });
                }
                Ok(Answer { ok, profile: None })
            }
            Op::Store { name, id } => {
                // A store's RESULT also prices the write-back, so only its
                // rows are compared with the stored query's reference.
                let text = format!("{verb} store({}, {name})", self.texts[*id]);
                let frames = conn.call(&text, frames_per_query)?;
                let ok = frames[0].starts_with("RESULT ")
                    && csv_of(&frames[0]) == csv_of(&self.reference[*id]);
                if ok {
                    log.done += 1;
                    let body = body_of(&frames[0]).unwrap_or_default();
                    log.acked.push(Acked {
                        name: name.clone(),
                        body,
                        stored: true,
                    });
                }
                Ok(Answer {
                    ok,
                    profile: profile(&frames),
                })
            }
        }
    }

    /// The closed loop of one client: next op only after the previous answer.
    fn client_loop(
        &self,
        addr: &str,
        client: usize,
        verb: Verb,
        barrier: &Barrier,
        stop: &(impl Fn(usize, Duration) -> bool + Sync),
    ) -> PassLog {
        let mut log = PassLog::default();
        let mut stream = OpStream::new(self.workload, self.inputs, self.seed, client);
        if verb == Verb::Profile {
            stream = stream.second_pass();
        }
        let conn = Conn::connect(addr);
        barrier.wait();
        let Ok(mut conn) = conn else {
            log.tally.check(false);
            return log;
        };
        let start = Instant::now();
        let mut n = 0;
        while !stop(n, start.elapsed()) {
            let op = stream.next_op();
            let sent = Instant::now();
            let answer = self.run_op(&mut conn, &op, verb, &mut log);
            let latency = sent.elapsed();
            n += 1;
            let ok = answer.as_ref().is_ok_and(|a| a.ok);
            log.tally.check(ok);
            log.ops.push(OpRecord {
                client,
                kind: self.kind(&op),
                write: matches!(op, Op::Load { .. } | Op::Store { .. }),
                ok,
                sample: Sample {
                    end_s: start.elapsed().as_secs_f64(),
                    latency_ms: latency.as_secs_f64() * 1e3,
                },
                profile: answer.as_ref().ok().and_then(|a| a.profile),
            });
            if answer.is_err() {
                break;
            }
        }
        log
    }

    /// Run every client's loop until `stop(ops so far, elapsed)` and merge
    /// the logs.
    fn pass(
        &self,
        addr: &str,
        verb: Verb,
        stop: impl Fn(usize, Duration) -> bool + Sync,
    ) -> PassLog {
        let clients = self.workload.clients();
        let barrier = Barrier::new(clients);
        let logs: Vec<PassLog> = thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|client| {
                    let (barrier, stop) = (&barrier, &stop);
                    scope.spawn(move || self.client_loop(addr, client, verb, barrier, stop))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut all = PassLog::default();
        for log in logs {
            all.ops.extend(log.ops);
            all.tally.add(log.tally);
            all.done += log.done;
            all.acked.extend(log.acked);
        }
        all
    }
}

/// `STATS` and `METRICS` as one sample set, and how long `METRICS` took.
fn scrape_server(conn: &mut Conn) -> io::Result<(Samples, Duration)> {
    let stats = conn.call("STATS", 1)?;
    let started = Instant::now();
    let metrics = conn.call("METRICS", 1)?;
    let took = started.elapsed();
    let mut samples = scrape::parse_metrics(&metrics[0])
        .ok_or_else(|| io::Error::other("METRICS frame did not parse"))?;
    samples.extend(
        scrape::parse_stats(&stats[0]).ok_or_else(|| io::Error::other("STATS did not parse"))?,
    );
    Ok((samples, took))
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// What `setup_s` times: spawn → ready line → every `LOAD` acknowledged →
/// one serial warm-up pass over every distinct query (which also records
/// the reference frames).
fn set_up(
    env: &Env,
    workload: Workload,
    flags: &[&str],
    inputs: &Inputs,
    texts: &[String],
    data_dir: Option<PathBuf>,
) -> io::Result<(Live, Duration)> {
    if let Some(dir) = &data_dir {
        let _ = fs::remove_dir_all(dir);
    }
    let log = env.out.join(format!("server_{}.log", workload.name()));
    let started = Instant::now();
    let server = Server::spawn(&env.sdb, flags, data_dir.as_deref(), &log)?;
    let mut conn = Conn::connect(&server.addr)?;
    conn.set_timeout(Duration::from_secs(60))?;
    for table in &inputs.tables {
        let reply = conn.call(&table.load_frame(), 1)?;
        let want = format!("LOADED {} rows={}", table.name, table.rows.len());
        if reply[0] != want {
            return Err(io::Error::other(format!("LOAD answered {:?}", reply[0])));
        }
    }
    let mut reference = Vec::with_capacity(texts.len());
    for text in texts {
        reference.push(conn.call(&format!("QUERY {text}"), 2)?.swap_remove(0));
    }
    let took = started.elapsed();
    Ok((
        Live {
            server,
            data_dir,
            reference,
        },
        took,
    ))
}

/// Re-query every acknowledged `LOAD` on a restarted server; returns how many
/// are missing or hold different rows.
fn verify_acked(addr: &str, acked: &[Acked]) -> u64 {
    let acked: Vec<&Acked> = acked.iter().filter(|a| !a.stored).collect();
    // Two connections, as in the window.
    let chunk = acked.len().div_ceil(2).max(1);
    thread::scope(|scope| {
        let handles: Vec<_> = acked
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let Ok(mut conn) = Conn::connect(addr) else {
                        return part.len() as u64;
                    };
                    let mut missing = 0;
                    for (k, write) in part.iter().enumerate() {
                        match conn.call(&format!("QUERY scan({})", write.name), 2) {
                            Ok(frames) => {
                                let same = body_of(&frames[0]).as_deref() == Some(&write.body);
                                missing += u64::from(!same);
                            }
                            // The rest cannot be asked on this connection.
                            Err(_) => return missing + (part.len() - k) as u64,
                        }
                    }
                    missing
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verifier panicked"))
            .sum()
    })
}

/// What the traced passes add to a run.
struct Traced {
    /// `(pulse_budget, actual pulses)` of each distinct query, from one
    /// serial `PROFILE` sweep.
    sweep: Vec<(u64, u64)>,
    /// The closed-loop `PROFILE` pass.
    pass: PassLog,
    pass_seconds: f64,
    /// `layerprobe`'s metrics, already under their per-layer names.
    probe: BTreeMap<String, f64>,
}

/// The traced passes, run after the untraced window on the same server:
/// (a) one serial `PROFILE` of every distinct query for the exact pulse
/// figures, (b) the same op stream again, closed loop, as `PROFILE` instead
/// of `QUERY`, for the server's own wait and run times, (c) `layerprobe`,
/// which replays the same inputs in process. Writes the Chrome trace.
fn traced_passes(
    env: &Env,
    plan: &Plan<'_>,
    addr: &str,
    control: &mut Conn,
    shape: Shape,
    notes: &mut Vec<String>,
) -> io::Result<Traced> {
    let mut sweep = Vec::with_capacity(plan.texts.len());
    for text in plan.texts {
        let frames = control.call(&format!("PROFILE {text}"), 3)?;
        let json = frames.get(1).map_or("", String::as_str);
        sweep.push((
            number_after(json, "\"pulse_budget\":").unwrap_or(0),
            number_after(json, "\"pulses\":").unwrap_or(0),
        ));
    }
    let clients = plan.workload.clients();
    let limit = Duration::from_secs_f64(shape.seconds * PROFILE_SHARE);
    let started = Instant::now();
    let pass = plan.pass(addr, Verb::Profile, |n, elapsed| {
        n >= PROFILE_OPS / clients || elapsed >= limit
    });
    let pass_seconds = started.elapsed().as_secs_f64();

    // The client's view: one span per op, the server's own waits beneath it.
    // The children's durations are the server's; their offsets inside the op
    // are not known from outside, so they are laid end to end from its start.
    let mut fragments = vec![trace::process_name_event(1, "client (PROFILE pass)")];
    for client in 0..clients {
        let mut rec = Recorder::new();
        for (k, op) in pass.ops.iter().filter(|o| o.client == client).enumerate() {
            rec.set_op(k as u64);
            let end = (op.sample.end_s * 1e9) as u64;
            let start = end.saturating_sub((op.sample.latency_ms * 1e6) as u64);
            let root = rec.add(
                if op.write {
                    "client.write"
                } else {
                    "client.query"
                },
                start,
                end,
                None,
            );
            if let Some(p) = op.profile {
                let lock_end = start + p.lock_wait_ns;
                let queue_end = lock_end + p.queue_wait_ns;
                rec.add("server.lock_wait", start, lock_end, Some(root));
                rec.add("server.queue_wait", lock_end, queue_end, Some(root));
                rec.add("server.host", queue_end, queue_end + p.host_ns, Some(root));
            }
        }
        fragments.push(rec.chrome_events(1, client as u32));
    }

    let mut probe = BTreeMap::new();
    match &env.probe {
        Some(bin) => {
            let events = env
                .out
                .join(format!("probe_events_{}.json", plan.workload.name()));
            let output = Command::new(bin)
                .args(["--workload", plan.workload.name()])
                .args(["--seed", &shape.seed.to_string()])
                .arg("--events-out")
                .arg(&events)
                .arg("--scratch")
                .arg(env.out.join("probe_data"))
                .output()?;
            if !output.status.success() {
                return Err(io::Error::other(format!(
                    "layerprobe failed: {}",
                    String::from_utf8_lossy(&output.stderr)
                )));
            }
            for line in String::from_utf8_lossy(&output.stdout).lines() {
                if let Some((name, value)) = line.split_once(' ') {
                    if let Ok(value) = value.parse() {
                        probe.insert(name.to_string(), value);
                    }
                }
            }
            fragments.push(trace::process_name_event(
                2,
                "layerprobe (in-process replay)",
            ));
            fragments.push(fs::read_to_string(&events)?);
            let _ = fs::remove_file(&events);
        }
        None => notes.push(
            "layerprobe did not build against this tree: in-process (T) layer metrics read 0"
                .into(),
        ),
    }
    fs::write(
        env.out.join(format!("trace_{}.json", plan.workload.name())),
        trace::chrome_document(&fragments),
    )?;
    Ok(Traced {
        sweep,
        pass,
        pass_seconds,
        probe,
    })
}

/// How fast the host runs a fixed single-thread integer loop right now:
/// fastest decile of 30 repetitions, in microseconds. Not a property of the
/// program. When the guest's CPU slows down (it has run such a loop 40 %
/// slower for minutes at a time) every timing of the run is slow with it,
/// `op_fast_ms` too, and this is how a reader tells that from a regression.
/// The loop lives in registers, so it does not feel a memory-side slowdown:
/// `scan_reads` has read 5-10 % high with it at its quiet value.
fn host_spin_us() -> f64 {
    let mut reps: Vec<f64> = (0..30)
        .map(|_| {
            let started = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..400_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    reps.sort_by(f64::total_cmp);
    stats::quantile(&reps, stats::FAST_Q)
}

fn us(ns: impl Iterator<Item = u64>) -> Vec<f64> {
    ns.map(|v| v as f64 / 1e3).collect()
}

/// Assemble the per-layer metrics from the three sources.
fn layer_metrics(
    workload: Workload,
    delta: &Delta,
    window: &PassLog,
    traced: &Traced,
    shape: Shape,
) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    // T: whatever the probe measured, under the names the catalogue knows.
    for m in &PER_LAYER {
        if let Some(&value) = traced.probe.get(m.name) {
            out.insert(m.name, value);
        }
    }
    // P: the server's own account of the PROFILE pass.
    let profiles: Vec<Profile> = traced.pass.ops.iter().filter_map(|o| o.profile).collect();
    let queue = us(profiles.iter().map(|p| p.queue_wait_ns));
    let lock = us(profiles.iter().map(|p| p.lock_wait_ns));
    let host = us(profiles.iter().map(|p| p.host_ns));
    let q = |v: &[f64], q| stats::quantile_of(v, q).unwrap_or(0.0);
    out.insert("server.queue_wait_us", q(&queue, 0.5));
    out.insert("server.lock_wait_us_p50", q(&lock, 0.5));
    out.insert("server.lock_wait_us_p95", q(&lock, 0.95));
    out.insert("server.host_us", q(&host, 0.5));
    // The remainder, in means so that the identity holds over a cycle of
    // unlike queries: client = lock + queue + host + parse + admission +
    // render + unattributed.
    let client: Vec<f64> = traced
        .pass
        .ops
        .iter()
        .filter(|o| !o.write)
        .map(|o| o.sample.latency_ms * 1e3)
        .collect();
    let mean = |v: &[f64]| stats::mean(v).unwrap_or(0.0);
    let probed = |name: &str| traced.probe.get(name).copied().unwrap_or(0.0);
    let attributed = mean(&lock)
        + mean(&queue)
        + mean(&host)
        + probed("server.protocol_parse_us")
        + probed("server.admission_us")
        + probed("server.render_us");
    out.insert("server.unattributed_us", mean(&client) - attributed);
    if workload.sharded() {
        out.insert("server.router_us", mean(&client) - mean(&host));
    }
    let (budget, actual) = traced
        .sweep
        .iter()
        .fold((0, 0), |(b, a), &(pb, pa)| (b + pb, a + pa));
    if actual > 0 {
        out.insert("analyzer.budget_over_actual", budget as f64 / actual as f64);
    }
    // M: counter deltas over the untraced window.
    let queries = "sdb_server_queries_total";
    out.insert(
        "server.mean_batch",
        delta.ratio("sdb_batch_size_sum", "sdb_batch_size_count"),
    );
    out.insert("server.batches", delta.of("batches"));
    out.insert("server.cse_hits", delta.of("sdb_batch_cse_hits_total"));
    out.insert(
        "server.fused_steps_per_batch",
        delta.ratio(
            "sdb_columnar_fused_steps_total",
            "sdb_columnar_fused_batches_total",
        ),
    );
    out.insert(
        "server.plan_cache_hit_ratio",
        delta.hit_ratio("sdb_plan_cache_hits_total", "sdb_plan_cache_misses_total"),
    );
    out.insert(
        "server.sharded_share",
        delta.ratio("sdb_server_sharded_total", queries),
    );
    out.insert(
        "server.fallback_share",
        delta.ratio("sdb_server_shard_fallback_total", queries),
    );
    out.insert("server.refused", delta.of("sdb_server_refused_total"));
    out.insert("server.timeouts", delta.of("sdb_server_timeouts_total"));
    out.insert("relation.columnar_builds", delta.of("sdb_columnar_builds"));
    out.insert(
        "storage.fsync_us",
        delta.ratio(
            "sdb_storage_wal_fsync_ns_sum",
            "sdb_storage_wal_fsync_ns_count",
        ) / 1e3,
    );
    out.insert(
        "storage.pool_hit_ratio",
        delta.hit_ratio(
            "sdb_storage_pool_hits_total",
            "sdb_storage_pool_misses_total",
        ),
    );
    if !window.acked.is_empty() {
        let user_bytes: usize = window.acked.iter().map(|a| a.body.len()).sum();
        out.insert(
            "storage.fsyncs_per_ack",
            delta.of("sdb_storage_wal_fsyncs_total") / window.acked.len() as f64,
        );
        out.insert(
            "storage.wal_bytes_per_user_byte",
            delta.of("sdb_storage_wal_bytes_total") / user_bytes as f64,
        );
    }
    // The client's own extra readings of the window.
    let mut reads: Vec<f64> = window.samples(false).iter().map(|s| s.latency_ms).collect();
    reads.sort_by(f64::total_cmp);
    let tail = stats::supported_tail(reads.len(), 0.99).unwrap_or(0.5);
    out.insert("server.query_p99_ms", stats::quantile(&reads, tail));
    if let Some(writes) = stats::summarise(&window.samples(true), shape.seconds, SLICES) {
        out.insert("durable.load_p50_ms", writes.p50_ms);
        out.insert("durable.load_p95_ms", writes.tail_ms);
    }
    let untraced = window.done as f64 / shape.seconds;
    let profiled = traced.pass.done as f64 / traced.pass_seconds;
    out.insert("bench.trace_overhead_share", 1.0 - profiled / untraced);
    out
}

/// Run one workload.
pub fn run(env: &Env, workload: Workload, shape: Shape) -> io::Result<Outcome> {
    fs::create_dir_all(&env.out)?;
    let inputs = gen::inputs(workload, shape.seed);
    let texts: Vec<String> = inputs.queries.iter().map(|q| q.to_string()).collect();
    let mut tally = Tally::default();
    let mut notes = Vec::new();

    // Set-up, several times over; the last server stays up for the window.
    let mut setup_s = Vec::new();
    let mut live: Option<Live> = None;
    for k in 0..shape.setups.max(1) {
        if let Some(prev) = live.take() {
            prev.server.shutdown();
        }
        let data_dir = workload.durable().then(|| {
            env.out
                .join(format!("data/{}-{}-{k}", workload.name(), shape.seed))
        });
        let flags = workload.server_flags();
        let (next, took) = set_up(env, workload, flags, &inputs, &texts, data_dir)?;
        setup_s.push(took.as_secs_f64());
        live = Some(next);
    }
    let live = live.expect("at least one set-up ran");

    // Reference 1: the benchmark's own evaluation of every distinct query.
    let db = Db::new(&inputs.tables);
    for (query, frame) in inputs.queries.iter().zip(&live.reference) {
        let rows = db.eval(query);
        let ok = number_after(frame, "RESULT rows=") == Some(rows.len() as u64)
            && body_of(frame).as_deref() == Some(render_rows(&rows).as_str());
        if !ok {
            notes.push(format!("answer differs from the oracle: {query}"));
        }
        tally.check(ok);
    }
    // Reference 2, the repository's core invariant: the fast path's frames
    // equal the simulator's, byte for byte.
    if workload == Workload::SimReads {
        let flags = Workload::ScanReads.server_flags();
        let (fast, _) = set_up(env, workload, flags, &inputs, &texts, None)?;
        for (sim, columnar) in live.reference.iter().zip(&fast.reference) {
            tally.check(sim == columnar);
        }
        fast.server.shutdown();
    }

    let plan = Plan {
        workload,
        inputs: &inputs,
        texts: &texts,
        reference: &live.reference,
        seed: shape.seed,
    };
    let addr = live.server.addr.clone();
    let pid = live.server.pid();
    let mut control = Conn::connect(&addr)?;

    // The timed window, untraced. Reference 3: every answer's RESULT frame
    // is byte-identical to the warm-up frame.
    let (before, scrape_took) = scrape_server(&mut control)?;
    let cpu_before = procfs::cpu_ms(pid);
    let window_len = Duration::from_secs_f64(shape.seconds);
    let window = plan.pass(&addr, Verb::Query, |_, elapsed| elapsed >= window_len);
    let cpu_after = procfs::cpu_ms(pid);
    let rss = procfs::peak_rss_mib(pid);
    let (after, _) = scrape_server(&mut control)?;
    let delta = Delta { before, after };
    tally.add(window.tally);

    // The distribution as the clients saw it, host disturbance and all:
    // reported per layer, not gated.
    let reads = stats::summarise(&window.samples(false), shape.seconds, SLICES)
        .ok_or_else(|| io::Error::other("a slice of the window completed no query"))?;
    if reads.tail_q < 0.95 {
        notes.push(format!(
            "smallest slice held {} samples: server.query_p95_ms is p{:.0}",
            reads.min_slice,
            reads.tail_q * 100.0
        ));
    }
    let correct: Vec<&OpRecord> = window
        .ops
        .iter()
        .filter(|o| o.ok && o.sample.end_s < shape.seconds)
        .collect();
    let per_read = if workload.pipelined() { ROUND } else { 1 };
    let completed: usize = correct
        .iter()
        .map(|o| if o.write { 1 } else { per_read })
        .sum();
    let timed: Vec<(usize, f64)> = correct
        .iter()
        .map(|o| (o.kind, o.sample.latency_ms))
        .collect();
    notes.push(format!(
        "{} read samples and {} writes in {:.0} s, {} closed-loop clients",
        reads.count,
        window.ops.iter().filter(|o| o.write).count(),
        shape.seconds,
        workload.clients(),
    ));

    let field_sum = |key: &str| -> f64 {
        live.reference
            .iter()
            .filter_map(|f| number_after(f, key))
            .sum::<u64>() as f64
    };
    let distinct = live.reference.len() as f64;
    let end_to_end = BTreeMap::from([
        ("setup_s", stats::median(&setup_s).unwrap_or(0.0)),
        ("op_fast_ms", stats::fast_mean(&timed).unwrap_or(0.0)),
        ("server_rss_mb", rss.unwrap_or(0.0)),
        ("sim_pulses_per_query", field_sum(" pulses=") / distinct),
        (
            "sim_makespan_us_per_query",
            field_sum(" makespan_ns=") / 1e3 / distinct,
        ),
    ]);

    let mut per_layer = BTreeMap::new();
    let mut traced_acked = Vec::new();
    if shape.trace {
        let mut traced = traced_passes(env, &plan, &addr, &mut control, shape, &mut notes)?;
        tally.add(traced.pass.tally);
        // Reference 4: the probe's `systolic_baseline` run of every distinct
        // query, row for row against the machine's result.
        let probed = |name: &str| traced.probe.get(name).copied().unwrap_or(0.0) as u64;
        tally.attempted += probed("baseline.checked");
        tally.failed += probed("baseline.mismatches");
        per_layer = layer_metrics(workload, &delta, &window, &traced, shape);
        per_layer.insert("server.throughput_ops_s", completed as f64 / shape.seconds);
        per_layer.insert("server.query_p50_ms", reads.p50_ms);
        per_layer.insert("server.query_p95_ms", reads.tail_ms);
        per_layer.insert("bench.host_spin_us", host_spin_us());
        if let (Some(before), Some(after)) = (cpu_before, cpu_after) {
            per_layer.insert(
                "server.cpu_ms_per_op",
                (after - before) / window.done.max(1) as f64,
            );
        }
        per_layer.insert(
            "telemetry.metrics_scrape_us",
            scrape_took.as_secs_f64() * 1e6,
        );
        per_layer.insert(
            "machine.array_runs_per_query",
            field_sum(" array_runs=") / distinct,
        );
        traced_acked = std::mem::take(&mut traced.pass.acked);
    }
    drop(control);

    // Durability: SIGKILL, restart on the same directory, re-query every
    // write a client saw acknowledged.
    if let Some(dir) = &live.data_dir {
        let mut acked = window.acked;
        acked.extend(traced_acked);
        live.server.crash();
        let stored = dir_bytes(dir);
        let log = env.out.join(format!("server_{}.log", workload.name()));
        let restarted = Instant::now();
        let server = Server::spawn(&env.sdb, workload.server_flags(), Some(dir), &log)?;
        let restart_ms = restarted.elapsed().as_secs_f64() * 1e3;
        let recovered = scrape::parse_stats(&Conn::connect(&server.addr)?.call("STATS", 1)?[0])
            .and_then(|s| s.get("recovered").copied())
            .unwrap_or(0.0);
        // Every acknowledged write is one log record, as is every set-up
        // table; a shortfall is an acknowledged write the log lost.
        let logged = (inputs.tables.len() + acked.len()) as f64;
        let missing = verify_acked(&server.addr, &acked) + (logged - recovered).max(0.0) as u64;
        tally.attempted += acked.len() as u64;
        tally.failed += missing;
        notes.push(format!(
            "crash check: {} acknowledged writes re-queried after SIGKILL and restart, {missing} \
             missing; {recovered} records recovered in {restart_ms:.1} ms",
            acked.len()
        ));
        if shape.trace {
            let user_bytes: usize = acked.iter().map(|a| a.body.len()).sum();
            per_layer.insert(
                "durable.stored_bytes_per_user_byte",
                stored as f64 / user_bytes.max(1) as f64,
            );
            per_layer.insert(
                "durable.recovery_ms_per_krecord",
                restart_ms / (recovered.max(1.0) / 1e3),
            );
        }
        server.shutdown();
        let _ = fs::remove_dir_all(env.out.join("data"));
    } else {
        live.server.shutdown();
    }

    if shape.trace {
        per_layer.insert(
            "bench.failed_ops_share",
            tally.failed as f64 / tally.attempted.max(1) as f64,
        );
        for m in &PER_LAYER {
            per_layer.entry(m.name).or_insert(0.0);
        }
    }
    Ok(Outcome {
        workload,
        attempted: tally.attempted,
        failed: tally.failed,
        end_to_end,
        per_layer,
        notes,
    })
}
