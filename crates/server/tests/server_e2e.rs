//! End-to-end tests against a live TCP server.
//!
//! The load-bearing one is `sixteen_concurrent_clients_match_serial_and_one_shot`:
//! it checks the tentpole guarantee that a shared, long-lived server
//! returns `RESULT` frames *byte-identical* — rows and simulated
//! hardware stats both — to (a) the same server queried serially and (b) a
//! fresh in-process [`Engine`] per the one-shot `sdb` path.

mod common;

use std::thread;
use std::time::Duration;

use common::{await_waiting, metric, occupy_machine, sim_machine, stat};

use systolic_machine::{Backend, MachineConfig};
use systolic_relation::DomainKind;
use systolic_server::protocol::result_frame;
use systolic_server::{spawn, Client, ClientError, Engine, ServerConfig};

/// (name, wire kinds, engine kinds, csv)
const TABLES: &[(&str, &str, &[DomainKind], &str)] = &[
    (
        "emp",
        "str,int",
        &[DomainKind::Str, DomainKind::Int],
        "ada,10\ngrace,20\nedsger,30\n",
    ),
    (
        "dept",
        "int,str",
        &[DomainKind::Int, DomainKind::Str],
        "10,storage\n20,query\n",
    ),
    ("a", "int", &[DomainKind::Int], "1\n2\n2\n3\n4\n"),
    ("b", "int", &[DomainKind::Int], "2\n3\n5\n"),
    (
        "takes",
        "str,str",
        &[DomainKind::Str, DomainKind::Str],
        "ida,db\nida,os\njoe,db\n",
    ),
    ("core", "str", &[DomainKind::Str], "db\nos\n"),
];

const QUERIES: &[&str] = &[
    "join(scan(emp), scan(dept), 1 = 0)",
    "filter(scan(emp), c1 >= 20)",
    "intersect(scan(a), scan(b))",
    "union(scan(a), scan(b))",
    "difference(scan(a), scan(b))",
    "dedup(scan(a))",
    "project(scan(emp), [0])",
    "divide(scan(takes), scan(core), 0, 1, 0)",
];

fn local_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    }
}

fn load_all(client: &mut Client) {
    for (name, kinds, _, csv) in TABLES {
        client.load_csv(name, kinds, csv).unwrap();
    }
}

/// What the one-shot `sdb` path would answer: a fresh engine, the same
/// tables in the same order (string interning order matters), each query
/// rendered as its deterministic `RESULT` frame.
fn one_shot_frames() -> Vec<String> {
    let mut engine = Engine::new(MachineConfig::default()).unwrap();
    for (name, _, kinds, csv) in TABLES {
        engine.load_table(name, kinds, csv).unwrap();
    }
    QUERIES
        .iter()
        .map(|q| {
            let out = engine.run_query(q).unwrap();
            let csv = engine.render_csv(&out.result).unwrap();
            result_frame(out.result.len(), &out.stats, &csv)
        })
        .collect()
}

#[test]
fn sixteen_concurrent_clients_match_serial_and_one_shot() {
    const CLIENTS: usize = 16;
    let handle = spawn(ServerConfig {
        workers: CLIENTS + 4,
        ..local_config()
    })
    .unwrap();
    let addr = handle.addr;

    let mut setup = Client::connect(addr).unwrap();
    load_all(&mut setup);

    // Serial pass over the live server...
    let serial: Vec<String> = QUERIES
        .iter()
        .map(|q| setup.raw_query_frames(q).unwrap().0)
        .collect();
    setup.close().unwrap();

    // ...must already match the in-process one-shot oracle.
    assert_eq!(serial, one_shot_frames());

    // Now 16 clients fire the whole workload concurrently, each starting at
    // a different offset so the machine's turns interleave different
    // queries.
    thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let serial = &serial;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    for k in 0..QUERIES.len() {
                        let q = (i + k) % QUERIES.len();
                        let (frame, _host) = client.raw_query_frames(QUERIES[q]).unwrap();
                        assert_eq!(
                            frame, serial[q],
                            "client {i} query {q:?} diverged from serial"
                        );
                    }
                    client.close().unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });

    // The acceptance check: after the concurrent run the server answers
    // METRICS with a request-latency histogram covering every query, while
    // the RESULT frames above stayed byte-identical.
    let mut probe = Client::connect(addr).unwrap();
    let text = probe.metrics().unwrap();
    probe.close().unwrap();
    let exp = systolic_telemetry::prom::validate(&text).expect("exposition must validate");
    let expected = (CLIENTS * QUERIES.len() + QUERIES.len()) as u64;
    assert_eq!(
        exp.value("sdb_server_queries_total", ""),
        Some(expected as f64)
    );
    assert_eq!(
        exp.value("sdb_request_latency_ns_count", ""),
        Some(expected as f64)
    );

    handle.shutdown();
    let report = handle.join().unwrap();
    assert_eq!(report.queries, expected);
    assert_eq!(report.loads, TABLES.len() as u64);
    assert_eq!(report.timeouts, 0);
}

/// The backend acceptance check at the wire level: a server running the
/// closed-form columnar backend answers every query with `RESULT` frames
/// *byte-identical* to a pulse-simulator server's — rows, makespan,
/// pulses, array runs, disk bytes, concurrency, and CSV all included —
/// while its `STATS` frame and `METRICS` exposition advertise which
/// backend produced them.
#[test]
fn columnar_backend_result_frames_are_byte_identical_to_sim() {
    let spawn_with = |backend: Backend| {
        spawn(ServerConfig {
            machine: MachineConfig {
                backend,
                ..MachineConfig::default()
            },
            ..local_config()
        })
        .unwrap()
    };
    let run_all = |handle: &systolic_server::ServerHandle| -> (Vec<String>, String, String) {
        let mut client = Client::connect(handle.addr).unwrap();
        load_all(&mut client);
        let frames = QUERIES
            .iter()
            .map(|q| client.raw_query_frames(q).unwrap().0)
            .collect();
        let stats = client.stats_line().unwrap();
        let metrics = client.metrics().unwrap();
        client.close().unwrap();
        (frames, stats, metrics)
    };

    let sim = spawn_with(Backend::Sim);
    let (sim_frames, sim_stats, _) = run_all(&sim);
    sim.shutdown();
    sim.join().unwrap();
    assert!(sim_stats.contains(" backend=sim"), "{sim_stats}");

    let server = spawn_with(Backend::Columnar);
    let (frames, stats, metrics) = run_all(&server);
    server.shutdown();
    server.join().unwrap();

    assert_eq!(
        frames, sim_frames,
        "columnar RESULT frames must be byte-identical to sim"
    );
    assert!(stats.contains(" backend=columnar"), "{stats}");
    let exp = systolic_telemetry::prom::validate(&metrics).unwrap();
    assert_eq!(
        exp.value("sdb_server_backend_info", "{backend=\"columnar\"}"),
        Some(1.0),
        "a columnar server must advertise its backend"
    );
    // Every LOAD packs word planes while parsing (zero-detour ingest),
    // so the pack gauge must be visible and non-zero by now.
    assert!(
        exp.value("sdb_columnar_builds", "").unwrap_or(0.0) >= TABLES.len() as f64,
        "ingest must have packed columnar planes"
    );
}

#[test]
fn requests_time_out_instead_of_hanging() {
    // A 100ms request timeout against a machine held busy for about a
    // second. The occupying query runs on its own worker, which holds the
    // machine and never waits out a timeout; the load behind it times out
    // while still queued, wins the fence, and must be skipped whole — the
    // catalog can never advertise a table whose load the client was told
    // failed.
    let handle = spawn(ServerConfig {
        request_timeout: Duration::from_millis(100),
        machine: sim_machine(),
        ..local_config()
    })
    .unwrap();
    let occupied = occupy_machine(handle.addr);
    let mut client = Client::connect(handle.addr).unwrap();
    match client.load_csv("t", "int", "1\n2\n") {
        Err(ClientError::Remote { kind, .. }) => assert_eq!(kind, "timeout"),
        Ok(_) => panic!("a load queued behind a busy machine cannot beat a 100ms timeout"),
        Err(other) => panic!("unexpected load error {other}"),
    }
    // The speculative registration was undone with the fence (only the
    // occupier's own table remains)...
    let stats = client.stats_line().unwrap();
    assert!(stats.contains(" tables=1 "), "{stats}");
    // ...so the query is rejected by static analysis (unknown relation)
    // instead of being answered from a table the client never loaded.
    match client.query("scan(t)") {
        Err(ClientError::Remote { kind, .. }) => assert_eq!(kind, "analysis"),
        Ok(_) => panic!("query must not see the fenced table"),
        Err(other) => panic!("unexpected error {other}"),
    }
    // The occupier ran to the end on its own worker: a real answer, late.
    let answer = occupied.finish();
    assert!(answer.starts_with("RESULT rows="), "{answer}");
    // The timed-out load left the queue: nothing waits for a turn.
    assert_eq!(metric(handle.addr, "sdb_machine_waiting", ""), 0.0);
    client.close().unwrap();
    handle.shutdown();
    let report = handle.join().unwrap();
    assert_eq!(report.timeouts, 1, "only the load's timeout was real");
    assert_eq!(
        report.loads, 1,
        "a fenced load must never reach the machine"
    );
}

/// A `CHECKPOINT` that times out behind a busy machine is skipped whole:
/// a client told `ERR timeout` must not have its log reset behind its back.
#[test]
fn a_timed_out_checkpoint_never_runs() {
    let data_dir = std::env::temp_dir().join(format!("sdb_srv_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let handle = spawn(ServerConfig {
        request_timeout: Duration::from_millis(100),
        machine: sim_machine(),
        data_dir: Some(data_dir.clone()),
        ..local_config()
    })
    .unwrap();
    let occupied = occupy_machine(handle.addr);
    let mut client = Client::connect(handle.addr).unwrap();
    match client.checkpoint() {
        Err(ClientError::Remote { kind, .. }) => assert_eq!(kind, "timeout"),
        other => panic!("a checkpoint behind a busy machine must time out, got {other:?}"),
    }
    assert!(occupied.finish().starts_with("RESULT rows="));
    // Anything still queued has had its turn once this is answered.
    client.query("scan(occupier)").unwrap();
    let stats = client.stats_line().unwrap();
    assert!(stats.contains(" checkpoints=0 "), "{stats}");
    client.close().unwrap();
    handle.shutdown();
    let report = handle.join().unwrap();
    assert_eq!(report.timeouts, 1, "only the checkpoint timed out");
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// A client that stops mid-frame cannot hold its worker: once the frame it
/// started has waited out the request timeout, it is answered `ERR timeout`,
/// disconnected and counted, and the only worker moves on to the next
/// connection. A connection idle *between* frames stays open.
#[test]
fn a_client_stalled_mid_frame_is_timed_out_and_frees_its_worker() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let timeout = Duration::from_millis(300);
    let handle = spawn(ServerConfig {
        workers: 1,
        request_timeout: timeout,
        ..local_config()
    })
    .unwrap();
    let connect = || {
        let stream = TcpStream::connect(handle.addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(3)))
            .unwrap();
        stream
    };
    let read_line = |reader: &mut BufReader<TcpStream>| {
        let mut line = String::new();
        reader.read_line(&mut line).map(|_| line)
    };

    let mut stalled = connect();
    stalled.write_all(b"QUERY scan(").unwrap();
    // Queued behind the stalled connection for the one worker.
    let mut next = connect();
    next.write_all(b"STATS\n").unwrap();
    let mut next_reader = BufReader::new(next.try_clone().unwrap());
    let stats = read_line(&mut next_reader).expect("the stalled client held the only worker");
    assert!(stats.starts_with("STATS "), "{stats}");
    assert_eq!(stat(&stats, "timeouts"), 1, "{stats}");

    let mut stalled_reader = BufReader::new(stalled);
    let answer = read_line(&mut stalled_reader).unwrap();
    assert!(answer.starts_with("ERR timeout "), "{answer}");
    assert_eq!(read_line(&mut stalled_reader).unwrap(), "", "then closed");

    // Idle between frames for longer than the timeout: still served.
    thread::sleep(2 * timeout);
    next.write_all(b"STATS\n").unwrap();
    let stats = read_line(&mut next_reader).unwrap();
    assert_eq!(stat(&stats, "timeouts"), 1, "{stats}");
    next.write_all(b"CLOSE\n").unwrap();
    assert_eq!(read_line(&mut next_reader).unwrap(), "BYE\n");
    handle.shutdown();
    assert_eq!(handle.join().unwrap().timeouts, 1);
}

/// A client that pipelines requests for large results and never reads a
/// reply fills the socket buffers; the reply it blocks is timed out like a
/// stalled frame, and the only worker is free for the next client.
#[test]
fn a_client_that_stops_reading_is_timed_out_and_frees_its_worker() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let timeout = Duration::from_millis(300);
    let handle = spawn(ServerConfig {
        workers: 1,
        request_timeout: timeout,
        ..local_config()
    })
    .unwrap();
    // About 200 KB of CSV per answer, far less than a request may carry.
    let csv: String = (0..20_000).map(|i| format!("{i},{}\n", i * 7)).collect();
    let mut loader = Client::connect(handle.addr).unwrap();
    assert_eq!(loader.load_csv("big", "int,int", &csv).unwrap(), 20_000);
    loader.close().unwrap();

    // A few hundred answers outgrow any loopback socket buffer.
    let mut deaf = TcpStream::connect(handle.addr).unwrap();
    deaf.write_all("QUERY scan(big)\n".repeat(300).as_bytes())
        .unwrap();

    let next = TcpStream::connect(handle.addr).unwrap();
    next.set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    (&next).write_all(b"STATS\nCLOSE\n").unwrap();
    let mut next_reader = BufReader::new(&next);
    let mut stats = String::new();
    next_reader
        .read_line(&mut stats)
        .expect("the client that stopped reading held the only worker");
    assert!(stats.starts_with("STATS "), "{stats}");
    assert_eq!(stat(&stats, "timeouts"), 1, "{stats}");
    let mut bye = String::new();
    next_reader.read_line(&mut bye).unwrap();
    assert_eq!(bye, "BYE\n");
    assert_eq!(
        metric(handle.addr, "sdb_server_timeouts_total", ""),
        1.0,
        "the write timeout is the metric's too"
    );
    drop(deaf);
    handle.shutdown();
    assert_eq!(handle.join().unwrap().timeouts, 1);
}

/// Frames pipelined on one connection — every request on the socket before
/// any response is read — are answered one at a time, in request order,
/// with `RESULT` frames byte-identical to the same queries sent one by one.
#[test]
fn pipelined_frames_are_answered_in_order_and_byte_identically() {
    let handle = spawn(local_config()).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    load_all(&mut c);
    let serial: Vec<String> = QUERIES
        .iter()
        .map(|q| c.raw_query_frames(q).unwrap().0)
        .collect();
    let pairs = c.pipeline_queries(QUERIES).unwrap();
    let pipelined: Vec<String> = pairs.into_iter().map(|(result, _host)| result).collect();
    assert_eq!(pipelined, serial, "pipelined answers must arrive in order");
    c.close().unwrap();
    handle.shutdown();
    let report = handle.join().unwrap();
    assert_eq!(report.queries, 2 * QUERIES.len() as u64);
    assert_eq!(report.loads, TABLES.len() as u64);
}

#[test]
fn overloaded_server_refuses_politely() {
    let handle = spawn(ServerConfig {
        workers: 1,
        max_pending: 0,
        ..local_config()
    })
    .unwrap();
    // First connection occupies the only worker...
    let mut first = Client::connect(handle.addr).unwrap();
    let stats = first.stats_line().unwrap();
    assert!(stats.contains("active=1"), "{stats}");
    // ...so the second is refused at the door.
    let mut second = Client::connect(handle.addr).unwrap();
    match second.stats_line() {
        Err(ClientError::Remote { kind, .. }) => assert_eq!(kind, "overloaded"),
        other => panic!("expected overloaded refusal, got {other:?}"),
    }
    first.close().unwrap();
    handle.shutdown();
    let report = handle.join().unwrap();
    assert!(report.refused >= 1);
}

#[test]
fn shutdown_drains_in_flight_queries() {
    // One query inside the machine and one queued behind it: shutdown lands
    // mid-flight and must not eat either answer.
    let handle = spawn(ServerConfig {
        machine: sim_machine(),
        ..local_config()
    })
    .unwrap();
    let addr = handle.addr;
    let mut setup = Client::connect(addr).unwrap();
    setup.load_csv("t", "int", "1\n2\n3\n").unwrap();
    let occupied = occupy_machine(addr);
    let mut queued = Client::connect(addr).unwrap();
    queued.send_query("filter(scan(t), c0 >= 2)").unwrap();
    await_waiting(addr, 1);
    handle.shutdown();

    let (frame, _host) = queued.recv_query_frames().unwrap();
    assert!(frame.starts_with("RESULT rows=2 "), "{frame}");
    assert!(occupied.finish().starts_with("RESULT rows="));

    // The idle setup connection is told BYE (or sees the listener go away)
    // rather than hanging; either way the server exits cleanly.
    if let Err(ClientError::Remote { kind, .. }) = setup.query("scan(t)") {
        assert_eq!(kind, "shutting_down");
    }
    handle.join().unwrap();
}

#[test]
fn shutdown_command_over_the_wire_stops_the_server() {
    let handle = spawn(local_config()).unwrap();
    let mut client = Client::connect(handle.addr).unwrap();
    client.load_csv("t", "int", "7\n").unwrap();
    let result = client.query("scan(t)").unwrap();
    assert_eq!(result.rows, 1);
    client.shutdown_server().unwrap();
    let report = handle.join().unwrap();
    assert_eq!(report.queries, 1);
    assert_eq!(report.loads, 1);
}

#[test]
fn metrics_verb_serves_a_valid_monotonic_exposition() {
    let handle = spawn(local_config()).unwrap();
    let mut client = Client::connect(handle.addr).unwrap();
    client.load_csv("ma", "int", "1\n2\n3\n").unwrap();
    client.load_csv("mb", "int", "2\n3\n").unwrap();
    client.query("intersect(scan(ma), scan(mb))").unwrap();
    let before = systolic_telemetry::prom::validate(&client.metrics().unwrap()).unwrap();
    client.query("union(scan(ma), scan(mb))").unwrap();
    let after = systolic_telemetry::prom::validate(&client.metrics().unwrap()).unwrap();

    // Names and kinds a scraper relies on.
    assert_eq!(
        before
            .types
            .get("sdb_server_queries_total")
            .map(String::as_str),
        Some("counter")
    );
    assert_eq!(
        before
            .types
            .get("sdb_request_latency_ns")
            .map(String::as_str),
        Some("histogram")
    );
    assert_eq!(
        before.types.get("sdb_queue_depth").map(String::as_str),
        Some("gauge")
    );
    // Per-op simulated pulses, labelled by §8 operator.
    assert!(
        before
            .value("sdb_op_pulses_total", "{op=\"intersect\"}")
            .unwrap_or(0.0)
            > 0.0,
        "intersect pulses must be attributed"
    );
    // Counters only ever go up between scrapes.
    systolic_telemetry::prom::counters_monotonic(&before, &after)
        .expect("counters must be monotonic");
    assert!(
        after.value("sdb_server_queries_total", "") > before.value("sdb_server_queries_total", "")
    );

    client.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn stats_frame_carries_uptime_and_latency_summary() {
    let handle = spawn(local_config()).unwrap();
    let mut client = Client::connect(handle.addr).unwrap();
    client.load_csv("s", "int", "5\n6\n").unwrap();
    client.query("scan(s)").unwrap();
    let stats = client.stats_line().unwrap();
    for field in [
        "uptime_ms=",
        "queue_hwm=",
        "slow=",
        "lat_p50_ns=",
        "lat_p95_ns=",
        "lat_p99_ns=",
        "lat_count=",
        "backend=",
    ] {
        assert!(stats.contains(field), "missing {field} in {stats}");
    }
    let lat_count: u64 = stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("lat_count="))
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(lat_count, 1, "{stats}");
    let p50: u64 = stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("lat_p50_ns="))
        .unwrap()
        .parse()
        .unwrap();
    assert!(p50 > 0, "one observation means a nonzero p50: {stats}");
    client.close().unwrap();
    handle.shutdown();
    let report = handle.join().unwrap();
    assert_eq!(report.slow_queries, 0);
}

/// The waiting gauge as an operator sees it: requests queued behind a busy
/// machine each count once in `sdb_machine_waiting`, and the gauge returns
/// to zero once their turns have come.
#[test]
fn the_waiting_gauge_counts_requests_queued_behind_the_machine() {
    let handle = spawn(ServerConfig {
        machine: sim_machine(),
        ..local_config()
    })
    .unwrap();
    let addr = handle.addr;
    let mut setup = Client::connect(addr).unwrap();
    setup.load_csv("t", "int", "1\n2\n3\n").unwrap();
    assert_eq!(metric(addr, "sdb_machine_waiting", ""), 0.0);
    let occupied = occupy_machine(addr);
    let mut clients: Vec<Client> = (0..3)
        .map(|_| {
            let mut client = Client::connect(addr).unwrap();
            client.send_query("filter(scan(t), c0 >= 2)").unwrap();
            client
        })
        .collect();
    await_waiting(addr, clients.len());
    occupied.finish();
    for client in &mut clients {
        let (frame, _host) = client.recv_query_frames().unwrap();
        assert!(frame.starts_with("RESULT rows=2 "), "{frame}");
    }
    assert_eq!(metric(addr, "sdb_machine_waiting", ""), 0.0);
    setup.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();
}

/// Serializes the tests that install the process-global span collector
/// (directly or via a server's `trace_out`).
fn collector_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Two requests queued together behind a busy machine keep *distinct*
/// trace ids (each client's story stays separate), and each gets the
/// `RESULT` frame that query gets alone.
///
/// Holds [`collector_lock`]: the span collector is process-global, and
/// concurrent tests' spans land in it too, so everything below filters by
/// this test's own query text.
#[test]
fn queued_requests_keep_distinct_traces_and_their_solo_frames() {
    let _guard = collector_lock();
    let collector = systolic_telemetry::install();
    let handle = spawn(ServerConfig {
        machine: sim_machine(),
        ..local_config()
    })
    .unwrap();
    let addr = handle.addr;
    let mut setup = Client::connect(addr).unwrap();
    setup.load_csv("trc", "int", "1\n2\n3\n").unwrap();
    setup.close().unwrap();

    // Both requests queue behind an occupied machine and take their turns
    // one after the other when it frees.
    let queries = ["filter(scan(trc), c0 >= 1)", "filter(scan(trc), c0 >= 2)"];
    let occupied = occupy_machine(addr);
    let mut clients: Vec<Client> = queries
        .iter()
        .map(|q| {
            let mut client = Client::connect(addr).unwrap();
            client.send_query(q).unwrap();
            client
        })
        .collect();
    await_waiting(addr, queries.len());
    occupied.finish();
    let queued: Vec<String> = clients
        .iter_mut()
        .map(|client| {
            let (result, _host) = client.recv_query_frames().unwrap();
            client.close().unwrap();
            result
        })
        .collect();
    // Every span of a request is recorded before its reply is written;
    // take them before the solo runs below add their own.
    let spans = collector.drain();
    // Queueing changes latency, never answers: each query sent alone
    // afterwards gets the queued run's frame byte for byte.
    let mut solo = Client::connect(addr).unwrap();
    for (query, queued) in queries.iter().zip(&queued) {
        assert_eq!(&solo.raw_query_frames(query).unwrap().0, queued, "{query}");
    }
    solo.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();
    systolic_telemetry::uninstall();
    let requests: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "server.request")
        .filter(|s| queries.contains(&s.arg("query").unwrap_or("")))
        .collect();
    assert_eq!(requests.len(), 2, "one request span per client");
    assert_ne!(
        requests[0].trace_id, requests[1].trace_id,
        "queued requests must keep distinct trace ids"
    );

    // Turning the answer into bytes is a layer the server names: one
    // `server.render` span under each request, carrying that reply's row
    // count and frame size.
    for request in &requests {
        let render = spans
            .iter()
            .find(|s| s.name == "server.render" && s.trace_id == request.trace_id)
            .expect("each request trace carries its render span");
        assert_eq!(render.parent_id, Some(request.span_id));
        let rows = if request.arg("query") == Some(queries[0]) {
            "3"
        } else {
            "2"
        };
        assert_eq!(render.arg("rows"), Some(rows));
        let bytes: usize = render.arg("bytes").unwrap().parse().unwrap();
        assert!(bytes > "RESULT rows=".len(), "{bytes}");
    }
}

/// Every statically-checkable SA00N class the default machine can exhibit
/// is rejected over the wire with its stable code and a caret rendering —
/// the fabric never sees the query.
#[test]
fn analyzer_rejects_each_code_class_over_the_wire() {
    let handle = spawn(local_config()).unwrap();
    let mut client = Client::connect(handle.addr).unwrap();
    load_all(&mut client);

    // (query, code, fragment the human-readable detail must mention)
    let rejections = [
        ("union(scan(emp), scan(dept))", "SA001", "domain"),
        ("project(scan(emp), [9])", "SA002", "column"),
        ("divide(scan(takes), scan(a), 0, 1, 0)", "SA003", "divisor"),
        ("filter(scan(emp), c0 < 5)", "SA004", "str"),
        ("scan(nope)", "SA007", "nope"),
        ("store(scan(emp), emp)", "SA008", "emp"),
    ];
    for (query, code, fragment) in rejections {
        match client.query(query) {
            Err(ClientError::Remote { kind, detail }) => {
                assert_eq!(kind, "analysis", "{query}");
                assert!(detail.contains(code), "{query}: want {code} in {detail}");
                assert!(
                    detail.contains(fragment),
                    "{query}: want {fragment:?} in {detail}"
                );
                assert!(detail.contains('^'), "{query}: caret must travel: {detail}");
            }
            other => panic!("{query}: expected analysis rejection, got {other:?}"),
        }
    }
    // A sound query on the same connection still runs — rejection is
    // per-request, not a session poison.
    assert_eq!(client.query("dedup(scan(a))").unwrap().rows, 4);
    client.close().unwrap();
    handle.shutdown();
    let report = handle.join().unwrap();
    // Rejected queries never reach the machine, so the machine-level
    // query counter records only the one sound run.
    assert_eq!(report.queries, 1);
}

/// SA005 (uncoverable tiling) and SA006 (capacity) depend on the machine
/// shape, so each gets a deliberately crippled server: a zero array bound
/// and a 16-byte memory module respectively. The analyzer refuses up
/// front instead of letting the fabric panic or thrash.
#[test]
fn crippled_machines_are_refused_by_the_analyzer_up_front() {
    use systolic_core::ArrayLimits;
    use systolic_machine::DeviceKind;

    // `ArrayLimits::new` asserts bounds >= 1; build the invalid geometry
    // literally, exactly as a hand-written config file could.
    let zero = ArrayLimits {
        max_a: 0,
        max_b: 32,
        max_cols: 8,
    };
    let handle = spawn(ServerConfig {
        machine: MachineConfig {
            devices: vec![
                (DeviceKind::SetOp, zero),
                (DeviceKind::Join, ArrayLimits::new(32, 32, 8)),
                (DeviceKind::Divide, ArrayLimits::new(32, 32, 8)),
            ],
            ..MachineConfig::default()
        },
        ..local_config()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr).unwrap();
    client.load_csv("z", "int", "1\n2\n").unwrap();
    match client.query("intersect(scan(z), scan(z))") {
        Err(ClientError::Remote { kind, detail }) => {
            assert_eq!(kind, "analysis");
            assert!(detail.contains("SA005"), "{detail}");
        }
        other => panic!("expected SA005, got {other:?}"),
    }
    client.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();

    let handle = spawn(ServerConfig {
        machine: MachineConfig {
            memory_capacity: 16,
            ..MachineConfig::default()
        },
        ..local_config()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr).unwrap();
    client
        .load_csv("big", "int,int", "1,2\n3,4\n5,6\n")
        .unwrap();
    match client.query("scan(big)") {
        Err(ClientError::Remote { kind, detail }) => {
            assert_eq!(kind, "analysis");
            assert!(detail.contains("SA006"), "{detail}");
        }
        other => panic!("expected SA006, got {other:?}"),
    }
    client.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn duplicate_loads_conflict_and_errors_are_structured() {
    let handle = spawn(local_config()).unwrap();
    let mut client = Client::connect(handle.addr).unwrap();
    client.load_csv("t", "int", "1\n").unwrap();
    match client.load_csv("t", "int", "2\n") {
        Err(ClientError::Remote { kind, .. }) => assert_eq!(kind, "conflict"),
        other => panic!("expected conflict, got {other:?}"),
    }
    match client.query("explode(scan(t))") {
        Err(ClientError::Remote { kind, detail }) => {
            assert_eq!(kind, "parse");
            assert!(detail.contains('^'), "caret rendering travels: {detail}");
        }
        other => panic!("expected parse error, got {other:?}"),
    }
    match client.query("scan(missing)") {
        Err(ClientError::Remote { kind, detail }) => {
            assert_eq!(kind, "analysis");
            assert!(detail.contains("SA007"), "stable code travels: {detail}");
            assert!(detail.contains("missing"));
            assert!(detail.contains('^'), "caret rendering travels: {detail}");
        }
        other => panic!("expected unknown-relation rejection, got {other:?}"),
    }
    match client.load_csv("t2", "int", "notanint\n") {
        Err(ClientError::Remote { kind, .. }) => assert_eq!(kind, "relation"),
        other => panic!("expected relation error, got {other:?}"),
    }
    client.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();
}

/// The result path — rows to CSV text to an escaped frame to one socket
/// write — answers with the bytes it answered with before it was rewritten:
/// a join, a union, and a filter over a string column whose values need
/// quoting and escaping return the `RESULT` frames recorded from the commit
/// before the one-pass writer, sent one by one and pipelined.
#[test]
fn result_frames_are_the_recorded_bytes() {
    const RECORDED: [(&str, &str); 3] = [
        (
            "join(scan(emp), scan(dept), 1 = 0)",
            "RESULT rows=2 makespan_ns=4133 pulses=8 array_runs=1 disk_bytes=40 concurrency=1 \
             csv=c0,c1,c1\\nada,10,storage\\ngrace,20,query\\n",
        ),
        (
            "union(scan(a), scan(b))",
            "RESULT rows=5 makespan_ns=11216 pulses=29 array_runs=1 disk_bytes=32 concurrency=1 \
             csv=c0\\n1\\n2\\n3\\n4\\n5\\n",
        ),
        (
            // Dictionary code 9 is `plain`: the ten strings of `emp`, `dept`
            // and `notes` are interned in load order.
            "filter(scan(notes), c0 != 9)",
            "RESULT rows=4 makespan_ns=1333 pulses=0 array_runs=0 disk_bytes=32 concurrency=0 \
             csv=c0,c1\\n\"doe, jane\",1\\n\"say \"\"hi\"\"\",2\\nback\\\\slash,3\\n padded ,4\\n",
        ),
    ];
    const NOTES: &str =
        "\"doe, jane\",1\n\"say \"\"hi\"\"\",2\nback\\slash,3\n padded ,4\nplain,5\n";
    let handle = spawn(local_config()).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    for (name, kinds, _, csv) in &TABLES[..4] {
        c.load_csv(name, kinds, csv).unwrap();
    }
    c.load_csv("notes", "str,int", NOTES).unwrap();
    for (query, recorded) in RECORDED {
        let (frame, _host) = c.raw_query_frames(query).unwrap();
        assert_eq!(frame, recorded, "{query}");
    }
    // The same three as one pipelined write: one reply buffer each.
    let queries = RECORDED.map(|(query, _)| query);
    for ((frame, _host), (query, recorded)) in c
        .pipeline_queries(&queries)
        .unwrap()
        .into_iter()
        .zip(RECORDED)
    {
        assert_eq!(frame, recorded, "pipelined {query}");
    }
    c.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();
}

/// Drain with pipelining: shutdown lands while a connection's first query
/// waits behind a busy machine and two more are pipelined behind it. The
/// query in flight is answered for real; the two frames behind it are each
/// answered in order — refused `ERR shutting_down`, as new work is while
/// draining — so a pipelining client never loses an answer.
#[test]
fn shutdown_drains_pipelined_in_flight_queries() {
    let handle = spawn(ServerConfig {
        machine: sim_machine(),
        ..local_config()
    })
    .unwrap();
    let addr = handle.addr;
    let mut setup = Client::connect(addr).unwrap();
    setup.load_csv("t", "int", "1\n2\n3\n").unwrap();
    let occupied = occupy_machine(addr);

    let mut client = Client::connect(addr).unwrap();
    for _ in 0..3 {
        client.send_query("filter(scan(t), c0 >= 2)").unwrap();
    }
    // The connection's worker reads one frame at a time: the first is
    // queued behind the occupier, the other two wait on the socket.
    await_waiting(addr, 1);
    handle.shutdown();

    let (frame, _host) = client.recv_query_frames().unwrap();
    assert!(frame.starts_with("RESULT rows=2 "), "{frame}");
    for i in 1..3 {
        match client.recv_query_frames() {
            Err(ClientError::Remote { kind, .. }) => {
                assert_eq!(kind, "shutting_down", "answer {i}")
            }
            other => panic!("answer {i}: expected a refusal while draining, got {other:?}"),
        }
    }
    assert!(occupied.finish().starts_with("RESULT rows="));
    drop(setup);
    handle.join().unwrap();
}

/// The observability acceptance check, half one: `PROFILE` answers with a
/// `RESULT` frame *byte-identical* to `QUERY`'s for the same query — on
/// both backends — and the profile itself is internally consistent: the analyzer's predicted pulse
/// budget bounds the actual pulses, and the actual pulses equal the
/// `RESULT` frame's own `RunStats` pulses.
#[test]
fn profile_results_are_byte_identical_and_bounded_by_the_budget() {
    use systolic_telemetry::json::{self, Json};

    let configs = [
        ("sim", local_config()),
        (
            "columnar",
            ServerConfig {
                machine: MachineConfig {
                    backend: Backend::Columnar,
                    ..MachineConfig::default()
                },
                ..local_config()
            },
        ),
    ];
    for (label, config) in configs {
        let handle = spawn(config).unwrap();
        let mut c = Client::connect(handle.addr).unwrap();
        load_all(&mut c);
        for q in QUERIES {
            let (plain, _host) = c.raw_query_frames(q).unwrap();
            let (profiled, profile) = c.profile(q).unwrap();
            assert_eq!(
                profiled.raw, plain,
                "{label}: profiling changed the RESULT frame for {q:?}"
            );
            let doc = json::parse(&profile).expect("profile is valid JSON");
            assert_eq!(doc.get("query").and_then(Json::as_str), Some(*q), "{label}");
            let budget = doc
                .get("predicted")
                .and_then(|p| p.get("pulse_budget"))
                .and_then(Json::as_u64)
                .unwrap();
            let pulses = doc
                .get("actual")
                .and_then(|a| a.get("pulses"))
                .and_then(Json::as_u64)
                .unwrap();
            assert!(
                budget >= pulses,
                "{label}: {q:?} predicted budget {budget} < actual {pulses}"
            );
            assert_eq!(
                pulses, profiled.total_pulses,
                "{label}: {q:?} profile pulses diverge from RunStats"
            );
            assert_eq!(
                doc.get("actual")
                    .and_then(|a| a.get("rows"))
                    .and_then(Json::as_u64),
                Some(profiled.rows as u64),
                "{label}: {q:?}"
            );
            // Drift is the budget's slack, as a first-class field.
            assert_eq!(
                doc.get("drift_pulses").and_then(Json::as_f64),
                Some(budget as f64 - pulses as f64),
                "{label}: {q:?}"
            );
            // Without a filter or a division every row bound is exact, and
            // so is the machine's pricing at them: no drift at all.
            if !q.starts_with("filter") && !q.starts_with("divide") {
                assert_eq!(
                    doc.get("drift_pulses").and_then(Json::as_f64),
                    Some(0.0),
                    "{label}: {q:?}"
                );
            }
            // Every plan step pairs a prediction with its actuals.
            let steps = doc.get("steps").and_then(Json::as_array).unwrap();
            assert!(!steps.is_empty(), "{label}: {q:?}");
            let step_pulses: u64 = steps
                .iter()
                .filter_map(|s| s.get("actual_pulses").and_then(Json::as_u64))
                .sum();
            assert_eq!(step_pulses, pulses, "{label}: {q:?} step pulses must sum");
        }
        c.close().unwrap();
        handle.shutdown();
        handle.join().unwrap();
    }
}

/// The observability acceptance check, half two: a server with
/// `trace_out` writes ONE Chrome trace at shutdown, in which a query's
/// `server.request` span is its trace's root on the host track (pid 2),
/// the machine run parents under it, and the query's simulated steps sit
/// on the pulse-time track (pid 1) under the same trace id.
///
/// Holds [`collector_lock`]: `trace_out` installs the process-global
/// collector for the server's lifetime.
#[test]
fn trace_out_writes_host_spans_and_simulated_steps_on_two_tracks() {
    use systolic_telemetry::json::{self, Json};

    let _guard = collector_lock();
    let dir = std::env::temp_dir().join(format!("sdb-e2e-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("merged.json");

    let handle = spawn(ServerConfig {
        trace_out: Some(path.clone()),
        ..local_config()
    })
    .unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    load_all(&mut c);
    // Spelled like no other test's query: concurrently running tests record
    // into the same process-global collector.
    let traced = "intersect(scan(b), scan(a))";
    c.query(traced).unwrap();
    c.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();

    let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).expect("valid trace JSON");
    let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
    let arg = |e: &Json, k: &str| e.get("args").and_then(|a| a.get(k)).and_then(Json::as_u64);
    let pid = |e: &Json| e.get("pid").and_then(Json::as_u64);
    let named = |n: &str| {
        events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(n))
            .collect::<Vec<_>>()
    };

    // The request is its trace's root span, on the host track...
    let root = named("server.request")
        .into_iter()
        .find(|e| {
            let query = e.get("args").and_then(|a| a.get("query"));
            query.and_then(Json::as_str) == Some(traced)
        })
        .expect("the request span is in the trace");
    assert_eq!(arg(root, "parent_id"), None, "the request is the root");
    assert_eq!(pid(root), Some(2), "host spans are on pid 2");
    let trace_id = arg(root, "trace_id").unwrap();

    // ...the machine run parents under it...
    let runs: Vec<_> = named("server.run")
        .into_iter()
        .filter(|e| arg(e, "trace_id") == Some(trace_id))
        .collect();
    assert_eq!(runs.len(), 1, "one run for the one query");
    assert_eq!(arg(runs[0], "parent_id"), arg(root, "span_id"));

    // ...and the simulated schedule carries the same trace id on pid 1.
    let steps: Vec<_> = events
        .iter()
        .filter(|e| pid(e) == Some(1) && arg(e, "trace_id") == Some(trace_id))
        .collect();
    assert!(
        !steps.is_empty(),
        "the query's simulated steps are on pid 1"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The flight recorder retains the last N profiles — queries, `PROFILE`
/// runs, and failures alike — and `PROFILES` dumps them newest first.
#[test]
fn flight_recorder_retains_newest_profiles_and_records_errors() {
    use systolic_telemetry::json::{self, Json};

    let handle = spawn(ServerConfig {
        profile_history: 2,
        ..local_config()
    })
    .unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    c.load_csv("fr", "int", "1\n2\n3\n").unwrap();

    c.query("filter(scan(fr), c0 >= 1)").unwrap();
    c.query("filter(scan(fr), c0 >= 2)").unwrap();
    c.query("filter(scan(fr), c0 >= 3)").unwrap();
    let dumped = c.profiles().unwrap();
    assert_eq!(dumped.len(), 2, "history of 2 retains the 2 newest");
    let queries: Vec<_> = dumped
        .iter()
        .map(|line| {
            let doc = json::parse(line).expect("each dumped profile is valid JSON");
            doc.get("query").and_then(Json::as_str).unwrap().to_string()
        })
        .collect();
    assert_eq!(
        queries,
        vec!["filter(scan(fr), c0 >= 3)", "filter(scan(fr), c0 >= 2)"],
        "newest first"
    );

    // A failing query lands in the recorder too, with its error frame.
    assert!(c.query("scan(ghost)").is_err());
    let dumped = c.profiles().unwrap();
    let newest = json::parse(&dumped[0]).unwrap();
    assert_eq!(
        newest.get("query").and_then(Json::as_str),
        Some("scan(ghost)")
    );
    assert!(
        newest
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("analysis")),
        "{}",
        dumped[0]
    );
    c.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();
}

/// Durability across graceful restarts: a server opened on a `--data-dir`
/// recovers every load and every logged `store(...)` query from its WAL,
/// so the whole workload answers *byte-identically* after a restart. A
/// `CHECKPOINT` mid-sequence snapshots the history and the next recovery
/// (snapshot + empty tail) must answer identically again.
#[test]
fn durable_servers_answer_byte_identically_after_restart() {
    let root = std::env::temp_dir().join(format!("sdb_srv_durable_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let data_dir = root.join("data");
    let config = || ServerConfig {
        data_dir: Some(data_dir.clone()),
        ..local_config()
    };

    // Generation 0: load, run a store(...) so a query lands in the WAL,
    // then capture the post-store answers as the oracle.
    let handle = spawn(config()).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    load_all(&mut c);
    c.query("store(filter(scan(a), c0 >= 3), a_big)").unwrap();
    let expect: Vec<String> = QUERIES
        .iter()
        .map(|q| c.raw_query_frames(q).unwrap().0)
        .collect();
    let stats = c.stats_line().unwrap();
    assert!(stats.contains("durable=1"), "{stats}");
    assert!(
        stats.contains(" wal_records=7"),
        "6 loads + 1 store: {stats}"
    );
    c.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();

    // Generation 1: recovered purely from the WAL.
    let handle = spawn(config()).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    let stats = c.stats_line().unwrap();
    assert!(stats.contains(" recovered=7"), "{stats}");
    for (q, want) in QUERIES.iter().zip(&expect) {
        let (frame, _host) = c.raw_query_frames(q).unwrap();
        assert_eq!(&frame, want, "WAL recovery diverged on {q:?}");
    }
    // Snapshot the history; the log resets but nothing is forgotten.
    let (records, bytes) = c.checkpoint().unwrap();
    assert_eq!(records, 7, "all history records snapshotted");
    assert!(bytes > 0);
    let stats = c.stats_line().unwrap();
    assert!(stats.contains(" wal_records=0"), "log reset: {stats}");
    assert!(stats.contains(" checkpoints=1"), "{stats}");
    c.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();

    // Generation 2: recovered from the checkpoint snapshot alone.
    let handle = spawn(config()).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    let stats = c.stats_line().unwrap();
    assert!(stats.contains(" recovered=7"), "{stats}");
    for (q, want) in QUERIES.iter().zip(&expect) {
        let (frame, _host) = c.raw_query_frames(q).unwrap();
        assert_eq!(&frame, want, "snapshot recovery diverged on {q:?}");
    }
    c.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();

    // A server without a data dir refuses CHECKPOINT with a stable kind.
    let handle = spawn(local_config()).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    match c.checkpoint() {
        Err(ClientError::Remote { kind, .. }) => assert_eq!(kind, "not_durable"),
        other => panic!("expected not_durable, got {other:?}"),
    }
    let stats = c.stats_line().unwrap();
    assert!(stats.contains("durable=0"), "{stats}");
    c.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();

    let _ = std::fs::remove_dir_all(&root);
}
