//! Crash durability end to end, with a real `sdb serve` process and a real
//! SIGKILL: no drain, no destructors, no flushes — whatever was not already
//! on stable storage is gone. A server restarted on the same `--data-dir`
//! must answer every query with `RESULT` frames *byte-identical* to the
//! ones the killed server produced, at one shard and at two (each shard
//! recovering its own partition from its own WAL).

#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;

use systolic_server::Client;

const TABLES: &[(&str, &str, &str)] = &[
    ("emp", "str,int", "ada,10\ngrace,20\nedsger,30\n"),
    ("dept", "int,str", "10,storage\n20,query\n"),
    ("a", "int", "1\n2\n2\n3\n4\n"),
    ("b", "int", "2\n3\n5\n"),
];

const QUERIES: &[&str] = &[
    "join(scan(emp), scan(dept), 1 = 0)",
    "filter(scan(emp), c1 >= 20)",
    "intersect(scan(a), scan(b))",
    "union(scan(a), scan(b))",
    "difference(scan(a), scan(b))",
    "dedup(scan(a))",
];

/// Spawn `sdb serve` on an ephemeral port and wait for its ready line.
fn spawn_server(data_dir: &Path, shards: usize) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sdb"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--data-dir",
            data_dir.to_str().unwrap(),
            "--shards",
            &shards.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sdb serve");
    let stdout = child.stdout.take().expect("captured stdout");
    let mut lines = BufReader::new(stdout).lines();
    let ready = lines
        .next()
        .expect("server exited before becoming ready")
        .expect("read ready line");
    let addr = ready
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected ready line {ready:?}"))
        .parse()
        .expect("parse listen address");
    // Keep draining stdout in the background so the child never blocks on a
    // full pipe.
    thread::spawn(move || for _ in lines {});
    (child, addr)
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdb_kill9_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stats_field(stats: &str, key: &str) -> u64 {
    stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key}= in {stats}"))
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {key}= in {stats}"))
}

#[test]
fn sigkilled_server_restarts_byte_identically() {
    for shards in [1usize, 2] {
        let dir = tmpdir(&format!("s{shards}"));

        // Generation 0: load everything, run a store(...) so a query is in
        // the WAL, and capture every acknowledged RESULT frame.
        let (mut child, addr) = spawn_server(&dir, shards);
        let mut c = Client::connect(addr).expect("connect gen0");
        for (name, kinds, csv) in TABLES {
            c.load_csv(name, kinds, csv).expect("load");
        }
        c.query("store(filter(scan(a), c0 >= 3), a_big)")
            .expect("store query");
        let expect: Vec<String> = QUERIES
            .iter()
            .map(|q| c.raw_query_frames(q).expect("gen0 query").0)
            .collect();

        // Keep live traffic in flight while the process dies: a second
        // client hammers queries until its connection is severed.
        let hammer = thread::spawn(move || {
            let Ok(mut h) = Client::connect(addr) else {
                return 0usize;
            };
            let mut answered = 0usize;
            loop {
                match h.raw_query_frames("union(scan(a), scan(b))") {
                    Ok(_) => answered += 1,
                    Err(_) => return answered,
                }
            }
        });
        // SIGKILL: Child::kill is kill(SIGKILL) on unix. Nothing below the
        // kernel gets a chance to flush.
        child.kill().expect("SIGKILL server");
        child.wait().expect("reap server");
        hammer.join().expect("hammer thread");
        drop(c);

        // Generation 1: same data dir, fresh process. Recovery must replay
        // every acknowledged load and the logged store query.
        let (mut child, addr) = spawn_server(&dir, shards);
        let mut c = Client::connect(addr).expect("connect gen1");
        let stats = c.stats_line().expect("gen1 stats");
        assert_eq!(stats_field(&stats, "durable"), 1, "{stats}");
        assert_eq!(
            stats_field(&stats, "recovered"),
            TABLES.len() as u64 + 1,
            "loads + store query recovered: {stats}"
        );
        for (q, want) in QUERIES.iter().zip(&expect) {
            let (frame, _host) = c.raw_query_frames(q).expect("gen1 query");
            assert_eq!(
                &frame, want,
                "shards={shards}: RESULT diverged after SIGKILL on {q:?}"
            );
        }
        // Loading survives recovery too: a fresh table plus a rerun.
        c.load_csv("late", "int", "7\n8\n")
            .expect("post-crash load");
        let (frame, _) = c.raw_query_frames("dedup(scan(late))").expect("late query");
        assert!(frame.starts_with("RESULT rows=2 "), "{frame}");
        drop(c);
        child.kill().expect("SIGKILL gen1");
        child.wait().expect("reap gen1");

        // Generation 2: the post-crash load must have been durable as well.
        let (mut child, addr) = spawn_server(&dir, shards);
        let mut c = Client::connect(addr).expect("connect gen2");
        let (frame, _) = c.raw_query_frames("dedup(scan(late))").expect("gen2 query");
        assert!(frame.starts_with("RESULT rows=2 "), "{frame}");
        for (q, want) in QUERIES.iter().zip(&expect) {
            let (frame, _host) = c.raw_query_frames(q).expect("gen2 query");
            assert_eq!(
                &frame, want,
                "shards={shards}: second recovery diverged on {q:?}"
            );
        }
        let _ = c.close();
        child.kill().expect("SIGKILL gen2");
        child.wait().expect("reap gen2");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
