//! A durable database session: course-requirement auditing across a restart.
//!
//! The division operation's classic use case (§7): which students have
//! taken *every* core course? This example drives the served engine the
//! way a downstream client would:
//!
//! 1. start an in-process server on a data directory and `LOAD` two tables;
//! 2. run the division and write its result back as a table (§9: "the final
//!    results are eventually returned to the disk"), then query it again;
//! 3. shut the server down and reopen it on the same directory: recovery
//!    replays the logged loads and write-back, re-interning strings in their
//!    original order (§2.3), so every query answers with the same `RESULT`
//!    frame, byte for byte, as before the restart.
//!
//! Run with: `cargo run --example course_audit`

use std::path::Path;

use systolic_db::server::{spawn, Client, ServerConfig, ServerHandle};

const TAKES: &str = "ida,db\nida,os\nida,nets\njoe,db\njoe,golf\nkay,os\nkay,db\nlou,db\nlou,os\n";
const CORE: &str = "db\nos\n";
const DIVIDE: &str = "divide(scan(takes), scan(core), 0, 1, 0)";

/// Queries answered before and after the restart: the division, the
/// stored table, and a query that compares it with a loaded table.
const QUERIES: [&str; 3] = [
    DIVIDE,
    "scan(completers)",
    "intersect(scan(completers), project(scan(takes), [0]))",
];

fn open(data_dir: &Path) -> (ServerHandle, Client) {
    let handle = spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        data_dir: Some(data_dir.to_path_buf()),
        ..ServerConfig::default()
    })
    .expect("start server");
    let client = Client::connect(handle.addr).expect("connect");
    (handle, client)
}

fn close(handle: ServerHandle, mut client: Client) {
    client.close().expect("close connection");
    handle.shutdown();
    handle.join().expect("join server");
}

fn main() {
    let data_dir =
        std::env::temp_dir().join(format!("systolic-course-audit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);

    // ---- 1. Load the tables into a durable server ----------------------
    let (handle, mut c) = open(&data_dir);
    println!("serving {} on {}", data_dir.display(), handle.addr);
    c.load_csv("takes", "str,str", TAKES).expect("load takes");
    c.load_csv("core", "str", CORE).expect("load core");

    // ---- 2. Divide, write the result back, and reuse it ----------------
    let stored = c
        .query(&format!("store({DIVIDE}, completers)"))
        .expect("store the division");
    println!("store({DIVIDE}, completers): {} rows", stored.rows);
    let mut before = Vec::new();
    for q in QUERIES {
        let out = c.query(q).expect("query");
        println!("query: {q}");
        print!("{}", out.csv);
        println!(
            "   [{} array pulses over {} tile run(s), makespan {:.3} ms]\n",
            out.total_pulses,
            out.array_runs,
            out.makespan_ns as f64 / 1e6
        );
        before.push(out.raw);
    }
    close(handle, c);

    // ---- 3. Reopen on the same directory: recovery replays the log -----
    let (handle, mut c) = open(&data_dir);
    for (q, want) in QUERIES.iter().zip(&before) {
        let (raw, _host) = c.raw_query_frames(q).expect("query after restart");
        assert_eq!(&raw, want, "{q} answered differently after the restart");
    }
    close(handle, c);
    println!(
        "after a restart on the same directory, all {} queries answered byte-identical RESULT frames",
        QUERIES.len()
    );

    let _ = std::fs::remove_dir_all(&data_dir);
}
