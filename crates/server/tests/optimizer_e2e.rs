//! End-to-end plan-compiler tests against live TCP servers.
//!
//! The tentpole guarantee: a server with the optimizer on answers every
//! query with rows *byte-identical* to a server with it off, while
//! spending no more (and on this workload strictly fewer) simulated pulses. The pulse accounting a client sees prices the
//! *chosen* plan, so `PROFILE`'s `drift_pulses >= 0` invariant keeps
//! holding against the optimized budget.

use systolic_machine::MachineConfig;
use systolic_server::{spawn, Client, ServerConfig};

/// (name, wire kinds, csv) — enough shape variety that every default
/// rewrite rule fires somewhere in the workload.
const TABLES: &[(&str, &str, &str)] = &[
    ("emp", "str,int", "ada,10\ngrace,20\nedsger,30\n"),
    ("dept", "int,str", "10,storage\n20,query\n"),
    ("a", "int", "1\n2\n2\n3\n4\n"),
    ("b", "int", "2\n3\n5\n"),
    ("ta", "int,int", "0,0\n1,1\n2,2\n3,0\n4,1\n5,2\n6,0\n7,1\n"),
    ("tb", "int,int", "5,2\n6,0\n7,1\n8,2\n9,0\n"),
];

/// Queries chosen so the optimizer has real work: redundant dedups,
/// nested projections, pushable filters over set ops and equi-joins —
/// plus plain queries where no rule fires (the identity path).
const QUERIES: &[&str] = &[
    "dedup(union(scan(a), scan(b)))",
    "project(project(scan(emp), [1, 0]), [0])",
    "project(dedup(scan(a)), [0])",
    "filter(filter(scan(ta), c0 >= 2), c1 <= 1)",
    "filter(intersect(scan(ta), scan(tb)), c0 <= 6)",
    "filter(union(scan(a), scan(b)), c0 >= 2)",
    "filter(join(scan(ta), scan(tb), 1 = 1), c0 >= 1)",
    "join(scan(emp), scan(dept), 1 = 0)",
    "difference(scan(a), scan(b))",
    "dedup(scan(a))",
];

fn config(optimize: bool) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        optimize,
        machine: MachineConfig::default(),
        slow_query: None,
        ..ServerConfig::default()
    }
}

/// Run the whole workload on a fresh server; returns per-query
/// (rows, csv, total_pulses) plus the final `STATS` line.
fn run_workload(optimize: bool) -> (Vec<(usize, String, u64)>, String) {
    let handle = spawn(config(optimize)).unwrap();
    let mut client = Client::connect(handle.addr).unwrap();
    for (name, kinds, csv) in TABLES {
        client.load_csv(name, kinds, csv).unwrap();
    }
    let answers = QUERIES
        .iter()
        .map(|q| {
            let r = client.query(q).unwrap();
            (r.rows, r.csv, r.total_pulses)
        })
        .collect();
    let stats = client.stats_line().unwrap();
    let _ = client.close();
    handle.shutdown();
    let _ = handle.join();
    (answers, stats)
}

fn rows_match(on: &[(usize, String, u64)], off: &[(usize, String, u64)]) {
    for (i, (o, f)) in on.iter().zip(off).enumerate() {
        assert_eq!(o.0, f.0, "row count diverged for {:?}", QUERIES[i]);
        assert_eq!(o.1, f.1, "rows diverged for {:?}", QUERIES[i]);
    }
}

#[test]
fn optimized_rows_are_byte_identical_and_strictly_cheaper() {
    let (on, stats_on) = run_workload(true);
    let (off, stats_off) = run_workload(false);
    rows_match(&on, &off);
    let pulses = |r: &[(usize, String, u64)]| r.iter().map(|x| x.2).sum::<u64>();
    assert!(
        pulses(&on) < pulses(&off),
        "optimizer saved nothing: {} vs {}",
        pulses(&on),
        pulses(&off)
    );
    // Per query the chosen plan never costs more.
    for (i, (o, f)) in on.iter().zip(&off).enumerate() {
        assert!(
            o.2 <= f.2,
            "query {:?} regressed: {} > {}",
            QUERIES[i],
            o.2,
            f.2
        );
    }
    // STATS reports the compiler's activity (and its absence when off).
    assert!(stats_on.contains(" optimize=1 "), "{stats_on}");
    assert!(stats_off.contains(" optimize=0 "), "{stats_off}");
    let rewrites = stats_on
        .split_whitespace()
        .find_map(|f| f.strip_prefix("rewrites="))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or_else(|| panic!("no rewrites field in {stats_on}"));
    assert!(
        rewrites >= 4,
        "expected >=4 rewrites on this workload, got {rewrites}"
    );
    assert!(stats_off.contains("rewrites=0"), "{stats_off}");
}

#[test]
fn plan_cache_hits_repeat_queries_and_invalidates_on_catalog_change() {
    let handle = spawn(config(true)).unwrap();
    let mut client = Client::connect(handle.addr).unwrap();
    for (name, kinds, csv) in TABLES {
        client.load_csv(name, kinds, csv).unwrap();
    }
    let q = "dedup(union(scan(a), scan(b)))";
    let first = client.query(q).unwrap();
    let second = client.query(q).unwrap();
    assert_eq!(first.csv, second.csv);
    assert_eq!(first.total_pulses, second.total_pulses);
    let stats = client.stats_line().unwrap();
    let field = |name: &str, line: &str| {
        line.split_whitespace()
            .find_map(|f| {
                f.strip_prefix(name)
                    .and_then(|v| v.strip_prefix('='))
                    .map(String::from)
            })
            .unwrap_or_else(|| panic!("no {name} in {line}"))
    };
    let hits: u64 = field("plan_cache_hits", &stats).parse().unwrap();
    assert!(hits >= 1, "repeat query missed the plan cache: {stats}");
    // A catalog change (new table) leaves the answer byte-identical; an
    // unrelated table does not re-key the plan (`plan_cache_e2e.rs`).
    client.load_csv("late", "int", "7\n").unwrap();
    let third = client.query(q).unwrap();
    assert_eq!(first.csv, third.csv);
    // The metrics exposition carries the per-rule rewrite series.
    let exposition = client.metrics().unwrap();
    assert!(
        exposition.contains("sdb_planner_rewrites_total{rule=\"dedup-elim\"}"),
        "{exposition}"
    );
    assert!(
        exposition.contains("sdb_plan_cache_hits_total"),
        "{exposition}"
    );
    let _ = client.close();
    handle.shutdown();
    let _ = handle.join();
}

#[test]
fn profile_drift_stays_nonnegative_against_the_chosen_plan() {
    let handle = spawn(config(true)).unwrap();
    let mut client = Client::connect(handle.addr).unwrap();
    for (name, kinds, csv) in TABLES {
        client.load_csv(name, kinds, csv).unwrap();
    }
    for q in QUERIES {
        let (_, profile) = client.profile(q).unwrap();
        let drift = profile
            .split("\"drift_pulses\":")
            .nth(1)
            .and_then(|rest| {
                rest.trim_start()
                    .split([',', '}'])
                    .next()?
                    .trim()
                    .parse::<i64>()
                    .ok()
            })
            .unwrap_or_else(|| panic!("no drift_pulses in profile for {q:?}: {profile}"));
        assert!(
            drift >= 0,
            "optimized plan under-budgeted {q:?}: drift {drift} in {profile}"
        );
    }
    let _ = client.close();
    handle.shutdown();
    let _ = handle.join();
}
