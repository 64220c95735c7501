//! The plan cache over a live TCP server: a cached plan is keyed by the
//! query text and the catalog entries of the names it scans and stores
//! into, so a `LOAD` of any other table leaves it a hit, and a `store(...)`
//! write-back is a catalog table like a loaded one. A hit runs the plan the
//! miss compiled, under either `--optimize` setting, and answers as the
//! miss did.

use systolic_machine::MachineConfig;
use systolic_server::{spawn, Client, ClientError, ServerConfig};

/// The tables and queries of `optimizer_e2e.rs`: every default rewrite
/// rule fires somewhere, and some queries take the identity path.
const TABLES: &[(&str, &str, &str)] = &[
    ("emp", "str,int", "ada,10\ngrace,20\nedsger,30\n"),
    ("dept", "int,str", "10,storage\n20,query\n"),
    ("a", "int", "1\n2\n2\n3\n4\n"),
    ("b", "int", "2\n3\n5\n"),
    ("ta", "int,int", "0,0\n1,1\n2,2\n3,0\n4,1\n5,2\n6,0\n7,1\n"),
    ("tb", "int,int", "5,2\n6,0\n7,1\n8,2\n9,0\n"),
];

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

/// One counter of the `METRICS` exposition.
fn counter(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no {name} in {exposition}"))
}

/// (hits, misses) so far.
fn cache_counts(client: &mut Client) -> (u64, u64) {
    let exposition = client.metrics().unwrap();
    (
        counter(&exposition, "sdb_plan_cache_hits_total"),
        counter(&exposition, "sdb_plan_cache_misses_total"),
    )
}

#[test]
fn loads_of_unrelated_tables_leave_a_cached_plan_a_hit() {
    let handle = spawn(config(true)).unwrap();
    let mut client = Client::connect(handle.addr).unwrap();
    client.load_csv("a", "int,int", "1,2\n1,2\n3,4\n").unwrap();
    let q = "dedup(union(scan(a), scan(a)))";
    let first = client.query(q).unwrap();
    let (hits, misses) = cache_counts(&mut client);
    assert_eq!(misses, 1, "the first run compiles");
    for k in 0..120 {
        client
            .load_csv(&format!("other_{k}"), "int,int", "5,6\n")
            .unwrap();
    }
    let again = client.query(q).unwrap();
    assert_eq!(again.csv, first.csv);
    assert_eq!(again.total_pulses, first.total_pulses);
    assert_eq!(
        cache_counts(&mut client),
        (hits + 1, misses),
        "120 unrelated loads re-keyed the plan"
    );
    let _ = client.close();
    handle.shutdown();
    let _ = handle.join();
}

#[test]
fn a_store_target_is_a_catalog_table() {
    let handle = spawn(config(true)).unwrap();
    let mut client = Client::connect(handle.addr).unwrap();
    client.load_csv("a", "int,int", "1,2\n3,4\n").unwrap();
    let store = "store(dedup(scan(a)), out)";
    assert_eq!(client.query(store).unwrap().rows, 2);
    // The target is a table now: a query over it compiles once, then hits.
    let q = "union(scan(out), scan(a))";
    assert_eq!(client.query(q).unwrap().rows, 2);
    let (hits, misses) = cache_counts(&mut client);
    assert_eq!(client.query(q).unwrap().rows, 2);
    assert_eq!(
        cache_counts(&mut client),
        (hits + 1, misses),
        "the repeat is a hit"
    );
    // Storing or loading over it is writing over a catalog table.
    match client.query(store) {
        Err(ClientError::Remote { kind, detail }) => {
            assert_eq!(kind, "analysis", "{detail}");
            assert!(detail.contains("SA008"), "want ShadowedLoad: {detail}");
            assert!(detail.contains("out"), "{detail}");
        }
        other => panic!("expected a ShadowedLoad rejection, got {other:?}"),
    }
    match client.load_csv("out", "int,int", "9,9\n") {
        Err(ClientError::Remote { kind, .. }) => assert_eq!(kind, "conflict"),
        other => panic!("expected a conflict, got {other:?}"),
    }
    let _ = client.close();
    handle.shutdown();
    let _ = handle.join();
}

/// A `PROFILE` payload without its host-clock parts (trace id, host waits,
/// latency): the predictions, the simulated accounting and every step's
/// predicted and actual fields.
fn simulated_part(profile: &str) -> String {
    let at = |key: &str| {
        profile
            .find(key)
            .unwrap_or_else(|| panic!("no {key} in {profile}"))
    };
    let predicted = &profile[at("\"predicted\":")..at(",\"host\":")];
    format!("{predicted}{}", &profile[at("\"steps\":")..])
}

#[test]
fn a_hit_answers_as_the_miss_did_under_both_settings() {
    for optimize in [true, false] {
        let handle = spawn(config(optimize)).unwrap();
        let mut client = Client::connect(handle.addr).unwrap();
        for (name, kinds, csv) in TABLES {
            client.load_csv(name, kinds, csv).unwrap();
        }
        for q in QUERIES {
            let (_, misses) = cache_counts(&mut client);
            let (miss, miss_profile) = client.profile(q).unwrap();
            assert_eq!(
                cache_counts(&mut client).1,
                misses + 1,
                "{q}: compiles once"
            );
            let (hit, hit_profile) = client.profile(q).unwrap();
            let repeat = client.query(q).unwrap();
            assert_eq!(cache_counts(&mut client).1, misses + 1, "{q}: repeats hit");
            assert_eq!(hit.raw, miss.raw, "optimize={optimize} {q}");
            assert_eq!(repeat.raw, miss.raw, "optimize={optimize} {q}");
            assert_eq!(
                simulated_part(&hit_profile),
                simulated_part(&miss_profile),
                "optimize={optimize} {q}"
            );
        }
        // A LOAD of a name no query reads re-plans nothing; one of a name
        // a query reads compiles that query afresh.
        let (hits, misses) = cache_counts(&mut client);
        client.load_csv("late", "int", "7\n").unwrap();
        for q in QUERIES {
            client.query(q).unwrap();
        }
        let n = QUERIES.len() as u64;
        assert_eq!(cache_counts(&mut client), (hits + n, misses));
        let q = "union(scan(a), scan(later))";
        assert!(client.query(q).is_err(), "later is not loaded yet");
        assert_eq!(cache_counts(&mut client), (hits + n, misses));
        client.load_csv("later", "int", "9\n").unwrap();
        let first = client.query(q).unwrap();
        assert_eq!(client.query(q).unwrap().raw, first.raw);
        assert_eq!(cache_counts(&mut client), (hits + n + 1, misses + 1));
        let stats = client.stats_line().unwrap();
        let cached = stats
            .split_whitespace()
            .find_map(|f| f.strip_prefix("plan_cache_hits="))
            .unwrap_or_else(|| panic!("no plan_cache_hits in {stats}"));
        assert_eq!(cached, (hits + n + 1).to_string(), "STATS counts hits too");
        let _ = client.close();
        handle.shutdown();
        let _ = handle.join();
    }
}
