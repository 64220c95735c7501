//! The plan cache over a live TCP server: a cached plan is keyed by the
//! query text and the catalog entries of the names it scans and stores
//! into, so a `LOAD` of any other table leaves it a hit, and a `store(...)`
//! write-back is a catalog table like a loaded one.

use systolic_machine::MachineConfig;
use systolic_server::{spawn, Client, ClientError, ServerConfig};

fn config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        optimize: true,
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
    let handle = spawn(config()).unwrap();
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
    let handle = spawn(config()).unwrap();
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
