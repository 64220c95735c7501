//! A `store(...)` write-back is a table: once the query that writes it is
//! answered, later queries scan it, and a restart on the same data
//! directory advertises it again when recovery re-runs the logged query.

use systolic_machine::{Backend, MachineConfig};
use systolic_server::{spawn, Client, ClientError, ServerConfig};

fn config(data_dir: &std::path::Path) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: Some(data_dir.to_path_buf()),
        machine: MachineConfig {
            backend: Backend::Columnar,
            ..MachineConfig::default()
        },
        ..ServerConfig::default()
    }
}

#[test]
fn a_store_target_is_scanned_before_and_after_a_restart() {
    let root = std::env::temp_dir().join(format!("sdb_store_target_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let data_dir = root.join("data");
    let union = "union(scan(big), scan(emp))";

    let handle = spawn(config(&data_dir)).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    c.load_csv("emp", "int,int", "10,1\n20,2\n30,3\n").unwrap();
    let stored = c.query("store(filter(scan(emp), c0 >= 20), big)").unwrap();
    assert_eq!(stored.rows, 2);
    let before = c.query(union).unwrap();
    assert_eq!(
        (before.rows, before.csv.as_str()),
        (3, "c0,c1\n20,2\n30,3\n10,1\n")
    );
    // The target is a catalog table now: storing over it is refused like
    // storing over a loaded table.
    match c.query("store(scan(emp), big)") {
        Err(ClientError::Remote { kind, detail }) => {
            assert_eq!(kind, "analysis", "{detail}");
            assert!(
                detail.contains("SA008") && detail.contains("big"),
                "{detail}"
            );
        }
        other => panic!("expected SA008, got {other:?}"),
    }
    c.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();

    let handle = spawn(config(&data_dir)).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    let after = c.query(union).unwrap();
    assert_eq!(after.csv, before.csv);
    assert_eq!(c.query("scan(big)").unwrap().csv, "c0,c1\n20,2\n30,3\n");
    c.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}
