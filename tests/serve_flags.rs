//! `sdb serve`'s retired switches at the process boundary. There is one
//! front end, thread-per-connection, and one machine. `--io threads|poll`
//! and `--shards N` still parse, so scripts that pass them keep working,
//! and the server says on stderr that each is ignored — never on stdout,
//! where scripts read the ready line. Any other `--io` value, a `--shards`
//! that is not a number, and the removed `--replacer` stop `sdb serve` with
//! a usage error and exit status 2.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use systolic_server::Client;

/// Serve with `flags`, expect `note` as stderr's first line, run one
/// query, and shut the server down cleanly.
fn serves_and_notes(flags: &[&str], note: &str) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sdb"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .args(flags)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut ready = String::new();
    stdout.read_line(&mut ready).unwrap();
    let addr = ready
        .trim_end()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("{flags:?}: unexpected ready line {ready:?}"))
        .to_string();
    let mut first = String::new();
    BufReader::new(child.stderr.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert_eq!(first.trim_end(), note, "{flags:?}");

    let mut client = Client::connect(addr.as_str()).unwrap();
    client.load_csv("t", "int", "1\n2\n").unwrap();
    assert_eq!(client.query("scan(t)").unwrap().rows, 2, "{flags:?}");
    client.shutdown_server().unwrap();
    assert!(child.wait().unwrap().success(), "{flags:?}");
}

#[test]
fn io_threads_and_poll_are_accepted_and_ignored() {
    for io in ["threads", "poll"] {
        serves_and_notes(
            &["--io", io],
            &format!(
                "sdb serve: --io {io} is ignored; every connection is served thread-per-connection"
            ),
        );
    }
}

#[test]
fn shards_n_is_accepted_and_ignored() {
    serves_and_notes(
        &["--shards", "2"],
        "sdb serve: --shards 2 is ignored; one machine serves every query",
    );
}

#[test]
fn other_io_values_and_the_removed_replacer_are_usage_errors() {
    for args in [
        ["--io", "epoll"],
        ["--shards", "many"],
        ["--replacer", "lru"],
        ["--replacer", "clock"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sdb"))
            .arg("serve")
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} started serving");
    }
}
