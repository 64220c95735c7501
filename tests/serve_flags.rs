//! `sdb serve`'s retired switches at the process boundary. There is one
//! front end, thread-per-connection. `--io threads|poll` still parses, so
//! scripts that pass it keep working, and the server says on stderr that
//! it is ignored — never on stdout, where scripts read the ready line. Any
//! other `--io` value, and the removed `--replacer`, stop `sdb serve` with a
//! usage error and exit status 2.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use systolic_server::Client;

#[test]
fn io_threads_and_poll_are_accepted_and_ignored() {
    for io in ["threads", "poll"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sdb"))
            .args(["serve", "--addr", "127.0.0.1:0", "--io", io])
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
            .unwrap_or_else(|| panic!("--io {io}: unexpected ready line {ready:?}"))
            .to_string();
        let mut note = String::new();
        BufReader::new(child.stderr.take().unwrap())
            .read_line(&mut note)
            .unwrap();
        assert_eq!(
            note.trim_end(),
            format!(
                "sdb serve: --io {io} is ignored; every connection is served thread-per-connection"
            )
        );

        let mut client = Client::connect(addr.as_str()).unwrap();
        client.load_csv("t", "int", "1\n2\n").unwrap();
        assert_eq!(client.query("scan(t)").unwrap().rows, 2, "--io {io}");
        client.shutdown_server().unwrap();
        assert!(child.wait().unwrap().success(), "--io {io}");
    }
}

#[test]
fn other_io_values_and_the_removed_replacer_are_usage_errors() {
    for args in [
        ["--io", "epoll"],
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
