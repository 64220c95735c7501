//! The `sdb serve` child process: spawn, wait for the ready line, stop.
//!
//! The benchmark pins this much of the command line and nothing else:
//! `sdb serve --addr 127.0.0.1:0`, the `listening on <addr>` ready line,
//! `--backend sim|columnar`, `--io poll`, `--shards 2`, `--data-dir DIR`.

use std::fs::OpenOptions;
use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::wire::Conn;

/// How long a server may take from spawn to its ready line. Recovery of a
/// few thousand logged writes runs before the line is printed.
const READY_TIMEOUT: Duration = Duration::from_secs(90);

/// A running server. Dropping it kills the process and waits for it, so no
/// exit path of the benchmark leaves a server behind.
#[derive(Debug)]
pub struct Server {
    child: Child,
    /// Reads the ready line, then drains stdout until the server exits.
    stdout: Option<JoinHandle<()>>,
    /// The loopback address it listens on.
    pub addr: String,
}

impl Server {
    /// Spawn `sdb serve` and block until it prints its ready line.
    /// `SYSTOLIC_BACKEND`/`SYSTOLIC_THREADS` are cleared so the flags alone
    /// pick the configuration; stderr (slow-query log, flight recorder) is
    /// appended to `log`.
    pub fn spawn(
        sdb: &Path,
        flags: &[&str],
        data_dir: Option<&Path>,
        log: &Path,
    ) -> io::Result<Server> {
        let stderr = OpenOptions::new().create(true).append(true).open(log)?;
        let mut cmd = Command::new(sdb);
        cmd.args(["serve", "--addr", "127.0.0.1:0"]).args(flags);
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        let mut child = cmd
            .env_remove("SYSTOLIC_BACKEND")
            .env_remove("SYSTOLIC_THREADS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // Read the ready line on a helper thread so a server that never
        // becomes ready fails the run instead of hanging it. The thread then
        // drains stdout until the server exits.
        let (tx, rx) = mpsc::channel();
        let reader = thread::spawn(move || {
            let mut lines = BufReader::new(stdout).lines();
            let _ = tx.send(lines.next());
            for _ in lines {}
        });
        let mut server = Server {
            child,
            stdout: Some(reader),
            addr: String::new(),
        };
        match rx.recv_timeout(READY_TIMEOUT) {
            Ok(Some(Ok(line))) => match line.strip_prefix("listening on ") {
                Some(addr) => {
                    server.addr = addr.trim().to_string();
                    Ok(server)
                }
                None => Err(io::Error::other(format!("unexpected ready line {line:?}"))),
            },
            Ok(_) => Err(io::Error::other("server exited before its ready line")),
            Err(_) => Err(io::Error::other("server not ready in time")),
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask the server to drain and exit (`SHUTDOWN`), then wait; kill it if
    /// it has not exited after five seconds.
    pub fn shutdown(mut self) {
        if let Ok(mut conn) = Conn::connect(&self.addr) {
            let _ = conn.call("SHUTDOWN", 1);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            thread::sleep(Duration::from_millis(5));
        }
        // Drop kills and reaps.
    }

    /// SIGKILL, as a crash: no drain, no flush beyond what was already
    /// fsynced. The OS page cache survives, so what follows proves log
    /// replay, not media durability.
    pub fn crash(self) {
        drop(self);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        // The pipe is closed now, so the reader has seen end of file.
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}
