//! Deterministic "in flight" conditions for the e2e tests.
//!
//! The machine runs one request per turn, so a test can park requests by
//! keeping it busy: while a slow pulse-simulated query has its turn, every
//! later request waits for its own, and when the slow one ends the turn
//! passes to the oldest waiter. No server-side hook is involved;
//! everything here goes over the wire.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use systolic_machine::{Backend, MachineConfig};
use systolic_relation::DomainKind;
use systolic_server::{Client, Engine};

/// How long an occupied machine should stay occupied: ample for a test to
/// connect a few clients and poll `METRICS`, short enough to sit out.
const HOLD: Duration = Duration::from_millis(1200);

/// Give up waiting for a condition an occupied machine should make true.
const PATIENCE: Duration = Duration::from_secs(20);

/// The machine every server that gets occupied must run: the *pulse
/// simulator*, whatever `SYSTOLIC_BACKEND` says — the fast backends answer
/// in microseconds and occupy nothing.
pub fn sim_machine() -> MachineConfig {
    MachineConfig {
        backend: Backend::Sim,
        ..MachineConfig::default()
    }
}

/// A server whose machine is inside one slow query until [`Occupied::finish`].
pub struct Occupied {
    client: Client,
}

fn distinct_ints(n: usize) -> String {
    (0..n).map(|i| format!("{i}\n")).collect()
}

/// Rows over which one simulated `dedup` runs for about [`HOLD`] on this
/// host and build profile. The §5 array compares every pair of rows, so
/// host time grows with the square of the row count: time a small probe
/// in-process and scale.
fn occupier_rows() -> usize {
    const PROBE: usize = 96;
    let mut engine = Engine::new(sim_machine()).unwrap();
    engine
        .load_table("probe", &[DomainKind::Int], &distinct_ints(PROBE))
        .unwrap();
    let started = Instant::now();
    engine.run_query("dedup(scan(probe))").unwrap();
    let ratio = HOLD.as_secs_f64() / started.elapsed().as_secs_f64().max(1e-6);
    ((PROBE as f64 * ratio.sqrt()) as usize).clamp(PROBE, 4096)
}

/// One `name=<u64>` field of a `STATS` line.
pub fn stat(line: &str, name: &str) -> u64 {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(name)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {name}= in {line}"))
}

/// The query that keeps a pulse-simulator server busy for about [`HOLD`],
/// once [`load_occupier`] has loaded what it scans.
const OCCUPIER_QUERY: &str = "dedup(scan(occupier))";

/// Load the relation [`OCCUPIER_QUERY`] runs over, sized by
/// [`occupier_rows`].
fn load_occupier(client: &mut Client) {
    client
        .load_csv("occupier", "int", &distinct_ints(occupier_rows()))
        .unwrap();
}

/// Occupy the machine of the (pulse-simulator) server at `addr`: send
/// [`OCCUPIER_QUERY`] without reading the answer, and return once `STATS`
/// counts it — the occupier's worker has its turn on the machine and keeps
/// it for about [`HOLD`]. Leaves one table (`occupier`), one load
/// and one query on the server's counters.
pub fn occupy_machine(addr: SocketAddr) -> Occupied {
    let mut client = Client::connect(addr).unwrap();
    load_occupier(&mut client);
    let mut probe = Client::connect(addr).unwrap();
    let before = stat(&probe.stats_line().unwrap(), "queries");
    client.send_query(OCCUPIER_QUERY).unwrap();
    let deadline = Instant::now() + PATIENCE;
    while stat(&probe.stats_line().unwrap(), "queries") == before {
        assert!(Instant::now() < deadline, "the occupier never got its turn");
        std::thread::yield_now();
    }
    let _ = probe.close();
    Occupied { client }
}

impl Occupied {
    /// Read the occupying query's `RESULT` frame: its turn is over and has
    /// passed to whatever waited behind it.
    pub fn finish(mut self) -> String {
        let (result, _host) = self.client.recv_query_frames().unwrap();
        let _ = self.client.close();
        result
    }
}

/// One value out of a `METRICS` scrape of the server at `addr`, on a
/// connection of its own (`labels` as rendered, e.g. `{reason="idle"}`).
pub fn metric(addr: SocketAddr, name: &str, labels: &str) -> f64 {
    let mut probe = Client::connect(addr).unwrap();
    let text = probe.metrics().unwrap();
    let _ = probe.close();
    systolic_telemetry::prom::validate(&text)
        .expect("exposition must validate")
        .value(name, labels)
        .unwrap_or_else(|| panic!("no {name}{labels} in the exposition"))
}

/// Block until exactly `n` requests wait for their turn on the machine
/// (`sdb_machine_waiting`) — on an occupied machine, until `n` requests are
/// queued behind the occupier.
pub fn await_waiting(addr: SocketAddr, n: usize) {
    let deadline = Instant::now() + PATIENCE;
    loop {
        let waiting = metric(addr, "sdb_machine_waiting", "");
        if waiting == n as f64 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "sdb_machine_waiting stuck at {waiting}, wanted {n}"
        );
        std::thread::yield_now();
    }
}
