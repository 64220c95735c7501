//! Admission: one request per turn on the machine.
//!
//! The machine runs one request at a time, and the worker serving a request
//! runs it itself: [`with_machine`] waits for the request's turn, calls the
//! request's closure on the [`Machine`], and hands the turn on. No job
//! crosses threads. A worker that finds the machine free takes its turn at
//! once, with no wakeup; one that finds it held queues a [`Waiter`] and is
//! woken when every turn queued before it is done — first come, first
//! served. The worker renders, profiles and writes its socket after its
//! turn, so the next request runs meanwhile.
//!
//! Every reply carries the query's standalone accounting, exactly what a
//! one-shot run reports: on its turn a query runs its compiled plan alone,
//! with [`System::run_plan`]. No served path merges the queries of several
//! requests into one schedule.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use systolic_machine::{MachineError, RunStats, System, Timeline};
use systolic_relation::{DomainKind, MultiRelation};
use systolic_storage::StorageEngine;
use systolic_telemetry::{span_in, TraceCtx};

use crate::engine::{kind_name, Compiled};
use crate::locks;
use crate::metrics::ServerMetrics;
use crate::server::{DurableStats, Shared};

/// The machine requests take turns on: the §9 `System` and, on a durable
/// server, its durable half. One lock in [`Shared`] guards both.
pub(crate) struct Machine {
    pub(crate) system: System,
    pub(crate) durable: Option<Durable>,
}

/// The machine's durable half: the storage engine (WAL + paged store)
/// plus the gauges `STATS` reads. Behind the machine lock with the
/// `System`, so every log append happens in turn order — the order
/// recovery replays.
pub(crate) struct Durable {
    pub(crate) engine: StorageEngine,
    pub(crate) stats: Arc<DurableStats>,
}

impl Durable {
    fn refresh(&self) {
        self.stats
            .wal_bytes
            .store(self.engine.wal_bytes(), Ordering::SeqCst);
        self.stats
            .wal_records
            .store(self.engine.wal_records() as u64, Ordering::SeqCst);
    }

    /// Write-ahead a load. A failed append degrades durability, not
    /// service: the load still lands and the client is still answered.
    fn log_load(&mut self, name: &str, kinds: &[DomainKind], csv: &str) {
        let kinds: Vec<String> = kinds.iter().map(|&k| kind_name(k).to_string()).collect();
        if let Err(e) = self.engine.log_load(name, &kinds, csv) {
            eprintln!("wal: failed to log load {name:?}: {e}");
        }
        self.refresh();
    }

    /// Write-ahead a query, but only when it has `store(...)` side effects —
    /// read-only queries change no durable state and replay would only
    /// slow recovery down.
    fn log_query(&mut self, compiled: &Compiled, text: &str) {
        if compiled.writes.is_empty() {
            return;
        }
        if let Err(e) = self.engine.log_query(text) {
            eprintln!("wal: failed to log query {text:?}: {e}");
        }
        self.refresh();
    }

    /// Snapshot the history and reset the log; returns (records, snapshot
    /// bytes).
    fn checkpoint(&mut self) -> Result<(u64, u64), String> {
        let report = self.engine.checkpoint().map_err(|e| e.to_string())?;
        self.stats.checkpoints.fetch_add(1, Ordering::SeqCst);
        self.refresh();
        Ok((report.records as u64, report.bytes))
    }
}

/// How a request's wait for the machine ended.
pub(crate) enum Fenced<T> {
    /// The request had its turn; this is what it returned.
    Answered(T),
    /// The worker timed out and left the queue before the turn came: the
    /// request never ran, so `ERR timeout` is the truth. Already counted.
    TimedOut,
    /// A panic during an earlier turn left the machine out of service; the
    /// request did not run.
    Gone,
}

/// A worker waiting for its turn: its ticket, and a capacity-1 channel the
/// holder wakes it on, so the one send never blocks.
struct Waiter {
    ticket: u64,
    wake: SyncSender<()>,
}

/// The turn queue: the workers waiting for the machine, and whether one
/// holds it.
///
/// Why no waiter is ever stranded — queued while the machine is free: one
/// mutex guards both the queue and the `held` flag. A worker takes the turn
/// if it is free and otherwise queues itself; a holder that is done hands
/// the turn to the oldest waiter, or releases it when none waits. Each is
/// one critical section, so whichever of the two comes second sees the
/// other's effect: a worker after the release finds the machine free and
/// takes it, and a release after the worker queued finds it and hands the
/// turn over instead of freeing it. Whenever the mutex is free,
/// `held || waiting.is_empty()`.
///
/// The same mutex settles a timeout: a worker that times out leaves the
/// queue, and a holder hands the turn to a waiter by taking it off the
/// queue, so exactly one of the two finds the waiter there. A worker that
/// left never runs its request; one that finds itself already taken off
/// cannot time out any more, and waits on for the turn on its way.
#[derive(Default)]
pub(crate) struct Turns {
    queue: Mutex<Queue>,
}

#[derive(Default)]
struct Queue {
    waiting: VecDeque<Waiter>,
    /// A worker holds the turn, or it has been handed to one that has not
    /// woken yet.
    held: bool,
    /// The ticket the next waiter gets.
    next_ticket: u64,
}

impl Turns {
    /// Requests waiting for their turn.
    pub(crate) fn waiting(&self) -> usize {
        locks::lock(&self.queue).waiting.len()
    }

    /// Take the turn if the machine is free (`None`); otherwise queue a
    /// waiter and return its ticket and wake channel.
    fn take_or_queue(&self) -> Option<(u64, Receiver<()>)> {
        let mut queue = locks::lock(&self.queue);
        if !queue.held {
            queue.held = true;
            return None;
        }
        let ticket = queue.next_ticket;
        queue.next_ticket += 1;
        let (wake, woken) = sync_channel(1);
        queue.waiting.push_back(Waiter { ticket, wake });
        Some((ticket, woken))
    }

    /// Leave the queue, having timed out; `false` when the holder has
    /// already taken the waiter off to hand it the turn.
    fn leave(&self, ticket: u64) -> bool {
        let mut queue = locks::lock(&self.queue);
        let Some(at) = queue.waiting.iter().position(|w| w.ticket == ticket) else {
            return false;
        };
        queue.waiting.remove(at);
        true
    }

    /// End a turn: hand it to the oldest waiter, or free the machine when
    /// none waits.
    fn pass_on(&self) {
        let mut queue = locks::lock(&self.queue);
        while let Some(next) = queue.waiting.pop_front() {
            // A waiter still queued is still waiting on its channel: a
            // worker drops it only after leaving the queue.
            if next.wake.send(()).is_ok() {
                return;
            }
        }
        queue.held = false;
    }
}

/// A turn, held. Dropping it passes the turn on — also when the request
/// panicked.
struct Turn<'a>(&'a Turns);

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        self.0.pass_on();
    }
}

/// Wait for the request's turn, no longer than the request timeout, and run
/// `run` on the machine. On expiry the worker tries to [leave](Turns::leave)
/// the queue; failing means the holder has already handed it the turn, so
/// it waits on rather than tell the client a lie. The turn passes on when
/// `run` returns, before the caller renders or writes its socket.
///
/// The machine lock does not recover from poisoning: a panic during a turn
/// may have left the machine half-updated, and nothing runs on it again.
/// Every later request is answered [`Fenced::Gone`].
pub(crate) fn with_machine<T>(shared: &Shared, run: impl FnOnce(&mut Machine) -> T) -> Fenced<T> {
    if let Some((ticket, woken)) = shared.turns.take_or_queue() {
        if woken.recv_timeout(shared.cfg.request_timeout).is_err() {
            if shared.turns.leave(ticket) {
                shared.count_timeout();
                return Fenced::TimedOut;
            }
            // Taken off the queue: the holder sent the turn under the same
            // lock.
            let _ = woken.recv();
        }
    }
    let _turn = Turn(&shared.turns);
    let Ok(mut machine) = shared.machine.lock() else {
        return Fenced::Gone;
    };
    Fenced::Answered(run(&mut machine))
}

/// What a query is answered with: the result relation (still encoded; the
/// worker renders it) and the run's report.
pub(crate) type QueryAnswer = Result<(MultiRelation, QueryReply), MachineError>;

/// What the machine reported about a finished query.
pub(crate) struct QueryReply {
    /// Standalone simulated-hardware statistics.
    pub stats: RunStats,
    /// Host wall-clock nanoseconds of the run that produced this answer.
    pub host_wall_ns: u64,
    /// Per-plan-step output cardinalities (see
    /// [`systolic_machine::RunOutcome::step_rows`]) — what the profile's
    /// per-step `actual_rows` reads.
    pub step_rows: Vec<u64>,
    /// The query's simulated schedule — what the profiler mines for
    /// per-step actual pulses and device occupancy.
    pub timeline: Timeline,
    /// Host ns the request waited for its turn on the machine.
    pub queue_wait_ns: u64,
    /// Host ns spent write-ahead-logging this query (0 when read-only).
    pub wal_fsync_ns: u64,
    /// Buffer-pool hits observed process-wide across this run.
    pub pool_hits: u64,
    /// Buffer-pool misses over the same interval as `pool_hits`.
    pub pool_misses: u64,
}

/// Run a compiled query's plan on its turn: write it ahead when it has
/// `store(...)` side effects, then run it and stamp the host-side waits
/// measured for it onto the reply.
pub(crate) fn run_query(
    shared: &Shared,
    compiled: &Compiled,
    text: &str,
    trace: Option<TraceCtx>,
) -> Fenced<QueryAnswer> {
    let submitted = Instant::now();
    with_machine(shared, |machine| {
        let queue_wait_ns = submitted.elapsed().as_nanos() as u64;
        let mut wal_fsync_ns = 0;
        if let Some(d) = machine.durable.as_mut() {
            let logged = Instant::now();
            d.log_query(compiled, text);
            wal_fsync_ns = logged.elapsed().as_nanos() as u64;
        }
        shared.counters.update(|c| c.queries += 1);
        shared.metrics.queries.inc();
        let _span = span_in(trace, "server.run");
        let storage = systolic_storage::StorageMetrics::shared();
        let (hits0, misses0) = (storage.pool_hits.get(), storage.pool_misses.get());
        let out = machine.system.run_plan(&compiled.plan)?;
        record_op_pulses(&shared.metrics, &out.timeline);
        let reply = QueryReply {
            stats: out.stats,
            host_wall_ns: out.host_wall_ns,
            step_rows: out.step_rows,
            timeline: out.timeline,
            queue_wait_ns,
            wal_fsync_ns,
            pool_hits: storage.pool_hits.get().saturating_sub(hits0),
            pool_misses: storage.pool_misses.get().saturating_sub(misses0),
        };
        Ok((out.result, reply))
    })
}

/// Load an encoded relation onto the machine's disk on its turn, written
/// ahead first; answers the row count.
pub(crate) fn load(
    shared: &Shared,
    name: &str,
    rel: MultiRelation,
    kinds: &[DomainKind],
    csv: &str,
) -> Fenced<usize> {
    with_machine(shared, |machine| {
        // Write-ahead: the log record lands (and is fsynced) before the
        // relation reaches the machine.
        if let Some(d) = machine.durable.as_mut() {
            d.log_load(name, kinds, csv);
        }
        let rows = rel.len();
        machine.system.load_base(name.to_string(), rel);
        shared.counters.update(|c| c.loads += 1);
        shared.metrics.loads.inc();
        rows
    })
}

/// Snapshot the durable history and reset the WAL on its turn; answers
/// (records, snapshot bytes) or the rendered error.
pub(crate) fn checkpoint(shared: &Shared) -> Fenced<Result<(u64, u64), String>> {
    with_machine(shared, |machine| match machine.durable.as_mut() {
        Some(d) => d.checkpoint(),
        None => Err("server is running without --data-dir".to_string()),
    })
}

/// Feed `sdb_op_pulses_total{op=...}` from timeline device events. Array
/// work is exactly the events that carry pulses; the op name is the label
/// up to the ` -> output` suffix, normalised past any `[...]` detail.
fn record_op_pulses(metrics: &ServerMetrics, timeline: &Timeline) {
    for event in timeline.events() {
        if event.pulses == 0 {
            continue;
        }
        let head = event.label.split(" -> ").next().unwrap_or(&event.label);
        let op = head.split('[').next().unwrap_or(head);
        metrics.op_pulses(op).add(event.pulses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;
    use systolic_machine::{Backend, MachineConfig};
    use systolic_relation::gen::synth_schema;
    use systolic_relation::Elem;

    use crate::engine::{compile, Store};
    use crate::server::ServerConfig;

    fn rel(rows: &[&[Elem]]) -> MultiRelation {
        MultiRelation::new(
            synth_schema(rows[0].len()),
            rows.iter().map(|r| r.to_vec()).collect(),
        )
        .unwrap()
    }

    fn shared_with(machine: MachineConfig, request_timeout: Duration) -> Shared {
        Shared::new(ServerConfig {
            machine,
            request_timeout,
            ..ServerConfig::default()
        })
        .unwrap()
    }

    fn shared() -> Shared {
        shared_with(MachineConfig::default(), Duration::from_secs(30))
    }

    /// No worker holds the turn and none waits for it.
    fn idle(shared: &Shared) -> bool {
        let queue = locks::lock(&shared.turns.queue);
        !queue.held && queue.waiting.is_empty()
    }

    /// Take the turn, as a worker that finds the machine free does.
    fn hold(shared: &Shared) -> Turn<'_> {
        assert!(
            shared.turns.take_or_queue().is_none(),
            "the machine is free"
        );
        Turn(&shared.turns)
    }

    /// Load `t` (two rows) as a worker would.
    fn load_t(shared: &Shared) -> Fenced<usize> {
        load(shared, "t", rel(&[&[1], &[2]]), &[], "")
    }

    /// Run `scan(t)` as a worker would.
    fn scan_t(shared: &Shared) -> Fenced<QueryAnswer> {
        let mut store = Store::new();
        store.register("t", &[DomainKind::Int], "1\n2\n").unwrap();
        let compiled = compile("scan(t)", store.view(), &shared.cfg.machine, false).unwrap();
        run_query(shared, &compiled, "scan(t)", None)
    }

    /// Block until `n` requests wait for their turn.
    fn await_waiting(shared: &Shared, n: usize) {
        while shared.turns.waiting() != n {
            thread::yield_now();
        }
    }

    /// Short enough to sit out in a test.
    const SHORT: Duration = Duration::from_millis(30);

    #[test]
    fn no_request_is_stranded_under_concurrent_workers() {
        const THREADS: u64 = 8;
        const CALLS: u64 = 200;
        let shared = shared_with(
            MachineConfig {
                backend: Backend::Columnar,
                ..MachineConfig::default()
            },
            Duration::from_secs(30),
        );
        assert!(matches!(load_t(&shared), Fenced::Answered(2)));
        thread::scope(|s| {
            for t in 0..THREADS {
                let shared = &shared;
                s.spawn(move || {
                    // xorshift: random yields at the racy points.
                    let mut x = 0x9e37_79b9_7f4a_7c15_u64 ^ (t + 1);
                    let mut coin = || {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x.is_multiple_of(3)
                    };
                    for _ in 0..CALLS {
                        if coin() {
                            thread::yield_now();
                        }
                        assert!(matches!(scan_t(shared), Fenced::Answered(Ok(_))));
                    }
                });
            }
        });
        assert_eq!(shared.counters.snapshot().queries, THREADS * CALLS);
        assert!(idle(&shared));
    }

    #[test]
    fn timeouts_racing_hand_offs_settle_every_request_once() {
        const THREADS: u64 = 8;
        const CALLS: u64 = 100;
        // Short enough that waiters time out while turns are being handed
        // to them.
        let shared = shared_with(
            MachineConfig {
                backend: Backend::Columnar,
                ..MachineConfig::default()
            },
            Duration::from_micros(20),
        );
        assert!(matches!(load_t(&shared), Fenced::Answered(2)));
        let answered: u64 = thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        (0..CALLS)
                            .filter(|_| match scan_t(&shared) {
                                Fenced::Answered(Ok(_)) => true,
                                Fenced::TimedOut => false,
                                _ => panic!("the machine never failed"),
                            })
                            .count() as u64
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        let counters = shared.counters.snapshot();
        assert_eq!(
            counters.queries, answered,
            "every answered request ran once"
        );
        assert_eq!(counters.timeouts, THREADS * CALLS - answered);
        assert!(idle(&shared));
    }

    #[test]
    fn a_waiting_request_is_handed_the_turn_when_the_holder_is_done() {
        let shared = shared();
        assert!(matches!(load_t(&shared), Fenced::Answered(2)));
        assert!(matches!(scan_t(&shared), Fenced::Answered(Ok(_))));
        let turn = hold(&shared);
        thread::scope(|s| {
            let waiter = s.spawn(|| scan_t(&shared));
            await_waiting(&shared, 1);
            drop(turn);
            match waiter.join().unwrap() {
                Fenced::Answered(Ok((rows, _))) => assert_eq!(rows.len(), 2),
                _ => panic!("the waiting request must be answered"),
            }
        });
        assert_eq!(shared.counters.snapshot().queries, 2);
        assert!(idle(&shared));
    }

    #[test]
    fn requests_that_time_out_waiting_never_run() {
        let shared = shared_with(MachineConfig::default(), SHORT);
        assert!(matches!(load_t(&shared), Fenced::Answered(2)));
        assert!(matches!(scan_t(&shared), Fenced::Answered(Ok(_))));
        let turn = hold(&shared);
        thread::scope(|s| {
            let query = s.spawn(|| scan_t(&shared));
            let loading = s.spawn(|| load(&shared, "dead", rel(&[&[3]]), &[], ""));
            assert!(matches!(query.join().unwrap(), Fenced::TimedOut));
            assert!(matches!(loading.join().unwrap(), Fenced::TimedOut));
        });
        // Each left the queue as it timed out.
        assert_eq!(shared.turns.waiting(), 0);
        drop(turn);
        let counters = shared.counters.snapshot();
        assert_eq!(counters.queries, 1, "the timed-out query never ran");
        assert_eq!(counters.loads, 1, "the timed-out load never ran");
        assert_eq!(counters.timeouts, 2);
        assert!(idle(&shared));
    }

    #[test]
    fn a_timeout_and_a_hand_off_settle_the_waiter_once() {
        let shared = shared();
        assert!(matches!(load_t(&shared), Fenced::Answered(2)));
        let turn = hold(&shared);
        // Queued first; its worker times out and leaves before the
        // hand-off, which passes over it to the next waiter.
        let (early, _woken) = shared.turns.take_or_queue().expect("the turn is held");
        let (late, late_woken) = shared.turns.take_or_queue().expect("the turn is held");
        assert!(shared.turns.leave(early));
        drop(turn);
        assert!(
            late_woken.try_recv().is_ok(),
            "the next waiter has the turn"
        );
        // Handed the turn, the late waiter can no longer time out.
        assert!(!shared.turns.leave(late));
        drop(Turn(&shared.turns));
        assert!(idle(&shared));
    }

    #[test]
    fn a_panic_during_a_turn_fails_every_later_request_closed() {
        let shared = shared();
        assert!(matches!(load_t(&shared), Fenced::Answered(2)));
        let (held_tx, held_rx) = mpsc::channel();
        thread::scope(|s| {
            let panicker = s.spawn(|| {
                with_machine::<()>(&shared, |_machine| {
                    held_tx.send(()).unwrap();
                    await_waiting(&shared, 1);
                    panic!("injected panic while holding the machine");
                })
            });
            held_rx.recv().unwrap();
            // Waiting for its turn when the holder panics.
            let queued = s.spawn(|| scan_t(&shared));
            assert!(panicker.join().is_err());
            assert!(matches!(queued.join().unwrap(), Fenced::Gone));
        });
        assert!(shared.machine.is_poisoned());
        // Submitted to the free, poisoned machine.
        assert!(matches!(scan_t(&shared), Fenced::Gone));
        assert_eq!(shared.counters.snapshot().queries, 0, "nothing ran");
        assert!(idle(&shared));
    }
}
