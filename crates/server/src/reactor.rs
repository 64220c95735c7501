//! The poll(2) event-driven connection front end.
//!
//! One reactor thread owns every connection: it multiplexes the listener,
//! a wake pipe, and all client sockets through a single poll(2) call, so an
//! idle connection costs one `pollfd` — not a parked worker thread. Complete
//! request frames are counted as on their way to the admission scheduler —
//! every frame of a read before the first is dispatched, so a pipelined round
//! lands in one batch — and handed to a small worker pool (which may block
//! on the scheduler); finished responses come back through a completion
//! list plus a wake byte, and the reactor writes them out strictly in
//! per-connection request order, so clients may *pipeline* many frames and
//! still read answers in the order they asked.
//!
//! Nonblocking I/O is handled in full: reads accumulate partial frames
//! across polls, writes park unsent bytes and re-arm `POLLOUT`, and both
//! treat `WouldBlock`/`TimedOut` (the two kinds a nonblocking socket
//! surfaces across platforms) as "try again later".
//!
//! Overload is shed per *request* rather than per connection: when more
//! requests are queued than `workers + max_pending`, new frames are answered
//! `ERR overloaded` locally (still in pipeline order) instead of waiting.
//!
//! Shutdown drains like the threads model: in-flight requests are answered
//! (a connection the workers still owe replies keeps its slot, however long
//! the machine takes — each request is bounded by the query timeout), idle
//! connections get `BYE`, new work is refused `ERR shutting_down` by the
//! shared dispatcher, and a grace period bounds how long a peer that will
//! not read what it has been sent can hold the server open.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::locks;
use crate::protocol::err_frame;
use crate::scheduler::{Arrival, Job};
use crate::server::{handle_request, Shared};

/// Thin poll(2) binding. This module and [`crate::shutdown`] are the
/// crate's only `unsafe_code` exceptions (the crate root carries
/// `#![deny(unsafe_code)]`): multiplexing readiness across thousands of
/// sockets without an async runtime requires the one libc call `std`
/// doesn't wrap.
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::fd::RawFd;

    /// Readable data (or a peer close, on some platforms) is available.
    pub(super) const POLLIN: i16 = 0x001;
    /// Writing would not block.
    pub(super) const POLLOUT: i16 = 0x004;
    /// Error condition (always polled; only meaningful in `revents`).
    pub(super) const POLLERR: i16 = 0x008;
    /// Peer hung up (always polled; only meaningful in `revents`).
    pub(super) const POLLHUP: i16 = 0x010;

    /// `struct pollfd`, laid out exactly as poll(2) expects.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub(super) struct PollFd {
        pub(super) fd: RawFd,
        pub(super) events: i16,
        pub(super) revents: i16,
    }

    // `nfds_t` is `unsigned long` on Linux and `unsigned int` on the BSDs
    // (including macOS).
    #[cfg(target_os = "linux")]
    type NFds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NFds = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: std::os::raw::c_int) -> std::os::raw::c_int;
    }

    /// Block until some fd is ready or `timeout_ms` elapses; returns the
    /// number of entries with nonzero `revents` (zero on timeout). `EINTR`
    /// is reported as zero ready fds so callers simply re-poll.
    pub(super) fn wait(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        // Safety: `fds` is a valid exclusively-borrowed slice of `repr(C)`
        // pollfd records for the whole call; the kernel reads `fd`/`events`
        // and writes only the `revents` fields inside the slice bounds.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, timeout_ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }
}

/// A complete request frame handed to the worker pool, already counted in
/// [`Shared::arriving`].
struct WorkItem {
    token: usize,
    generation: u64,
    seq: u64,
    line: String,
}

/// A finished response travelling back to the reactor.
struct Completion {
    token: usize,
    generation: u64,
    seq: u64,
    bytes: Vec<u8>,
    close: bool,
}

/// Per-connection state owned by the reactor thread.
struct Conn {
    stream: TcpStream,
    /// Guards against completions for a previous occupant of this token.
    generation: u64,
    /// Bytes read but not yet forming a complete `\n`-terminated frame.
    read_buf: Vec<u8>,
    /// Response bytes accepted for writing, in order.
    write_buf: Vec<u8>,
    /// How much of `write_buf` has actually reached the socket.
    write_pos: usize,
    /// Sequence number assigned to the next request frame read.
    next_seq: u64,
    /// Sequence number of the next response allowed into `write_buf` —
    /// this is what keeps pipelined responses in request order.
    next_write: u64,
    /// Out-of-order finished responses waiting for their turn.
    pending: BTreeMap<u64, (Vec<u8>, bool)>,
    /// Requests dispatched (or shed) whose responses haven't entered
    /// `write_buf` yet.
    inflight: usize,
    /// Stop reading; close once `write_buf` drains.
    closing: bool,
    /// Peer closed its write half; serve what's pipelined, then close.
    read_eof: bool,
    /// When a shutdown pass first found nothing owed to this connection but
    /// the bytes in `write_buf`: the start of its [`DRAIN_GRACE`].
    drained_at: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, generation: u64) -> Conn {
        Conn {
            stream,
            generation,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            next_seq: 0,
            next_write: 0,
            pending: BTreeMap::new(),
            inflight: 0,
            closing: false,
            read_eof: false,
            drained_at: None,
        }
    }

    /// Move every response that is next in request order into the write
    /// buffer.
    fn flush_ordered(&mut self) {
        while let Some((bytes, close)) = self.pending.remove(&self.next_write) {
            self.write_buf.extend_from_slice(&bytes);
            self.next_write += 1;
            self.inflight = self.inflight.saturating_sub(1);
            if close {
                self.closing = true;
                self.pending.clear();
                break;
            }
        }
    }

    /// One shutdown pass at `now`; `false` means the connection has used up
    /// its grace and is dropped. While the workers owe it replies it is kept
    /// and the clock does not run. Once everything owed has been rendered it
    /// is told `BYE`, and only then does [`DRAIN_GRACE`] start — for a peer
    /// that will not take its bytes.
    fn drain(&mut self, now: Instant) -> bool {
        if !self.closing {
            if self.inflight > 0 || !self.pending.is_empty() {
                return true;
            }
            self.write_buf.extend_from_slice(b"BYE\n");
            self.closing = true;
        }
        now.duration_since(*self.drained_at.get_or_insert(now)) <= DRAIN_GRACE
    }

    /// Whether this connection has nothing left to do and can be dropped.
    fn finished(&self) -> bool {
        let drained = self.write_pos >= self.write_buf.len();
        (self.closing && drained)
            || (self.read_eof && drained && self.inflight == 0 && self.pending.is_empty())
    }
}

/// How long, during a drain, a peer that has been sent everything it is owed
/// and won't read it may keep its connection (and thus the server) alive.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Run the poll front end on the calling thread, spawning its worker pool
/// into `scope`. Returns when the server has drained after a stop signal,
/// or with the fatal listener error.
pub(crate) fn serve<'scope>(
    scope: &'scope thread::Scope<'scope, '_>,
    listener: &TcpListener,
    shared: &Arc<Shared>,
    jobs: Sender<Job>,
) -> io::Result<()> {
    let workers = shared.cfg.workers.max(1);
    let pool = Arc::new(WorkPool::new(workers));
    let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;

    // Everything that can fail happens before the first spawn: a worker
    // parked on a pool that is never closed would hang the scope's join.
    let wakes = (0..workers)
        .map(|_| wake_tx.try_clone())
        .collect::<io::Result<Vec<_>>>()?;
    for (me, wake) in wakes.into_iter().enumerate() {
        let pool = Arc::clone(&pool);
        let completions = Arc::clone(&completions);
        let shared = Arc::clone(shared);
        let jobs = jobs.clone();
        scope.spawn(move || pool_worker(&pool, me, &completions, &shared, &jobs, wake));
    }

    // The reactor keeps one job sender, to wake the scheduler when it
    // answers a counted frame itself. It drops with the reactor, and the
    // pool closes right after, so the workers exit and drop theirs — the
    // scheduler's channel hangs up in the same deadlock-free teardown order
    // as the threads model.
    let outcome = Reactor {
        shared,
        conns: Vec::new(),
        free: Vec::new(),
        generation: 0,
        pool: Arc::clone(&pool),
        jobs,
        completions,
        wake_rx,
        queued: 0,
    }
    .run(listener);
    pool.close();
    outcome
}

/// The frames waiting for a worker, and the workers waiting for a frame.
///
/// A frame goes to the *most recently idle* worker (LIFO): under a light
/// load the same few threads serve everything, so only their stacks and
/// allocator arenas are ever touched — rotating through the whole pool
/// would page in all of them.
struct WorkPool {
    state: Mutex<PoolState>,
    /// One condvar per worker, so a push wakes exactly the worker it chose.
    wakers: Vec<Condvar>,
}

#[derive(Default)]
struct PoolState {
    items: VecDeque<WorkItem>,
    /// Parked workers, most recently parked last.
    idle: Vec<usize>,
    closed: bool,
}

impl WorkPool {
    fn new(workers: usize) -> WorkPool {
        WorkPool {
            state: Mutex::new(PoolState::default()),
            wakers: (0..workers).map(|_| Condvar::new()).collect(),
        }
    }

    fn push(&self, item: WorkItem) {
        let mut state = locks::lock(&self.state);
        state.items.push_back(item);
        let chosen = state.idle.pop();
        drop(state);
        // With nobody idle, a busy worker takes the frame when it next asks.
        if let Some(worker) = chosen {
            self.wakers[worker].notify_one();
        }
    }

    /// The next frame for worker `me`, parking until one is pushed its way;
    /// `None` once the pool is closed *and* drained.
    fn next(&self, me: usize) -> Option<WorkItem> {
        let mut state = locks::lock(&self.state);
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state.idle.push(me);
            // Parked until a push takes `me` off the idle list (a spurious
            // wakeup leaves it there) or the pool closes.
            while state.idle.contains(&me) && !state.closed {
                state = locks::wait(&self.wakers[me], state);
            }
        }
    }

    fn close(&self) {
        locks::lock(&self.state).closed = true;
        for waker in &self.wakers {
            waker.notify_one();
        }
    }
}

/// One pool worker: take a frame, run the shared dispatcher (blocking on
/// the scheduler is fine here), hand the rendered bytes back, wake the
/// reactor.
fn pool_worker(
    pool: &WorkPool,
    me: usize,
    completions: &Mutex<Vec<Completion>>,
    shared: &Shared,
    jobs: &Sender<Job>,
    mut wake: UnixStream,
) {
    while let Some(item) = pool.next(me) {
        let arrival = Arrival::counted(&shared.arriving, jobs);
        let reply = handle_request(shared, jobs, &item.line, arrival);
        push_completion(
            completions,
            &mut wake,
            Completion {
                token: item.token,
                generation: item.generation,
                seq: item.seq,
                close: reply.close,
                bytes: reply.into_wire(),
            },
        );
    }
}

fn push_completion(completions: &Mutex<Vec<Completion>>, wake: &mut UnixStream, c: Completion) {
    locks::lock(completions).push(c);
    // A failed or would-block write is fine: the pipe already holds an
    // unread wake byte, so the reactor is waking regardless.
    let _ = wake.write(&[1]);
}

struct Reactor<'a> {
    shared: &'a Shared,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    generation: u64,
    pool: Arc<WorkPool>,
    /// Only ever carries `Job::Wake`.
    jobs: Sender<Job>,
    completions: Arc<Mutex<Vec<Completion>>>,
    wake_rx: UnixStream,
    queued: usize,
}

impl Reactor<'_> {
    fn run(mut self, listener: &TcpListener) -> io::Result<()> {
        let mut fds: Vec<sys::PollFd> = Vec::new();
        let mut tokens: Vec<usize> = Vec::new();
        loop {
            let stopping = self.shared.stopping();
            if stopping {
                self.drain(Instant::now());
                if self.open_conns() == 0 {
                    return Ok(());
                }
            }

            fds.clear();
            tokens.clear();
            fds.push(sys::PollFd {
                fd: self.wake_rx.as_raw_fd(),
                events: sys::POLLIN,
                revents: 0,
            });
            let listener_slot = if stopping {
                None
            } else {
                fds.push(sys::PollFd {
                    fd: listener.as_raw_fd(),
                    events: sys::POLLIN,
                    revents: 0,
                });
                Some(1)
            };
            let base = fds.len();
            for (token, slot) in self.conns.iter().enumerate() {
                let Some(conn) = slot else { continue };
                let mut events = 0i16;
                if !conn.closing && !conn.read_eof {
                    events |= sys::POLLIN;
                }
                if conn.write_pos < conn.write_buf.len() {
                    events |= sys::POLLOUT;
                }
                fds.push(sys::PollFd {
                    fd: conn.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
                tokens.push(token);
            }

            // 100ms cap so the stop flag is polled even when fully idle.
            sys::wait(&mut fds, 100)?;

            if fds[0].revents != 0 {
                self.drain_completions();
            }
            if let Some(slot) = listener_slot {
                if fds[slot].revents != 0 {
                    self.accept_ready(listener)?;
                }
            }
            for (i, token) in tokens.iter().enumerate() {
                let revents = fds[base + i].revents;
                if revents == 0 {
                    continue;
                }
                if revents & (sys::POLLIN | sys::POLLERR | sys::POLLHUP) != 0 {
                    self.read_ready(*token);
                }
                // Writes are attempted in the sweep below for every
                // connection with buffered output, covering POLLOUT too.
            }
            self.sweep();
        }
    }

    fn open_conns(&self) -> usize {
        self.conns.iter().filter(|slot| slot.is_some()).count()
    }

    fn publish_active(&self) {
        self.shared
            .active
            .store(self.open_conns(), Ordering::SeqCst);
    }

    /// On shutdown: give every connection its [`Conn::drain`] pass and drop
    /// the ones whose grace has run out — a peer that won't read its `BYE`
    /// doesn't get to pin the process.
    fn drain(&mut self, now: Instant) {
        let mut changed = false;
        for token in 0..self.conns.len() {
            if self.conns[token].as_mut().is_some_and(|c| !c.drain(now)) {
                self.conns[token] = None;
                self.free.push(token);
                changed = true;
            }
        }
        if changed {
            self.publish_active();
        }
    }

    fn accept_ready(&mut self, listener: &TcpListener) -> io::Result<()> {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    self.generation += 1;
                    let conn = Conn::new(stream, self.generation);
                    match self.free.pop() {
                        Some(token) => self.conns[token] = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                    self.publish_active();
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(())
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Fatal listener errors stop the server, like the threads
                // front end.
                Err(e) => return Err(e),
            }
        }
    }

    fn drain_completions(&mut self) {
        let mut buf = [0u8; 256];
        while matches!(self.wake_rx.read(&mut buf), Ok(n) if n > 0) {}
        let done = std::mem::take(&mut *locks::lock(&self.completions));
        for c in done {
            self.queued = self.queued.saturating_sub(1);
            self.shared.metrics.queue_depth.set(self.queued as f64);
            let Some(Some(conn)) = self.conns.get_mut(c.token) else {
                continue;
            };
            if conn.generation != c.generation {
                continue;
            }
            conn.pending.insert(c.seq, (c.bytes, c.close));
            conn.flush_ordered();
        }
    }

    fn read_ready(&mut self, token: usize) {
        let Some(Some(conn)) = self.conns.get_mut(token) else {
            return;
        };
        if conn.closing || conn.read_eof {
            return;
        }
        let mut chunk = [0u8; 4096];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.read_eof = true;
                    break;
                }
                Ok(n) => conn.read_buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    break
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Connection error: nothing further can be delivered.
                    self.conns[token] = None;
                    self.free.push(token);
                    self.publish_active();
                    return;
                }
            }
        }
        self.extract_frames(token);
    }

    /// Pull every complete line out of the read buffer and dispatch it;
    /// enforce the frame size cap on what remains.
    fn extract_frames(&mut self, token: usize) {
        let Some(Some(conn)) = self.conns.get_mut(token) else {
            return;
        };
        // Count every complete frame of this read as on its way *before*
        // the first is dispatched: the scheduler then waits for the whole
        // pipelined round instead of admitting its first frame alone.
        let mut counted = conn.read_buf.iter().filter(|&&b| b == b'\n').count();
        self.shared.arriving.add(counted);
        while counted > 0 {
            let Some(Some(conn)) = self.conns.get_mut(token) else {
                break;
            };
            let Some(pos) = conn.read_buf.iter().position(|&b| b == b'\n') else {
                break;
            };
            let mut line_bytes: Vec<u8> = conn.read_buf.drain(..=pos).collect();
            line_bytes.pop();
            if line_bytes.last() == Some(&b'\r') {
                line_bytes.pop();
            }
            if line_bytes.len() > self.shared.cfg.max_request_bytes {
                // Closes the connection: the frames behind this one are
                // never served, so their counts come back with it.
                let max = self.shared.cfg.max_request_bytes;
                self.complete_local(
                    token,
                    err_frame("too_large", &format!("frame exceeds {max} bytes")),
                    true,
                );
                break;
            }
            counted -= 1;
            match String::from_utf8(line_bytes) {
                Ok(line) => self.dispatch(token, line),
                Err(_) => {
                    // Framing survived but the payload is garbage; answer
                    // in order and keep the session.
                    self.shared.arriving.cancel(1, &self.jobs);
                    self.complete_local(
                        token,
                        err_frame("proto", "frame is not valid UTF-8"),
                        false,
                    );
                }
            }
        }
        if counted > 0 {
            self.shared.arriving.cancel(counted, &self.jobs);
            return;
        }
        let Some(Some(conn)) = self.conns.get_mut(token) else {
            return;
        };
        if conn.read_buf.len() > self.shared.cfg.max_request_bytes {
            // An over-long partial frame can never complete; framing is
            // lost, so report and hang up (same contract as the threads
            // model).
            let max = self.shared.cfg.max_request_bytes;
            self.complete_local(
                token,
                err_frame("too_large", &format!("frame exceeds {max} bytes")),
                true,
            );
        }
    }

    /// Hand one counted frame to the worker pool — its count goes with it —
    /// or shed it with `ERR overloaded` when more requests are queued than
    /// the pool plus the configured backlog would ever serve promptly.
    fn dispatch(&mut self, token: usize, line: String) {
        let shed_at = self.shared.cfg.workers.max(1) + self.shared.cfg.max_pending;
        if self.queued >= shed_at {
            self.shared.arriving.cancel(1, &self.jobs);
            self.shared.counters.update(|c| c.refused += 1);
            self.shared.metrics.refused.inc();
            self.complete_local(
                token,
                err_frame("overloaded", "server is at capacity"),
                false,
            );
            return;
        }
        let Some(Some(conn)) = self.conns.get_mut(token) else {
            self.shared.arriving.cancel(1, &self.jobs);
            return;
        };
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.inflight += 1;
        let generation = conn.generation;
        self.queued += 1;
        self.shared.metrics.queue_depth.set(self.queued as f64);
        self.shared
            .metrics
            .queue_depth_hwm
            .set_max(self.queued as f64);
        let queued = self.queued as u64;
        self.shared
            .counters
            .update(|c| c.queue_hwm = c.queue_hwm.max(queued));
        self.pool.push(WorkItem {
            token,
            generation,
            seq,
            line,
        });
    }

    /// Answer a frame from the reactor itself, still in pipeline order.
    fn complete_local(&mut self, token: usize, frame: String, close: bool) {
        let Some(Some(conn)) = self.conns.get_mut(token) else {
            return;
        };
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.inflight += 1;
        let mut bytes = frame.into_bytes();
        bytes.push(b'\n');
        conn.pending.insert(seq, (bytes, close));
        conn.flush_ordered();
    }

    /// Write out what can be written and reap finished connections.
    fn sweep(&mut self) {
        let mut changed = false;
        for token in 0..self.conns.len() {
            let Some(conn) = &mut self.conns[token] else {
                continue;
            };
            if !try_write(conn) || conn.finished() {
                self.conns[token] = None;
                self.free.push(token);
                changed = true;
            }
        }
        if changed {
            self.publish_active();
        }
    }
}

/// Push buffered bytes to the socket; `false` means the connection is dead.
fn try_write(conn: &mut Conn) -> bool {
    while conn.write_pos < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => return false,
            Ok(n) => conn.write_pos += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                break
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    if conn.write_pos >= conn.write_buf.len() {
        conn.write_buf.clear();
        conn.write_pos = 0;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_wait_sees_readable_pipe() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let mut fds = [sys::PollFd {
            fd: b.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        }];
        // Nothing written yet: times out with zero ready fds.
        assert_eq!(sys::wait(&mut fds, 10).unwrap(), 0);
        a.write_all(b"x").unwrap();
        fds[0].revents = 0;
        assert_eq!(sys::wait(&mut fds, 1000).unwrap(), 1);
        assert!(fds[0].revents & sys::POLLIN != 0);
    }

    #[test]
    fn the_pool_reuses_the_most_recently_idle_worker_and_drains_on_close() {
        const WORKERS: usize = 3;
        let pool = Arc::new(WorkPool::new(WORKERS));
        let (served_tx, served_rx) = std::sync::mpsc::channel();
        let threads: Vec<_> = (0..WORKERS)
            .map(|me| {
                let pool = Arc::clone(&pool);
                let served = served_tx.clone();
                thread::spawn(move || {
                    while let Some(item) = pool.next(me) {
                        served.send((me, item.seq)).unwrap();
                    }
                })
            })
            .collect();
        let item = |seq| WorkItem {
            token: 0,
            generation: 0,
            seq,
            line: String::new(),
        };
        let all_parked = || loop {
            let state = locks::lock(&pool.state);
            if state.idle.len() == WORKERS {
                return *state.idle.last().unwrap();
            }
            drop(state);
            thread::yield_now();
        };
        // Whoever parked last serves — and parks last again, so keeps
        // serving: the other workers are never touched.
        let hot = all_parked();
        for seq in 0..4 {
            pool.push(item(seq));
            assert_eq!(served_rx.recv().unwrap(), (hot, seq));
            assert_eq!(all_parked(), hot);
        }
        // A frame pushed before the close is still served.
        pool.push(item(4));
        pool.close();
        assert_eq!(served_rx.recv().unwrap().1, 4);
        for t in threads {
            t.join().unwrap();
        }
    }

    /// A connection as the reactor holds it, and the peer's end of it.
    fn connected() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        (Conn::new(stream, 1), peer)
    }

    #[test]
    fn flush_ordered_releases_responses_in_request_order() {
        let (mut conn, _peer) = connected();
        conn.next_seq = 3;
        conn.inflight = 3;
        // Responses 1 and 2 finish before 0: nothing may be written yet.
        conn.pending.insert(1, (b"second\n".to_vec(), false));
        conn.pending.insert(2, (b"third\n".to_vec(), false));
        conn.flush_ordered();
        assert!(conn.write_buf.is_empty());
        conn.pending.insert(0, (b"first\n".to_vec(), false));
        conn.flush_ordered();
        assert_eq!(conn.write_buf, b"first\nsecond\nthird\n".to_vec());
        assert_eq!(conn.inflight, 0);
    }

    #[test]
    fn a_closing_response_discards_later_pipeline_entries() {
        let (mut conn, _peer) = connected();
        conn.next_seq = 2;
        conn.inflight = 2;
        conn.pending.insert(0, (b"BYE\n".to_vec(), true));
        conn.pending.insert(1, (b"late\n".to_vec(), false));
        conn.flush_ordered();
        assert!(conn.closing);
        assert_eq!(conn.write_buf, b"BYE\n".to_vec());
        assert!(conn.pending.is_empty());
    }

    #[test]
    fn a_drain_keeps_a_connection_the_workers_still_owe_replies() {
        let (mut conn, _peer) = connected();
        conn.next_seq = 2;
        conn.inflight = 2;
        let stop = Instant::now();
        let late = stop + DRAIN_GRACE + Duration::from_secs(60);
        // Both requests are behind a busy machine for longer than the grace.
        assert!(conn.drain(stop));
        assert!(conn.drain(late), "dropped with replies owed");
        assert!(conn.write_buf.is_empty(), "BYE ahead of an owed reply");
        // One finishes out of order: still owed the other.
        conn.pending.insert(1, (b"second\n".to_vec(), false));
        conn.flush_ordered();
        assert!(conn.drain(late));
        assert!(!conn.closing);
        // The last one lands. Only now is the connection told BYE, and only
        // now does its grace start.
        conn.pending.insert(0, (b"first\n".to_vec(), false));
        conn.flush_ordered();
        assert!(conn.drain(late));
        assert_eq!(conn.write_buf, b"first\nsecond\nBYE\n".to_vec());
        assert!(conn.closing);
        assert!(conn.drain(late + DRAIN_GRACE));
        assert!(!conn.drain(late + DRAIN_GRACE + Duration::from_millis(1)));
    }

    #[test]
    fn a_drain_drops_a_connection_that_only_has_unread_output_after_the_grace() {
        let (mut conn, _peer) = connected();
        conn.write_buf
            .extend_from_slice(b"RESULT rendered, never read\n");
        let stop = Instant::now();
        assert!(conn.drain(stop));
        assert!(conn.write_buf.ends_with(b"BYE\n"));
        assert!(conn.drain(stop + DRAIN_GRACE));
        assert!(!conn.drain(stop + DRAIN_GRACE + Duration::from_millis(1)));
        // A reply that closed the connection is owed nothing either, even
        // with a frame behind it that the pipeline discarded.
        let (mut conn, _peer) = connected();
        conn.next_seq = 2;
        conn.inflight = 2;
        conn.pending.insert(0, (b"BYE\n".to_vec(), true));
        conn.flush_ordered();
        assert!(conn.drain(stop));
        assert_eq!(conn.write_buf, b"BYE\n".to_vec(), "one BYE");
        assert!(!conn.drain(stop + DRAIN_GRACE + Duration::from_millis(1)));
    }
}
