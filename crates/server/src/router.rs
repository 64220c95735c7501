//! The shard router: partition base relations across N independent inner
//! servers, fan queries out over the wire protocol, merge the results, and
//! re-price the merged run so `RESULT` frames stay byte-identical to a
//! single-`System` server.
//!
//! ## Why text-level
//!
//! String columns are dictionary-encoded *per server, in interning order*
//! (§2.3), so the same value carries different codes on different shards.
//! The router therefore never touches encoded values: it partitions on the
//! *rendered* text of each row's first field (the same text `export_csv`
//! emits) and merges the shards' rendered CSV. Anything whose result could
//! depend on cross-shard encoding order — a predicate ordering string
//! codes, a projection that drops the partition column — is declined and
//! served by the local full-copy system instead.
//!
//! ## The invariant the classifier enforces
//!
//! Every base relation is hash-partitioned on its first field's text. For
//! an expression the classifier accepts, *each shard's output of every
//! sub-expression equals the global output restricted to that shard's
//! partition, in global row order*:
//!
//! - `scan` delivers rows in load order; partitioning is order-stable.
//! - Filters (`select`, logic-per-track) are per-row, so they commute with
//!   partitioning — as long as no predicate tests a string column.
//! - Set operations and `dedup` compare whole rows; equal rows share their
//!   first field, hence their shard, so per-shard membership agrees with
//!   global membership.
//! - `project` keeps the partition column first (`cols[0] == 0`), so
//!   projected duplicates still collide on one shard.
//! - `join` carries an `Eq(0,0)` condition, so matching rows share a shard
//!   and the output's first field is still the partition key.
//!
//! Under that invariant, per-plan-step output cardinalities sum across
//! shards to the global run's cardinalities — exactly what
//! [`System::price_plan`](systolic_machine::System::price_plan) needs to
//! reproduce the global `RunStats` bit-for-bit — and the router can compute
//! the expected global row sequence itself (a cheap text-level evaluation
//! over the cached base tables) to both order the merge and *verify* every
//! shard returned exactly its partition of it. Any mismatch, shard error,
//! or unsupported shape falls back to the local system, which holds a full
//! copy of every table, so routing is an optimisation, never a correctness
//! risk.

use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Mutex, RwLock};
use std::time::Instant;

use systolic_core::select::Predicate;
use systolic_core::JoinSpec;
use systolic_fabric::CompareOp;
use systolic_machine::{Expr, TrackFilter};
use systolic_relation::csv::{canonical_field, render_field, split_line};
use systolic_relation::DomainKind;
use systolic_telemetry::batch::parse_batch;
use systolic_telemetry::{span_in, TraceCtx};

use crate::client::{Client, ClientError};
use crate::engine::{kind_name, store_names};
use crate::locks;
use crate::protocol::{err_frame, parse_result_frame, result_frame};
use crate::scheduler::{submit_fenced, Arrival, Fenced, Job, QueryReply};
use crate::server::{ServerConfig, ServerHandle, Shared};

/// Client connection sets the fan-out rotates over, so several worker
/// threads can have shard queries in flight at once (and the shard
/// schedulers can merge them into batches).
const POOL_SETS: usize = 4;

/// One shard's `QUERYC` answer: the raw `RESULT` frame, the per-plan-step
/// output cardinalities, the (discarded) host nanoseconds, and — when the
/// request was trace-stamped — the shard's span batch.
type CardsReply = Result<(String, Vec<u64>, u64, Option<String>), ClientError>;

/// FNV-1a over the rendered text of a row's first field: the partition
/// function. Stable and platform-independent, so a given row always lands
/// on the same shard.
fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The shard a row with this first field belongs to.
fn home_shard(field0: &str, shards: usize) -> usize {
    (fnv1a(field0) % shards as u64) as usize
}

/// A base table as the router caches it: every row's fields in load order,
/// already canonicalised to the text `export_csv` renders.
struct ShardedTable {
    rows: Vec<Vec<String>>,
    kinds: Vec<DomainKind>,
}

/// The text-level value of a sub-expression: the exact global result the
/// engine would produce, as rendered fields, in engine row order.
struct Node {
    rows: Vec<Vec<String>>,
    kinds: Vec<DomainKind>,
}

/// What [`Router::try_query`] decided.
pub(crate) enum RouteOutcome {
    /// The query is not shardable (or routing failed); run it locally.
    NotRouted,
    /// Routed: the `RESULT` frame (built from the merged shard rows) plus
    /// the full pricing reply — stats, per-step cardinalities, the priced
    /// timeline and host waits — so the caller can build cards, host, and
    /// profile frames exactly as it would from a local run.
    Answered {
        /// The complete `RESULT` frame.
        result: String,
        /// The pricing run's reply.
        reply: QueryReply,
    },
    /// Routing surfaced a client-visible failure (e.g. the pricing run
    /// timed out after the shards already ran); answer with this frame.
    Failed {
        /// The `ERR` frame to send.
        frame: String,
    },
}

/// One set of shard connections plus the addresses to rebuild it from.
struct ClientSet {
    clients: Option<Vec<Client>>,
}

pub(crate) struct Router {
    shards: usize,
    addrs: Vec<std::net::SocketAddr>,
    handles: Mutex<Vec<ServerHandle>>,
    pool: Vec<Mutex<ClientSet>>,
    next: AtomicUsize,
    tables: RwLock<HashMap<String, ShardedTable>>,
}

impl Router {
    /// Spawn `cfg.shards` inner single-shard servers on loopback and
    /// connect the fan-out pool.
    pub(crate) fn start(cfg: &ServerConfig) -> io::Result<Router> {
        let shards = cfg.shards;
        let inner_cfg = |i: usize| ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: POOL_SETS,
            max_pending: POOL_SETS,
            shards: 1,
            machine: cfg.machine.clone(),
            request_timeout: cfg.request_timeout,
            batch_window: cfg.batch_window,
            max_batch: cfg.max_batch,
            max_request_bytes: cfg.max_request_bytes,
            // The outer server already logs slow queries; shard echoes
            // would double-count them.
            slow_query: None,
            // Each shard persists (and recovers) its own partition under
            // its own subdirectory of the outer server's data dir.
            data_dir: cfg.data_dir.as_ref().map(|d| d.join(format!("shard-{i}"))),
            pool_pages: cfg.pool_pages,
            // Shards never write their own trace files: the outer server's
            // collector (plus the SPANS trailers) already sees their spans.
            trace_out: None,
            // Shard-local flight recorders only need a short memory; the
            // outer server records the merged profile for every query.
            profile_history: 16,
            // The outer server already ran the plan compiler before routing;
            // shards must execute exactly the expression they were sent so
            // their step cardinalities align with the router's merge plan.
            optimize: false,
        };
        let mut handles = Vec::with_capacity(shards);
        for i in 0..shards {
            handles.push(crate::server::spawn(inner_cfg(i))?);
        }
        let addrs: Vec<std::net::SocketAddr> = handles.iter().map(|h| h.addr).collect();
        let mut pool = Vec::with_capacity(POOL_SETS);
        for _ in 0..POOL_SETS {
            let clients = connect_set(&addrs).map_err(io::Error::other)?;
            pool.push(Mutex::new(ClientSet {
                clients: Some(clients),
            }));
        }
        Ok(Router {
            shards,
            addrs,
            handles: Mutex::new(handles),
            pool,
            next: AtomicUsize::new(0),
            tables: RwLock::new(HashMap::new()),
        })
    }

    /// Shut the inner shard servers down and wait for them to drain.
    pub(crate) fn stop(&self) {
        let handles: Vec<ServerHandle> = locks::lock(&self.handles).drain(..).collect();
        for handle in &handles {
            handle.shutdown();
        }
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Partition a freshly (and successfully) loaded table across the
    /// shards and cache its canonical rows. On any failure the table is
    /// left out of the cache — queries over it simply run locally.
    pub(crate) fn register_load(&self, name: &str, kinds: &[DomainKind], csv: &str) {
        if self.forward_load(name, kinds, csv).is_err() {
            locks::write(&self.tables).remove(name);
        }
    }

    fn forward_load(&self, name: &str, kinds: &[DomainKind], csv: &str) -> Result<(), ()> {
        let rows = canonical_rows(kinds, csv).ok_or(())?;
        let mut parts: Vec<String> = vec![String::new(); self.shards];
        for row in &rows {
            let shard = home_shard(&row[0], self.shards);
            let line: Vec<String> = row.iter().map(|f| render_field(f)).collect();
            parts[shard].push_str(&line.join(","));
            parts[shard].push('\n');
        }
        let kinds_list: Vec<&str> = kinds.iter().map(|&k| kind_name(k)).collect();
        let kinds_list = kinds_list.join(",");
        let set = &self.pool[self.next.fetch_add(1, Ordering::Relaxed) % self.pool.len()];
        let mut set = locks::lock(set);
        let clients = set.clients.as_mut().ok_or(())?;
        for (shard, part) in parts.iter().enumerate() {
            if let Err(e) = clients[shard].load_csv(name, &kinds_list, part) {
                if !matches!(e, ClientError::Remote { .. }) {
                    // The connection is in an unknown state; rebuild the set.
                    set.clients = connect_set(&self.addrs).ok();
                }
                return Err(());
            }
        }
        drop(set);
        locks::write(&self.tables).insert(
            name.to_string(),
            ShardedTable {
                rows,
                kinds: kinds.to_vec(),
            },
        );
        Ok(())
    }

    /// Rebuild the router's text-level cache for a relation replayed from
    /// the outer server's WAL. The shards recover their partitions from
    /// their *own* WALs, so nothing is forwarded here — only the cache the
    /// classifier and merge verifier consult is restored.
    pub(crate) fn register_recovered(&self, name: &str, kinds: &[DomainKind], csv: &str) {
        if let Some(rows) = canonical_rows(kinds, csv) {
            locks::write(&self.tables).insert(
                name.to_string(),
                ShardedTable {
                    rows,
                    kinds: kinds.to_vec(),
                },
            );
        }
    }

    /// Drop cached tables an expression's `store(...)` targets overwrite:
    /// stores run only on the local system, so a stored-over base table
    /// diverges from its shard partitions and must stop being routed.
    pub(crate) fn invalidate(&self, expr: &Expr) {
        let names = store_names(expr);
        if names.is_empty() {
            return;
        }
        let mut tables = locks::write(&self.tables);
        for name in names {
            tables.remove(&name);
        }
    }

    /// Try to answer a prepared query via the shards. Any ineligibility or
    /// failure returns [`RouteOutcome::NotRouted`] and the caller runs the
    /// query on the local (full-copy) system.
    pub(crate) fn try_query(
        &self,
        shared: &Shared,
        tx: &Sender<Job>,
        arrival: &mut Option<Arrival<'_>>,
        expr: &Expr,
        query: &str,
        trace: Option<TraceCtx>,
    ) -> RouteOutcome {
        // Classify and compute the expected global result at text level.
        let value = {
            let tables = locks::read(&self.tables);
            match eval(expr, &tables) {
                Some(v) => v,
                None => return RouteOutcome::NotRouted,
            }
        };
        // Expected per-shard line sequences: the global sequence restricted
        // to each shard's partition, in global order.
        let merged_lines: Vec<String> = value.rows.iter().map(|r| render_row(r)).collect();
        let mut expected: Vec<Vec<&str>> = vec![Vec::new(); self.shards];
        for (row, line) in value.rows.iter().zip(&merged_lines) {
            expected[home_shard(&row[0], self.shards)].push(line.as_str());
        }

        // From here the worker parks on the shards' sockets, and what it
        // submits afterwards is a `Job::Price` that merges with nothing:
        // the local scheduler must not hold a batch open for this request.
        *arrival = None;

        // Fan the query out and read every shard's RESULT + CARDS. When
        // tracing is live the fan-out span's context is stamped onto each
        // shard's QUERYC, and every shard answers with a SPANS trailer whose
        // spans parent under this span in the merged trace.
        let replies = {
            let span = span_in(trace, "server.shard_fanout");
            let stamp = span.ctx();
            let set = &self.pool[self.next.fetch_add(1, Ordering::Relaxed) % self.pool.len()];
            let mut set = locks::lock(set);
            let Some(clients) = set.clients.as_mut() else {
                // A previous failure tore the set down; try to rebuild for
                // next time, run locally now.
                set.clients = connect_set(&self.addrs).ok();
                return RouteOutcome::NotRouted;
            };
            let mut sent = true;
            for client in clients.iter_mut() {
                if client.send_query_cards(query, stamp).is_err() {
                    sent = false;
                    break;
                }
            }
            if !sent {
                set.clients = connect_set(&self.addrs).ok();
                return RouteOutcome::NotRouted;
            }
            // Read every pending reply even after an error, so the
            // connections stay frame-aligned for the next query.
            let replies: Vec<CardsReply> = clients
                .iter_mut()
                .map(|c| c.recv_query_cards(stamp.is_some()))
                .collect();
            if replies
                .iter()
                .any(|r| matches!(r, Err(ClientError::Io(_) | ClientError::Protocol(_))))
            {
                set.clients = connect_set(&self.addrs).ok();
            }
            replies
        };
        let mut shard_csvs = Vec::with_capacity(self.shards);
        let mut summed: Option<Vec<u64>> = None;
        for reply in replies {
            let Ok((result, cards, _host, spans)) = reply else {
                return RouteOutcome::NotRouted;
            };
            if let Some(batch) = spans {
                // Keep the shard's span batch for the server's merged trace
                // file; duplicates of locally collected spans (in-process
                // shards share the collector) are deduped at export.
                if let Ok(mut parsed) = parse_batch(&batch) {
                    locks::lock(&shared.remote_spans).append(&mut parsed);
                }
            }
            let Ok(fields) = parse_result_frame(&result) else {
                return RouteOutcome::NotRouted;
            };
            match &mut summed {
                None => summed = Some(cards),
                Some(acc) => {
                    if acc.len() != cards.len() {
                        return RouteOutcome::NotRouted;
                    }
                    for (a, c) in acc.iter_mut().zip(cards) {
                        *a += c;
                    }
                }
            }
            shard_csvs.push(fields.csv);
        }
        let Some(cards) = summed else {
            return RouteOutcome::NotRouted;
        };

        // Verify: every shard returned exactly its partition of the
        // expected sequence, and the step cardinalities agree with it.
        let Some(header) = verify_shards(&shard_csvs, &expected) else {
            return RouteOutcome::NotRouted;
        };
        if cards.last().copied() != Some(value.rows.len() as u64) {
            return RouteOutcome::NotRouted;
        }
        let mut csv = String::with_capacity(
            header.len() + 1 + merged_lines.iter().map(|l| l.len() + 1).sum::<usize>(),
        );
        csv.push_str(&header);
        csv.push('\n');
        for line in &merged_lines {
            csv.push_str(line);
            csv.push('\n');
        }

        // Re-price the merged run on the local system so the RESULT frame
        // carries the same simulated-hardware stats a single-shard run
        // would report.
        match self.price(shared, tx, expr, cards, trace) {
            PriceOutcome::Priced(reply) => {
                // The root step was priced at the cardinality the merged
                // rows have, or the stats describe some other run.
                if reply.step_rows.last().copied() != Some(value.rows.len() as u64) {
                    return RouteOutcome::NotRouted;
                }
                RouteOutcome::Answered {
                    result: result_frame(value.rows.len(), &reply.stats, &csv),
                    reply,
                }
            }
            PriceOutcome::Fallback => RouteOutcome::NotRouted,
            PriceOutcome::Failed(frame) => RouteOutcome::Failed { frame },
        }
    }

    /// Submit a [`Job::Price`] and wait, with the same timeout-fence
    /// protocol `handle_query` uses for real runs.
    fn price(
        &self,
        shared: &Shared,
        tx: &Sender<Job>,
        expr: &Expr,
        cards: Vec<u64>,
        trace: Option<TraceCtx>,
    ) -> PriceOutcome {
        let waited = submit_fenced(shared, tx, |fence, reply| Job::Price {
            expr: expr.clone(),
            cards,
            trace,
            fence,
            reply,
            submitted: Instant::now(),
        });
        match waited {
            Fenced::Answered(Ok(reply)) => PriceOutcome::Priced(reply),
            Fenced::Answered(Err(_)) | Fenced::Gone { .. } => PriceOutcome::Fallback,
            Fenced::TimedOut => PriceOutcome::Failed(err_frame("timeout", "query timed out")),
        }
    }
}

enum PriceOutcome {
    Priced(crate::scheduler::QueryReply),
    Fallback,
    Failed(String),
}

/// Reconnect one full set of shard clients.
fn connect_set(addrs: &[std::net::SocketAddr]) -> Result<Vec<Client>, ClientError> {
    addrs.iter().map(Client::connect).collect()
}

/// Split a LOAD payload into canonical field rows (the text `export_csv`
/// would render), skipping a schema header line if present and validating
/// arity. `None` means the text didn't parse — the caller degrades the
/// table to local-only.
fn canonical_rows(kinds: &[DomainKind], csv: &str) -> Option<Vec<Vec<String>>> {
    let mut out = Vec::new();
    let mut lines = csv.lines().filter(|l| !l.trim().is_empty()).peekable();
    if let Some(first) = lines.peek() {
        let headers = split_line(first).ok()?;
        let names: Vec<String> = (0..kinds.len()).map(|k| format!("c{k}")).collect();
        if headers == names {
            lines.next();
        }
    }
    for line in lines {
        let fields = split_line(line).ok()?;
        if fields.len() != kinds.len() {
            return None;
        }
        let row: Option<Vec<String>> = fields
            .iter()
            .zip(kinds)
            .map(|(field, &kind)| canonical_field(kind, field).ok())
            .collect();
        out.push(row?);
    }
    Some(out)
}

/// Render one result row the way `export_csv` does.
fn render_row(fields: &[String]) -> String {
    let cells: Vec<String> = fields.iter().map(|f| render_field(f)).collect();
    cells.join(",")
}

/// Check every shard's CSV against its expected line sequence; returns the
/// (shared) header line on success.
fn verify_shards(shard_csvs: &[String], expected: &[Vec<&str>]) -> Option<String> {
    let mut header: Option<&str> = None;
    for (csv, want) in shard_csvs.iter().zip(expected) {
        let mut lines = csv.lines();
        let head = lines.next()?;
        match header {
            None => header = Some(head),
            Some(h) if h == head => {}
            Some(_) => return None,
        }
        let got: Vec<&str> = lines.collect();
        if got != *want {
            return None;
        }
    }
    header.map(str::to_string)
}

/// Parse a canonical field's comparable value for a non-string column.
/// Int and Date are identity-encoded and Bool encodes as 0/1 (§2.3), so
/// the parsed number equals the encoded element every server agrees on.
fn parse_val(kind: DomainKind, field: &str) -> Option<i64> {
    match kind {
        DomainKind::Int => field.parse().ok(),
        DomainKind::Date => field.strip_prefix("day#")?.parse().ok(),
        DomainKind::Bool => match field {
            "true" => Some(1),
            "false" => Some(0),
            _ => None,
        },
        DomainKind::Str => None,
    }
}

/// First-occurrence dedup, preserving order — the §5 remove-duplicates
/// semantics.
fn dedup_first(rows: Vec<Vec<String>>) -> Vec<Vec<String>> {
    let mut seen: HashSet<Vec<String>> = HashSet::with_capacity(rows.len());
    rows.into_iter()
        .filter(|r| seen.insert(r.clone()))
        .collect()
}

fn eval_filter(node: &mut Node, col: usize, op: CompareOp, value: i64) -> Option<()> {
    let kind = *node.kinds.get(col)?;
    if kind == DomainKind::Str {
        return None;
    }
    let mut ok = true;
    node.rows.retain(|row| match parse_val(kind, &row[col]) {
        Some(v) => op.eval(v, value),
        None => {
            ok = false;
            false
        }
    });
    ok.then_some(())
}

fn eval_predicates(node: &mut Node, preds: &[Predicate]) -> Option<()> {
    for p in preds {
        eval_filter(node, p.col, p.op, p.value)?;
    }
    Some(())
}

/// Whether a join condition is shard-stable and how to test it at text
/// level: string columns only support `=`/`!=` (text equality is encoding
/// equality within any one server); everything else parses numerically.
fn join_matches(spec: &JoinSpec, a: &Node, b: &Node, ra: &[String], rb: &[String]) -> Option<bool> {
    let ka = *a.kinds.get(spec.col_a)?;
    let kb = *b.kinds.get(spec.col_b)?;
    if ka == DomainKind::Str || kb == DomainKind::Str {
        if ka != kb {
            return None;
        }
        let equal = ra[spec.col_a] == rb[spec.col_b];
        return match spec.op {
            CompareOp::Eq => Some(equal),
            CompareOp::Ne => Some(!equal),
            _ => None,
        };
    }
    let va = parse_val(ka, &ra[spec.col_a])?;
    let vb = parse_val(kb, &rb[spec.col_b])?;
    Some(spec.op.eval(va, vb))
}

/// Classify and evaluate: `Some(node)` iff every operator in the tree is
/// shard-stable (see the module docs), with `node` the exact global result
/// in engine row order. `None` sends the query down the local path.
fn eval(expr: &Expr, tables: &HashMap<String, ShardedTable>) -> Option<Node> {
    match expr {
        Expr::Scan { name, filter } => {
            let table = tables.get(name)?;
            let mut node = Node {
                rows: table.rows.clone(),
                kinds: table.kinds.clone(),
            };
            if let Some(TrackFilter { col, op, value }) = filter {
                eval_filter(&mut node, *col, *op, *value)?;
            }
            Some(node)
        }
        Expr::Select(inner, preds) => {
            let mut node = eval(inner, tables)?;
            eval_predicates(&mut node, preds)?;
            Some(node)
        }
        Expr::Dedup(inner) => {
            let node = eval(inner, tables)?;
            Some(Node {
                rows: dedup_first(node.rows),
                kinds: node.kinds,
            })
        }
        Expr::Intersect(a, b) | Expr::Difference(a, b) => {
            let left = eval(a, tables)?;
            let right = eval(b, tables)?;
            let members: HashSet<&[String]> = right.rows.iter().map(Vec::as_slice).collect();
            let keep_in = matches!(expr, Expr::Intersect(..));
            let rows = left
                .rows
                .into_iter()
                .filter(|r| members.contains(r.as_slice()) == keep_in)
                .collect();
            Some(Node {
                rows,
                kinds: left.kinds,
            })
        }
        Expr::Union(a, b) => {
            let mut left = eval(a, tables)?;
            let right = eval(b, tables)?;
            left.rows.extend(right.rows);
            Some(Node {
                rows: dedup_first(left.rows),
                kinds: left.kinds,
            })
        }
        Expr::Project(inner, cols) => {
            // The partition key must survive in front: projected duplicates
            // then still collide on one shard.
            if cols.first() != Some(&0) {
                return None;
            }
            let node = eval(inner, tables)?;
            if cols.iter().any(|&c| c >= node.kinds.len()) {
                return None;
            }
            let stripped: Vec<Vec<String>> = node
                .rows
                .iter()
                .map(|row| cols.iter().map(|&c| row[c].clone()).collect())
                .collect();
            Some(Node {
                rows: dedup_first(stripped),
                kinds: cols.iter().map(|&c| node.kinds[c]).collect(),
            })
        }
        Expr::Join(a, b, specs) => {
            // An Eq(0,0) condition keeps matches within one partition and
            // makes the output's first field the partition key again.
            if !specs
                .iter()
                .any(|s| s.op == CompareOp::Eq && s.col_a == 0 && s.col_b == 0)
            {
                return None;
            }
            let left = eval(a, tables)?;
            let right = eval(b, tables)?;
            // Pure equi-joins drop B's copies of the join columns (§6).
            let pure_equi = specs.iter().all(|s| s.op == CompareOp::Eq);
            let drop_b: Vec<bool> = (0..right.kinds.len())
                .map(|k| pure_equi && specs.iter().any(|s| s.col_b == k))
                .collect();
            // Bucket B on the partition column to keep the pair walk near
            // linear; within a bucket, B rows stay in global order, so the
            // output is the engine's row-major (i, j) order.
            let mut buckets: HashMap<&str, Vec<&Vec<String>>> = HashMap::new();
            for rb in &right.rows {
                buckets.entry(rb[0].as_str()).or_default().push(rb);
            }
            let mut rows = Vec::new();
            for ra in &left.rows {
                let Some(candidates) = buckets.get(ra[0].as_str()) else {
                    continue;
                };
                for rb in candidates {
                    let mut matched = true;
                    for spec in specs {
                        match join_matches(spec, &left, &right, ra, rb) {
                            Some(true) => {}
                            Some(false) => {
                                matched = false;
                                break;
                            }
                            None => return None,
                        }
                    }
                    if matched {
                        let mut row = ra.clone();
                        row.extend(
                            rb.iter()
                                .enumerate()
                                .filter(|(k, _)| !drop_b[*k])
                                .map(|(_, f)| f.clone()),
                        );
                        rows.push(row);
                    }
                }
            }
            let mut kinds = left.kinds.clone();
            kinds.extend(
                right
                    .kinds
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| !drop_b[*k])
                    .map(|(_, &k)| k),
            );
            Some(Node { rows, kinds })
        }
        // Stores mutate the machine and division's pricing is
        // data-dependent; neither is routable.
        Expr::Store(..) | Expr::Divide { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(kinds: &[DomainKind], rows: &[&[&str]]) -> ShardedTable {
        ShardedTable {
            rows: rows
                .iter()
                .map(|r| r.iter().map(|f| f.to_string()).collect())
                .collect(),
            kinds: kinds.to_vec(),
        }
    }

    fn tables() -> HashMap<String, ShardedTable> {
        let mut t = HashMap::new();
        t.insert(
            "emp".to_string(),
            table(
                &[DomainKind::Str, DomainKind::Int],
                &[&["ada", "10"], &["grace", "20"], &["edsger", "30"]],
            ),
        );
        t.insert(
            "dept".to_string(),
            table(
                &[DomainKind::Int, DomainKind::Str],
                &[&["10", "storage"], &["20", "query"]],
            ),
        );
        t
    }

    fn rows(node: &Node) -> Vec<String> {
        node.rows.iter().map(|r| r.join("|")).collect()
    }

    #[test]
    fn partition_function_is_stable() {
        let h = home_shard("ada", 4);
        assert_eq!(home_shard("ada", 4), h);
        assert!(h < 4);
        // Known FNV-1a vector: empty input hashes to the offset basis.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn eval_handles_scans_filters_and_set_ops() {
        let t = tables();
        let expr = systolic_machine::parse("filter(scan(emp), c1 >= 20)").unwrap();
        let expr = systolic_machine::push_selections(expr);
        let node = eval(&expr, &t).unwrap();
        assert_eq!(rows(&node), vec!["grace|20", "edsger|30"]);

        let expr = systolic_machine::parse("union(scan(emp), scan(emp))").unwrap();
        let node = eval(&expr, &t).unwrap();
        assert_eq!(node.rows.len(), 3, "union dedups");

        let expr = systolic_machine::parse("difference(scan(emp), scan(emp))").unwrap();
        let node = eval(&expr, &t).unwrap();
        assert!(node.rows.is_empty());
    }

    #[test]
    fn eval_joins_in_row_major_order_and_drops_equi_columns() {
        let t = tables();
        let expr = systolic_machine::parse("join(scan(dept), scan(dept), 0 = 0)").unwrap();
        let node = eval(&expr, &t).unwrap();
        // Pure equi-join keeps A whole and drops B's join column.
        assert_eq!(rows(&node), vec!["10|storage|storage", "20|query|query"]);
        assert_eq!(
            node.kinds,
            vec![DomainKind::Int, DomainKind::Str, DomainKind::Str]
        );
    }

    #[test]
    fn eval_declines_unshardable_shapes() {
        let t = tables();
        // Predicate on a string column: dictionary codes diverge per shard.
        let expr = systolic_machine::parse("filter(scan(emp), c0 = 1)").unwrap();
        assert!(eval(&expr, &t).is_none());
        // Projection that drops the partition column.
        let expr = systolic_machine::parse("project(scan(emp), [1])").unwrap();
        assert!(eval(&expr, &t).is_none());
        // Join without an Eq(0,0) condition.
        let expr = systolic_machine::parse("join(scan(emp), scan(dept), 1 = 0)").unwrap();
        assert!(eval(&expr, &t).is_none());
        // Store and divide never route.
        let expr = systolic_machine::parse("store(scan(emp), out)").unwrap();
        assert!(eval(&expr, &t).is_none());
        // Unknown (uncached) table.
        let expr = systolic_machine::parse("scan(ghost)").unwrap();
        assert!(eval(&expr, &t).is_none());
    }

    #[test]
    fn canonical_rows_match_export_rendering() {
        let kinds = [DomainKind::Int, DomainKind::Bool, DomainKind::Date];
        let rows = canonical_rows(&kinds, "c0,c1,c2\n 7 ,1,19000\n").unwrap();
        assert_eq!(rows, vec![vec!["7", "true", "day#19000"]]);
        assert!(canonical_rows(&kinds, "1,true\n").is_none(), "arity");
        assert!(canonical_rows(&kinds, "x,true,1\n").is_none(), "bad int");
    }

    #[test]
    fn shard_verification_requires_exact_partitions() {
        let csvs = vec!["c0\n1\n3\n".to_string(), "c0\n2\n".to_string()];
        let expected = vec![vec!["1", "3"], vec!["2"]];
        assert_eq!(verify_shards(&csvs, &expected).unwrap(), "c0");
        // A missing line, an extra line, or a header mismatch all fail.
        assert!(verify_shards(&csvs, &[vec!["1"], vec!["2"]]).is_none());
        assert!(verify_shards(&csvs, &[vec!["1", "3", "9"], vec!["2"]]).is_none());
        let bad = vec!["c0\n1\n3\n".to_string(), "c9\n2\n".to_string()];
        assert!(verify_shards(&bad, &expected).is_none());
    }
}
