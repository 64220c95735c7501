//! `layerprobe`: replay a benchmark workload through the crates' public
//! functions, in request order, recording one span per call in the
//! benchmark's own recorder. No span is added inside the program.
//!
//! One op follows the server's path (`server::handle_request` →
//! `handle_query`): `parse_request` → `catalog_view` → `machine::parse` →
//! `analyze` → `push_selections` → plan cache (`catalog_fingerprint`,
//! `optimize` on a miss) → `analyze` again → `Plan::compile` → relation locks
//! → `System::run_batch_accounted` → `render_csv` → `result_frame`; a write
//! adds `import_csv_columnar` and `StorageEngine::log_load`. Beside it, every
//! distinct query's operators are run bare (`core::ops::*_with` on the same
//! operands) and its rows are checked against `systolic_baseline`.
//!
//! Output: `name value` lines (per-layer metric names) on standard output,
//! Chrome-trace events in `--events-out`.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use servebench::gen::{self, Inputs, Op, OpStream, Workload};
use servebench::stats;
use servebench::trace::Recorder;
use systolic_analyzer::{analyze, plan_alignment, CatalogView, ColumnInfo};
use systolic_baseline::{nested_loop, OpCounter};
use systolic_core::{ops, ArrayLimits, Backend, ExecStats, Execution, JoinSpec, Predicate};
use systolic_fabric::CompareOp;
use systolic_machine::{
    parse_spanned, push_selections, Expr, MachineConfig, Plan, QueryOutcome, System,
};
use systolic_planner::{catalog_fingerprint, optimize};
use systolic_relation::{DomainId, DomainKind, MultiRelation};
use systolic_server::engine::{parse_kinds, scan_names, store_names, Store};
use systolic_server::protocol::{parse_request, result_frame, Request};
use systolic_storage::{LockMode, LockTable, StorageEngine};

/// Read ops replayed: whole cycles of the distinct queries, about this many.
const REPLAY_OPS: usize = 120;

/// Times each distinct query's bare operators are run.
const BARE_REPEATS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    events_out: PathBuf,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut events_out, mut scratch) = (None, 1980, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--events-out" => events_out = Some(PathBuf::from(value)),
            "--scratch" => scratch = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload NAME is required")?,
        seed,
        events_out: events_out.ok_or("--events-out FILE is required")?,
        scratch: scratch.ok_or("--scratch DIR is required")?,
    })
}

/// The `--backend` the workload's server runs with.
fn backend_of(workload: Workload) -> Backend {
    let flags = workload.server_flags();
    let at = flags
        .iter()
        .position(|f| *f == "--backend")
        .expect("every workload pins a backend");
    Backend::parse(flags[at + 1]).expect("a backend the crates know")
}

/// What the probe builds up while replaying: the server's parts, unshared.
struct World {
    cfg: MachineConfig,
    store: Store,
    system: System,
    locks: LockTable,
    durable: Option<StorageEngine>,
    /// `(query text, catalog fingerprint)` → chosen plan, as the server's.
    plan_cache: HashMap<(String, u64), Expr>,
    /// Encoded base relations by name, for the bare and baseline runs.
    bases: HashMap<String, MultiRelation>,
    rewrites: usize,
    bytes_in: usize,
    bytes_out: usize,
}

type Fail = Box<dyn std::error::Error>;

impl World {
    /// A `LOAD`: import (columnar planes built while parsing), write-ahead,
    /// place on the machine's disk.
    fn load(
        &mut self,
        rec: &mut Recorder,
        name: &str,
        kinds: &[DomainKind],
        csv: &str,
    ) -> Result<(), Fail> {
        self.bytes_in += csv.len();
        let rel = rec.span("relation.import_csv_columnar", |_| {
            self.store.register(name, kinds, csv)
        })?;
        if let Some(engine) = self.durable.as_mut() {
            let kinds: Vec<String> = kinds
                .iter()
                .map(|&k| systolic_server::engine::kind_name(k).to_string())
                .collect();
            rec.span("storage.log_load", |_| engine.log_load(name, &kinds, csv))?;
        }
        self.bases.insert(name.to_string(), rel.clone());
        rec.span("machine.load_base", |_| {
            self.system.load_base(name.to_string(), rel)
        });
        Ok(())
    }

    /// Everything the server does to a query before it reaches the
    /// scheduler. Returns the plan to run.
    fn admit(&mut self, rec: &mut Recorder, query: &str) -> Result<Expr, Fail> {
        let view = rec.span("server.catalog_view", |_| self.store.catalog_view());
        let (expr, spans) = rec.span("machine.parse", |_| parse_spanned(query))?;
        rec.span("analyzer.analyze", |_| {
            analyze(&expr, &view, &self.cfg, &spans)
        })
        .map_err(|d| format!("analysis rejected {query}: {d:?}"))?;
        let expr = rec.span("machine.push_selections", |_| push_selections(expr));
        let fingerprint = rec.span("planner.catalog_fingerprint", |_| {
            catalog_fingerprint(&view)
        });
        let key = (query.to_string(), fingerprint);
        let expr = match self.plan_cache.get(&key) {
            Some(plan) => plan.clone(),
            None => {
                let choice = rec
                    .span("planner.optimize", |_| optimize(&expr, &view, &self.cfg))
                    .map_err(|d| format!("optimizer rejected {query}: {d:?}"))?;
                self.rewrites += choice.rewrites.len();
                self.plan_cache.insert(key, choice.expr.clone());
                choice.expr
            }
        };
        rec.span("analyzer.analyze", |_| {
            analyze(&expr, &view, &self.cfg, &[])
        })
        .map_err(|d| format!("analysis rejected the chosen plan of {query}: {d:?}"))?;
        rec.span("analyzer.plan_alignment", |_| plan_alignment(&expr));
        rec.span("machine.plan_compile", |_| Plan::compile(&expr));
        Ok(expr)
    }

    /// Admit, lock, run as one merged schedule, render: one `QUERY`, or one
    /// pipelined round when `queries` holds several.
    fn serve(&mut self, rec: &mut Recorder, queries: &[String]) -> Result<Vec<QueryOutcome>, Fail> {
        let mut exprs = Vec::with_capacity(queries.len());
        for query in queries {
            let line = format!("QUERY {query}");
            let request = rec.span("server.parse_request", |_| parse_request(&line))?;
            let Request::Query(text) = request else {
                return Err("QUERY did not parse as a query".into());
            };
            exprs.push(self.admit(rec, &text)?);
        }
        let mut wants: Vec<(String, LockMode)> = Vec::new();
        for expr in &exprs {
            wants.extend(scan_names(expr).into_iter().map(|n| (n, LockMode::Shared)));
            wants.extend(
                store_names(expr)
                    .into_iter()
                    .map(|n| (n, LockMode::Exclusive)),
            );
        }
        wants.sort();
        wants.dedup_by(|a, b| a.0 == b.0);
        let _guard = rec.span("storage.lock_acquire", |_| self.locks.acquire_all(wants));
        // The scheduler's batch CSE: identical trees share one slot.
        let mut unique: Vec<Expr> = Vec::new();
        let slots: Vec<usize> = exprs
            .iter()
            .map(|e| {
                unique.iter().position(|u| u == e).unwrap_or_else(|| {
                    unique.push(e.clone());
                    unique.len() - 1
                })
            })
            .collect();
        for (expr, query) in exprs.iter().zip(queries) {
            if let (Some(engine), false) = (self.durable.as_mut(), store_names(expr).is_empty()) {
                rec.span("storage.log_query", |_| engine.log_query(query))?;
            }
        }
        let batch = rec.span("machine.run_batch_accounted", |_| {
            self.system.run_batch_accounted(&unique)
        })?;
        let mut outcomes = Vec::with_capacity(slots.len());
        for slot in slots {
            let outcome = batch.queries[slot].clone();
            let csv = rec.span("relation.export_csv", |_| {
                self.store.render_csv(&outcome.result)
            })?;
            self.bytes_out += csv.len();
            rec.span("server.result_frame", |_| {
                result_frame(outcome.result.len(), &outcome.stats, &csv)
            });
            outcomes.push(outcome);
        }
        Ok(outcomes)
    }
}

/// The device arrays' execution mode, as `machine::Device::execute` sets it.
fn device_exec(cfg: &MachineConfig) -> Execution {
    let limits: ArrayLimits = cfg.devices[0].1;
    Execution::TiledPipelined(limits)
}

/// Sums over the bare operator runs of one query.
#[derive(Default)]
struct Bare {
    /// Host ns in operators a device would run (not the disk's filter).
    device_ns: u64,
    stats: Vec<(ExecStats, u64)>,
}

impl Bare {
    /// Run one operator under a `core.<op>` span and keep its statistics.
    fn timed(
        &mut self,
        rec: &mut Recorder,
        name: &'static str,
        on_device: bool,
        f: impl FnOnce() -> systolic_core::Result<(MultiRelation, ExecStats)>,
    ) -> Result<MultiRelation, Fail> {
        let started = Instant::now();
        let (rel, stats) = rec.span(name, |_| f())?;
        let ns = started.elapsed().as_nanos() as u64;
        if on_device {
            self.device_ns += ns;
        }
        self.stats.push((stats, ns));
        Ok(rel)
    }
}

/// Run a plan's operators bare: `core::ops::*_with` on the same operands,
/// one `core.<op>` span each.
fn eval_bare(
    expr: &Expr,
    world: &World,
    exec: Execution,
    rec: &mut Recorder,
    bare: &mut Bare,
) -> Result<MultiRelation, Fail> {
    let be = world.cfg.backend;
    Ok(match expr {
        Expr::Scan { name, filter } => {
            let base = world
                .bases
                .get(name)
                .ok_or_else(|| format!("no base {name}"))?
                .clone();
            match filter {
                // A logic-per-track filter runs at the disk, not on a device;
                // the equivalent selection is timed for `core.select_us`.
                Some(f) => {
                    let preds = [Predicate::new(f.col, f.op, f.value)];
                    bare.timed(rec, "core.select", false, || {
                        ops::select_with(&base, &preds, exec, be)
                    })?
                }
                None => base,
            }
        }
        Expr::Intersect(a, b) => {
            let (a, b) = (
                eval_bare(a, world, exec, rec, bare)?,
                eval_bare(b, world, exec, rec, bare)?,
            );
            bare.timed(rec, "core.intersect", true, || {
                ops::intersect_with(&a, &b, exec, be)
            })?
        }
        Expr::Difference(a, b) => {
            let (a, b) = (
                eval_bare(a, world, exec, rec, bare)?,
                eval_bare(b, world, exec, rec, bare)?,
            );
            bare.timed(rec, "core.difference", true, || {
                ops::difference_with(&a, &b, exec, be)
            })?
        }
        Expr::Union(a, b) => {
            let (a, b) = (
                eval_bare(a, world, exec, rec, bare)?,
                eval_bare(b, world, exec, rec, bare)?,
            );
            bare.timed(rec, "core.union", true, || {
                ops::union_with(&a, &b, exec, be)
            })?
        }
        Expr::Dedup(a) => {
            let a = eval_bare(a, world, exec, rec, bare)?;
            bare.timed(rec, "core.dedup", true, || ops::dedup_with(&a, exec, be))?
        }
        Expr::Project(a, cols) => {
            let a = eval_bare(a, world, exec, rec, bare)?;
            bare.timed(rec, "core.project", true, || {
                ops::project_with(&a, cols, exec, be)
            })?
        }
        Expr::Select(a, preds) => {
            let a = eval_bare(a, world, exec, rec, bare)?;
            bare.timed(rec, "core.select", true, || {
                ops::select_with(&a, preds, exec, be)
            })?
        }
        Expr::Join(a, b, specs) => {
            let (a, b) = (
                eval_bare(a, world, exec, rec, bare)?,
                eval_bare(b, world, exec, rec, bare)?,
            );
            bare.timed(rec, "core.join", true, || {
                ops::join_with(&a, &b, specs, exec, be)
            })?
        }
        Expr::Divide {
            dividend,
            divisor,
            key,
            ca,
            cb,
        } => {
            let a = eval_bare(dividend, world, exec, rec, bare)?;
            let b = eval_bare(divisor, world, exec, rec, bare)?;
            bare.timed(rec, "core.divide", true, || {
                ops::divide_binary_with(&a, *key, *ca, &b, *cb, exec, be)
            })?
        }
        Expr::Store(a, _) => eval_bare(a, world, exec, rec, bare)?,
    })
}

/// The same query on `systolic_baseline`'s nested loops — the executable
/// specification the arrays are verified against.
fn eval_baseline(
    expr: &Expr,
    world: &World,
    counter: &mut OpCounter,
) -> Result<MultiRelation, Fail> {
    Ok(match expr {
        Expr::Scan { name, filter } => {
            let base = world
                .bases
                .get(name)
                .ok_or_else(|| format!("no base {name}"))?;
            match filter {
                Some(f) => f.apply(base),
                None => base.clone(),
            }
        }
        Expr::Intersect(a, b) => nested_loop::intersect(
            &eval_baseline(a, world, counter)?,
            &eval_baseline(b, world, counter)?,
            counter,
        )?,
        Expr::Difference(a, b) => nested_loop::difference(
            &eval_baseline(a, world, counter)?,
            &eval_baseline(b, world, counter)?,
            counter,
        )?,
        Expr::Union(a, b) => nested_loop::union(
            &eval_baseline(a, world, counter)?,
            &eval_baseline(b, world, counter)?,
            counter,
        )?,
        Expr::Dedup(a) => nested_loop::dedup(&eval_baseline(a, world, counter)?, counter),
        Expr::Project(a, cols) => {
            nested_loop::project(&eval_baseline(a, world, counter)?, cols, counter)?
        }
        Expr::Select(a, preds) => {
            let a = eval_baseline(a, world, counter)?;
            let rows = a.rows();
            a.filter_by_index(|i| preds.iter().all(|p| p.op.eval(rows[i][p.col], p.value)))
        }
        Expr::Join(a, b, specs) => {
            let (a, b) = (
                eval_baseline(a, world, counter)?,
                eval_baseline(b, world, counter)?,
            );
            if specs.iter().all(|s: &JoinSpec| s.op == CompareOp::Eq) {
                let pairs: Vec<(usize, usize)> = specs.iter().map(|s| (s.col_a, s.col_b)).collect();
                nested_loop::equi_join(&a, &b, &pairs, counter)?
            } else {
                let specs: Vec<(usize, usize, CompareOp)> =
                    specs.iter().map(|s| (s.col_a, s.col_b, s.op)).collect();
                nested_loop::theta_join(&a, &b, &specs, counter)?
            }
        }
        Expr::Divide {
            dividend,
            divisor,
            key,
            ca,
            cb,
        } => {
            let a = eval_baseline(dividend, world, counter)?;
            let b = eval_baseline(divisor, world, counter)?;
            let keys = nested_loop::divide_binary(&a, *key, *ca, &b, *cb, counter)?;
            MultiRelation::new(
                a.schema().project(&[*key])?,
                keys.into_iter().map(|k| vec![k]).collect(),
            )?
        }
        Expr::Store(a, _) => eval_baseline(a, world, counter)?,
    })
}

/// A catalog of `n` two-column tables, to time the plan-cache key alone.
fn synthetic_view(n: usize) -> CatalogView {
    let mut view = CatalogView::new();
    let column = ColumnInfo {
        domain: DomainId(0),
        kind: DomainKind::Int,
    };
    for k in 0..n {
        view.add_table(format!("w0_{k}"), vec![column, column], 256);
    }
    view
}

fn mean_us(rec: &Recorder, name: &str) -> f64 {
    let (ns, calls) = rec.total_of(name);
    if calls == 0 {
        0.0
    } else {
        ns as f64 / calls as f64 / 1e3
    }
}

fn probe(args: &Args) -> Result<BTreeMap<&'static str, f64>, Fail> {
    let workload = args.workload;
    let inputs: Inputs = gen::inputs(workload, args.seed);
    let texts: Vec<String> = inputs.queries.iter().map(|q| q.to_string()).collect();
    let cfg = MachineConfig {
        backend: backend_of(workload),
        ..MachineConfig::default()
    };
    let mut rec = Recorder::new();

    let wal_dir = args
        .scratch
        .join(format!("{}-{}", workload.name(), args.seed));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let mut system = System::new(cfg.clone())?;
    let durable = if workload.durable() {
        let (engine, _, _) = StorageEngine::open(&wal_dir)?;
        system.attach_storage(&engine.blobs());
        Some(engine)
    } else {
        None
    };
    let mut world = World {
        cfg,
        store: Store::new(),
        system,
        locks: LockTable::new(),
        durable,
        plan_cache: HashMap::new(),
        bases: HashMap::new(),
        rewrites: 0,
        bytes_in: 0,
        bytes_out: 0,
    };

    // Set-up: the same tables, then every distinct query once (cold plans).
    rec.set_op(0);
    for table in &inputs.tables {
        let kinds = parse_kinds(&table.kinds())?;
        world.load(&mut rec, &table.name, &kinds, &table.csv())?;
    }
    let mut first_results = Vec::with_capacity(texts.len());
    for text in &texts {
        first_results.push(world.serve(&mut rec, std::slice::from_ref(text))?.remove(0));
    }
    let distinct = texts.len();
    let rewrites = world.rewrites;
    let cold_optimize_us = mean_us(&rec, "planner.optimize");

    // The op stream of client 0, in request order, one span tree per op.
    let warm = rec.spans().len();
    let mut stream = OpStream::new(workload, &inputs, args.seed, 0);
    let ops_to_run = REPLAY_OPS.div_ceil(distinct) * distinct;
    let (mut queries_run, mut run_ids) = (0usize, Vec::new());
    for k in 0..ops_to_run {
        rec.set_op(1 + k as u64);
        match stream.next_op() {
            Op::Query(id) => {
                rec.span("op.query", |rec| {
                    world.serve(rec, std::slice::from_ref(&texts[id]))
                })?;
                run_ids.push(id);
                queries_run += 1;
            }
            Op::Round(ids) => {
                let round: Vec<String> = ids.iter().map(|&id| texts[id].clone()).collect();
                rec.span("op.round", |rec| world.serve(rec, &round))?;
                run_ids.extend(ids);
                queries_run += ids.len();
            }
            Op::Load { name, pool } => {
                let csv = gen::render_rows(&inputs.write_pool[pool]);
                let frame = format!("LOAD {name} int,int {}", csv.replace('\n', "\\n"));
                rec.span("op.load", |rec| -> Result<(), Fail> {
                    let Request::Load { name, kinds, csv } =
                        rec.span("server.parse_request", |_| parse_request(&frame))?
                    else {
                        return Err("LOAD did not parse as a load".into());
                    };
                    world.load(rec, &name, &kinds, &csv)
                })?;
            }
            Op::Store { name, id } => {
                let text = format!("store({}, {name})", texts[id]);
                rec.span("op.store", |rec| {
                    world.serve(rec, std::slice::from_ref(&text))
                })?;
            }
        }
    }
    let replay_end = rec.spans().len();

    // Bare operators and the baseline check, per distinct query.
    let exec = device_exec(&world.cfg);
    let mut bare_device_us = vec![0.0; distinct];
    let mut fabric = (0u64, 0u64, 0u64);
    let mut mismatches = 0;
    for (id, text) in texts.iter().enumerate() {
        rec.set_op(1_000_000 + id as u64);
        let (expr, _) = parse_spanned(text)?;
        let pushed = push_selections(expr.clone());
        let mut bare = Bare::default();
        for _ in 0..BARE_REPEATS {
            rec.span("core.bare", |rec| {
                eval_bare(&pushed, &world, exec, rec, &mut bare)
            })?;
        }
        bare_device_us[id] = bare.device_ns as f64 / BARE_REPEATS as f64 / 1e3;
        for (stats, ns) in &bare.stats {
            fabric.0 += stats.total_cell_pulses;
            fabric.1 += stats.busy_cell_pulses;
            fabric.2 += ns;
        }
        let want = eval_baseline(&expr, &world, &mut OpCounter::new())?;
        if want.rows() != first_results[id].result.rows() {
            eprintln!("layerprobe: baseline differs on {text}");
            mismatches += 1;
        }
    }
    let bare_per_query =
        run_ids.iter().map(|&id| bare_device_us[id]).sum::<f64>() / run_ids.len().max(1) as f64;

    // Re-pricing from cardinalities (the router's merge path); division
    // cannot be priced from shapes and is skipped.
    let mut price_us = Vec::new();
    for (text, outcome) in texts.iter().zip(&first_results) {
        let (expr, _) = parse_spanned(text)?;
        let plan = Plan::compile(&push_selections(expr));
        let started = Instant::now();
        if world.system.price_plan(&plan, &outcome.step_rows).is_ok() {
            price_us.push(started.elapsed().as_secs_f64() * 1e6);
        }
    }

    let mut fingerprint_us = [0.0; 3];
    for (slot, n) in [10, 1000, 3000].into_iter().enumerate() {
        let view = synthetic_view(n);
        let started = Instant::now();
        for _ in 0..20 {
            std::hint::black_box(catalog_fingerprint(std::hint::black_box(&view)));
        }
        fingerprint_us[slot] = started.elapsed().as_secs_f64() * 1e6 / 20.0;
    }

    // Recovery: reopen what this replay logged.
    let mut recover_us_per_record = 0.0;
    if let Some(engine) = world.durable.take() {
        drop(engine);
        let (_, records, report) = StorageEngine::open(&wal_dir)?;
        recover_us_per_record = report.recovery_ns as f64 / 1e3 / records.len().max(1) as f64;
    }
    let _ = std::fs::remove_dir_all(&wal_dir);

    let log_us: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "storage.log_load")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    let (import_ns, _) = rec.total_of("relation.import_csv_columnar");
    let (export_ns, _) = rec.total_of("relation.export_csv");
    let mb_s = |bytes: usize, ns: u64| {
        if ns == 0 {
            0.0
        } else {
            bytes as f64 / 1e6 / (ns as f64 / 1e9)
        }
    };
    // Per-query means over the replayed op stream (set-up and bare runs excluded).
    let replayed = &rec.spans()[warm..replay_end];
    let per_query = |names: &[&str]| -> f64 {
        let ns: u64 = replayed
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 / 1e3 / queries_run.max(1) as f64
    };
    let run_us = per_query(&["machine.run_batch_accounted"]);
    let sim = world.cfg.backend == Backend::Sim && fabric.2 > 0;

    std::fs::write(&args.events_out, rec.chrome_events(2, 0))?;
    Ok(BTreeMap::from([
        (
            "server.protocol_parse_us",
            per_query(&["server.parse_request"]),
        ),
        (
            "server.render_us",
            per_query(&["relation.export_csv", "server.result_frame"]),
        ),
        (
            "server.admission_us",
            per_query(&[
                "server.catalog_view",
                "machine.parse",
                "analyzer.analyze",
                "machine.push_selections",
                "planner.catalog_fingerprint",
                "planner.optimize",
                "analyzer.plan_alignment",
                "machine.plan_compile",
                "storage.lock_acquire",
            ]),
        ),
        ("planner.optimize_us", cold_optimize_us),
        ("planner.fingerprint_us_10", fingerprint_us[0]),
        ("planner.fingerprint_us_1000", fingerprint_us[1]),
        ("planner.fingerprint_us_3000", fingerprint_us[2]),
        (
            "planner.rewrites_per_query",
            rewrites as f64 / distinct as f64,
        ),
        ("analyzer.analyze_us", per_query(&["analyzer.analyze"])),
        ("machine.parse_us", per_query(&["machine.parse"])),
        ("machine.run_us", run_us),
        ("machine.self_us", run_us - bare_per_query),
        (
            "machine.price_plan_us",
            stats::mean(&price_us).unwrap_or(0.0),
        ),
        ("core.intersect_us", mean_us(&rec, "core.intersect")),
        ("core.union_us", mean_us(&rec, "core.union")),
        ("core.difference_us", mean_us(&rec, "core.difference")),
        ("core.dedup_us", mean_us(&rec, "core.dedup")),
        ("core.join_us", mean_us(&rec, "core.join")),
        ("core.select_us", mean_us(&rec, "core.select")),
        ("core.divide_us", mean_us(&rec, "core.divide")),
        (
            "fabric.cell_pulses_per_host_s",
            if sim {
                fabric.0 as f64 / (fabric.2 as f64 / 1e9)
            } else {
                0.0
            },
        ),
        (
            "fabric.utilisation",
            if sim {
                fabric.1 as f64 / fabric.0.max(1) as f64
            } else {
                0.0
            },
        ),
        ("relation.import_mb_s", mb_s(world.bytes_in, import_ns)),
        ("relation.export_mb_s", mb_s(world.bytes_out, export_ns)),
        (
            "storage.log_append_us",
            stats::quantile_of(&log_us, 0.5).unwrap_or(0.0),
        ),
        ("storage.recover_us_per_record", recover_us_per_record),
        (
            "storage.lock_acquire_us",
            mean_us(&rec, "storage.lock_acquire"),
        ),
        ("baseline.checked", distinct as f64),
        ("baseline.mismatches", mismatches as f64),
    ]))
}

fn main() -> ExitCode {
    match parse_args()
        .map_err(Fail::from)
        .and_then(|args| probe(&args))
    {
        Ok(metrics) => {
            for (name, value) in metrics {
                println!("{name} {value}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("layerprobe: {e}");
            ExitCode::FAILURE
        }
    }
}
