//! The integrated systolic system of Figure 9-1 and its scheduler.
//!
//! "One organization that seems to match the system requirements is the
//! crossbar switch interconnection. ... Initially, the relevant relations
//! are read from disks into memories. Then the crossbar switch is
//! configured so that the relevant memories are connected to the systolic
//! array that will perform the first operation of the transaction in
//! question. The data is pipelined from the memories through the switch and
//! through the processor array. The output of the array is pipelined back
//! into another memory. This is repeated for each relational operation in
//! the transaction. Due to the crossbar structure, several operations may
//! be run concurrently."
//!
//! A crossbar is internally non-blocking, so contention exists only at its
//! *ports*: the disk channel, each memory module's port, and each device.
//! The scheduler is a deterministic list scheduler over those resources; an
//! operation holds its input-memory ports, its output-memory port and its
//! device for the whole (pipelined) run.
//!
//! Scheduling is split into two passes. The execute pass (here) performs
//! every data-dependent computation — disk reads and device runs, which are
//! pure functions of disk contents and `(op, inputs, limits)` — keeps the
//! rows in its dataflow map, and records each step's *shape*. The
//! accounting pass ([`crate::account`]) prices those records against a
//! fresh set of resource clocks and never sees a row. Because the records
//! carry no clock state, the *same* executions can be accounted more than
//! once: once inside a merged multi-transaction schedule and once standalone
//! per transaction (see [`System::run_batch_accounted`]), which is what lets
//! a long-running query service batch concurrent clients without perturbing
//! per-request statistics.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use systolic_core::{ArrayLimits, Backend};
use systolic_relation::MultiRelation;
use systolic_storage::{SharedBlobStore, StorageMetrics};
use systolic_telemetry as telemetry;
use systolic_telemetry::metrics::{self, Counter};

use crate::account::{PricedOutcome, StepCost, StepRecord, StepShape, WriteBacks};
use crate::device::{Device, DeviceKind};
use crate::error::{MachineError, Result};
use crate::plan::{Action, Expr, Plan, PlanStep};
use crate::storage::Disk;
use crate::timeline::Timeline;

struct MachineCounters {
    runs: std::sync::Arc<Counter>,
    pulses: std::sync::Arc<Counter>,
    array_runs: std::sync::Arc<Counter>,
    disk_bytes: std::sync::Arc<Counter>,
}

fn machine_counters() -> &'static MachineCounters {
    static CACHE: OnceLock<MachineCounters> = OnceLock::new();
    CACHE.get_or_init(|| {
        let r = metrics::global();
        MachineCounters {
            runs: r.counter(
                "sdb_machine_runs_total",
                "Transaction schedules priced by the machine (solo runs and merged batches).",
            ),
            pulses: r.counter(
                "sdb_machine_pulses_total",
                "Simulated array pulses across all machine runs (§8 time unit).",
            ),
            array_runs: r.counter(
                "sdb_machine_array_runs_total",
                "Physical array runs (tiles) across all machine runs.",
            ),
            disk_bytes: r.counter(
                "sdb_machine_disk_bytes_total",
                "Bytes read from disk across all machine runs (§9 disk channel).",
            ),
        }
    })
}

/// Feed the global registry from a completed run's aggregate stats. Called
/// once per externally observable run (solo, or merged batch) — the
/// per-query re-accounting inside a batch is *not* counted again.
pub(crate) fn record_run_metrics(stats: &RunStats) {
    if !metrics::metrics_enabled() {
        return;
    }
    let c = machine_counters();
    c.runs.inc();
    c.pulses.add(stats.total_pulses);
    c.array_runs.add(stats.array_runs);
    c.disk_bytes.add(stats.bytes_from_disk);
}

/// The interconnection strategy (§9: "many strategies are possible for the
/// interconnection of the systolic devices").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Interconnect {
    /// The crossbar of Figure 9-1: internally non-blocking, contention
    /// only at ports.
    #[default]
    Crossbar,
    /// A single shared bus: every transfer (load, operator streaming,
    /// store) additionally serialises on the one channel — the cheaper
    /// alternative the crossbar is implicitly compared against.
    SharedBus,
}

/// Machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// The interconnection strategy.
    pub interconnect: Interconnect,
    /// Number of disks (base relations are spread round-robin; loads from
    /// different disks proceed in parallel).
    pub disks: usize,
    /// Number of memory modules on the crossbar.
    pub memories: usize,
    /// Capacity per module, in bytes.
    pub memory_capacity: u64,
    /// Word size for byte accounting.
    pub bytes_per_word: u64,
    /// Devices: operator family and physical array capacity each.
    pub devices: Vec<(DeviceKind, ArrayLimits)>,
    /// Pulse period in nanoseconds (§8: 350 ns conservative).
    pub clock_ns: f64,
    /// How devices compute operator runs: the pulse-accurate simulator or
    /// the closed-form columnar backend. Results, [`RunStats`] and
    /// [`Timeline`]s are bit-identical either way; only host speed changes.
    pub backend: Backend,
}

impl Default for MachineConfig {
    /// # Panics
    ///
    /// If `SYSTOLIC_BACKEND` is set to something that names no backend
    /// (see [`Backend::from_env`]): a default that quietly fell back to the
    /// simulator would let a stale toggle test the wrong backend.
    fn default() -> Self {
        let limits = ArrayLimits::new(32, 32, 8);
        MachineConfig {
            interconnect: Interconnect::Crossbar,
            disks: 1,
            memories: 4,
            memory_capacity: 64 << 20,
            bytes_per_word: 4,
            devices: vec![
                (DeviceKind::SetOp, limits),
                (DeviceKind::SetOp, limits),
                (DeviceKind::Join, limits),
                (DeviceKind::Divide, limits),
            ],
            clock_ns: 350.0,
            backend: Backend::from_env().unwrap_or_else(|e| panic!("{e}")),
        }
    }
}

/// Aggregate statistics of a transaction run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Wall-clock (simulated) completion time, in nanoseconds.
    pub makespan_ns: u64,
    /// Total array pulses across all operator steps.
    pub total_pulses: u64,
    /// Total physical array invocations (tiles).
    pub array_runs: u64,
    /// Bytes delivered by the disk.
    pub bytes_from_disk: u64,
    /// Maximum number of devices running simultaneously.
    pub max_device_concurrency: usize,
}

/// Result of running a transaction.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The final relation.
    pub result: MultiRelation,
    /// The full schedule.
    pub timeline: Timeline,
    /// Aggregate statistics.
    pub stats: RunStats,
    /// Host wall-clock time spent simulating this plan, in nanoseconds.
    /// Deliberately outside [`RunStats`]: `makespan_ns` is simulated
    /// hardware time (a property of the design), this is how long the
    /// simulation took on this machine and run.
    pub host_wall_ns: u64,
    /// Output cardinality of each plan step, positionally aligned with
    /// `plan.steps` (`Load` → rows delivered, `Op` → result rows, `Store` →
    /// rows written back). These are the inputs [`System::price_plan`]
    /// needs, so a coordinator that gathers them from partitioned runs can
    /// re-price the whole plan.
    pub step_rows: Vec<u64>,
}

impl RunOutcome {
    /// Per-resource busy time and busy fraction of the makespan, sorted by
    /// resource name — the §9 utilisation picture for one transaction.
    pub fn resource_report(&self) -> Vec<(String, u64, f64)> {
        let makespan = self.stats.makespan_ns.max(1) as f64;
        let mut names: Vec<String> = self
            .timeline
            .events()
            .iter()
            .map(|e| e.resource.clone())
            .collect();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .map(|name| {
                let busy = self.timeline.busy_ns(&name);
                (name, busy, busy as f64 / makespan)
            })
            .collect()
    }
}

/// One transaction's standalone accounting within a batched run.
///
/// Produced by [`System::run_batch_accounted`]: the transaction's recorded
/// executions replayed against a fresh machine state, so `stats` and
/// `timeline` are bit-identical to running the transaction alone on a
/// freshly built [`System`] — independent of what else was in the batch.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The transaction's result relation.
    pub result: MultiRelation,
    /// Simulated-hardware statistics of the standalone schedule.
    pub stats: RunStats,
    /// The standalone schedule itself.
    pub timeline: Timeline,
    /// Per-step output cardinalities (see [`RunOutcome::step_rows`]).
    pub step_rows: Vec<u64>,
}

/// Result of [`System::run_batch_accounted`]: the merged §9 schedule plus
/// per-transaction standalone accounting over the same executions.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// One standalone-accounted outcome per submitted transaction.
    pub queries: Vec<QueryOutcome>,
    /// The merged schedule — all transactions sharing crossbar ports and
    /// devices. Its `host_wall_ns` covers the whole batch: the execution
    /// pass and both accounting passes.
    pub combined: RunOutcome,
}

/// A step output, out of the execute pass's dataflow map.
fn output(values: &HashMap<&str, MultiRelation>, name: &str) -> Result<MultiRelation> {
    values
        .get(name)
        .cloned()
        .ok_or_else(|| MachineError::UnknownRelation {
            name: name.to_string(),
        })
}

/// The shape record of a computed relation.
fn shape_of(rel: &MultiRelation, cost: StepCost) -> StepShape {
    StepShape {
        rows: rel.len() as u64,
        arity: rel.arity(),
        cost,
    }
}

/// The integrated machine: disks + memories + systolic devices + crossbar.
#[derive(Debug)]
pub struct System {
    pub(crate) disks: Vec<Disk>,
    /// Memory modules on the crossbar: how many, how large, and the word
    /// size staged relations are sized with. What they hold at any moment
    /// is per-run scheduler state, not machine state.
    pub(crate) memories: usize,
    pub(crate) memory_capacity: u64,
    pub(crate) bytes_per_word: u64,
    pub(crate) devices: Vec<Device>,
    pub(crate) interconnect: Interconnect,
    disk_rr: usize,
    pub(crate) storage_metrics: Arc<StorageMetrics>,
}

impl System {
    /// Build a machine.
    pub fn new(config: MachineConfig) -> Result<Self> {
        if config.memories == 0 || config.devices.is_empty() || config.disks == 0 {
            return Err(MachineError::EmptyConfiguration);
        }
        let devices = config
            .devices
            .iter()
            .enumerate()
            .map(|(id, &(kind, limits))| {
                Device::new(id, kind, limits, config.clock_ns, config.backend)
            })
            .collect();
        let disks = (0..config.disks).map(|_| Disk::paper_disk()).collect();
        Ok(System {
            disks,
            memories: config.memories,
            memory_capacity: config.memory_capacity,
            bytes_per_word: config.bytes_per_word,
            devices,
            interconnect: config.interconnect,
            disk_rr: 0,
            storage_metrics: StorageMetrics::shared(),
        })
    }

    /// Back every disk with the given paged store (each disk namespaces its
    /// blobs as `d<i>:`). Existing disk contents move into the store.
    pub fn attach_storage(&mut self, store: &SharedBlobStore) {
        for (i, disk) in self.disks.iter_mut().enumerate() {
            disk.attach_backing(store.clone(), format!("d{i}:"));
        }
    }

    /// A machine with the default configuration.
    pub fn default_machine() -> Self {
        Self::new(MachineConfig::default()).expect("default config is non-empty")
    }

    /// Store a base relation on a disk (round-robin across the disks, so
    /// consecutive base relations can be loaded in parallel), replacing any
    /// relation of that name wherever it was.
    pub fn load_base(&mut self, name: impl Into<String>, rel: MultiRelation) {
        let d = self.disk_rr;
        self.disk_rr = (self.disk_rr + 1) % self.disks.len();
        self.write(d, name.into(), rel);
    }

    /// Write `rel` to disk `d` as the machine's one copy of `name`: a
    /// stale copy left on another disk would shadow it (or be shadowed by
    /// it) depending on disk order.
    fn write(&mut self, d: usize, name: String, rel: MultiRelation) {
        for disk in &mut self.disks {
            disk.remove(&name);
        }
        self.disks[d].store(name, rel);
    }

    /// The disk holding a base relation, and the `(rows, arity)` it is
    /// stored with.
    pub(crate) fn base_shape(&self, name: &str) -> Result<(usize, u64, usize)> {
        self.disks
            .iter()
            .enumerate()
            .find_map(|(d, disk)| disk.shape(name).map(|(rows, arity)| (d, rows, arity)))
            .ok_or_else(|| MachineError::UnknownRelation {
                name: name.to_string(),
            })
    }

    /// Whether a base relation with this name is stored on some disk.
    pub fn has_base(&self, name: &str) -> bool {
        self.base_shape(name).is_ok()
    }

    /// Number of disks.
    pub fn disk_count(&self) -> usize {
        self.disks.len()
    }

    /// The devices, for inspection.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Number of memory modules.
    pub fn memory_count(&self) -> usize {
        self.memories
    }

    /// Compile and run a transaction.
    pub fn run(&mut self, expr: &Expr) -> Result<RunOutcome> {
        let plan = {
            let mut sp = telemetry::span("machine.plan");
            let plan = Plan::compile(expr);
            sp.arg("steps", plan.steps.len());
            plan
        };
        self.run_plan(&plan)
    }

    /// Run a *set* of transactions as one schedule (§9 processes "a single
    /// transaction or a set of transactions"). Plans are merged with
    /// namespaced temporaries; steps from different transactions interleave
    /// on the shared resources, so independent transactions overlap on
    /// distinct devices and memory ports.
    ///
    /// Returns one result per transaction plus the combined schedule.
    pub fn run_batch(&mut self, exprs: &[Expr]) -> Result<(Vec<MultiRelation>, RunOutcome)> {
        let batch = self.run_batch_accounted(exprs)?;
        Ok((
            batch.queries.into_iter().map(|q| q.result).collect(),
            batch.combined,
        ))
    }

    /// Run a set of transactions as one merged schedule *and* account each
    /// transaction standalone over the very same recorded executions.
    ///
    /// The merged pass prices the batch the way §9 describes — independent
    /// transactions overlapping on distinct crossbar ports and devices —
    /// while each [`QueryOutcome`] replays that transaction's recorded step
    /// executions against fresh machine state, so its `stats` and
    /// `timeline` are bit-identical to running the transaction alone on a
    /// freshly built [`System`]. This is what lets a long-running service
    /// batch concurrently-arriving requests for throughput while reporting
    /// per-request simulated costs that do not depend on what else happened
    /// to share the batch.
    pub fn run_batch_accounted(&mut self, exprs: &[Expr]) -> Result<BatchOutcome> {
        let mut batch_span = telemetry::span("machine.batch");
        batch_span.arg("queries", exprs.len());
        let host_start = std::time::Instant::now();
        let (plans, merged, offsets) = {
            let _sp = telemetry::span("machine.plan");
            let plans: Vec<Plan> = exprs.iter().map(Plan::compile).collect();
            let (merged, offsets) = Self::merge_plans(&plans);
            (plans, merged, offsets)
        };
        let (records, values) = self.execute_steps(&merged);
        let accounted = {
            let _sp = telemetry::span("machine.account");
            self.account(&merged, &records)?
        };
        let mut queries = Vec::with_capacity(plans.len());
        for (plan, &offset) in plans.iter().zip(&offsets) {
            let steps = offset..offset + plan.steps.len();
            let _sp = telemetry::span("machine.account_solo");
            let (solo, _) = self.account(plan, &records[steps.clone()])?;
            queries.push(QueryOutcome {
                result: output(&values, &merged.steps[steps.end - 1].output)?,
                stats: solo.stats,
                timeline: solo.timeline,
                step_rows: solo.step_rows,
            });
        }
        let combined = self.finish(&merged, accounted, &values, host_start)?;
        Ok(BatchOutcome { queries, combined })
    }

    /// Merge per-transaction plans into one, namespacing temporaries and
    /// staged copies per query (`q0:`, `q1:`, ...) so two transactions'
    /// intermediates never collide. Returns the merged plan and each
    /// transaction's step offset within it.
    fn merge_plans(plans: &[Plan]) -> (Plan, Vec<usize>) {
        let mut merged = Plan::default();
        let mut offsets = Vec::with_capacity(plans.len());
        for (q, plan) in plans.iter().enumerate() {
            let offset = merged.steps.len();
            offsets.push(offset);
            for step in &plan.steps {
                let mut step = step.clone();
                step.id += offset;
                for d in &mut step.deps {
                    *d += offset;
                }
                step.output = format!("q{q}:{}", step.output);
                match &mut step.action {
                    Action::Op { inputs, .. } => {
                        for input in inputs {
                            *input = format!("q{q}:{input}");
                        }
                    }
                    Action::Store { input, .. } => {
                        *input = format!("q{q}:{input}");
                    }
                    Action::Load { .. } => {}
                }
                merged.steps.push(step);
            }
        }
        (merged, offsets)
    }

    /// The execute pass: run every data-dependent part of a plan — each disk
    /// read and each `Op` step's device run — in one walk of the steps in
    /// plan order. Returns each step's shape record for the accounting
    /// pass, and the dataflow map (step output name → relation): the one
    /// place a run's rows live.
    ///
    /// Running ahead of the scheduler is sound because [`Device::execute`]
    /// is a pure function of `(op, inputs, device.limits)` — it touches no
    /// clocks and no machine state — and the *rows* it returns do not
    /// depend on the limits at all (§8: decomposition is invisible to
    /// results). Only the array statistics do, and which device instance a
    /// step gets is decided by the clock history; so a step is run once per
    /// distinct limits among its eligible devices ([`System::runners`]:
    /// once, in every shipped configuration) and accounting picks the
    /// statistics of the device it chose.
    ///
    /// A step that could not run — its load failed, no device takes its
    /// operator, an input never materialised — leaves an error record;
    /// accounting surfaces the first of them, in step order.
    fn execute_steps<'p>(
        &self,
        plan: &'p Plan,
    ) -> (Vec<StepRecord>, HashMap<&'p str, MultiRelation>) {
        let _sp = telemetry::span("machine.execute");
        // Dataflow values by output name (plan steps are topologically
        // ordered, so a step's inputs are always produced by earlier steps).
        let mut values: HashMap<&str, MultiRelation> = HashMap::new();
        let records = plan
            .steps
            .iter()
            .map(|step| self.execute_step(step, &mut values))
            .collect();
        (records, values)
    }

    /// One step of the execute pass: its shape record, with the relation a
    /// load or an operator produced added to `values`.
    fn execute_step<'p>(
        &self,
        step: &'p PlanStep,
        values: &mut HashMap<&'p str, MultiRelation>,
    ) -> StepRecord {
        // What a step with a missing input or no device leaves. Never
        // surfaced: accounting meets the upstream failure that starved it,
        // or the missing device, first.
        let starved = || MachineError::UnknownRelation {
            name: step.output.clone(),
        };
        let (out, cost) = match &step.action {
            Action::Load { relation, filter } => {
                let (disk_id, ..) = self.base_shape(relation)?;
                let (delivered, duration) = self.disks[disk_id].read(relation, *filter)?;
                (delivered, StepCost::Load { disk_id, duration })
            }
            Action::Op { op, inputs } => {
                let staged: Vec<&MultiRelation> = inputs
                    .iter()
                    .map(|n| values.get(n.as_str()))
                    .collect::<Option<_>>()
                    .ok_or_else(starved)?;
                // The rows are the same under every limits: keep the first.
                let mut rows = None;
                let mut runs = Vec::new();
                for device in self.runners(op) {
                    let (out, stats) = device.execute(op, &staged)?;
                    runs.push((device.limits, stats));
                    rows.get_or_insert(out);
                }
                (rows.ok_or_else(starved)?, StepCost::Op(runs))
            }
            // A store moves an already-staged relation: its record is that
            // relation's shape, and the dataflow map gains nothing.
            Action::Store { input, .. } => {
                let rel = values.get(input.as_str()).ok_or_else(starved)?;
                return Ok(shape_of(rel, StepCost::Store));
            }
        };
        let shape = shape_of(&out, cost);
        values.insert(step.output.as_str(), out);
        Ok(shape)
    }

    /// Close a run the accounting pass accepted: take its result out of
    /// the dataflow map and apply its `store(...)` write-backs — once per
    /// run, each to the disk whose channel the schedule charged.
    fn finish(
        &mut self,
        plan: &Plan,
        (priced, write_backs): (PricedOutcome, WriteBacks),
        values: &HashMap<&str, MultiRelation>,
        host_start: std::time::Instant,
    ) -> Result<RunOutcome> {
        let result = output(values, plan.result_name())?;
        for (step, disk) in write_backs {
            let Action::Store { input, as_name } = &plan.steps[step].action else {
                unreachable!("write-backs come from store steps")
            };
            self.write(disk, as_name.clone(), output(values, input)?);
        }
        record_run_metrics(&priced.stats);
        Ok(RunOutcome {
            result,
            timeline: priced.timeline,
            stats: priced.stats,
            host_wall_ns: host_start.elapsed().as_nanos() as u64,
            step_rows: priced.step_rows,
        })
    }

    /// Execute a compiled plan.
    ///
    /// Every run is accounted against fresh transient state (empty staging
    /// memories, idle ports), so a long-lived machine schedules a plan
    /// exactly as a freshly built one would; only disk contents (base
    /// relations and `store(...)` write-backs) persist across runs.
    pub fn run_plan(&mut self, plan: &Plan) -> Result<RunOutcome> {
        let _run_span = telemetry::span("machine.run");
        let host_start = std::time::Instant::now();
        let (records, values) = self.execute_steps(plan);
        let accounted = {
            let _sp = telemetry::span("machine.account");
            self.account(plan, &records)?
        };
        self.finish(plan, accounted, &values, host_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_core::JoinSpec;
    use systolic_relation::gen::synth_schema;
    use systolic_relation::{Row, Rows};

    fn rel(rows: Vec<Row>) -> MultiRelation {
        MultiRelation::new(synth_schema(rows[0].len()), rows).unwrap()
    }

    fn seq(range: std::ops::Range<i64>) -> MultiRelation {
        rel(range.map(|i| vec![i, i]).collect())
    }

    #[test]
    fn single_operation_transaction() {
        let mut sys = System::default_machine();
        sys.load_base("a", seq(0..10));
        sys.load_base("b", seq(5..15));
        let out = sys
            .run(&Expr::scan("a").intersect(Expr::scan("b")))
            .unwrap();
        assert_eq!(out.result.len(), 5);
        assert!(out.stats.makespan_ns > 0);
        assert!(out.stats.bytes_from_disk > 0);
        assert!(out.stats.total_pulses > 0);
    }

    #[test]
    fn multi_operator_transaction_produces_the_right_relation() {
        // ((A ∪ B) - C) with verification against direct operators.
        let mut sys = System::default_machine();
        sys.load_base("a", seq(0..8));
        sys.load_base("b", seq(4..12));
        sys.load_base("c", seq(0..2));
        let expr = Expr::scan("a")
            .union(Expr::scan("b"))
            .difference(Expr::scan("c"));
        let out = sys.run(&expr).unwrap();
        use systolic_core::ops::{self, Execution};
        let (u, _) = ops::union(&seq(0..8), &seq(4..12), Execution::Marching).unwrap();
        let (expect, _) = ops::difference(&u, &seq(0..2), Execution::Marching).unwrap();
        assert!(out.result.set_eq(&expect));
        assert_eq!(out.result.len(), 10);
    }

    #[test]
    fn independent_operations_run_concurrently() {
        // (A ∩ B) ∪ (C ∩ D): the two intersections have disjoint inputs and
        // two set-op devices exist, so they must overlap in time.
        let mut sys = System::default_machine();
        sys.load_base("a", seq(0..64));
        sys.load_base("b", seq(32..96));
        sys.load_base("c", seq(100..164));
        sys.load_base("d", seq(132..196));
        let expr = Expr::scan("a")
            .intersect(Expr::scan("b"))
            .union(Expr::scan("c").intersect(Expr::scan("d")));
        let out = sys.run(&expr).unwrap();
        assert_eq!(out.result.len(), 32 + 32);
        assert!(
            out.stats.max_device_concurrency >= 2,
            "expected overlapping intersections, got concurrency {}",
            out.stats.max_device_concurrency
        );
    }

    #[test]
    fn joins_route_to_the_join_device() {
        let mut sys = System::default_machine();
        sys.load_base("emp", rel(vec![vec![1, 10], vec![2, 20]]));
        sys.load_base("dept", rel(vec![vec![10, 100], vec![30, 300]]));
        let expr = Expr::scan("emp").join(Expr::scan("dept"), vec![JoinSpec::eq(1, 0)]);
        let out = sys.run(&expr).unwrap();
        assert_eq!(out.result.rows().to_vec(), [vec![1, 10, 100]]);
        assert!(out.timeline.events().iter().any(|e| e.resource == "join2"));
    }

    #[test]
    fn division_transaction() {
        let mut sys = System::default_machine();
        sys.load_base("takes", rel(vec![vec![1, 10], vec![1, 11], vec![2, 10]]));
        sys.load_base("courses", rel(vec![vec![10], vec![11]]));
        let expr = Expr::scan("takes").divide(Expr::scan("courses"), 0, 1, 0);
        let out = sys.run(&expr).unwrap();
        assert_eq!(out.result.rows().to_vec(), [vec![1]]);
    }

    #[test]
    fn logic_per_track_filter_reduces_staged_bytes() {
        use crate::storage::TrackFilter;
        use systolic_fabric::CompareOp;
        let mut sys = System::default_machine();
        sys.load_base("t", seq(0..100));
        let f = TrackFilter {
            col: 0,
            op: CompareOp::Lt,
            value: 10,
        };
        let expr = Expr::scan_filtered("t", f).dedup();
        let out = sys.run(&expr).unwrap();
        assert_eq!(out.result.len(), 10);
        // Only the filtered rows were staged.
        assert_eq!(out.stats.bytes_from_disk, 10 * 2 * 4);
    }

    #[test]
    fn price_plan_is_bit_identical_to_run_plan() {
        use crate::plan::push_selections;
        use crate::storage::TrackFilter;
        use systolic_core::select::Predicate;
        use systolic_fabric::CompareOp;
        let below = |value| TrackFilter {
            col: 0,
            op: CompareOp::Lt,
            value,
        };
        // One expression per shape-pure operator family, including
        // multi-step plans and filtered scans.
        let exprs: Vec<Expr> = vec![
            Expr::scan("a").intersect(Expr::scan("b")),
            Expr::scan("a").difference(Expr::scan("b")),
            Expr::scan("a")
                .union(Expr::scan("b"))
                .difference(Expr::scan("c")),
            Expr::scan("a").dedup(),
            Expr::scan("a").project(vec![1]),
            Expr::scan("a").select(vec![Predicate::new(0, CompareOp::Ge, 40)]),
            Expr::scan("a").join(Expr::scan("b"), vec![JoinSpec::eq(0, 0)]),
            Expr::scan_filtered("a", below(20)).intersect(Expr::scan("b")),
            // Both sides filtered on the disk, one of them down to nothing:
            // the delivered cardinalities come from `cards`, the transfer
            // times from the stored shapes.
            Expr::scan_filtered("b", below(40))
                .join(Expr::scan_filtered("c", below(0)), vec![JoinSpec::eq(0, 0)]),
            // Empty intermediate: a ∩ c is empty, so downstream ops
            // short-circuit — priced and run alike.
            Expr::scan("a")
                .intersect(Expr::scan("c"))
                .union(Expr::scan("b")),
        ];
        for disks in [1, 3] {
            for expr in &exprs {
                let mut sys = System::new(MachineConfig {
                    disks,
                    ..MachineConfig::default()
                })
                .unwrap();
                sys.load_base("a", seq(0..50));
                sys.load_base("b", seq(25..75));
                sys.load_base("c", seq(100..110));
                let plan = Plan::compile(&push_selections(expr.clone()));
                let ran = sys.run_plan(&plan).unwrap();
                // Pricing takes `&self`: it is repeatable on a long-lived
                // machine because it cannot change one.
                for _ in 0..2 {
                    let priced = sys.price_plan(&plan, &ran.step_rows).unwrap();
                    assert_eq!(priced.stats, ran.stats, "{expr} stats");
                    assert_eq!(priced.step_rows, ran.step_rows, "{expr} step_rows");
                    assert_eq!(
                        priced.timeline.events(),
                        ran.timeline.events(),
                        "{expr} timeline"
                    );
                }
            }
        }
    }

    #[test]
    fn price_plan_on_a_paged_system_touches_no_page() {
        use crate::storage::TrackFilter;
        use systolic_fabric::CompareOp;
        use systolic_storage::BlobStore;
        // A private metrics instance: the buffer pool's counters are exact,
        // whatever other tests do to the shared ones.
        let metrics = Arc::new(StorageMetrics::from_registry(&metrics::Registry::new()));
        let mut path = std::env::temp_dir();
        path.push(format!("sdb_price_plan_paged_{}.pg", std::process::id()));
        let store = SharedBlobStore::new(BlobStore::create(&path, 8, metrics.clone()).unwrap());
        let mut sys = System::default_machine();
        sys.attach_storage(&store);
        sys.load_base("a", seq(0..50));
        sys.load_base("b", seq(25..75));
        let filter = TrackFilter {
            col: 0,
            op: CompareOp::Ge,
            value: 30,
        };
        let plan = Plan::compile(&Expr::scan_filtered("a", filter).intersect(Expr::scan("b")));
        let ran = sys.run_plan(&plan).unwrap();
        let touched = || metrics.pool_hits.get() + metrics.pool_misses.get();
        let before = touched();
        assert!(before > 0, "the run decoded pages through the pool");
        let priced = sys.price_plan(&plan, &ran.step_rows).unwrap();
        assert_eq!(touched(), before, "pricing fetched a page");
        assert_eq!(priced.stats, ran.stats);
        assert_eq!(priced.timeline.events(), ran.timeline.events());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn price_plan_refuses_data_dependent_steps() {
        let mut sys = System::default_machine();
        sys.load_base("takes", rel(vec![vec![1, 10], vec![1, 11], vec![2, 10]]));
        sys.load_base("courses", rel(vec![vec![10], vec![11]]));
        let divide = Plan::compile(&Expr::scan("takes").divide(Expr::scan("courses"), 0, 1, 0));
        let cards = vec![0; divide.steps.len()];
        assert!(matches!(
            sys.price_plan(&divide, &cards),
            Err(MachineError::Unpriceable { .. })
        ));
        let store = Plan::compile(&Expr::scan("takes").dedup().store("kept"));
        let cards = vec![0; store.steps.len()];
        assert!(matches!(
            sys.price_plan(&store, &cards),
            Err(MachineError::Unpriceable { .. })
        ));
        let wrong_len = Plan::compile(&Expr::scan("takes").dedup());
        assert!(matches!(
            sys.price_plan(&wrong_len, &[1]),
            Err(MachineError::Unpriceable { .. })
        ));
        // A filter cannot deliver more rows than the disk holds.
        let filter = crate::storage::TrackFilter {
            col: 0,
            op: systolic_fabric::CompareOp::Ge,
            value: 0,
        };
        let filtered = Plan::compile(&Expr::scan_filtered("takes", filter).dedup());
        assert!(sys.price_plan(&filtered, &[3, 3]).is_ok());
        assert!(matches!(
            sys.price_plan(&filtered, &[4, 4]),
            Err(MachineError::Unpriceable { .. })
        ));
    }

    #[test]
    fn missing_relation_is_reported() {
        let mut sys = System::default_machine();
        let err = sys.run(&Expr::scan("ghost").dedup()).unwrap_err();
        assert!(matches!(err, MachineError::UnknownRelation { .. }));
    }

    #[test]
    fn no_matching_device_is_reported() {
        let mut sys = System::new(MachineConfig {
            devices: vec![(DeviceKind::Join, ArrayLimits::new(8, 8, 4))],
            ..MachineConfig::default()
        })
        .unwrap();
        sys.load_base("a", seq(0..4));
        let err = sys.run(&Expr::scan("a").dedup()).unwrap_err();
        assert!(matches!(err, MachineError::NoDevice { .. }));
    }

    #[test]
    fn the_first_failing_step_in_plan_order_decides_the_error() {
        // Two different failures in one run: a join on a machine without a
        // join device, and a scan of a relation no disk holds. Whichever
        // comes first in step order is the error, and a failed run writes
        // nothing back.
        let build = |backend: Backend| {
            let mut sys = System::new(MachineConfig {
                devices: vec![(DeviceKind::SetOp, ArrayLimits::new(8, 8, 4))],
                backend,
                ..MachineConfig::default()
            })
            .unwrap();
            sys.load_base("a", seq(0..6));
            sys.load_base("b", seq(3..9));
            sys
        };
        let join = || Expr::scan("a").join(Expr::scan("b"), vec![JoinSpec::eq(0, 0)]);
        let ghost = || Expr::scan("ghost");
        let no_device = |e: &MachineError| matches!(e, MachineError::NoDevice { .. });
        let unknown = |e: &MachineError| match e {
            MachineError::UnknownRelation { name } => name == "ghost",
            _ => false,
        };
        for backend in [Backend::Sim, Backend::Columnar] {
            let mut sys = build(backend);
            let join_first = Plan::compile(&join().union(ghost()).store("kept"));
            let err = sys.run_plan(&join_first).unwrap_err();
            assert!(no_device(&err), "{backend:?} join first: {err:?}");
            let ghost_first = Plan::compile(&ghost().union(join()).store("kept"));
            let err = sys.run_plan(&ghost_first).unwrap_err();
            assert!(unknown(&err), "{backend:?} ghost first: {err:?}");

            // A batch puts q0's steps before q1's; q0 here is sound.
            let sound = || Expr::scan("a").dedup().store("kept");
            let err = sys
                .run_batch_accounted(&[sound(), join(), ghost().dedup()])
                .unwrap_err();
            assert!(no_device(&err), "{backend:?} batched join first: {err:?}");
            let err = sys
                .run_batch_accounted(&[sound(), ghost().dedup(), join()])
                .unwrap_err();
            assert!(unknown(&err), "{backend:?} batched ghost first: {err:?}");
            assert!(!sys.has_base("kept"), "a failed run stored a relation");
        }
    }

    #[test]
    fn dead_staged_inputs_are_evicted_under_memory_pressure() {
        use systolic_storage::StorageMetrics;
        // scan(a).dedup().union(scan(b)) compiles depth-first: by the time
        // `b` loads, the staged copy of `a` is dead (its only consumer, the
        // dedup, already ran). One module sized for exactly two 80-byte
        // relations forces the scheduler to reclaim that dead copy — before
        // eviction existed this plan failed with MemoryOverflow.
        let tight = || MachineConfig {
            memories: 1,
            memory_capacity: 160,
            ..MachineConfig::default()
        };
        let expr = Expr::scan("a").dedup().union(Expr::scan("b"));

        // Baseline: identical topology, capacity large enough to never
        // evict. Only the capacity check may differ between the two runs.
        let mut roomy = System::new(MachineConfig {
            memories: 1,
            memory_capacity: 64 << 20,
            ..MachineConfig::default()
        })
        .unwrap();
        roomy.load_base("a", seq(0..10));
        roomy.load_base("b", seq(10..20));
        let want = roomy.run(&expr).unwrap();

        let mut sys = System::new(tight()).unwrap();
        sys.load_base("a", seq(0..10));
        sys.load_base("b", seq(10..20));
        let before = StorageMetrics::shared().staging_evictions.get();
        let out = sys.run(&expr).unwrap();
        let after = StorageMetrics::shared().staging_evictions.get();
        // Eviction is a host-side bookkeeping move: results and every
        // simulated clock must match the roomy machine bit for bit.
        assert_eq!(out.result.rows(), want.result.rows());
        assert_eq!(out.stats, want.stats);
        assert!(after > before, "no staging eviction counted");
    }

    #[test]
    fn live_inputs_are_never_evicted() {
        // Same tight module, but both relations stay live until the union:
        // nothing is dead when the second load overflows, so the run must
        // still fail rather than drop a live staged input.
        let mut sys = System::new(MachineConfig {
            memories: 1,
            memory_capacity: 160,
            ..MachineConfig::default()
        })
        .unwrap();
        sys.load_base("a", seq(0..10));
        sys.load_base("b", seq(10..30));
        let err = sys
            .run(&Expr::scan("a").union(Expr::scan("b")))
            .unwrap_err();
        assert!(matches!(err, MachineError::MemoryOverflow { .. }));
    }

    #[test]
    fn empty_configuration_is_rejected() {
        assert!(matches!(
            System::new(MachineConfig {
                memories: 0,
                ..MachineConfig::default()
            }),
            Err(MachineError::EmptyConfiguration)
        ));
        assert!(matches!(
            System::new(MachineConfig {
                devices: vec![],
                ..MachineConfig::default()
            }),
            Err(MachineError::EmptyConfiguration)
        ));
    }

    #[test]
    fn runs_are_deterministic() {
        let build = || {
            let mut sys = System::default_machine();
            sys.load_base("a", seq(0..32));
            sys.load_base("b", seq(16..48));
            sys
        };
        let expr = Expr::scan("a").intersect(Expr::scan("b")).project(vec![0]);
        let o1 = build().run(&expr).unwrap();
        let o2 = build().run(&expr).unwrap();
        assert_eq!(o1.stats, o2.stats);
        assert_eq!(o1.result.rows(), o2.result.rows());
        assert_eq!(o1.timeline.events(), o2.timeline.events());
    }

    #[test]
    fn repeated_runs_on_a_long_lived_system_are_bit_identical() {
        // The property a long-running query service depends on: because
        // every run accounts against fresh transient state, the Nth run of
        // a query on one machine equals the 1st run on a fresh machine.
        let mut sys = System::default_machine();
        sys.load_base("a", seq(0..32));
        sys.load_base("b", seq(16..48));
        let expr = Expr::scan("a").intersect(Expr::scan("b")).project(vec![0]);
        let other = Expr::scan("b").dedup();
        let first = sys.run(&expr).unwrap();
        // Interleave a different query, then repeat the original.
        sys.run(&other).unwrap();
        let again = sys.run(&expr).unwrap();
        assert_eq!(first.result.rows(), again.result.rows());
        assert_eq!(first.stats, again.stats);
        assert_eq!(first.timeline.events(), again.timeline.events());
    }

    #[test]
    fn heterogeneous_device_limits_record_one_run_per_distinct_limits() {
        // Set-op and divide devices that disagree on limits: the pulses of
        // a step depend on which instance the clock history picks, so the
        // execute pass records the run under each distinct limits and
        // accounting picks. Solo, batched-then-solo and (where priceable)
        // priced schedules must all agree, under both backends.
        let build = |backend: Backend| {
            let mut sys = System::new(MachineConfig {
                devices: vec![
                    (DeviceKind::SetOp, ArrayLimits::new(8, 8, 4)),
                    (DeviceKind::SetOp, ArrayLimits::new(16, 16, 4)),
                    (DeviceKind::Join, ArrayLimits::new(8, 8, 4)),
                    (DeviceKind::Divide, ArrayLimits::new(8, 8, 4)),
                    (DeviceKind::Divide, ArrayLimits::new(3, 5, 2)),
                ],
                backend,
                ..MachineConfig::default()
            })
            .unwrap();
            sys.load_base("a", seq(0..48));
            sys.load_base("b", seq(24..72));
            let takes = (0..12).flat_map(|s| (0..=s % 4).map(move |c| vec![s, 10 + c]));
            sys.load_base("takes", rel(takes.collect()));
            sys.load_base("courses", rel((0..3).map(|c| vec![10 + c, 0]).collect()));
            sys
        };
        let set_ops = Expr::scan("a").intersect(Expr::scan("b")).project(vec![0]);
        // Two divisions in one transaction, so both divide devices run.
        let divide = || Expr::scan("takes").divide(Expr::scan("courses"), 0, 1, 0);
        let divisions = divide().union(divide().dedup());
        let same = |what: &str, got: (Rows<'_>, &RunStats, &Timeline), want: &RunOutcome| {
            assert_eq!(got.0, want.result.rows(), "{what} rows");
            assert_eq!(got.1, &want.stats, "{what} stats");
            assert_eq!(got.2.events(), want.timeline.events(), "{what} timeline");
        };
        let oracle: Vec<RunOutcome> = [&set_ops, &divisions]
            .iter()
            .map(|expr| build(Backend::Sim).run(expr).unwrap())
            .collect();
        assert_eq!(oracle[1].result.len(), 6, "students with s % 4 >= 2");
        for device in ["setop0", "setop1", "divide3", "divide4"] {
            assert!(
                oracle.iter().any(|o| o.timeline.busy_ns(device) > 0),
                "{device} never ran: the limits were not exercised"
            );
        }
        for backend in [Backend::Sim, Backend::Columnar] {
            for (expr, want) in [&set_ops, &divisions].into_iter().zip(&oracle) {
                let out = build(backend).run(expr).unwrap();
                let what = format!("{expr} {backend:?}");
                same(&what, (out.result.rows(), &out.stats, &out.timeline), want);
            }
            let batch = build(backend)
                .run_batch_accounted(&[set_ops.clone(), divisions.clone()])
                .unwrap();
            for (q, want) in batch.queries.iter().zip(&oracle) {
                let what = format!("batched {backend:?}");
                same(&what, (q.result.rows(), &q.stats, &q.timeline), want);
            }
        }
        let plan = Plan::compile(&set_ops);
        let priced = build(Backend::Sim)
            .price_plan(&plan, &oracle[0].step_rows)
            .unwrap();
        assert_eq!(priced.stats, oracle[0].stats);
        assert_eq!(priced.timeline.events(), oracle[0].timeline.events());
    }

    #[test]
    fn batch_of_transactions_runs_and_returns_per_query_results() {
        let mut sys = System::default_machine();
        sys.load_base("a", seq(0..32));
        sys.load_base("b", seq(16..48));
        sys.load_base("c", seq(100..132));
        let q0 = Expr::scan("a").intersect(Expr::scan("b"));
        let q1 = Expr::scan("a").difference(Expr::scan("b"));
        let q2 = Expr::scan("c").dedup();
        let (results, outcome) = sys.run_batch(&[q0, q1, q2]).unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].len(), 16);
        assert_eq!(results[1].len(), 16);
        assert_eq!(results[2].len(), 32);
        assert!(outcome.stats.makespan_ns > 0);
    }

    #[test]
    fn independent_batch_queries_overlap_on_devices() {
        let mut sys = System::default_machine();
        sys.load_base("a", seq(0..64));
        sys.load_base("b", seq(32..96));
        sys.load_base("c", seq(200..264));
        sys.load_base("d", seq(232..296));
        let q0 = Expr::scan("a").intersect(Expr::scan("b"));
        let q1 = Expr::scan("c").intersect(Expr::scan("d"));
        let (_, outcome) = sys.run_batch(&[q0, q1]).unwrap();
        assert!(
            outcome.stats.max_device_concurrency >= 2,
            "independent transactions should overlap, got {}",
            outcome.stats.max_device_concurrency
        );
    }

    #[test]
    fn batch_results_match_individual_runs() {
        let build = || {
            let mut sys = System::default_machine();
            sys.load_base("a", seq(0..24));
            sys.load_base("b", seq(12..36));
            sys
        };
        let q0 = Expr::scan("a").union(Expr::scan("b"));
        let q1 = Expr::scan("b").project(vec![0]);
        let (batch, _) = build().run_batch(&[q0.clone(), q1.clone()]).unwrap();
        let solo0 = build().run(&q0).unwrap().result;
        let solo1 = build().run(&q1).unwrap().result;
        assert!(batch[0].set_eq(&solo0));
        assert!(batch[1].set_eq(&solo1));
    }

    #[test]
    fn batched_accounting_is_bit_identical_to_fresh_solo_runs() {
        // The admission-scheduler contract: each QueryOutcome of a batch —
        // rows, RunStats, Timeline — equals running that query alone on a
        // freshly built machine, regardless of batch companions.
        let build = || {
            let mut sys = System::default_machine();
            sys.load_base("a", seq(0..64));
            sys.load_base("b", seq(32..96));
            sys.load_base("c", seq(200..264));
            sys
        };
        let queries = [
            Expr::scan("a").intersect(Expr::scan("b")),
            Expr::scan("c").dedup().project(vec![0]),
            Expr::scan("a").union(Expr::scan("c")),
        ];
        let batch = build().run_batch_accounted(&queries).unwrap();
        assert_eq!(batch.queries.len(), queries.len());
        for (q, expr) in batch.queries.iter().zip(&queries) {
            let solo = build().run(expr).unwrap();
            assert_eq!(q.result.rows(), solo.result.rows());
            assert_eq!(q.stats, solo.stats);
            assert_eq!(q.timeline.events(), solo.timeline.events());
        }
        assert!(batch.combined.stats.makespan_ns > 0);
    }

    #[test]
    fn batch_with_unknown_relation_fails_as_a_whole() {
        // The merged schedule aborts on the first failing step; callers that
        // want per-query error isolation fall back to solo runs.
        let mut sys = System::default_machine();
        sys.load_base("a", seq(0..8));
        let good = Expr::scan("a").dedup();
        let bad = Expr::scan("ghost").dedup();
        let err = sys.run_batch(&[good, bad]).unwrap_err();
        assert!(matches!(err, MachineError::UnknownRelation { .. }));
    }

    #[test]
    fn timeline_pulse_totals_equal_run_stats_exactly() {
        let mut sys = System::default_machine();
        sys.load_base("a", seq(0..40));
        sys.load_base("b", seq(20..60));
        sys.load_base("c", seq(0..10));
        let expr = Expr::scan("a")
            .intersect(Expr::scan("b"))
            .union(Expr::scan("c"));
        let out = sys.run(&expr).unwrap();
        assert!(out.stats.total_pulses > 0);
        assert_eq!(out.timeline.pulse_total(), out.stats.total_pulses);
        for e in out.timeline.events() {
            let device = e.resource.starts_with("setop")
                || e.resource.starts_with("join")
                || e.resource.starts_with("divide");
            if !device {
                assert_eq!(e.pulses, 0, "non-array event {e:?} must carry no pulses");
            }
        }
    }

    #[test]
    fn batch_pulse_totals_match_per_query_and_combined_stats() {
        let mut sys = System::default_machine();
        sys.load_base("a", seq(0..32));
        sys.load_base("b", seq(16..48));
        sys.load_base("c", seq(0..24));
        let batch = sys
            .run_batch_accounted(&[
                Expr::scan("a").intersect(Expr::scan("b")),
                Expr::scan("c").dedup(),
            ])
            .unwrap();
        assert_eq!(
            batch.combined.timeline.pulse_total(),
            batch.combined.stats.total_pulses
        );
        for q in &batch.queries {
            assert_eq!(q.timeline.pulse_total(), q.stats.total_pulses);
        }
        assert_eq!(
            batch.combined.stats.total_pulses,
            batch
                .queries
                .iter()
                .map(|q| q.stats.total_pulses)
                .sum::<u64>(),
            "merged schedule reuses the very same device runs"
        );
    }

    #[test]
    fn machine_spans_nest_under_the_batch() {
        // The only test in this binary that installs a span collector, so
        // the process-global collector is not contended.
        let collector = telemetry::install();
        let trace_id = {
            let root = telemetry::root_span("test.root");
            let ctx = root.ctx().unwrap();
            let mut sys = System::default_machine();
            sys.load_base("a", seq(0..16));
            sys.load_base("b", seq(8..24));
            sys.run_batch_accounted(&[
                Expr::scan("a").intersect(Expr::scan("b")),
                Expr::scan("a").dedup(),
            ])
            .unwrap();
            ctx.trace_id
        };
        let spans = collector.drain();
        telemetry::uninstall();
        let ours: Vec<_> = spans.iter().filter(|s| s.trace_id == trace_id).collect();
        let batch = ours
            .iter()
            .find(|s| s.name == "machine.batch")
            .expect("batch span recorded");
        assert_eq!(batch.arg("queries"), Some("2"));
        for phase in ["machine.plan", "machine.execute", "machine.account"] {
            let sp = ours
                .iter()
                .find(|s| s.name == phase)
                .unwrap_or_else(|| panic!("{phase} span recorded"));
            assert_eq!(sp.parent_id, Some(batch.span_id), "{phase} nests in batch");
            assert!(sp.start_ns >= batch.start_ns && sp.end_ns <= batch.end_ns);
        }
        let solos = ours
            .iter()
            .filter(|s| s.name == "machine.account_solo")
            .count();
        assert_eq!(solos, 2, "one standalone accounting per query");
    }

    #[test]
    fn gantt_chart_renders() {
        let mut sys = System::default_machine();
        sys.load_base("a", seq(0..16));
        sys.load_base("b", seq(8..24));
        let out = sys
            .run(&Expr::scan("a").intersect(Expr::scan("b")))
            .unwrap();
        let gantt = out.timeline.render_gantt(out.stats.makespan_ns / 60 + 1);
        assert!(gantt.contains("disk"));
        assert!(gantt.contains("setop0"));
    }

    #[test]
    fn multiple_disks_load_in_parallel() {
        let run_with = |disks: usize| {
            let mut sys = System::new(MachineConfig {
                disks,
                ..MachineConfig::default()
            })
            .unwrap();
            sys.load_base("a", seq(0..512));
            sys.load_base("b", seq(256..768));
            sys.run(&Expr::scan("a").intersect(Expr::scan("b")))
                .unwrap()
        };
        let one = run_with(1);
        let two = run_with(2);
        assert!(one.result.set_eq(&two.result));
        // With two disks the two loads overlap; the load phase ends sooner.
        let load_end = |o: &RunOutcome| {
            o.timeline
                .events()
                .iter()
                .filter(|e| e.resource.starts_with("disk"))
                .map(|e| e.end_ns)
                .max()
                .unwrap()
        };
        assert!(
            load_end(&two) < load_end(&one),
            "parallel loads should finish earlier: {} vs {}",
            load_end(&two),
            load_end(&one)
        );
    }

    #[test]
    fn select_expression_runs_on_a_setop_device() {
        use systolic_core::select::Predicate;
        use systolic_fabric::CompareOp;
        let mut sys = System::default_machine();
        sys.load_base("t", seq(0..50));
        let expr = Expr::scan("t").select(vec![Predicate::new(0, CompareOp::Lt, 10)]);
        let out = sys.run(&expr).unwrap();
        assert_eq!(out.result.len(), 10);
        assert!(out
            .timeline
            .events()
            .iter()
            .any(|e| e.resource.starts_with("setop") && e.label.contains("select")));
    }

    #[test]
    fn store_writes_the_result_back_to_disk() {
        let mut sys = System::default_machine();
        sys.load_base("a", seq(0..20));
        sys.load_base("b", seq(10..30));
        let expr = Expr::scan("a").intersect(Expr::scan("b")).store("a_and_b");
        let out = sys.run(&expr).unwrap();
        assert_eq!(out.result.len(), 10);
        // The written-back relation is now scannable as a base relation.
        let again = sys.run(&Expr::scan("a_and_b").dedup()).unwrap();
        assert!(again.result.set_eq(&out.result));
        // The write-back occupied a disk channel.
        assert!(out
            .timeline
            .events()
            .iter()
            .any(|e| e.resource.starts_with("disk") && e.label.contains("write a_and_b")));
    }

    /// The disks holding a relation of this name.
    fn homes(sys: &System, name: &str) -> Vec<usize> {
        (0..sys.disks.len())
            .filter(|&d| sys.disks[d].names().iter().any(|n| n == name))
            .collect()
    }

    #[test]
    fn a_newer_write_back_replaces_an_older_copy_on_another_disk() {
        let mut sys = System::new(MachineConfig {
            disks: 2,
            ..MachineConfig::default()
        })
        .unwrap();
        sys.load_base("a", seq(0..20));
        sys.load_base("b", seq(100..130));
        // `b` sits on disk 1, so the idle channel — where the first
        // write-back lands — is disk 0; for `a` it is the other way round.
        sys.run(&Expr::scan("b").dedup().store("x")).unwrap();
        assert_eq!(homes(&sys, "x"), [0]);
        sys.run(&Expr::scan("a").dedup().store("x")).unwrap();
        assert_eq!(homes(&sys, "x"), [1], "one copy, the newer one");
        let x = sys.run(&Expr::scan("x")).unwrap();
        assert_eq!(x.result.rows(), seq(0..20).rows());
    }

    #[test]
    fn reloading_a_base_relation_replaces_it_wherever_it_was() {
        let mut sys = System::new(MachineConfig {
            disks: 2,
            ..MachineConfig::default()
        })
        .unwrap();
        sys.load_base("a", seq(0..20));
        // Round-robin sends the reload to the other disk.
        sys.load_base("a", seq(0..5));
        assert_eq!(homes(&sys, "a"), [1]);
        assert_eq!(sys.run(&Expr::scan("a")).unwrap().result.len(), 5);
    }

    #[test]
    fn a_batched_store_is_written_once_to_the_disk_the_merged_schedule_charged() {
        let mut sys = System::new(MachineConfig {
            disks: 2,
            ..MachineConfig::default()
        })
        .unwrap();
        sys.load_base("a", seq(0..60));
        sys.load_base("b", seq(10..30));
        // Alone, the store query finds disk 0 idle (it only reads `b`, on
        // disk 1). Merged with a query still loading the larger `a` off
        // disk 0, the channel that frees first is disk 1: a write-back per
        // accounting pass would leave a copy on each.
        let batch = sys
            .run_batch_accounted(&[
                Expr::scan("a").dedup(),
                Expr::scan("b").dedup().store("kept"),
            ])
            .unwrap();
        let written = |timeline: &Timeline| -> Vec<String> {
            timeline
                .events()
                .iter()
                .filter(|e| e.label == "write kept")
                .map(|e| e.resource.clone())
                .collect()
        };
        assert_eq!(written(&batch.queries[1].timeline), ["disk0"]);
        assert_eq!(written(&batch.combined.timeline), ["disk1"]);
        assert_eq!(homes(&sys, "kept"), [1]);
        let kept = sys.run(&Expr::scan("kept")).unwrap();
        assert_eq!(kept.result.rows(), batch.queries[1].result.rows());
    }

    #[test]
    fn shared_bus_serialises_what_the_crossbar_overlaps() {
        let run_with = |interconnect: Interconnect| {
            let mut sys = System::new(MachineConfig {
                interconnect,
                ..MachineConfig::default()
            })
            .unwrap();
            sys.load_base("a", seq(0..64));
            sys.load_base("b", seq(32..96));
            sys.load_base("c", seq(200..264));
            sys.load_base("d", seq(232..296));
            let expr = Expr::scan("a")
                .intersect(Expr::scan("b"))
                .union(Expr::scan("c").intersect(Expr::scan("d")));
            sys.run(&expr).unwrap()
        };
        let xbar = run_with(Interconnect::Crossbar);
        let bus = run_with(Interconnect::SharedBus);
        assert!(
            xbar.result.set_eq(&bus.result),
            "interconnect cannot change results"
        );
        assert!(xbar.stats.max_device_concurrency >= 2);
        assert_eq!(
            bus.stats.max_device_concurrency, 1,
            "one bus, one transfer at a time"
        );
        assert!(bus.stats.makespan_ns > xbar.stats.makespan_ns);
    }

    #[test]
    fn resource_report_covers_every_used_resource() {
        let mut sys = System::default_machine();
        sys.load_base("a", seq(0..16));
        sys.load_base("b", seq(8..24));
        let out = sys
            .run(&Expr::scan("a").intersect(Expr::scan("b")))
            .unwrap();
        let report = out.resource_report();
        assert!(report.iter().any(|(n, _, _)| n == "disk0"));
        assert!(report.iter().any(|(n, _, _)| n == "setop0"));
        for (name, busy, frac) in &report {
            assert!(*busy > 0, "{name} appears in the timeline, so it was busy");
            assert!((0.0..=1.0).contains(frac), "{name} fraction {frac}");
        }
    }

    #[test]
    fn selection_pushdown_reduces_staged_bytes_without_changing_results() {
        use crate::plan::push_selections;
        use systolic_core::select::Predicate;
        use systolic_fabric::CompareOp;
        let query = || {
            Expr::scan("t")
                .select(vec![Predicate::new(0, CompareOp::Lt, 10)])
                .dedup()
        };
        let run = |expr: Expr| {
            let mut sys = System::default_machine();
            sys.load_base("t", seq(0..100));
            sys.run(&expr).unwrap()
        };
        let plain = run(query());
        let optimised = run(push_selections(query()));
        assert!(plain.result.set_eq(&optimised.result));
        assert!(
            optimised.stats.bytes_from_disk < plain.stats.bytes_from_disk,
            "pushdown must stage fewer bytes: {} vs {}",
            optimised.stats.bytes_from_disk,
            plain.stats.bytes_from_disk
        );
    }

    #[test]
    fn columnar_backend_runs_are_bit_identical_to_sim() {
        // The invariant at the machine layer: same result rows,
        // same RunStats, same Timeline event for event — the backend is
        // invisible to everything the paper measures.
        let build = |backend: Backend| {
            let mut sys = System::new(MachineConfig {
                backend,
                ..MachineConfig::default()
            })
            .unwrap();
            sys.load_base("a", seq(0..48));
            sys.load_base("b", seq(24..72));
            sys.load_base("takes", rel(vec![vec![1, 10], vec![1, 11], vec![2, 10]]));
            sys.load_base("courses", rel(vec![vec![10, 0], vec![11, 0]]));
            sys
        };
        let exprs = [
            Expr::scan("a")
                .intersect(Expr::scan("b"))
                .union(Expr::scan("a").difference(Expr::scan("b")))
                .project(vec![0]),
            Expr::scan("a").join(Expr::scan("b"), vec![JoinSpec::eq(0, 0)]),
            Expr::scan("takes").divide(Expr::scan("courses"), 0, 1, 0),
        ];
        for expr in &exprs {
            let sim = build(Backend::Sim).run(expr).unwrap();
            let fast = build(Backend::Columnar).run(expr).unwrap();
            assert_eq!(fast.result.rows(), sim.result.rows());
            assert_eq!(fast.stats, sim.stats);
            assert_eq!(fast.timeline.events(), sim.timeline.events());
        }
        // And batched: the merged schedule and every standalone
        // accounting.
        let queries = [exprs[0].clone(), exprs[1].clone()];
        let sim = build(Backend::Sim).run_batch_accounted(&queries).unwrap();
        let fast = build(Backend::Columnar)
            .run_batch_accounted(&queries)
            .unwrap();
        assert_eq!(fast.combined.stats, sim.combined.stats);
        assert_eq!(
            fast.combined.timeline.events(),
            sim.combined.timeline.events()
        );
        for (f, s) in fast.queries.iter().zip(&sim.queries) {
            assert_eq!(f.result.rows(), s.result.rows());
            assert_eq!(f.stats, s.stats);
            assert_eq!(f.timeline.events(), s.timeline.events());
        }
    }

    #[test]
    fn columnar_batches_over_shared_operands_are_bit_identical_to_sim() {
        use crate::storage::TrackFilter;
        use systolic_core::select::Predicate;
        use systolic_fabric::CompareOp;

        // A batch where several queries share operand relations: two
        // track-filtered loads of `emp`, two on-device selections over
        // unfiltered `emp` clones, and one selection over `dept`.
        let build = |backend: Backend| {
            let mut sys = System::new(MachineConfig {
                backend,
                ..MachineConfig::default()
            })
            .unwrap();
            let emp: Vec<Vec<i64>> = (0..60).map(|i| vec![i, i % 7]).collect();
            let dept: Vec<Vec<i64>> = (0..20).map(|i| vec![i, i % 3]).collect();
            sys.load_base("emp", rel(emp));
            sys.load_base("dept", rel(dept));
            sys
        };
        let queries = [
            Expr::scan_filtered(
                "emp",
                TrackFilter {
                    col: 0,
                    op: CompareOp::Ge,
                    value: 40,
                },
            ),
            Expr::scan_filtered(
                "emp",
                TrackFilter {
                    col: 1,
                    op: CompareOp::Lt,
                    value: 3,
                },
            ),
            Expr::scan("emp").select(vec![
                Predicate::new(0, CompareOp::Lt, 30),
                Predicate::new(1, CompareOp::Ne, 2),
            ]),
            Expr::scan("emp").select(vec![Predicate::new(1, CompareOp::Ge, 5)]),
            Expr::scan("dept").select(vec![Predicate::new(1, CompareOp::Eq, 0)]),
        ];
        let sim = build(Backend::Sim).run_batch_accounted(&queries).unwrap();
        let columnar = build(Backend::Columnar)
            .run_batch_accounted(&queries)
            .unwrap();
        assert_eq!(columnar.combined.stats, sim.combined.stats);
        assert_eq!(
            columnar.combined.timeline.events(),
            sim.combined.timeline.events()
        );
        for (c, s) in columnar.queries.iter().zip(&sim.queries) {
            assert_eq!(c.result.rows(), s.result.rows());
            assert_eq!(c.stats, s.stats);
            assert_eq!(c.timeline.events(), s.timeline.events());
        }
        // The batch was not degenerate: every query delivered rows.
        for q in &sim.queries {
            assert!(!q.result.is_empty());
        }
    }

    /// A fresh paged store in the temp dir, for `attach_storage` systems.
    fn paged_store(tag: &str) -> (SharedBlobStore, std::path::PathBuf) {
        let mut path = std::env::temp_dir();
        path.push(format!("sdb_machine_{tag}_{}.pg", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let store = SharedBlobStore::new(
            systolic_storage::BlobStore::create(&path, 8, StorageMetrics::shared()).unwrap(),
        );
        (store, path)
    }

    #[test]
    fn paged_batches_of_differently_filtered_loads_equal_their_solo_runs() {
        use crate::storage::TrackFilter;
        use systolic_fabric::CompareOp;

        // Each load of the batch decodes `emp`'s pages on its own; what a
        // query gets must not depend on who else read the relation.
        let build = |tag: &str| {
            let (store, path) = paged_store(tag);
            let mut sys = System::default_machine();
            sys.attach_storage(&store);
            let emp = |range: std::ops::Range<i64>| rel(range.map(|i| vec![i, i % 7]).collect());
            sys.load_base("emp", emp(0..300));
            sys.load_base("b", emp(100..200));
            (sys, path)
        };
        let filter = |col, op, value| TrackFilter { col, op, value };
        let queries = [
            Expr::scan_filtered("emp", filter(0, CompareOp::Ge, 250)),
            Expr::scan_filtered("emp", filter(1, CompareOp::Lt, 3)),
            Expr::scan_filtered("emp", filter(1, CompareOp::Eq, 6)).dedup(),
            Expr::scan("emp").intersect(Expr::scan("b")),
            Expr::scan_filtered("emp", filter(0, CompareOp::Lt, 150)).intersect(Expr::scan("b")),
        ];
        let (mut sys, path) = build("batch");
        let batch = sys.run_batch_accounted(&queries).unwrap();
        let _ = std::fs::remove_file(&path);
        for (k, (expr, got)) in queries.iter().zip(&batch.queries).enumerate() {
            let (mut fresh, path) = build(&format!("solo{k}"));
            let solo = fresh.run(expr).unwrap();
            let _ = std::fs::remove_file(&path);
            assert!(!solo.result.is_empty(), "{expr} is degenerate");
            assert_eq!(got.result.rows(), solo.result.rows(), "{expr} rows");
            assert_eq!(got.stats, solo.stats, "{expr} stats");
            assert_eq!(got.step_rows, solo.step_rows, "{expr} step_rows");
            assert_eq!(
                got.timeline.events(),
                solo.timeline.events(),
                "{expr} timeline"
            );
        }
    }

    #[test]
    fn two_track_filters_over_one_relation_are_two_staged_copies() {
        use crate::storage::TrackFilter;
        use systolic_fabric::CompareOp;

        // Both loads stage `a` filtered; each consumer must get its own.
        let only = |value| {
            let filter = TrackFilter {
                col: 0,
                op: CompareOp::Eq,
                value,
            };
            Expr::scan_filtered("a", filter)
        };
        for backend in [Backend::Sim, Backend::Columnar] {
            for expr in [only(1).union(only(2)), only(1).dedup().union(only(2))] {
                let mut sys = System::new(MachineConfig {
                    backend,
                    ..MachineConfig::default()
                })
                .unwrap();
                sys.load_base("a", seq(0..4));
                let out = sys.run(&expr).unwrap();
                assert_eq!(
                    out.result.rows().to_vec(),
                    [vec![1, 1], vec![2, 2]],
                    "{expr} {backend:?}"
                );
            }
        }
    }

    #[test]
    fn an_out_of_range_track_filter_is_a_typed_error_on_both_disk_kinds() {
        use crate::storage::TrackFilter;
        use systolic_core::CoreError;
        use systolic_fabric::CompareOp;
        use systolic_relation::RelationError;

        let filter = TrackFilter {
            col: 5,
            op: CompareOp::Ge,
            value: 0,
        };
        let want = MachineError::Core(CoreError::Relation(RelationError::ColumnOutOfRange {
            index: 5,
            arity: 2,
        }));
        let (store, path) = paged_store("filter_out_of_range");
        for paged in [false, true] {
            let mut sys = System::default_machine();
            if paged {
                sys.attach_storage(&store);
            }
            sys.load_base("a", seq(0..10));
            sys.load_base("none", MultiRelation::empty(synth_schema(2)));
            // Solo, and on an empty relation (the column is checked before
            // any row, as `select_with` orders it).
            for name in ["a", "none"] {
                let err = sys.run(&Expr::scan_filtered(name, filter)).unwrap_err();
                assert_eq!(err, want, "paged {paged}, relation {name}");
            }
            // Beside two healthy queries the batch fails with the same
            // typed error, and the machine goes on answering.
            let err = sys
                .run_batch_accounted(&[
                    Expr::scan("a").dedup(),
                    Expr::scan_filtered("a", filter),
                    Expr::scan("a"),
                ])
                .unwrap_err();
            assert_eq!(err, want, "paged {paged}, batched");
            let next = sys.run(&Expr::scan("a")).unwrap();
            assert_eq!(next.result.rows(), seq(0..10).rows());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn zero_disks_rejected() {
        assert!(matches!(
            System::new(MachineConfig {
                disks: 0,
                ..MachineConfig::default()
            }),
            Err(MachineError::EmptyConfiguration)
        ));
    }
}
