//! The accounting pass: list-scheduling step *shapes* onto the crossbar.
//!
//! Every cost in the paper is a function of shape — §8's array times of
//! `(n, m)` and the tile limits, §9's disk → memory → device transfers of
//! bytes = rows × arity × word — so this module never sees a row. The
//! execute pass (or [`System::price_plan`], from cardinalities alone) hands
//! it one shape record per plan step; `System::account` prices those
//! against a fresh set of resource clocks and staging budgets. The rows
//! stay where they were computed: in the execute pass's dataflow map.
//!
//! This file does not import the relation crate. That boundary — checked in
//! CI — is what keeps pricing ignorant of data.

use std::collections::HashMap;
use std::sync::Arc;

use systolic_core::{ArrayLimits, ExecStats};
use systolic_fabric::CompareOp;
use systolic_storage::ClockReplacer;
use systolic_storage::StorageMetrics;
use systolic_telemetry as telemetry;

use crate::device::Device;
use crate::error::{MachineError, Result};
use crate::plan::{Action, Plan, PlanOp};
use crate::storage::MemoryModule;
use crate::system::{record_run_metrics, Interconnect, RunStats, System};
use crate::timeline::Timeline;

/// A schedulable resource (a crossbar port or a device). Ordered disks,
/// memories, devices, bus — the order a step's timeline events come in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Res {
    Disk(usize),
    Mem(usize),
    Dev(usize),
    /// The single shared channel of a bus interconnect (unused under the
    /// crossbar, which is internally non-blocking).
    Bus,
}

/// What one plan step produced, as far as scheduling cares: the output's
/// shape and what it cost to produce. Carries no clock state, so the same
/// records can be priced under any resource-clock history — merged with a
/// batch and again standalone.
#[derive(Debug, Clone)]
pub(crate) struct StepShape {
    /// Output cardinality.
    pub rows: u64,
    /// Output arity.
    pub arity: usize,
    /// The step's own cost.
    pub cost: StepCost,
}

/// The clock-free cost of a step.
#[derive(Debug, Clone)]
pub(crate) enum StepCost {
    /// A disk read: which disk holds the relation, and the transfer time
    /// of its full stored size (the filter sits behind the head).
    Load { disk_id: usize, duration: u64 },
    /// A device run: the array statistics under each distinct
    /// [`ArrayLimits`] among the eligible devices (exactly one entry in
    /// every shipped configuration). The result rows do not depend on the
    /// tiling, the pulses do, and which device runs the step is decided by
    /// the clock history — so accounting picks the entry of the device it
    /// chose.
    Op(Vec<(ArrayLimits, ExecStats)>),
    /// A write-back of an already-staged relation: its duration depends
    /// on the disk the schedule picks, so there is nothing to precompute.
    Store,
}

/// A step's shape, or the error that stopped it. Errors surface during
/// accounting, in step order.
pub(crate) type StepRecord = Result<StepShape>;

/// A priced schedule: everything a run of the plan reports about the
/// simulated hardware, and no relation. What the accounting pass produces,
/// and all [`System::price_plan`] returns.
#[derive(Debug, Clone)]
pub struct PricedOutcome {
    /// The full schedule.
    pub timeline: Timeline,
    /// Aggregate statistics.
    pub stats: RunStats,
    /// Output cardinality per plan step, as priced (from `price_plan`: the
    /// caller's `cards` for a filtered `Load` and every `Op`, the stored
    /// row count for an unfiltered `Load`).
    pub step_rows: Vec<u64>,
    /// Host wall-clock time spent, in nanoseconds (filled in by the
    /// caller of the accounting pass).
    pub host_wall_ns: u64,
}

/// `(step, disk)` per `Store` step of an accounted plan: the disk whose
/// channel the schedule charged for the write-back.
pub(crate) type WriteBacks = Vec<(usize, usize)>;

/// Bytes occupied by `rows` tuples of `arity` words (§2.3 stores every
/// element as one integer word). Saturates: a size no memory can hold is
/// reported as an overflow of the module, not of the multiplication.
fn shape_bytes(rows: u64, arity: usize, bytes_per_word: u64) -> u64 {
    rows.saturating_mul(arity as u64)
        .saturating_mul(bytes_per_word)
}

/// Per-run scheduler state: staging budgets, port clocks and placement.
///
/// Every accounting pass starts from a fresh `Transient`, so a long-lived
/// [`System`] schedules each run exactly as a freshly built machine would —
/// only disk contents (base relations and `store(...)` write-backs) persist
/// across runs.
struct Transient {
    memories: Vec<MemoryModule>,
    bytes_per_word: u64,
    free_at: HashMap<Res, u64>,
    placement: HashMap<String, usize>,
    placement_rr: usize,
    /// Remaining *future* uses per staged name (op inputs, store inputs and
    /// the final result fetch). A name at zero is dead data a full memory
    /// may reclaim.
    uses: HashMap<String, usize>,
    /// Staging replacement policy — the same [`ClockReplacer`] that
    /// drives the buffer pool, here keyed by staged-relation name.
    replacer: ClockReplacer<String>,
    storage_metrics: Arc<StorageMetrics>,
}

impl Transient {
    /// Pick a module with room for `bytes`, preferring the module whose
    /// port frees earliest (so independent operations land on distinct
    /// ports — which is what makes concurrent operation possible), then the
    /// emptiest, breaking remaining ties round-robin.
    ///
    /// When no module has room, staged relations with no remaining uses
    /// are evicted — in replacement-policy order — until one does. Runs
    /// that fit without eviction schedule exactly as before (the eviction
    /// path only runs where the machine previously failed with
    /// [`MachineError::MemoryOverflow`]). Dropping a dead staged copy frees
    /// buffer space without any data movement, so it costs nothing on the
    /// simulated clocks.
    fn choose_memory(&mut self, bytes: u64) -> Result<usize> {
        loop {
            if let Some(id) = self.try_choose(bytes) {
                return Ok(id);
            }
            if !self.evict_one_dead() {
                return Err(MachineError::MemoryOverflow {
                    module: self.placement_rr,
                    requested: bytes,
                    available: self.memories.iter().map(|m| m.free()).max().unwrap_or(0),
                });
            }
        }
    }

    fn try_choose(&mut self, bytes: u64) -> Option<usize> {
        let n = self.memories.len();
        let start = self.placement_rr;
        let mut best: Option<(u64, u64, usize)> = None; // (port_free_at, -free, id)
        for k in 0..n {
            let id = (start + k) % n;
            if self.memories[id].free() < bytes {
                continue;
            }
            let port = self.free_at.get(&Res::Mem(id)).copied().unwrap_or(0);
            let key = (port, u64::MAX - self.memories[id].free());
            if best.is_none_or(|(p, f, _)| key < (p, f)) {
                best = Some((key.0, key.1, id));
            }
        }
        let (_, _, id) = best?;
        self.placement_rr = (id + 1) % n;
        Some(id)
    }

    /// Reclaim one dead staged relation, policy order. Victims that still
    /// have uses ahead are skipped (and re-tracked). Returns whether any
    /// bytes were freed.
    fn evict_one_dead(&mut self) -> bool {
        let mut skipped: Vec<String> = Vec::new();
        let mut freed = false;
        while let Some(name) = self.replacer.victim() {
            if self.uses.get(&name).copied().unwrap_or(0) > 0 {
                skipped.push(name);
                continue;
            }
            if let Some(home) = self.placement.remove(&name) {
                if self.memories[home].evict(&name).is_some() {
                    self.storage_metrics.staging_evictions.inc();
                    freed = true;
                    break;
                }
            }
        }
        for name in skipped {
            self.replacer.record_access(&name);
        }
        freed
    }

    /// Stage a relation of the given shape into `target`, tracking it for
    /// replacement.
    fn stage(&mut self, target: usize, name: &str, rows: u64, arity: usize) -> Result<()> {
        let bytes = shape_bytes(rows, arity, self.bytes_per_word);
        self.memories[target].store(name.to_string(), bytes)?;
        self.placement.insert(name.to_string(), target);
        self.replacer.record_access(&name.to_string());
        Ok(())
    }

    /// Note that one pending use of `name` has happened.
    fn consume(&mut self, name: &str) {
        if let Some(n) = self.uses.get_mut(name) {
            *n = n.saturating_sub(1);
        }
    }

    /// Touch a staged relation, returning the module that holds it.
    fn fetch(&mut self, name: &str) -> Result<usize> {
        let &home = self
            .placement
            .get(name)
            .ok_or_else(|| MachineError::UnknownRelation {
                name: name.to_string(),
            })?;
        self.replacer.record_access(&name.to_string());
        Ok(home)
    }

    /// Claim `resources` from the later of `ready` and the moment they are
    /// all free, for `duration`. Returns the busy interval.
    fn occupy(&mut self, resources: &[Res], ready: u64, duration: u64) -> (u64, u64) {
        let start = resources
            .iter()
            .map(|r| self.free_at.get(r).copied().unwrap_or(0))
            .max()
            .unwrap_or(0)
            .max(ready);
        let end = start + duration;
        for r in resources {
            self.free_at.insert(*r, end);
        }
        (start, end)
    }
}

impl System {
    /// Fresh per-run scheduler state mirroring this machine's memory shape.
    fn transient(&self) -> Transient {
        Transient {
            memories: (0..self.memories)
                .map(|id| MemoryModule::new(id, self.memory_capacity))
                .collect(),
            bytes_per_word: self.bytes_per_word,
            free_at: HashMap::new(),
            placement: HashMap::new(),
            placement_rr: 0,
            uses: HashMap::new(),
            replacer: ClockReplacer::new(),
            storage_metrics: self.storage_metrics.clone(),
        }
    }

    /// The devices a step's run must be recorded on: the first eligible
    /// device of each distinct [`ArrayLimits`], in device order. Empty when
    /// no device can execute `op`.
    pub(crate) fn runners(&self, op: &PlanOp) -> Vec<&Device> {
        let mut runners: Vec<&Device> = Vec::new();
        for device in self.devices.iter().filter(|d| d.can_execute(op)) {
            if runners.iter().all(|r| r.limits != device.limits) {
                runners.push(device);
            }
        }
        runners
    }

    /// The accounting pass: walk the plan in step order, allocate memory
    /// ports and devices under the deterministic list-scheduling policy,
    /// and price each step's record against fresh resource clocks.
    /// `records` must be positionally aligned with `plan.steps`. Touches no
    /// data and no disk: write-backs are returned for the caller to apply.
    pub(crate) fn account(
        &self,
        plan: &Plan,
        records: &[StepRecord],
    ) -> Result<(PricedOutcome, WriteBacks)> {
        let mut t = self.transient();
        let mut timeline = Timeline::default();
        let mut step_end: Vec<u64> = vec![0; plan.steps.len()];
        let mut step_rows: Vec<u64> = vec![0; plan.steps.len()];
        let mut stats = RunStats::default();
        let mut write_backs = Vec::new();
        let bus = (self.interconnect == Interconnect::SharedBus).then_some(Res::Bus);

        // Pending-use counts drive staging eviction: a staged name whose
        // count hits zero is dead and may be reclaimed under memory
        // pressure. The final result fetch counts as a use.
        for step in &plan.steps {
            let consumed = match &step.action {
                Action::Op { inputs, .. } => inputs.as_slice(),
                Action::Store { input, .. } => std::slice::from_ref(input),
                Action::Load { .. } => &[],
            };
            for n in consumed {
                *t.uses.entry(n.clone()).or_insert(0) += 1;
            }
        }
        *t.uses.entry(plan.result_name().to_string()).or_insert(0) += 1;

        for step in &plan.steps {
            let ready = step.deps.iter().map(|&d| step_end[d]).max().unwrap_or(0);
            let record = || records[step.id].as_ref().map_err(Clone::clone);
            match &step.action {
                Action::Load { relation, .. } => {
                    let shape = record()?;
                    let StepCost::Load { disk_id, duration } = shape.cost else {
                        unreachable!("load step paired with a load record")
                    };
                    let bytes =
                        shape_bytes(shape.rows, shape.arity, self.disks[disk_id].bytes_per_word);
                    let target = t.choose_memory(bytes)?;
                    let mut resources = vec![Res::Disk(disk_id), Res::Mem(target)];
                    resources.extend(bus);
                    let (start, end) = t.occupy(&resources, ready, duration);
                    t.stage(target, &step.output, shape.rows, shape.arity)?;
                    step_rows[step.id] = shape.rows;
                    stats.bytes_from_disk += bytes;
                    timeline.push(
                        start,
                        end,
                        format!("disk{disk_id}"),
                        format!("read {relation}"),
                    );
                    timeline.push(
                        start,
                        end,
                        format!("mem{target}"),
                        format!("receive {}", step.output),
                    );
                    step_end[step.id] = end;
                }
                Action::Op { op, inputs } => {
                    // Same error order as a purely sequential walk: staged
                    // inputs first, then device eligibility, then the run.
                    // Memory ports are charged for the inputs' homes as of
                    // this step, captured before any eviction can reclaim a
                    // now-dead input while placing the output.
                    let input_ports: Vec<usize> =
                        inputs.iter().map(|n| t.fetch(n)).collect::<Result<_>>()?;
                    for n in inputs {
                        t.consume(n);
                    }
                    // Pick the matching device that frees earliest.
                    let device = self
                        .devices
                        .iter()
                        .filter(|d| d.can_execute(op))
                        .min_by_key(|d| t.free_at.get(&Res::Dev(d.id)).copied().unwrap_or(0))
                        .ok_or_else(|| MachineError::NoDevice { kind: op.label() })?;
                    let shape = record()?;
                    let StepCost::Op(runs) = &shape.cost else {
                        unreachable!("op step paired with an op record")
                    };
                    let run_stats = runs
                        .iter()
                        .find(|(limits, _)| *limits == device.limits)
                        .map(|(_, stats)| *stats)
                        .expect("a run is recorded for every distinct limits");
                    let duration = device.run_ns(&run_stats).max(1);
                    let out_bytes =
                        shape_bytes(shape.rows, shape.arity, self.disks[0].bytes_per_word);
                    let target = t.choose_memory(out_bytes)?;
                    let mut resources = vec![Res::Dev(device.id), Res::Mem(target)];
                    resources.extend(input_ports.into_iter().map(Res::Mem));
                    resources.extend(bus);
                    resources.sort();
                    resources.dedup();
                    let (start, end) = t.occupy(&resources, ready, duration);
                    step_rows[step.id] = shape.rows;
                    t.stage(target, &step.output, shape.rows, shape.arity)?;
                    stats.total_pulses += run_stats.pulses;
                    stats.array_runs += run_stats.array_runs;
                    timeline.push_pulsed(
                        start,
                        end,
                        device.name.clone(),
                        format!("{} -> {}", op.label(), step.output),
                        run_stats.pulses,
                    );
                    for r in &resources {
                        if let Res::Mem(i) = r {
                            timeline.push(
                                start,
                                end,
                                format!("mem{i}"),
                                format!("port busy: {}", op.label()),
                            );
                        }
                    }
                    step_end[step.id] = end;
                }
                Action::Store { input, as_name } => {
                    let input_port = t.fetch(input)?;
                    t.consume(input);
                    let shape = record()?;
                    step_rows[step.id] = shape.rows;
                    let bytes = shape_bytes(shape.rows, shape.arity, self.disks[0].bytes_per_word);
                    // Write back to the least-recently-used disk channel.
                    let disk_id = (0..self.disks.len())
                        .min_by_key(|d| t.free_at.get(&Res::Disk(*d)).copied().unwrap_or(0))
                        .unwrap_or(0);
                    let duration = self.disks[disk_id].transfer_ns(bytes).max(1);
                    let mut resources = vec![Res::Disk(disk_id), Res::Mem(input_port)];
                    resources.extend(bus);
                    let (start, end) = t.occupy(&resources, ready, duration);
                    write_backs.push((step.id, disk_id));
                    timeline.push(
                        start,
                        end,
                        format!("disk{disk_id}"),
                        format!("write {as_name}"),
                    );
                    timeline.push(
                        start,
                        end,
                        format!("mem{input_port}"),
                        format!("drain {input}"),
                    );
                    step_end[step.id] = end;
                }
            }
        }

        t.fetch(plan.result_name())?;
        stats.makespan_ns = timeline.makespan_ns();
        stats.max_device_concurrency = timeline.max_concurrency(|r| {
            r.starts_with("setop") || r.starts_with("join") || r.starts_with("divide")
        });
        let priced = PricedOutcome {
            timeline,
            stats,
            step_rows,
            host_wall_ns: 0,
        };
        Ok((priced, write_backs))
    }

    /// Price a compiled plan from per-step output cardinalities alone,
    /// without running it. `cards[i]` is the output cardinality of
    /// `plan.steps[i]` as observed by whoever actually ran the data (a
    /// run's [`RunOutcome::step_rows`](crate::RunOutcome::step_rows)).
    ///
    /// Takes `&self` and touches no data: a `Load` is sized from the
    /// `(rows, arity)` its disk recorded when the relation was written (no
    /// row is read, no page decoded, no track filter evaluated — a filtered
    /// load delivers `cards[i]` rows), an `Op` is charged [`Device::price`]
    /// over its inputs' shapes, and the records go through the very
    /// accounting pass a run uses. Because every shape-pure operator's
    /// [`ExecStats`] is a function of input shape only, the returned
    /// `stats`, `timeline` and `step_rows` are bit-identical to
    /// [`System::run_plan`] on the same machine whenever `cards` matches
    /// what that run would produce.
    ///
    /// Refused with [`MachineError::Unpriceable`]: plans containing
    /// `store(...)` (pricing must not write) or division (its second array
    /// pass depends on how many dividend pairs hit the divisor, which no
    /// shape predicts), a `cards` of the wrong length, and a filtered load
    /// said to deliver more rows than are stored.
    pub fn price_plan(&self, plan: &Plan, cards: &[u64]) -> Result<PricedOutcome> {
        let _run_span = telemetry::span("machine.price");
        let host_start = std::time::Instant::now();
        if cards.len() != plan.steps.len() {
            return Err(MachineError::Unpriceable {
                step: format!(
                    "plan of {} steps given {} cardinalities",
                    plan.steps.len(),
                    cards.len()
                ),
            });
        }
        // Output shape per step output name, for pricing downstream ops.
        let mut shapes: HashMap<&str, (usize, usize)> = HashMap::new();
        let mut records: Vec<StepRecord> = Vec::with_capacity(plan.steps.len());
        for step in &plan.steps {
            // A step downstream of a failed load is never reached: the
            // accounting pass surfaces the load's error first.
            let mut record = Err(MachineError::UnknownRelation {
                name: step.output.clone(),
            });
            match &step.action {
                Action::Load { relation, filter } => {
                    record = self
                        .base_shape(relation)
                        .and_then(|(disk_id, stored, arity)| {
                            let rows = if filter.is_some() {
                                cards[step.id]
                            } else {
                                stored
                            };
                            if rows > stored {
                                return Err(MachineError::Unpriceable {
                                    step: format!(
                                        "filtered load of {stored} rows delivering {rows}"
                                    ),
                                });
                            }
                            let disk = &self.disks[disk_id];
                            let duration =
                                disk.transfer_ns(shape_bytes(stored, arity, disk.bytes_per_word));
                            Ok(StepShape {
                                rows,
                                arity,
                                cost: StepCost::Load { disk_id, duration },
                            })
                        });
                }
                Action::Op { op, inputs } => {
                    let staged: Option<Vec<(usize, usize)>> = inputs
                        .iter()
                        .map(|n| shapes.get(n.as_str()).copied())
                        .collect();
                    if let Some(staged) = staged {
                        let arity = match op {
                            PlanOp::Intersect
                            | PlanOp::Difference
                            | PlanOp::Union
                            | PlanOp::Dedup
                            | PlanOp::Select(_) => staged[0].1,
                            PlanOp::Project(cols) => cols.len(),
                            PlanOp::Join(specs) => {
                                let pure_equi = specs.iter().all(|s| s.op == CompareOp::Eq);
                                let dropped = if pure_equi { specs.len() } else { 0 };
                                staged[0].1 + staged[1].1 - dropped
                            }
                            PlanOp::DivideBinary { .. } => {
                                return Err(MachineError::Unpriceable { step: op.label() })
                            }
                        };
                        let runners = self.runners(op);
                        if runners.is_empty() {
                            return Err(MachineError::NoDevice { kind: op.label() });
                        }
                        let runs = runners
                            .iter()
                            .map(|d| Ok((d.limits, d.price(op, &staged)?)))
                            .collect::<Result<_>>()?;
                        record = Ok(StepShape {
                            rows: cards[step.id],
                            arity,
                            cost: StepCost::Op(runs),
                        });
                    }
                }
                Action::Store { .. } => {
                    return Err(MachineError::Unpriceable {
                        step: "store".into(),
                    })
                }
            }
            if let Ok(shape) = &record {
                shapes.insert(step.output.as_str(), (shape.rows as usize, shape.arity));
            }
            records.push(record);
        }
        let (mut priced, _) = self.account(plan, &records)?;
        priced.host_wall_ns = host_start.elapsed().as_nanos() as u64;
        record_run_metrics(&priced.stats);
        Ok(priced)
    }
}
