//! # systolic-analyzer
//!
//! Static plan/schedule analysis for the Kung & Lehman (SIGMOD 1980)
//! machine: verify a query *before* it touches the fabric.
//!
//! The paper states its correctness conditions statically — §2.3 integer
//! domain encoding, §2.4 union-compatibility, §6 join-column typing, §7's
//! divisor-is-a-subset rule, §8's tiling decomposition that must cover the
//! full |A|×|B| result matrix exactly once — so they can all be checked
//! from the expression tree, the catalog and the machine configuration
//! without spending a single simulated pulse. [`analyze`] runs the passes:
//!
//! 1. **Schema inference** over the expression in pre-order: unknown
//!    relations ([`Code::UnknownRelation`]), out-of-range columns
//!    ([`Code::ColumnOutOfRange`]), union-compatibility of set-operation
//!    operands ([`Code::UnionIncompatible`]).
//! 2. **Domain/predicate typing** (§2.3/§6): predicate constants and
//!    comparison operators meaningless for a column's domain kind, and join
//!    columns drawn from different domains ([`Code::DomainMismatch`]);
//!    division columns violating §7 ([`Code::DivisorNotSubset`]).
//! 3. **Tiling-coverage proof** (§8): for every eligible device,
//!    [`prove_tiling`] shows algebraically — with the same `div_ceil` /
//!    `step_by` arithmetic `t_matrix_tiled*` executes — that the tile
//!    sequence covers the result matrix exactly once; degenerate
//!    [`ArrayLimits`] (representable because its fields are public) fail
//!    with [`Code::TilingUncovered`] instead of panicking mid-run.
//! 4. **Capacity proof**: a sound over-approximation of staged bytes (every
//!    load and operator output, worst case, summed) against one memory
//!    module; operators with no device of the required kind are also
//!    capacity failures ([`Code::CapacityExceeded`]).
//! 5. **Write-back hygiene**: duplicate or shadowing `store` targets
//!    ([`Code::ShadowedLoad`]).
//!
//! An accepted plan comes back as a typed [`Analysis`] — inferred schema
//! and worst-case cardinality per node, plus the array runs and pulses the
//! machine's own pricing ([`systolic_machine::price_op`]) charges within
//! those bounds: exact when the bounds are, an upper bound otherwise. The
//! capacity bound is sound in both directions for solo runs: an accepted
//! plan cannot overflow machine memory (nothing is freed mid-run, and the
//! total bound fits one module, so every module always has room), and any
//! run that would overflow was flagged. The soundness harness in the
//! workspace test-suite property-checks both bounds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diag;

pub use diag::{Code, Diagnostic};

use std::collections::BTreeMap;
use std::sync::Arc;

use diag::json_str;
use systolic_core::select::Predicate;
use systolic_core::{ArrayLimits, JoinSpec};
use systolic_fabric::CompareOp;
use systolic_machine::{price_op, price_op_max, DeviceKind, Expr, MachineConfig, PlanOp};
use systolic_relation::{DomainId, DomainKind};

/// One inferred column: its underlying domain identity (what
/// union-compatibility compares) and the domain's kind (what predicate
/// typing checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnInfo {
    /// Domain identity (§2.4: compatibility is *domain* equality).
    pub domain: DomainId,
    /// The domain's kind (§2.3 encoding class).
    pub kind: DomainKind,
}

/// What the analyzer knows about one base relation.
#[derive(Debug, Clone)]
pub struct TableInfo {
    /// Per-column domain info, in column order. Shared: a catalog that
    /// interns its schemas hands every table of one shape the same slice.
    pub columns: Arc<[ColumnInfo]>,
    /// Exact row count at registration time.
    pub rows: u64,
}

/// The catalog as the analyzer sees it: base relation names mapped to
/// their column domains and row counts. Built by callers from their
/// catalog/store (the analyzer does not touch relation data).
///
/// The analyzer (and the planner) read a view only through
/// [`CatalogView::table`] and [`CatalogView::has`], on names the query
/// itself contains — so a result depends on the entries for those names
/// alone, never on the rest of the catalog.
#[derive(Debug, Clone, Default)]
pub struct CatalogView {
    tables: BTreeMap<String, TableInfo>,
}

impl CatalogView {
    /// An empty view.
    pub fn new() -> Self {
        CatalogView::default()
    }

    /// Register a table (a re-registered name is overwritten).
    pub fn add_table(
        &mut self,
        name: impl Into<String>,
        columns: impl Into<Arc<[ColumnInfo]>>,
        rows: u64,
    ) {
        let columns = columns.into();
        self.tables.insert(name.into(), TableInfo { columns, rows });
    }

    /// Forget a table, if registered.
    pub fn remove_table(&mut self, name: &str) {
        self.tables.remove(name);
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Option<&TableInfo> {
        self.tables.get(name)
    }

    /// Whether a table with this name exists.
    pub fn has(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Iterate the registered tables in name order (deterministic — the
    /// view is a `BTreeMap`), for catalog fingerprinting and introspection.
    pub fn tables(&self) -> impl Iterator<Item = (&str, &TableInfo)> {
        self.tables.iter().map(|(n, t)| (n.as_str(), t))
    }
}

/// Prove, algebraically, that the §8 decomposition covers the full
/// `n_a × n_b × m` problem exactly once on an array bounded by `limits` —
/// the same `(0..n).step_by(limit)` arithmetic `t_matrix_tiled` and
/// `t_matrix_tiled_pipelined` execute, checked without running them.
/// Degenerate limits (a zero bound, representable because [`ArrayLimits`]
/// fields are public and bypass `ArrayLimits::new`'s assertion) fail here
/// instead of panicking inside the runtime's `step_by(0)`. (How many tiles
/// run is the machine's to price: `ExecStats::array_runs`. A tile whose
/// seed is all FALSE is covered too: the tiler places it on the host.)
pub fn prove_tiling(n_a: u64, n_b: u64, m: u64, limits: ArrayLimits) -> Result<(), String> {
    for (axis, bound) in [
        ("max_a", limits.max_a),
        ("max_b", limits.max_b),
        ("max_cols", limits.max_cols),
    ] {
        if bound == 0 {
            return Err(format!(
                "{axis} = 0: the §8 tile loop `(0..n).step_by({axis})` never advances, \
                 so no tile sequence covers the result matrix T"
            ));
        }
    }
    if m == 0 {
        return Err("tuple width 0: there is no comparison column to cover".into());
    }
    axis_cover(n_a, limits.max_a as u64, "A")?;
    axis_cover(n_b, limits.max_b as u64, "B")?;
    axis_cover(m, limits.max_cols as u64, "columns")
}

/// Coverage proof along one axis: tile `k` spans
/// `[k*step, min((k+1)*step, n))`, so the tiles are pairwise disjoint and
/// contiguous by construction; exact cover of `[0, n)` then reduces to the
/// last tile being non-empty and reaching `n`.
fn axis_cover(n: u64, step: u64, axis: &str) -> Result<(), String> {
    if n == 0 {
        return Ok(());
    }
    let tiles = n.div_ceil(step);
    let last_start = (tiles - 1).saturating_mul(step);
    if !(last_start < n && n <= tiles.saturating_mul(step)) {
        return Err(format!(
            "axis {axis}: {tiles} tiles of width {step} do not cover [0, {n})"
        ));
    }
    Ok(())
}

/// Inferred facts about one expression node, in pre-order.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Short operator label.
    pub label: String,
    /// Byte span in the query source, when parsed from text.
    pub span: Option<(usize, usize)>,
    /// Inferred output schema.
    pub columns: Vec<ColumnInfo>,
    /// Worst-case output cardinality (rows).
    pub rows_bound: u64,
    /// Predicted array runs (§8 tiles), priced like
    /// [`NodeReport::pulse_budget`] (0 for loads/stores).
    pub tiles: u64,
    /// Predicted pulses: the machine's price for the node on the eligible
    /// device that charges most — at its inputs' rows when they are
    /// unfiltered scans, else the most any rows within the bounds cost
    /// ([`systolic_machine::price_op_max`]); 0 for loads/stores.
    pub pulse_budget: u64,
}

/// The typed summary of an accepted plan.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Per-node reports in pre-order; `nodes[0]` is the root.
    pub nodes: Vec<NodeReport>,
    /// Sound upper bound on bytes staged in machine memory over the whole
    /// run (every load and operator output, worst case).
    pub staged_bytes_bound: u64,
    /// Total predicted array runs across operator nodes.
    pub tiles: u64,
    /// Total predicted pulses across operator nodes: a sound bound on what
    /// the machine charges, and exactly that when the row bounds are exact,
    /// the plan has no division and each device kind has one `ArrayLimits`.
    pub pulse_budget: u64,
}

impl Analysis {
    /// Human-readable multi-line summary (what `sdb check` prints).
    pub fn render(&self) -> String {
        let mut out = format!(
            "plan accepted: {} nodes, <= {} bytes staged, {} tiles, {} pulses predicted\n",
            self.nodes.len(),
            self.staged_bytes_bound,
            self.tiles,
            self.pulse_budget
        );
        for (k, node) in self.nodes.iter().enumerate() {
            let kinds: Vec<&str> = node.columns.iter().map(|c| c.kind.name()).collect();
            out.push_str(&format!(
                "  #{k} {} :: ({}) <= {} rows",
                node.label,
                kinds.join(", "),
                node.rows_bound
            ));
            if node.tiles > 0 {
                out.push_str(&format!(
                    ", {} tiles, {} pulses",
                    node.tiles, node.pulse_budget
                ));
            }
            out.push('\n');
        }
        out
    }

    /// JSON rendering for `sdb check --json`.
    pub fn json(&self) -> String {
        let mut out = String::from("{\"accepted\": true");
        out.push_str(&format!(
            ", \"staged_bytes_bound\": {}, \"tiles\": {}, \"pulse_budget\": {}",
            self.staged_bytes_bound, self.tiles, self.pulse_budget
        ));
        out.push_str(", \"nodes\": [");
        for (k, node) in self.nodes.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{{\"label\": {}", json_str(&node.label)));
            if let Some((start, end)) = node.span {
                out.push_str(&format!(", \"start\": {start}, \"end\": {end}"));
            }
            let kinds: Vec<String> = node
                .columns
                .iter()
                .map(|c| json_str(c.kind.name()))
                .collect();
            out.push_str(&format!(", \"columns\": [{}]", kinds.join(", ")));
            out.push_str(&format!(
                ", \"rows_bound\": {}, \"tiles\": {}, \"pulse_budget\": {}}}",
                node.rows_bound, node.tiles, node.pulse_budget
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Render a rejection as JSON for `sdb check --json`.
pub fn diagnostics_json(diags: &[Diagnostic]) -> String {
    let items: Vec<String> = diags.iter().map(Diagnostic::json).collect();
    format!(
        "{{\"accepted\": false, \"diagnostics\": [{}]}}",
        items.join(", ")
    )
}

struct Walker<'a> {
    view: &'a CatalogView,
    machine: &'a MachineConfig,
    spans: &'a [(usize, usize)],
    next: usize,
    diags: Vec<Diagnostic>,
    nodes: Vec<NodeReport>,
    /// Deduped loads, mirroring `Plan::compile`'s shared-scan rule.
    loads: Vec<(String, Option<systolic_machine::TrackFilter>, u64)>,
    /// Names scanned anywhere in the expression.
    scanned: Vec<String>,
    /// Store targets with their node spans, in source order.
    stores: Vec<(String, Option<(usize, usize)>)>,
    op_bytes: u64,
    /// Operator nodes to price once the plan is accepted.
    ops: Vec<PendingOp>,
}

/// An operator node awaiting its price.
struct PendingOp {
    /// Pre-order node index.
    node: usize,
    /// The machine operator the node compiles to.
    op: PlanOp,
    /// Its inputs' `(rows bound, arity)`, in `Device::execute` order.
    shapes: Vec<(usize, usize)>,
    /// Whether every input delivers exactly its bound.
    exact: bool,
}

/// Whether `expr` delivers exactly its row bound: an unfiltered scan.
fn exact_rows(expr: &Expr) -> bool {
    matches!(expr, Expr::Scan { filter: None, .. })
}

impl Walker<'_> {
    fn diag(&mut self, code: Code, message: String, span: Option<(usize, usize)>) {
        self.diags.push(Diagnostic::new(code, message, span));
    }

    /// A predicate-shaped check shared by `filter` predicates and
    /// logic-per-track scan filters.
    fn check_predicate(
        &mut self,
        cols: &[ColumnInfo],
        col: usize,
        op: CompareOp,
        value: i64,
        span: Option<(usize, usize)>,
        what: &str,
    ) {
        let Some(info) = cols.get(col) else {
            self.diag(
                Code::ColumnOutOfRange,
                format!(
                    "{what} tests column c{col}, but the operand has arity {}",
                    cols.len()
                ),
                span,
            );
            return;
        };
        match info.kind {
            DomainKind::Bool if value != 0 && value != 1 => self.diag(
                Code::DomainMismatch,
                format!(
                    "{what} compares boolean column c{col} against {value}; §2.3 encodes \
                     booleans as 0/1, so the comparison can never select meaningfully"
                ),
                span,
            ),
            DomainKind::Str
                if matches!(
                    op,
                    CompareOp::Lt | CompareOp::Le | CompareOp::Gt | CompareOp::Ge
                ) =>
            {
                self.diag(
                    Code::DomainMismatch,
                    format!(
                        "{what} orders string column c{col} with {op}; §2.3 dictionary \
                         codes are assigned by interning order, so ordering them is \
                         meaningless (use = or !=)"
                    ),
                    span,
                )
            }
            _ => {}
        }
    }

    /// Device eligibility and the §8 tiling proof of one `(n_a, n_b, m)`
    /// pass: coverage must hold on *every* device of `kind` the scheduler
    /// might pick.
    fn prove(
        &mut self,
        kind: DeviceKind,
        (n_a, n_b, m): (u64, u64, u64),
        span: Option<(usize, usize)>,
    ) {
        let mut checked: Vec<ArrayLimits> = Vec::new();
        for &(k, limits) in &self.machine.devices {
            if k != kind || checked.contains(&limits) {
                continue;
            }
            checked.push(limits);
            if let Err(why) = prove_tiling(n_a, n_b, m, limits) {
                self.diag(
                    Code::TilingUncovered,
                    format!(
                        "{kind:?} device (max_a {}, max_b {}, max_cols {}): {why}",
                        limits.max_a, limits.max_b, limits.max_cols
                    ),
                    span,
                );
            }
        }
        if checked.is_empty() {
            self.diag(
                Code::CapacityExceeded,
                format!("no {kind:?} device is configured, so this operator cannot be placed"),
                span,
            );
        }
    }

    /// [`Walker::prove`] `op`'s device pass, and queue the node for pricing
    /// over its inputs' `(rows bound, arity)`.
    fn device_check(
        &mut self,
        node: usize,
        op: PlanOp,
        pass: (u64, u64, u64),
        inputs: &[(u64, usize)],
        exact: bool,
        span: Option<(usize, usize)>,
    ) {
        self.prove(DeviceKind::of(&op), pass, span);
        let rows = |r: u64| usize::try_from(r).unwrap_or(usize::MAX);
        let shapes = inputs.iter().map(|&(r, a)| (rows(r), a)).collect();
        self.ops.push(PendingOp {
            node,
            op,
            shapes,
            exact,
        });
    }

    /// Record a staged operator output in the capacity bound.
    fn stage_op_output(&mut self, rows: u64, arity: usize) {
        let bytes = rows
            .saturating_mul(arity as u64)
            .saturating_mul(self.machine.bytes_per_word);
        self.op_bytes = self.op_bytes.saturating_add(bytes);
    }

    fn walk(&mut self, expr: &Expr) -> Option<(Vec<ColumnInfo>, u64)> {
        let span = self.spans.get(self.next).copied();
        self.next += 1;
        let node = self.nodes.len();
        self.nodes.push(NodeReport {
            label: label_of(expr),
            span,
            columns: Vec::new(),
            rows_bound: 0,
            tiles: 0,
            pulse_budget: 0,
        });
        let result = self.infer(expr, node, span);
        if let Some((columns, rows)) = &result {
            self.nodes[node].columns = columns.clone();
            self.nodes[node].rows_bound = *rows;
        }
        result
    }

    fn infer(
        &mut self,
        expr: &Expr,
        node: usize,
        span: Option<(usize, usize)>,
    ) -> Option<(Vec<ColumnInfo>, u64)> {
        match expr {
            Expr::Scan { name, filter } => {
                self.scanned.push(name.clone());
                let Some(table) = self.view.table(name) else {
                    self.diag(
                        Code::UnknownRelation,
                        format!("no base relation {name:?} in the catalog"),
                        span,
                    );
                    return None;
                };
                let columns = table.columns.to_vec();
                let rows = table.rows;
                if let Some(f) = filter {
                    self.check_predicate(&columns, f.col, f.op, f.value, span, "track filter");
                }
                if !self.loads.iter().any(|(n, f, _)| n == name && f == filter) {
                    let bytes = rows
                        .saturating_mul(columns.len() as u64)
                        .saturating_mul(self.machine.bytes_per_word);
                    self.loads.push((name.clone(), *filter, bytes));
                }
                Some((columns, rows))
            }
            Expr::Intersect(l, r) | Expr::Difference(l, r) | Expr::Union(l, r) => {
                let left = self.walk(l);
                let right = self.walk(r);
                let (lc, lr) = left?;
                let (rc, rr) = right?;
                if lc.len() != rc.len() {
                    self.diag(
                        Code::UnionIncompatible,
                        format!("operands have arity {} vs {} (§2.4)", lc.len(), rc.len()),
                        span,
                    );
                } else {
                    for (k, (a, b)) in lc.iter().zip(&rc).enumerate() {
                        if a.domain != b.domain {
                            self.diag(
                                Code::UnionIncompatible,
                                format!(
                                    "column c{k} is drawn from domain {} ({}) on the left \
                                     but domain {} ({}) on the right (§2.4)",
                                    a.domain.0,
                                    a.kind.name(),
                                    b.domain.0,
                                    b.kind.name()
                                ),
                                span,
                            );
                        }
                    }
                }
                let m = lc.len();
                // Union runs as remove-duplicates over the *concatenation*
                // (§5), so its tiling proof covers an (|A|+|B|) × (|A|+|B|)
                // pass.
                let sum = lr.saturating_add(rr);
                let (op, rows, pass) = match expr {
                    Expr::Union(..) => (PlanOp::Union, sum, (sum, sum, m as u64)),
                    Expr::Intersect(..) => (PlanOp::Intersect, lr, (lr, rr, m as u64)),
                    _ => (PlanOp::Difference, lr, (lr, rr, m as u64)),
                };
                let exact = exact_rows(l) && exact_rows(r);
                self.device_check(node, op, pass, &[(lr, m), (rr, m)], exact, span);
                self.stage_op_output(rows, m);
                Some((lc, rows))
            }
            Expr::Dedup(inner) => {
                let (cols, rows) = self.walk(inner)?;
                let m = cols.len();
                let pass = (rows, rows, m as u64);
                let exact = exact_rows(inner);
                self.device_check(node, PlanOp::Dedup, pass, &[(rows, m)], exact, span);
                self.stage_op_output(rows, m);
                Some((cols, rows))
            }
            Expr::Project(inner, indices) => {
                let (cols, rows) = self.walk(inner)?;
                if indices.is_empty() {
                    self.diag(
                        Code::ColumnOutOfRange,
                        "projection needs at least one column".into(),
                        span,
                    );
                    return None;
                }
                let mut out = Vec::with_capacity(indices.len());
                for &c in indices {
                    match cols.get(c) {
                        Some(info) => out.push(*info),
                        None => self.diag(
                            Code::ColumnOutOfRange,
                            format!(
                                "projection selects column c{c}, but the operand has arity {}",
                                cols.len()
                            ),
                            span,
                        ),
                    }
                }
                let pass = (rows, rows, indices.len() as u64);
                let op = PlanOp::Project(indices.clone());
                let exact = exact_rows(inner);
                self.device_check(node, op, pass, &[(rows, cols.len())], exact, span);
                self.stage_op_output(rows, indices.len());
                Some((out, rows))
            }
            Expr::Select(inner, predicates) => {
                let (cols, rows) = self.walk(inner)?;
                if predicates.is_empty() {
                    self.diag(
                        Code::ColumnOutOfRange,
                        "selection needs at least one predicate".into(),
                        span,
                    );
                }
                for Predicate { col, op, value } in predicates {
                    self.check_predicate(&cols, *col, *op, *value, span, "predicate");
                }
                let m = cols.len();
                let pass = (rows, 1, m as u64);
                let op = PlanOp::Select(predicates.clone());
                let exact = exact_rows(inner);
                self.device_check(node, op, pass, &[(rows, m)], exact, span);
                self.stage_op_output(rows, m);
                Some((cols, rows))
            }
            Expr::Join(l, r, specs) => {
                let left = self.walk(l);
                let right = self.walk(r);
                let (lc, lr) = left?;
                let (rc, rr) = right?;
                if specs.is_empty() {
                    self.diag(
                        Code::ColumnOutOfRange,
                        "join needs at least one column spec".into(),
                        span,
                    );
                }
                for JoinSpec {
                    col_a,
                    col_b,
                    op: _,
                } in specs
                {
                    let a = lc.get(*col_a);
                    let b = rc.get(*col_b);
                    if a.is_none() {
                        self.diag(
                            Code::ColumnOutOfRange,
                            format!(
                                "join column c{col_a} is out of range for the left operand \
                                 (arity {})",
                                lc.len()
                            ),
                            span,
                        );
                    }
                    if b.is_none() {
                        self.diag(
                            Code::ColumnOutOfRange,
                            format!(
                                "join column c{col_b} is out of range for the right operand \
                                 (arity {})",
                                rc.len()
                            ),
                            span,
                        );
                    }
                    if let (Some(a), Some(b)) = (a, b) {
                        if a.domain != b.domain {
                            self.diag(
                                Code::DomainMismatch,
                                format!(
                                    "join columns c{col_a}/c{col_b} are drawn from different \
                                     domains ({} vs {}); §6 compares values of one domain",
                                    a.kind.name(),
                                    b.kind.name()
                                ),
                                span,
                            );
                        }
                    }
                }
                // §6.1: A's columns, then B's; a pure equi-join drops B's
                // join columns, a theta join keeps them (`JoinArray::assemble`).
                let equi = specs.iter().all(|s| s.op == CompareOp::Eq);
                let mut out = lc.clone();
                for (k, col) in rc.iter().enumerate() {
                    if !equi || !specs.iter().any(|s| s.col_b == k) {
                        out.push(*col);
                    }
                }
                let rows = lr.saturating_mul(rr);
                let pass = (lr, rr, specs.len().max(1) as u64);
                let inputs = [(lr, lc.len()), (rr, rc.len())];
                let op = PlanOp::Join(specs.clone());
                let exact = exact_rows(l) && exact_rows(r);
                self.device_check(node, op, pass, &inputs, exact, span);
                self.stage_op_output(rows, out.len());
                Some((out, rows))
            }
            Expr::Divide {
                dividend,
                divisor,
                key,
                ca,
                cb,
            } => {
                let left = self.walk(dividend);
                let right = self.walk(divisor);
                let (dc, dr) = left?;
                let (vc, vr) = right?;
                for (what, col, arity) in [
                    ("quotient column", *key, dc.len()),
                    ("dividend column", *ca, dc.len()),
                ] {
                    if col >= arity {
                        self.diag(
                            Code::ColumnOutOfRange,
                            format!(
                                "{what} c{col} is out of range for the dividend (arity {arity})"
                            ),
                            span,
                        );
                    }
                }
                if *cb >= vc.len() {
                    self.diag(
                        Code::ColumnOutOfRange,
                        format!(
                            "divisor column c{cb} is out of range for the divisor (arity {})",
                            vc.len()
                        ),
                        span,
                    );
                }
                if let (Some(a), Some(b)) = (dc.get(*ca), vc.get(*cb)) {
                    if a.domain != b.domain {
                        self.diag(
                            Code::DivisorNotSubset,
                            format!(
                                "divisor column c{cb} ({}) is not drawn from the same domain \
                                 as dividend column c{ca} ({}); §7 requires the divisor to \
                                 be a subset of the dividend's projection",
                                b.kind.name(),
                                a.kind.name()
                            ),
                            span,
                        );
                    }
                }
                let out = vec![*dc.get(*key)?];
                // The Divide device first finds the distinct dividend keys
                // with a tiled remove-duplicates pass over its own limits
                // (§7), then streams the pairs through the untiled division
                // array: the key dedup is the pass that tiles, so prove it.
                let op = PlanOp::DivideBinary {
                    key: *key,
                    ca: *ca,
                    cb: *cb,
                };
                let inputs = [(dr, dc.len()), (vr, vc.len())];
                let exact = exact_rows(dividend) && exact_rows(divisor);
                self.device_check(node, op, (dr, dr, 1), &inputs, exact, span);
                self.stage_op_output(dr, 1);
                Some((out, dr))
            }
            Expr::Store(inner, name) => {
                let result = self.walk(inner);
                self.stores.push((name.clone(), span));
                result
            }
        }
    }

    /// SA008: duplicate and shadowing write-back targets, checked once the
    /// whole expression (and thus the full scan set) is known.
    fn check_stores(&mut self) {
        let stores = std::mem::take(&mut self.stores);
        let mut seen: Vec<&str> = Vec::new();
        for (name, span) in &stores {
            if seen.contains(&name.as_str()) {
                self.diag(
                    Code::ShadowedLoad,
                    format!("relation {name:?} is stored twice in one transaction"),
                    *span,
                );
            } else if self.scanned.iter().any(|s| s == name) {
                self.diag(
                    Code::ShadowedLoad,
                    format!(
                        "store target {name:?} shadows a load of the same relation in this \
                         transaction; the §9 write-back would overwrite an input"
                    ),
                    *span,
                );
            } else if self.view.has(name) {
                self.diag(
                    Code::ShadowedLoad,
                    format!("store target {name:?} would overwrite a base relation in the catalog"),
                    *span,
                );
            }
            seen.push(name.as_str());
        }
        self.stores = stores;
    }
}

/// Short label for a node report.
fn label_of(expr: &Expr) -> String {
    match expr {
        Expr::Scan { name, filter: None } => format!("scan({name})"),
        Expr::Scan {
            name,
            filter: Some(_),
        } => format!("scan!({name})"),
        Expr::Intersect(..) => "intersect".into(),
        Expr::Difference(..) => "difference".into(),
        Expr::Union(..) => "union".into(),
        Expr::Dedup(..) => "dedup".into(),
        Expr::Project(_, cols) => format!("project{cols:?}"),
        Expr::Select(_, preds) => format!("filter[{}]", preds.len()),
        Expr::Join(_, _, specs) => format!("join[{}]", specs.len()),
        Expr::Divide { .. } => "divide".into(),
        Expr::Store(_, name) => format!("store({name})"),
    }
}

/// Statically analyze one expression against a catalog and machine
/// configuration.
///
/// `spans` are the pre-order byte spans from
/// [`systolic_machine::parse_spanned`]; pass `&[]` for expressions built in
/// code (diagnostics then carry no source positions). Analyze the parsed
/// expression *before* the `push_selections` rewrite — the rewrite changes
/// the tree shape and would misalign the spans.
///
/// Returns the typed [`Analysis`] when the plan is statically sound, or
/// every diagnostic found (in source order) when it is not.
pub fn analyze(
    expr: &Expr,
    view: &CatalogView,
    machine: &MachineConfig,
    spans: &[(usize, usize)],
) -> Result<Analysis, Vec<Diagnostic>> {
    let mut w = Walker {
        view,
        machine,
        spans,
        next: 0,
        diags: Vec::new(),
        nodes: Vec::new(),
        loads: Vec::new(),
        scanned: Vec::new(),
        stores: Vec::new(),
        op_bytes: 0,
        ops: Vec::new(),
    };
    w.walk(expr);
    w.check_stores();
    let load_bytes = w
        .loads
        .iter()
        .fold(0u64, |acc, (_, _, b)| acc.saturating_add(*b));
    let staged = load_bytes.saturating_add(w.op_bytes);
    // Sound capacity proof: staged relations are never freed mid-run, so if
    // the worst-case total fits one module, every module always has room
    // for the next allocation regardless of placement. The bound covers a
    // query run alone, which is how the server runs every query.
    if staged > machine.memory_capacity && w.diags.is_empty() {
        w.diags.push(Diagnostic::new(
            Code::CapacityExceeded,
            format!(
                "worst-case staged bytes {} exceed a memory module ({} bytes); \
                 the machine cannot guarantee placement for this plan",
                staged, machine.memory_capacity
            ),
            spans.first().copied(),
        ));
    }
    if !w.diags.is_empty() {
        return Err(w.diags);
    }
    // Priced only once accepted: every bound then fits machine memory.
    let mut nodes = w.nodes;
    let (mut tiles, mut pulses) = (0u64, 0u64);
    for pending in &w.ops {
        let (runs, cost) = price_node(machine, pending);
        nodes[pending.node].tiles = runs;
        nodes[pending.node].pulse_budget = cost;
        tiles = tiles.saturating_add(runs);
        pulses = pulses.saturating_add(cost);
    }
    Ok(Analysis {
        nodes,
        staged_bytes_bound: staged,
        tiles,
        pulse_budget: pulses,
    })
}

/// The machine's price for one operator node, as `(array runs, pulses)`:
/// [`price_op`] at exact inputs, else [`price_op_max`] at the bounds, on
/// every eligible device and maxed, since the clock history may give the
/// step to any of them.
fn price_node(machine: &MachineConfig, pending: &PendingOp) -> (u64, u64) {
    let PendingOp {
        op, shapes, exact, ..
    } = pending;
    let kind = DeviceKind::of(op);
    machine
        .devices
        .iter()
        .filter(|(k, _)| *k == kind)
        .map(|&(_, limits)| {
            if *exact {
                let s = price_op(op, limits, shapes);
                (s.array_runs, s.pulses)
            } else {
                price_op_max(op, limits, shapes)
            }
        })
        .fold((0, 0), |(runs, pulses), (r, p)| {
            (runs.max(r), pulses.max(p))
        })
}

/// Map every `Plan` step (in `Plan::compile` order) to the pre-order
/// [`Analysis::nodes`] index of the expression node it executes, so a query
/// profile can sit the analyzer's per-node prediction next to the runtime's
/// per-step actuals. It reads each step's [`PlanStep::node`], which the
/// compiler records on its one walk of the tree; a repeated scan maps back
/// to the first scan's load step. Call it on the **same** expression an
/// [`analyze`] ran on; `alignment[step] = node` then holds for every step.
///
/// [`PlanStep::node`]: systolic_machine::PlanStep::node
pub fn plan_alignment(expr: &Expr) -> Vec<usize> {
    systolic_machine::Plan::compile(expr)
        .steps
        .iter()
        .map(|step| step.node)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_machine::parse_spanned;

    fn view() -> CatalogView {
        let mut v = CatalogView::new();
        let int = ColumnInfo {
            domain: DomainId(0),
            kind: DomainKind::Int,
        };
        let name = ColumnInfo {
            domain: DomainId(1),
            kind: DomainKind::Str,
        };
        let flag = ColumnInfo {
            domain: DomainId(2),
            kind: DomainKind::Bool,
        };
        v.add_table("emp", vec![name, int], 3);
        v.add_table("dept", vec![int, name], 2);
        v.add_table("flags", vec![int, flag], 4);
        v.add_table("takes", vec![int, int], 6);
        v.add_table("courses", vec![int], 2);
        v
    }

    fn check(src: &str) -> Result<Analysis, Vec<Diagnostic>> {
        let (expr, spans) = parse_spanned(src).unwrap();
        analyze(&expr, &view(), &MachineConfig::default(), &spans)
    }

    fn codes(result: Result<Analysis, Vec<Diagnostic>>) -> Vec<Code> {
        result.unwrap_err().into_iter().map(|d| d.code).collect()
    }

    #[test]
    fn a_sound_plan_comes_back_with_schemas_and_budgets() {
        let a = check("join(scan(emp), scan(dept), 1 = 0)").unwrap();
        assert_eq!(a.nodes.len(), 3);
        assert_eq!(a.nodes[0].label, "join[1]");
        // (str, int) ⋈ (int, str) over 1=0 → (str, int, str).
        let kinds: Vec<DomainKind> = a.nodes[0].columns.iter().map(|c| c.kind).collect();
        assert_eq!(kinds, [DomainKind::Str, DomainKind::Int, DomainKind::Str]);
        assert_eq!(a.nodes[0].rows_bound, 6, "3 x 2 worst case");
        assert!(a.tiles > 0 && a.pulse_budget > 0);
        assert!(a.staged_bytes_bound > 0);
        // Spans point at the right source text.
        assert_eq!(a.nodes[1].span, Some((5, 14)));
    }

    #[test]
    fn theta_joins_keep_the_right_join_columns() {
        let int = ColumnInfo {
            domain: DomainId(0),
            kind: DomainKind::Int,
        };
        let mut v = CatalogView::new();
        v.add_table("x", vec![int, int], 3);
        v.add_table("y", vec![int, int], 2);
        let run = |src: &str| {
            let (expr, spans) = parse_spanned(src).unwrap();
            analyze(&expr, &v, &MachineConfig::default(), &spans)
        };
        // As the runtime assembles it, a theta join keeps all four columns,
        // so c3 is y's c1.
        let a = run("project(join(scan(x), scan(y), 0 < 0), [3])").unwrap();
        assert_eq!(a.nodes[1].columns.len(), 4);
        // Words staged: loads 6 + 4, join 6 rows x 4, projection 6 x 1.
        assert_eq!(a.staged_bytes_bound, (6 + 4 + 24 + 6) * 4);
        // A pure equi-join drops y's join column.
        let a = run("join(scan(x), scan(y), 0 = 0)").unwrap();
        assert_eq!(a.nodes[0].columns.len(), 3);
    }

    #[test]
    fn sa001_union_incompatibility() {
        // (str, int) vs (int, str): both column positions are reported.
        assert_eq!(
            codes(check("union(scan(emp), scan(dept))")),
            [Code::UnionIncompatible, Code::UnionIncompatible]
        );
        assert_eq!(
            codes(check("intersect(scan(emp), scan(courses))")),
            [Code::UnionIncompatible]
        );
        assert!(check("union(scan(takes), scan(takes))").is_ok());
    }

    #[test]
    fn sa002_columns_out_of_range() {
        assert_eq!(
            codes(check("project(scan(emp), [5])")),
            [Code::ColumnOutOfRange]
        );
        assert_eq!(
            codes(check("filter(scan(emp), c9 = 1)")),
            [Code::ColumnOutOfRange]
        );
        assert_eq!(
            codes(check("join(scan(emp), scan(dept), 7 = 0)")),
            [Code::ColumnOutOfRange]
        );
        assert_eq!(
            codes(check("divide(scan(takes), scan(courses), 0, 1, 4)")),
            [Code::ColumnOutOfRange]
        );
    }

    #[test]
    fn sa003_divisor_domain() {
        // emp c0 is a string domain; dividing takes (int) by it is §7-invalid.
        assert_eq!(
            codes(check("divide(scan(takes), scan(emp), 0, 1, 0)")),
            [Code::DivisorNotSubset]
        );
        assert!(check("divide(scan(takes), scan(courses), 0, 1, 0)").is_ok());
    }

    #[test]
    fn sa004_predicate_and_join_domain_mismatches() {
        // Bool compared against 7.
        assert_eq!(
            codes(check("filter(scan(flags), c1 = 7)")),
            [Code::DomainMismatch]
        );
        // Ordering a dictionary-encoded string column.
        assert_eq!(
            codes(check("filter(scan(emp), c0 < 5)")),
            [Code::DomainMismatch]
        );
        // Equality on strings is fine.
        assert!(check("filter(scan(emp), c0 = 1)").is_ok());
        // Join across domains (str vs int).
        assert_eq!(
            codes(check("join(scan(emp), scan(dept), 0 = 0)")),
            [Code::DomainMismatch]
        );
    }

    #[test]
    fn sa005_degenerate_limits_fail_the_tiling_proof() {
        let machine = MachineConfig {
            devices: vec![
                (
                    DeviceKind::SetOp,
                    ArrayLimits {
                        max_a: 0,
                        max_b: 32,
                        max_cols: 8,
                    },
                ),
                (DeviceKind::Join, ArrayLimits::new(8, 8, 4)),
                (DeviceKind::Divide, ArrayLimits::new(8, 8, 4)),
            ],
            ..MachineConfig::default()
        };
        let (expr, spans) = parse_spanned("dedup(scan(takes))").unwrap();
        let diags = analyze(&expr, &view(), &machine, &spans).unwrap_err();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::TilingUncovered);
        assert!(diags[0].message.contains("step_by"), "{}", diags[0].message);
    }

    #[test]
    fn tiling_proof_covers_the_tiles_the_machine_runs() {
        // 13 x 9 rows, 3 columns on a (4, 4, 2) array: the machine runs
        // ceil(13/4) x ceil(9/4) x ceil(3/2) tiles, and the proof covers them.
        let limits = ArrayLimits::new(4, 4, 2);
        prove_tiling(13, 9, 3, limits).unwrap();
        let op = PlanOp::Join(vec![JoinSpec::eq(0, 0); 3]);
        assert_eq!(price_op(&op, limits, &[(13, 3), (9, 3)]).array_runs, 24);
        // Empty axes cover trivially.
        assert!(prove_tiling(0, 5, 2, limits).is_ok());
        // Degenerate limits are rejected, not looped on.
        assert!(prove_tiling(
            4,
            4,
            2,
            ArrayLimits {
                max_a: 4,
                max_b: 4,
                max_cols: 0
            }
        )
        .is_err());
    }

    #[test]
    fn sa006_capacity_and_missing_devices() {
        // A tiny module cannot hold the join's worst case.
        let machine = MachineConfig {
            memory_capacity: 64,
            ..MachineConfig::default()
        };
        assert_eq!(
            codes({
                let (expr, spans) = parse_spanned("join(scan(emp), scan(dept), 1 = 0)").unwrap();
                analyze(&expr, &view(), &machine, &spans)
            }),
            [Code::CapacityExceeded]
        );
        // No Join device configured.
        let machine = MachineConfig {
            devices: vec![(DeviceKind::SetOp, ArrayLimits::new(8, 8, 4))],
            ..MachineConfig::default()
        };
        assert_eq!(
            codes({
                let (expr, spans) = parse_spanned("join(scan(emp), scan(dept), 1 = 0)").unwrap();
                analyze(&expr, &view(), &machine, &spans)
            }),
            [Code::CapacityExceeded]
        );
    }

    #[test]
    fn division_is_proved_and_run_on_the_divide_device_alone() {
        // The key dedup runs on the Divide device's own array, so a machine
        // with no SetOp device divides: the analyzer accepts the plan and
        // the machine runs it.
        let machine = MachineConfig {
            devices: vec![
                (DeviceKind::Join, ArrayLimits::new(8, 8, 4)),
                (DeviceKind::Divide, ArrayLimits::new(4, 4, 1)),
            ],
            ..MachineConfig::default()
        };
        let (expr, spans) = parse_spanned("divide(scan(takes), scan(courses), 0, 1, 0)").unwrap();
        let analysis = analyze(&expr, &view(), &machine, &spans).unwrap();
        let rel = |rows: &[&[i64]]| {
            let schema = systolic_relation::gen::synth_schema(rows[0].len());
            let rows = rows.iter().map(|r| r.to_vec()).collect();
            systolic_relation::MultiRelation::new(schema, rows).unwrap()
        };
        let mut sys = systolic_machine::System::new(machine).unwrap();
        sys.load_base(
            "takes",
            rel(&[&[1, 10], &[1, 11], &[2, 10], &[3, 10], &[3, 11], &[2, 12]]),
        );
        sys.load_base("courses", rel(&[&[10], &[11]]));
        let out = sys.run(&expr).unwrap();
        assert_eq!(out.result.rows().to_vec(), [vec![1], vec![3]]);
        assert!(out.stats.total_pulses <= analysis.pulse_budget);
    }

    #[test]
    fn sa007_unknown_relations() {
        assert_eq!(codes(check("scan(ghost)")), [Code::UnknownRelation]);
        // Both sides are reported.
        assert_eq!(
            codes(check("union(scan(ghost), scan(phantom))")),
            [Code::UnknownRelation, Code::UnknownRelation]
        );
    }

    #[test]
    fn sa008_shadowed_and_duplicate_stores() {
        assert_eq!(
            codes(check("store(scan(takes), takes)")),
            [Code::ShadowedLoad]
        );
        // Overwriting an unrelated base relation is also shadowing.
        assert_eq!(
            codes(check("store(scan(takes), emp)")),
            [Code::ShadowedLoad]
        );
        // A fresh target is fine.
        assert!(check("store(dedup(scan(takes)), quotients)").is_ok());
        // Two stores to one fresh name.
        let expr = Expr::scan("takes")
            .dedup()
            .store("fresh")
            .dedup()
            .store("fresh");
        let diags = analyze(&expr, &view(), &MachineConfig::default(), &[]).unwrap_err();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::ShadowedLoad);
        assert!(diags[0].message.contains("twice"), "{}", diags[0].message);
    }

    #[test]
    fn diagnostics_carry_spans_into_the_source() {
        let src = "union(scan(emp), scan(dept))";
        let diags = check(src).unwrap_err();
        let (start, end) = diags[0].span.unwrap();
        assert_eq!(&src[start..end], src, "union node spans the whole query");
        let pretty = diags[0].pretty(src);
        assert!(pretty.contains('^'), "{pretty}");
        assert!(pretty.contains("SA001"), "{pretty}");
    }

    #[test]
    fn multiple_findings_are_all_reported_in_source_order() {
        let diags = check("join(filter(scan(flags), c1 = 9), scan(ghost), 0 = 0)").unwrap_err();
        let codes: Vec<Code> = diags.iter().map(|d| d.code).collect();
        assert_eq!(codes, [Code::DomainMismatch, Code::UnknownRelation]);
    }

    #[test]
    fn accepted_analysis_renders_and_serialises() {
        let a = check("dedup(scan(takes))").unwrap();
        let text = a.render();
        assert!(text.contains("plan accepted"), "{text}");
        assert!(text.contains("dedup"), "{text}");
        let json = a.json();
        assert!(json.starts_with("{\"accepted\": true"), "{json}");
        assert!(json.contains("\"nodes\": ["), "{json}");
        let diags = vec![Diagnostic::new(Code::UnknownRelation, "x", None)];
        assert!(diagnostics_json(&diags).contains("\"accepted\": false"));
    }

    #[test]
    fn plan_alignment_mirrors_the_compiler_step_order() {
        use systolic_machine::{parse, Action, Plan};

        // Child loads, then the op step; alignment points each step at its
        // pre-order analysis node.
        let expr = parse("join(scan(emp), scan(dept), 1 = 0)").unwrap();
        let align = plan_alignment(&expr);
        assert_eq!(align, vec![1, 2, 0]);

        // Repeated scans advance the node counter but share the first load.
        let expr =
            parse("union(intersect(scan(emp), scan(emp)), difference(scan(emp), scan(emp)))")
                .unwrap();
        let align = plan_alignment(&expr);
        // Steps: load emp, intersect, difference, union.
        assert_eq!(align, vec![2, 1, 4, 0]);

        // Alignment length always equals the compiled step count, and every
        // step's node carries a label consistent with the step action.
        for src in [
            "join(scan(emp), scan(dept), 1 = 0)",
            "union(intersect(scan(takes), scan(takes)), scan(takes))",
            "store(dedup(scan(takes)), fresh)",
            "divide(scan(takes), scan(courses), 0, 1, 0)",
            "project(filter(scan(flags), c0 = 1), [0])",
        ] {
            let expr = parse(src).unwrap();
            let plan = Plan::compile(&expr);
            let align = plan_alignment(&expr);
            let analysis = analyze(&expr, &view(), &MachineConfig::default(), &[]).unwrap();
            assert_eq!(align.len(), plan.steps.len(), "{src}");
            for (step, &node) in plan.steps.iter().zip(&align) {
                let label = &analysis.nodes[node].label;
                match &step.action {
                    Action::Load { relation, .. } => {
                        assert!(label.contains(relation.as_str()), "{src}: {label}")
                    }
                    Action::Op { op, .. } => {
                        let op_head = op.label();
                        let head = op_head.split('[').next().unwrap();
                        // The analyzer labels Select as "filter".
                        let head = if head == "select" { "filter" } else { head };
                        assert!(label.starts_with(head), "{src}: {label} vs {op_head}")
                    }
                    Action::Store { as_name, .. } => {
                        assert!(label.contains(as_name.as_str()), "{src}: {label}")
                    }
                }
            }
        }
    }

    #[test]
    fn exprs_without_spans_analyze_spanlessly() {
        let expr = Expr::scan("nope").dedup();
        let diags = analyze(&expr, &view(), &MachineConfig::default(), &[]).unwrap_err();
        assert_eq!(diags[0].code, Code::UnknownRelation);
        assert_eq!(diags[0].span, None);
        assert_eq!(diags[0].pretty("ignored"), diags[0].to_string());
    }
}
