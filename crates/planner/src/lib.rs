//! # systolic-planner
//!
//! The cost-based plan compiler: a typed plan IR lowered from the parsed
//! [`Expr`] and the analyzer's [`CatalogView`], a static rewrite engine
//! whose every rule carries an algebraic-law justification, and per-step
//! §9 device placement — all costed by the analyzer's §8 pulse model.
//!
//! The engine is deliberately conservative. A candidate plan produced by a
//! rewrite is adopted only when all three gates pass:
//!
//! 1. it still analyzes ([`systolic_analyzer::analyze`] accepts it),
//! 2. its inferred **result schema is unchanged** — a mismatch means the
//!    rule misfired and is reported as an SA009 lint, never applied,
//! 3. its predicted **pulse budget does not regress** — a regression is
//!    reported as an SA010 lint, never applied; a tie is adopted only if
//!    it strictly shrinks the plan.
//!
//! Together with the byte-identity proofs carried by each [`Rule`] (and
//! re-checked at runtime by the workspace differential harness and the
//! server's `--optimize off` byte-compare), this keeps the server's
//! PROFILE `drift_pulses ≥ 0` invariant holding against the *chosen*
//! plan's budget: the chosen plan is re-analyzed and its own budget is the
//! one profiled.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ir;
pub mod rules;

pub use ir::{lower, raise, IrOp, TypedNode};
pub use rules::Rule;

use std::time::Instant;

use systolic_analyzer::{
    analyze, plan_alignment, Analysis, CatalogView, Code, Diagnostic, TableInfo,
};
use systolic_machine::{Action, Backend, DeviceKind, Expr, MachineConfig, Plan};
use systolic_perfmodel::marching_pulses;

/// Optimizer options.
#[derive(Debug, Clone, Copy, Default)]
pub struct Options {
    /// Also try the experimental rules (deliberate misfires exercising the
    /// SA009 gate). Never enabled by the server.
    pub experimental: bool,
}

/// One adopted rewrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewriteEvent {
    /// Stable rule id.
    pub rule: &'static str,
    /// Number of sites the rule fired on in this sweep.
    pub sites: usize,
    /// Predicted pulse budget before the sweep.
    pub before_pulses: u64,
    /// Predicted pulse budget after the sweep.
    pub after_pulses: u64,
}

/// Predicted §9 placement for one operator step of the compiled plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepPlacement {
    /// Step id in [`Plan::compile`] order.
    pub step: usize,
    /// Operator label (matches the timeline labels).
    pub label: String,
    /// Chosen device name(s) (`setop0`, `join2`, …; division lists its
    /// dedup pre-pass device too).
    pub device: String,
    /// Predicted pulses on the chosen device(s).
    pub pulses: u64,
    /// Backend recommendation (`sim` or `columnar`) — advisory: both
    /// backends are bit-identical, only host wall time differs.
    pub backend: &'static str,
}

/// The compiler's choice for one query.
#[derive(Debug, Clone)]
pub struct PlanChoice {
    /// The chosen (possibly rewritten) expression.
    pub expr: Expr,
    /// Analysis of the input expression.
    pub baseline: Analysis,
    /// Analysis of the chosen expression.
    pub chosen: Analysis,
    /// Adopted rewrites, in adoption order.
    pub rewrites: Vec<RewriteEvent>,
    /// SA009/SA010 lints from rejected candidates (rule misfires).
    pub lints: Vec<Diagnostic>,
    /// Per-operator-step device placement for the chosen plan.
    pub placement: Vec<StepPlacement>,
    /// Wall time spent compiling, in nanoseconds.
    pub compile_ns: u64,
}

impl PlanChoice {
    /// Pulses the chosen plan saves over the baseline.
    pub fn pulses_saved(&self) -> u64 {
        self.baseline
            .pulse_budget
            .saturating_sub(self.chosen.pulse_budget)
    }
}

/// Past this predicted budget the closed-form columnar backend is the
/// recommendation: stepping the cycle-accurate simulator through that many
/// pulses costs more host time than the word-plane scan's setup.
const COLUMNAR_PULSE_THRESHOLD: u64 = 4096;

/// How many full rule sweeps the engine runs before declaring fixpoint.
const MAX_PASSES: usize = 8;

/// Optimize one expression with the default (sound) rule set.
///
/// Fails only when the *input* expression does not analyze; callers that
/// run [`analyze`] first can treat the error arm as unreachable.
pub fn optimize(
    expr: &Expr,
    view: &CatalogView,
    machine: &MachineConfig,
) -> Result<PlanChoice, Vec<Diagnostic>> {
    optimize_with(expr, view, machine, Options::default())
}

/// [`optimize`] with explicit [`Options`].
pub fn optimize_with(
    expr: &Expr,
    view: &CatalogView,
    machine: &MachineConfig,
    opts: Options,
) -> Result<PlanChoice, Vec<Diagnostic>> {
    let start = Instant::now();
    let baseline = analyze(expr, view, machine, &[])?;
    let mut current = expr.clone();
    let mut chosen = baseline.clone();
    let mut rewrites = Vec::new();
    let mut lints = Vec::new();
    let rule_set = if opts.experimental {
        Rule::experimental_set()
    } else {
        Rule::default_set()
    };
    'passes: for _ in 0..MAX_PASSES {
        let mut changed = false;
        for &rule in rule_set {
            let Ok(typed) = lower(&current, view) else {
                break 'passes;
            };
            let (candidate, sites) = rule.apply(&typed);
            if sites == 0 {
                continue;
            }
            let analysis = match analyze(&candidate, view, machine, &[]) {
                Ok(a) => a,
                Err(diags) => {
                    lints.push(Diagnostic::new(
                        Code::RewriteSchemaChanged,
                        format!(
                            "rule {} produced a plan the analyzer rejects ({}); not applied",
                            rule.id(),
                            diags[0]
                        ),
                        None,
                    ));
                    continue;
                }
            };
            if analysis.nodes[0].columns != chosen.nodes[0].columns {
                lints.push(Diagnostic::new(
                    Code::RewriteSchemaChanged,
                    format!(
                        "rule {} changes the result schema (arity {} -> {}); not applied",
                        rule.id(),
                        chosen.nodes[0].columns.len(),
                        analysis.nodes[0].columns.len()
                    ),
                    None,
                ));
                continue;
            }
            if analysis.pulse_budget > chosen.pulse_budget {
                lints.push(Diagnostic::new(
                    Code::RewriteCostRegressed,
                    format!(
                        "rule {} regresses the pulse budget ({} -> {}); not applied",
                        rule.id(),
                        chosen.pulse_budget,
                        analysis.pulse_budget
                    ),
                    None,
                ));
                continue;
            }
            let strictly_cheaper = analysis.pulse_budget < chosen.pulse_budget;
            let same_cost_smaller = analysis.pulse_budget == chosen.pulse_budget
                && analysis.nodes.len() < chosen.nodes.len();
            if strictly_cheaper || same_cost_smaller {
                rewrites.push(RewriteEvent {
                    rule: rule.id(),
                    sites,
                    before_pulses: chosen.pulse_budget,
                    after_pulses: analysis.pulse_budget,
                });
                current = candidate;
                chosen = analysis;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let placement = place(&current, view, machine);
    Ok(PlanChoice {
        expr: current,
        baseline,
        chosen,
        rewrites,
        lints,
        placement,
        compile_ns: start.elapsed().as_nanos() as u64,
    })
}

/// A deterministic fingerprint of a catalog view (name, arity, rows and
/// column domains of every table, in name order) — the plan-cache key
/// component that invalidates cached choices when the catalog changes.
pub fn catalog_fingerprint(view: &CatalogView) -> u64 {
    // FNV-1a, the same std-only construction the bench artifact writer uses.
    fn eat_bytes(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    fn eat(h: u64, v: u64) -> u64 {
        eat_bytes(h, &v.to_le_bytes())
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (name, info) in view.tables() {
        h = eat_bytes(h, name.as_bytes());
        let TableInfo { columns, rows } = info;
        h = eat(h, *rows);
        h = eat(h, columns.len() as u64);
        for c in columns {
            h = eat(h, c.domain.0 as u64);
            h = eat(h, c.kind as u64);
        }
    }
    h
}

/// The device passes one operator runs: kind and the `(n_a, n_b, m)`
/// problem shape the §8 pulse model prices (division runs two passes, §7).
fn node_passes(node: &TypedNode) -> Vec<(DeviceKind, u64, u64, u64)> {
    let child = |i: usize| &node.children[i];
    match &node.op {
        IrOp::Scan { .. } | IrOp::Store(_) => Vec::new(),
        IrOp::Intersect | IrOp::Difference => vec![(
            DeviceKind::SetOp,
            child(0).rows,
            child(1).rows,
            child(0).schema.len() as u64,
        )],
        IrOp::Union => {
            let rows = child(0).rows.saturating_add(child(1).rows);
            vec![(DeviceKind::SetOp, rows, rows, child(0).schema.len() as u64)]
        }
        IrOp::Dedup => vec![(
            DeviceKind::SetOp,
            child(0).rows,
            child(0).rows,
            child(0).schema.len() as u64,
        )],
        IrOp::Project(cols) => vec![(
            DeviceKind::SetOp,
            child(0).rows,
            child(0).rows,
            cols.len() as u64,
        )],
        IrOp::Select(_) => vec![(
            DeviceKind::SetOp,
            child(0).rows,
            1,
            child(0).schema.len() as u64,
        )],
        IrOp::Join(specs) => vec![(
            DeviceKind::Join,
            child(0).rows,
            child(1).rows,
            specs.len().max(1) as u64,
        )],
        IrOp::Divide { .. } => vec![
            (DeviceKind::SetOp, child(0).rows, child(0).rows, 1),
            (DeviceKind::Divide, child(0).rows, child(1).rows, 1),
        ],
    }
}

/// Predicted pulses for one pass on one device (the analyzer's
/// `device_check` arithmetic).
fn predict(n_a: u64, n_b: u64, m: u64, limits: systolic_core::ArrayLimits) -> Option<u64> {
    let proof = systolic_analyzer::prove_tiling(n_a, n_b, m, limits).ok()?;
    if proof.tiles == 0 {
        return Some(0);
    }
    let tile_a = n_a.min(limits.max_a as u64).max(1);
    let tile_b = n_b.min(limits.max_b as u64).max(1);
    let tile_m = m.min(limits.max_cols as u64).max(1);
    Some(
        proof
            .tiles
            .saturating_mul(marching_pulses(tile_a, tile_b, tile_m)),
    )
}

/// The device-name prefix `Device::new` assigns per kind.
fn kind_prefix(kind: DeviceKind) -> &'static str {
    match kind {
        DeviceKind::SetOp => "setop",
        DeviceKind::Join => "join",
        DeviceKind::Divide => "divide",
    }
}

/// Choose, by predicted cost, a device for every operator step of the
/// compiled plan: for each pass the eligible device with the fewest
/// predicted pulses (first configured wins ties). Placement is advisory —
/// results are pure functions of `(op, inputs)`, so the runtime's
/// earliest-free scheduling cannot change bytes, only the makespan.
fn place(expr: &Expr, view: &CatalogView, machine: &MachineConfig) -> Vec<StepPlacement> {
    let Ok(typed) = lower(expr, view) else {
        return Vec::new();
    };
    // Pre-order node facts, aligned with `plan_alignment` indices.
    let mut passes = Vec::new();
    fn walk(node: &TypedNode, out: &mut Vec<Vec<(DeviceKind, u64, u64, u64)>>) {
        out.push(node_passes(node));
        for c in &node.children {
            walk(c, out);
        }
    }
    walk(&typed, &mut passes);
    let plan = Plan::compile(expr);
    let align = plan_alignment(expr);
    let mut out = Vec::new();
    for step in &plan.steps {
        let Action::Op { op, .. } = &step.action else {
            continue;
        };
        let node = align[step.id];
        let mut devices = Vec::new();
        let mut total = 0u64;
        for &(kind, n_a, n_b, m) in &passes[node] {
            let mut best: Option<(usize, u64)> = None;
            for (id, &(k, limits)) in machine.devices.iter().enumerate() {
                if k != kind {
                    continue;
                }
                let Some(pulses) = predict(n_a, n_b, m, limits) else {
                    continue;
                };
                if best.map(|(_, p)| pulses < p).unwrap_or(true) {
                    best = Some((id, pulses));
                }
            }
            if let Some((id, pulses)) = best {
                devices.push(format!("{}{id}", kind_prefix(kind)));
                total = total.saturating_add(pulses);
            }
        }
        out.push(StepPlacement {
            step: step.id,
            label: op.label(),
            device: devices.join("+"),
            pulses: total,
            backend: if total >= COLUMNAR_PULSE_THRESHOLD {
                Backend::Columnar.label()
            } else {
                Backend::Sim.label()
            },
        });
    }
    out
}

/// Human-readable `--explain` rendering: the rewrite trail, both plans and
/// the chosen placement. Deterministic (no timings), so it can be pinned
/// by golden files.
pub fn render_explain(choice: &PlanChoice) -> String {
    let mut out = format!(
        "plan compiler: {} rewrites, {} -> {} pulses predicted ({} saved)\n",
        choice.rewrites.len(),
        choice.baseline.pulse_budget,
        choice.chosen.pulse_budget,
        choice.pulses_saved()
    );
    for ev in &choice.rewrites {
        out.push_str(&format!(
            "  rewrite {} x{}: {} -> {} pulses\n",
            ev.rule, ev.sites, ev.before_pulses, ev.after_pulses
        ));
    }
    for lint in &choice.lints {
        out.push_str(&format!("  lint {}\n", lint.wire()));
    }
    out.push_str("before:\n");
    for line in choice.baseline.render().lines() {
        out.push_str(&format!("  {line}\n"));
    }
    out.push_str("after:\n");
    for line in choice.chosen.render().lines() {
        out.push_str(&format!("  {line}\n"));
    }
    out.push_str("placement:\n");
    for p in &choice.placement {
        out.push_str(&format!(
            "  step #{} {} -> {} ({} pulses, {})\n",
            p.step, p.label, p.device, p.pulses, p.backend
        ));
    }
    out
}

/// JSON `--explain` rendering for `sdb check --explain --json`.
/// Deterministic, like [`render_explain`].
pub fn json_explain(choice: &PlanChoice) -> String {
    let mut out = String::from("{\"optimizer\": {");
    out.push_str(&format!(
        "\"baseline_pulses\": {}, \"chosen_pulses\": {}, \"pulses_saved\": {}",
        choice.baseline.pulse_budget,
        choice.chosen.pulse_budget,
        choice.pulses_saved()
    ));
    out.push_str(", \"rewrites\": [");
    for (k, ev) in choice.rewrites.iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"rule\": \"{}\", \"sites\": {}, \"before_pulses\": {}, \"after_pulses\": {}}}",
            ev.rule, ev.sites, ev.before_pulses, ev.after_pulses
        ));
    }
    out.push_str("], \"lints\": [");
    for (k, lint) in choice.lints.iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        out.push_str(&lint.json());
    }
    out.push_str("], \"placement\": [");
    for (k, p) in choice.placement.iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"step\": {}, \"label\": {}, \"device\": \"{}\", \"pulses\": {}, \
             \"backend\": \"{}\"}}",
            p.step,
            json_str(&p.label),
            p.device,
            p.pulses,
            p.backend
        ));
    }
    out.push_str("]}, ");
    out.push_str(&format!("\"before\": {}, ", choice.baseline.json()));
    out.push_str(&format!("\"after\": {}}}", choice.chosen.json()));
    out
}

/// Minimal JSON string escaping (mirrors the analyzer's).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_analyzer::ColumnInfo;
    use systolic_core::select::Predicate;
    use systolic_core::JoinSpec;
    use systolic_fabric::CompareOp;
    use systolic_relation::{DomainId, DomainKind};

    fn col(domain: usize, kind: DomainKind) -> ColumnInfo {
        ColumnInfo {
            domain: DomainId(domain),
            kind,
        }
    }

    fn view() -> CatalogView {
        let mut v = CatalogView::new();
        let int = col(0, DomainKind::Int);
        let name = col(1, DomainKind::Str);
        v.add_table("emp", vec![name, int], 3);
        v.add_table("dept", vec![int, name], 2);
        v.add_table("takes", vec![int, int], 6);
        v.add_table("courses", vec![int], 2);
        v
    }

    fn opt(expr: &Expr) -> PlanChoice {
        optimize(expr, &view(), &MachineConfig::default()).unwrap()
    }

    #[test]
    fn backend_recommendation_has_two_tiers() {
        // sim below the one threshold, columnar from it upwards — however
        // far above.
        let mut v = CatalogView::new();
        for (name, rows) in [
            ("tiny_a", 3),
            ("tiny_b", 3),
            ("mid_a", 256),
            ("mid_b", 256),
            ("big_a", 1024),
            ("big_b", 1024),
        ] {
            v.add_table(name, vec![col(0, DomainKind::Int)], rows);
        }
        let tier = |a: &str, b: &str| {
            let e = Expr::scan(a).intersect(Expr::scan(b));
            let c = optimize(&e, &v, &MachineConfig::default()).unwrap();
            assert_eq!(c.placement.len(), 1);
            c.placement[0].backend
        };
        assert_eq!(tier("tiny_a", "tiny_b"), "sim");
        assert_eq!(tier("mid_a", "mid_b"), "columnar");
        assert_eq!(tier("big_a", "big_b"), "columnar");
    }

    #[test]
    fn lower_raise_roundtrips() {
        let exprs = [
            Expr::scan("takes").dedup(),
            Expr::scan("takes")
                .union(Expr::scan("takes"))
                .project(vec![0]),
            Expr::scan("emp")
                .join(Expr::scan("dept"), vec![JoinSpec::eq(1, 0)])
                .select(vec![Predicate::new(0, CompareOp::Eq, 1)]),
            Expr::scan("takes")
                .divide(Expr::scan("courses"), 0, 1, 0)
                .store("out"),
        ];
        for e in exprs {
            let t = lower(&e, &view()).unwrap();
            assert_eq!(raise(&t), e);
        }
    }

    #[test]
    fn distinctness_tracks_the_paper_semantics() {
        let v = view();
        assert!(!lower(&Expr::scan("takes"), &v).unwrap().distinct);
        assert!(
            lower(&Expr::scan("takes").union(Expr::scan("takes")), &v)
                .unwrap()
                .distinct
        );
        assert!(
            lower(&Expr::scan("takes").project(vec![0]), &v)
                .unwrap()
                .distinct
        );
        assert!(
            lower(
                &Expr::scan("takes").divide(Expr::scan("courses"), 0, 1, 0),
                &v
            )
            .unwrap()
            .distinct
        );
        // Intersect inherits from the left operand.
        assert!(
            !lower(&Expr::scan("takes").intersect(Expr::scan("takes")), &v)
                .unwrap()
                .distinct
        );
        assert!(
            lower(
                &Expr::scan("takes").dedup().intersect(Expr::scan("takes")),
                &v
            )
            .unwrap()
            .distinct
        );
    }

    #[test]
    fn dedup_over_union_is_eliminated() {
        let e = Expr::scan("takes").union(Expr::scan("takes")).dedup();
        let c = opt(&e);
        assert_eq!(c.expr, Expr::scan("takes").union(Expr::scan("takes")));
        assert_eq!(c.rewrites.len(), 1);
        assert_eq!(c.rewrites[0].rule, "dedup-elim");
        assert!(c.chosen.pulse_budget < c.baseline.pulse_budget);
        assert!(c.lints.is_empty());
    }

    #[test]
    fn dedup_over_a_plain_scan_is_kept() {
        let e = Expr::scan("takes").dedup();
        let c = opt(&e);
        assert_eq!(c.expr, e);
        assert!(c.rewrites.is_empty());
    }

    #[test]
    fn nested_projections_fuse() {
        let e = Expr::scan("takes").project(vec![1, 0]).project(vec![1]);
        let c = opt(&e);
        assert_eq!(c.expr, Expr::scan("takes").project(vec![0]));
        assert!(c.rewrites.iter().any(|r| r.rule == "project-fuse"));
        assert!(c.chosen.pulse_budget < c.baseline.pulse_budget);
    }

    #[test]
    fn project_absorbs_a_dedup_below_it() {
        let e = Expr::scan("takes").dedup().project(vec![0]);
        let c = opt(&e);
        assert_eq!(c.expr, Expr::scan("takes").project(vec![0]));
        assert!(c.rewrites.iter().any(|r| r.rule == "project-dedup"));
    }

    #[test]
    fn filters_fuse_over_non_scans() {
        let p = |c: usize, v: i64| Predicate::new(c, CompareOp::Ge, v);
        let e = Expr::scan("takes")
            .union(Expr::scan("takes"))
            .select(vec![p(0, 1)])
            .select(vec![p(1, 2)]);
        let c = opt(&e);
        assert!(c.rewrites.iter().any(|r| r.rule == "filter-fuse"));
        assert!(c.chosen.pulse_budget < c.baseline.pulse_budget);
    }

    #[test]
    fn filter_pushes_into_set_op_scans() {
        let p = Predicate::new(0, CompareOp::Ge, 1);
        let e = Expr::scan("takes")
            .intersect(Expr::scan("takes"))
            .select(vec![p]);
        let c = opt(&e);
        assert!(c.rewrites.iter().any(|r| r.rule == "filter-setop-push"));
        match &c.expr {
            Expr::Intersect(l, _) => {
                assert!(matches!(
                    **l,
                    Expr::Scan {
                        filter: Some(_),
                        ..
                    }
                ))
            }
            other => panic!("unexpected {other:?}"),
        }
        // Union pushes into both operands.
        let e = Expr::scan("takes")
            .union(Expr::scan("takes"))
            .select(vec![p]);
        let c = opt(&e);
        assert!(c.rewrites.iter().any(|r| r.rule == "filter-setop-push"));
    }

    #[test]
    fn filter_pushes_through_an_equi_join_then_into_the_scan() {
        // emp(str,int) ⋈ dept(int,str) on emp.c1 = dept.c0 → (str,int,str);
        // c2 comes from dept's surviving column c1.
        let e = Expr::scan("emp")
            .join(Expr::scan("dept"), vec![JoinSpec::eq(1, 0)])
            .select(vec![Predicate::new(2, CompareOp::Eq, 1)]);
        let c = opt(&e);
        assert!(c.rewrites.iter().any(|r| r.rule == "filter-join-push"));
        // The pushed select then lands on the scan as a track filter.
        assert!(c.rewrites.iter().any(|r| r.rule == "filter-into-scan"));
        match &c.expr {
            Expr::Join(_, r, _) => {
                assert!(
                    matches!(&**r, Expr::Scan { filter: Some(f), .. } if f.col == 1),
                    "right operand should carry the remapped filter: {r:?}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(c.chosen.pulse_budget < c.baseline.pulse_budget);
    }

    #[test]
    fn theta_joins_are_not_pushed_through() {
        let e = Expr::scan("takes")
            .join(
                Expr::scan("takes"),
                vec![JoinSpec::theta(0, 0, CompareOp::Lt)],
            )
            .select(vec![Predicate::new(0, CompareOp::Ge, 1)]);
        let c = opt(&e);
        assert!(!c.rewrites.iter().any(|r| r.rule == "filter-join-push"));
    }

    #[test]
    fn join_commute_misfires_into_an_sa009_lint() {
        let e = Expr::scan("emp").join(Expr::scan("dept"), vec![JoinSpec::eq(1, 0)]);
        let c = optimize_with(
            &e,
            &view(),
            &MachineConfig::default(),
            Options { experimental: true },
        )
        .unwrap();
        assert_eq!(c.expr, e, "the misfiring rule must never be applied");
        assert!(
            c.lints.iter().any(|l| l.code == Code::RewriteSchemaChanged),
            "{:?}",
            c.lints
        );
    }

    #[test]
    fn chosen_cost_never_exceeds_baseline() {
        let p = Predicate::new(0, CompareOp::Ge, 1);
        let exprs = [
            Expr::scan("takes").dedup().dedup(),
            Expr::scan("takes").union(Expr::scan("takes")).dedup(),
            Expr::scan("emp")
                .join(Expr::scan("dept"), vec![JoinSpec::eq(1, 0)])
                .select(vec![Predicate::new(1, CompareOp::Ge, 0)]),
            Expr::scan("takes")
                .difference(Expr::scan("takes"))
                .select(vec![p]),
            Expr::scan("takes")
                .divide(Expr::scan("courses"), 0, 1, 0)
                .dedup(),
        ];
        for e in exprs {
            let c = opt(&e);
            assert!(
                c.chosen.pulse_budget <= c.baseline.pulse_budget,
                "{e:?}: {} > {}",
                c.chosen.pulse_budget,
                c.baseline.pulse_budget
            );
        }
    }

    #[test]
    fn placement_covers_every_op_step_with_real_devices() {
        let e = Expr::scan("takes")
            .divide(Expr::scan("courses"), 0, 1, 0)
            .union(Expr::scan("courses"));
        let c = opt(&e);
        let plan = Plan::compile(&c.expr);
        assert_eq!(c.placement.len(), plan.op_steps());
        for p in &c.placement {
            assert!(!p.device.is_empty(), "{p:?}");
            assert!(["sim", "columnar"].contains(&p.backend));
        }
        // Division lists both its dedup pre-pass and division devices.
        let div = c.placement.iter().find(|p| p.label == "divide").unwrap();
        assert!(div.device.contains("setop") && div.device.contains('+'));
        assert!(div.device.contains("divide"));
    }

    #[test]
    fn explain_renderings_are_deterministic_and_complete() {
        let e = Expr::scan("takes").union(Expr::scan("takes")).dedup();
        let c = opt(&e);
        let text = render_explain(&c);
        assert!(text.contains("plan compiler: 1 rewrites"), "{text}");
        assert!(text.contains("rewrite dedup-elim x1"), "{text}");
        assert!(
            text.contains("before:") && text.contains("after:"),
            "{text}"
        );
        assert!(text.contains("placement:"), "{text}");
        assert_eq!(text, render_explain(&opt(&e)));
        let json = json_explain(&c);
        assert!(json.starts_with("{\"optimizer\": {"), "{json}");
        assert!(json.contains("\"rule\": \"dedup-elim\""), "{json}");
        assert!(json.contains("\"before\": {\"accepted\": true"), "{json}");
        assert!(json.contains("\"after\": {\"accepted\": true"), "{json}");
    }

    #[test]
    fn catalog_fingerprint_tracks_catalog_changes() {
        let a = catalog_fingerprint(&view());
        assert_eq!(a, catalog_fingerprint(&view()));
        let mut v = view();
        v.add_table("extra", vec![col(0, DomainKind::Int)], 1);
        assert_ne!(a, catalog_fingerprint(&v));
        let mut v = view();
        v.add_table(
            "emp",
            vec![col(1, DomainKind::Str), col(0, DomainKind::Int)],
            4,
        );
        assert_ne!(a, catalog_fingerprint(&v), "row-count change re-keys");
    }

    #[test]
    fn unanalyzable_input_is_an_error() {
        let e = Expr::scan("ghost").dedup();
        assert!(optimize(&e, &view(), &MachineConfig::default()).is_err());
    }
}
