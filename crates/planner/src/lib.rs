//! # systolic-planner
//!
//! The cost-based plan compiler: a static rewrite engine over the parsed
//! [`Expr`] whose every rule carries an algebraic-law justification. A
//! rule matches and rebuilds the tree itself; the facts it needs beyond
//! the tree's shape — an operand's arity — it reads from the analyzer's
//! pre-order [`Analysis`] of that same tree, which the engine holds
//! anyway to gate and price each candidate. Plans are
//! costed by the analyzer's [`Analysis::pulse_budget`], which is the
//! machine's own pricing at the analyzer's row bounds — the planner has no
//! cost model of its own.
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
//! plan's budget: [`PlanChoice::chosen`] is the chosen plan's own analysis,
//! and its budget is the one profiled.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rules;

pub use rules::Rule;

use std::time::Instant;

use systolic_analyzer::{analyze, Analysis, CatalogView, Code, Diagnostic, TableInfo};
use systolic_machine::{Expr, MachineConfig};

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

/// How many full rule sweeps the engine runs before declaring fixpoint.
const MAX_PASSES: usize = 8;

/// Optimize one expression with the rule set.
///
/// Fails only when the *input* expression does not analyze; callers that
/// run [`analyze`] first can treat the error arm as unreachable.
pub fn optimize(
    expr: &Expr,
    view: &CatalogView,
    machine: &MachineConfig,
) -> Result<PlanChoice, Vec<Diagnostic>> {
    let start = Instant::now();
    let baseline = analyze(expr, view, machine, &[])?;
    let mut current = expr.clone();
    let mut chosen = baseline.clone();
    let mut rewrites = Vec::new();
    let mut lints = Vec::new();
    for _ in 0..MAX_PASSES {
        let mut changed = false;
        for &rule in Rule::default_set() {
            // `chosen` is always the analysis of `current`.
            let (candidate, sites) = rule.apply(&current, &chosen.nodes);
            if sites == 0 {
                continue;
            }
            let analysis = match vet(rule, &candidate, &chosen, view, machine) {
                Ok(analysis) => analysis,
                Err(lint) => {
                    lints.push(lint);
                    continue;
                }
            };
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
    Ok(PlanChoice {
        expr: current,
        baseline,
        chosen,
        rewrites,
        lints,
        compile_ns: start.elapsed().as_nanos() as u64,
    })
}

/// The gates a `rule`'s `candidate` passes before it may replace the plan
/// whose analysis is `chosen`: the candidate analyzes, its result columns
/// (arity and domains) are the same, and its pulse budget is no larger.
/// Returns the candidate's analysis, or the lint that refuses it: SA009
/// when it does not analyze or changes the result columns, SA010 when it
/// costs more.
///
/// The column check cannot tell a permutation of same-domain columns from
/// the original: that a rewrite keeps every row's values in place is the
/// rule's own law (see [`rules`]), not something this gate proves.
fn vet(
    rule: Rule,
    candidate: &Expr,
    chosen: &Analysis,
    view: &CatalogView,
    machine: &MachineConfig,
) -> Result<Analysis, Diagnostic> {
    let refuse = |code, detail: String| {
        Diagnostic::new(
            code,
            format!("rule {} {detail}; not applied", rule.id()),
            None,
        )
    };
    let analysis = analyze(candidate, view, machine, &[]).map_err(|diags| {
        refuse(
            Code::RewriteSchemaChanged,
            format!("produced a plan the analyzer rejects ({})", diags[0]),
        )
    })?;
    if analysis.nodes[0].columns != chosen.nodes[0].columns {
        return Err(refuse(
            Code::RewriteSchemaChanged,
            format!(
                "changes the result schema (arity {} -> {})",
                chosen.nodes[0].columns.len(),
                analysis.nodes[0].columns.len()
            ),
        ));
    }
    if analysis.pulse_budget > chosen.pulse_budget {
        return Err(refuse(
            Code::RewriteCostRegressed,
            format!(
                "regresses the pulse budget ({} -> {})",
                chosen.pulse_budget, analysis.pulse_budget
            ),
        ));
    }
    Ok(analysis)
}

/// A deterministic fingerprint of a catalog view (name, arity, rows and
/// column domains of every table, in name order). It costs O(tables):
/// the per-request plan-cache check is [`names_fingerprint`] instead.
pub fn catalog_fingerprint(view: &CatalogView) -> u64 {
    view.tables()
        .fold(FNV_OFFSET, |h, (name, info)| eat_entry(h, name, Some(info)))
}

/// A deterministic fingerprint of what a query can see of a catalog view:
/// each of `names` (the query's scanned and `store(...)` target names, in
/// the order given) with its [`TableInfo`], or a marker for its absence.
///
/// [`analyze`] and [`optimize`] read a view only through the names the
/// query contains, so two views that agree on those names give the same
/// result. The server keeps it with each cached plan and revalidates a
/// hit against it: a `LOAD` re-plans only the queries that name the loaded
/// table, and the check costs O(names in the query), not O(tables in the
/// catalog).
pub fn names_fingerprint<'a>(view: &CatalogView, names: impl IntoIterator<Item = &'a str>) -> u64 {
    names
        .into_iter()
        .fold(FNV_OFFSET, |h, name| eat_entry(h, name, view.table(name)))
}

/// FNV-1a, the same std-only construction the bench artifact writer uses.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn eat_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn eat(h: u64, v: u64) -> u64 {
    eat_bytes(h, &v.to_le_bytes())
}

/// Fold one catalog entry into `h`: the name (length-prefixed, so names
/// cannot run together), then its shape and rows, or an absence marker.
fn eat_entry(h: u64, name: &str, info: Option<&TableInfo>) -> u64 {
    let h = eat_bytes(eat(h, name.len() as u64), name.as_bytes());
    let Some(TableInfo { columns, rows }) = info else {
        return eat(h, u64::MAX);
    };
    let h = eat(eat(h, columns.len() as u64), *rows);
    columns
        .iter()
        .fold(h, |h, c| eat(eat(h, c.domain.0 as u64), c.kind as u64))
}

/// Human-readable `--explain` rendering: the rewrite trail and both plans.
/// Deterministic (no timings), so it can be pinned
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
    out.push_str("]}, ");
    out.push_str(&format!("\"before\": {}, ", choice.baseline.json()));
    out.push_str(&format!("\"after\": {}}}", choice.chosen.json()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::distinct;
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
    fn distinctness_tracks_the_paper_semantics() {
        let scan = || Expr::scan("takes");
        assert!(!distinct(&scan()));
        assert!(distinct(&scan().union(scan())));
        assert!(distinct(&scan().project(vec![0])));
        assert!(distinct(&scan().divide(Expr::scan("courses"), 0, 1, 0)));
        // Intersect, select and store inherit from the first operand.
        assert!(!distinct(&scan().intersect(scan())));
        assert!(distinct(&scan().dedup().intersect(scan())));
        assert!(distinct(&scan().dedup().select(vec![]).store("out")));
        // A join is duplicate-free when both operands are.
        let specs = || vec![JoinSpec::eq(0, 0)];
        assert!(!distinct(&scan().dedup().join(scan(), specs())));
        assert!(distinct(&scan().dedup().join(scan().dedup(), specs())));
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
    fn a_schema_changing_candidate_is_refused_with_an_sa009_lint() {
        // Candidates no rule of the set produces: one that drops a column
        // and one that swaps `emp`'s str and int columns, each vetted
        // against the plain scan it would replace.
        let machine = MachineConfig::default();
        let scan = Expr::scan("emp");
        let chosen = analyze(&scan, &view(), &machine, &[]).unwrap();
        for candidate in [scan.clone().project(vec![0]), scan.project(vec![1, 0])] {
            let lint = vet(Rule::ProjectFuse, &candidate, &chosen, &view(), &machine)
                .expect_err("a changed result schema must be refused");
            assert_eq!(lint.code, Code::RewriteSchemaChanged, "{lint:?}");
            assert!(lint.message.contains("project-fuse"), "{lint:?}");
        }
        // A candidate the analyzer rejects is refused the same way.
        let unknown = Expr::scan("nowhere");
        let lint = vet(Rule::FilterIntoScan, &unknown, &chosen, &view(), &machine).unwrap_err();
        assert_eq!(lint.code, Code::RewriteSchemaChanged, "{lint:?}");
        // The same plan passes.
        assert!(vet(
            Rule::ProjectFuse,
            &Expr::scan("emp"),
            &chosen,
            &view(),
            &machine
        )
        .is_ok());
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
    fn names_fingerprint_reads_only_the_names_given() {
        let names = ["emp", "out"];
        let a = names_fingerprint(&view(), names);
        let mut v = view();
        v.add_table("extra", vec![col(0, DomainKind::Int)], 1);
        assert_eq!(a, names_fingerprint(&v, names), "unrelated table");
        v.add_table("out", vec![col(0, DomainKind::Int)], 1);
        assert_ne!(a, names_fingerprint(&v, names), "absent -> present");
        let mut v = view();
        v.add_table(
            "emp",
            vec![col(1, DomainKind::Str), col(0, DomainKind::Int)],
            4,
        );
        assert_ne!(a, names_fingerprint(&v, names), "row-count change");
        assert_ne!(
            names_fingerprint(&view(), ["ab", "c"]),
            names_fingerprint(&view(), ["a", "bc"])
        );
    }

    #[test]
    fn unanalyzable_input_is_an_error() {
        let e = Expr::scan("ghost").dedup();
        assert!(optimize(&e, &view(), &MachineConfig::default()).is_err());
    }
}
