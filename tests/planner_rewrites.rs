//! Rewrite soundness, proven differentially: for every rule in the
//! planner's default set, an expression where the rule fires is optimized
//! and then *both* trees — the original and the chosen plan — run on real
//! machines. The contract per rule:
//!
//! * the rule actually fired (its id appears in the rewrite log);
//! * the chosen plan's §8 pulse budget never exceeds the baseline's, and
//!   neither do its measured pulses on the simulator;
//! * the results are byte-identical — same schema, same rows, in order —
//!   on the pulse simulator;
//! * the chosen plan is also byte-identical across backends (sim vs the
//!   closed-form columnar scans), so the cheaper plan stays backend-invariant.

use systolic_db::analyzer::{CatalogView, ColumnInfo};
use systolic_db::arrays::{JoinSpec, Predicate};
use systolic_db::fabric::CompareOp;
use systolic_db::machine::{Backend, Expr, MachineConfig, System};
use systolic_db::planner;
use systolic_db::relation::{Column, DomainId, DomainKind, MultiRelation, Schema};

const D_INT: DomainId = DomainId(0);
const D_STR: DomainId = DomainId(1);

fn schema(cols: &[DomainId]) -> Schema {
    Schema::new(
        cols.iter()
            .enumerate()
            .map(|(k, d)| Column::new(format!("c{k}"), *d))
            .collect(),
    )
}

/// Small overlapping base tables; the second column repeats (i % 3) so
/// equi-joins match without exploding.
fn tables() -> Vec<(&'static str, MultiRelation)> {
    let ta = MultiRelation::new(
        schema(&[D_INT, D_INT]),
        (0..10).map(|i| vec![i, i % 3]).collect(),
    )
    .unwrap();
    let tb = MultiRelation::new(
        schema(&[D_INT, D_INT]),
        (5..13).map(|i| vec![i, i % 3]).collect(),
    )
    .unwrap();
    let tc = MultiRelation::new(schema(&[D_INT]), (0..4).map(|i| vec![i]).collect()).unwrap();
    let ts = MultiRelation::new(
        schema(&[D_STR, D_INT]),
        (0..6).map(|i| vec![i, i % 3]).collect(),
    )
    .unwrap();
    vec![("ta", ta), ("tb", tb), ("tc", tc), ("ts", ts)]
}

fn view() -> CatalogView {
    let int = ColumnInfo {
        domain: D_INT,
        kind: DomainKind::Int,
    };
    let str_ = ColumnInfo {
        domain: D_STR,
        kind: DomainKind::Str,
    };
    let mut v = CatalogView::new();
    v.add_table("ta", vec![int, int], 10);
    v.add_table("tb", vec![int, int], 8);
    v.add_table("tc", vec![int], 4);
    v.add_table("ts", vec![str_, int], 6);
    v
}

fn fresh_system(backend: Backend) -> System {
    let mut sys = System::new(MachineConfig {
        backend,
        ..MachineConfig::default()
    })
    .unwrap();
    for (name, rel) in tables() {
        sys.load_base(name, rel);
    }
    sys
}

fn pred(col: usize, op: CompareOp, value: i64) -> Predicate {
    Predicate { col, op, value }
}

/// Optimize `expr`, require `rule` among the accepted rewrites, and prove
/// the chosen plan result-identical to the original on both backends and
/// no dearer in measured pulses.
fn prove_rule(expr: Expr, rule: &str) {
    let choice = planner::optimize(&expr, &view(), &MachineConfig::default())
        .unwrap_or_else(|d| panic!("{expr:?} must analyze, got {d:?}"));
    assert!(
        choice.rewrites.iter().any(|r| r.rule == rule),
        "expected rule {rule} to fire on {expr:?}, log: {:?}",
        choice.rewrites
    );
    assert!(
        choice.chosen.pulse_budget <= choice.baseline.pulse_budget,
        "chosen plan costs more ({} > {}) for {expr:?}",
        choice.chosen.pulse_budget,
        choice.baseline.pulse_budget
    );
    assert_eq!(
        choice.pulses_saved(),
        choice.baseline.pulse_budget - choice.chosen.pulse_budget
    );
    let base = fresh_system(Backend::Sim).run(&expr).unwrap();
    let opt = fresh_system(Backend::Sim).run(&choice.expr).unwrap();
    assert_eq!(
        base.result.schema(),
        opt.result.schema(),
        "rewrite changed the schema for {expr:?}"
    );
    assert_eq!(
        base.result.rows(),
        opt.result.rows(),
        "rewrite changed the rows for {expr:?} -> {:?}",
        choice.expr
    );
    assert!(
        opt.stats.total_pulses <= base.stats.total_pulses,
        "chosen plan measured dearer ({} > {}) for {expr:?}",
        opt.stats.total_pulses,
        base.stats.total_pulses
    );
    let columnar = fresh_system(Backend::Columnar).run(&choice.expr).unwrap();
    assert_eq!(
        opt.result.rows(),
        columnar.result.rows(),
        "chosen plan differs across backends for {:?}",
        choice.expr
    );
    assert_eq!(opt.stats.total_pulses, columnar.stats.total_pulses);
}

#[test]
fn dedup_elim_is_sound() {
    // Union output is distinct by construction, so the trailing dedup is
    // provably redundant.
    prove_rule(
        Expr::scan("ta").union(Expr::scan("tb")).dedup(),
        "dedup-elim",
    );
}

#[test]
fn project_fuse_is_sound() {
    prove_rule(
        Expr::scan("ta").project(vec![1, 0]).project(vec![0]),
        "project-fuse",
    );
}

#[test]
fn project_dedup_is_sound() {
    // Projection ends in remove-duplicates, so deduplicating first is
    // redundant work the compiler removes.
    prove_rule(Expr::scan("ta").dedup().project(vec![1]), "project-dedup");
}

#[test]
fn filter_fuse_is_sound() {
    prove_rule(
        Expr::scan("ta")
            .select(vec![pred(0, CompareOp::Ge, 2), pred(0, CompareOp::Le, 11)])
            .select(vec![pred(1, CompareOp::Ne, 1)]),
        "filter-fuse",
    );
}

#[test]
fn filter_into_scan_is_sound() {
    prove_rule(
        Expr::scan("ta").select(vec![pred(0, CompareOp::Ge, 4)]),
        "filter-into-scan",
    );
}

#[test]
fn filter_setop_push_is_sound() {
    prove_rule(
        Expr::scan("ta")
            .intersect(Expr::scan("tb"))
            .select(vec![pred(0, CompareOp::Le, 8)]),
        "filter-setop-push",
    );
    prove_rule(
        Expr::scan("ta")
            .union(Expr::scan("tb"))
            .select(vec![pred(1, CompareOp::Eq, 0)]),
        "filter-setop-push",
    );
    prove_rule(
        Expr::scan("ta")
            .difference(Expr::scan("tb"))
            .select(vec![pred(0, CompareOp::Lt, 7)]),
        "filter-setop-push",
    );
}

#[test]
fn filter_join_push_is_sound() {
    // Column 0 tests the left operand, column 2 (the first surviving
    // column of B in a pure equi-join on col 1) tests the right.
    prove_rule(
        Expr::scan("ta")
            .join(Expr::scan("tb"), vec![JoinSpec::eq(1, 1)])
            .select(vec![pred(0, CompareOp::Ge, 2), pred(2, CompareOp::Le, 11)]),
        "filter-join-push",
    );
}

#[test]
fn filter_join_push_is_sound_deep_in_the_tree() {
    // The join sits at pre-order index 3, under a union, and its left
    // operand is a one-column projection rather than a scan: the rule
    // reads both operand arities from the analysis at those positions, so
    // c0 tests the projection and c1 (B's surviving c0) tests `tb`.
    prove_rule(
        Expr::scan("ta").union(
            Expr::scan("ta")
                .project(vec![1])
                .join(Expr::scan("tb"), vec![JoinSpec::eq(0, 1)])
                .select(vec![pred(0, CompareOp::Ge, 1), pred(1, CompareOp::Le, 11)]),
        ),
        "filter-join-push",
    );
}

#[test]
fn a_theta_join_filter_is_left_alone() {
    // Theta joins keep every column of both operands; pushing would need a
    // different column map, so the rule must not fire — and the chosen
    // plan still matches the baseline byte for byte.
    let expr = Expr::scan("ta")
        .join(Expr::scan("tb"), vec![JoinSpec::theta(0, 0, CompareOp::Lt)])
        .select(vec![pred(0, CompareOp::Ge, 2)]);
    let choice = planner::optimize(&expr, &view(), &MachineConfig::default()).unwrap();
    assert!(
        choice.rewrites.iter().all(|r| r.rule != "filter-join-push"),
        "{:?}",
        choice.rewrites
    );
    let base = fresh_system(Backend::Sim).run(&expr).unwrap();
    let opt = fresh_system(Backend::Sim).run(&choice.expr).unwrap();
    assert_eq!(base.result.rows(), opt.result.rows());
}

#[test]
fn rules_compose_to_fixpoint_across_passes() {
    // dedup-elim exposes the select, filter-setop-push moves it into the
    // scans: two different rules across engine passes, one sound plan.
    let expr = Expr::scan("ta")
        .union(Expr::scan("tb"))
        .dedup()
        .select(vec![pred(0, CompareOp::Ge, 3)]);
    let choice = planner::optimize(&expr, &view(), &MachineConfig::default()).unwrap();
    let fired: Vec<&str> = choice.rewrites.iter().map(|r| r.rule).collect();
    assert!(fired.contains(&"dedup-elim"), "{fired:?}");
    assert!(fired.contains(&"filter-setop-push"), "{fired:?}");
    assert!(choice.chosen.pulse_budget < choice.baseline.pulse_budget);
    let base = fresh_system(Backend::Sim).run(&expr).unwrap();
    let opt = fresh_system(Backend::Sim).run(&choice.expr).unwrap();
    assert_eq!(base.result.rows(), opt.result.rows());
}

#[test]
fn join_operands_keep_their_order_through_the_optimizer() {
    // Over all-int tables a join with its operands swapped has result
    // columns of the same domains, so SA009's column check cannot tell the
    // flip from the original although it permutes every row's values. No
    // rule swaps join operands: the chosen plan keeps both joins as
    // written, and it answers byte-identically on both backends.
    let expr = Expr::scan("ta").dedup().join(
        Expr::scan("ta").join(Expr::scan("ta"), vec![JoinSpec::eq(1, 0)]),
        vec![JoinSpec::eq(0, 1)],
    );
    let choice = planner::optimize(&expr, &view(), &MachineConfig::default()).unwrap();
    let Expr::Join(_, inner, specs) = &choice.expr else {
        panic!("the outer join is kept, got {:?}", choice.expr);
    };
    assert_eq!(specs, &vec![JoinSpec::eq(0, 1)]);
    assert_eq!(
        **inner,
        Expr::scan("ta").join(Expr::scan("ta"), vec![JoinSpec::eq(1, 0)])
    );
    assert!(choice.lints.is_empty(), "{:?}", choice.lints);
    for backend in [Backend::Sim, Backend::Columnar] {
        let base = fresh_system(backend).run(&expr).unwrap();
        let opt = fresh_system(backend).run(&choice.expr).unwrap();
        assert_eq!(base.result.rows(), opt.result.rows(), "{backend:?}");
    }
}
