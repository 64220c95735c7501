//! Property-based rewrite soundness: arbitrary (frequently ill-typed)
//! expression trees over a fixed catalog are fed to the plan compiler.
//! For every tree the analyzer accepts, the compiler must produce a
//! chosen plan that
//!
//! * never costs more §8 pulses than the unoptimized baseline;
//! * runs to a byte-identical result — same rows, in order — on the pulse
//!   simulator;
//! * stays byte-identical on the closed-form columnar backend, so the
//!   cheaper plan preserves the repo's backend-invariance guarantee;
//! * reports every accepted rewrite with a positive site count and a
//!   rule id from the default (sound) set.
//!
//! Trees the analyzer rejects must make the compiler err with the same
//! diagnostics rather than optimizing garbage.

use proptest::prelude::*;

use systolic_db::analyzer::{analyze, CatalogView, ColumnInfo};
use systolic_db::arrays::{JoinSpec, Predicate};
use systolic_db::fabric::CompareOp;
use systolic_db::machine::{Backend, Expr, MachineConfig, System, TrackFilter};
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
    let ts = MultiRelation::new(
        schema(&[D_STR, D_INT]),
        (0..6).map(|i| vec![i, i]).collect(),
    )
    .unwrap();
    let tc = MultiRelation::new(schema(&[D_INT]), (0..4).map(|i| vec![i]).collect()).unwrap();
    vec![("ta", ta), ("tb", tb), ("ts", ts), ("tc", tc)]
}

fn view() -> CatalogView {
    let mut v = CatalogView::new();
    let int = ColumnInfo {
        domain: D_INT,
        kind: DomainKind::Int,
    };
    let str_ = ColumnInfo {
        domain: D_STR,
        kind: DomainKind::Str,
    };
    v.add_table("ta", vec![int, int], 10);
    v.add_table("tb", vec![int, int], 8);
    v.add_table("ts", vec![str_, int], 6);
    v.add_table("tc", vec![int], 4);
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

fn arb_col() -> impl Strategy<Value = usize> {
    0usize..4
}

fn arb_op() -> impl Strategy<Value = CompareOp> {
    (0usize..CompareOp::ALL.len()).prop_map(|i| CompareOp::ALL[i])
}

fn arb_name() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("ta"), Just("ta"), Just("tb"), Just("ts"), Just("tc")]
}

fn arb_pred() -> impl Strategy<Value = Predicate> {
    (arb_col(), arb_op(), -1i64..6).prop_map(|(col, op, value)| Predicate { col, op, value })
}

/// Equi-heavy join specs so the join-push rule gets exercised alongside
/// the generic theta path.
fn arb_spec() -> impl Strategy<Value = JoinSpec> {
    prop_oneof![
        (arb_col(), arb_col()).prop_map(|(a, b)| JoinSpec::eq(a, b)),
        (arb_col(), arb_col(), arb_op()).prop_map(|(a, b, op)| JoinSpec::theta(a, b, op)),
    ]
}

/// Rewrite-rich trees: dedup/project/select layers over set operations
/// and joins, depth 3 so multi-pass compositions (dedup-elim exposing a
/// pushable filter, fuse chains) occur.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = (
        arb_name(),
        prop_oneof![
            Just(None),
            Just(None),
            Just(None),
            (arb_col(), arb_op(), -1i64..6).prop_map(|(col, op, value)| Some(TrackFilter {
                col,
                op,
                value
            })),
        ],
    )
        .prop_map(|(name, filter)| match filter {
            Some(f) => Expr::scan_filtered(name, f),
            None => Expr::scan(name),
        });
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.intersect(r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.difference(r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.union(r)),
            inner.clone().prop_map(|e| e.dedup()),
            (inner.clone(), prop::collection::vec(arb_col(), 1..3))
                .prop_map(|(e, cols)| e.project(cols)),
            (inner.clone(), prop::collection::vec(arb_pred(), 1..3))
                .prop_map(|(e, preds)| e.select(preds)),
            (
                inner.clone(),
                inner.clone(),
                prop::collection::vec(arb_spec(), 1..2)
            )
                .prop_map(|(l, r, specs)| l.join(r, specs)),
            (
                inner.clone(),
                inner.clone(),
                arb_col(),
                arb_col(),
                arb_col()
            )
                .prop_map(|(l, r, key, ca, cb)| l.divide(r, key, ca, cb)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The compiler's soundness contract over arbitrary accepted plans.
    #[test]
    fn chosen_plans_are_cheaper_and_byte_identical(expr in arb_expr()) {
        let machine = MachineConfig::default();
        let verdict = analyze(&expr, &view(), &machine, &[]);
        let choice = planner::optimize(&expr, &view(), &machine);
        match verdict {
            Err(diags) => {
                // Unanalyzable input must not be optimized into something
                // that "works": the compiler refuses with the same codes.
                let planner_diags = choice.expect_err("optimize must refuse what analyze refuses");
                let codes = |ds: &[systolic_db::analyzer::Diagnostic]| {
                    ds.iter().map(|d| d.code.code()).collect::<Vec<_>>()
                };
                prop_assert_eq!(codes(&diags), codes(&planner_diags));
            }
            Ok(baseline) => {
                let choice = choice.expect("optimize must accept what analyze accepts");
                prop_assert_eq!(choice.baseline.pulse_budget, baseline.pulse_budget);
                prop_assert!(
                    choice.chosen.pulse_budget <= choice.baseline.pulse_budget,
                    "rewritten plan regressed: {} -> {} for {:?}",
                    choice.baseline.pulse_budget, choice.chosen.pulse_budget, expr
                );
                for r in &choice.rewrites {
                    prop_assert!(r.sites > 0, "zero-site rewrite logged: {r:?}");
                    prop_assert!(
                        planner::Rule::default_set().iter().any(|d| d.id() == r.rule),
                        "unknown rule id {:?}", r.rule
                    );
                    prop_assert!(r.after_pulses <= r.before_pulses, "{r:?}");
                }
                // Differential proof, both backends.
                let base = fresh_system(Backend::Sim).run(&expr).expect("accepted plans run");
                let sim = fresh_system(Backend::Sim).run(&choice.expr).expect("chosen plans run");
                prop_assert_eq!(base.result.schema(), sim.result.schema());
                prop_assert_eq!(
                    base.result.rows(), sim.result.rows(),
                    "rows diverged for {:?} -> {:?}", expr, choice.expr
                );
                let columnar = fresh_system(Backend::Columnar)
                    .run(&choice.expr)
                    .expect("chosen plans run on the columnar backend");
                prop_assert_eq!(sim.result.rows(), columnar.result.rows());
                prop_assert_eq!(sim.stats.total_pulses, columnar.stats.total_pulses);
            }
        }
    }

    /// The explain renderings are total and deterministic over accepted
    /// plans — `sdb check --explain` can never panic or flap.
    #[test]
    fn explain_renderings_are_total_and_deterministic(expr in arb_expr()) {
        let machine = MachineConfig::default();
        if let Ok(choice) = planner::optimize(&expr, &view(), &machine) {
            let text = planner::render_explain(&choice);
            prop_assert!(text.contains("plan compiler:"), "{text}");
            let json = planner::json_explain(&choice);
            prop_assert!(json.starts_with("{\"optimizer\":"), "{json}");
            let again = planner::optimize(&expr, &view(), &machine).unwrap();
            prop_assert_eq!(text, planner::render_explain(&again));
        }
    }
}
