//! Analyzer soundness: a plan the static analyzer accepts must execute
//! cleanly on the machine, and any runtime typing/capacity failure must
//! have been flagged before the query touched the fabric.
//!
//! The generator deliberately produces a mix of well-typed plans and
//! broken ones — out-of-range columns, unknown relations, cross-domain
//! comparisons, arity-mismatched set operations, shadowing stores — over
//! a fixed catalog that is loaded identically into the [`System`] and the
//! analyzer's [`CatalogView`]. Every expression is executed (rejected ones
//! under `catch_unwind`, since untyped plans may panic deep in the
//! fabric); the property is the implication both ways:
//!
//! * accepted  ⇒  `System::run` returns `Ok`, within the analyzer's row
//!   and pulse bounds (the pulse budget is exact for one operator over
//!   unfiltered scans, where the row bounds are exact too);
//! * run fails ⇒  the analyzer rejected the plan up front.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use systolic_db::analyzer::{analyze, CatalogView, ColumnInfo};
use systolic_db::arrays::{ArrayLimits, JoinSpec, Predicate};
use systolic_db::fabric::CompareOp;
use systolic_db::machine::{push_selections, DeviceKind, Expr, MachineConfig, System, TrackFilter};
use systolic_db::relation::{Column, DomainId, DomainKind, MultiRelation, Schema};

/// Domain ids shared by the machine schemas and the analyzer view:
/// 0 = int, 1 = str, 2 = bool. The machine only compares ids; the view
/// additionally knows the kinds, which drives SA004.
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

/// The fixed base tables. `ghost` is never loaded (SA007 fodder); the
/// second column of `ta`/`tb` repeats (i % 3) so equi-joins match without
/// exploding.
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

/// Column indices straddle the widest arity (2) so some are out of range.
fn arb_col() -> impl Strategy<Value = usize> {
    0usize..4
}

fn arb_op() -> impl Strategy<Value = CompareOp> {
    (0usize..CompareOp::ALL.len()).prop_map(|i| CompareOp::ALL[i])
}

fn arb_name() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("ta"),
        Just("ta"),
        Just("tb"),
        Just("ts"),
        Just("tc"),
        Just("ghost"),
    ]
}

fn arb_pred() -> impl Strategy<Value = Predicate> {
    (arb_col(), arb_op(), -1i64..6).prop_map(|(col, op, value)| Predicate { col, op, value })
}

fn arb_spec() -> impl Strategy<Value = JoinSpec> {
    (arb_col(), arb_col(), arb_op()).prop_map(|(a, b, op)| JoinSpec::theta(a, b, op))
}

/// Arbitrary — frequently ill-typed — expression trees. Depth stays at 2
/// so even the plans the analyzer rejects stay cheap to actually run.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = (
        arb_name(),
        prop_oneof![
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
    leaf.prop_recursive(2, 10, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.intersect(r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.difference(r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.union(r)),
            inner.clone().prop_map(|e| e.dedup()),
            (inner.clone(), prop::collection::vec(arb_col(), 0..3))
                .prop_map(|(e, cols)| e.project(cols)),
            (inner.clone(), prop::collection::vec(arb_pred(), 1..3))
                .prop_map(|(e, preds)| e.select(preds)),
            (
                inner.clone(),
                inner.clone(),
                prop::collection::vec(arb_spec(), 1..3)
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
            (
                inner.clone(),
                prop_oneof![Just("out"), Just("out2"), Just("ta")]
            )
                .prop_map(|(e, name)| e.store(name)),
        ]
    })
}

/// Whether `expr` is one division-free operator over unfiltered scans, so
/// every row bound the analyzer prices at is the run's row count. (A
/// top-level selection is excluded: `push_selections` turns it into a
/// filtered load.)
fn one_operator_over_scans(expr: &Expr) -> bool {
    let scan = |e: &Expr| matches!(e, Expr::Scan { filter: None, .. });
    match expr {
        Expr::Intersect(l, r)
        | Expr::Difference(l, r)
        | Expr::Union(l, r)
        | Expr::Join(l, r, _) => scan(l) && scan(r),
        Expr::Dedup(e) | Expr::Project(e, _) => scan(e),
        _ => false,
    }
}

/// The default machine, and one whose 3 x 3 arrays split every table into
/// several tiles, where a remainder tile can cost more than a full one.
fn machines() -> [MachineConfig; 2] {
    let small = ArrayLimits::new(3, 3, 2);
    [
        MachineConfig::default(),
        MachineConfig {
            devices: vec![
                (DeviceKind::SetOp, small),
                (DeviceKind::Join, small),
                (DeviceKind::Divide, small),
            ],
            ..MachineConfig::default()
        },
    ]
}

fn fresh_system(machine: &MachineConfig) -> System {
    let mut sys = System::new(machine.clone()).unwrap();
    for (name, rel) in tables() {
        sys.load_base(name, rel);
    }
    sys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The soundness contract: accepted ⇒ clean execution, and (the
    /// contrapositive, witnessed directly on rejected plans too) a
    /// runtime failure of any flavour — typing error, capacity error, or
    /// an outright panic in the fabric — implies the analyzer flagged the
    /// plan before it was admitted.
    #[test]
    fn accepted_plans_execute_and_failures_were_flagged(expr in arb_expr()) {
        for machine in machines() {
            let verdict = analyze(&expr, &view(), &machine, &[]);
            // Run exactly what the server would run: the rewritten plan.
            let rewritten = push_selections(expr.clone());
            let ran = catch_unwind(AssertUnwindSafe(|| {
                let mut sys = fresh_system(&machine);
                sys.run(&rewritten).map(|out| (out.result.len(), out.stats))
            }));
            let executed_cleanly = matches!(&ran, Ok(Ok(_)));
            match &verdict {
                Ok(analysis) => {
                    prop_assert!(
                        executed_cleanly,
                        "analyzer accepted but execution failed: {expr:?} -> {ran:?}"
                    );
                    // The row bound really bounds the result.
                    let (rows, stats) = match &ran {
                        Ok(Ok((n, stats))) => (*n as u64, *stats),
                        _ => unreachable!(),
                    };
                    prop_assert!(
                        rows <= analysis.nodes.last().map(|n| n.rows_bound).unwrap_or(u64::MAX),
                        "result rows {rows} exceed the analyzer bound for {expr:?}"
                    );
                    // So does the pulse budget of the tree that runs (the
                    // machine's own price at the bounds, as the server
                    // profiles it)...
                    let ran_analysis = analyze(&rewritten, &view(), &machine, &[]);
                    let budget = ran_analysis.as_ref().map_or(0, |a| a.pulse_budget);
                    prop_assert!(
                        stats.total_pulses <= budget,
                        "{} pulses exceed the budget {budget} for {expr:?}",
                        stats.total_pulses
                    );
                    // ...and where every row bound is exact, it is what runs.
                    if one_operator_over_scans(&expr) {
                        prop_assert_eq!(analysis.pulse_budget, stats.total_pulses, "{:?}", expr);
                        prop_assert_eq!(analysis.nodes[0].tiles, stats.array_runs, "{:?}", expr);
                    }
                }
                Err(diags) => {
                    prop_assert!(!diags.is_empty(), "rejection with no diagnostics: {expr:?}");
                    // A rejected plan may still happen to run (the analyzer
                    // is conservative); nothing to assert about `ran` here —
                    // the binding direction is checked below.
                }
            }
            if !executed_cleanly {
                prop_assert!(
                    verdict.is_err(),
                    "execution failed but the analyzer accepted: {expr:?} -> {ran:?}"
                );
            }
        }
    }

    /// Every diagnostic carries a stable SA00N code and a message, and the
    /// JSON rendering is well-formed enough to embed both.
    #[test]
    fn diagnostics_carry_stable_codes(expr in arb_expr()) {
        if let Err(diags) = analyze(&expr, &view(), &MachineConfig::default(), &[]) {
            for d in &diags {
                let code = d.code.code();
                prop_assert!(code.starts_with("SA") && code.len() == 5, "bad code {code:?}");
                prop_assert!(!d.message.is_empty());
                let json = d.json();
                prop_assert!(json.contains(&format!("\"code\": \"{code}\"")), "json {json}");
            }
        }
    }
}
