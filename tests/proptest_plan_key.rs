//! Soundness of the plan-cache key: the server keys a compiled plan by
//! the query text plus the catalog entries of the names the query scans
//! and stores into (`planner::names_fingerprint`). That is sound only if
//! the analyzer and the plan compiler read nothing else of the catalog.
//!
//! For generated catalogs — a pool of names, each present with some shape
//! or absent, plus unrelated tables — and generated queries over the pool
//! (with `store(...)` targets), both [`analyze`] and
//! [`planner::optimize`] must give the same result against the full view
//! and against the view cut down to the query's scanned and target names.

use proptest::prelude::*;

use systolic_db::analyzer::{analyze, CatalogView, ColumnInfo};
use systolic_db::arrays::{JoinSpec, Predicate};
use systolic_db::fabric::CompareOp;
use systolic_db::machine::{Expr, MachineConfig, TrackFilter};
use systolic_db::planner;
use systolic_db::relation::{DomainId, DomainKind};
use systolic_db::server::engine::{scan_names, store_names};

/// Names a query may mention; the generated catalog holds some of them.
const POOL: [&str; 6] = ["t0", "t1", "t2", "t3", "t4", "t5"];

/// Column shapes: two integer domains (so joins can mismatch) and a
/// string domain.
const COLUMNS: [ColumnInfo; 3] = [
    ColumnInfo {
        domain: DomainId(0),
        kind: DomainKind::Int,
    },
    ColumnInfo {
        domain: DomainId(1),
        kind: DomainKind::Str,
    },
    ColumnInfo {
        domain: DomainId(2),
        kind: DomainKind::Int,
    },
];

/// One pool entry: absent (`None`) or present with column shapes and rows.
type Entry = Option<(Vec<usize>, u64)>;

fn arb_entry() -> impl Strategy<Value = Entry> {
    prop_oneof![
        Just(None),
        (prop::collection::vec(0usize..3, 1..4), 0u64..40).prop_map(Some),
        (prop::collection::vec(0usize..1, 1..3), 0u64..40).prop_map(Some),
    ]
}

/// The pool entries plus how many unrelated tables sit beside them.
fn arb_catalog() -> impl Strategy<Value = (Vec<Entry>, usize)> {
    (prop::collection::vec(arb_entry(), POOL.len()), 0usize..12)
}

fn build_view(entries: &[Entry], noise: usize) -> CatalogView {
    let mut view = CatalogView::new();
    for (name, entry) in POOL.iter().zip(entries) {
        if let Some((cols, rows)) = entry {
            let columns: Vec<ColumnInfo> = cols.iter().map(|&c| COLUMNS[c]).collect();
            view.add_table(*name, columns, *rows);
        }
    }
    for k in 0..noise {
        view.add_table(
            format!("noise{k}"),
            vec![COLUMNS[k % 3]; 1 + k % 2],
            k as u64,
        );
    }
    view
}

/// `view` cut down to the names `expr` scans or stores into.
fn cut(view: &CatalogView, expr: &Expr) -> CatalogView {
    let mut out = CatalogView::new();
    for name in scan_names(expr).into_iter().chain(store_names(expr)) {
        if let Some(table) = view.table(&name) {
            out.add_table(name, table.columns.clone(), table.rows);
        }
    }
    out
}

fn arb_col() -> impl Strategy<Value = usize> {
    0usize..4
}

fn arb_op() -> impl Strategy<Value = CompareOp> {
    (0usize..CompareOp::ALL.len()).prop_map(|i| CompareOp::ALL[i])
}

fn arb_name() -> impl Strategy<Value = &'static str> {
    (0usize..POOL.len()).prop_map(|i| POOL[i])
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = (
        arb_name(),
        prop_oneof![
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
            (inner.clone(), arb_col(), arb_op(), -1i64..6)
                .prop_map(|(e, col, op, value)| e.select(vec![Predicate { col, op, value }])),
            (inner.clone(), inner.clone(), arb_col(), arb_col())
                .prop_map(|(l, r, a, b)| l.join(r, vec![JoinSpec::eq(a, b)])),
            (
                inner.clone(),
                inner.clone(),
                arb_col(),
                arb_col(),
                arb_col()
            )
                .prop_map(|(l, r, key, ca, cb)| l.divide(r, key, ca, cb)),
            (inner.clone(), arb_name()).prop_map(|(e, name)| e.store(name)),
        ]
    })
}

/// A query, often under a top-level `store(...)`.
fn arb_query() -> impl Strategy<Value = Expr> {
    prop_oneof![
        arb_expr(),
        (arb_expr(), arb_name()).prop_map(|(e, name)| e.store(name)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The analyzer's verdict reads only the query's names.
    #[test]
    fn analysis_reads_only_the_names_the_query_contains(
        catalog in arb_catalog(),
        expr in arb_query(),
    ) {
        let full = build_view(&catalog.0, catalog.1);
        let part = cut(&full, &expr);
        let machine = MachineConfig::default();
        prop_assert_eq!(
            format!("{:?}", analyze(&expr, &full, &machine, &[])),
            format!("{:?}", analyze(&expr, &part, &machine, &[])),
            "{:?}", expr
        );
    }

    /// So does the plan compiler's choice (everything but its wall time).
    #[test]
    fn the_chosen_plan_reads_only_the_names_the_query_contains(
        catalog in arb_catalog(),
        expr in arb_query(),
    ) {
        let full = build_view(&catalog.0, catalog.1);
        let part = cut(&full, &expr);
        let machine = MachineConfig::default();
        let render = |view: &CatalogView| match planner::optimize(&expr, view, &machine) {
            Ok(c) => format!(
                "{:?} {:?} {:?} {:?} {:?}",
                c.expr, c.baseline, c.chosen, c.rewrites, c.lints
            ),
            Err(diags) => format!("{diags:?}"),
        };
        prop_assert_eq!(render(&full), render(&part), "{:?}", expr);
    }
}
