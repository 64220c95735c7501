//! Property-based verification of the integrated machine: arbitrary
//! expression trees executed through the full disk/crossbar/device pipeline
//! must produce exactly the relation a direct operator interpreter
//! computes, and every schedule must respect the resource model.

use proptest::prelude::*;

use systolic_db::arrays::ops::{self, Execution};
use systolic_db::arrays::select::Predicate;
use systolic_db::arrays::JoinSpec;
use systolic_db::fabric::CompareOp;
use systolic_db::machine::{Backend, Expr, MachineConfig, Plan, System, TrackFilter};
use systolic_db::relation::gen::synth_schema;
use systolic_db::relation::MultiRelation;

/// The three base relations every generated expression draws on. All share
/// arity 2 so any operator combination is type-correct.
fn base(name: &str) -> MultiRelation {
    let rows: Vec<Vec<i64>> = match name {
        "r0" => (0..12).map(|i| vec![i, i * 2]).collect(),
        "r1" => (6..18).map(|i| vec![i, i * 2]).collect(),
        _ => (0..18).step_by(2).map(|i| vec![i, 100 + i]).collect(),
    };
    MultiRelation::new(synth_schema(2), rows).unwrap()
}

/// A structural interpreter: the semantics the machine must agree with.
fn interpret(expr: &Expr) -> MultiRelation {
    match expr {
        Expr::Scan { name, filter } => {
            let rel = base(name);
            match filter {
                Some(f) => f.apply(&rel),
                None => rel,
            }
        }
        Expr::Intersect(l, r) => {
            ops::intersect_with(
                &interpret(l),
                &interpret(r),
                Execution::Marching,
                Backend::Sim,
            )
            .unwrap()
            .0
        }
        Expr::Difference(l, r) => {
            ops::difference_with(
                &interpret(l),
                &interpret(r),
                Execution::Marching,
                Backend::Sim,
            )
            .unwrap()
            .0
        }
        Expr::Union(l, r) => {
            ops::union_with(
                &interpret(l),
                &interpret(r),
                Execution::Marching,
                Backend::Sim,
            )
            .unwrap()
            .0
        }
        Expr::Dedup(e) => {
            ops::dedup_with(&interpret(e), Execution::Marching, Backend::Sim)
                .unwrap()
                .0
        }
        Expr::Project(e, cols) => {
            ops::project_with(&interpret(e), cols, Execution::Marching, Backend::Sim)
                .unwrap()
                .0
        }
        Expr::Select(e, preds) => {
            ops::select_with(&interpret(e), preds, Execution::Marching, Backend::Sim)
                .unwrap()
                .0
        }
        Expr::Join(l, r, specs) => {
            ops::join_with(
                &interpret(l),
                &interpret(r),
                specs,
                Execution::Marching,
                Backend::Sim,
            )
            .unwrap()
            .0
        }
        Expr::Divide {
            dividend,
            divisor,
            key,
            ca,
            cb,
        } => {
            ops::divide_binary_with(
                &interpret(dividend),
                *key,
                *ca,
                &interpret(divisor),
                *cb,
                Execution::Marching,
                Backend::Sim,
            )
            .unwrap()
            .0
        }
        // A store is the identity on the result relation.
        Expr::Store(e, _) => interpret(e),
    }
}

/// Arbitrary expression trees over the base relations. Arity is preserved
/// by construction: set operations keep arity 2, so any subtree can feed
/// any other. (Join/divide change arity, so they only appear at the root.)
fn arb_set_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        Just(Expr::scan("r0")),
        Just(Expr::scan("r1")),
        Just(Expr::scan("r2")),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.intersect(r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.difference(r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.union(r)),
            inner.clone().prop_map(|e| e.dedup()),
        ]
    })
}

/// One query over `r0`: a track-filtered scan, or an on-device select of
/// one or two predicates. Constants reach outside `r0`'s value range.
fn arb_r0_query() -> impl Strategy<Value = Expr> {
    let term = || {
        let op = (0..CompareOp::ALL.len()).prop_map(|i| CompareOp::ALL[i]);
        (0usize..2, op, -2i64..26)
    };
    prop_oneof![
        term()
            .prop_map(|(col, op, value)| Expr::scan_filtered("r0", TrackFilter { col, op, value })),
        prop::collection::vec(term(), 1..3).prop_map(|terms| {
            let preds = terms
                .into_iter()
                .map(|(col, op, value)| Predicate::new(col, op, value))
                .collect();
            Expr::scan("r0").select(preds)
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn machine_execution_equals_direct_interpretation(expr in arb_set_expr()) {
        let mut sys = System::default_machine();
        sys.load_base("r0", base("r0"));
        sys.load_base("r1", base("r1"));
        sys.load_base("r2", base("r2"));
        let out = sys.run(&expr).unwrap();
        let expect = interpret(&expr);
        prop_assert!(out.result.set_eq(&expect), "expr {expr:?}");
        // Schedule sanity: events never overlap on the same resource.
        let events = out.timeline.events();
        for (i, e1) in events.iter().enumerate() {
            for e2 in events.iter().skip(i + 1) {
                if e1.resource == e2.resource {
                    prop_assert!(
                        e1.end_ns <= e2.start_ns || e2.end_ns <= e1.start_ns,
                        "resource {} double-booked: {:?} vs {:?}",
                        e1.resource, e1, e2
                    );
                }
            }
        }
    }

    #[test]
    fn root_join_over_arbitrary_set_subtrees(l in arb_set_expr(), r in arb_set_expr()) {
        let mut sys = System::default_machine();
        sys.load_base("r0", base("r0"));
        sys.load_base("r1", base("r1"));
        sys.load_base("r2", base("r2"));
        let expr = l.join(r, vec![JoinSpec::eq(0, 0)]);
        let out = sys.run(&expr).unwrap();
        let expect = interpret(&expr);
        prop_assert!(out.result.set_eq(&expect));
    }

    #[test]
    fn tiny_devices_never_change_results(expr in arb_set_expr()) {
        use systolic_db::arrays::ArrayLimits;
        use systolic_db::machine::DeviceKind;
        let mut sys = System::new(MachineConfig {
            devices: vec![
                (DeviceKind::SetOp, ArrayLimits::new(3, 3, 1)),
                (DeviceKind::Join, ArrayLimits::new(3, 3, 1)),
            ],
            ..MachineConfig::default()
        })
        .unwrap();
        sys.load_base("r0", base("r0"));
        sys.load_base("r1", base("r1"));
        sys.load_base("r2", base("r2"));
        let out = sys.run(&expr).unwrap();
        prop_assert!(out.result.set_eq(&interpret(&expr)));
    }

    #[test]
    fn pricing_from_cardinalities_equals_the_run(
        l in arb_set_expr(),
        r in arb_set_expr(),
        join in any::<bool>(),
        cut in 0i64..20,
    ) {
        use systolic_db::fabric::CompareOp;
        // Every shape-pure plan: the schedule priced from the run's own
        // per-step cardinalities is the run's schedule — on two disks, with
        // a logic-per-track load whose delivered size only `cards` knows.
        let mut sys = System::new(MachineConfig {
            disks: 2,
            ..MachineConfig::default()
        })
        .unwrap();
        sys.load_base("r0", base("r0"));
        sys.load_base("r1", base("r1"));
        sys.load_base("r2", base("r2"));
        let filter = TrackFilter { col: 0, op: CompareOp::Lt, value: cut };
        let l = l.union(Expr::scan_filtered("r0", filter));
        let expr = if join {
            l.join(r, vec![JoinSpec::eq(0, 0)])
        } else {
            l.difference(r)
        };
        let plan = Plan::compile(&expr);
        let ran = sys.run_plan(&plan).unwrap();
        let priced = sys.price_plan(&plan, &ran.step_rows).unwrap();
        prop_assert_eq!(priced.stats, ran.stats, "expr {}", expr);
        prop_assert_eq!(priced.timeline.events(), ran.timeline.events(), "expr {}", expr);
        prop_assert_eq!(priced.step_rows, ran.step_rows);
    }

    #[test]
    fn batches_over_one_base_relation_equal_their_solo_runs(
        queries in prop::collection::vec(arb_r0_query(), 2..7),
    ) {
        // Queries that all read `r0` — through the disk's track filter or
        // through the selection array — share nothing observable: on either
        // backend each one's standalone accounting inside the batch is its
        // run alone on a fresh machine.
        for backend in [Backend::Sim, Backend::Columnar] {
            let fresh = || {
                let mut sys = System::new(MachineConfig {
                    backend,
                    ..MachineConfig::default()
                })
                .unwrap();
                sys.load_base("r0", base("r0"));
                sys
            };
            let batch = fresh().run_batch_accounted(&queries).unwrap();
            prop_assert_eq!(batch.queries.len(), queries.len());
            for (expr, got) in queries.iter().zip(&batch.queries) {
                let solo = fresh().run(expr).unwrap();
                let at = format!("{expr} on {backend:?}");
                prop_assert_eq!(got.result.rows(), solo.result.rows(), "{}", at);
                prop_assert_eq!(got.stats, solo.stats, "{}", at);
                prop_assert_eq!(&got.step_rows, &solo.step_rows, "{}", at);
            }
        }
    }
}
