//! Cross-crate integration tests: typed data through the catalog, onto the
//! simulated arrays, through the integrated machine, and back out.

use systolic_db::arrays::ops::{self, Execution};
use systolic_db::arrays::{ArrayLimits, Backend, FixedOperandArray, JoinSpec, SetOpMode};
use systolic_db::baseline::{hashed, nested_loop, sorted, OpCounter};
use systolic_db::fabric::CompareOp;
use systolic_db::machine::{Expr, MachineConfig, System};
use systolic_db::relation::gen::{self, synth_schema};
use systolic_db::relation::{Catalog, Column, Datum, DomainKind, MultiRelation, Relation, Schema};

use rand::rngs::StdRng;
use rand::SeedableRng;

fn seq(range: std::ops::Range<i64>, m: usize) -> MultiRelation {
    MultiRelation::new(
        synth_schema(m),
        range
            .map(|i| (0..m).map(|c| i + c as i64).collect())
            .collect(),
    )
    .unwrap()
}

#[test]
fn typed_data_survives_the_full_pipeline() {
    // Strings -> dictionary encoding -> systolic intersection -> decoding.
    let mut catalog = Catalog::new();
    let words = catalog.add_domain("words", DomainKind::Str);
    let schema = Schema::new(vec![Column::new("w", words)]);
    let a = catalog
        .encode_multi(
            schema.clone(),
            &[
                vec![Datum::str("x")],
                vec![Datum::str("y")],
                vec![Datum::str("z")],
            ],
        )
        .unwrap();
    let b = catalog
        .encode_multi(
            schema.clone(),
            &[vec![Datum::str("y")], vec![Datum::str("q")]],
        )
        .unwrap();
    let (c, _) = ops::intersect_with(&a, &b, Execution::Marching, Backend::Sim).unwrap();
    let decoded = catalog.decode_row(&schema, &c.rows()[0]).unwrap();
    assert_eq!(decoded, vec![Datum::str("y")]);
    assert_eq!(c.len(), 1);
}

#[test]
fn machine_transactions_agree_with_direct_operator_calls() {
    let mut rng = StdRng::seed_from_u64(2026);
    let (a, b) = gen::pair_with_overlap(&mut rng, 24, 24, 2, 0.5);
    let (a, b) = (a.into_multi(), b.into_multi());
    let (c, _) = gen::pair_with_overlap(&mut rng, 16, 16, 2, 0.0);
    let c = c.into_multi();

    let mut sys = System::default_machine();
    sys.load_base("a", a.clone());
    sys.load_base("b", b.clone());
    sys.load_base("c", c.clone());
    let expr = Expr::scan("a")
        .intersect(Expr::scan("b"))
        .union(Expr::scan("c"));
    let out = sys.run(&expr).unwrap();

    let (i, _) = ops::intersect_with(&a, &b, Execution::Marching, Backend::Sim).unwrap();
    let (expect, _) = ops::union_with(&i, &c, Execution::Marching, Backend::Sim).unwrap();
    assert!(out.result.set_eq(&expect));
}

#[test]
fn three_baseline_families_and_three_executions_all_agree() {
    let mut rng = StdRng::seed_from_u64(99);
    let (ra, rb) = gen::pair_with_overlap(&mut rng, 20, 18, 3, 0.35);
    let (a, b) = (ra.into_multi(), rb.into_multi());
    let mut c = OpCounter::new();
    let reference = nested_loop::intersect(&a, &b, &mut c).unwrap();
    assert!(hashed::intersect(&a, &b, &mut c)
        .unwrap()
        .set_eq(&reference));
    assert!(sorted::intersect(&a, &b, &mut c)
        .unwrap()
        .set_eq(&reference));
    // The paper's array and the served device through `ops`, and §8's
    // resident operand run directly.
    for exec in [
        Execution::Marching,
        Execution::TiledPipelined(ArrayLimits::new(6, 5, 2)),
    ] {
        let (got, _) = ops::intersect_with(&a, &b, exec, Backend::Sim).unwrap();
        assert!(got.set_eq(&reference), "{exec:?}");
    }
    let fixed = FixedOperandArray::preload(&b.rows().to_vec())
        .run(&a.rows().to_vec(), SetOpMode::Intersect)
        .unwrap();
    assert!(a.filter_by_index(|i| fixed.keep[i]).set_eq(&reference));
}

#[test]
fn relational_algebra_identities_hold_on_the_hardware() {
    let mut rng = StdRng::seed_from_u64(7);
    let (ra, rb) = gen::pair_with_overlap(&mut rng, 15, 15, 2, 0.4);
    let (a, b) = (ra.into_multi(), rb.into_multi());
    let e = Execution::Marching;

    // A ∩ B == A - (A - B)
    let (inter, _) = ops::intersect_with(&a, &b, e, Backend::Sim).unwrap();
    let (amb, _) = ops::difference_with(&a, &b, e, Backend::Sim).unwrap();
    let (a_minus_amb, _) = ops::difference_with(&a, &amb, e, Backend::Sim).unwrap();
    assert!(inter.set_eq(&a_minus_amb));

    // |A ∪ B| == |A| + |B| - |A ∩ B| for duplicate-free A, B.
    let (uni, _) = ops::union_with(&a, &b, e, Backend::Sim).unwrap();
    assert_eq!(uni.len(), a.len() + b.len() - inter.len());

    // Union is commutative as a set.
    let (uni_ba, _) = ops::union_with(&b, &a, e, Backend::Sim).unwrap();
    assert!(uni.set_eq(&uni_ba));

    // Dedup is idempotent.
    let dup = a.concat(&a).unwrap();
    let (d1, _) = ops::dedup_with(&dup, e, Backend::Sim).unwrap();
    let (d2, _) = ops::dedup_with(&d1, e, Backend::Sim).unwrap();
    assert_eq!(d1.rows(), d2.rows());
    assert!(d1.set_eq(&a));
}

#[test]
fn join_then_project_recovers_join_keys() {
    let mut rng = StdRng::seed_from_u64(21);
    let (a, b, ka, kb) = gen::join_pair(&mut rng, 14, 14, 2, 2, 5, 0.0);
    let e = Execution::Marching;
    let (joined, _) = ops::join_with(&a, &b, &[JoinSpec::eq(ka, kb)], e, Backend::Sim).unwrap();
    if joined.is_empty() {
        return; // extremely unlikely with 5 keys over 14x14
    }
    let (keys, _) = ops::project_with(&joined, &[ka], e, Backend::Sim).unwrap();
    // Every surviving key appears in both inputs.
    for row in keys.rows() {
        assert!(a.rows().iter().any(|r| r[ka] == row[0]));
        assert!(b.rows().iter().any(|r| r[kb] == row[0]));
    }
}

#[test]
fn division_identity_quotient_times_divisor_is_contained_in_dividend() {
    let mut rng = StdRng::seed_from_u64(33);
    for _ in 0..5 {
        let (a, b, _) = gen::division_instance(&mut rng, 10, 4, 3);
        let (q, _) =
            ops::divide_binary_with(&a, 0, 1, &b, 0, Execution::Marching, Backend::Sim).unwrap();
        // (A ÷ B) x B ⊆ A …
        for qrow in q.rows() {
            for brow in b.rows() {
                assert!(a.contains(&[qrow[0], brow[0]]));
            }
        }
        // … and the quotient is maximal: any key not in it misses some y.
        let all_keys: std::collections::HashSet<i64> = a.rows().iter().map(|r| r[0]).collect();
        let q_keys: std::collections::HashSet<i64> = q.rows().iter().map(|r| r[0]).collect();
        for &x in all_keys.difference(&q_keys) {
            assert!(
                b.rows().iter().any(|brow| !a.contains(&[x, brow[0]])),
                "key {x} should be missing some divisor value"
            );
        }
    }
}

#[test]
fn theta_join_composes_with_set_difference() {
    // Rows of A strictly greater than every row of B in column 0:
    // A - project(theta_join(A, B, <=)).
    let a = seq(0..10, 1);
    let b = seq(4..6, 1);
    let e = Execution::Marching;
    let (le_pairs, _) = ops::join_with(
        &a,
        &b,
        &[JoinSpec::theta(0, 0, CompareOp::Le)],
        e,
        Backend::Sim,
    )
    .unwrap();
    let (le_keys, _) = ops::project_with(&le_pairs, &[0], e, Backend::Sim).unwrap();
    let (gt_all, _) = ops::difference_with(&a, &le_keys, e, Backend::Sim).unwrap();
    let expect: Vec<i64> = (6..10).collect();
    let got: Vec<i64> = gt_all.rows().iter().map(|r| r[0]).collect();
    assert_eq!(got, expect);
}

#[test]
fn heavily_constrained_machine_still_computes_correctly() {
    // One tiny device of each kind, two memories: everything serialises but
    // results are unchanged.
    let cfg = MachineConfig {
        memories: 2,
        devices: vec![
            (
                systolic_db::machine::DeviceKind::SetOp,
                ArrayLimits::new(3, 3, 1),
            ),
            (
                systolic_db::machine::DeviceKind::Join,
                ArrayLimits::new(3, 3, 1),
            ),
            (
                systolic_db::machine::DeviceKind::Divide,
                ArrayLimits::new(3, 3, 1),
            ),
        ],
        ..MachineConfig::default()
    };
    let mut sys = System::new(cfg).unwrap();
    sys.load_base("a", seq(0..20, 2));
    sys.load_base("b", seq(10..30, 2));
    let out = sys
        .run(&Expr::scan("a").intersect(Expr::scan("b")))
        .unwrap();
    assert_eq!(out.result.len(), 10);
    assert!(out.stats.array_runs > 1, "tiny array forces decomposition");
    assert_eq!(out.stats.max_device_concurrency, 1);
}

#[test]
fn relation_type_round_trips_through_operators() {
    let mut rng = StdRng::seed_from_u64(17);
    let r = gen::random_relation(&mut rng, 12, 2, 64);
    let (deduped, _) = ops::dedup_with(r.as_multi(), Execution::Marching, Backend::Sim).unwrap();
    // A relation is already duplicate-free: dedup is the identity.
    assert_eq!(deduped.rows(), r.rows());
    let back = Relation::dedup_first(&deduped);
    assert!(back.set_eq(&r));
}
