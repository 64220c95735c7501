//! Synthetic workload generators.
//!
//! The paper evaluates against assumed "typical" relations (§8). These
//! generators build deterministic (seeded) random instances with the knobs
//! that matter for the reproduced experiments: cardinality, tuple width,
//! overlap between two relations (intersection selectivity), duplication
//! factor (remove-duplicates work), key skew (join fan-out) and division
//! instances with a known quotient.

use std::collections::HashSet;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::domain::{DomainId, Elem};
use crate::relation::{MultiRelation, Relation, Row};
use crate::schema::Schema;

/// The domain id used by all synthetic columns; generated relations are
/// union-compatible with each other when their arities match.
pub const SYNTH_DOMAIN: DomainId = DomainId(0);

/// A uniform integer schema of arity `m` over [`SYNTH_DOMAIN`].
pub fn synth_schema(m: usize) -> Schema {
    Schema::uniform(m, SYNTH_DOMAIN)
}

/// A random multi-relation: `n` rows, `m` columns, elements uniform in
/// `0..domain_size`. Duplicates occur with the birthday-bound probability
/// implied by the parameters.
pub fn random_multi(rng: &mut impl Rng, n: usize, m: usize, domain_size: Elem) -> MultiRelation {
    let mut out = MultiRelation::empty(synth_schema(m));
    for _ in 0..n {
        let row: Row = (0..m).map(|_| rng.gen_range(0..domain_size)).collect();
        out.push(&row).expect("generated row has schema arity");
    }
    out
}

/// A random *relation* (duplicate-free): rejection-samples rows until `n`
/// distinct ones exist.
///
/// # Panics
/// Panics if `domain_size^m < n` (the domain cannot hold `n` distinct rows).
pub fn random_relation(rng: &mut impl Rng, n: usize, m: usize, domain_size: Elem) -> Relation {
    let capacity = (domain_size as u128).checked_pow(m as u32);
    assert!(
        capacity.is_none_or(|c| c >= n as u128),
        "domain too small for {n} distinct rows"
    );
    let mut seen: HashSet<Row> = HashSet::with_capacity(n);
    let mut rows = Vec::with_capacity(n);
    while rows.len() < n {
        let row: Row = (0..m).map(|_| rng.gen_range(0..domain_size)).collect();
        if seen.insert(row.clone()) {
            rows.push(row);
        }
    }
    Relation::new(synth_schema(m), rows).expect("rows are distinct by construction")
}

/// Two relations `(A, B)` of the given sizes where a fraction `overlap` of
/// `B`'s tuples are drawn from `A` (so `|A ∩ B| ≈ overlap x n_b`). Useful
/// for the intersection/difference experiments (E3).
pub fn pair_with_overlap(
    rng: &mut impl Rng,
    n_a: usize,
    n_b: usize,
    m: usize,
    overlap: f64,
) -> (Relation, Relation) {
    assert!((0.0..=1.0).contains(&overlap), "overlap must be a fraction");
    // Use disjoint halves of a large domain so non-shared rows never collide.
    let domain = (4 * (n_a + n_b).max(2)) as Elem;
    let a = random_relation(rng, n_a, m, domain);
    let shared = ((n_b as f64) * overlap).round() as usize;
    let shared = shared.min(n_a).min(n_b);
    let mut rows: Vec<Row> = a
        .rows()
        .to_vec()
        .choose_multiple(rng, shared)
        .cloned()
        .collect();
    let mut seen: HashSet<Row> = rows.iter().cloned().collect();
    seen.extend(a.rows().iter().map(<[Elem]>::to_vec));
    while rows.len() < n_b {
        let row: Row = (0..m).map(|_| domain + rng.gen_range(0..domain)).collect();
        if seen.insert(row.clone()) {
            rows.push(row);
        }
    }
    rows.shuffle(rng);
    let b = Relation::new(synth_schema(m), rows).expect("distinct by construction");
    (a, b)
}

/// A multi-relation with `n_unique` distinct tuples, each duplicated on
/// average `dup_factor` times, in shuffled order — the remove-duplicates
/// workload (E4).
pub fn with_duplicates(
    rng: &mut impl Rng,
    n_unique: usize,
    dup_factor: usize,
    m: usize,
) -> MultiRelation {
    assert!(dup_factor >= 1);
    let base = random_relation(rng, n_unique, m, (4 * n_unique.max(1)) as Elem);
    let mut rows = Vec::with_capacity(n_unique * dup_factor);
    for row in base.rows() {
        // 1..=2*dup_factor-1 keeps the mean at dup_factor.
        let copies = if dup_factor == 1 {
            1
        } else {
            rng.gen_range(1..=(2 * dup_factor - 1))
        };
        for _ in 0..copies {
            rows.push(row.to_vec());
        }
    }
    rows.shuffle(rng);
    MultiRelation::new(synth_schema(m), rows).expect("schema arity matches")
}

/// Zipf-distributed keys over `0..universe` with exponent `s` — models the
/// skewed join columns of E5. A hand-rolled inverse-CDF sampler (no extra
/// dependency).
pub fn zipf_keys(rng: &mut impl Rng, n: usize, universe: usize, s: f64) -> Vec<Elem> {
    assert!(universe >= 1);
    let weights: Vec<f64> = (1..=universe).map(|k| 1.0 / (k as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(universe);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            let idx = cdf.partition_point(|&c| c < u).min(universe - 1);
            idx as Elem
        })
        .collect()
}

/// A join workload: `A` with `m_a` columns whose column `key_a` and `B`'s
/// column `key_b` are drawn from `0..key_universe` (optionally Zipf-skewed
/// with exponent `skew`; `skew == 0.0` is uniform).
pub fn join_pair(
    rng: &mut impl Rng,
    n_a: usize,
    n_b: usize,
    m_a: usize,
    m_b: usize,
    key_universe: usize,
    skew: f64,
) -> (MultiRelation, MultiRelation, usize, usize) {
    let key_a = 0;
    let key_b = 0;
    let keys_a = if skew > 0.0 {
        zipf_keys(rng, n_a, key_universe, skew)
    } else {
        (0..n_a)
            .map(|_| rng.gen_range(0..key_universe as Elem))
            .collect()
    };
    let keys_b = if skew > 0.0 {
        zipf_keys(rng, n_b, key_universe, skew)
    } else {
        (0..n_b)
            .map(|_| rng.gen_range(0..key_universe as Elem))
            .collect()
    };
    let payload_domain = 1_000_000;
    let mut a = MultiRelation::empty(synth_schema(m_a));
    for &k in &keys_a {
        let mut row = vec![k];
        row.extend((1..m_a).map(|_| rng.gen_range(0..payload_domain)));
        a.push(&row).expect("arity");
    }
    let mut b = MultiRelation::empty(synth_schema(m_b));
    for &k in &keys_b {
        let mut row = vec![k];
        row.extend((1..m_b).map(|_| rng.gen_range(0..payload_domain)));
        b.push(&row).expect("arity");
    }
    (a, b, key_a, key_b)
}

/// A division instance `(A, B, expected_quotient)` (E6): binary dividend
/// `A(x, y)`, unary divisor `B(y)` with `divisor_size` values, and exactly
/// `quotient_size` of the `x_universe` x-values paired with *all* divisor
/// values (the rest get proper subsets plus noise).
pub fn division_instance(
    rng: &mut impl Rng,
    x_universe: usize,
    divisor_size: usize,
    quotient_size: usize,
) -> (MultiRelation, MultiRelation, Vec<Elem>) {
    assert!(quotient_size <= x_universe);
    assert!(divisor_size >= 1);
    let ys: Vec<Elem> = (0..divisor_size as Elem).collect();
    let noise_base = divisor_size as Elem; // y-values outside the divisor
    let mut xs: Vec<Elem> = (0..x_universe as Elem).collect();
    xs.shuffle(rng);
    let quotient: Vec<Elem> = xs[..quotient_size].to_vec();
    let mut rows: Vec<Row> = Vec::new();
    for &x in &xs {
        if quotient.contains(&x) {
            for &y in &ys {
                rows.push(vec![x, y]);
            }
            // Extra noise pairs are harmless for membership.
            if rng.gen_bool(0.5) {
                rows.push(vec![x, noise_base + rng.gen_range(0..4)]);
            }
        } else if divisor_size == 1 {
            // The only proper subset of a 1-element divisor is empty: give
            // this x noise rows only.
            rows.push(vec![x, noise_base + rng.gen_range(0..4)]);
        } else {
            // A proper, possibly-empty subset of the divisor.
            let keep = rng.gen_range(0..divisor_size); // strictly < divisor_size
            for &y in ys.iter().take(keep) {
                rows.push(vec![x, y]);
            }
            rows.push(vec![x, noise_base + rng.gen_range(0..4)]);
        }
    }
    rows.shuffle(rng);
    rows.dedup(); // adjacent duplicates only; full dedup below
    let mut seen = HashSet::new();
    rows.retain(|r| seen.insert(r.clone()));
    let dividend = MultiRelation::new(synth_schema(2), rows).expect("arity 2");
    let divisor = MultiRelation::new(synth_schema(1), ys.iter().map(|&y| vec![y]).collect())
        .expect("arity 1");
    let mut quotient = quotient;
    quotient.sort_unstable();
    (dividend, divisor, quotient)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn random_relation_is_duplicate_free_with_exact_cardinality() {
        let r = random_relation(&mut rng(), 50, 3, 16);
        assert_eq!(r.len(), 50);
        assert!(r.as_multi().is_set());
    }

    #[test]
    #[should_panic(expected = "domain too small")]
    fn impossible_distinct_request_panics() {
        random_relation(&mut rng(), 10, 1, 3);
    }

    #[test]
    fn overlap_pair_has_requested_intersection_size() {
        let (a, b) = pair_with_overlap(&mut rng(), 40, 30, 2, 0.5);
        assert_eq!(a.len(), 40);
        assert_eq!(b.len(), 30);
        let inter = b.rows().iter().filter(|r| a.contains(r)).count();
        assert_eq!(inter, 15, "overlap 0.5 of 30 = 15 shared tuples");
    }

    #[test]
    fn zero_and_full_overlap_edges() {
        let (a, b) = pair_with_overlap(&mut rng(), 10, 10, 2, 0.0);
        assert_eq!(b.rows().iter().filter(|r| a.contains(r)).count(), 0);
        let (a, b) = pair_with_overlap(&mut rng(), 10, 10, 2, 1.0);
        assert_eq!(b.rows().iter().filter(|r| a.contains(r)).count(), 10);
    }

    #[test]
    fn duplicated_multi_has_expected_distinct_count() {
        let m = with_duplicates(&mut rng(), 20, 4, 2);
        assert_eq!(m.distinct_count(), 20);
        assert!(m.len() >= 20);
    }

    #[test]
    fn dup_factor_one_means_no_duplicates() {
        let m = with_duplicates(&mut rng(), 15, 1, 2);
        assert_eq!(m.len(), 15);
        assert!(m.is_set());
    }

    #[test]
    fn zipf_is_skewed_toward_small_keys() {
        let keys = zipf_keys(&mut rng(), 10_000, 100, 1.2);
        let zero = keys.iter().filter(|&&k| k == 0).count();
        let tail = keys.iter().filter(|&&k| k == 99).count();
        assert!(
            zero > 10 * tail.max(1),
            "zipf head {zero} should dwarf tail {tail}"
        );
        assert!(keys.iter().all(|&k| (0..100).contains(&k)));
    }

    #[test]
    fn join_pair_keys_live_in_the_universe() {
        let (a, b, ka, kb) = join_pair(&mut rng(), 30, 20, 3, 2, 8, 0.0);
        assert!(a.rows().iter().all(|r| (0..8).contains(&r[ka])));
        assert!(b.rows().iter().all(|r| (0..8).contains(&r[kb])));
        assert_eq!(a.arity(), 3);
        assert_eq!(b.arity(), 2);
    }

    #[test]
    fn division_instance_has_exactly_the_planted_quotient() {
        let (a, b, q) = division_instance(&mut rng(), 12, 4, 3);
        assert_eq!(q.len(), 3);
        // Reference check: x is in the quotient iff (x, y) in A for all y in B.
        let mut computed: Vec<Elem> = (0..12)
            .filter(|&x| b.rows().iter().all(|yr| a.contains(&[x, yr[0]])))
            .collect();
        computed.sort_unstable();
        assert_eq!(computed, q);
    }

    #[test]
    fn division_instance_single_element_divisor() {
        let (a, b, q) = division_instance(&mut rng(), 8, 1, 2);
        assert_eq!(b.len(), 1);
        let mut computed: Vec<Elem> = (0..8)
            .filter(|&x| b.rows().iter().all(|yr| a.contains(&[x, yr[0]])))
            .collect();
        computed.sort_unstable();
        assert_eq!(computed, q);
    }

    #[test]
    fn generators_are_deterministic_under_a_seed() {
        let a1 = random_multi(&mut StdRng::seed_from_u64(7), 10, 2, 100);
        let a2 = random_multi(&mut StdRng::seed_from_u64(7), 10, 2, 100);
        assert_eq!(a1, a2);
    }
}
