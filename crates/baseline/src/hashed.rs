//! Hash-based baselines — the algorithms a conventional software system
//! would actually use, included so the E12 shape experiment compares the
//! systolic design against a *strong* sequential opponent, not just the
//! naive nested loop.

use std::collections::{HashMap, HashSet};

use systolic_relation::{MultiRelation, RelationError, Row};

use crate::counter::OpCounter;

/// Hash intersection: build a set over `B`, probe with `A`.
pub fn intersect(
    a: &MultiRelation,
    b: &MultiRelation,
    counter: &mut OpCounter,
) -> Result<MultiRelation, RelationError> {
    a.schema().require_union_compatible(b.schema())?;
    let mut set: HashSet<&[i64]> = HashSet::with_capacity(b.len());
    for row in b.rows() {
        counter.hash();
        set.insert(row);
    }
    let mut out = MultiRelation::empty(a.schema().clone());
    for row in a.rows() {
        counter.hash();
        counter.tuple_comparisons += 1;
        if set.contains(row) {
            counter.moved();
            out.push(row)?;
        }
    }
    Ok(out)
}

/// Hash difference: build a set over `B`, keep the `A` rows that miss.
pub fn difference(
    a: &MultiRelation,
    b: &MultiRelation,
    counter: &mut OpCounter,
) -> Result<MultiRelation, RelationError> {
    a.schema().require_union_compatible(b.schema())?;
    let mut set: HashSet<&[i64]> = HashSet::with_capacity(b.len());
    for row in b.rows() {
        counter.hash();
        set.insert(row);
    }
    let mut out = MultiRelation::empty(a.schema().clone());
    for row in a.rows() {
        counter.hash();
        counter.tuple_comparisons += 1;
        if !set.contains(row) {
            counter.moved();
            out.push(row)?;
        }
    }
    Ok(out)
}

/// Hash remove-duplicates, keeping first occurrences.
pub fn dedup(a: &MultiRelation, counter: &mut OpCounter) -> MultiRelation {
    let mut seen: HashSet<&[i64]> = HashSet::with_capacity(a.len());
    let mut out = MultiRelation::empty(a.schema().clone());
    for row in a.rows() {
        counter.hash();
        if seen.insert(row) {
            counter.moved();
            out.push(row).expect("same schema");
        }
    }
    out
}

/// Hash union: dedup over the concatenation.
pub fn union(
    a: &MultiRelation,
    b: &MultiRelation,
    counter: &mut OpCounter,
) -> Result<MultiRelation, RelationError> {
    let concat = a.concat(b)?;
    Ok(dedup(&concat, counter))
}

/// Hash equi-join: build a multimap on `B`'s key columns, probe with `A`.
pub fn equi_join(
    a: &MultiRelation,
    b: &MultiRelation,
    pairs: &[(usize, usize)],
    counter: &mut OpCounter,
) -> Result<MultiRelation, RelationError> {
    let schema = a.schema().join(b.schema(), pairs)?;
    let drop_b: Vec<bool> = (0..b.arity())
        .map(|k| pairs.iter().any(|&(_, cb)| cb == k))
        .collect();
    let mut table: HashMap<Row, Vec<&[i64]>> = HashMap::with_capacity(b.len());
    for row in b.rows() {
        counter.hash();
        let key: Row = pairs.iter().map(|&(_, cb)| row[cb]).collect();
        table.entry(key).or_default().push(row);
    }
    let mut out = MultiRelation::empty(schema);
    for row_a in a.rows() {
        counter.hash();
        let key: Row = pairs.iter().map(|&(ca, _)| row_a[ca]).collect();
        if let Some(matches) = table.get(&key) {
            for row_b in matches {
                counter.element_comparisons += pairs.len() as u64;
                let mut joined: Row = row_a.to_vec();
                joined.extend(
                    row_b
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| !drop_b[*k])
                        .map(|(_, &e)| e),
                );
                counter.moved();
                out.push(&joined)?;
            }
        }
    }
    Ok(out)
}

/// Hash division: group the dividend by key column, test divisor coverage
/// per group with a set.
pub fn divide_binary(
    a: &MultiRelation,
    key: usize,
    ca: usize,
    b: &MultiRelation,
    cb: usize,
    counter: &mut OpCounter,
) -> Result<Vec<i64>, RelationError> {
    a.schema().column(key)?;
    a.schema().column(ca)?;
    b.schema().column(cb)?;
    let mut groups: HashMap<i64, HashSet<i64>> = HashMap::new();
    let mut order: Vec<i64> = Vec::new();
    for row in a.rows() {
        counter.hash();
        let entry = groups.entry(row[key]).or_insert_with(|| {
            order.push(row[key]);
            HashSet::new()
        });
        entry.insert(row[ca]);
    }
    let divisor: HashSet<i64> = b.rows().iter().map(|r| r[cb]).collect();
    let quotient = order
        .into_iter()
        .filter(|x| {
            counter.tuple_comparisons += divisor.len() as u64;
            divisor.iter().all(|y| groups[x].contains(y))
        })
        .collect();
    Ok(quotient)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nested_loop;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use systolic_relation::gen;

    /// All hash baselines must agree with the nested-loop specification on
    /// random inputs.
    #[test]
    fn hash_ops_agree_with_nested_loop_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..20 {
            let (a, b) = gen::pair_with_overlap(&mut rng, 20, 15, 2, 0.4);
            let (a, b) = (a.into_multi(), b.into_multi());
            let mut c1 = OpCounter::new();
            let mut c2 = OpCounter::new();
            assert!(
                intersect(&a, &b, &mut c1)
                    .unwrap()
                    .set_eq(&nested_loop::intersect(&a, &b, &mut c2).unwrap()),
                "intersection mismatch on trial {trial}"
            );
            assert!(difference(&a, &b, &mut c1)
                .unwrap()
                .set_eq(&nested_loop::difference(&a, &b, &mut c2).unwrap()));
            assert!(union(&a, &b, &mut c1)
                .unwrap()
                .set_eq(&nested_loop::union(&a, &b, &mut c2).unwrap()));
        }
    }

    #[test]
    fn hash_dedup_keeps_first_occurrences() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = gen::with_duplicates(&mut rng, 12, 3, 2);
        let mut c1 = OpCounter::new();
        let mut c2 = OpCounter::new();
        let h = dedup(&m, &mut c1);
        let n = nested_loop::dedup(&m, &mut c2);
        assert_eq!(h.rows(), n.rows(), "identical rows in identical order");
    }

    #[test]
    fn hash_join_agrees_with_nested_loop() {
        let mut rng = StdRng::seed_from_u64(9);
        let (a, b, ka, kb) = gen::join_pair(&mut rng, 25, 25, 3, 2, 6, 0.0);
        let mut c1 = OpCounter::new();
        let mut c2 = OpCounter::new();
        let h = equi_join(&a, &b, &[(ka, kb)], &mut c1).unwrap();
        let n = nested_loop::equi_join(&a, &b, &[(ka, kb)], &mut c2).unwrap();
        assert!(h.set_eq(&n));
        assert!(
            !h.is_empty(),
            "universe of 6 keys over 25x25 rows must match"
        );
    }

    #[test]
    fn hash_divide_agrees_with_nested_loop() {
        let mut rng = StdRng::seed_from_u64(11);
        let (a, b, expected) = gen::division_instance(&mut rng, 10, 3, 4);
        let mut c1 = OpCounter::new();
        let mut c2 = OpCounter::new();
        let mut h = divide_binary(&a, 0, 1, &b, 0, &mut c1).unwrap();
        let mut n = nested_loop::divide_binary(&a, 0, 1, &b, 0, &mut c2).unwrap();
        h.sort_unstable();
        n.sort_unstable();
        assert_eq!(h, n);
        assert_eq!(h, expected);
    }

    #[test]
    fn hash_work_is_linear_not_quadratic() {
        let mut rng = StdRng::seed_from_u64(13);
        let (a, b) = gen::pair_with_overlap(&mut rng, 100, 100, 2, 0.5);
        let (a, b) = (a.into_multi(), b.into_multi());
        let mut ch = OpCounter::new();
        let mut cn = OpCounter::new();
        intersect(&a, &b, &mut ch).unwrap();
        nested_loop::intersect(&a, &b, &mut cn).unwrap();
        assert_eq!(ch.hash_ops, 200, "one hash per row");
        assert_eq!(cn.tuple_comparisons, 10_000, "all pairs");
    }
}
