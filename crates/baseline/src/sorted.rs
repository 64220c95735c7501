//! Sort-merge baselines — the third sequential opponent for E12, with
//! `O(n log n)` comparison counts. Results are produced in sorted order;
//! comparisons with other implementations use set equality.

use systolic_relation::{MultiRelation, RelationError, Row};

use crate::counter::OpCounter;

/// Sort rows lexicographically, counting comparisons.
fn sorted_rows(rel: &MultiRelation, counter: &mut OpCounter) -> Vec<Row> {
    let mut rows: Vec<Row> = rel.rows().to_vec();
    // Count comparator invocations; element comparisons are bounded by the
    // lexicographic prefix examined.
    rows.sort_by(|a, b| {
        counter.tuple_comparisons += 1;
        for (x, y) in a.iter().zip(b) {
            counter.element_comparisons += 1;
            match x.cmp(y) {
                std::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        std::cmp::Ordering::Equal
    });
    rows
}

/// Sort-merge intersection.
pub fn intersect(
    a: &MultiRelation,
    b: &MultiRelation,
    counter: &mut OpCounter,
) -> Result<MultiRelation, RelationError> {
    a.schema().require_union_compatible(b.schema())?;
    let sa = sorted_rows(a, counter);
    let sb = sorted_rows(b, counter);
    let mut out = MultiRelation::empty(a.schema().clone());
    let (mut i, mut j) = (0, 0);
    while i < sa.len() && j < sb.len() {
        counter.tuple_comparisons += 1;
        counter.element_comparisons += sa[i].len() as u64;
        match sa[i].cmp(&sb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                counter.moved();
                out.push(&sa[i])?;
                // Skip duplicates of this row in A so each A-tuple appears
                // once, mirroring the set semantics of the array.
                let current = sa[i].clone();
                while i < sa.len() && sa[i] == current {
                    i += 1;
                }
                j += 1;
            }
        }
    }
    Ok(out)
}

/// Sort-merge difference (`A - B`).
pub fn difference(
    a: &MultiRelation,
    b: &MultiRelation,
    counter: &mut OpCounter,
) -> Result<MultiRelation, RelationError> {
    a.schema().require_union_compatible(b.schema())?;
    let sa = sorted_rows(a, counter);
    let sb = sorted_rows(b, counter);
    let mut out = MultiRelation::empty(a.schema().clone());
    let mut j = 0;
    for row in &sa {
        while j < sb.len() && sb[j].as_slice() < row.as_slice() {
            counter.tuple_comparisons += 1;
            j += 1;
        }
        counter.tuple_comparisons += 1;
        counter.element_comparisons += row.len() as u64;
        if j >= sb.len() || &sb[j] != row {
            counter.moved();
            out.push(row)?;
        }
    }
    Ok(out)
}

/// Sort-based remove-duplicates. NOTE: output order is sorted, not
/// first-occurrence; relation equality is set equality so this is legal.
pub fn dedup(a: &MultiRelation, counter: &mut OpCounter) -> MultiRelation {
    let rows = sorted_rows(a, counter);
    let mut out = MultiRelation::empty(a.schema().clone());
    for row in rows {
        counter.tuple_comparisons += 1;
        if out.rows().iter().next_back() != Some(row.as_slice()) {
            counter.moved();
            out.push(&row).expect("same schema");
        }
    }
    out
}

/// Sort-merge union.
pub fn union(
    a: &MultiRelation,
    b: &MultiRelation,
    counter: &mut OpCounter,
) -> Result<MultiRelation, RelationError> {
    let concat = a.concat(b)?;
    Ok(dedup(&concat, counter))
}

/// Sort-merge equi-join over a single column pair.
pub fn equi_join_single(
    a: &MultiRelation,
    b: &MultiRelation,
    ca: usize,
    cb: usize,
    counter: &mut OpCounter,
) -> Result<MultiRelation, RelationError> {
    let schema = a.schema().join(b.schema(), &[(ca, cb)])?;
    let mut sa: Vec<Row> = a.rows().to_vec();
    let mut sb: Vec<Row> = b.rows().to_vec();
    sa.sort_by_key(|r| r[ca]);
    sb.sort_by_key(|r| r[cb]);
    counter.tuple_comparisons += ((sa.len().max(1) as f64).log2().ceil() as u64) * sa.len() as u64;
    counter.tuple_comparisons += ((sb.len().max(1) as f64).log2().ceil() as u64) * sb.len() as u64;
    let mut out = MultiRelation::empty(schema);
    let (mut i, mut j) = (0, 0);
    while i < sa.len() && j < sb.len() {
        counter.element_comparisons += 1;
        match sa[i][ca].cmp(&sb[j][cb]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                // Emit the cross product of the two equal-key runs.
                let key = sa[i][ca];
                let i_end = (i..sa.len())
                    .take_while(|&x| sa[x][ca] == key)
                    .last()
                    .unwrap()
                    + 1;
                let j_end = (j..sb.len())
                    .take_while(|&x| sb[x][cb] == key)
                    .last()
                    .unwrap()
                    + 1;
                for row_a in &sa[i..i_end] {
                    for row_b in &sb[j..j_end] {
                        let mut joined = row_a.clone();
                        joined.extend(
                            row_b
                                .iter()
                                .enumerate()
                                .filter(|(k, _)| *k != cb)
                                .map(|(_, &e)| e),
                        );
                        counter.moved();
                        out.push(&joined)?;
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nested_loop;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use systolic_relation::gen;

    #[test]
    fn sorted_ops_agree_with_nested_loop_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let (a, b) = gen::pair_with_overlap(&mut rng, 18, 22, 3, 0.3);
            let (a, b) = (a.into_multi(), b.into_multi());
            let mut cs = OpCounter::new();
            let mut cn = OpCounter::new();
            assert!(intersect(&a, &b, &mut cs)
                .unwrap()
                .set_eq(&nested_loop::intersect(&a, &b, &mut cn).unwrap()));
            assert!(difference(&a, &b, &mut cs)
                .unwrap()
                .set_eq(&nested_loop::difference(&a, &b, &mut cn).unwrap()));
            assert!(union(&a, &b, &mut cs)
                .unwrap()
                .set_eq(&nested_loop::union(&a, &b, &mut cn).unwrap()));
        }
    }

    #[test]
    fn sorted_dedup_yields_the_same_set() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = gen::with_duplicates(&mut rng, 10, 4, 2);
        let mut cs = OpCounter::new();
        let mut cn = OpCounter::new();
        assert!(dedup(&m, &mut cs).set_eq(&nested_loop::dedup(&m, &mut cn)));
    }

    #[test]
    fn sorted_join_agrees_with_nested_loop() {
        let mut rng = StdRng::seed_from_u64(3);
        let (a, b, ka, kb) = gen::join_pair(&mut rng, 30, 30, 2, 2, 5, 0.0);
        let mut cs = OpCounter::new();
        let mut cn = OpCounter::new();
        let s = equi_join_single(&a, &b, ka, kb, &mut cs).unwrap();
        let n = nested_loop::equi_join(&a, &b, &[(ka, kb)], &mut cn).unwrap();
        assert!(s.set_eq(&n));
    }

    #[test]
    fn duplicate_rows_in_a_appear_once_in_intersection() {
        use systolic_relation::gen::synth_schema;
        let a = MultiRelation::new(synth_schema(1), vec![vec![1], vec![1], vec![2]]).unwrap();
        let b = MultiRelation::new(synth_schema(1), vec![vec![1]]).unwrap();
        let mut c = OpCounter::new();
        let r = intersect(&a, &b, &mut c).unwrap();
        assert_eq!(r.rows().to_vec(), [vec![1]]);
    }
}
