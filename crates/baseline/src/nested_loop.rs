//! Nested-loop baselines.
//!
//! These are the *exact* sequential analogues of the paper's arrays: they
//! perform the same all-pairs comparisons, one at a time, on a conventional
//! processor. They double as the executable specification the systolic
//! simulations are verified against, and as the E12 shape baseline (their
//! comparison counts grow as `n_A x n_B x m` while the systolic pipeline's
//! *latency* grows as `n_A + n_B + m`).

use systolic_fabric::CompareOp;
use systolic_relation::{MultiRelation, RelationError, Row};

use crate::counter::OpCounter;

/// `C = A ∩ B` (§4.1): the tuples of `A` that also appear in `B`. Keeps
/// `A`'s order; if `A` is a set the result is a set.
pub fn intersect(
    a: &MultiRelation,
    b: &MultiRelation,
    counter: &mut OpCounter,
) -> Result<MultiRelation, RelationError> {
    a.schema().require_union_compatible(b.schema())?;
    let mut out = MultiRelation::empty(a.schema().clone());
    for row_a in a.rows() {
        let mut hit = false;
        for row_b in b.rows() {
            // Like the hardware (§3.1), compare every element position.
            if counter.rows_equal_full(row_a, row_b) {
                hit = true;
            }
        }
        if hit {
            counter.moved();
            out.push(row_a)?;
        }
    }
    Ok(out)
}

/// `C = A - B` (§4.3): the tuples of `A` that do *not* appear in `B` — the
/// intersection array "with an inverter on the output line".
pub fn difference(
    a: &MultiRelation,
    b: &MultiRelation,
    counter: &mut OpCounter,
) -> Result<MultiRelation, RelationError> {
    a.schema().require_union_compatible(b.schema())?;
    let mut out = MultiRelation::empty(a.schema().clone());
    for row_a in a.rows() {
        let mut hit = false;
        for row_b in b.rows() {
            if counter.rows_equal_full(row_a, row_b) {
                hit = true;
            }
        }
        if !hit {
            counter.moved();
            out.push(row_a)?;
        }
    }
    Ok(out)
}

/// Remove-duplicates (§5): keep each tuple's first occurrence — "remove any
/// tuple a_i where there exists a t_{ij} = TRUE, for j < i".
pub fn dedup(a: &MultiRelation, counter: &mut OpCounter) -> MultiRelation {
    let rows = a.rows();
    let mut out = MultiRelation::empty(a.schema().clone());
    for (i, row) in rows.iter().enumerate() {
        let mut preceded = false;
        for prior in rows.iter().take(i) {
            if counter.rows_equal_full(row, prior) {
                preceded = true;
            }
        }
        if !preceded {
            counter.moved();
            out.push(row).expect("same schema");
        }
    }
    out
}

/// `C = A ∪ B` (§5): remove-duplicates over the concatenation `A + B`.
pub fn union(
    a: &MultiRelation,
    b: &MultiRelation,
    counter: &mut OpCounter,
) -> Result<MultiRelation, RelationError> {
    let concat = a.concat(b)?;
    Ok(dedup(&concat, counter))
}

/// Projection over `cols` followed by remove-duplicates (§5).
pub fn project(
    a: &MultiRelation,
    cols: &[usize],
    counter: &mut OpCounter,
) -> Result<MultiRelation, RelationError> {
    let stripped = a.project(cols)?;
    Ok(dedup(&stripped, counter))
}

/// The equi-join `C = A |x| B` over column pairs (§6): concatenate matching
/// tuples, dropping `B`'s copies of the join columns.
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
    let mut out = MultiRelation::empty(schema);
    for row_a in a.rows() {
        for row_b in b.rows() {
            counter.tuple_comparisons += 1;
            counter.element_comparisons += pairs.len() as u64;
            if pairs.iter().all(|&(ca, cb)| row_a[ca] == row_b[cb]) {
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

/// The theta-join (§6.3.2): any binary comparison per column pair. All
/// columns of both relations are kept (values in compared columns differ in
/// general, so neither copy is redundant).
pub fn theta_join(
    a: &MultiRelation,
    b: &MultiRelation,
    pairs: &[(usize, usize, CompareOp)],
    counter: &mut OpCounter,
) -> Result<MultiRelation, RelationError> {
    for &(ca, cb, _) in pairs {
        a.schema().column(ca)?;
        b.schema().column(cb)?;
    }
    let schema = a.schema().join(b.schema(), &[])?;
    let mut out = MultiRelation::empty(schema);
    for row_a in a.rows() {
        for row_b in b.rows() {
            counter.tuple_comparisons += 1;
            counter.element_comparisons += pairs.len() as u64;
            if pairs
                .iter()
                .all(|&(ca, cb, op)| op.eval(row_a[ca], row_b[cb]))
            {
                let mut joined: Row = row_a.to_vec();
                joined.extend(row_b.iter().copied());
                counter.moved();
                out.push(&joined)?;
            }
        }
    }
    Ok(out)
}

/// Relational division (§7) in the paper's restricted form: binary dividend
/// `A(A1, A2)`, unary divisor `B(B1)`. Returns the distinct `x` values of
/// `A1` such that `(x, y) ∈ A` for *every* `y ∈ B1` (\[2\] in the paper).
///
/// `ca` is the column of `A` compared against `B` (the paper's `C_A = A2`),
/// `key` the remaining column (`A1`).
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
    // Distinct dividend keys, first-occurrence order (the paper pre-loads
    // "(distinct) elements appearing in column A1", found by the
    // remove-duplicates array).
    let mut keys: Vec<i64> = Vec::new();
    for row in a.rows() {
        if !keys.contains(&row[key]) {
            keys.push(row[key]);
        }
    }
    let mut quotient = Vec::new();
    for &x in &keys {
        let all_present = b.rows().iter().all(|yrow| {
            let y = yrow[cb];
            a.rows().iter().any(|arow| {
                counter.tuple_comparisons += 1;
                counter.element_comparisons += 2;
                arow[key] == x && arow[ca] == y
            })
        });
        if all_present {
            counter.moved();
            quotient.push(x);
        }
    }
    Ok(quotient)
}

/// General relational division `C = A ÷ B` over column lists: group `A` by
/// its non-`ca` columns and keep groups whose `ca`-projection covers the
/// whole `cb`-projection of `B`. The straightforward generalisation the
/// paper calls "straightforward (as in the preceding section on the join)".
pub fn divide(
    a: &MultiRelation,
    ca: &[usize],
    b: &MultiRelation,
    cb: &[usize],
    counter: &mut OpCounter,
) -> Result<MultiRelation, RelationError> {
    if ca.len() != cb.len() || ca.is_empty() {
        return Err(RelationError::NotUnionCompatible {
            detail: format!(
                "division column lists have lengths {} vs {}",
                ca.len(),
                cb.len()
            ),
        });
    }
    for &c in ca {
        a.schema().column(c)?;
    }
    for &c in cb {
        b.schema().column(c)?;
    }
    let key_cols: Vec<usize> = (0..a.arity()).filter(|k| !ca.contains(k)).collect();
    if key_cols.is_empty() {
        return Err(RelationError::EmptyProjection);
    }
    let schema = a.schema().project(&key_cols)?;
    let divisor_rows: Vec<Row> = b
        .rows()
        .iter()
        .map(|r| cb.iter().map(|&c| r[c]).collect())
        .collect();
    let mut out = MultiRelation::empty(schema);
    let mut seen_keys: Vec<Row> = Vec::new();
    for row in a.rows() {
        let keyv: Row = key_cols.iter().map(|&c| row[c]).collect();
        if seen_keys.iter().any(|k| counter.rows_equal(k, &keyv)) {
            continue;
        }
        seen_keys.push(keyv.clone());
        let covers = divisor_rows.iter().all(|y| {
            a.rows().iter().any(|arow| {
                let ak: Row = key_cols.iter().map(|&c| arow[c]).collect();
                let av: Row = ca.iter().map(|&c| arow[c]).collect();
                counter.tuple_comparisons += 1;
                counter.element_comparisons += (ak.len() + av.len()) as u64;
                ak == keyv && &av == y
            })
        });
        if covers {
            counter.moved();
            out.push(&keyv)?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_relation::gen::synth_schema;
    use systolic_relation::Schema;

    fn multi(m: usize, rows: &[&[i64]]) -> MultiRelation {
        MultiRelation::new(synth_schema(m), rows.iter().map(|r| r.to_vec()).collect()).unwrap()
    }

    #[test]
    fn intersect_keeps_tuples_of_a_present_in_b() {
        let a = multi(2, &[&[1, 1], &[2, 2], &[3, 3]]);
        let b = multi(2, &[&[2, 2], &[4, 4], &[3, 3]]);
        let mut c = OpCounter::new();
        let r = intersect(&a, &b, &mut c).unwrap();
        assert_eq!(r.rows().to_vec(), [vec![2, 2], vec![3, 3]]);
        // Full comparisons: 3 x 3 tuple pairs x 2 elements.
        assert_eq!(c.tuple_comparisons, 9);
        assert_eq!(c.element_comparisons, 18);
    }

    #[test]
    fn difference_is_the_complement_of_intersection_within_a() {
        let a = multi(1, &[&[1], &[2], &[3]]);
        let b = multi(1, &[&[2]]);
        let mut c = OpCounter::new();
        let inter = intersect(&a, &b, &mut c).unwrap();
        let diff = difference(&a, &b, &mut c).unwrap();
        assert_eq!(inter.len() + diff.len(), a.len());
        assert_eq!(diff.rows().to_vec(), [vec![1], vec![3]]);
    }

    #[test]
    fn incompatible_schemas_are_rejected() {
        let a = multi(2, &[&[1, 1]]);
        let b = MultiRelation::new(
            Schema::uniform(1, systolic_relation::DomainId(0)),
            vec![vec![1]],
        )
        .unwrap();
        let mut c = OpCounter::new();
        assert!(intersect(&a, &b, &mut c).is_err());
        assert!(difference(&a, &b, &mut c).is_err());
        assert!(union(&a, &b, &mut c).is_err());
    }

    #[test]
    fn dedup_keeps_first_occurrences_in_order() {
        let a = multi(1, &[&[5], &[7], &[5], &[5], &[9], &[7]]);
        let mut c = OpCounter::new();
        let r = dedup(&a, &mut c);
        assert_eq!(r.rows().to_vec(), [vec![5], vec![7], vec![9]]);
    }

    #[test]
    fn union_merges_without_duplicates() {
        let a = multi(1, &[&[1], &[2]]);
        let b = multi(1, &[&[2], &[3]]);
        let mut c = OpCounter::new();
        let r = union(&a, &b, &mut c).unwrap();
        assert_eq!(r.rows().to_vec(), [vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn project_removes_duplicates_created_by_column_stripping() {
        let a = multi(3, &[&[1, 10, 4], &[1, 20, 4], &[2, 10, 4]]);
        let mut c = OpCounter::new();
        let r = project(&a, &[0, 2], &mut c).unwrap();
        assert_eq!(r.rows().to_vec(), [vec![1, 4], vec![2, 4]]);
    }

    #[test]
    fn equi_join_concatenates_and_drops_redundant_column() {
        // A(x, k) join B(k, y) over k.
        let a = multi(2, &[&[10, 1], &[20, 2]]);
        let b = multi(2, &[&[1, 100], &[1, 101], &[3, 300]]);
        let mut c = OpCounter::new();
        let r = equi_join(&a, &b, &[(1, 0)], &mut c).unwrap();
        assert_eq!(r.rows().to_vec(), [vec![10, 1, 100], vec![10, 1, 101]]);
        assert_eq!(r.arity(), 3, "B's key column is dropped");
    }

    #[test]
    fn join_size_can_reach_the_product_bound() {
        // §6.2: "|C| might be as large as the product |A||B|".
        let a = multi(2, &[&[1, 7], &[2, 7]]);
        let b = multi(2, &[&[7, 1], &[7, 2], &[7, 3]]);
        let mut c = OpCounter::new();
        let r = equi_join(&a, &b, &[(1, 0)], &mut c).unwrap();
        assert_eq!(r.len(), 6);
    }

    #[test]
    fn theta_join_greater_than() {
        let a = multi(1, &[&[5], &[1]]);
        let b = multi(1, &[&[3], &[4]]);
        let mut c = OpCounter::new();
        let r = theta_join(&a, &b, &[(0, 0, CompareOp::Gt)], &mut c).unwrap();
        assert_eq!(r.rows().to_vec(), [vec![5, 3], vec![5, 4]]);
        assert_eq!(r.arity(), 2, "theta join keeps both columns");
    }

    #[test]
    fn multi_column_equi_join() {
        let a = multi(3, &[&[1, 2, 77], &[1, 3, 88]]);
        let b = multi(3, &[&[1, 2, 99], &[9, 9, 99]]);
        let mut c = OpCounter::new();
        let r = equi_join(&a, &b, &[(0, 0), (1, 1)], &mut c).unwrap();
        assert_eq!(r.rows().to_vec(), [vec![1, 2, 77, 99]]);
    }

    #[test]
    fn divide_binary_reproduces_the_paper_example() {
        // Figure 7-1: A = {(i,a),(i,b),(i,c),(j,a),(j,c),(k,a),(i,d),(j,e),
        // (k,c),(k,d)}; B = {a,b,c,d}? The figure lists B = {a, b, c, d} and
        // C = {i}. Encode i,j,k as 1,2,3 and a..e as 10..14.
        let (i, j, k) = (1, 2, 3);
        let (va, vb, vc, vd, ve) = (10, 11, 12, 13, 14);
        let a = multi(
            2,
            &[
                &[i, va],
                &[i, vb],
                &[i, vc],
                &[j, va],
                &[j, vc],
                &[k, va],
                &[i, vd],
                &[j, ve],
                &[k, vc],
                &[k, vd],
            ],
        );
        let b = multi(1, &[&[va], &[vb], &[vc], &[vd]]);
        let mut c = OpCounter::new();
        let q = divide_binary(&a, 0, 1, &b, 0, &mut c).unwrap();
        assert_eq!(q, vec![i], "only i is paired with all of a, b, c, d");
    }

    #[test]
    fn general_divide_matches_binary_divide_on_binary_input() {
        let a = multi(2, &[&[1, 10], &[1, 11], &[2, 10], &[3, 10], &[3, 11]]);
        let b = multi(1, &[&[10], &[11]]);
        let mut c1 = OpCounter::new();
        let mut c2 = OpCounter::new();
        let q1 = divide_binary(&a, 0, 1, &b, 0, &mut c1).unwrap();
        let q2 = divide(&a, &[1], &b, &[0], &mut c2).unwrap();
        let q2_keys: Vec<i64> = q2.rows().iter().map(|r| r[0]).collect();
        assert_eq!(q1, q2_keys);
        assert_eq!(q1, vec![1, 3]);
    }

    #[test]
    fn divide_rejects_mismatched_column_lists() {
        let a = multi(2, &[&[1, 10]]);
        let b = multi(1, &[&[10]]);
        let mut c = OpCounter::new();
        assert!(divide(&a, &[0, 1], &b, &[0], &mut c).is_err());
        assert!(divide(&a, &[], &b, &[], &mut c).is_err());
        // Dividing away every column leaves no quotient columns.
        assert!(divide(&a, &[0, 1], &b, &[0, 0], &mut c).is_err());
    }

    #[test]
    fn empty_divisor_yields_all_keys() {
        // Universal quantification over an empty set is vacuously true.
        let a = multi(2, &[&[1, 10], &[2, 11]]);
        let b = MultiRelation::empty(synth_schema(1));
        let mut c = OpCounter::new();
        let q = divide_binary(&a, 0, 1, &b, 0, &mut c).unwrap();
        assert_eq!(q, vec![1, 2]);
    }
}
