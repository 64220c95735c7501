//! Relation-level operator front-ends.
//!
//! This is the public API a downstream user calls: one `*_with` function
//! per operator takes relations from `systolic-relation`, checks the
//! paper's preconditions (union-compatibility etc.), runs the array of
//! the requested [`Execution`], and assembles the result relation from the
//! bits/matrix the array emits — exactly the division of labour the paper
//! describes (the array produces `t` bits or `T`; "it is then a simple
//! matter to use the t_i's to generate C from A", §4.2).
//!
//! There are two executions: the paper's array, as large as its operands
//! ([`Execution::Marching`], §3–§7), and the served device, a bounded
//! array that streams §8's tiles back to back
//! ([`Execution::TiledPipelined`]). §8's other layouts — the resident
//! operand ([`crate::fixed::FixedOperandArray`]) and the tiler that drains
//! between tiles ([`crate::tiling::t_matrix_tiled`]) — are called
//! directly by the experiments that study them, and priced by
//! [`crate::kernel`]'s closed forms.
//!
//! Each operator dispatches on its [`Backend`] exactly once:
//! [`Backend::Sim`] steps the array, [`Backend::Columnar`] takes the bits
//! from [`crate::columnar`] and the [`ExecStats`] from the `price_*`
//! function that prices the same run without data.

use systolic_fabric::{CompareOp, Elem};
use systolic_relation::{MultiRelation, RelationError, Row, Rows, Schema};

use crate::dedup::RemoveDuplicatesArray;
use crate::division::DivisionArray;
use crate::error::Result;
use crate::intersection::{IntersectionArray, SetOpMode};
use crate::join::{JoinArray, JoinSpec};
use crate::kernel::{self, Backend};
use crate::stats::ExecStats;
use crate::tiling::{self, ArrayLimits, Operand, Seed};

/// How to realise an operation in hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Execution {
    /// The §3–§7 designs: both relations march through an unbounded array.
    #[default]
    Marching,
    /// The §8 decomposition on the served device: a fixed-size physical
    /// array reused over tiles, successive tiles streamed back-to-back
    /// through the running array (the E19 pipelining), one pass per column
    /// group of at most `limits.max_cols` columns.
    TiledPipelined(ArrayLimits),
}

/// Result of an operator run: the output relation and the hardware cost.
pub type OpResult = (MultiRelation, ExecStats);

/// The analytic [`ExecStats`] a membership-style run (intersection,
/// difference, dedup — the marching array has an accumulation column; the
/// pipelined device uses the plain comparison grid and runs only the
/// `seed`'s live tiles) would have accumulated under `exec`.
fn kernel_membership_stats(
    exec: Execution,
    n_a: usize,
    n_b: usize,
    m: usize,
    seed: Seed,
) -> ExecStats {
    match exec {
        Execution::Marching => kernel::marching_membership_stats(n_a, n_b, m),
        Execution::TiledPipelined(limits) => kernel::pipelined_stats(n_a, n_b, m, limits, seed),
    }
}

/// Analytic [`ExecStats`] for [`intersect_with`]/[`difference_with`] on
/// inputs of `n_a`/`n_b` rows and arity `m`, **without the data**. Every
/// operator below charges hardware cost as a pure function of input shape
/// (the data-dependent exception is division, which is only bounded, by
/// [`price_divide_bound`]), so a scheduler that knows only cardinalities
/// can reproduce the exact [`ExecStats`] an actual run would produce —
/// including the empty-input short-circuits, which charge nothing.
pub fn price_membership(exec: Execution, n_a: usize, n_b: usize, m: usize) -> ExecStats {
    if n_a == 0 || n_b == 0 {
        return ExecStats::default();
    }
    kernel_membership_stats(exec, n_a, n_b, m, Seed::All)
}

/// Analytic [`ExecStats`] for [`dedup_with`] on `n` rows of arity `m`. A
/// tiled run has no live tile for one row, and then charges nothing either.
pub fn price_dedup(exec: Execution, n: usize, m: usize) -> ExecStats {
    if n == 0 {
        return ExecStats::default();
    }
    kernel_membership_stats(exec, n, n, m, Seed::StrictLower)
}

/// Analytic [`ExecStats`] for [`union_with`]: dedup over the concatenation.
pub fn price_union(exec: Execution, n_a: usize, n_b: usize, m: usize) -> ExecStats {
    price_dedup(exec, n_a + n_b, m)
}

/// Analytic [`ExecStats`] for [`project_with`] to `n_cols` columns: the
/// strip is free (it happens "while the tuples are retrieved"), the dedup
/// is priced at the stripped arity.
pub fn price_project(exec: Execution, n: usize, n_cols: usize) -> ExecStats {
    price_dedup(exec, n, n_cols)
}

/// Analytic [`ExecStats`] for [`select_with`] with `n_preds` predicates
/// over `n` rows. Selection always uses its dedicated one-row array, so no
/// `exec`.
pub fn price_select(n: usize, n_preds: usize) -> ExecStats {
    if n == 0 {
        return ExecStats::default();
    }
    kernel::fixed_t_matrix_stats(n, 1, n_preds)
}

/// Analytic [`ExecStats`] for [`join_with`] over `n_specs` column pairs.
pub fn price_join(exec: Execution, n_a: usize, n_b: usize, n_specs: usize) -> ExecStats {
    if n_a == 0 || n_b == 0 {
        return ExecStats::default();
    }
    match exec {
        Execution::Marching => kernel::compare_run_stats(n_a, n_b, n_specs),
        Execution::TiledPipelined(limits) => {
            kernel::pipelined_stats(n_a, n_b, n_specs, limits, Seed::All)
        }
    }
}

/// An upper bound on [`divide_binary_with`]'s [`ExecStats`] over `n`
/// dividend and `nd` divisor rows. Division is the one operator whose cost
/// depends on the data: its key dedup finds `k` distinct keys and its §7
/// pass sees `hits` matching pairs. Both passes are priced by the closed
/// forms a run charges, at `k = hits = n`, so the pulses exceed the run's
/// by exactly `n - k`.
pub fn price_divide_bound(exec: Execution, n: usize, nd: usize) -> ExecStats {
    if n == 0 {
        return ExecStats::default();
    }
    let mut stats = price_dedup(exec, n, 1);
    stats.merge_sequential(&kernel::division_stats(n, n, nd, n));
    stats
}

fn membership(
    a: &MultiRelation,
    b: &MultiRelation,
    mode: SetOpMode,
    exec: Execution,
    backend: Backend,
) -> Result<OpResult> {
    a.schema().require_union_compatible(b.schema())?;
    if a.is_empty() {
        return Ok((
            MultiRelation::empty(a.schema().clone()),
            ExecStats::default(),
        ));
    }
    if b.is_empty() {
        // Intersection with nothing is nothing; difference with nothing is A.
        let out = match mode {
            SetOpMode::Intersect => MultiRelation::empty(a.schema().clone()),
            SetOpMode::Difference => a.clone(),
        };
        return Ok((out, ExecStats::default()));
    }
    let (keep, stats) = match backend {
        Backend::Columnar => {
            let hits = crate::columnar::membership_bits(a.rows(), b);
            let keep = match mode {
                SetOpMode::Intersect => hits,
                SetOpMode::Difference => hits.into_iter().map(|x| !x).collect(),
            };
            (keep, price_membership(exec, a.len(), b.len(), a.arity()))
        }
        Backend::Sim => match exec {
            Execution::Marching => {
                let (a_rows, b_rows) = (a.rows().to_vec(), b.rows().to_vec());
                let out = IntersectionArray::new(a.arity()).run(&a_rows, &b_rows, mode)?;
                (out.keep, out.stats)
            }
            Execution::TiledPipelined(limits) => {
                // The tiler reads both relations' rows in place.
                let cols = tiling::every_column(a.arity());
                let (a_all, b_all) = (Operand::new(a.rows(), &cols), Operand::new(b.rows(), &cols));
                let ops_eq = vec![CompareOp::Eq; a.arity()];
                let out =
                    tiling::t_matrix_tiled_pipelined(a_all, b_all, &ops_eq, limits, Seed::All)?;
                let t = out.t.row_ors();
                let keep = match mode {
                    SetOpMode::Intersect => t,
                    SetOpMode::Difference => t.into_iter().map(|x| !x).collect(),
                };
                (keep, out.stats)
            }
        },
    };
    Ok((a.filter_by_index(|i| keep[i]), stats))
}

/// `C = A ∩ B` (§4). Requires union-compatibility.
pub fn intersect_with(
    a: &MultiRelation,
    b: &MultiRelation,
    exec: Execution,
    backend: Backend,
) -> Result<OpResult> {
    membership(a, b, SetOpMode::Intersect, exec, backend)
}

/// `C = A - B` (§4.3). Requires union-compatibility.
pub fn difference_with(
    a: &MultiRelation,
    b: &MultiRelation,
    exec: Execution,
    backend: Backend,
) -> Result<OpResult> {
    membership(a, b, SetOpMode::Difference, exec, backend)
}

/// Remove-duplicates (§5): turn a multi-relation into a relation, keeping
/// each tuple's first occurrence.
pub fn dedup_with(a: &MultiRelation, exec: Execution, backend: Backend) -> Result<OpResult> {
    if a.is_empty() {
        return Ok((a.clone(), ExecStats::default()));
    }
    // The §5 array compares A to itself with the strict-lower-triangle
    // seed: a row is dropped iff an earlier equal row exists.
    let (dup_flags, stats) = match backend {
        Backend::Columnar => (
            crate::columnar::duplicate_bits(a),
            price_dedup(exec, a.len(), a.arity()),
        ),
        Backend::Sim => match exec {
            Execution::Marching => {
                let out = RemoveDuplicatesArray::new(a.arity()).run(&a.rows().to_vec())?;
                // RemoveDuplicatesArray already returns keep flags.
                return Ok((a.filter_by_index(|i| out.keep[i]), out.stats));
            }
            Execution::TiledPipelined(limits) => {
                let cols = tiling::every_column(a.arity());
                let all = Operand::new(a.rows(), &cols);
                let ops_eq = vec![CompareOp::Eq; a.arity()];
                let out =
                    tiling::t_matrix_tiled_pipelined(all, all, &ops_eq, limits, Seed::StrictLower)?;
                (out.t.row_ors(), out.stats)
            }
        },
    };
    // The columnar and pipelined paths return "has an earlier duplicate"
    // flags.
    Ok((a.filter_by_index(|i| !dup_flags[i]), stats))
}

/// `C = A ∪ B` (§5): remove-duplicates over the concatenation `A + B`.
pub fn union_with(
    a: &MultiRelation,
    b: &MultiRelation,
    exec: Execution,
    backend: Backend,
) -> Result<OpResult> {
    let concat = a.concat(b)?;
    dedup_with(&concat, exec, backend)
}

/// Projection (§5): strip columns while the tuples are retrieved, then
/// remove duplicates with the array.
pub fn project_with(
    a: &MultiRelation,
    cols: &[usize],
    exec: Execution,
    backend: Backend,
) -> Result<OpResult> {
    let stripped = a.project(cols)?;
    dedup_with(&stripped, exec, backend)
}

/// Join (§6): equi or theta, over one or more column pairs. For pure
/// equi-joins `B`'s copies of the join columns are dropped from the result
/// schema; any theta comparator keeps all columns.
pub fn join_with(
    a: &MultiRelation,
    b: &MultiRelation,
    specs: &[JoinSpec],
    exec: Execution,
    backend: Backend,
) -> Result<OpResult> {
    if specs.is_empty() {
        return Err(RelationError::NotUnionCompatible {
            detail: "join requires at least one column pair".into(),
        }
        .into());
    }
    let pure_equi = specs.iter().all(|s| s.op == CompareOp::Eq);
    let schema: Schema = if pure_equi {
        let pairs: Vec<(usize, usize)> = specs.iter().map(|s| (s.col_a, s.col_b)).collect();
        a.schema().join(b.schema(), &pairs)?
    } else {
        for s in specs {
            a.schema().column(s.col_a)?;
            b.schema().column(s.col_b)?;
        }
        a.schema().join(b.schema(), &[])?
    };
    if a.is_empty() || b.is_empty() {
        return Ok((MultiRelation::empty(schema), ExecStats::default()));
    }
    let cols_a: Vec<usize> = specs.iter().map(|s| s.col_a).collect();
    let cols_b: Vec<usize> = specs.iter().map(|s| s.col_b).collect();
    if backend == Backend::Columnar && pure_equi {
        // The rows straight from key buckets, in `T`'s row-major order; no
        // matrix is built.
        let codes = crate::columnar::equi_join_rows(a.rows(), &cols_a, b.rows(), &cols_b);
        let stats = price_join(exec, a.len(), b.len(), specs.len());
        return Ok((MultiRelation::from_codes(schema, codes)?, stats));
    }
    let arr = JoinArray::new(specs.to_vec());
    let ops: Vec<CompareOp> = specs.iter().map(|s| s.op).collect();
    let (t, stats) = match backend {
        Backend::Columnar => {
            // A theta comparator: scan B's cached word planes column by
            // column — no key projections are materialized at all. The
            // matrix is independent of the tiling (tiles only partition the
            // pair space).
            let packed = b.columnar();
            let t = crate::columnar::t_matrix(a.rows(), &cols_a, &packed, &cols_b, &ops);
            (t, price_join(exec, a.len(), b.len(), ops.len()))
        }
        Backend::Sim => match exec {
            Execution::Marching => {
                let out = arr.t_matrix(&a.rows().to_vec(), &b.rows().to_vec())?;
                (out.t, out.stats)
            }
            Execution::TiledPipelined(limits) => {
                // The tiler reads the key columns of both relations in place.
                let (a_keys, b_keys) = (
                    Operand::new(a.rows(), &cols_a),
                    Operand::new(b.rows(), &cols_b),
                );
                let out =
                    tiling::t_matrix_tiled_pipelined(a_keys, b_keys, &ops, limits, Seed::All)?;
                (out.t, out.stats)
            }
        },
    };
    let codes = arr.assemble(a.rows(), b.rows(), &t);
    Ok((MultiRelation::from_codes(schema, codes)?, stats))
}

/// Selection (restriction): keep the tuples of `a` satisfying every
/// predicate. The predicates are resident in a one-row §8-style array and
/// the relation streams through (see [`crate::select`]); `exec` is accepted
/// for interface uniformity but selection always uses its dedicated array.
pub fn select_with(
    a: &MultiRelation,
    predicates: &[crate::select::Predicate],
    _exec: Execution,
    backend: Backend,
) -> Result<OpResult> {
    if predicates.is_empty() {
        return Err(RelationError::EmptyProjection.into());
    }
    for p in predicates {
        a.schema().column(p.col)?;
    }
    if a.is_empty() {
        return Ok((a.clone(), ExecStats::default()));
    }
    let (keep, stats) = match backend {
        Backend::Columnar => (
            crate::columnar::select_bits(&a.columnar(), predicates),
            price_select(a.len(), predicates.len()),
        ),
        Backend::Sim => {
            crate::select::SelectionArray::new(predicates.to_vec()).run(&a.rows().to_vec())?
        }
    };
    Ok((a.filter_by_index(|i| keep[i]), stats))
}

/// Relational division (§7), restricted case: binary dividend `A`, unary
/// divisor `B`. `key` is the quotient column of `A` (the paper's `A1`),
/// `ca` the column compared against `B`'s column `cb`.
///
/// The distinct dividend keys are identified with the remove-duplicates
/// array first (as the paper suggests), then pre-loaded into the division
/// array; the two runs' statistics are merged sequentially.
pub fn divide_binary_with(
    a: &MultiRelation,
    key: usize,
    ca: usize,
    b: &MultiRelation,
    cb: usize,
    exec: Execution,
    backend: Backend,
) -> Result<OpResult> {
    a.schema().column(key)?;
    a.schema().column(ca)?;
    b.schema().column(cb)?;
    let schema = a.schema().project(&[key])?;
    if a.is_empty() {
        return Ok((MultiRelation::empty(schema), ExecStats::default()));
    }
    // Step 1: distinct keys via the remove-duplicates machinery.
    let key_col = a.project(&[key])?;
    let (distinct, mut stats) = dedup_with(&key_col, exec, backend)?;
    let keys: Vec<Elem> = distinct.rows().iter().map(|r| r[0]).collect();
    // Step 2: the division array proper.
    let pairs: Vec<(Elem, Elem)> = a.rows().iter().map(|r| (r[key], r[ca])).collect();
    let divisor: Vec<Elem> = b.rows().iter().map(|r| r[cb]).collect();
    let (flags, run) = match backend {
        Backend::Columnar => {
            let (flags, hits) = crate::columnar::quotient_flags(&pairs, &keys, &divisor);
            let run = kernel::division_stats(pairs.len(), keys.len(), divisor.len(), hits);
            (flags, run)
        }
        Backend::Sim => {
            let out = DivisionArray.divide_with_keys(&pairs, &keys, &divisor, false)?;
            (out.quotient_flags, out.stats)
        }
    };
    stats.merge_sequential(&run);
    let quotient = keys
        .iter()
        .zip(&flags)
        .filter(|&(_, &f)| f)
        .map(|(&k, _)| k)
        .collect();
    Ok((MultiRelation::from_codes(schema, quotient)?, stats))
}

/// General relational division `C = A ÷ B` over column lists (§7: "the
/// extension from this to the general case is straightforward").
///
/// Multi-column keys and values are dictionary-encoded into composite
/// integers host-side (the same §2.3 trick that turns any domain into
/// integers), then the binary/unary division array is applied.
pub fn divide_with(
    a: &MultiRelation,
    ca: &[usize],
    b: &MultiRelation,
    cb: &[usize],
    exec: Execution,
    backend: Backend,
) -> Result<OpResult> {
    if ca.len() != cb.len() || ca.is_empty() {
        return Err(RelationError::NotUnionCompatible {
            detail: format!(
                "division column lists have lengths {} vs {}",
                ca.len(),
                cb.len()
            ),
        }
        .into());
    }
    for &c in ca {
        a.schema().column(c)?;
    }
    for &c in cb {
        b.schema().column(c)?;
    }
    let key_cols: Vec<usize> = (0..a.arity()).filter(|k| !ca.contains(k)).collect();
    if key_cols.is_empty() {
        return Err(RelationError::EmptyProjection.into());
    }
    let schema = a.schema().project(&key_cols)?;
    if a.is_empty() {
        return Ok((MultiRelation::empty(schema), ExecStats::default()));
    }
    // Single compared column: the multi-key division array (§7 general
    // case) compares the composite key entirely in hardware.
    if ca.len() == 1 {
        // Each row's key columns, then its compared column, end to end.
        let kw = key_cols.len();
        let mut codes = Vec::with_capacity(a.len() * (kw + 1));
        for row in a.rows() {
            codes.extend(key_cols.iter().map(|&c| row[c]));
            codes.push(row[ca[0]]);
        }
        let rows = Rows::new(&codes, kw + 1);
        let divisor: Vec<Elem> = b.rows().iter().map(|r| r[cb[0]]).collect();
        let (quotient, stats) = match backend {
            Backend::Columnar => {
                // First-occurrence distinct composite keys, as the array's
                // pre-load step identifies them.
                let mut seen = std::collections::HashSet::new();
                let key_codes: Vec<Elem> = rows
                    .iter()
                    .map(|row| &row[..kw])
                    .filter(|&key| seen.insert(key))
                    .flatten()
                    .copied()
                    .collect();
                let keys = Rows::new(&key_codes, kw);
                let (flags, hits) = crate::columnar::quotient_flags_multi(rows, keys, kw, &divisor);
                let stats =
                    kernel::division_multi_stats(rows.len(), keys.len(), kw, divisor.len(), hits);
                let quotient = keys
                    .iter()
                    .zip(&flags)
                    .filter(|&(_, &f)| f)
                    .flat_map(|(key, _)| key)
                    .copied()
                    .collect();
                (quotient, stats)
            }
            Backend::Sim => {
                let out = crate::division::DivisionArrayMulti::new(kw)
                    .divide(&rows.to_vec(), &divisor)?;
                (out.quotient.concat(), out.stats)
            }
        };
        return Ok((MultiRelation::from_codes(schema, quotient)?, stats));
    }
    // Composite encoding: every distinct key-projection / value-projection
    // row becomes one integer.
    let mut encode = CompositeEncoder::default();
    let (mut key, mut value) = (Vec::new(), Vec::new());
    let mut enc_rows = Vec::with_capacity(2 * a.len());
    for row in a.rows() {
        key.clear();
        key.extend(key_cols.iter().map(|&c| row[c]));
        value.clear();
        value.extend(ca.iter().map(|&c| row[c]));
        enc_rows.extend([encode.key(&key), encode.value(&value)]);
    }
    let mut enc_divisor = Vec::with_capacity(b.len());
    for row in b.rows() {
        value.clear();
        value.extend(cb.iter().map(|&c| row[c]));
        enc_divisor.push(encode.value(&value));
    }
    let enc_a = MultiRelation::from_codes(
        Schema::uniform(2, systolic_relation::DomainId(usize::MAX)),
        enc_rows,
    )?;
    let enc_b = MultiRelation::from_codes(
        Schema::uniform(1, systolic_relation::DomainId(usize::MAX)),
        enc_divisor,
    )?;
    let (quotient, stats) = divide_binary_with(&enc_a, 0, 1, &enc_b, 0, exec, backend)?;
    let codes = quotient
        .rows()
        .iter()
        .flat_map(|r| encode.decode_key(r[0]))
        .copied()
        .collect();
    Ok((MultiRelation::from_codes(schema, codes)?, stats))
}

/// Interning encoder mapping projection rows to composite integer codes.
#[derive(Default)]
struct CompositeEncoder {
    keys: Vec<Row>,
    key_index: std::collections::HashMap<Row, Elem>,
    values: std::collections::HashMap<Row, Elem>,
}

impl CompositeEncoder {
    fn key(&mut self, row: &[Elem]) -> Elem {
        if let Some(&code) = self.key_index.get(row) {
            return code;
        }
        let code = self.keys.len() as Elem;
        self.keys.push(row.to_vec());
        self.key_index.insert(row.to_vec(), code);
        code
    }

    fn value(&mut self, row: &[Elem]) -> Elem {
        let next = self.values.len() as Elem;
        *self.values.entry(row.to_vec()).or_insert(next)
    }

    fn decode_key(&self, code: Elem) -> &[Elem] {
        &self.keys[code as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use systolic_baseline::{nested_loop, OpCounter};
    use systolic_relation::gen::{self, synth_schema};

    const EXECS: [Execution; 4] = [
        Execution::Marching,
        Execution::TiledPipelined(ArrayLimits {
            max_a: 4,
            max_b: 3,
            max_cols: 3,
        }),
        // A 3-wide tuple runs as a 2-column and a 1-column group.
        Execution::TiledPipelined(ArrayLimits {
            max_a: 4,
            max_b: 3,
            max_cols: 2,
        }),
        // Every tuple wider than one column runs in column groups.
        Execution::TiledPipelined(ArrayLimits {
            max_a: 4,
            max_b: 3,
            max_cols: 1,
        }),
    ];

    fn multi(m: usize, rows: &[&[Elem]]) -> MultiRelation {
        MultiRelation::new(synth_schema(m), rows.iter().map(|r| r.to_vec()).collect()).unwrap()
    }

    #[test]
    fn set_ops_agree_with_reference_under_every_execution() {
        let mut rng = StdRng::seed_from_u64(555);
        for _ in 0..5 {
            let (a, b) = gen::pair_with_overlap(&mut rng, 11, 9, 2, 0.4);
            let (a, b) = (a.into_multi(), b.into_multi());
            let expect_i = nested_loop::intersect(&a, &b, &mut OpCounter::new()).unwrap();
            let expect_d = nested_loop::difference(&a, &b, &mut OpCounter::new()).unwrap();
            let expect_u = nested_loop::union(&a, &b, &mut OpCounter::new()).unwrap();
            for exec in EXECS {
                let (got, _) = intersect_with(&a, &b, exec, Backend::Sim).unwrap();
                assert!(got.set_eq(&expect_i), "{exec:?} intersection");
                let (got, _) = difference_with(&a, &b, exec, Backend::Sim).unwrap();
                assert!(got.set_eq(&expect_d), "{exec:?} difference");
                let (got, _) = union_with(&a, &b, exec, Backend::Sim).unwrap();
                assert!(got.set_eq(&expect_u), "{exec:?} union");
            }
        }
    }

    #[test]
    fn dedup_and_project_agree_with_reference_under_every_execution() {
        let mut rng = StdRng::seed_from_u64(556);
        let m = gen::with_duplicates(&mut rng, 7, 3, 3);
        let expect = nested_loop::dedup(&m, &mut OpCounter::new());
        let expect_p = nested_loop::project(&m, &[0, 2], &mut OpCounter::new()).unwrap();
        for exec in EXECS {
            let (got, _) = dedup_with(&m, exec, Backend::Sim).unwrap();
            assert_eq!(got.rows(), expect.rows(), "{exec:?} dedup order");
            let (got, _) = project_with(&m, &[0, 2], exec, Backend::Sim).unwrap();
            assert!(got.set_eq(&expect_p), "{exec:?} projection");
        }
    }

    #[test]
    fn join_agrees_with_reference_under_every_execution() {
        let mut rng = StdRng::seed_from_u64(557);
        let (a, b, ka, kb) = gen::join_pair(&mut rng, 9, 8, 3, 2, 4, 0.0);
        let expect = nested_loop::equi_join(&a, &b, &[(ka, kb)], &mut OpCounter::new()).unwrap();
        for exec in EXECS {
            let (got, _) = join_with(&a, &b, &[JoinSpec::eq(ka, kb)], exec, Backend::Sim).unwrap();
            assert!(got.set_eq(&expect), "{exec:?} join");
            assert_eq!(got.len(), expect.len(), "{exec:?} multiplicity");
        }
    }

    #[test]
    fn theta_join_keeps_all_columns() {
        let a = multi(1, &[&[5], &[1]]);
        let b = multi(1, &[&[3]]);
        let (got, _) = join_with(
            &a,
            &b,
            &[JoinSpec::theta(0, 0, CompareOp::Gt)],
            Execution::Marching,
            Backend::Sim,
        )
        .unwrap();
        assert_eq!(got.rows().to_vec(), [vec![5, 3]]);
        let expect =
            nested_loop::theta_join(&a, &b, &[(0, 0, CompareOp::Gt)], &mut OpCounter::new())
                .unwrap();
        assert!(got.set_eq(&expect));
    }

    #[test]
    fn division_agrees_with_reference_under_every_execution() {
        let mut rng = StdRng::seed_from_u64(558);
        let (a, b, expected) = gen::division_instance(&mut rng, 8, 3, 3);
        for exec in EXECS {
            let (got, _) = divide_binary_with(&a, 0, 1, &b, 0, exec, Backend::Sim).unwrap();
            let mut keys: Vec<Elem> = got.rows().iter().map(|r| r[0]).collect();
            keys.sort_unstable();
            assert_eq!(keys, expected, "{exec:?} division");
        }
    }

    #[test]
    fn general_division_with_composite_columns() {
        // A(x1, x2, y): quotient over (x1, x2) pairs.
        let a = multi(
            3,
            &[
                &[1, 1, 10],
                &[1, 1, 11],
                &[2, 2, 10],
                &[1, 2, 10],
                &[1, 2, 11],
            ],
        );
        let b = multi(1, &[&[10], &[11]]);
        let (got, _) = divide_with(&a, &[2], &b, &[0], Execution::Marching, Backend::Sim).unwrap();
        let expect = nested_loop::divide(&a, &[2], &b, &[0], &mut OpCounter::new()).unwrap();
        assert!(got.set_eq(&expect));
        assert_eq!(got.arity(), 2);
        assert!(got.contains(&[1, 1]));
        assert!(got.contains(&[1, 2]));
        assert!(!got.contains(&[2, 2]));
    }

    #[test]
    fn empty_relations_short_circuit() {
        let a = multi(1, &[&[1]]);
        let empty = MultiRelation::empty(synth_schema(1));
        let (r, s) = intersect_with(&a, &empty, Execution::Marching, Backend::Sim).unwrap();
        assert!(r.is_empty());
        assert_eq!(s.pulses, 0, "no array built for an empty operand");
        let (r, _) = difference_with(&a, &empty, Execution::Marching, Backend::Sim).unwrap();
        assert_eq!(r.rows(), a.rows());
        let (r, _) = intersect_with(&empty, &a, Execution::Marching, Backend::Sim).unwrap();
        assert!(r.is_empty());
        let (r, _) = dedup_with(&empty, Execution::Marching, Backend::Sim).unwrap();
        assert!(r.is_empty());
        let (r, _) = join_with(
            &empty,
            &a,
            &[JoinSpec::eq(0, 0)],
            Execution::Marching,
            Backend::Sim,
        )
        .unwrap();
        assert!(r.is_empty());
        let (r, _) =
            divide_binary_with(&empty, 0, 0, &a, 0, Execution::Marching, Backend::Sim).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn union_result_is_a_set() {
        let a = multi(1, &[&[1], &[2]]);
        let b = multi(1, &[&[2], &[2], &[3]]);
        let (r, _) = union_with(&a, &b, Execution::Marching, Backend::Sim).unwrap();
        assert!(r.is_set());
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn join_without_specs_is_an_error() {
        let a = multi(1, &[&[1]]);
        assert!(join_with(&a, &a, &[], Execution::Marching, Backend::Sim).is_err());
    }

    #[test]
    fn select_filters_and_validates_columns() {
        use crate::select::Predicate;
        let a = multi(2, &[&[1, 10], &[2, 20], &[3, 30]]);
        let (kept, stats) = select_with(
            &a,
            &[Predicate::new(1, CompareOp::Gt, 10)],
            Execution::Marching,
            Backend::Sim,
        )
        .unwrap();
        assert_eq!(kept.rows().to_vec(), [vec![2, 20], vec![3, 30]]);
        assert!(stats.pulses > 0);
        // Out-of-range column and empty predicate list are errors.
        assert!(select_with(
            &a,
            &[Predicate::new(9, CompareOp::Eq, 0)],
            Execution::Marching,
            Backend::Sim
        )
        .is_err());
        assert!(select_with(&a, &[], Execution::Marching, Backend::Sim).is_err());
        // Empty input short-circuits.
        let empty = MultiRelation::empty(synth_schema(2));
        let (out, s) = select_with(
            &empty,
            &[Predicate::new(0, CompareOp::Eq, 1)],
            Execution::Marching,
            Backend::Sim,
        )
        .unwrap();
        assert!(out.is_empty());
        assert_eq!(s.pulses, 0);
    }

    #[test]
    fn columnar_backend_is_bit_identical_to_sim_across_every_execution() {
        // The invariant at the ops layer: same result rows, same ExecStats
        // as the simulated arrays, for every operator under every
        // execution strategy.
        let mut rng = StdRng::seed_from_u64(600);
        let (a, b) = gen::pair_with_overlap(&mut rng, 13, 10, 2, 0.4);
        let (a, b) = (a.into_multi(), b.into_multi());
        let dupes = gen::with_duplicates(&mut rng, 9, 3, 3);
        let (da, db, _) = gen::division_instance(&mut rng, 8, 3, 3);
        let backend = Backend::Columnar;
        for exec in EXECS {
            let sim = intersect_with(&a, &b, exec, Backend::Sim).unwrap();
            let fast = intersect_with(&a, &b, exec, backend).unwrap();
            assert_eq!(fast.0.rows(), sim.0.rows(), "{backend} {exec:?} intersect");
            assert_eq!(fast.1, sim.1, "{backend} {exec:?} intersect stats");
            let sim = difference_with(&a, &b, exec, Backend::Sim).unwrap();
            let fast = difference_with(&a, &b, exec, backend).unwrap();
            assert_eq!(fast.0.rows(), sim.0.rows(), "{backend} {exec:?} difference");
            assert_eq!(fast.1, sim.1, "{backend} {exec:?} difference stats");
            let sim = union_with(&a, &b, exec, Backend::Sim).unwrap();
            let fast = union_with(&a, &b, exec, backend).unwrap();
            assert_eq!(fast.0.rows(), sim.0.rows(), "{backend} {exec:?} union");
            assert_eq!(fast.1, sim.1, "{backend} {exec:?} union stats");
            let sim = dedup_with(&dupes, exec, Backend::Sim).unwrap();
            let fast = dedup_with(&dupes, exec, backend).unwrap();
            assert_eq!(fast.0.rows(), sim.0.rows(), "{backend} {exec:?} dedup");
            assert_eq!(fast.1, sim.1, "{backend} {exec:?} dedup stats");
            let sim = project_with(&dupes, &[0, 2], exec, Backend::Sim).unwrap();
            let fast = project_with(&dupes, &[0, 2], exec, backend).unwrap();
            assert_eq!(fast.0.rows(), sim.0.rows(), "{backend} {exec:?} project");
            assert_eq!(fast.1, sim.1, "{backend} {exec:?} project stats");
            let specs = [JoinSpec::eq(0, 0), JoinSpec::theta(1, 1, CompareOp::Le)];
            let sim = join_with(&a, &b, &specs, exec, Backend::Sim).unwrap();
            let fast = join_with(&a, &b, &specs, exec, backend).unwrap();
            assert_eq!(fast.0.rows(), sim.0.rows(), "{backend} {exec:?} join");
            assert_eq!(fast.1, sim.1, "{backend} {exec:?} join stats");
            let sim = divide_binary_with(&da, 0, 1, &db, 0, exec, Backend::Sim).unwrap();
            let fast = divide_binary_with(&da, 0, 1, &db, 0, exec, backend).unwrap();
            assert_eq!(fast.0.rows(), sim.0.rows(), "{backend} {exec:?} divide");
            assert_eq!(fast.1, sim.1, "{backend} {exec:?} divide stats");
        }
        // Selection and general (multi-column) division ignore the
        // strategy.
        use crate::select::Predicate;
        let preds = [
            Predicate::new(0, CompareOp::Gt, 2),
            Predicate::new(1, CompareOp::Ne, 5),
        ];
        let sim = select_with(&a, &preds, Execution::Marching, Backend::Sim).unwrap();
        let fast = select_with(&a, &preds, Execution::Marching, backend).unwrap();
        assert_eq!(fast.0.rows(), sim.0.rows(), "{backend} select rows");
        assert_eq!(fast.1, sim.1, "{backend} select stats");
        let wide = multi(
            3,
            &[
                &[1, 1, 10],
                &[1, 1, 11],
                &[2, 2, 10],
                &[1, 2, 10],
                &[1, 2, 11],
            ],
        );
        let wdiv = multi(1, &[&[10], &[11]]);
        let sim = divide_with(&wide, &[2], &wdiv, &[0], Execution::Marching, Backend::Sim).unwrap();
        let fast = divide_with(&wide, &[2], &wdiv, &[0], Execution::Marching, backend).unwrap();
        assert_eq!(fast.0.rows(), sim.0.rows(), "{backend} multi-divide rows");
        assert_eq!(fast.1, sim.1, "{backend} multi-divide stats");
    }

    #[test]
    fn prices_match_actual_run_stats_across_every_execution() {
        // The re-pricing invariant: for every shape-pure operator, the
        // price_* functions reproduce the exact ExecStats an actual run
        // produces — including the empty-input short-circuits.
        use crate::select::Predicate;
        let mut rng = StdRng::seed_from_u64(601);
        let (a, b) = gen::pair_with_overlap(&mut rng, 13, 10, 2, 0.4);
        let (a, b) = (a.into_multi(), b.into_multi());
        let dupes = gen::with_duplicates(&mut rng, 9, 3, 3);
        let empty = MultiRelation::empty(synth_schema(2));
        for exec in EXECS {
            let (n_a, n_b, m) = (a.len(), b.len(), a.arity());
            let got = intersect_with(&a, &b, exec, Backend::Sim).unwrap().1;
            assert_eq!(
                price_membership(exec, n_a, n_b, m),
                got,
                "{exec:?} intersect"
            );
            let got = difference_with(&a, &b, exec, Backend::Sim).unwrap().1;
            assert_eq!(
                price_membership(exec, n_a, n_b, m),
                got,
                "{exec:?} difference"
            );
            let got = union_with(&a, &b, exec, Backend::Sim).unwrap().1;
            assert_eq!(price_union(exec, n_a, n_b, m), got, "{exec:?} union");
            let got = dedup_with(&dupes, exec, Backend::Sim).unwrap().1;
            assert_eq!(
                price_dedup(exec, dupes.len(), dupes.arity()),
                got,
                "{exec:?} dedup"
            );
            let got = project_with(&dupes, &[0, 2], exec, Backend::Sim).unwrap().1;
            assert_eq!(price_project(exec, dupes.len(), 2), got, "{exec:?} project");
            let specs = [JoinSpec::eq(0, 0)];
            let got = join_with(&a, &b, &specs, exec, Backend::Sim).unwrap().1;
            assert_eq!(price_join(exec, n_a, n_b, 1), got, "{exec:?} join");
            // Empty inputs charge nothing, in price and in run alike.
            let got = intersect_with(&empty, &b, exec, Backend::Sim).unwrap().1;
            assert_eq!(price_membership(exec, 0, n_b, m), got, "{exec:?} empty");
            assert_eq!(price_membership(exec, 0, n_b, m), ExecStats::default());
            let got = join_with(&a, &empty, &specs, exec, Backend::Sim).unwrap().1;
            assert_eq!(price_join(exec, n_a, 0, 1), got, "{exec:?} empty join");
        }
        let preds = [Predicate::new(0, CompareOp::Gt, 2)];
        let got = select_with(&a, &preds, Execution::Marching, Backend::Sim)
            .unwrap()
            .1;
        assert_eq!(price_select(a.len(), 1), got, "select");
        let got = select_with(&empty, &preds, Execution::Marching, Backend::Sim)
            .unwrap()
            .1;
        assert_eq!(price_select(0, 1), got, "empty select");
    }

    #[test]
    fn division_bound_is_exact_on_distinct_hitting_keys_and_over_by_repeats() {
        let divisor = multi(1, &[&[10], &[11]]);
        // Six distinct keys, every pair hits the divisor: the bound is the run.
        let distinct: Vec<Vec<Elem>> = (0..6).map(|k| vec![k, 10 + k % 2]).collect();
        let distinct = MultiRelation::new(synth_schema(2), distinct).unwrap();
        // Nine pairs over three keys, some missing the divisor.
        let repeated: Vec<Vec<Elem>> = (0..9).map(|p| vec![p % 3, 9 + p % 4]).collect();
        let repeated = MultiRelation::new(synth_schema(2), repeated).unwrap();
        for exec in EXECS {
            let run = divide_binary_with(&distinct, 0, 1, &divisor, 0, exec, Backend::Sim)
                .unwrap()
                .1;
            assert_eq!(price_divide_bound(exec, 6, 2), run, "{exec:?}");
            let run = divide_binary_with(&repeated, 0, 1, &divisor, 0, exec, Backend::Sim)
                .unwrap()
                .1;
            let bound = price_divide_bound(exec, 9, 2);
            assert_eq!(bound.pulses - run.pulses, 9 - 3, "{exec:?} pulses");
            assert_eq!(bound.array_runs, run.array_runs, "{exec:?} runs");
            assert!(bound.busy_cell_pulses >= run.busy_cell_pulses, "{exec:?}");
            assert!(bound.total_cell_pulses >= run.total_cell_pulses, "{exec:?}");
        }
        assert_eq!(
            price_divide_bound(Execution::Marching, 0, 2),
            ExecStats::default()
        );
    }

    #[test]
    fn stats_report_hardware_shape() {
        let a = multi(2, &[&[1, 1], &[2, 2], &[3, 3]]);
        let b = multi(2, &[&[2, 2]]);
        let (_, s) = intersect_with(&a, &b, Execution::Marching, Backend::Sim).unwrap();
        // (3 + 1 - 1) rows x (2 + 1) columns.
        assert_eq!(s.cells, 9);
        assert!(s.pulses > 0);
        assert!(s.utilisation() > 0.0);
    }
}
