//! The typed plan IR: an [`Expr`] lowered against a [`CatalogView`] into a
//! tree annotated with the facts the rewrite rules need — the inferred
//! output schema and *distinctness* (whether the node's output is provably
//! duplicate-free, the property behind the paper's
//! reduce-union-and-projection-to-remove-duplicates trick, §4–§5). Row
//! bounds and costs are the analyzer's alone.
//!
//! Schemas here follow the **runtime** semantics of `systolic_core::ops`
//! (byte-identity of results is defined there), as the analyzer's do: a
//! pure equi-join drops the right operand's join columns, a theta join
//! keeps every column. Predicate pushdown through a join is restricted to
//! the pure-equi case. The rewrite engine's SA009 schema-preservation gate
//! is checked against the analyzer independently of this IR.

use systolic_analyzer::{CatalogView, ColumnInfo};
use systolic_core::select::Predicate;
use systolic_core::JoinSpec;
use systolic_fabric::CompareOp;
use systolic_machine::{Expr, TrackFilter};

/// The operator at one IR node. Payloads mirror [`Expr`] so that
/// [`raise`] is total and `raise(lower(e)) == e`.
#[derive(Debug, Clone, PartialEq)]
pub enum IrOp {
    /// Read a base relation, optionally filtered at the disk.
    Scan {
        /// Base relation name.
        name: String,
        /// Optional logic-per-track filter.
        filter: Option<TrackFilter>,
    },
    /// `A ∩ B` (§4).
    Intersect,
    /// `A - B` (§4.3).
    Difference,
    /// `A ∪ B` (§5): remove-duplicates over the concatenation.
    Union,
    /// Remove duplicates (§5).
    Dedup,
    /// Projection over columns, always followed by remove-duplicates (§5).
    Project(Vec<usize>),
    /// Selection with conjunctive predicates.
    Select(Vec<Predicate>),
    /// Join over column pairs (§6).
    Join(Vec<JoinSpec>),
    /// Binary ÷ unary division (§7).
    Divide {
        /// Quotient column of the dividend.
        key: usize,
        /// Dividend column compared against the divisor.
        ca: usize,
        /// Divisor column.
        cb: usize,
    },
    /// §9 write-back under a name.
    Store(String),
}

/// One node of the typed plan IR.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedNode {
    /// The operator.
    pub op: IrOp,
    /// Inferred output schema (runtime column layout).
    pub schema: Vec<ColumnInfo>,
    /// Whether the output is provably duplicate-free.
    pub distinct: bool,
    /// Child nodes (operands, in operand order).
    pub children: Vec<TypedNode>,
}

/// Whether every condition of a join is plain equality (§6 equi-join).
pub fn pure_equi(specs: &[JoinSpec]) -> bool {
    !specs.is_empty() && specs.iter().all(|s| s.op == CompareOp::Eq)
}

/// Lower an expression into the typed IR against a catalog view.
///
/// Fails (with a one-line reason) on anything the analyzer would reject
/// structurally — unknown relations, out-of-range columns, empty column
/// lists — so rules only ever see well-typed trees. The rewrite engine
/// lowers only expressions that already passed [`systolic_analyzer::analyze`].
pub fn lower(expr: &Expr, view: &CatalogView) -> Result<TypedNode, String> {
    match expr {
        Expr::Scan { name, filter } => {
            let table = view
                .table(name)
                .ok_or_else(|| format!("unknown relation {name:?}"))?;
            Ok(TypedNode {
                op: IrOp::Scan {
                    name: name.clone(),
                    filter: *filter,
                },
                schema: table.columns.to_vec(),
                distinct: false,
                children: Vec::new(),
            })
        }
        Expr::Intersect(l, r) | Expr::Difference(l, r) => {
            let l = lower(l, view)?;
            let r = lower(r, view)?;
            if l.schema.len() != r.schema.len() {
                return Err(format!(
                    "set-operation operands have arity {} vs {}",
                    l.schema.len(),
                    r.schema.len()
                ));
            }
            // Intersection/difference filter A's rows by membership in B,
            // preserving A's order and multiplicity: distinctness is A's.
            let (schema, distinct) = (l.schema.clone(), l.distinct);
            let op = if matches!(expr, Expr::Intersect(..)) {
                IrOp::Intersect
            } else {
                IrOp::Difference
            };
            Ok(TypedNode {
                op,
                schema,
                distinct,
                children: vec![l, r],
            })
        }
        Expr::Union(l, r) => {
            let l = lower(l, view)?;
            let r = lower(r, view)?;
            if l.schema.len() != r.schema.len() {
                return Err(format!(
                    "union operands have arity {} vs {}",
                    l.schema.len(),
                    r.schema.len()
                ));
            }
            // Union runs as remove-duplicates over the concatenation (§5):
            // the output is always duplicate-free.
            let schema = l.schema.clone();
            Ok(TypedNode {
                op: IrOp::Union,
                schema,
                distinct: true,
                children: vec![l, r],
            })
        }
        Expr::Dedup(inner) => {
            let c = lower(inner, view)?;
            Ok(TypedNode {
                op: IrOp::Dedup,
                schema: c.schema.clone(),
                distinct: true,
                children: vec![c],
            })
        }
        Expr::Project(inner, cols) => {
            let c = lower(inner, view)?;
            if cols.is_empty() {
                return Err("projection needs at least one column".into());
            }
            let mut schema = Vec::with_capacity(cols.len());
            for &k in cols {
                schema.push(
                    *c.schema
                        .get(k)
                        .ok_or_else(|| format!("projection column c{k} out of range"))?,
                );
            }
            // Projection ends in remove-duplicates (§5).
            Ok(TypedNode {
                op: IrOp::Project(cols.clone()),
                schema,
                distinct: true,
                children: vec![c],
            })
        }
        Expr::Select(inner, preds) => {
            let c = lower(inner, view)?;
            if preds.is_empty() {
                return Err("selection needs at least one predicate".into());
            }
            for p in preds {
                if p.col >= c.schema.len() {
                    return Err(format!("predicate column c{} out of range", p.col));
                }
            }
            // Selection keeps a subsequence of its input: distinctness
            // carries over.
            let (schema, distinct) = (c.schema.clone(), c.distinct);
            Ok(TypedNode {
                op: IrOp::Select(preds.clone()),
                schema,
                distinct,
                children: vec![c],
            })
        }
        Expr::Join(l, r, specs) => {
            let l = lower(l, view)?;
            let r = lower(r, view)?;
            if specs.is_empty() {
                return Err("join needs at least one column spec".into());
            }
            for s in specs {
                if s.col_a >= l.schema.len() || s.col_b >= r.schema.len() {
                    return Err(format!(
                        "join columns c{}/c{} out of range",
                        s.col_a, s.col_b
                    ));
                }
            }
            // Runtime layout: a pure equi-join drops B's join columns, a
            // theta join keeps them (§6.1 vs `ops::join_with`).
            let mut schema = l.schema.clone();
            for (k, col) in r.schema.iter().enumerate() {
                if !pure_equi(specs) || !specs.iter().any(|s| s.col_b == k) {
                    schema.push(*col);
                }
            }
            // A pair of distinct inputs joins into distinct outputs: two
            // differing pairs differ in the surviving columns (for the equi
            // case the dropped B join columns are determined by A's).
            let distinct = l.distinct && r.distinct;
            Ok(TypedNode {
                op: IrOp::Join(specs.clone()),
                schema,
                distinct,
                children: vec![l, r],
            })
        }
        Expr::Divide {
            dividend,
            divisor,
            key,
            ca,
            cb,
        } => {
            let d = lower(dividend, view)?;
            let v = lower(divisor, view)?;
            if *key >= d.schema.len() || *ca >= d.schema.len() {
                return Err(format!("dividend columns c{key}/c{ca} out of range"));
            }
            if *cb >= v.schema.len() {
                return Err(format!("divisor column c{cb} out of range"));
            }
            // The quotient is built from the dedup pre-pass's distinct keys
            // (§7): always duplicate-free.
            let schema = vec![d.schema[*key]];
            Ok(TypedNode {
                op: IrOp::Divide {
                    key: *key,
                    ca: *ca,
                    cb: *cb,
                },
                schema,
                distinct: true,
                children: vec![d, v],
            })
        }
        Expr::Store(inner, name) => {
            let c = lower(inner, view)?;
            let (schema, distinct) = (c.schema.clone(), c.distinct);
            Ok(TypedNode {
                op: IrOp::Store(name.clone()),
                schema,
                distinct,
                children: vec![c],
            })
        }
    }
}

/// Raise a typed node back into the expression it was lowered from.
pub fn raise(node: &TypedNode) -> Expr {
    let kid = |i: usize| Box::new(raise(&node.children[i]));
    match &node.op {
        IrOp::Scan { name, filter } => Expr::Scan {
            name: name.clone(),
            filter: *filter,
        },
        IrOp::Intersect => Expr::Intersect(kid(0), kid(1)),
        IrOp::Difference => Expr::Difference(kid(0), kid(1)),
        IrOp::Union => Expr::Union(kid(0), kid(1)),
        IrOp::Dedup => Expr::Dedup(kid(0)),
        IrOp::Project(cols) => Expr::Project(kid(0), cols.clone()),
        IrOp::Select(preds) => Expr::Select(kid(0), preds.clone()),
        IrOp::Join(specs) => Expr::Join(kid(0), kid(1), specs.clone()),
        IrOp::Divide { key, ca, cb } => Expr::Divide {
            dividend: kid(0),
            divisor: kid(1),
            key: *key,
            ca: *ca,
            cb: *cb,
        },
        IrOp::Store(name) => Expr::Store(kid(0), name.clone()),
    }
}
