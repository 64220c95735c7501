//! The algebraic rewrite rules.
//!
//! Each rule carries a stable id (reported in `--explain`, metrics and
//! lints), the algebraic law justifying it (see DESIGN.md for the law →
//! paper-section mapping), and an `apply` that rewrites every matching
//! site in one bottom-up sweep. A rule only encodes the *shape* of the
//! rewrite; the engine in `lib.rs` validates every candidate it produces
//! against the analyzer (schema preservation → SA009, cost monotonicity →
//! SA010) before adopting it, and the workspace differential harness
//! proves each adopted rewrite byte-identical at runtime.
//!
//! Soundness sketches (byte-identity, i.e. equal rows *in order*):
//!
//! - **dedup-elim** — `ops::dedup_with` keeps first occurrences; applied
//!   to an already duplicate-free stream it is the identity. Union,
//!   projection, dedup and division outputs are duplicate-free by
//!   construction (§5, §7), so the IR's `distinct` flag licenses dropping
//!   the redundant pass.
//! - **project-fuse** — a row's composed projection is determined by its
//!   inner projection, so the first occurrence of a composed value is
//!   exactly the first occurrence of some inner value that maps to it:
//!   fusing preserves the first-occurrence order of §5's output.
//! - **project-dedup** — projection already ends in remove-duplicates;
//!   deduplicating first keeps the first row of every duplicate class,
//!   whose projection is the class's first projected value. Same output.
//! - **filter-fuse** — conjunctive predicates applied in one pass or two
//!   keep exactly the same subsequence.
//! - **filter-into-scan** — §9's logic-per-track disks apply a predicate
//!   behind the disk head; the staged relation equals the device-filtered
//!   one row for row.
//! - **filter-setop-push** — `σp(A ∩ B) = σp(A) ∩ B`, `σp(A − B) =
//!   σp(A) − B` (both filter A by membership in B, preserving A's order),
//!   and `σp` distributes over `∪` because union is remove-duplicates over
//!   the concatenation and filtering preserves first occurrences.
//! - **filter-join-push** — for a pure equi-join every output column is a
//!   surviving input column, so a predicate on the output is a predicate
//!   on one operand; dropping an operand row drops exactly the output
//!   rows built from it, preserving the §6.2 assembly order of the rest.
//! - **join-commute** (experimental, never in the default set) — operand
//!   order changes both the column layout and the row order of the
//!   assembled result, so the engine's SA009 gate rejects it; it exists
//!   as a deliberate misfire exercising the lint path.

use systolic_core::select::Predicate;
use systolic_machine::{track_filtered, Expr};

use crate::ir::{pure_equi, IrOp, TypedNode};

/// A rewrite rule id. `Copy` so rule sets are plain slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Drop a remove-duplicates pass over a provably distinct input.
    DedupElim,
    /// Fuse nested projections into one composed projection.
    ProjectFuse,
    /// Drop a remove-duplicates pass under a projection (which dedups).
    ProjectDedup,
    /// Fuse nested selections into one conjunctive pass.
    FilterFuse,
    /// Absorb a selection over a plain scan into the disk's track filter.
    FilterIntoScan,
    /// Push a selection over a set operation into its scan operand(s).
    FilterSetOpPush,
    /// Push a selection over a pure equi-join onto the operand(s) it tests.
    FilterJoinPush,
    /// Swap join operands (experimental: changes the result layout; kept
    /// only to exercise the SA009 misfire gate).
    JoinCommute,
}

impl Rule {
    /// Stable rule id string (metrics labels, `--explain`, lints).
    pub fn id(self) -> &'static str {
        match self {
            Rule::DedupElim => "dedup-elim",
            Rule::ProjectFuse => "project-fuse",
            Rule::ProjectDedup => "project-dedup",
            Rule::FilterFuse => "filter-fuse",
            Rule::FilterIntoScan => "filter-into-scan",
            Rule::FilterSetOpPush => "filter-setop-push",
            Rule::FilterJoinPush => "filter-join-push",
            Rule::JoinCommute => "join-commute",
        }
    }

    /// The algebraic law the rule instantiates, as rendered in `--explain`.
    pub fn law(self) -> &'static str {
        match self {
            Rule::DedupElim => "dedup(X) = X when X is duplicate-free (§5)",
            Rule::ProjectFuse => "π_b(π_a(X)) = π_{a∘b}(X) (§5)",
            Rule::ProjectDedup => "π_c(dedup(X)) = π_c(X) (§5)",
            Rule::FilterFuse => "σ_p2(σ_p1(X)) = σ_{p1∧p2}(X)",
            Rule::FilterIntoScan => "σ_p(scan(R)) = scan!_p(R) (§9 logic-per-track)",
            Rule::FilterSetOpPush => {
                "σ_p(A∩B) = σ_p(A)∩B; σ_p(A−B) = σ_p(A)−B; σ_p(A∪B) = σ_p(A)∪σ_p(B)"
            }
            Rule::FilterJoinPush => "σ_p(A ⋈ B) = σ_pA(A) ⋈ σ_pB(B) for equi-joins (§6)",
            Rule::JoinCommute => "A ⋈ B = B ⋈ A (unsound on this machine: layout changes)",
        }
    }

    /// The default rule set — every rule here is byte-identity sound.
    pub fn default_set() -> &'static [Rule] {
        &[
            Rule::DedupElim,
            Rule::ProjectFuse,
            Rule::ProjectDedup,
            Rule::FilterFuse,
            Rule::FilterIntoScan,
            Rule::FilterSetOpPush,
            Rule::FilterJoinPush,
        ]
    }

    /// The experimental rule set: the default set plus deliberate
    /// misfires, exercising the SA009/SA010 lint gates.
    pub fn experimental_set() -> &'static [Rule] {
        &[
            Rule::DedupElim,
            Rule::ProjectFuse,
            Rule::ProjectDedup,
            Rule::FilterFuse,
            Rule::FilterIntoScan,
            Rule::FilterSetOpPush,
            Rule::FilterJoinPush,
            Rule::JoinCommute,
        ]
    }

    /// Rewrite every matching site in one bottom-up sweep, returning the
    /// rewritten expression and the number of sites that fired.
    pub fn apply(self, node: &TypedNode) -> (Expr, usize) {
        rw(self, node)
    }
}

/// Rebuild `node` with children rewritten by `rule` (the no-match path).
fn rebuild(rule: Rule, node: &TypedNode) -> (Expr, usize) {
    let mut sites = 0;
    let kids: Vec<Expr> = node
        .children
        .iter()
        .map(|c| {
            let (e, s) = rw(rule, c);
            sites += s;
            e
        })
        .collect();
    let mut k = kids.into_iter();
    let mut one = || Box::new(k.next().expect("child arity"));
    let expr = match &node.op {
        IrOp::Scan { name, filter } => Expr::Scan {
            name: name.clone(),
            filter: *filter,
        },
        IrOp::Intersect => Expr::Intersect(one(), one()),
        IrOp::Difference => Expr::Difference(one(), one()),
        IrOp::Union => Expr::Union(one(), one()),
        IrOp::Dedup => Expr::Dedup(one()),
        IrOp::Project(cols) => Expr::Project(one(), cols.clone()),
        IrOp::Select(preds) => Expr::Select(one(), preds.clone()),
        IrOp::Join(specs) => Expr::Join(one(), one(), specs.clone()),
        IrOp::Divide { key, ca, cb } => Expr::Divide {
            dividend: one(),
            divisor: one(),
            key: *key,
            ca: *ca,
            cb: *cb,
        },
        IrOp::Store(name) => Expr::Store(one(), name.clone()),
    };
    (expr, sites)
}

fn rw(rule: Rule, node: &TypedNode) -> (Expr, usize) {
    match (rule, &node.op) {
        // dedup(X) → X when X is provably duplicate-free.
        (Rule::DedupElim, IrOp::Dedup) if node.children[0].distinct => {
            let (inner, sites) = rw(rule, &node.children[0]);
            (inner, sites + 1)
        }
        // project(project(X, a), b) → project(X, a∘b).
        (Rule::ProjectFuse, IrOp::Project(outer)) => {
            if let IrOp::Project(inner) = &node.children[0].op {
                if outer.iter().all(|&i| i < inner.len()) {
                    let composed: Vec<usize> = outer.iter().map(|&i| inner[i]).collect();
                    let (below, sites) = rw(rule, &node.children[0].children[0]);
                    return (Expr::Project(Box::new(below), composed), sites + 1);
                }
            }
            rebuild(rule, node)
        }
        // project(dedup(X), c) → project(X, c).
        (Rule::ProjectDedup, IrOp::Project(cols)) => {
            if matches!(node.children[0].op, IrOp::Dedup) {
                let (below, sites) = rw(rule, &node.children[0].children[0]);
                return (Expr::Project(Box::new(below), cols.clone()), sites + 1);
            }
            rebuild(rule, node)
        }
        // filter(filter(X, p1), p2) → filter(X, p1 ∧ p2).
        (Rule::FilterFuse, IrOp::Select(outer)) => {
            if let IrOp::Select(inner) = &node.children[0].op {
                let mut preds = inner.clone();
                preds.extend(outer.iter().copied());
                let (below, sites) = rw(rule, &node.children[0].children[0]);
                return (Expr::Select(Box::new(below), preds), sites + 1);
            }
            rebuild(rule, node)
        }
        // filter(scan(R), p…) → scan!(R) absorbing the first predicate.
        (Rule::FilterIntoScan, IrOp::Select(preds)) if !preds.is_empty() => {
            if let IrOp::Scan { name, filter: None } = &node.children[0].op {
                return (track_filtered(name.clone(), preds), 1);
            }
            rebuild(rule, node)
        }
        // filter over ∩/−: push into a plain-scan left operand; over ∪:
        // push into both operands when both are plain scans. Restricted to
        // single predicates so the filter lands wholly on the disk.
        (Rule::FilterSetOpPush, IrOp::Select(preds)) if preds.len() == 1 => {
            let child = &node.children[0];
            match &child.op {
                IrOp::Intersect | IrOp::Difference => {
                    if let IrOp::Scan { name, filter: None } = &child.children[0].op {
                        let left = track_filtered(name.clone(), preds);
                        let (right, sites) = rw(rule, &child.children[1]);
                        let expr = if matches!(child.op, IrOp::Intersect) {
                            Expr::Intersect(Box::new(left), Box::new(right))
                        } else {
                            Expr::Difference(Box::new(left), Box::new(right))
                        };
                        return (expr, sites + 1);
                    }
                    rebuild(rule, node)
                }
                IrOp::Union => {
                    let plain = |n: &TypedNode| match &n.op {
                        IrOp::Scan { name, filter: None } => Some(name.clone()),
                        _ => None,
                    };
                    if let (Some(l), Some(r)) =
                        (plain(&child.children[0]), plain(&child.children[1]))
                    {
                        let scan = |name| Box::new(track_filtered(name, preds));
                        return (Expr::Union(scan(l), scan(r)), 1);
                    }
                    rebuild(rule, node)
                }
                _ => rebuild(rule, node),
            }
        }
        // filter over a pure equi-join: partition the predicates by the
        // operand that produces the tested column and push each one down.
        (Rule::FilterJoinPush, IrOp::Select(preds)) => {
            let child = &node.children[0];
            if let IrOp::Join(specs) = &child.op {
                if pure_equi(specs) {
                    let la = child.children[0].schema.len();
                    // Output columns ≥ la map to B's surviving (non-join)
                    // columns, in order.
                    let b_cols: Vec<usize> = (0..child.children[1].schema.len())
                        .filter(|k| !specs.iter().any(|s| s.col_b == *k))
                        .collect();
                    let mut lp = Vec::new();
                    let mut rp = Vec::new();
                    let mut ok = true;
                    for p in preds {
                        if p.col < la {
                            lp.push(*p);
                        } else if let Some(&col) = b_cols.get(p.col - la) {
                            rp.push(Predicate { col, ..*p });
                        } else {
                            ok = false;
                        }
                    }
                    if ok && !(lp.is_empty() && rp.is_empty()) {
                        let (mut l, sl) = rw(rule, &child.children[0]);
                        let (mut r, sr) = rw(rule, &child.children[1]);
                        if !lp.is_empty() {
                            l = Expr::Select(Box::new(l), lp);
                        }
                        if !rp.is_empty() {
                            r = Expr::Select(Box::new(r), rp);
                        }
                        return (
                            Expr::Join(Box::new(l), Box::new(r), specs.clone()),
                            sl + sr + 1,
                        );
                    }
                }
            }
            rebuild(rule, node)
        }
        // join(A, B) → join(B, A): deliberately layout-changing.
        (Rule::JoinCommute, IrOp::Join(specs)) => {
            let (l, sl) = rw(rule, &node.children[0]);
            let (r, sr) = rw(rule, &node.children[1]);
            let flipped = specs
                .iter()
                .map(|s| systolic_core::JoinSpec {
                    col_a: s.col_b,
                    col_b: s.col_a,
                    op: s.op,
                })
                .collect();
            (Expr::Join(Box::new(r), Box::new(l), flipped), sl + sr + 1)
        }
        _ => rebuild(rule, node),
    }
}
