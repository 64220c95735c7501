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
//!   construction (§5, §7), so [`distinct`] over the tree licenses
//!   dropping the redundant pass.
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

use systolic_analyzer::NodeReport;
use systolic_core::select::Predicate;
use systolic_core::JoinSpec;
use systolic_fabric::CompareOp;
use systolic_machine::{track_filtered, Expr};

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

    /// Rewrite every matching site of `expr` in one bottom-up sweep,
    /// returning the rewritten expression and the number of sites that
    /// fired. `nodes` is the analyzer's pre-order report of `expr` itself
    /// ([`systolic_analyzer::Analysis::nodes`]), where a rule reads the
    /// arity of an operand.
    pub fn apply(self, expr: &Expr, nodes: &[NodeReport]) -> (Expr, usize) {
        let mut sweep = Sweep {
            rule: self,
            nodes,
            sites: 0,
        };
        let out = sweep.rw(expr, 0);
        (out, sweep.sites)
    }
}

/// Whether every condition of a join is plain equality (§6 equi-join).
fn pure_equi(specs: &[JoinSpec]) -> bool {
    !specs.is_empty() && specs.iter().all(|s| s.op == CompareOp::Eq)
}

/// Whether `expr`'s output is provably duplicate-free. Union, projection,
/// dedup and division end in remove-duplicates (§5, §7). Intersection,
/// difference, selection and store keep a subsequence of their first
/// operand. A join of duplicate-free operands is duplicate-free: two
/// differing pairs differ in the surviving columns (an equi-join's dropped
/// B columns are determined by A's). A scan may repeat rows.
pub fn distinct(expr: &Expr) -> bool {
    match expr {
        Expr::Scan { .. } => false,
        Expr::Union(..) | Expr::Project(..) | Expr::Dedup(_) | Expr::Divide { .. } => true,
        Expr::Intersect(a, _) | Expr::Difference(a, _) | Expr::Select(a, _) | Expr::Store(a, _) => {
            distinct(a)
        }
        Expr::Join(a, b, _) => distinct(a) && distinct(b),
    }
}

/// The number of nodes in `expr`, so a second operand's pre-order index is
/// the first operand's plus the first operand's size.
fn size(expr: &Expr) -> usize {
    1 + match expr {
        Expr::Scan { .. } => 0,
        Expr::Dedup(a) | Expr::Project(a, _) | Expr::Select(a, _) | Expr::Store(a, _) => size(a),
        Expr::Intersect(a, b)
        | Expr::Difference(a, b)
        | Expr::Union(a, b)
        | Expr::Join(a, b, _)
        | Expr::Divide {
            dividend: a,
            divisor: b,
            ..
        } => size(a) + size(b),
    }
}

/// The relation name of an unfiltered scan.
fn plain_scan(expr: &Expr) -> Option<String> {
    match expr {
        Expr::Scan { name, filter: None } => Some(name.clone()),
        _ => None,
    }
}

/// One rule's sweep over a tree, with the tree's pre-order analysis.
struct Sweep<'a> {
    rule: Rule,
    nodes: &'a [NodeReport],
    sites: usize,
}

impl Sweep<'_> {
    /// Rewrite `expr`, the node at pre-order index `at` of the swept tree.
    fn rw(&mut self, expr: &Expr, at: usize) -> Expr {
        match self.fire(expr, at) {
            Some(out) => out,
            None => self.rebuild(expr, at),
        }
    }

    /// The rule's rewrite of `expr` when it matches there, with what lies
    /// below rewritten in turn; `None` when it does not match.
    fn fire(&mut self, expr: &Expr, at: usize) -> Option<Expr> {
        let out = match (self.rule, expr) {
            // dedup(X) → X when X is provably duplicate-free.
            (Rule::DedupElim, Expr::Dedup(x)) if distinct(x) => self.rw(x, at + 1),
            // project(project(X, a), b) → project(X, a∘b).
            (Rule::ProjectFuse, Expr::Project(inner, outer)) => {
                let Expr::Project(x, cols) = &**inner else {
                    return None;
                };
                if !outer.iter().all(|&i| i < cols.len()) {
                    return None;
                }
                let composed = outer.iter().map(|&i| cols[i]).collect();
                self.one(x, at + 2, |x| Expr::Project(x, composed))
            }
            // project(dedup(X), c) → project(X, c).
            (Rule::ProjectDedup, Expr::Project(inner, cols)) => {
                let Expr::Dedup(x) = &**inner else {
                    return None;
                };
                self.one(x, at + 2, |x| Expr::Project(x, cols.clone()))
            }
            // filter(filter(X, p1), p2) → filter(X, p1 ∧ p2).
            (Rule::FilterFuse, Expr::Select(inner, outer)) => {
                let Expr::Select(x, first) = &**inner else {
                    return None;
                };
                let preds = first.iter().chain(outer).copied().collect();
                self.one(x, at + 2, |x| Expr::Select(x, preds))
            }
            // filter(scan(R), p…) → scan!(R) absorbing the first predicate.
            (Rule::FilterIntoScan, Expr::Select(inner, preds)) if !preds.is_empty() => {
                track_filtered(plain_scan(inner)?, preds)
            }
            // filter over ∩/−: push into a plain-scan left operand; over ∪:
            // push into both operands when both are plain scans. Restricted
            // to single predicates so the filter lands wholly on the disk.
            (Rule::FilterSetOpPush, Expr::Select(inner, preds)) if preds.len() == 1 => {
                let scan = |name| Box::new(track_filtered(name, preds));
                // Select at `at`, the set operation at `at + 1`, its scan
                // operand at `at + 2`, so B sits at `at + 3`.
                match &**inner {
                    Expr::Intersect(a, b) => {
                        let a = scan(plain_scan(a)?);
                        self.one(b, at + 3, |b| Expr::Intersect(a, b))
                    }
                    Expr::Difference(a, b) => {
                        let a = scan(plain_scan(a)?);
                        self.one(b, at + 3, |b| Expr::Difference(a, b))
                    }
                    Expr::Union(a, b) => Expr::Union(scan(plain_scan(a)?), scan(plain_scan(b)?)),
                    _ => return None,
                }
            }
            // filter over a pure equi-join: partition the predicates by the
            // operand that produces the tested column and push each one down.
            (Rule::FilterJoinPush, Expr::Select(inner, preds)) if !preds.is_empty() => {
                let Expr::Join(a, b, specs) = &**inner else {
                    return None;
                };
                if !pure_equi(specs) {
                    return None;
                }
                let (at_a, at_b) = (at + 2, at + 2 + size(a));
                let la = self.nodes.get(at_a)?.columns.len();
                // Output columns ≥ la map to B's surviving (non-join)
                // columns, in order.
                let b_cols: Vec<usize> = (0..self.nodes.get(at_b)?.columns.len())
                    .filter(|k| !specs.iter().any(|s| s.col_b == *k))
                    .collect();
                let (mut ap, mut bp) = (Vec::new(), Vec::new());
                for p in preds {
                    if p.col < la {
                        ap.push(*p);
                    } else {
                        let col = *b_cols.get(p.col - la)?;
                        bp.push(Predicate { col, ..*p });
                    }
                }
                let filtered = |x: Expr, preds: Vec<Predicate>| {
                    if preds.is_empty() {
                        x
                    } else {
                        x.select(preds)
                    }
                };
                let a = filtered(self.rw(a, at_a), ap);
                let b = filtered(self.rw(b, at_b), bp);
                a.join(b, specs.clone())
            }
            _ => return None,
        };
        self.sites += 1;
        Some(out)
    }

    /// Rebuild `expr` over its rewritten operands (the no-match path).
    fn rebuild(&mut self, expr: &Expr, at: usize) -> Expr {
        let at = at + 1;
        match expr {
            Expr::Scan { .. } => expr.clone(),
            Expr::Dedup(x) => self.one(x, at, Expr::Dedup),
            Expr::Project(x, cols) => self.one(x, at, |x| Expr::Project(x, cols.clone())),
            Expr::Select(x, preds) => self.one(x, at, |x| Expr::Select(x, preds.clone())),
            Expr::Store(x, name) => self.one(x, at, |x| Expr::Store(x, name.clone())),
            Expr::Intersect(a, b) => self.two(a, b, at, Expr::Intersect),
            Expr::Difference(a, b) => self.two(a, b, at, Expr::Difference),
            Expr::Union(a, b) => self.two(a, b, at, Expr::Union),
            Expr::Join(a, b, specs) => self.two(a, b, at, |a, b| Expr::Join(a, b, specs.clone())),
            Expr::Divide {
                dividend,
                divisor,
                key,
                ca,
                cb,
            } => self.two(dividend, divisor, at, |dividend, divisor| Expr::Divide {
                dividend,
                divisor,
                key: *key,
                ca: *ca,
                cb: *cb,
            }),
        }
    }

    /// `make` over operand `x`, at pre-order index `at`, rewritten.
    fn one(&mut self, x: &Expr, at: usize, make: impl FnOnce(Box<Expr>) -> Expr) -> Expr {
        make(Box::new(self.rw(x, at)))
    }

    /// `make` over operands `a` (at pre-order index `at`) and `b`, both
    /// rewritten.
    fn two(
        &mut self,
        a: &Expr,
        b: &Expr,
        at: usize,
        make: impl FnOnce(Box<Expr>, Box<Expr>) -> Expr,
    ) -> Expr {
        let a_out = Box::new(self.rw(a, at));
        let b_out = Box::new(self.rw(b, at + size(a)));
        make(a_out, b_out)
    }
}
