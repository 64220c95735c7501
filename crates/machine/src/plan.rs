//! Relational-algebra expressions and transaction plans.
//!
//! §9: "to process all of the operations required in a single transaction
//! or a set of transactions, an integrated system containing several
//! systolic arrays is needed. ... This is repeated for each relational
//! operation in the transaction." An [`Expr`] describes the transaction; it
//! compiles to a [`Plan`] — a dependency-ordered list of loads and operator
//! steps the machine schedules onto its devices.

use systolic_core::select::Predicate;
use systolic_core::JoinSpec;

use crate::storage::TrackFilter;

/// A relational-algebra expression over named base relations on disk.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Read a base relation from disk, optionally filtered on the fly by a
    /// logic-per-track disk (§9's "some simple queries never have to be
    /// processed outside the disks").
    Scan {
        /// Base relation name.
        name: String,
        /// Optional on-the-fly selection.
        filter: Option<TrackFilter>,
    },
    /// `A ∩ B` (§4).
    Intersect(Box<Expr>, Box<Expr>),
    /// `A - B` (§4.3).
    Difference(Box<Expr>, Box<Expr>),
    /// `A ∪ B` (§5).
    Union(Box<Expr>, Box<Expr>),
    /// Remove duplicates (§5).
    Dedup(Box<Expr>),
    /// Projection over columns (§5).
    Project(Box<Expr>, Vec<usize>),
    /// Selection on a systolic device (the one-row resident-predicate
    /// array; use [`Expr::Scan`]'s filter instead when the disk has
    /// logic-per-track).
    Select(Box<Expr>, Vec<Predicate>),
    /// Join over column pairs (§6).
    Join(Box<Expr>, Box<Expr>, Vec<JoinSpec>),
    /// Write the result back to disk under a name (§9: "the final results
    /// are eventually returned to the disk").
    Store(Box<Expr>, String),
    /// Binary ÷ unary division (§7): `key` is the quotient column of the
    /// dividend, `ca` its compared column, `cb` the divisor column.
    Divide {
        /// Dividend expression.
        dividend: Box<Expr>,
        /// Divisor expression.
        divisor: Box<Expr>,
        /// Quotient column of the dividend.
        key: usize,
        /// Dividend column compared against the divisor.
        ca: usize,
        /// Divisor column.
        cb: usize,
    },
}

impl Expr {
    /// Scan a base relation.
    pub fn scan(name: impl Into<String>) -> Expr {
        Expr::Scan {
            name: name.into(),
            filter: None,
        }
    }

    /// Scan with a logic-per-track filter.
    pub fn scan_filtered(name: impl Into<String>, filter: TrackFilter) -> Expr {
        Expr::Scan {
            name: name.into(),
            filter: Some(filter),
        }
    }

    /// `self ∩ other`.
    pub fn intersect(self, other: Expr) -> Expr {
        Expr::Intersect(Box::new(self), Box::new(other))
    }

    /// `self - other`.
    pub fn difference(self, other: Expr) -> Expr {
        Expr::Difference(Box::new(self), Box::new(other))
    }

    /// `self ∪ other`.
    pub fn union(self, other: Expr) -> Expr {
        Expr::Union(Box::new(self), Box::new(other))
    }

    /// Remove duplicates.
    pub fn dedup(self) -> Expr {
        Expr::Dedup(Box::new(self))
    }

    /// Project over columns.
    pub fn project(self, cols: Vec<usize>) -> Expr {
        Expr::Project(Box::new(self), cols)
    }

    /// Select with predicates (on a systolic device).
    pub fn select(self, predicates: Vec<Predicate>) -> Expr {
        Expr::Select(Box::new(self), predicates)
    }

    /// Join with `other`.
    pub fn join(self, other: Expr, specs: Vec<JoinSpec>) -> Expr {
        Expr::Join(Box::new(self), Box::new(other), specs)
    }

    /// Divide by `divisor`.
    pub fn divide(self, divisor: Expr, key: usize, ca: usize, cb: usize) -> Expr {
        Expr::Divide {
            dividend: Box::new(self),
            divisor: Box::new(divisor),
            key,
            ca,
            cb,
        }
    }

    /// Write the result back to disk under `name`.
    pub fn store(self, name: impl Into<String>) -> Expr {
        Expr::Store(Box::new(self), name.into())
    }
}

/// Rewrite an expression to exploit logic-per-track disks (§9: "some
/// simple queries never have to be processed outside the disks"): a
/// selection applied directly to an unfiltered scan becomes
/// [`track_filtered`], so the filtering happens behind the disk head and
/// the rejected tuples are never staged.
pub fn push_selections(expr: Expr) -> Expr {
    let push = |e: Box<Expr>| Box::new(push_selections(*e));
    match expr {
        Expr::Select(inner, preds) => match push_selections(*inner) {
            Expr::Scan { name, filter: None } => track_filtered(name, &preds),
            inner => Expr::Select(Box::new(inner), preds),
        },
        Expr::Scan { .. } => expr,
        Expr::Intersect(l, r) => Expr::Intersect(push(l), push(r)),
        Expr::Difference(l, r) => Expr::Difference(push(l), push(r)),
        Expr::Union(l, r) => Expr::Union(push(l), push(r)),
        Expr::Dedup(e) => Expr::Dedup(push(e)),
        Expr::Project(e, cols) => Expr::Project(push(e), cols),
        Expr::Join(l, r, specs) => Expr::Join(push(l), push(r), specs),
        Expr::Divide {
            dividend,
            divisor,
            key,
            ca,
            cb,
        } => Expr::Divide {
            dividend: push(dividend),
            divisor: push(divisor),
            key,
            ca,
            cb,
        },
        Expr::Store(e, name) => Expr::Store(push(e), name),
    }
}

/// `σ_preds(scan(name))` on a logic-per-track disk (§9): the first
/// predicate moves into the scan's track filter and any others stay on a
/// device. The one body of the law both [`push_selections`] and the
/// planner's filter rules apply.
///
/// # Panics
///
/// If `preds` is empty.
pub fn track_filtered(name: String, preds: &[Predicate]) -> Expr {
    let scan = Expr::scan_filtered(name, preds[0].into());
    match &preds[1..] {
        [] => scan,
        rest => scan.select(rest.to_vec()),
    }
}

/// The operator a plan step runs on a systolic device.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// Intersection (set-op device).
    Intersect,
    /// Difference (set-op device).
    Difference,
    /// Union (set-op device).
    Union,
    /// Remove-duplicates (set-op device).
    Dedup,
    /// Projection + dedup (set-op device).
    Project(Vec<usize>),
    /// Selection (set-op device).
    Select(Vec<Predicate>),
    /// Join (join device).
    Join(Vec<JoinSpec>),
    /// Binary division (divide device).
    DivideBinary {
        /// Quotient column of the dividend.
        key: usize,
        /// Dividend column compared against the divisor.
        ca: usize,
        /// Divisor column.
        cb: usize,
    },
}

impl PlanOp {
    /// Short label for timelines.
    pub fn label(&self) -> String {
        match self {
            PlanOp::Intersect => "intersect".into(),
            PlanOp::Difference => "difference".into(),
            PlanOp::Union => "union".into(),
            PlanOp::Dedup => "dedup".into(),
            PlanOp::Project(cols) => format!("project{cols:?}"),
            PlanOp::Select(preds) => format!("select[{}]", preds.len()),
            PlanOp::Join(specs) => format!("join[{}]", specs.len()),
            PlanOp::DivideBinary { .. } => "divide".into(),
        }
    }
}

/// What a plan step does.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Disk → memory transfer of a base relation.
    Load {
        /// Base relation name on disk.
        relation: String,
        /// Optional logic-per-track filter.
        filter: Option<TrackFilter>,
    },
    /// A relational operation on staged relations.
    Op {
        /// The operator.
        op: PlanOp,
        /// Names of the input relations (in memory).
        inputs: Vec<String>,
    },
    /// Memory → disk transfer of a staged relation (§9 write-back).
    Store {
        /// The staged relation to persist.
        input: String,
        /// The name it is stored under on disk.
        as_name: String,
    },
}

/// One step of a compiled plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStep {
    /// Step index (position in the plan).
    pub id: usize,
    /// What to do.
    pub action: Action,
    /// Indices of steps that must complete first.
    pub deps: Vec<usize>,
    /// Name under which the result is staged in memory.
    pub output: String,
    /// Pre-order index of the [`Expr`] node the step executes (its
    /// analyzer report is `Analysis::nodes[node]`). A repeated scan shares
    /// the first scan's load, and so its index.
    pub node: usize,
}

/// A compiled, dependency-ordered transaction plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Plan {
    /// The steps, topologically ordered (deps always point backwards).
    pub steps: Vec<PlanStep>,
}

impl Plan {
    /// Compile an expression. Repeated scans of the same base relation with
    /// the same filter share a single load step (the relation is staged
    /// once).
    pub fn compile(expr: &Expr) -> Plan {
        let mut compiler = Compiler {
            plan: Plan::default(),
            next: 0,
            scans: Vec::new(),
        };
        compiler.compile(expr);
        compiler.plan
    }

    /// The name of the final result (output of the last step).
    pub fn result_name(&self) -> &str {
        &self
            .steps
            .last()
            .expect("plan has at least one step")
            .output
    }

    /// Number of operator (non-load) steps.
    pub fn op_steps(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s.action, Action::Op { .. }))
            .count()
    }
}

/// One [`Plan::compile`] walk: children before the parent's step.
struct Compiler {
    plan: Plan,
    /// Pre-order index of the next node entered.
    next: usize,
    /// The loads so far, `(name, filter, step)`.
    scans: Vec<(String, Option<TrackFilter>, usize)>,
}

impl Compiler {
    fn compile(&mut self, expr: &Expr) -> usize {
        let node = self.next;
        self.next += 1;
        let (op, operands): (PlanOp, Vec<&Expr>) = match expr {
            Expr::Scan { name, filter } => {
                if let Some(&(_, _, id)) =
                    self.scans.iter().find(|(n, f, _)| n == name && f == filter)
                {
                    return id;
                }
                let load = Action::Load {
                    relation: name.clone(),
                    filter: *filter,
                };
                let id = self.push(load, vec![], node);
                self.scans.push((name.clone(), *filter, id));
                return id;
            }
            Expr::Store(input, as_name) => {
                let dep = self.compile(input);
                let store = Action::Store {
                    input: self.plan.steps[dep].output.clone(),
                    as_name: as_name.clone(),
                };
                return self.push(store, vec![dep], node);
            }
            Expr::Intersect(l, r) => (PlanOp::Intersect, vec![l, r]),
            Expr::Difference(l, r) => (PlanOp::Difference, vec![l, r]),
            Expr::Union(l, r) => (PlanOp::Union, vec![l, r]),
            Expr::Join(l, r, specs) => (PlanOp::Join(specs.clone()), vec![l, r]),
            Expr::Divide {
                dividend,
                divisor,
                key,
                ca,
                cb,
            } => (
                PlanOp::DivideBinary {
                    key: *key,
                    ca: *ca,
                    cb: *cb,
                },
                vec![dividend, divisor],
            ),
            Expr::Dedup(input) => (PlanOp::Dedup, vec![input]),
            Expr::Project(input, cols) => (PlanOp::Project(cols.clone()), vec![input]),
            Expr::Select(input, predicates) => (PlanOp::Select(predicates.clone()), vec![input]),
        };
        let deps: Vec<usize> = operands.into_iter().map(|e| self.compile(e)).collect();
        let inputs = deps
            .iter()
            .map(|&d| self.plan.steps[d].output.clone())
            .collect();
        self.push(Action::Op { op, inputs }, deps, node)
    }

    fn push(&mut self, action: Action, deps: Vec<usize>, node: usize) -> usize {
        let steps = &mut self.plan.steps;
        let id = steps.len();
        let output = match &action {
            Action::Load {
                relation,
                filter: None,
            } => format!("{relation}@mem"),
            Action::Load {
                relation,
                filter: Some(_),
            } => {
                // One relation under two track filters is two staged
                // copies: every one after the first carries its step id.
                let name = format!("{relation}@mem/filtered");
                if steps.iter().any(|s| s.output == name) {
                    format!("{name}#{id}")
                } else {
                    name
                }
            }
            Action::Op { .. } => format!("tmp{id}"),
            // A store passes its staged input through as the plan result.
            Action::Store { input, .. } => input.clone(),
        };
        steps.push(PlanStep {
            id,
            action,
            deps,
            output,
            node,
        });
        id
    }
}

impl std::fmt::Display for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for step in &self.steps {
            let deps = if step.deps.is_empty() {
                String::new()
            } else {
                format!(
                    "  <- {}",
                    step.deps
                        .iter()
                        .map(|d| format!("#{d}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            };
            match &step.action {
                Action::Load { relation, filter } => {
                    let filt = if filter.is_some() {
                        " [track-filtered]"
                    } else {
                        ""
                    };
                    writeln!(
                        f,
                        "#{:<3} load {relation}{filt} -> {}{deps}",
                        step.id, step.output
                    )?;
                }
                Action::Op { op, inputs } => {
                    writeln!(
                        f,
                        "#{:<3} {} ({}) -> {}{deps}",
                        step.id,
                        op.label(),
                        inputs.join(", "),
                        step.output
                    )?;
                }
                Action::Store { input, as_name } => {
                    writeln!(f, "#{:<3} store {input} -> disk:{as_name}{deps}", step.id)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_op_plan_has_two_loads_and_one_op() {
        let e = Expr::scan("a").intersect(Expr::scan("b"));
        let p = Plan::compile(&e);
        assert_eq!(p.steps.len(), 3);
        assert_eq!(p.op_steps(), 1);
        assert_eq!(p.result_name(), "tmp2");
        assert_eq!(p.steps[2].deps, vec![0, 1]);
    }

    #[test]
    fn repeated_scans_share_a_load_step() {
        // (A ∩ B) ∪ (A - B): A and B are each loaded once.
        let e = Expr::scan("a")
            .intersect(Expr::scan("b"))
            .union(Expr::scan("a").difference(Expr::scan("b")));
        let p = Plan::compile(&e);
        let loads = p
            .steps
            .iter()
            .filter(|s| matches!(s.action, Action::Load { .. }))
            .count();
        assert_eq!(loads, 2);
        assert_eq!(p.op_steps(), 3);
    }

    #[test]
    fn filtered_and_unfiltered_scans_are_distinct_loads() {
        use systolic_fabric::CompareOp;
        let f = TrackFilter {
            col: 0,
            op: CompareOp::Gt,
            value: 5,
        };
        let e = Expr::scan("a").intersect(Expr::scan_filtered("a", f));
        let p = Plan::compile(&e);
        let loads = p
            .steps
            .iter()
            .filter(|s| matches!(s.action, Action::Load { .. }))
            .count();
        assert_eq!(loads, 2);
    }

    #[test]
    fn deps_always_point_backwards() {
        let e = Expr::scan("a")
            .join(Expr::scan("b"), vec![JoinSpec::eq(0, 0)])
            .project(vec![0, 1])
            .dedup();
        let p = Plan::compile(&e);
        for step in &p.steps {
            for &d in &step.deps {
                assert!(d < step.id, "dependency {d} of step {} is forward", step.id);
            }
        }
    }

    #[test]
    fn unary_ops_chain_through_temporaries() {
        let e = Expr::scan("a").project(vec![0]).dedup();
        let p = Plan::compile(&e);
        assert_eq!(p.steps.len(), 3);
        match &p.steps[2].action {
            Action::Op {
                op: PlanOp::Dedup,
                inputs,
            } => {
                assert_eq!(inputs, &[p.steps[1].output.clone()]);
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn store_compiles_to_a_store_step_with_pass_through_output() {
        let e = Expr::scan("a").dedup().store("result");
        let p = Plan::compile(&e);
        assert_eq!(p.steps.len(), 3);
        match &p.steps[2].action {
            Action::Store { input, as_name } => {
                assert_eq!(input, &p.steps[1].output);
                assert_eq!(as_name, "result");
            }
            other => panic!("unexpected action {other:?}"),
        }
        assert_eq!(
            p.result_name(),
            p.steps[1].output,
            "store passes its input through"
        );
    }

    #[test]
    fn plan_display_renders_each_step() {
        let e = Expr::scan("a").intersect(Expr::scan("b")).store("out");
        let p = Plan::compile(&e);
        let text = p.to_string();
        assert!(text.contains("load a"));
        assert!(text.contains("intersect"));
        assert!(text.contains("store tmp2 -> disk:out"));
        assert!(text.contains("<- #0, #1"));
    }

    #[test]
    fn selections_over_plain_scans_move_to_the_disk() {
        use systolic_fabric::CompareOp;
        let pred = |c: usize, v: i64| Predicate::new(c, CompareOp::Ge, v);
        // Single predicate: becomes a filtered scan, no device step at all.
        let e = push_selections(Expr::scan("t").select(vec![pred(0, 5)]));
        assert!(matches!(
            e,
            Expr::Scan {
                filter: Some(_),
                ..
            }
        ));
        // Two predicates: one goes to the disk, one stays on a device.
        let e = push_selections(Expr::scan("t").select(vec![pred(0, 5), pred(1, 9)]));
        match e {
            Expr::Select(inner, preds) => {
                assert!(matches!(
                    *inner,
                    Expr::Scan {
                        filter: Some(_),
                        ..
                    }
                ));
                assert_eq!(preds.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Selections over non-scans are untouched but recursed into.
        let e = push_selections(
            Expr::scan("a")
                .intersect(Expr::scan("b"))
                .select(vec![pred(0, 1)]),
        );
        assert!(matches!(e, Expr::Select(..)));
        // Already-filtered scans are not double-filtered.
        let tf = TrackFilter {
            col: 0,
            op: CompareOp::Lt,
            value: 3,
        };
        let e = push_selections(Expr::scan_filtered("t", tf).select(vec![pred(1, 2)]));
        assert!(matches!(e, Expr::Select(..)));
    }

    #[test]
    fn labels_are_short_and_distinct() {
        assert_eq!(PlanOp::Intersect.label(), "intersect");
        assert_eq!(PlanOp::Join(vec![JoinSpec::eq(0, 0)]).label(), "join[1]");
        assert!(PlanOp::Project(vec![1, 2]).label().contains("[1, 2]"));
        assert_eq!(
            PlanOp::DivideBinary {
                key: 0,
                ca: 1,
                cb: 0
            }
            .label(),
            "divide"
        );
    }
}
