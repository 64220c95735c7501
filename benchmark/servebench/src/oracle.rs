//! The benchmark's own evaluation of a generated query, on the generated
//! rows. It shares no code with the program, so it stays a reference when
//! the program's crates are refactored; `layerprobe` additionally checks the
//! same answers against `systolic_baseline`.
//!
//! Semantics are the paper's: intersection and difference keep `A`'s order
//! and multiplicity (§4), remove-duplicates keeps first occurrences and
//! union is remove-duplicates over `A + B` (§5), an equi-join emits matches
//! in `(i, j)` order and drops `B`'s copy of the join column (§6), division
//! yields the distinct keys of `A` paired with every divisor value (§7).

use std::collections::{HashMap, HashSet};

use crate::gen::{Cmp, Row, Table, Val, Q};

/// The generated database as the oracle sees it.
#[derive(Debug, Default)]
pub struct Db {
    tables: HashMap<String, Vec<Row>>,
    /// §2.3 string codes: every `str` column shares one dictionary, filled
    /// in load order, row by row.
    codes: HashMap<String, i64>,
}

impl Db {
    /// Load tables in order, interning strings as the server does.
    pub fn new(tables: &[Table]) -> Db {
        let mut db = Db::default();
        for table in tables {
            for row in &table.rows {
                for val in row {
                    if let Val::Str(s) = val {
                        let next = db.codes.len() as i64;
                        db.codes.entry(s.clone()).or_insert(next);
                    }
                }
            }
            db.tables.insert(table.name.clone(), table.rows.clone());
        }
        db
    }

    fn code(&self, val: &Val) -> i64 {
        match val {
            Val::Int(v) => *v,
            Val::Str(s) => self.codes[s],
        }
    }

    /// Evaluate a query to its rows, in the order the machine returns them.
    pub fn eval(&self, q: &Q) -> Vec<Row> {
        match q {
            Q::Scan(name) => self.tables[name].clone(),
            Q::Filter(inner, col, cmp, value) => {
                let mut rows = self.eval(inner);
                rows.retain(|row| {
                    let v = self.code(&row[*col]);
                    match cmp {
                        Cmp::Ge => v >= *value,
                        Cmp::Eq => v == *value,
                    }
                });
                rows
            }
            Q::Intersect(a, b) | Q::Difference(a, b) => {
                let right: HashSet<Row> = self.eval(b).into_iter().collect();
                let keep = matches!(q, Q::Intersect(..));
                let mut rows = self.eval(a);
                rows.retain(|row| right.contains(row) == keep);
                rows
            }
            Q::Dedup(inner) => dedup(self.eval(inner)),
            Q::Union(a, b) => {
                let mut rows = self.eval(a);
                rows.extend(self.eval(b));
                dedup(rows)
            }
            Q::Join(a, b, ca, cb) => {
                let (left, right) = (self.eval(a), self.eval(b));
                let mut out = Vec::new();
                for l in &left {
                    for r in &right {
                        if l[*ca] == r[*cb] {
                            let mut row = l.clone();
                            row.extend(
                                r.iter()
                                    .enumerate()
                                    .filter(|(k, _)| k != cb)
                                    .map(|(_, v)| v.clone()),
                            );
                            out.push(row);
                        }
                    }
                }
                out
            }
            Q::Divide(a, b, key, ca, cb) => {
                let dividend = self.eval(a);
                let divisor: Vec<Val> = self.eval(b).into_iter().map(|r| r[*cb].clone()).collect();
                let pairs: HashSet<(&Val, &Val)> =
                    dividend.iter().map(|r| (&r[*key], &r[*ca])).collect();
                let keys = dedup(dividend.iter().map(|r| vec![r[*key].clone()]).collect());
                keys.into_iter()
                    .filter(|k| divisor.iter().all(|y| pairs.contains(&(&k[0], y))))
                    .collect()
            }
            Q::Store(inner, _) => self.eval(inner),
        }
    }
}

fn dedup(rows: Vec<Row>) -> Vec<Row> {
    let mut seen = HashSet::new();
    rows.into_iter()
        .filter(|r| seen.insert(r.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(rows: &[&[i64]]) -> Vec<Row> {
        rows.iter()
            .map(|r| r.iter().map(|&v| Val::Int(v)).collect())
            .collect()
    }

    fn db() -> Db {
        Db::new(&[
            Table {
                name: "a".into(),
                rows: ints(&[&[1, 10], &[2, 20], &[1, 10], &[3, 20], &[1, 20]]),
            },
            Table {
                name: "b".into(),
                rows: ints(&[&[2, 20], &[9, 9], &[1, 10]]),
            },
            Table {
                name: "d".into(),
                rows: ints(&[&[10], &[20]]),
            },
            Table {
                name: "n".into(),
                rows: vec![
                    vec![Val::Int(1), Val::Str("x".into())],
                    vec![Val::Int(2), Val::Str("y".into())],
                ],
            },
        ])
    }

    fn scan(name: &str) -> Box<Q> {
        Box::new(Q::Scan(name.into()))
    }

    #[test]
    fn set_operators_keep_the_left_order() {
        let db = db();
        assert_eq!(
            db.eval(&Q::Intersect(scan("a"), scan("b"))),
            ints(&[&[1, 10], &[2, 20], &[1, 10]])
        );
        assert_eq!(
            db.eval(&Q::Difference(scan("a"), scan("b"))),
            ints(&[&[3, 20], &[1, 20]])
        );
        assert_eq!(
            db.eval(&Q::Dedup(scan("a"))),
            ints(&[&[1, 10], &[2, 20], &[3, 20], &[1, 20]])
        );
        assert_eq!(db.eval(&Q::Union(scan("a"), scan("b"))).len(), 5);
    }

    #[test]
    fn join_drops_the_right_join_column_and_division_needs_every_value() {
        let db = db();
        assert_eq!(
            db.eval(&Q::Join(scan("b"), scan("n"), 0, 0)),
            vec![
                vec![Val::Int(2), Val::Int(20), Val::Str("y".into())],
                vec![Val::Int(1), Val::Int(10), Val::Str("x".into())],
            ]
        );
        assert_eq!(
            db.eval(&Q::Divide(scan("a"), scan("d"), 0, 1, 0)),
            ints(&[&[1]])
        );
    }

    #[test]
    fn string_predicates_compare_interning_order_codes() {
        let db = db();
        let q = Q::Filter(scan("n"), 1, Cmp::Ge, 1);
        assert_eq!(db.eval(&q), vec![vec![Val::Int(2), Val::Str("y".into())]]);
    }
}
