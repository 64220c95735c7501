//! Proptest strategies for CSV output: relations of every domain kind,
//! with integers at their extremes and strings over every byte the CSV
//! quoting rule or a wire frame's escape looks at.
//!
//! Test-only, and written against names its parent module brings into
//! scope (`Catalog`, `Column`, `Datum`, `DomainKind`, `MultiRelation`,
//! `Schema`), so the CSV export's tests and the server's `RESULT` frame
//! tests include this one file and draw from the same strategies.

use super::{Catalog, Column, Datum, DomainKind, MultiRelation, Schema};
use proptest::prelude::*;

/// The domain kinds a generated column picks from.
pub const KINDS: [DomainKind; 4] = [
    DomainKind::Int,
    DomainKind::Str,
    DomainKind::Bool,
    DomainKind::Date,
];

/// Integers with the extremes (19 digits and a sign) over-represented.
pub fn ints() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(i64::MIN),
        Just(i64::MAX),
        Just(0i64),
        -1000i64..1000,
        any::<i64>(),
    ]
}

/// Short strings over everything the quoting rule and the frame escape
/// look at: commas, quotes, backslashes, line feeds and carriage returns,
/// spaces at either end, multi-byte characters — and, at length zero, the
/// empty string.
pub fn texts() -> impl Strategy<Value = String> {
    const PALETTE: [char; 10] = ['a', 'b', ',', '"', '\\', '\n', '\r', ' ', 'é', '→'];
    prop::collection::vec(0usize..PALETTE.len(), 0..7)
        .prop_map(|picks| picks.into_iter().map(|k| PALETTE[k]).collect())
}

/// One catalog domain and one (possibly quoted) column name per kind
/// picked, and `cells` cut to that width and typed by it.
pub fn encode(
    picks: &[usize],
    names: &[String],
    cells: &[Vec<(i64, String)>],
) -> (Catalog, MultiRelation) {
    let mut cat = Catalog::new();
    let columns = picks
        .iter()
        .zip(names)
        .map(|(&k, name)| Column::new(name.clone(), cat.add_domain("d", KINDS[k])))
        .collect();
    let rows: Vec<Vec<Datum>> = cells
        .iter()
        .map(|row| {
            row.iter()
                .zip(picks)
                .map(|((v, s), &k)| match KINDS[k] {
                    DomainKind::Int => Datum::Int(*v),
                    DomainKind::Date => Datum::Date(*v),
                    DomainKind::Bool => Datum::Bool(v & 1 == 1),
                    DomainKind::Str => Datum::str(s.clone()),
                })
                .collect()
        })
        .collect();
    let rel = cat.encode_multi(Schema::new(columns), &rows).unwrap();
    (cat, rel)
}
