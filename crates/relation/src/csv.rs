//! Minimal CSV import/export for relations.
//!
//! §2.3 points out that "encoding and decoding are usually only necessary
//! for input or output: that is, for use by humans" — this module is that
//! input/output path. A deliberately small dialect: comma-separated, one
//! row per line, optional double-quoting for fields containing commas or
//! quotes (doubled quotes escape), no embedded newlines. Fields are typed
//! by the target schema's domain kinds.

use std::ops::Range;

use crate::catalog::Catalog;
use crate::columnar::ColumnarBuilder;
use crate::domain::{Datum, Domain, DomainKind, Elem};
use crate::error::RelationError;
use crate::relation::MultiRelation;
use crate::schema::Schema;

/// Where one field of a split line lies: a byte range of the line itself,
/// or of the scratch buffer a quoted field was unescaped into.
enum FieldAt {
    Line(Range<usize>),
    Scratch(Range<usize>),
}

impl FieldAt {
    /// The field's text.
    fn text<'a>(&self, line: &'a str, scratch: &'a str) -> &'a str {
        match self {
            FieldAt::Line(at) => &line[at.clone()],
            FieldAt::Scratch(at) => &scratch[at.clone()],
        }
    }
}

fn stray_quote(fragment: &str) -> RelationError {
    RelationError::DomainMismatch {
        detail: format!("stray quote in CSV field at line fragment {fragment:?}"),
    }
}

/// Split one CSV line into `fields`. A field may be double-quoted, so that
/// it can hold commas, with a doubled quote standing for one quote; text
/// after the closing quote belongs to the field too. A field is a range of
/// the line unless it must be unescaped (a doubled quote, or text after the
/// closing quote); then its text is appended to `scratch`. Both buffers are
/// cleared first, so one pair serves every line of an import.
fn split_line(
    line: &str,
    fields: &mut Vec<FieldAt>,
    scratch: &mut String,
) -> Result<(), RelationError> {
    fields.clear();
    scratch.clear();
    let bytes = line.as_bytes();
    // `"` and `,` are ASCII, so no byte of a multi-byte character is either.
    let stop = |from: usize| {
        bytes[from..]
            .iter()
            .position(|&b| b == b',' || b == b'"')
            .map_or(bytes.len(), |k| from + k)
    };
    let mut at = 0;
    loop {
        let field = if bytes.get(at) == Some(&b'"') {
            let open = at + 1;
            let mut close = open;
            let mut doubled = false;
            loop {
                let Some(k) = bytes[close..].iter().position(|&b| b == b'"') else {
                    return Err(RelationError::DomainMismatch {
                        detail: "unterminated quoted CSV field".to_string(),
                    });
                };
                close += k;
                if bytes.get(close + 1) != Some(&b'"') {
                    break;
                }
                doubled = true;
                close += 2;
            }
            let quoted = &line[open..close];
            at = stop(close + 1);
            let tail = &line[close + 1..at];
            if bytes.get(at) == Some(&b'"') {
                return Err(stray_quote(&(quoted.replace("\"\"", "\"") + tail)));
            }
            if doubled || !tail.is_empty() {
                let start = scratch.len();
                for (k, run) in quoted.split("\"\"").enumerate() {
                    if k > 0 {
                        scratch.push('"');
                    }
                    scratch.push_str(run);
                }
                scratch.push_str(tail);
                FieldAt::Scratch(start..scratch.len())
            } else {
                FieldAt::Line(open..close)
            }
        } else {
            let start = at;
            at = stop(start);
            if bytes.get(at) == Some(&b'"') {
                return Err(stray_quote(&line[start..at]));
            }
            FieldAt::Line(start..at)
        };
        fields.push(field);
        if at == bytes.len() {
            return Ok(());
        }
        at += 1;
    }
}

/// Append one field to `out` under the quoting rule: a field containing a
/// comma or a quote is wrapped in quotes with its quotes doubled, any other
/// is copied as it is. The copied text goes through `text` (a frame's
/// escape, or a plain `push_str`); the quotes the rule adds never need it.
fn push_field(out: &mut String, s: &str, text: impl Fn(&mut String, &str)) {
    if !s.contains([',', '"']) {
        text(out, s);
        return;
    }
    out.push('"');
    for (k, run) in s.split('"').enumerate() {
        if k > 0 {
            out.push_str("\"\"");
        }
        text(out, run);
    }
    out.push('"');
}

/// `"00"`, `"01"`, ..., `"99"`: two decimal digits per lookup.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut n = 0;
    while n < 100 {
        pairs[2 * n] = b'0' + (n / 10) as u8;
        pairs[2 * n + 1] = b'0' + (n % 10) as u8;
        n += 1;
    }
    pairs
};

/// Append the decimal digits of `v`, formatted on the stack two at a time.
fn push_int(out: &mut String, v: i64) {
    // 19 digits of `i64::MIN`'s magnitude and its sign.
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut n = v.unsigned_abs();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    if v < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    // ASCII bytes are chars as they are: no UTF-8 check per cell.
    out.extend(buf[at..].iter().map(|&b| char::from(b)));
}

/// Parse a field according to the domain kind.
fn parse_field(kind: DomainKind, field: &str) -> Result<Datum, RelationError> {
    let err = |detail: String| RelationError::DomainMismatch { detail };
    match kind {
        DomainKind::Int => field
            .trim()
            .parse::<i64>()
            .map(Datum::Int)
            .map_err(|e| err(format!("bad integer {field:?}: {e}"))),
        DomainKind::Date => {
            // Accept both a bare day number and the `day#<n>` form that
            // `Datum::Date` renders (and `export_csv` therefore writes), so
            // export → import is the identity for date columns too.
            let trimmed = field.trim();
            let number = trimmed.strip_prefix("day#").unwrap_or(trimmed);
            number
                .parse::<i64>()
                .map(Datum::Date)
                .map_err(|e| err(format!("bad date {field:?}: {e}")))
        }
        DomainKind::Bool => match field.trim() {
            "true" | "1" => Ok(Datum::Bool(true)),
            "false" | "0" => Ok(Datum::Bool(false)),
            other => Err(err(format!("bad boolean {other:?}"))),
        },
        DomainKind::Str => Ok(Datum::Str(field.to_string())),
    }
}

/// Import CSV text as a multi-relation under `schema`, interning new string
/// values into the catalog's domains. A leading header line equal to the
/// schema's column names is skipped if present.
pub fn import_csv(
    catalog: &mut Catalog,
    schema: &Schema,
    text: &str,
) -> Result<MultiRelation, RelationError> {
    read_rows(catalog, schema, text, |_| {})
}

/// [`import_csv`] with zero-detour columnar ingest: the bit-packed word
/// planes are staged *while parsing* (each encoded row feeds the
/// [`ColumnarBuilder`] as it leaves the catalog encoder) and installed on
/// the returned relation, so a columnar-backend scan never makes a second
/// sweep over the rows to pack planes.
pub fn import_csv_columnar(
    catalog: &mut Catalog,
    schema: &Schema,
    text: &str,
) -> Result<MultiRelation, RelationError> {
    let mut packer = ColumnarBuilder::new(schema.arity());
    let out = read_rows(catalog, schema, text, |row| packer.push(row))?;
    out.install_columnar(packer.finish());
    Ok(out)
}

/// Parse and encode every data line of `text` into one buffer of codes,
/// handing each encoded row to `row_done` as it lands. A line's fields are
/// all parsed before any is encoded, so a bad field interns nothing of its
/// line.
fn read_rows(
    catalog: &mut Catalog,
    schema: &Schema,
    text: &str,
    mut row_done: impl FnMut(&[Elem]),
) -> Result<MultiRelation, RelationError> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty()).peekable();
    let mut fields = Vec::with_capacity(schema.arity());
    let mut scratch = String::new();
    if let Some(first) = lines.peek() {
        split_line(first, &mut fields, &mut scratch)?;
        let headers = fields.iter().map(|f| f.text(first, &scratch));
        if headers.eq(schema.columns().iter().map(|c| c.name.as_str())) {
            lines.next();
        }
    }
    let kinds: Vec<DomainKind> = schema
        .columns()
        .iter()
        .map(|c| catalog.domain(c.domain).kind())
        .collect();
    let mut codes = Vec::new();
    let mut datums = Vec::with_capacity(kinds.len());
    for line in lines {
        split_line(line, &mut fields, &mut scratch)?;
        if fields.len() != kinds.len() {
            return Err(RelationError::ArityMismatch {
                expected: kinds.len(),
                got: fields.len(),
            });
        }
        datums.clear();
        for (field, &kind) in fields.iter().zip(&kinds) {
            datums.push(parse_field(kind, field.text(line, &scratch))?);
        }
        let start = codes.len();
        catalog.encode_row(schema, &datums, &mut codes)?;
        row_done(&codes[start..]);
    }
    MultiRelation::from_codes(schema.clone(), codes)
}

/// Export a multi-relation as CSV text with a header line.
pub fn export_csv(catalog: &Catalog, rel: &MultiRelation) -> Result<String, RelationError> {
    let mut out = String::new();
    write_csv(catalog, rel, &mut out, String::push_str, "\n")?;
    Ok(out)
}

/// Append [`export_csv`]'s text to `out`, in one pass and one buffer: each
/// column's [`Domain`] is resolved once for the relation and every cell is
/// appended straight from its §2.3 code — integers and `day#` dates as
/// digits, booleans as literals, strings copied out of the dictionary under
/// the quoting rule — so no typed value and no per-cell `String` exists on
/// the way from codes to bytes.
///
/// Column names and dictionary strings, the only text that can hold a
/// backslash or a line break, are copied through `text`; every line ends
/// with `newline`. `String::push_str` and `"\n"` give the plain export; a
/// wire frame passes its escape and the escaped newline, and so lands the
/// escaped CSV without a second pass over it. Errors are the ones decoding
/// the rows in order would raise: the first row, and in it the first cell,
/// that does not decode. `out` then holds a partial rendering.
pub fn write_csv(
    catalog: &Catalog,
    rel: &MultiRelation,
    out: &mut String,
    text: impl Fn(&mut String, &str) + Copy,
    newline: &str,
) -> Result<(), RelationError> {
    let columns = rel.schema().columns();
    let domains: Vec<&Domain> = columns.iter().map(|c| catalog.domain(c.domain)).collect();
    // A guess at a short cell and its separator; longer cells grow it.
    out.reserve((rel.len() + 1) * columns.len() * 6);
    for (k, column) in columns.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        push_field(out, &column.name, text);
    }
    out.push_str(newline);
    for row in rel.rows() {
        push_row(out, &domains, row, text)?;
        out.push_str(newline);
    }
    Ok(())
}

/// Append one row's cells, decoding each under its column's domain.
fn push_row(
    out: &mut String,
    domains: &[&Domain],
    row: &[Elem],
    text: impl Fn(&mut String, &str) + Copy,
) -> Result<(), RelationError> {
    if row.len() != domains.len() {
        return Err(RelationError::ArityMismatch {
            expected: domains.len(),
            got: row.len(),
        });
    }
    for (k, (&code, domain)) in row.iter().zip(domains).enumerate() {
        if k > 0 {
            out.push(',');
        }
        match domain.kind() {
            DomainKind::Int => push_int(out, code),
            DomainKind::Date => {
                out.push_str("day#");
                push_int(out, code);
            }
            DomainKind::Bool => out.push_str(match code {
                0 => "false",
                1 => "true",
                _ => return Err(RelationError::DecodeOutOfRange { code }),
            }),
            DomainKind::Str => push_field(out, domain.dict_str(code)?, text),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv_strategies::{encode, ints, texts, KINDS};
    use crate::schema::Column;
    use proptest::prelude::*;

    /// The export the one-pass writer replaced — a `Vec<Datum>` per row, a
    /// `String` per cell and a `join` per line — kept as the reference the
    /// new one is compared against byte for byte.
    mod reference {
        use super::super::*;

        /// The splitter the range-based one replaced: a `String` per field.
        pub fn split_line(line: &str) -> Result<Vec<String>, RelationError> {
            let mut fields = Vec::new();
            let mut cur = String::new();
            let mut chars = line.chars().peekable();
            let mut in_quotes = false;
            while let Some(c) = chars.next() {
                match c {
                    '"' if in_quotes => {
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            cur.push('"');
                        } else {
                            in_quotes = false;
                        }
                    }
                    '"' if cur.is_empty() => in_quotes = true,
                    '"' => {
                        return Err(RelationError::DomainMismatch {
                            detail: format!("stray quote in CSV field at line fragment {cur:?}"),
                        })
                    }
                    ',' if !in_quotes => {
                        fields.push(std::mem::take(&mut cur));
                    }
                    c => cur.push(c),
                }
            }
            if in_quotes {
                return Err(RelationError::DomainMismatch {
                    detail: "unterminated quoted CSV field".to_string(),
                });
            }
            fields.push(cur);
            Ok(fields)
        }

        pub fn render_field(s: &str) -> String {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }

        pub fn export_csv(catalog: &Catalog, rel: &MultiRelation) -> Result<String, RelationError> {
            let mut out = String::new();
            let names: Vec<String> = rel
                .schema()
                .columns()
                .iter()
                .map(|c| render_field(&c.name))
                .collect();
            out.push_str(&names.join(","));
            out.push('\n');
            for row in rel.rows() {
                let datums = catalog.decode_row(rel.schema(), row)?;
                let cells: Vec<String> = datums
                    .iter()
                    .map(|d| render_field(&d.to_string()))
                    .collect();
                out.push_str(&cells.join(","));
                out.push('\n');
            }
            Ok(out)
        }
    }

    /// One field under the quoting rule, on its own.
    fn render_field(s: &str) -> String {
        let mut out = String::new();
        push_field(&mut out, s, String::push_str);
        out
    }

    /// [`super::split_line`]'s fields, each copied out.
    fn split_line(line: &str) -> Result<Vec<String>, RelationError> {
        let (mut fields, mut scratch) = (Vec::new(), String::new());
        super::split_line(line, &mut fields, &mut scratch)?;
        Ok(fields
            .iter()
            .map(|f| f.text(line, &scratch).to_string())
            .collect())
    }

    fn setup() -> (Catalog, Schema) {
        let mut cat = Catalog::new();
        let names = cat.add_domain("names", DomainKind::Str);
        let ages = cat.add_domain("ages", DomainKind::Int);
        let active = cat.add_domain("active", DomainKind::Bool);
        let schema = Schema::new(vec![
            Column::new("name", names),
            Column::new("age", ages),
            Column::new("active", active),
        ]);
        (cat, schema)
    }

    #[test]
    fn round_trip_with_header() {
        let (mut cat, schema) = setup();
        let text = "name,age,active\nalice,30,true\nbob,25,false\n";
        let rel = import_csv(&mut cat, &schema, text).unwrap();
        assert_eq!(rel.len(), 2);
        let exported = export_csv(&cat, &rel).unwrap();
        // Re-import the export: identical rows.
        let rel2 = import_csv(&mut cat, &schema, &exported).unwrap();
        assert_eq!(rel.rows(), rel2.rows());
    }

    #[test]
    fn headerless_input_is_accepted() {
        let (mut cat, schema) = setup();
        let rel = import_csv(&mut cat, &schema, "carol,40,1\n").unwrap();
        assert_eq!(rel.len(), 1);
        let decoded = cat.decode_row(&schema, &rel.rows()[0]).unwrap();
        assert_eq!(decoded[0], Datum::str("carol"));
        assert_eq!(decoded[2], Datum::Bool(true));
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        let (mut cat, schema) = setup();
        let text = "\"doe, jane\",22,true\n\"say \"\"hi\"\"\",23,false\n";
        let rel = import_csv(&mut cat, &schema, text).unwrap();
        let d0 = cat.decode_row(&schema, &rel.rows()[0]).unwrap();
        assert_eq!(d0[0], Datum::str("doe, jane"));
        let d1 = cat.decode_row(&schema, &rel.rows()[1]).unwrap();
        assert_eq!(d1[0], Datum::str("say \"hi\""));
        // Export re-quotes correctly.
        let exported = export_csv(&cat, &rel).unwrap();
        assert!(exported.contains("\"doe, jane\""));
        assert!(exported.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn bad_field_counts_and_types_are_errors() {
        let (mut cat, schema) = setup();
        assert!(matches!(
            import_csv(&mut cat, &schema, "only,two\n"),
            Err(RelationError::ArityMismatch { .. })
        ));
        assert!(import_csv(&mut cat, &schema, "x,notanumber,true\n").is_err());
        assert!(import_csv(&mut cat, &schema, "x,1,maybe\n").is_err());
    }

    #[test]
    fn malformed_quotes_are_errors() {
        let (mut cat, schema) = setup();
        assert!(import_csv(&mut cat, &schema, "\"unterminated,1,true\n").is_err());
        assert!(import_csv(&mut cat, &schema, "ab\"cd,1,true\n").is_err());
    }

    #[test]
    fn date_columns_round_trip() {
        let mut cat = Catalog::new();
        let dates = cat.add_domain("hired", DomainKind::Date);
        let schema = Schema::new(vec![Column::new("hired", dates)]);
        let rel = import_csv(&mut cat, &schema, "19000\n-3\n").unwrap();
        assert_eq!(
            cat.decode_row(&schema, &rel.rows()[0]).unwrap(),
            vec![Datum::Date(19000)]
        );
        assert_eq!(
            cat.decode_row(&schema, &rel.rows()[1]).unwrap(),
            vec![Datum::Date(-3)]
        );
        let text = export_csv(&cat, &rel).unwrap();
        assert!(text.contains("day#19000"));
    }

    #[test]
    fn empty_input_gives_empty_relation() {
        let (mut cat, schema) = setup();
        let rel = import_csv(&mut cat, &schema, "").unwrap();
        assert!(rel.is_empty());
        let rel = import_csv(&mut cat, &schema, "\n  \n").unwrap();
        assert!(rel.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn one_pass_export_is_the_reference_export_byte_for_byte(
            picks in prop::collection::vec(0usize..KINDS.len(), 1..6),
            names in prop::collection::vec(texts(), 5),
            cells in prop::collection::vec(prop::collection::vec((ints(), texts()), 5), 0..10),
        ) {
            let (cat, rel) = encode(&picks, &names, &cells);
            let text = export_csv(&cat, &rel).unwrap();
            prop_assert_eq!(&text, &reference::export_csv(&cat, &rel).unwrap());
            // And each field on its own, for the text-level consumers.
            for name in &names {
                prop_assert_eq!(render_field(name), reference::render_field(name));
                prop_assert_eq!(split_line(&render_field(name)).unwrap(), vec![name.clone()]);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn split_fields_are_the_reference_splits(
            picks in prop::collection::vec(0usize..6, 0..14),
        ) {
            const PALETTE: [char; 6] = ['a', ',', '"', '"', ' ', 'é'];
            let line: String = picks.into_iter().map(|k| PALETTE[k]).collect();
            prop_assert_eq!(split_line(&line), reference::split_line(&line));
        }
    }

    #[test]
    fn undecodable_rows_fail_as_the_reference_export_does() {
        let mut cat = Catalog::new();
        let flag = cat.add_domain("flag", DomainKind::Bool);
        let names = cat.add_domain("names", DomainKind::Str);
        let schema = Schema::new(vec![Column::new("flag", flag), Column::new("name", names)]);
        let known = cat.domain_mut(names).encode(&Datum::str("ada")).unwrap();
        // A good row first: the error replaces the text, it does not cut it.
        for (bad, code) in [
            (vec![2, known], 2),             // no such boolean
            (vec![1, known + 1], known + 1), // past the dictionary
            (vec![0, -1], -1),               // before it
            (vec![7, -9], 7),                // the first bad cell is the one named
        ] {
            let rel = MultiRelation::new(schema.clone(), vec![vec![1, known], bad]).unwrap();
            let got = export_csv(&cat, &rel);
            assert_eq!(got, reference::export_csv(&cat, &rel));
            assert_eq!(got, Err(RelationError::DecodeOutOfRange { code }));
        }
        // No relation can hold a row of the wrong width, so the line writer
        // is asked directly, against the row decoder it stands in for.
        let domains = [cat.domain(flag), cat.domain(names)];
        for row in [vec![1], vec![1, known, 0], vec![]] {
            assert_eq!(
                push_row(&mut String::new(), &domains, &row, String::push_str),
                cat.decode_row(&schema, &row).map(|_| ())
            );
            assert_eq!(
                push_row(&mut String::new(), &domains, &row, String::push_str),
                Err(RelationError::ArityMismatch {
                    expected: 2,
                    got: row.len()
                })
            );
        }
    }
}
