//! Round-trip properties for the I/O layers: CSV import/export, the served
//! engine's durable data directory, and the query-language renderer/parser.

use std::path::Path;

use proptest::prelude::*;

use systolic_db::machine::{parse, Expr};
use systolic_db::relation::{
    export_csv, import_csv, Catalog, Column, Datum, DomainKind, MultiRelation, Schema,
};
use systolic_db::server::protocol::parse_result_frame;
use systolic_db::server::{spawn, Client, ServerConfig, ServerHandle};

/// Arbitrary typed rows covering all four domain kinds of §2.3: a string
/// column (possibly empty, possibly holding commas and quotes that CSV must
/// quote and double), an int column, a bool column, and a date column (days
/// since the epoch, including negative ones).
fn rows() -> impl Strategy<Value = Vec<(String, i64, bool, i64)>> {
    prop::collection::vec(
        (
            "[a-z\"]{0,8}(,[a-z]{1,4})?",
            -1000i64..1000,
            any::<bool>(),
            -40000i64..40000,
        ),
        0..12,
    )
}

fn to_datums(rows: &[(String, i64, bool, i64)]) -> Vec<Vec<Datum>> {
    rows.iter()
        .map(|(s, i, b, d)| {
            vec![
                Datum::str(s.clone()),
                Datum::Int(*i),
                Datum::Bool(*b),
                Datum::Date(*d),
            ]
        })
        .collect()
}

/// The four-kind rows encoded over one domain per kind, with columns named
/// as the served engine names them (`c0..c3`), so the header line
/// `export_csv` writes is the one `LOAD` skips.
fn encode(data: &[(String, i64, bool, i64)]) -> (Catalog, MultiRelation) {
    let mut catalog = Catalog::new();
    let columns = [
        DomainKind::Str,
        DomainKind::Int,
        DomainKind::Bool,
        DomainKind::Date,
    ]
    .into_iter()
    .enumerate()
    .map(|(k, kind)| Column::new(format!("c{k}"), catalog.add_domain(kind.name(), kind)))
    .collect();
    let rel = catalog
        .encode_multi(Schema::new(columns), &to_datums(data))
        .unwrap();
    (catalog, rel)
}

fn open(data_dir: &Path) -> (ServerHandle, Client) {
    let handle = spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        data_dir: Some(data_dir.to_path_buf()),
        ..ServerConfig::default()
    })
    .unwrap();
    let client = Client::connect(handle.addr).unwrap();
    (handle, client)
}

fn close(handle: ServerHandle, mut client: Client) {
    client.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();
}

/// The raw `RESULT` frames of `scan(t)` and `scan(u)`.
fn scans(client: &mut Client) -> Vec<String> {
    ["scan(t)", "scan(u)"]
        .iter()
        .map(|q| client.raw_query_frames(q).unwrap().0)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn csv_export_import_is_the_identity(data in rows()) {
        let (mut catalog, rel) = encode(&data);
        let schema = rel.schema().clone();
        let text = export_csv(&catalog, &rel).unwrap();
        let rel2 = import_csv(&mut catalog, &schema, &text).unwrap();
        prop_assert_eq!(rel.rows(), rel2.rows());
        // Decoded values match the originals exactly.
        for (row, orig) in rel2.rows().iter().zip(to_datums(&data)) {
            prop_assert_eq!(catalog.decode_row(&schema, row).unwrap(), orig);
        }
    }

    #[test]
    fn durable_restart_is_the_identity(data in rows()) {
        let data_dir = std::env::temp_dir().join(format!(
            "systolic-prop-durable-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&data_dir);
        let (catalog, rel) = encode(&data);
        let csv = export_csv(&catalog, &rel).unwrap();

        let (handle, mut c) = open(&data_dir);
        let loaded = c.load_csv("t", "str,int,bool,date", &csv).unwrap();
        c.query("store(dedup(scan(t)), u)").unwrap();
        let before = scans(&mut c);
        close(handle, c);

        // Recovery replays the logged load and write-back: the same rows,
        // interned in the same order, so the same frames byte for byte.
        let (handle, mut c) = open(&data_dir);
        let after = scans(&mut c);
        close(handle, c);
        let _ = std::fs::remove_dir_all(&data_dir);

        prop_assert_eq!(loaded, data.len());
        // The loaded table renders back to the text it was loaded from.
        prop_assert_eq!(parse_result_frame(&before[0]).unwrap().csv, csv);
        prop_assert_eq!(after, before);
    }

    #[test]
    fn query_rendering_round_trips(depth in 0usize..3, seed in 0u64..1000) {
        // Build a deterministic pseudo-random parseable expression.
        fn next(seed: &mut u64) -> usize {
            *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (*seed >> 33) as usize
        }
        fn build(depth: usize, seed: &mut u64) -> Expr {
            if depth == 0 {
                return Expr::scan(format!("r{}", next(seed) % 3));
            }
            match next(seed) % 5 {
                0 => build(depth - 1, seed).intersect(build(depth - 1, seed)),
                1 => build(depth - 1, seed).difference(build(depth - 1, seed)),
                2 => build(depth - 1, seed).union(build(depth - 1, seed)),
                3 => build(depth - 1, seed).dedup(),
                _ => {
                    let cols = vec![next(seed) % 3, next(seed) % 3];
                    build(depth - 1, seed).project(cols)
                }
            }
        }
        let mut s = seed;
        let expr = build(depth, &mut s);
        let rendered = expr.to_string();
        prop_assert_eq!(parse(&rendered).unwrap(), expr, "via {}", rendered);
    }
}
