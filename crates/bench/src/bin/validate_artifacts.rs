//! Validate a directory of `BENCH_<name>.json` artifacts (written by
//! `repro --json DIR`) against the schema in [`systolic_bench::artifact`]:
//! every required key present with the right type, no stray keys, and the
//! arithmetic invariants (`busy <= total`, `utilisation = busy/total`,
//! `name` matching the file name) holding exactly.
//!
//! Usage: `validate_artifacts DIR`. Exits nonzero listing every violation;
//! CI runs it right after `repro --json` so a drifting artifact schema
//! fails the build instead of silently breaking downstream tooling.

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use systolic_telemetry::json::{self, Json};

/// Required keys, in the order the writer emits them. `true` marks integer
/// fields (`as_u64` must succeed); the rest are floats.
const SCHEMA: &[(&str, bool)] = &[
    ("name", false),
    ("pulses", true),
    ("utilisation", false),
    ("busy_cell_pulses", true),
    ("total_cell_pulses", true),
    ("queries", true),
    ("host_wall_ns", true),
    ("queries_per_sec", false),
];

/// Optional keys the host-time experiments (`e20`, `e21`, `e22`) append.
/// `e21`: aggregate wall time per backend and `speedup = sim / columnar`,
/// with per-operator wall times under the `sim_ns_<op>` / `columnar_ns_<op>`
/// prefixes.
const OPTIONAL: &[(&str, bool)] = &[
    ("sim_wall_ns", true),
    ("columnar_wall_ns", true),
    ("speedup", false),
    // e22_columnar, device path (`TiledPipelined` on the 32 x 32 x 8
    // array): per-operator wall times use the `pipelined_ns_<op>` prefix;
    // the share is time in `price_*` over time in `*_with`. Then the two
    // CSV ingest bandwidths (rows-then-pack vs zero-detour).
    ("pipelined_accounting_share", false),
    ("ingest_row_mb_per_sec", false),
    ("ingest_columnar_mb_per_sec", false),
    // e20_telemetry: ns per span open + drop with no collector installed
    // and with one recording.
    ("disabled_span_ns", false),
    ("enabled_span_ns", false),
];

/// Whether `key` is an allowed optional per-operator wall-time field.
fn per_op_key(key: &str) -> bool {
    key.strip_prefix("sim_ns_")
        .or_else(|| key.strip_prefix("columnar_ns_"))
        .or_else(|| key.strip_prefix("pipelined_ns_"))
        .is_some_and(|op| !op.is_empty() && op.chars().all(|c| c.is_ascii_lowercase() || c == '_'))
}

fn check_file(path: &Path) -> Result<(), Vec<String>> {
    let mut errs = Vec::new();
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return Err(vec![format!("unreadable: {e}")]),
    };
    let doc = match json::parse(&text) {
        Ok(d) => d,
        Err(e) => return Err(vec![format!("invalid JSON: {e}")]),
    };
    let Some(fields) = doc.as_object() else {
        return Err(vec!["top level is not an object".to_string()]);
    };

    for (key, integer) in SCHEMA {
        match doc.get(key) {
            None => errs.push(format!("missing key {key:?}")),
            Some(v) if *key == "name" => {
                let stem = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or_default();
                match v.as_str() {
                    None => errs.push("\"name\" is not a string".to_string()),
                    Some(name) if format!("BENCH_{name}") != stem => {
                        errs.push(format!("\"name\" {name:?} does not match file {stem:?}"))
                    }
                    Some(_) => {}
                }
            }
            Some(v) if *integer => {
                if v.as_u64().is_none() {
                    errs.push(format!("{key:?} is not a non-negative integer"));
                }
            }
            Some(v) => {
                if v.as_f64().is_none() {
                    errs.push(format!("{key:?} is not a number"));
                }
            }
        }
    }
    for (key, value) in fields {
        if SCHEMA.iter().any(|(k, _)| k == key) {
            continue;
        }
        match OPTIONAL.iter().find(|(k, _)| k == key) {
            Some((_, true)) => {
                if value.as_u64().is_none() {
                    errs.push(format!("{key:?} is not a non-negative integer"));
                }
            }
            Some((_, false)) => {
                if value.as_f64().is_none() {
                    errs.push(format!("{key:?} is not a number"));
                }
            }
            None if per_op_key(key) => {
                if value.as_u64().is_none() {
                    errs.push(format!("{key:?} is not a non-negative integer"));
                }
            }
            None => errs.push(format!("unknown key {key:?}")),
        }
    }

    // Arithmetic invariants (only meaningful once the fields typed out).
    if let (Some(busy), Some(total), Some(util)) = (
        doc.get("busy_cell_pulses").and_then(Json::as_u64),
        doc.get("total_cell_pulses").and_then(Json::as_u64),
        doc.get("utilisation").and_then(Json::as_f64),
    ) {
        if busy > total {
            errs.push(format!("busy_cell_pulses {busy} exceeds total {total}"));
        }
        let expect = if total == 0 {
            0.0
        } else {
            busy as f64 / total as f64
        };
        // The writer rounds to 6 decimal places.
        if (util - expect).abs() > 5e-7 {
            errs.push(format!("utilisation {util} != busy/total = {expect:.6}"));
        }
        if !(0.0..=1.0).contains(&util) {
            errs.push(format!("utilisation {util} outside [0, 1]"));
        }
    }
    if let Some(qps) = doc.get("queries_per_sec").and_then(Json::as_f64) {
        if !qps.is_finite() || qps < 0.0 {
            errs.push(format!(
                "queries_per_sec {qps} is not a finite non-negative number"
            ));
        }
    }
    if let (Some(sim), Some(columnar), Some(speedup)) = (
        doc.get("sim_wall_ns").and_then(Json::as_u64),
        doc.get("columnar_wall_ns").and_then(Json::as_u64),
        doc.get("speedup").and_then(Json::as_f64),
    ) {
        if columnar == 0 {
            errs.push("columnar_wall_ns is zero".to_string());
        } else {
            let expect = sim as f64 / columnar as f64;
            // The writer rounds to 3 decimal places.
            if (speedup - expect).abs() > 5e-4 * expect.max(1.0) {
                errs.push(format!("speedup {speedup} != sim/columnar = {expect:.3}"));
            }
        }
        if !speedup.is_finite() || speedup < 0.0 {
            errs.push(format!("speedup {speedup} is not finite and non-negative"));
        }
    }

    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

fn main() -> ExitCode {
    let Some(dir) = std::env::args().nth(1) else {
        eprintln!("usage: validate_artifacts DIR");
        return ExitCode::FAILURE;
    };
    let entries = match fs::read_dir(&dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot read {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        eprintln!("no BENCH_*.json artifacts in {dir}");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in &paths {
        match check_file(path) {
            Ok(()) => println!("ok {}", path.display()),
            Err(errs) => {
                failed = true;
                for e in errs {
                    eprintln!("FAIL {}: {e}", path.display());
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("{} artifacts valid", paths.len());
        ExitCode::SUCCESS
    }
}
