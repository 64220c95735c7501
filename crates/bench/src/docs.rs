//! Tables in README.md and EXPERIMENTS.md rendered from the committed
//! `BENCH_*.json` artifacts, so that prose keeps no hand-typed copy of a
//! measured number.
//!
//! A rendered table sits between two marker comments,
//! `<!-- repro:NAME -->` and `<!-- /repro:NAME -->`; `repro --render-docs`
//! rewrites what lies between them from the artifacts, and CI fails when
//! the committed documents differ from that rendering.

use systolic_telemetry::json::{self, Json};

use crate::hardware_ns;
use crate::table::fmt_ns;

/// E18's layouts, in the order `repro` prices them: each one's artifact key
/// suffix (`pulses_<key>`, ...) and its row label.
pub const E18_LAYOUTS: [(&str, &str); 3] = [
    ("marching", "marching (drain per tile)"),
    ("pipelined", "marching + pipelined tiles (E19)"),
    ("fixed", "fixed-operand"),
];

/// E18's table (§8's intersection on §8's device, one row per layout) from
/// the text of `BENCH_e18_capacity.json`. Time is pulses at the
/// conservative §8 clock; utilisation is busy over total cell-pulses.
pub fn e18_table(artifact: &str) -> Result<String, String> {
    let doc = json::parse(artifact)?;
    let field = |key: &str| -> Result<f64, String> {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("BENCH_e18_capacity.json has no number {key:?}"))
    };
    let ideal_ms = field("ideal_ms")?;
    let mut out = format!(
        "| layout | tile (A×B) | tiles | pulses | total time | vs ideal {ideal_ms:.1} ms | utilisation |\n\
         |---|---|---|---|---|---|---|\n"
    );
    for (key, name) in E18_LAYOUTS {
        let value = |f: &str| field(&format!("{f}_{key}"));
        let ms = hardware_ns(value("pulses")? as u64) * 1e-6;
        out += &format!(
            "| {name} | {}×{} | {} | {} | {ms:.1} ms | {:.1}× | {:.3} |\n",
            value("tile_a")?,
            value("tile_b")?,
            value("tiles")?,
            value("pulses")?,
            ms / ideal_ms,
            value("busy")? / value("total")?,
        );
    }
    Ok(out)
}

/// The operators of E21, in the order `repro` runs them.
const E21_OPS: [&str; 6] = [
    "intersect",
    "union",
    "difference",
    "dedup",
    "join",
    "divide",
];

/// E21's table (host wall time per operator, simulator against columnar)
/// from the text of `BENCH_e21_backend_speedup.json`.
pub fn e21_table(artifact: &str) -> Result<String, String> {
    let doc = json::parse(artifact)?;
    let field = |key: &str| -> Result<f64, String> {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("BENCH_e21_backend_speedup.json has no number {key:?}"))
    };
    let mut out =
        String::from("| operator | simulator | columnar | speedup |\n|---|---|---|---|\n");
    for op in E21_OPS {
        let (sim, columnar) = (
            field(&format!("sim_ns_{op}"))?,
            field(&format!("columnar_ns_{op}"))?,
        );
        out += &format!(
            "| {op} | {} | {} | {:.0}× |\n",
            fmt_ns(sim),
            fmt_ns(columnar),
            sim / columnar.max(1.0)
        );
    }
    out += &format!(
        "| **aggregate** | **{}** | **{}** | **{:.0}×** |\n",
        fmt_ns(field("sim_wall_ns")?),
        fmt_ns(field("columnar_wall_ns")?),
        field("speedup")?
    );
    Ok(out)
}

/// `doc` with the text between the `name` markers replaced by `table`.
pub fn splice(doc: &str, name: &str, table: &str) -> Result<String, String> {
    let (open, close) = (
        format!("<!-- repro:{name} -->\n"),
        format!("<!-- /repro:{name} -->"),
    );
    let start = doc
        .find(&open)
        .ok_or_else(|| format!("no {open:?} marker"))?
        + open.len();
    let end = start
        + doc[start..]
            .find(&close)
            .ok_or_else(|| format!("no {close:?} marker after {open:?}"))?;
    Ok(format!("{}{table}{}", &doc[..start], &doc[end..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    const ARTIFACT: &str = r#"{
  "name": "e21_backend_speedup",
  "sim_ns_intersect": 2000000, "columnar_ns_intersect": 1000,
  "sim_ns_union": 3000000, "columnar_ns_union": 2000,
  "sim_ns_difference": 1000000, "columnar_ns_difference": 1000,
  "sim_ns_dedup": 1000000, "columnar_ns_dedup": 1000,
  "sim_ns_join": 500000, "columnar_ns_join": 5000,
  "sim_ns_divide": 2500000, "columnar_ns_divide": 10000,
  "sim_wall_ns": 10000000, "columnar_wall_ns": 20000, "speedup": 500.000
}"#;

    #[test]
    fn e21_table_has_one_row_per_operator_and_the_aggregate() {
        let table = e21_table(ARTIFACT).unwrap();
        let rows: Vec<&str> = table.lines().collect();
        assert_eq!(rows.len(), 2 + E21_OPS.len() + 1);
        assert_eq!(rows[2], "| intersect | 2.00 ms | 1.00 us | 2000× |");
        assert_eq!(rows[6], "| join | 500.00 us | 5.00 us | 100× |");
        assert_eq!(
            rows[8],
            "| **aggregate** | **10.00 ms** | **20.00 us** | **500×** |"
        );
    }

    const E18_ARTIFACT: &str = r#"{
  "name": "e18_capacity",
  "ideal_ms": 50.000,
  "tile_a_marching": 10, "tile_b_marching": 10, "tiles_marching": 4,
  "pulses_marching": 400000, "busy_marching": 25, "total_marching": 100,
  "tile_a_pipelined": 10, "tile_b_pipelined": 10, "tiles_pipelined": 4,
  "pulses_pipelined": 300000, "busy_pipelined": 1, "total_pipelined": 3,
  "tile_a_fixed": 20, "tile_b_fixed": 5, "tiles_fixed": 2,
  "pulses_fixed": 200000, "busy_fixed": 9, "total_fixed": 10
}"#;

    #[test]
    fn e18_table_has_one_row_per_layout_with_time_factor_and_utilisation() {
        let table = e18_table(E18_ARTIFACT).unwrap();
        let rows: Vec<&str> = table.lines().collect();
        assert_eq!(rows.len(), 2 + E18_LAYOUTS.len());
        assert_eq!(
            rows[0],
            "| layout | tile (A×B) | tiles | pulses | total time | vs ideal 50.0 ms | utilisation |"
        );
        // 400 000 pulses at 350 ns are 140 ms, 2.8 times the ideal.
        assert_eq!(
            rows[2],
            "| marching (drain per tile) | 10×10 | 4 | 400000 | 140.0 ms | 2.8× | 0.250 |"
        );
        assert_eq!(
            rows[3],
            "| marching + pipelined tiles (E19) | 10×10 | 4 | 300000 | 105.0 ms | 2.1× | 0.333 |"
        );
        assert_eq!(
            rows[4],
            "| fixed-operand | 20×5 | 2 | 200000 | 70.0 ms | 1.4× | 0.900 |"
        );
        let err = e18_table(&E18_ARTIFACT.replace("\"busy_fixed\"", "\"used_fixed\"")).unwrap_err();
        assert!(err.contains("\"busy_fixed\""), "{err}");
    }

    #[test]
    fn a_missing_field_is_named() {
        let err = e21_table(&ARTIFACT.replace("\"speedup\"", "\"ratio\"")).unwrap_err();
        assert!(err.contains("\"speedup\""), "{err}");
    }

    #[test]
    fn splice_replaces_only_between_the_markers_and_is_idempotent() {
        let doc = "intro\n<!-- repro:e21 -->\nstale\n<!-- /repro:e21 -->\noutro\n";
        let once = splice(doc, "e21", "fresh\n").unwrap();
        assert_eq!(
            once,
            "intro\n<!-- repro:e21 -->\nfresh\n<!-- /repro:e21 -->\noutro\n"
        );
        assert_eq!(splice(&once, "e21", "fresh\n").unwrap(), once);
        assert!(splice("no markers", "e21", "x").is_err());
        assert!(splice("<!-- repro:e21 -->\nunclosed", "e21", "x").is_err());
    }
}
