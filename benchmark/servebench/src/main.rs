//! `servebench`: the command behind `benchmark/run.sh`.
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` — one run of one
//!   workload, as the benchmark driver calls it. The last line of standard
//!   output is one JSON object: `correct`, `attempted`, `failed`, `metrics`
//!   (the end-to-end metrics with `--trace 0`, the per-layer ones with 1).
//! * no `--workload` — every workload, traced; prints every metric by name
//!   with its unit and writes `out/results.json` and `out/trace_<w>.json`.
//! * `--check-repeat` — two untraced sets back to back, compared pair by
//!   pair against each metric's bound.
//! * `--smoke` — a two-second traced set: schema and correctness only.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use servebench::gen::Workload;
use servebench::run::{run, Env, Outcome, Shape};
use servebench::spec::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS};

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke] [--check-repeat]";

/// Default workload seed: the paper's year.
const DEFAULT_SEED: u64 = 1980;

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    check_repeat: bool,
    env: Env,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        check_repeat: false,
        env: Env {
            sdb: PathBuf::new(),
            probe: None,
            out: PathBuf::new(),
        },
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = || Workload::ALL.map(|w| w.name()).join(", ");
                args.workload = Some(
                    Workload::parse(&name)
                        .ok_or_else(|| format!("unknown workload {name:?} ({})", known()))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" | "--secs" => {
                let s: f64 = value()?.parse().map_err(|e| format!("{flag}: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("{flag} must be in (0, 60], got {s}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--check-repeat" => args.check_repeat = true,
            "--sdb" => args.env.sdb = value()?.into(),
            "--probe" => args.env.probe = Some(value()?.into()),
            "--out" => args.env.out = value()?.into(),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if args.env.sdb.as_os_str().is_empty() || args.env.out.as_os_str().is_empty() {
        return Err("run through benchmark/run.sh, which passes --sdb and --out".into());
    }
    // A probe that did not build is reported, not fatal.
    args.env.probe = args.env.probe.filter(|p| p.is_file());
    Ok(args)
}

fn print_metrics(title: &str, catalogue: &[Metric], values: &BTreeMap<&'static str, f64>) {
    println!("  {title}");
    for m in catalogue {
        println!("    {:<36} {:>16.4} {}", m.name, values[m.name], m.unit);
    }
}

fn print_outcome(outcome: &Outcome) {
    println!(
        "== {}: {} ops attempted, {} failed",
        outcome.workload.name(),
        outcome.attempted,
        outcome.failed
    );
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    print_metrics("end to end", &END_TO_END, &outcome.end_to_end);
    if !outcome.per_layer.is_empty() {
        print_metrics("per layer", &PER_LAYER, &outcome.per_layer);
    }
}

fn metrics_json(catalogue: &[Metric], values: &BTreeMap<&'static str, f64>) -> String {
    let fields: Vec<String> = catalogue
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, values[m.name], m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Every metric must be a finite number; a NaN would not be valid JSON.
fn all_finite(outcome: &Outcome) -> Result<(), String> {
    for (name, value) in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        if !value.is_finite() {
            return Err(format!("{}: {name} is {value}", outcome.workload.name()));
        }
    }
    Ok(())
}

fn run_one(args: &Args, workload: Workload, trace: bool) -> Result<Outcome, String> {
    let shape = Shape {
        seed: args.seed,
        seconds: args
            .seconds
            .unwrap_or(if args.smoke { 2.0 } else { RUN_SECONDS as f64 }),
        trace,
        setups: if args.smoke { 1 } else { SETUPS },
    };
    let outcome =
        run(&args.env, workload, shape).map_err(|e| format!("{}: {e}", workload.name()))?;
    all_finite(&outcome)?;
    Ok(outcome)
}

/// The driver's call: one workload, result object on the last line.
fn driver_run(args: &Args, workload: Workload) -> Result<bool, String> {
    let outcome = run_one(args, workload, args.trace)?;
    print_outcome(&outcome);
    let metrics = if args.trace {
        metrics_json(&PER_LAYER, &outcome.per_layer)
    } else {
        metrics_json(&END_TO_END, &outcome.end_to_end)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    Ok(outcome.failed == 0)
}

/// Every workload, traced; `results.json` and the trace files.
fn full_set(args: &Args) -> Result<bool, String> {
    let mut results = Vec::new();
    let mut clean = true;
    for workload in Workload::ALL {
        let outcome = run_one(args, workload, true)?;
        print_outcome(&outcome);
        // Which layers the workload stresses: in-process machine + relation
        // time (core is inside machine.run_us) against the client's median.
        let share = (outcome.per_layer["machine.run_us"] + outcome.per_layer["server.render_us"])
            / (outcome.per_layer["server.query_p50_ms"] * 1e3);
        println!("  machine+core+relation share of server.query_p50_ms: {share:.3}");
        clean &= outcome.failed == 0;
        let notes: Vec<String> = outcome.notes.iter().map(|n| json_string(n)).collect();
        results.push(format!(
            "    \"{}\": {{\"attempted\": {}, \"failed\": {}, \"end_to_end\": {}, \
             \"per_layer\": {}, \"notes\": [{}]}}",
            workload.name(),
            outcome.attempted,
            outcome.failed,
            metrics_json(&END_TO_END, &outcome.end_to_end),
            metrics_json(&PER_LAYER, &outcome.per_layer),
            notes.join(", ")
        ));
    }
    let path = args.env.out.join("results.json");
    let doc = format!(
        "{{\n  \"seed\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        args.seed,
        results.join(",\n")
    );
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "wrote {} and {} trace files",
        path.display(),
        Workload::ALL.len()
    );
    Ok(clean)
}

/// Two untraced sets of the same binary and seed; every end-to-end pair must
/// agree within the metric's bound, the simulated-clock metrics exactly.
/// Prints a Markdown table.
fn check_repeat(args: &Args) -> Result<bool, String> {
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut sets: Vec<Vec<Outcome>> = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for &workload in &workloads {
            set.push(run_one(args, workload, false)?);
        }
        sets.push(set);
    }
    println!("| workload | metric | unit | first | second | worse by | bound | |");
    println!("|---|---|---|---:|---:|---:|---:|---|");
    let mut agree = true;
    for (first, second) in sets[0].iter().zip(&sets[1]) {
        agree &= first.failed == 0 && second.failed == 0;
        for m in &END_TO_END {
            let (a, b) = (first.end_to_end[m.name], second.end_to_end[m.name]);
            // Worsening in either direction: neither set is the baseline.
            let worse = m.better.worsening(a, b).max(m.better.worsening(b, a));
            // Simulated-clock metrics repeat exactly for a seed.
            let ok = if m.name.starts_with("sim_") {
                a == b
            } else {
                worse <= m.bound
            };
            agree &= ok;
            println!(
                "| {} | {} | {} | {a:.4} | {b:.4} | {:.2}% | {:.0}% | {} |",
                first.workload.name(),
                m.name,
                m.unit,
                worse * 100.0,
                m.bound * 100.0,
                if ok { "ok" } else { "DISAGREE" }
            );
        }
    }
    Ok(agree)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.check_repeat {
            check_repeat(&args)
        } else if let Some(workload) = args.workload {
            driver_run(&args, workload)
        } else {
            full_set(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("servebench: failed ops or disagreeing runs (see above)");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("servebench: {message}");
            ExitCode::from(2)
        }
    }
}
