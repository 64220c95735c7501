//! `sdb` — run relational-algebra queries on the simulated systolic
//! database machine (Kung & Lehman, SIGMOD 1980). See `--help`.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match systolic_db::cli::main_with_args(&argv) {
        Ok(output) => print!("{output}"),
        Err(e) => {
            eprintln!("{e}");
            // 2 for a command line (or environment) sdb cannot act on, 1
            // for a run that failed.
            let usage = matches!(e, systolic_db::cli::CliError::Usage(_));
            std::process::exit(if usage { 2 } else { 1 });
        }
    }
}
