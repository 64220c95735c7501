//! Backend selection at the process boundary: the `sdb` binary, its
//! `--backend` flag and the `SYSTOLIC_BACKEND` toggle. There are exactly
//! two backends; a name that is neither — the removed `kernel` above all —
//! must stop the process with the usage error and exit status 2, never run
//! the simulator in its place. Run as child processes because the toggle
//! is process-wide state every `MachineConfig::default()` reads.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

/// A one-column table with a duplicate, written once for both tests.
fn table() -> &'static PathBuf {
    static CSV: OnceLock<PathBuf> = OnceLock::new();
    CSV.get_or_init(|| {
        let csv = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("backend_selection_a.csv");
        std::fs::write(&csv, "1\n2\n2\n3\n").unwrap();
        csv
    })
}

/// `sdb [mode..] [--backend B] --table a=<csv> QUERY` with `SYSTOLIC_BACKEND`
/// set to `env` (or removed).
fn sdb(mode: &[&str], flag: Option<&str>, env: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sdb"));
    cmd.args(mode);
    if let Some(backend) = flag {
        cmd.args(["--backend", backend]);
    }
    cmd.arg("--table")
        .arg(format!("a={}:int", table().display()))
        .arg("dedup(scan(a))");
    match env {
        Some(value) => cmd.env("SYSTOLIC_BACKEND", value),
        None => cmd.env_remove("SYSTOLIC_BACKEND"),
    };
    cmd.output().unwrap()
}

fn assert_usage_error(out: &Output, source: &str, value: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{source}={value}: {stderr}");
    assert_eq!(
        stderr.trim_end(),
        format!("{source} expects sim or columnar, got {value:?}"),
    );
    assert!(out.stdout.is_empty(), "{source}={value} still answered");
}

#[test]
fn both_backends_answer_identically_by_flag_and_by_toggle() {
    let unset = sdb(&[], None, None);
    assert!(unset.status.success(), "{unset:?}");
    assert_eq!(String::from_utf8_lossy(&unset.stdout), "c0\n1\n2\n3\n");
    for backend in ["sim", "columnar"] {
        for out in [sdb(&[], Some(backend), None), sdb(&[], None, Some(backend))] {
            assert!(out.status.success(), "{backend}: {out:?}");
            assert_eq!(out.stdout, unset.stdout, "{backend}");
        }
    }
}

#[test]
fn an_unknown_backend_name_is_a_usage_error_with_exit_status_2() {
    for gone in ["kernel", "bogus", ""] {
        // One-shot, `profile` and `serve` all take the flag...
        for mode in [&[][..], &["profile"], &["serve"]] {
            assert_usage_error(&sdb(mode, Some(gone), None), "--backend", gone);
            // ...and all read the toggle, which is checked before anything
            // else: `serve` here would otherwise trip over `--table`.
            assert_usage_error(&sdb(mode, None, Some(gone)), "SYSTOLIC_BACKEND", gone);
        }
        // A valid flag does not excuse a stale toggle.
        let out = sdb(&[], Some("columnar"), Some(gone));
        assert_usage_error(&out, "SYSTOLIC_BACKEND", gone);
    }
}
