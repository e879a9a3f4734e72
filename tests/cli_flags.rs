//! `shil-cli` treats a `--flag` that its subcommand's usage line does not
//! list as a usage error (exit 2) instead of running with defaults — so a
//! stale script's retired flag or a misspelt one cannot lose its setting
//! silently. The check runs before any netlist is read.

use std::process::Command;

const CLI: &str = env!("CARGO_BIN_EXE_shil-cli");

/// Exit code and stderr of one `shil-cli` run.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(CLI).args(args).output().expect("run shil-cli");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

const SWEEP: [&str; 10] = [
    "sweep",
    "absent.cir",
    "--dt",
    "1e-8",
    "--stop",
    "1e-6",
    "--probe",
    "n1",
    "--scale",
    "1",
];

#[test]
fn unknown_flags_are_usage_errors() {
    let removed_backend = [&SWEEP[..], &["--backend", "batched", "--bogus", "3"]].concat();
    let misspelt_timeout = [&SWEEP[..], &["--item-timout", "5"]].concat();
    let cases: [&[&str]; 5] = [
        &removed_backend,
        &misspelt_timeout,
        &["atlas", "--item-timout", "5"],
        &["serve", "--backend", "batched"],
        &["op", "absent.cir", "--probe", "n1"],
    ];
    for args in cases {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(stderr.contains("unknown flag"), "{args:?}: {stderr}");
    }
}

#[test]
fn listed_and_global_flags_pass_the_check() {
    // Every flag is known, so the run gets as far as reading the netlist,
    // which does not exist: an I/O failure (1), not a usage error (2).
    let known = [&SWEEP[..], &["--item-timeout", "5", "--quiet"]].concat();
    let (code, stderr) = run(&known);
    assert_eq!(code, Some(1), "{stderr}");
}

#[test]
fn iterative_solver_is_a_usage_error() {
    // `--solver` takes only `auto`, `dense` and `sparse`.
    let (code, stderr) = run(&["network", "--strength", "2e3", "--solver", "iterative"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(stderr.contains("--solver auto|dense|sparse]"), "{stderr}");
}
