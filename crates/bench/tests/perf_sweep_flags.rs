//! `perf_sweep` rejects a `--flag` its usage does not list with exit
//! status 2, before it calibrates or sweeps anything.

use std::process::Command;

#[test]
fn unknown_flags_are_usage_errors() {
    for args in [&["--backend", "batched"][..], &["--item-timout", "5"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_perf_sweep"))
            .args(args)
            .output()
            .expect("run perf_sweep");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: perf_sweep"), "{args:?}: {stderr}");
    }
}
