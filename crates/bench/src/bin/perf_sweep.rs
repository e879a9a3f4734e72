//! P03 — durable policy-driven sweep harness (the kill-and-resume vehicle).
//!
//! Runs an injection-frequency transient sweep of the paper's calibrated
//! diff pair through the `shil-runtime` execution-control layer: per-item
//! deadlines, retry with backoff, panic isolation, and an append-only
//! checkpoint file. The artifact it writes (`results/SWEEP_aggregate.txt`)
//! contains only deterministic fields — per-point outcomes, the exact bits
//! of each final probe voltage, and the solver-effort aggregate (wall time
//! excluded) — so CI can `diff` a clean run against a `SIGKILL`ed-then-
//! resumed one and demand byte equality.
//!
//! ```text
//! perf_sweep [--quick] [--points <n>] [--threads <n>] [--timeout <s>]
//!            [--item-timeout <s>] [--retries <n>] [--checkpoint [path]]
//!            [--resume] [--out <path>]
//! ```
//!
//! plus the shared `--quiet`, `--metrics-out [path]` and `--events-out
//! [path]`; any other `--flag` prints this usage and exits with status 2.
//!
//! Without `--resume`, a pre-existing checkpoint at the chosen path is
//! removed first; with it, completed points are restored instead of re-run.
//! Exit status is non-zero when any point ends unsuccessfully, so a
//! deadline-truncated first pass fails loudly and the resumed pass must
//! finish the job.
//!
//! All points share one time grid (anchored at the sweep's center
//! frequency). Results do not depend on the thread count, so the diff
//! oracle extends across thread counts: a clean run at one thread count
//! and a killed-then-resumed run at another must produce byte-identical
//! artifacts, and the CI kill-resume job demands exactly that.

use std::time::Duration;

use shil::circuit::analysis::{transient, SweepEngine, TranOptions};
use shil::circuit::{Circuit, NodeId, SolveReport};
use shil::observe::RunManifest;
use shil::repro::diff_pair::{DiffPairOscillator, DiffPairParams};
use shil::runtime::{checkpoint, Budget, CheckpointFile, SweepPolicy};
use shil_bench::{obs, paper, results_dir};

/// Every flag the harness accepts: its own, then the shared observability
/// flags of [`obs::init`].
const FLAGS: [&str; 12] = [
    "--quick",
    "--points",
    "--threads",
    "--timeout",
    "--item-timeout",
    "--retries",
    "--checkpoint",
    "--resume",
    "--out",
    "--quiet",
    "--metrics-out",
    "--events-out",
];

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// `--flag` alone → `Some(default)`, `--flag path` → `Some(path)`.
fn optional_path(args: &[String], flag: &str, default: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Some(v.clone()),
        _ => Some(default.to_string()),
    }
}

fn injected_diff_pair(params: DiffPairParams, f_inj: f64) -> (Circuit, NodeId) {
    let mut osc = DiffPairOscillator::build(params);
    osc.set_injection(DiffPairOscillator::injection_wave(paper::VI, f_inj, 0.0))
        .expect("injection");
    (osc.circuit, osc.ncl)
}

fn artifact(
    freqs: &[f64],
    sweep: &shil::circuit::analysis::PolicySweep<f64>,
    aggregate: &SolveReport,
) -> String {
    let mut out = String::from("point,f_inj_bits,outcome,tries,v_bits\n");
    for (i, (f, item)) in freqs.iter().zip(&sweep.items).enumerate() {
        let v_bits = item
            .value
            .map_or_else(String::new, |v| format!("{:016x}", v.to_bits()));
        out.push_str(&format!(
            "{i},{:016x},{},{},{v_bits}\n",
            f.to_bits(),
            item.outcome,
            item.tries
        ));
    }
    let fallbacks: Vec<String> = aggregate.fallbacks.iter().map(|f| f.to_string()).collect();
    out.push_str(&format!(
        "aggregate ok={} attempts={} halvings={} factorizations={} reuses={} fallbacks=[{}]\n",
        sweep.ok_count(),
        aggregate.attempts,
        aggregate.halvings,
        aggregate.factorizations,
        aggregate.reuses,
        fallbacks.join("; ")
    ));
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = args
        .iter()
        .find(|a| a.starts_with("--") && !FLAGS.contains(&a.as_str()))
    {
        eprintln!(
            "unknown flag: {flag}\nusage: perf_sweep [--quick] [--points <n>] [--threads <n>] \
             [--timeout <s>] [--item-timeout <s>] [--retries <n>] [--checkpoint [path]] \
             [--resume] [--out <path>] [--quiet] [--metrics-out [path]] [--events-out [path]]"
        );
        std::process::exit(2);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let resume = args.iter().any(|a| a == "--resume");
    let obs = obs::init("perf_sweep");
    let log = &obs.log;

    let params = DiffPairParams::calibrated(paper::DIFF_PAIR_AMPLITUDE).expect("calibration");
    let f_center = 3.0 * params.center_frequency_hz();
    let points = flag_value(&args, "--points")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(12);
    let periods = if quick { 30.0 } else { 120.0 };
    let freqs: Vec<f64> = (0..points)
        .map(|k| f_center * (1.0 + 2e-5 * (k as f64 - 0.5 * points as f64)))
        .collect();

    let threads = flag_value(&args, "--threads").and_then(|v| v.parse::<usize>().ok());
    let secs = |flag: &str| {
        flag_value(&args, flag)
            .and_then(|v| v.parse::<f64>().ok())
            .map(Duration::from_secs_f64)
    };
    let policy = SweepPolicy {
        deadline: secs("--timeout"),
        item_timeout: secs("--item-timeout"),
        max_retries: flag_value(&args, "--retries")
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0),
        ..SweepPolicy::default()
    };

    let checkpoint_path =
        optional_path(&args, "--checkpoint", "results/checkpoint_perf_sweep.jsonl");
    let checkpoint_file = checkpoint_path.as_ref().map(|path| {
        if !resume {
            let _ = std::fs::remove_file(path);
        }
        let mut inputs = vec![periods];
        inputs.extend_from_slice(&freqs);
        let fp = checkpoint::fingerprint("perf_sweep", &inputs);
        CheckpointFile::open(path.as_ref(), &fp, freqs.len()).expect("open checkpoint")
    });

    let mut manifest = RunManifest::start("perf_sweep");
    manifest.push_config("quick", quick);
    manifest.push_config("resume", resume);
    manifest.push_config("points", points as u64);
    log.info(
        "perf_sweep_started",
        &[
            ("points", (points as u64).into()),
            ("quick", quick.into()),
            ("resume", resume.into()),
            (
                "restored",
                (checkpoint_file.as_ref().map_or(0, |cp| cp.restored().len()) as u64).into(),
            ),
        ],
    );

    // Shared grid: all points step at the center frequency's resolution.
    let period = paper::N as f64 / f_center;
    let sweep = SweepEngine::new(threads).run_checkpointed(
        &freqs,
        &policy,
        &Budget::unlimited(),
        checkpoint_file.as_ref(),
        |_, &f_inj, item_budget| {
            let (ckt, node) = injected_diff_pair(params, f_inj);
            let opts = TranOptions::new(period / 96.0, periods * period)
                .with_ic(node, params.vcc + 0.05)
                .record_after(0.8 * periods * period)
                .with_budget(item_budget.clone())
                .with_step_retry_budget(policy.step_retry_budget);
            let res = transient(&ckt, &opts)?;
            let v = *res.node_voltage(node).expect("probed node").last().unwrap();
            Ok((v, res.report))
        },
        |v: &f64| format!("{:016x}", v.to_bits()),
        |s: &str| u64::from_str_radix(s, 16).ok().map(f64::from_bits),
    );

    log.info(
        "perf_sweep_finished",
        &[
            ("ok", (sweep.ok_count() as u64).into()),
            ("cancelled", sweep.cancelled.into()),
            ("aggregate", sweep.aggregate.to_string().into()),
        ],
    );

    let out_path = flag_value(&args, "--out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| results_dir().join("SWEEP_aggregate.txt"));
    std::fs::write(&out_path, artifact(&freqs, &sweep, &sweep.aggregate)).expect("write artifact");
    log.info(
        "artifact_written",
        &[("path", out_path.display().to_string().into())],
    );
    obs.write_manifest(manifest);

    if sweep.ok_count() != freqs.len() || sweep.cancelled {
        std::process::exit(1);
    }
}
