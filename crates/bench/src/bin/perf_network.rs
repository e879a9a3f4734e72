//! Per-step transient cost of coupled-oscillator networks across the
//! direct linear-solver tiers — the measurement behind `SolverKind::Auto`
//! handing every network to sparse LU with the bypass certificate.
//!
//! Rings of detuned tanh LC oscillators (two unknowns each: tank node +
//! inductor branch) are scaled from ~10² to ~10³ MNA unknowns and a short
//! transient is timed under dense LU and sparse LU. Each tier is measured
//! in two regimes:
//!
//! - **steady** — the production configuration, where the factorization
//!   bypass certificate serves most Newton iterations from a stale LU and
//!   per-step cost is dominated by stamping plus the certificate residual;
//!   `steady_factorizations` counts the refactorizations that still ran;
//! - **refactor** — the bypass disabled, so every Newton iteration pays
//!   its tier's factorization (sparse LU scatters into an O(n²) working
//!   buffer). This is the cost the certificate avoids, and what start-up,
//!   kicks and step-halving recovery pay.
//!
//! Sparse LU wins in steady state because it refactorizes only a handful
//! of times per run; CI gates that count (`steady_factorizations ≤ 4`) and
//! `auto_tier == "sparse"` on every rung. Dense is skipped — and the skip
//! logged — above the size where its cubic factorization stops being
//! informative.
//!
//! Writes `results/BENCH_network.json`. Pass `--quick` for a seconds-scale
//! smoke run (same fields, fewer reps and shorter transients) — used by
//! the CI network-smoke job. `--timeout <s>` arms a whole-process deadline
//! on every transient via `shil_runtime::Budget`.

use std::time::Duration;

use shil::circuit::analysis::{transient, SolverKind};
use shil::circuit::mna::MnaStructure;
use shil::circuit::network::{CoupledNetwork, Coupling, NetworkSpec, Topology};
use shil::observe::RunManifest;
use shil::runtime::Budget;
use shil_bench::{obs, results_dir, timed};

fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<Duration> = (0..reps).map(|_| timed(&mut f).1).collect();
    times.sort();
    times[reps / 2].as_secs_f64()
}

/// The whole-harness budget from `--timeout <s>` (unlimited when absent).
fn harness_budget() -> Budget {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let deadline = args
        .iter()
        .position(|a| a == "--timeout")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<f64>().ok())
        .map(Duration::from_secs_f64);
    match deadline {
        Some(d) => Budget::with_deadline(d),
        None => Budget::unlimited(),
    }
}

/// A ring of `n` detuned oscillators with mid-transition resistive
/// coupling: representative network structure without a special-case
/// operating point.
fn ring(n: usize) -> NetworkSpec {
    let detuning: Vec<f64> = (0..n)
        .map(|i| -0.003 + 0.006 * i as f64 / (n - 1) as f64)
        .collect();
    NetworkSpec::new(n, Topology::Ring, Coupling::Resistive { ohms: 2e3 }).with_detuning(detuning)
}

/// Per-step times (µs) for one tier in one regime, with the factorization
/// accounting that proves which regime actually ran.
struct Regime {
    us_per_step: f64,
    factorizations: usize,
    reuses: usize,
}

struct Rung {
    oscillators: usize,
    unknowns: usize,
    auto_tier: &'static str,
    /// `None` = skipped (dense factorization too slow to be informative).
    dense: Option<[Regime; 2]>,
    sparse: [Regime; 2],
}

/// Times `kind` on `net` in both regimes: `[steady, refactor]`.
fn time_tier(
    net: &CoupledNetwork,
    kind: SolverKind,
    periods: f64,
    ppp: usize,
    reps: usize,
    budget: &Budget,
) -> [Regime; 2] {
    [TranReuse::Certificate, TranReuse::Disabled].map(|reuse| {
        let mut opts = net
            .transient_options(0.0, periods, ppp)
            .with_budget(budget.clone());
        opts.solver = kind;
        if matches!(reuse, TranReuse::Disabled) {
            opts = opts.with_reuse_min_dim(usize::MAX);
        }
        let res = transient(&net.circuit, &opts).expect("transient");
        let t = median_secs(reps, || {
            std::hint::black_box(transient(&net.circuit, &opts).expect("transient"));
        });
        Regime {
            us_per_step: 1e6 * t / res.report.attempts as f64,
            factorizations: res.report.factorizations,
            reuses: res.report.reuses,
        }
    })
}

#[derive(Clone, Copy)]
enum TranReuse {
    Certificate,
    Disabled,
}

fn json_regimes(r: &[Regime; 2]) -> String {
    format!(
        "{{\"steady_us_per_step\": {:.4}, \"refactor_us_per_step\": {:.4}, \
         \"steady_factorizations\": {}, \"steady_reuses\": {}}}",
        r[0].us_per_step, r[1].us_per_step, r[0].factorizations, r[0].reuses
    )
}

fn json_ladder(rungs: &[Rung]) -> String {
    let rows: Vec<String> = rungs
        .iter()
        .map(|r| {
            format!(
                "    {{\"oscillators\": {}, \"unknowns\": {}, \"auto_tier\": \"{}\",\n     \
                 \"dense\": {},\n     \"sparse\": {}}}",
                r.oscillators,
                r.unknowns,
                r.auto_tier,
                r.dense.as_ref().map_or("null".into(), json_regimes),
                json_regimes(&r.sparse),
            )
        })
        .collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let obs = obs::init("perf_network");
    let log = &obs.log;
    let budget = harness_budget();
    let cores = shil::core::shil::effective_parallelism(None);
    // Two unknowns per oscillator: the ladder spans ~10²–10³ unknowns.
    let sizes: &[usize] = &[56, 128, 256, 448];
    // Dense LU is O(n³) per refactorization; past this many unknowns the
    // refactor regime would dominate the harness runtime without adding
    // information.
    let dense_cap = 300;
    let (periods, reps) = if quick { (2.0, 3) } else { (6.0, 5) };
    let ppp = 64;
    log.info(
        "perf_network_started",
        &[("quick", quick.into()), ("cores", (cores as u64).into())],
    );
    let mut manifest = RunManifest::start("perf_network");
    manifest.push_config("quick", quick);
    manifest.push_config("cores", cores as u64);
    manifest.push_config("periods", periods);

    let mut rungs = Vec::new();
    for &n in sizes {
        let net = ring(n).build().expect("network build");
        let unknowns = MnaStructure::new(&net.circuit).size();
        let dense = if unknowns <= dense_cap {
            Some(time_tier(
                &net,
                SolverKind::Dense,
                periods,
                ppp,
                reps,
                &budget,
            ))
        } else {
            log.info(
                "dense_rung_skipped",
                &[
                    ("unknowns", (unknowns as u64).into()),
                    ("cap", (dense_cap as u64).into()),
                ],
            );
            None
        };
        let sparse = time_tier(&net, SolverKind::Sparse, periods, ppp, reps, &budget);
        log.info(
            "network_rung",
            &[
                ("oscillators", (n as u64).into()),
                ("unknowns", (unknowns as u64).into()),
                ("sparse_steady_us", sparse[0].us_per_step.into()),
                ("sparse_refactor_us", sparse[1].us_per_step.into()),
                (
                    "sparse_steady_factorizations",
                    (sparse[0].factorizations as u64).into(),
                ),
            ],
        );
        rungs.push(Rung {
            oscillators: n,
            unknowns,
            auto_tier: match SolverKind::Auto.resolve(unknowns) {
                SolverKind::Dense => "dense",
                SolverKind::Sparse => "sparse",
                SolverKind::Auto => unreachable!("resolve returns a concrete tier"),
            },
            dense,
            sparse,
        });
    }

    let json = format!(
        "{{\n  \"cores\": {},\n  \"quick\": {},\n  \"topology\": \"ring\",\n  \
         \"coupling\": \"resistive\",\n  \"points_per_period\": {},\n  \
         \"ladder\": {}\n}}\n",
        cores,
        quick,
        ppp,
        json_ladder(&rungs),
    );
    let path = results_dir().join("BENCH_network.json");
    std::fs::write(&path, json).expect("write json");
    log.info(
        "artifact_written",
        &[("path", "results/BENCH_network.json".into())],
    );
    obs.write_manifest(manifest);
}
