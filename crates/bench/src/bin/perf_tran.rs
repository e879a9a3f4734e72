//! P02 — performance harness for the transient solver core.
//!
//! Two circuits: the paper's calibrated diff pair carrying its §IV
//! injection (9 unknowns — the scale where *any* linear-solver trick is a
//! wash because Jacobian assembly dominates), and the same oscillator
//! loaded with an RC parasitic ladder on each tank node (129 unknowns —
//! the post-layout scale where LU factorization is the step cost and the
//! sparse kernel + factorization bypass pay off).
//!
//! For each circuit, measures per-step transient solve time for three
//! solver configurations — dense without factorization reuse (the seed
//! engine's behaviour), then dense and sparse at the production reuse
//! setting (the bypass certificate runs from `TranOptions::REUSE_MIN_DIM`
//! unknowns up, so the 9-unknown pair refactorizes every iteration and the
//! 129-unknown one reuses) — asserting sparse and dense produce
//! bit-identical waveforms, and reports the factorization / reuse split.
//! Then times a 25-point injection-frequency sweep of the loaded
//! oscillator: serial dense without reuse vs the parallel sparse sweep
//! engine.
//!
//! Progress goes through structured `shil-observe` events (`--quiet`
//! silences the human rendering; `--events-out [path]` mirrors them to
//! JSONL). With `--metrics-out [path]` the process-wide metric registry is
//! enabled and a run manifest lands next to the JSON artifact.
//!
//! A dense / sparse per-step ladder across system sizes, the measurement
//! behind `SolverKind::Auto`'s crossover, lands in the JSON as
//! `auto_crossover`; its rungs run the same configuration and horizon as
//! the circuit rows, so its 9-unknown rung re-measures the `diff_pair`
//! row. A second ladder over small systems (9–25 unknowns) times the
//! bypass certificate against plain refactorization, pinning the
//! `TranOptions::REUSE_MIN_DIM` crossover; it lands as `reuse_threshold`.
//!
//! Writes `results/BENCH_tran.json` for regression tracking. Pass
//! `--quick` for a seconds-scale smoke run (same fields, shorter
//! transients) — used by the CI bench-smoke job. `--timeout <s>` arms a
//! whole-process deadline on every transient (via `shil_runtime::Budget`):
//! a run that cannot finish in time aborts with a cancellation error
//! instead of hanging the CI lane.

use std::time::Duration;

use shil::circuit::analysis::{transient, SolverKind, SweepEngine, TranOptions};
use shil::circuit::mna::MnaStructure;
use shil::circuit::{Circuit, NodeId, TranResult};
use shil::observe::{EventLog, RunManifest};
use shil::repro::diff_pair::{DiffPairOscillator, DiffPairParams};
use shil::runtime::Budget;
use shil_bench::{obs, paper, results_dir, timed};

fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<Duration> = (0..reps).map(|_| timed(&mut f).1).collect();
    times.sort();
    times[reps / 2].as_secs_f64()
}

/// Builds the injected diff pair; with `ladder_sections > 0`, hangs an RC
/// parasitic ladder (series 10 kΩ, shunt 10 fF — too light to move the
/// tank) off each collector node, the way extracted post-layout parasitics
/// bloat an MNA system without changing the electrical story.
fn injected_diff_pair(
    params: DiffPairParams,
    f_inj: f64,
    ladder_sections: usize,
) -> (Circuit, NodeId) {
    let mut osc = DiffPairOscillator::build(params);
    osc.set_injection(DiffPairOscillator::injection_wave(paper::VI, f_inj, 0.0))
        .expect("injection");
    let mut ckt = osc.circuit;
    for (side, start) in [("l", osc.ncl), ("r", osc.ncr)] {
        let mut prev = start;
        for k in 0..ladder_sections {
            let node = ckt.node(&format!("par_{side}{k}"));
            ckt.resistor(prev, node, 10e3);
            ckt.capacitor(node, Circuit::GROUND, 10e-15);
            prev = node;
        }
    }
    (ckt, osc.ncl)
}

fn tran_options(
    params: DiffPairParams,
    f_inj: f64,
    kick_node: NodeId,
    periods: f64,
    solver: SolverKind,
    reuse: bool,
) -> TranOptions {
    let period = paper::N as f64 / f_inj;
    let mut opts = TranOptions::new(period / 96.0, periods * period)
        .with_ic(kick_node, params.vcc + 0.05)
        .with_budget(harness_budget());
    opts.solver = solver;
    // With `reuse` the production bypass setting stays as it is: the
    // certificate runs from `REUSE_MIN_DIM` unknowns up (the
    // `reuse_threshold` ladder times it forced on and off below that).
    if !reuse {
        opts.reuse_tolerance = 0.0;
    }
    opts
}

/// The whole-harness budget from `--timeout <s>` (unlimited when absent).
/// Built once per call so every transient shares the same process deadline.
fn harness_budget() -> Budget {
    static DEADLINE: std::sync::OnceLock<Option<std::time::Instant>> = std::sync::OnceLock::new();
    let deadline = *DEADLINE.get_or_init(|| {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--timeout")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<f64>().ok())
            .map(|s| std::time::Instant::now() + Duration::from_secs_f64(s))
    });
    match deadline {
        Some(at) => Budget::with_deadline(at.saturating_duration_since(std::time::Instant::now())),
        None => Budget::unlimited(),
    }
}

/// Max pointwise deviation between two runs of the same circuit.
fn max_deviation(a: &TranResult, b: &TranResult, node: NodeId) -> f64 {
    let (va, vb) = (a.node_voltage(node).unwrap(), b.node_voltage(node).unwrap());
    va.iter()
        .zip(vb)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

struct CircuitBench {
    unknowns: usize,
    steps: usize,
    /// Seconds per accepted step: [dense_noreuse, dense_reuse, sparse_reuse];
    /// the `reuse` configs run the production `REUSE_MIN_DIM` setting.
    per_step: [f64; 3],
    factorizations: usize,
    reuses: usize,
    reuse_rate: f64,
}

fn bench_circuit(
    log: &EventLog,
    label: &str,
    params: DiffPairParams,
    f_inj: f64,
    ladder_sections: usize,
    periods: f64,
    reps: usize,
) -> CircuitBench {
    let configs = [
        ("dense_noreuse", SolverKind::Dense, false),
        ("dense_reuse", SolverKind::Dense, true),
        ("sparse_reuse", SolverKind::Sparse, true),
    ];
    let (ckt, node) = injected_diff_pair(params, f_inj, ladder_sections);
    let unknowns = MnaStructure::new(&ckt).size();
    let mut runs = Vec::new();
    let mut per_step = [0.0; 3];
    for (slot, &(_, kind, reuse)) in configs.iter().enumerate() {
        let opts = tran_options(params, f_inj, node, periods, kind, reuse);
        let res = transient(&ckt, &opts).expect("transient");
        let t = median_secs(reps, || {
            std::hint::black_box(transient(&ckt, &opts).expect("transient"));
        });
        per_step[slot] = t / res.report.attempts as f64;
        runs.push(res);
    }
    // Sparse and dense are bit-identical at the same reuse setting; the
    // bypass itself is inexact-Newton (per-step residual still gated by
    // abstol), so against the no-reuse baseline we bound the deviation.
    assert_eq!(runs[1].time, runs[2].time, "{label}: time axes differ");
    assert_eq!(
        runs[1].node_voltage(node).unwrap(),
        runs[2].node_voltage(node).unwrap(),
        "{label}: sparse and dense waveforms differ"
    );
    let dev = max_deviation(&runs[0], &runs[1], node);
    assert!(
        dev < 0.05,
        "{label}: reuse deviated {dev} V from the exact baseline"
    );

    let report = &runs[2].report;
    log.info(
        "circuit_benched",
        &[
            ("label", label.into()),
            ("unknowns", (unknowns as u64).into()),
            ("steps", (report.attempts as u64).into()),
            ("reps", (reps as u64).into()),
            ("dense_noreuse_us_per_step", (1e6 * per_step[0]).into()),
            ("dense_reuse_us_per_step", (1e6 * per_step[1]).into()),
            ("sparse_reuse_us_per_step", (1e6 * per_step[2]).into()),
            ("factorizations", (report.factorizations as u64).into()),
            ("reuses", (report.reuses as u64).into()),
            ("reuse_rate", report.reuse_rate().into()),
        ],
    );
    CircuitBench {
        unknowns,
        steps: report.attempts,
        per_step,
        factorizations: report.factorizations,
        reuses: report.reuses,
        reuse_rate: report.reuse_rate(),
    }
}

/// One rung of the `SolverKind::Auto` crossover ladder: per-step time of
/// both backends at one system size, each with the production reuse
/// setting and the circuit rows' horizon. This is the measurement behind
/// the dense↔sparse constant in `SolverKind::resolve`: the backends run
/// the engine default, so the numbers answer exactly the question `Auto`
/// has to decide. Networks of ~10²–10³ unknowns, where refactorization
/// cost decides more, are measured by `perf_network`
/// (`BENCH_network.json`).
struct CrossoverPoint {
    unknowns: usize,
    dense_us: f64,
    sparse_us: f64,
}

fn bench_crossover(
    log: &EventLog,
    params: DiffPairParams,
    f_inj: f64,
    periods: f64,
    reps: usize,
) -> Vec<CrossoverPoint> {
    // Ladder sections add two unknowns each: 9, 17, 33, 65, 129.
    [0usize, 4, 12, 28, 60]
        .iter()
        .map(|&sections| {
            let (ckt, node) = injected_diff_pair(params, f_inj, sections);
            let unknowns = MnaStructure::new(&ckt).size();
            let mut us = [0.0f64; 2];
            for (slot, kind) in [SolverKind::Dense, SolverKind::Sparse]
                .into_iter()
                .enumerate()
            {
                let opts = tran_options(params, f_inj, node, periods, kind, true);
                let res = transient(&ckt, &opts).expect("transient");
                let t = median_secs(reps, || {
                    std::hint::black_box(transient(&ckt, &opts).expect("transient"));
                });
                us[slot] = 1e6 * t / res.report.attempts as f64;
            }
            log.info(
                "crossover_point",
                &[
                    ("unknowns", (unknowns as u64).into()),
                    ("dense_us_per_step", us[0].into()),
                    ("sparse_us_per_step", us[1].into()),
                ],
            );
            CrossoverPoint {
                unknowns,
                dense_us: us[0],
                sparse_us: us[1],
            }
        })
        .collect()
}

/// One rung of the `reuse_min_dim` threshold ladder: per-step time with the
/// bypass certificate forced on (`with_reuse_min_dim(0)`) vs forced off
/// (threshold above every size, so the solver refactorizes each iteration)
/// at one small-system size. This is the measurement behind
/// `TranOptions::REUSE_MIN_DIM` — at the paper scale the certificate's
/// `A·x` residual check costs more than a tiny LU, and the ladder pins the
/// crossover the default threshold sits on.
struct ReuseThresholdPoint {
    unknowns: usize,
    certificate_us: f64,
    skip_us: f64,
}

fn bench_reuse_threshold(
    log: &EventLog,
    params: DiffPairParams,
    f_inj: f64,
    periods: f64,
    reps: usize,
) -> Vec<ReuseThresholdPoint> {
    // Ladder sections add two unknowns each: 9, 11, 13, 17, 25 — bracketing
    // the default threshold from both sides.
    [0usize, 1, 2, 4, 8]
        .iter()
        .map(|&sections| {
            let (ckt, node) = injected_diff_pair(params, f_inj, sections);
            let unknowns = MnaStructure::new(&ckt).size();
            let mut us = [0.0f64; 2];
            for (slot, min_dim) in [0usize, usize::MAX].into_iter().enumerate() {
                // `Auto` picks the production backend at each size (dense
                // below the sparse crossover), so every rung measures the
                // configuration the threshold actually gates.
                let opts = tran_options(params, f_inj, node, periods, SolverKind::Auto, true)
                    .with_reuse_min_dim(min_dim);
                let res = transient(&ckt, &opts).expect("transient");
                let t = median_secs(reps, || {
                    std::hint::black_box(transient(&ckt, &opts).expect("transient"));
                });
                us[slot] = 1e6 * t / res.report.attempts as f64;
            }
            log.info(
                "reuse_threshold_point",
                &[
                    ("unknowns", (unknowns as u64).into()),
                    ("certificate_us_per_step", us[0].into()),
                    ("skip_us_per_step", us[1].into()),
                ],
            );
            ReuseThresholdPoint {
                unknowns,
                certificate_us: us[0],
                skip_us: us[1],
            }
        })
        .collect()
}

fn json_reuse_threshold(points: &[ReuseThresholdPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{ \"unknowns\": {}, \"certificate_us\": {:.4}, \"skip_us\": {:.4} }}",
                p.unknowns, p.certificate_us, p.skip_us
            )
        })
        .collect();
    format!(
        "{{\n    \"min_dim\": {},\n    \"ladder\": [\n      {}\n    ]\n  }}",
        TranOptions::REUSE_MIN_DIM,
        rows.join(",\n      ")
    )
}

fn json_crossover(points: &[CrossoverPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{ \"unknowns\": {}, \"dense_us\": {:.4}, \"sparse_us\": {:.4} }}",
                p.unknowns, p.dense_us, p.sparse_us
            )
        })
        .collect();
    format!("[\n    {}\n  ]", rows.join(",\n    "))
}

fn json_circuit(b: &CircuitBench) -> String {
    format!(
        "{{\n    \"unknowns\": {},\n    \"steps\": {},\n    \"per_step_us\": {{\n      \
         \"dense_noreuse\": {:.4},\n      \"dense_reuse\": {:.4},\n      \
         \"sparse_reuse\": {:.4}\n    }},\n    \
         \"speedup_sparse_reuse_vs_dense_noreuse\": {:.3},\n    \
         \"factorizations\": {},\n    \"reuses\": {},\n    \"reuse_rate\": {:.4}\n  }}",
        b.unknowns,
        b.steps,
        1e6 * b.per_step[0],
        1e6 * b.per_step[1],
        1e6 * b.per_step[2],
        b.per_step[0] / b.per_step[2],
        b.factorizations,
        b.reuses,
        b.reuse_rate,
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let obs = obs::init("perf_tran");
    let log = &obs.log;
    let params = DiffPairParams::calibrated(paper::DIFF_PAIR_AMPLITUDE).expect("calibration");
    let f_inj = 3.0 * params.center_frequency_hz();
    let cores = shil::core::shil::effective_parallelism(None);
    let (periods, sweep_periods, reps, sections) = if quick {
        (40.0, 10.0, 3, 60)
    } else {
        (300.0, 120.0, 5, 60)
    };
    log.info(
        "perf_tran_started",
        &[("quick", quick.into()), ("cores", (cores as u64).into())],
    );
    let mut manifest = RunManifest::start("perf_tran");
    manifest.push_config("quick", quick);
    manifest.push_config("cores", cores as u64);
    manifest.push_config("periods", periods);
    manifest.push_config("sweep_periods", sweep_periods);

    let paper_bench = bench_circuit(log, "diff pair", params, f_inj, 0, periods, reps);
    assert_eq!(
        paper_bench.reuses, 0,
        "the 9-unknown pair sits below REUSE_MIN_DIM, so every iteration refactorizes"
    );
    let loaded_bench = bench_circuit(
        log,
        "loaded diff pair",
        params,
        f_inj,
        sections,
        periods,
        reps,
    );
    assert!(
        loaded_bench.reuse_rate > 0.5,
        "expected most Newton iterations served by reuse, got {}",
        loaded_bench.reuse_rate
    );

    // --- 25-point lock sweep of the loaded oscillator ---------------------
    // Serial dense without reuse (the seed engine one frequency at a time)
    // vs the parallel sparse sweep engine with the bypass on.
    let sweep: Vec<f64> = (0..25)
        .map(|k| f_inj * (1.0 + 2e-5 * (k as f64 - 12.0)))
        .collect();
    // Like a real lock probe: settle, then record only the measurement
    // window (the last fifth of the run).
    let setup = |kind: SolverKind, reuse: bool| {
        move |_: usize, &fi: &f64| {
            let (ckt, node) = injected_diff_pair(params, fi, sections);
            let opts = tran_options(params, fi, node, sweep_periods, kind, reuse);
            let settle = 0.8 * opts.t_stop;
            (ckt, opts.record_after(settle))
        }
    };
    let (serial_sweep, t_serial) =
        timed(|| SweepEngine::serial().transient_sweep(&sweep, setup(SolverKind::Dense, false)));
    let (parallel_sweep, t_parallel) =
        timed(|| SweepEngine::new(None).transient_sweep(&sweep, setup(SolverKind::Sparse, true)));
    // Determinism gate: re-running the fast configuration serially must
    // reproduce the parallel results bit for bit.
    let replay = SweepEngine::serial().transient_sweep(&sweep, setup(SolverKind::Sparse, true));
    let node = injected_diff_pair(params, f_inj, sections).1;
    for (i, (a, b)) in replay.runs.iter().zip(&parallel_sweep.runs).enumerate() {
        let a = a.as_ref().expect("serial replay run");
        let b = b.as_ref().expect("parallel run");
        assert_eq!(a.time, b.time, "sweep point {i}: time axes differ");
        assert_eq!(
            a.node_voltage(node).unwrap(),
            b.node_voltage(node).unwrap(),
            "sweep point {i}: serial and parallel waveforms differ"
        );
    }
    for r in &serial_sweep.runs {
        assert!(r.is_ok(), "serial baseline run failed");
    }
    let t_serial = t_serial.as_secs_f64();
    let t_parallel = t_parallel.as_secs_f64();
    log.info(
        "sweep25_measured",
        &[
            ("unknowns", (loaded_bench.unknowns as u64).into()),
            ("cores", (cores as u64).into()),
            ("serial_dense_s", t_serial.into()),
            ("parallel_sparse_s", t_parallel.into()),
            ("speedup", (t_serial / t_parallel).into()),
            (
                "serial_aggregate",
                serial_sweep.aggregate.to_string().into(),
            ),
            (
                "parallel_aggregate",
                parallel_sweep.aggregate.to_string().into(),
            ),
        ],
    );

    let crossover = bench_crossover(log, params, f_inj, periods, reps);
    let reuse_threshold = bench_reuse_threshold(log, params, f_inj, periods.min(60.0), reps);

    let json = format!(
        "{{\n  \"cores\": {},\n  \"quick\": {},\n  \"diff_pair\": {},\n  \
         \"loaded_diff_pair\": {},\n  \"auto_crossover\": {},\n  \
         \"reuse_threshold\": {},\n  \"sweep25_points\": 25,\n  \
         \"sweep25_serial_dense_s\": {:.6e},\n  \
         \"sweep25_parallel_sparse_s\": {:.6e},\n  \"sweep25_speedup\": {:.3}\n}}\n",
        cores,
        quick,
        json_circuit(&paper_bench),
        json_circuit(&loaded_bench),
        json_crossover(&crossover),
        json_reuse_threshold(&reuse_threshold),
        t_serial,
        t_parallel,
        t_serial / t_parallel,
    );
    let path = results_dir().join("BENCH_tran.json");
    std::fs::write(&path, json).expect("write json");
    log.info(
        "artifact_written",
        &[("path", "results/BENCH_tran.json".into())],
    );
    obs.write_manifest(manifest);
}
