//! P01 — performance harness for the pre-characterization engine.
//!
//! Measures, on the default-resolution grid of the tanh reference
//! oscillator:
//!
//! - the original per-cell scalar fill over the full grid (trig re-derived
//!   per integrand evaluation) vs the batched twiddle-table fill, serial
//!   and parallel, which evaluates the `φ ≤ π` half and mirrors the rest
//!   (`cells_evaluated`, read off `shil_core_prechar_cells_total`);
//! - a cold, serial `ShilAnalysis::new` (natural solve, then `C_{T_f,1}`
//!   traced by continuation: `track_evals` exact `I₁` evaluations, read off
//!   `shil_core_track_evals_total`) vs the grid build it replaced (natural
//!   solve, serial `precharacterize`, `marching_squares`, one exact `I₁`
//!   per vertex);
//! - a 25-point injection-frequency sweep constructing one analysis per
//!   point, uncached vs served from a [`PrecharCache`] (the cache must
//!   build exactly once);
//! - `lock_range` by the phase-track walk vs the scan + bisection oracle
//!   it replaced ([`shil_bench::oracle`]), `solutions_at_phase` off the
//!   track vs with a fresh isoline extraction, and a `V_i` ladder
//!   (0.0295–0.0305 in steps of 1e-4) with each point's cost and
//!   `|Δφ_d_max|` against the oracle.
//!
//! Progress goes through structured `shil-observe` events (`--quiet`
//! silences the human rendering; `--events-out [path]` mirrors them to
//! JSONL). With `--metrics-out [path]` the process-wide metric registry is
//! enabled and a run manifest lands next to the JSON artifact.
//!
//! Writes `results/BENCH_precharacterize.json` for regression tracking.

use std::time::Duration;

use shil::core::cache::PrecharCache;
use shil::core::describing::natural_oscillation;
use shil::core::harmonics::{i1_injected, HarmonicTable};
use shil::core::nonlinearity::NegativeTanh;
use shil::core::shil::{effective_parallelism, precharacterize, ShilAnalysis, ShilOptions};
use shil::core::tank::{ParallelRlc, Tank};
use shil::numerics::contour::marching_squares;
use shil::observe::RunManifest;
use shil_bench::oracle::{scan_lock_range, WALK_ORACLE_REL_BOUND};
use shil_bench::{obs, results_dir, timed};

/// One `V_i` ladder point: `V_i`, walk and oracle median seconds, walk and
/// oracle `φ_d_max`, walk and oracle Newton iterations.
type LadderPoint = (f64, f64, f64, f64, f64, u64, u64);

fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<Duration> = (0..reps).map(|_| timed(&mut f).1).collect();
    times.sort();
    times[reps / 2].as_secs_f64()
}

/// Runs `run` with the metric registry enabled; returns its result and what
/// it added to counter `name`.
fn counted<T>(name: &str, run: impl FnOnce() -> T) -> (T, u64) {
    let was = shil::observe::is_enabled();
    shil::observe::set_enabled(true);
    let before = shil::observe::snapshot().counter(name);
    let out = run();
    let after = shil::observe::snapshot().counter(name);
    shil::observe::set_enabled(was);
    (out, after - before)
}

fn main() {
    let obs = obs::init("perf_precharacterize");
    let log = &obs.log;
    let f = NegativeTanh::new(1e-3, 20.0);
    let tank = ParallelRlc::new(1000.0, 10e-6, 10e-9).expect("tank");
    let opts = ShilOptions::default();
    let (n, vi, r) = (3u32, 0.03, 1000.0);
    let cores = effective_parallelism(None);
    log.info(
        "perf_precharacterize_started",
        &[
            ("grid_phase_points", (opts.phase_points as u64).into()),
            (
                "grid_amplitude_points",
                (opts.amplitude_points as u64).into(),
            ),
            ("samples_per_period", (opts.harmonics.samples as u64).into()),
            ("cores", (cores as u64).into()),
        ],
    );
    let mut manifest = RunManifest::start("perf_precharacterize");
    manifest.push_config("grid_phase_points", opts.phase_points as u64);
    manifest.push_config("grid_amplitude_points", opts.amplitude_points as u64);
    manifest.push_config("samples_per_period", opts.harmonics.samples as u64);
    manifest.push_config("cores", cores as u64);

    let nx = opts.phase_points;
    let phis: Vec<f64> = (0..nx)
        .map(|i| std::f64::consts::TAU * i as f64 / (nx - 1) as f64)
        .collect();
    let amps: Vec<f64> = (0..opts.amplitude_points)
        .map(|j| 0.06 + 0.015 * j as f64)
        .collect();
    let table = HarmonicTable::new(n, 1, &opts.harmonics);

    let (_, cells_evaluated) = counted("shil_core_prechar_cells_total", || {
        precharacterize(&f, r, vi, nx, &amps, &table, 1).expect("grids")
    });
    let reps = 5;
    let t_scalar = median_secs(reps, || {
        let mut acc = 0.0;
        for &a in &amps {
            for &phi in &phis {
                let i1 = i1_injected(&f, a, vi, phi, n, &opts.harmonics);
                acc += -r * i1.re / (a / 2.0) + (-i1).arg();
            }
        }
        std::hint::black_box(acc);
    });
    let t_serial = median_secs(reps, || {
        std::hint::black_box(precharacterize(&f, r, vi, nx, &amps, &table, 1).expect("grids"));
    });
    let t_parallel = median_secs(reps, || {
        std::hint::black_box(precharacterize(&f, r, vi, nx, &amps, &table, cores).expect("grids"));
    });
    log.info(
        "grid_fill_measured",
        &[
            ("reps", (reps as u64).into()),
            ("cells_evaluated", cells_evaluated.into()),
            ("scalar_per_cell_s", t_scalar.into()),
            ("batched_serial_s", t_serial.into()),
            ("batched_parallel_s", t_parallel.into()),
            ("speedup_serial_vs_scalar", (t_scalar / t_serial).into()),
            ("speedup_parallel_vs_scalar", (t_scalar / t_parallel).into()),
        ],
    );

    // Cold build, serial on both sides: the traced C_{T_f,1} against the
    // grid fill + marching squares + phase track it replaced.
    let serial = ShilOptions {
        parallelism: Some(1),
        ..opts
    };
    let (_, track_evals) = counted("shil_core_track_evals_total", || {
        ShilAnalysis::new(&f, &tank, n, vi, serial).expect("analysis")
    });
    let grid_track = || {
        let natural = natural_oscillation(&f, &tank, &opts.natural).expect("natural");
        let (a_lo, a_hi) = (
            opts.a_min_factor * natural.amplitude,
            opts.a_max_factor * natural.amplitude,
        );
        let ny = opts.amplitude_points;
        let amps: Vec<f64> = (0..ny)
            .map(|j| a_lo + (a_hi - a_lo) * j as f64 / (ny - 1) as f64)
            .collect();
        let table = HarmonicTable::new(n, 1, &opts.harmonics);
        let (tf, _) = precharacterize(&f, r, vi, nx, &amps, &table, 1).expect("grids");
        let curves = marching_squares(&tf, 1.0).expect("level set");
        let mut buf = table.scratch();
        let track: Vec<Vec<f64>> = curves
            .iter()
            .map(|c| {
                c.points
                    .iter()
                    .map(|p| (-table.i1(&f, p.y, vi, p.x, &mut buf)).arg())
                    .collect()
            })
            .collect();
        (curves, track)
    };
    let grid_track_evals = cells_evaluated
        + grid_track()
            .0
            .iter()
            .map(|c| c.points.len() as u64)
            .sum::<u64>();
    let cold_reps = 9;
    let t_natural = median_secs(cold_reps, || {
        std::hint::black_box(natural_oscillation(&f, &tank, &opts.natural).expect("natural"));
    });
    let t_cold_trace = median_secs(cold_reps, || {
        std::hint::black_box(ShilAnalysis::new(&f, &tank, n, vi, serial).expect("analysis"));
    });
    let t_cold_grid = median_secs(cold_reps, || {
        std::hint::black_box(grid_track());
    });
    log.info(
        "cold_build_measured",
        &[
            ("reps", (cold_reps as u64).into()),
            ("track_evals", track_evals.into()),
            ("grid_track_evals", grid_track_evals.into()),
            ("natural_median_s", t_natural.into()),
            ("trace_median_s", t_cold_trace.into()),
            ("grid_track_median_s", t_cold_grid.into()),
            ("speedup", (t_cold_grid / t_cold_trace).into()),
        ],
    );

    // 25-point injection-frequency sweep, one analysis per point (the
    // Tab. 1 / Fig. 14 access pattern).
    let fc = tank.center_frequency_hz();
    let sweep: Vec<f64> = (0..25)
        .map(|k| 3.0 * fc * (1.0 + 2e-5 * (k as f64 - 12.0)))
        .collect();
    let (count_uncached, t_uncached) = timed(|| {
        let mut found = 0usize;
        for &fi in &sweep {
            let an = ShilAnalysis::new(&f, &tank, n, vi, opts).expect("analysis");
            found += an.solutions_at_injection(fi).expect("solutions").len();
        }
        found
    });
    let cache = PrecharCache::new();
    let (count_cached, t_cached) = timed(|| {
        let mut found = 0usize;
        for &fi in &sweep {
            let an = ShilAnalysis::new_cached(&f, &tank, n, vi, opts, &cache).expect("analysis");
            found += an.solutions_at_injection(fi).expect("solutions").len();
        }
        found
    });
    assert_eq!(count_uncached, count_cached, "cache changed the results");
    assert_eq!(
        cache.grid_builds(),
        1,
        "cached sweep must build the grid exactly once"
    );
    log.info(
        "sweep25_measured",
        &[
            ("uncached_s", t_uncached.as_secs_f64().into()),
            ("cached_s", t_cached.as_secs_f64().into()),
            ("cached_grid_builds", cache.grid_builds().into()),
            ("cached_grid_hits", cache.grid_hits().into()),
            (
                "speedup",
                (t_uncached.as_secs_f64() / t_cached.as_secs_f64()).into(),
            ),
        ],
    );

    // Lock range: walk vs oracle on the reference oscillator, then the
    // V_i ladder. Analyses are built first, so only the queries are timed.
    let lr_reps = 21;
    let an = ShilAnalysis::new(&f, &tank, n, vi, opts).expect("analysis");
    let walk_s = median_secs(lr_reps, || {
        std::hint::black_box(an.lock_range().expect("lock range"));
    });
    let oracle_s = median_secs(lr_reps, || {
        std::hint::black_box(scan_lock_range(&an, &tank).expect("oracle"));
    });
    let probe_phi = 0.5 * an.lock_range().expect("lock range").phi_d_max;
    let solutions_s = median_secs(lr_reps, || {
        std::hint::black_box(an.solutions_at_phase(probe_phi).expect("solutions"));
    });
    let solutions_isoline_s = median_secs(lr_reps, || {
        std::hint::black_box(an.graphical_curves(probe_phi).expect("curves"));
    });
    let mut ladder = Vec::new();
    for k in 0..=10 {
        let vi_k = 0.0295 + 1e-4 * k as f64;
        let an = ShilAnalysis::new(&f, &tank, n, vi_k, opts).expect("analysis");
        // Newton iterations of the polishes per query, counted on an
        // untimed call: the query's cost is nearly all polish work.
        const ITERS: &str = "shil_numerics_newton_iterations_total";
        let (walk, walk_iters) = counted(ITERS, || an.lock_range().expect("lock range").phi_d_max);
        let (scan, scan_iters) = counted(ITERS, || {
            scan_lock_range(&an, &tank).expect("oracle").phi_d_max
        });
        let walk_s = median_secs(5, || {
            std::hint::black_box(an.lock_range().expect("lock range"));
        });
        let oracle_s = median_secs(5, || {
            std::hint::black_box(scan_lock_range(&an, &tank).expect("oracle"));
        });
        ladder.push((vi_k, walk_s, oracle_s, walk, scan, walk_iters, scan_iters));
    }
    let ratio = |col: fn(&LadderPoint) -> f64| {
        let max = ladder.iter().map(col).fold(f64::NEG_INFINITY, f64::max);
        let min = ladder.iter().map(col).fold(f64::INFINITY, f64::min);
        max / min
    };
    let walk_ratio = ratio(|p| p.1);
    let oracle_ratio = ratio(|p| p.2);
    let worst_rel = ladder
        .iter()
        .map(|p| (p.3 - p.4).abs() / p.4)
        .fold(0.0, f64::max);
    assert!(
        worst_rel <= WALK_ORACLE_REL_BOUND,
        "walk left the oracle bound on the ladder: {worst_rel:e}"
    );
    log.info(
        "lock_range_measured",
        &[
            ("reps", (lr_reps as u64).into()),
            ("walk_median_s", walk_s.into()),
            ("oracle_median_s", oracle_s.into()),
            ("speedup", (oracle_s / walk_s).into()),
            ("solutions_track_median_s", solutions_s.into()),
            (
                "solutions_with_isoline_median_s",
                solutions_isoline_s.into(),
            ),
            ("ladder_walk_cost_ratio", walk_ratio.into()),
            ("ladder_oracle_cost_ratio", oracle_ratio.into()),
            ("ladder_worst_rel_dphi_d_max", worst_rel.into()),
        ],
    );
    let ladder_json: Vec<String> = ladder
        .iter()
        .map(|&(vi_k, w, o, pw, po, we, oe)| {
            format!(
                "      {{\"vi\": {vi_k:.4}, \"walk_s\": {w:.6e}, \"oracle_s\": {o:.6e}, \
                 \"walk_newton_iters\": {we}, \"oracle_newton_iters\": {oe}, \
                 \"phi_d_max\": {pw:.12e}, \"abs_dphi_d_max\": {:.6e}, \
                 \"rel_dphi_d_max\": {:.6e}}}",
                (pw - po).abs(),
                (pw - po).abs() / po
            )
        })
        .collect();
    let lock_range_json = format!(
        "  \"lock_range\": {{\n    \"n\": {n},\n    \"vi\": {vi},\n    \"reps\": {lr_reps},\n    \
         \"walk_median_s\": {walk_s:.6e},\n    \"oracle_median_s\": {oracle_s:.6e},\n    \
         \"speedup_walk_vs_oracle\": {:.3},\n    \
         \"solutions_track_median_s\": {solutions_s:.6e},\n    \
         \"solutions_with_isoline_median_s\": {solutions_isoline_s:.6e},\n    \
         \"rel_bound\": {WALK_ORACLE_REL_BOUND:e},\n    \
         \"ladder_walk_cost_ratio\": {walk_ratio:.3},\n    \
         \"ladder_oracle_cost_ratio\": {oracle_ratio:.3},\n    \
         \"ladder_worst_rel_dphi_d_max\": {worst_rel:.6e},\n    \
         \"ladder\": [\n{}\n    ]\n  }}\n",
        oracle_s / walk_s,
        ladder_json.join(",\n")
    );

    let cold_build_json = format!(
        "  \"cold_build\": {{\n    \"reps\": {cold_reps},\n    \"threads\": 1,\n    \
         \"track_evals\": {track_evals},\n    \"grid_track_evals\": {grid_track_evals},\n    \
         \"natural_median_s\": {t_natural:.6e},\n    \"trace_median_s\": {t_cold_trace:.6e},\n    \
         \"grid_track_median_s\": {t_cold_grid:.6e},\n    \
         \"speedup_trace_vs_grid_track\": {:.3}\n  }},\n",
        t_cold_grid / t_cold_trace
    );

    let json = format!(
        "{{\n  \"grid\": [{}, {}],\n  \"phase_points\": {},\n  \"cells_evaluated\": {},\n  \
         \"samples_per_period\": {},\n  \"cores\": {},\n  \
         \"grid_fill_median_s\": {{\n    \"scalar_per_cell\": {:.6e},\n    \
         \"batched_serial\": {:.6e},\n    \"batched_parallel\": {:.6e}\n  }},\n  \
         \"speedup_batched_serial_vs_scalar\": {:.3},\n  \
         \"speedup_batched_parallel_vs_scalar\": {:.3},\n  \
         \"sweep25_uncached_s\": {:.6e},\n  \"sweep25_cached_s\": {:.6e},\n  \
         \"sweep25_cached_grid_builds\": {},\n  \"sweep25_cached_grid_hits\": {},\n{}{}}}\n",
        opts.phase_points,
        opts.amplitude_points,
        opts.phase_points,
        cells_evaluated,
        opts.harmonics.samples,
        cores,
        t_scalar,
        t_serial,
        t_parallel,
        t_scalar / t_serial,
        t_scalar / t_parallel,
        t_uncached.as_secs_f64(),
        t_cached.as_secs_f64(),
        cache.grid_builds(),
        cache.grid_hits(),
        cold_build_json,
        lock_range_json,
    );
    let path = results_dir().join("BENCH_precharacterize.json");
    std::fs::write(&path, json).expect("write json");
    log.info(
        "artifact_written",
        &[("path", "results/BENCH_precharacterize.json".into())],
    );
    obs.write_manifest(manifest);
}
