//! E07 — Fig. 14 + Table 1: the diff-pair 3rd-sub-harmonic lock range,
//! prediction vs brute-force simulated binary search, with the speedup
//! measurement.

use shil::core::cache::PrecharCache;
use shil::core::shil::{ShilAnalysis, ShilOptions};
use shil::core::tank::Tank;
use shil::plot::{Figure, Marker, Series};
use shil::repro::diff_pair::{DiffPairOscillator, DiffPairParams};
use shil::repro::simlock::{probe_lock, simulated_lock_range};
use shil_bench::{accurate_sim_options, fmt_hz, header, paper, results_dir, timed};

fn main() {
    header("Table 1 + Fig. 14 — diff-pair 3rd SHIL lock range");
    let params = DiffPairParams::calibrated(paper::DIFF_PAIR_AMPLITUDE).expect("calibration");
    let f = params.extract_iv_curve().expect("extraction");
    let tank = params.tank().expect("tank");
    let fc = tank.center_frequency_hz();
    println!(
        "oscillator: R = {:.1} Ohm, Q = {:.1}, f_c = {}",
        params.r_tank,
        tank.q(),
        fmt_hz(fc)
    );
    println!("injection: n = {}, |V_i| = {} V", paper::N, paper::VI);

    // Prediction (includes the one-off pre-characterization, the traced
    // C_{T_f,1}, shared with the Fig. 14 sweep below through the cache).
    let cache = PrecharCache::new();
    let (lock, t_pred) = timed(|| {
        let an = ShilAnalysis::new_cached(
            &f,
            &tank,
            paper::N,
            paper::VI,
            ShilOptions::default(),
            &cache,
        )
        .expect("analysis");
        an.lock_range().expect("lock range")
    });

    // Brute-force simulated binary search (the paper's baseline).
    let opts = accurate_sim_options();
    let (sim, t_sim) = timed(|| {
        let probe = |f_inj: f64| {
            let mut o = DiffPairOscillator::build(params);
            o.set_injection(DiffPairOscillator::injection_wave(paper::VI, f_inj, 0.0))
                .expect("injection");
            probe_lock(
                &o.circuit,
                o.ncl,
                o.ncr,
                f_inj,
                paper::N,
                &opts,
                &[(o.ncl, params.vcc + opts.startup_kick)],
            )
        };
        simulated_lock_range(probe, 3.0 * fc, 3.0 * fc * 1.5e-3, 3.0 * fc * 1e-5)
            .expect("simulated lock range")
    });

    println!();
    println!("3rd SHIL      | lower lock limit | upper lock limit | lock range Δf");
    println!("--------------+------------------+------------------+---------------");
    println!(
        "Simulation    | {:>16} | {:>16} | {:>13}",
        fmt_hz(sim.lower_injection_hz),
        fmt_hz(sim.upper_injection_hz),
        fmt_hz(sim.injection_span_hz)
    );
    println!(
        "Prediction    | {:>16} | {:>16} | {:>13}",
        fmt_hz(lock.lower_injection_hz),
        fmt_hz(lock.upper_injection_hz),
        fmt_hz(lock.injection_span_hz)
    );
    println!(
        "paper (sim)   | {:>16} | {:>16} | {:>13}",
        fmt_hz(paper::table1::SIM_LOWER),
        fmt_hz(paper::table1::SIM_UPPER),
        fmt_hz(paper::table1::SIM_UPPER - paper::table1::SIM_LOWER)
    );
    println!(
        "paper (pred)  | {:>16} | {:>16} | {:>13}",
        fmt_hz(paper::table1::PRED_LOWER),
        fmt_hz(paper::table1::PRED_UPPER),
        fmt_hz(paper::table1::PRED_UPPER - paper::table1::PRED_LOWER)
    );
    println!();
    let span_err =
        100.0 * (lock.injection_span_hz - sim.injection_span_hz).abs() / sim.injection_span_hz;
    println!("prediction-vs-simulation span deviation: {span_err:.2}%");
    println!(
        "timing: prediction {t_pred:?} vs simulation {t_sim:?} ({} probes) -> speedup {:.1}x (paper: ~{}x)",
        sim.probes,
        t_sim.as_secs_f64() / t_pred.as_secs_f64(),
        paper::table1::SPEEDUP
    );

    // Fig. 14: amplitude and phase of the stable lock across the range.
    // Each sweep point constructs its own analysis, as a standalone sweep
    // over injection frequencies would — the cache serves the grid build
    // from the first construction above, so no point re-characterizes.
    let mut amp_curve: (Vec<f64>, Vec<f64>) = (vec![], vec![]);
    let mut phase_curve: (Vec<f64>, Vec<f64>) = (vec![], vec![]);
    for k in 0..=24 {
        let phi_d = lock.phi_d_max * (k as f64 / 24.0 - 0.5) * 2.0 * 0.98;
        let point = ShilAnalysis::new_cached(
            &f,
            &tank,
            paper::N,
            paper::VI,
            ShilOptions::default(),
            &cache,
        )
        .expect("cached analysis");
        if let Ok(sols) = point.solutions_at_phase(phi_d) {
            if let Some(s) = sols.iter().find(|s| s.stable) {
                let f_inj =
                    3.0 * tank.omega_for_phase(phi_d).expect("in range") / std::f64::consts::TAU;
                amp_curve.0.push(f_inj);
                amp_curve.1.push(s.amplitude);
                phase_curve.0.push(f_inj);
                phase_curve.1.push(s.phase);
            }
        }
    }
    println!(
        "sweep cache: {} grid build(s), {} reuse(s) across {} analyses",
        cache.grid_builds(),
        cache.grid_hits(),
        cache.grid_builds() + cache.grid_hits()
    );
    let fig = Figure::new("Fig. 14: stable-lock amplitude across the lock range")
        .with_axis_labels("f_injection (Hz)", "A (V)")
        .with_series(Series::line(
            "A(f_inj)",
            amp_curve.0.clone(),
            amp_curve.1.clone(),
        ))
        .with_series(Series::scatter(
            "boundaries",
            vec![lock.lower_injection_hz, lock.upper_injection_hz],
            vec![
                *amp_curve.1.first().unwrap_or(&0.5),
                *amp_curve.1.last().unwrap_or(&0.5),
            ],
            Marker::Star,
        ));
    println!("{}", fig.render_ascii(72, 16));

    let dir = results_dir();
    fig.save_svg(dir.join("fig14_diff_pair_lock_range.svg"), 840, 520)
        .expect("write svg");
    let mut csv_fig = fig.clone();
    csv_fig.push_series(Series::line(
        "lock phase phi_s (rad)",
        phase_curve.0,
        phase_curve.1,
    ));
    csv_fig
        .save_csv(dir.join("fig14_diff_pair_lock_range.csv"))
        .expect("write csv");
    println!("artifacts: results/fig14_diff_pair_lock_range.{{svg,csv}}");
}
