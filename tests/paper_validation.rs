//! End-to-end validation against the paper's §IV numbers.
//!
//! These tests tie all five crates together: circuits are built and swept
//! with `shil-circuit`, curves flow into `shil-core`, predictions are
//! checked against both transient simulation (via `shil-waveform`) and the
//! paper's reported values.

use shil::core::describing::{natural_oscillation, NaturalOptions};
use shil::core::shil::{ShilAnalysis, ShilOptions};
use shil::core::tank::Tank;
use shil::repro::diff_pair::{DiffPairOscillator, DiffPairParams};
use shil::repro::simlock::{
    measure_natural, probe_lock, probe_lock_sweep, simulated_lock_range, SimOptions,
};
use shil::repro::tunnel_diode::TunnelDiodeParams;

const N: u32 = 3;
const VI: f64 = 0.03;

#[test]
fn diff_pair_natural_oscillation_matches_simulation_and_paper() {
    let params = DiffPairParams::calibrated(0.505).expect("calibration");
    let f = params.extract_iv_curve().expect("extraction");
    let tank = params.tank().expect("tank");
    let nat = natural_oscillation(&f, &tank, &NaturalOptions::default()).expect("oscillates");

    // Calibration target: the paper's Fig. 12b prediction.
    assert!(
        (nat.amplitude - 0.505).abs() < 1e-3,
        "A = {}",
        nat.amplitude
    );
    // Oscillation frequency = tank center = 0.5033 MHz (paper Fig. 13).
    assert!((nat.frequency_hz - 503.29e3).abs() < 50.0);

    let osc = DiffPairOscillator::build(params);
    let sim = measure_natural(
        &osc.circuit,
        osc.ncl,
        osc.ncr,
        nat.frequency_hz,
        &SimOptions::default(),
        &[(osc.ncl, params.vcc + 0.05)],
    )
    .expect("simulation");
    // "Essentially perfect match" (§IV): amplitude within 1 %, frequency
    // within 0.2 % (fixed-step integrator dispersion dominates the latter).
    assert!(
        (sim.amplitude - nat.amplitude).abs() / nat.amplitude < 0.01,
        "sim A = {} vs pred {}",
        sim.amplitude,
        nat.amplitude
    );
    assert!(
        (sim.frequency_hz - nat.frequency_hz).abs() / nat.frequency_hz < 2e-3,
        "sim f = {} vs pred {}",
        sim.frequency_hz,
        nat.frequency_hz
    );
}

#[test]
fn tunnel_diode_natural_oscillation_matches_simulation_and_paper() {
    let params = TunnelDiodeParams::calibrated(0.199).expect("calibration");
    let f = params.biased_nonlinearity();
    let tank = params.tank().expect("tank");
    let nat = natural_oscillation(&f, &tank, &NaturalOptions::default()).expect("oscillates");
    assert!((nat.amplitude - 0.199).abs() < 1e-3);
    assert!((nat.frequency_hz - 503.29e6).abs() < 5e4);

    let osc = shil::repro::tunnel_diode::TunnelDiodeOscillator::build(params);
    let sim = measure_natural(
        &osc.circuit,
        osc.n_diode,
        0,
        nat.frequency_hz,
        &SimOptions::default(),
        &[
            (osc.n_tank, params.v_bias + 0.02),
            (osc.n_diode, params.v_bias + 0.02),
        ],
    )
    .expect("simulation");
    assert!((sim.amplitude - nat.amplitude).abs() / nat.amplitude < 0.01);
    assert!((sim.frequency_hz - nat.frequency_hz).abs() / nat.frequency_hz < 2e-3);
}

/// The strongest reproduction check in the suite: with R calibrated only
/// to the paper's *natural amplitude* (0.199 V), the predicted Table 2
/// lock limits land on the paper's predicted values to ~5 significant
/// digits.
#[test]
fn tunnel_diode_lock_range_prediction_matches_paper_table2() {
    let params = TunnelDiodeParams::calibrated(0.199).expect("calibration");
    let f = params.biased_nonlinearity();
    let tank = params.tank().expect("tank");
    let lock = ShilAnalysis::new(&f, &tank, N, VI, ShilOptions::default())
        .expect("analysis")
        .lock_range()
        .expect("lock range");

    let paper_lower = 1.507320e9;
    let paper_upper = 1.512429e9;
    assert!(
        (lock.lower_injection_hz - paper_lower).abs() / paper_lower < 2e-5,
        "lower {} vs paper {paper_lower}",
        lock.lower_injection_hz
    );
    assert!(
        (lock.upper_injection_hz - paper_upper).abs() / paper_upper < 2e-5,
        "upper {} vs paper {paper_upper}",
        lock.upper_injection_hz
    );
    let paper_span = paper_upper - paper_lower;
    assert!(
        (lock.injection_span_hz - paper_span).abs() / paper_span < 5e-3,
        "span {} vs paper {paper_span}",
        lock.injection_span_hz
    );
}

#[test]
fn diff_pair_lock_range_prediction_agrees_with_simulation() {
    let params = DiffPairParams::calibrated(0.505).expect("calibration");
    let f = params.extract_iv_curve().expect("extraction");
    let tank = params.tank().expect("tank");
    let lock = ShilAnalysis::new(&f, &tank, N, VI, ShilOptions::default())
        .expect("analysis")
        .lock_range()
        .expect("lock range");
    // Sanity on the shape: a few-kHz range bracketing 3 f_c.
    let fc = tank.center_frequency_hz();
    assert!(lock.lower_injection_hz < 3.0 * fc && 3.0 * fc < lock.upper_injection_hz);
    assert!(lock.injection_span_hz > 5e3 && lock.injection_span_hz < 50e3);

    // Fast simulated search with a loose gate: spans agree within 15 %.
    let opts = SimOptions::default();
    let sim = simulated_lock_range(
        |f_inj| {
            let mut o = DiffPairOscillator::build(params);
            o.set_injection(DiffPairOscillator::injection_wave(VI, f_inj, 0.0))
                .expect("injection");
            probe_lock(
                &o.circuit,
                o.ncl,
                o.ncr,
                f_inj,
                N,
                &opts,
                &[(o.ncl, params.vcc + 0.05)],
            )
        },
        3.0 * fc,
        3.0 * fc * 1.5e-3,
        3.0 * fc * 5e-5,
    )
    .expect("simulated lock range");
    assert!(
        (sim.injection_span_hz - lock.injection_span_hz).abs() / lock.injection_span_hz < 0.15,
        "sim span {} vs predicted {}",
        sim.injection_span_hz,
        lock.injection_span_hz
    );
    // Edges within 0.2 % of each other.
    assert!(
        (sim.lower_injection_hz - lock.lower_injection_hz).abs() / lock.lower_injection_hz < 2e-3
    );
    assert!(
        (sim.upper_injection_hz - lock.upper_injection_hz).abs() / lock.upper_injection_hz < 2e-3
    );
}

/// The largest `φ_d` along the exact `C_{T_f,1}` over `0 < φ < π`, found
/// without the analysis' own curve: at each trial `φ`, secant iterations
/// on the exact `T_f − 1` residual solve `A` onto the curve from
/// `a_start`, and `φ_d = −∠−I₁` there. A 64-point scan brackets the peak,
/// golden-section search refines it.
fn exact_fold_phi_d<N, T>(an: &ShilAnalysis<'_, N, T>, a_start: f64) -> f64
where
    N: shil::core::Nonlinearity + Sync,
    T: Tank + Sync,
{
    let phi_d = |phi: f64| {
        let residual = |a: f64| an.residuals(phi, a, 0.0).0;
        let (mut a0, mut a1) = (a_start * 1.001, a_start);
        let (mut r0, mut r1) = (residual(a0), residual(a1));
        for _ in 0..60 {
            if r1.abs() < 1e-14 || r1 == r0 {
                break;
            }
            (a0, r0, a1) = (a1, r1, a1 - r1 * (a1 - a0) / (r1 - r0));
            r1 = residual(a1);
        }
        -an.residuals(phi, a1, 0.0).1
    };
    let step = std::f64::consts::PI / 64.0;
    let peak = (1..64)
        .max_by(|&i, &j| phi_d(i as f64 * step).total_cmp(&phi_d(j as f64 * step)))
        .expect("samples");
    let (mut lo, mut hi) = ((peak - 1) as f64 * step, (peak + 1) as f64 * step);
    let g = 0.5 * (5f64.sqrt() - 1.0);
    while hi - lo > 1e-9 {
        let (x1, x2) = (hi - g * (hi - lo), lo + g * (hi - lo));
        if phi_d(x1) > phi_d(x2) {
            hi = x2;
        } else {
            lo = x1;
        }
    }
    phi_d(0.5 * (lo + hi))
}

/// Table 1's lock range ends where `φ_d` peaks on the exact `C_{T_f,1}`
/// (a saddle-node fold). Tracing the curve puts the walk's end there; a
/// curve read off a grid by marching squares interpolates between nodes,
/// and on this extracted I–V curve that put a spurious fold 1.8e-3 below
/// the exact one.
#[test]
fn diff_pair_lock_range_ends_at_the_exact_fold() {
    let params = DiffPairParams::calibrated(0.505).expect("calibration");
    let f = params.extract_iv_curve().expect("extraction");
    let tank = params.tank().expect("tank");
    let an = ShilAnalysis::new(&f, &tank, N, VI, ShilOptions::default()).expect("analysis");
    let lock = an.lock_range().expect("lock range");
    assert!(!lock.degraded);
    let fold = exact_fold_phi_d(&an, an.natural().amplitude);
    assert!(
        (lock.phi_d_max - fold).abs() <= 1e-9 * fold,
        "walk {} vs exact fold {fold}",
        lock.phi_d_max
    );
}

/// The §III-C validation scan as a parallel fan-out: probe a frequency
/// grid bracketing the predicted lock range in one sweep and check the
/// verdict pattern (unlocked – locked – unlocked) lands where the
/// graphical prediction says it should.
#[test]
fn diff_pair_parallel_lock_sweep_brackets_the_predicted_range() {
    let params = DiffPairParams::calibrated(0.505).expect("calibration");
    let f = params.extract_iv_curve().expect("extraction");
    let tank = params.tank().expect("tank");
    let lock = ShilAnalysis::new(&f, &tank, N, VI, ShilOptions::default())
        .expect("analysis")
        .lock_range()
        .expect("lock range");
    let center = 0.5 * (lock.lower_injection_hz + lock.upper_injection_hz);
    let half = 0.5 * lock.injection_span_hz;

    // Two points clearly outside, three clearly inside the prediction
    // (edges are excluded: simulation and prediction disagree by up to
    // 0.2 % there, which is the existing binary-search test's business).
    let freqs = [
        center - 3.0 * half,
        center - 0.5 * half,
        center,
        center + 0.5 * half,
        center + 3.0 * half,
    ];
    let opts = SimOptions::default();
    let sweep = probe_lock_sweep(
        |f_inj| {
            let mut o = DiffPairOscillator::build(params);
            o.set_injection(DiffPairOscillator::injection_wave(VI, f_inj, 0.0))
                .expect("injection");
            o.circuit
        },
        // Node ids are stable across builds of the same params.
        DiffPairOscillator::build(params).ncl,
        DiffPairOscillator::build(params).ncr,
        &freqs,
        N,
        &opts,
        &[(DiffPairOscillator::build(params).ncl, params.vcc + 0.05)],
        None,
    )
    .expect("lock sweep");

    assert_eq!(sweep.locked, vec![false, true, true, true, false]);
    assert_eq!(sweep.locked_count(), 3);
    // The diff pair (9 unknowns) sits below `TranOptions::REUSE_MIN_DIM`,
    // where the bypass certificate's residual check costs more than
    // refactorizing a tiny matrix (the `reuse_threshold` ladder in
    // `BENCH_tran.json` is the measurement), so the production path skips
    // it: every Newton iteration refactorizes, zero certified reuses.
    assert_eq!(
        sweep.report.reuses, 0,
        "certificate should be skipped below REUSE_MIN_DIM: {}",
        sweep.report
    );
    assert!(sweep.report.factorizations > 0);

    // Determinism: a serial pass returns the identical verdict vector.
    let serial = probe_lock_sweep(
        |f_inj| {
            let mut o = DiffPairOscillator::build(params);
            o.set_injection(DiffPairOscillator::injection_wave(VI, f_inj, 0.0))
                .expect("injection");
            o.circuit
        },
        DiffPairOscillator::build(params).ncl,
        DiffPairOscillator::build(params).ncr,
        &freqs,
        N,
        &opts,
        &[(DiffPairOscillator::build(params).ncl, params.vcc + 0.05)],
        Some(1),
    )
    .expect("serial sweep");
    assert_eq!(serial.locked, sweep.locked);
    assert_eq!(serial.report.attempts, sweep.report.attempts);
    assert_eq!(serial.report.reuses, sweep.report.reuses);
}

/// Fig. 14/18: "A (and φ) decreases with increasing |ω_c − ω_i| till a
/// cut-off point is reached" — the dome shape of the lock amplitude across
/// the lock range, checked on the tunnel diode.
///
/// (The paper also remarks that the SHIL amplitude sits below the natural
/// one; for the fully specified §VI-C tunnel diode at |V_i| = 30 mV our
/// prediction *and* simulation both put the center-lock amplitude ~8 %
/// above natural — the 60 mV peak injection is 30 % of the swing and adds
/// to it. The monotone decrease toward the edges is the robust, testable
/// shape; see EXPERIMENTS.md "known deviations".)
#[test]
fn shil_amplitude_decreases_monotonically_toward_the_band_edges() {
    let params = TunnelDiodeParams::calibrated(0.199).expect("calibration");
    let f = params.biased_nonlinearity();
    let tank = params.tank().expect("tank");
    let an = ShilAnalysis::new(&f, &tank, N, VI, ShilOptions::default()).expect("analysis");
    let lr = an.lock_range().expect("lock range");
    let amp_at = |frac: f64| {
        an.solutions_at_phase(frac * lr.phi_d_max)
            .expect("solutions")
            .into_iter()
            .find(|s| s.stable)
            .expect("stable lock")
            .amplitude
    };
    let a0 = amp_at(0.0);
    let a1 = amp_at(0.45);
    let a2 = amp_at(0.9);
    assert!(a0 > a1 && a1 > a2, "not monotone: {a0}, {a1}, {a2}");
    // And the same on the negative-detuning side (±φ_d symmetry, §VI-B3).
    let b1 = amp_at(-0.45);
    let b2 = amp_at(-0.9);
    assert!(a0 > b1 && b1 > b2, "not monotone: {a0}, {b1}, {b2}");
    assert!(
        (a1 - b1).abs() < 1e-6 && (a2 - b2).abs() < 1e-6,
        "asymmetric"
    );
}
