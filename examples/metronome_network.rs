//! Metronomes on a table: mutual sub-harmonic injection locking in a ring
//! of detuned tanh LC oscillators.
//!
//! Eight oscillators with natural frequencies spread over ±0.4% are
//! coupled around a ring through resistors. Each oscillator injects into
//! its neighbours through the coupling element, so the network is the
//! many-body version of the paper's single-oscillator injection-locking
//! experiment: weak coupling (large resistance) leaves every tank at its
//! own detuned frequency, strong coupling (small resistance) pulls the
//! whole ring onto one consensus frequency with frozen pairwise phase
//! offsets — the metronome synchronization everyone has seen on a shaky
//! table.
//!
//! The example sweeps the coupling resistance across the transition,
//! classifies every point with the network lock analyzer
//! (`probe_network_lock`: per-oscillator windowed phase drift against the
//! consensus frequency, then pairwise relative-phase drift), and asserts
//! both verdicts appear. It then repeats representative points — on the
//! 8-ring and on a ring of 36–48 oscillators — under `SolverKind::Dense`
//! and `SolverKind::Sparse` and asserts the two solver tiers produce
//! *zero* lock-verdict differences: same mutual verdict, same locked
//! fraction, same per-pair classification at every point.
//!
//! Run with: `cargo run --release --example metronome_network`
//!
//! Flags:
//!
//! - `--quick` — shorter transients and a smaller cross-check ring.
//! - `--threads <n>` — sweep parallelism (defaults to the core count).
//! - `--quiet` — suppress the stdout report (artifacts still land).
//!
//! Writes `results/metronome_network.csv`.

use shil::circuit::analysis::{SolverKind, SweepEngine};
use shil::circuit::mna::MnaStructure;
use shil::circuit::network::{
    coupling_strength_sweep, Coupling, NetworkLockOptions, NetworkLockReport, NetworkSpec, Topology,
};
use shil::waveform::lock::LockOptions;

/// Lock options sized so the analysis windows fit the recorded tail even
/// when consensus settles below the nominal mean frequency (detuned rings
/// drag the consensus down, stretching the real period past the one the
/// recording was sized with).
fn lock_options(record_periods: f64) -> NetworkLockOptions {
    let ppw = ((0.9 * record_periods / 6.0).floor() as usize).max(2);
    NetworkLockOptions {
        lock: LockOptions {
            windows: 6,
            periods_per_window: ppw,
            ..LockOptions::default()
        },
        ..NetworkLockOptions::default()
    }
}

/// Transient window shared by both solver tiers in a cross-check.
struct TranWindow {
    settle: f64,
    record: f64,
    ppp: usize,
}

/// Runs the coupling sweep with an explicit solver tier; the library
/// helper `coupling_strength_sweep` covers the default (`Auto`) path.
fn sweep_with_solver(
    base: &NetworkSpec,
    strengths: &[f64],
    engine: &SweepEngine,
    solver: SolverKind,
    window: &TranWindow,
    lock_opts: &NetworkLockOptions,
) -> Vec<NetworkLockReport> {
    engine.map(strengths, |_, &strength| {
        let mut spec = base.clone();
        spec.coupling =
            Coupling::parse(base.coupling.kind(), strength).expect("kind strings re-parse");
        let net = spec.build().expect("network build");
        let mut opts = net.transient_options(window.settle, window.record, window.ppp);
        opts.solver = solver;
        let result = net.simulate(&opts).expect("transient");
        net.probe_lock(&result, lock_opts).expect("lock analysis")
    })
}

/// Asserts two lock reports carry identical verdicts at every level.
fn assert_same_verdicts(tag: &str, a: &NetworkLockReport, b: &NetworkLockReport) {
    assert_eq!(
        a.mutual_lock, b.mutual_lock,
        "{tag}: mutual verdict differs"
    );
    assert_eq!(
        a.locked_fraction, b.locked_fraction,
        "{tag}: locked fraction differs"
    );
    for (pa, pb) in a.pairs.iter().zip(&b.pairs) {
        assert_eq!(
            (pa.a, pa.b, pa.locked),
            (pb.a, pb.b, pb.locked),
            "{tag}: pair ({},{}) verdict differs",
            pa.a,
            pa.b
        );
    }
    for (oa, ob) in a.oscillators.iter().zip(&b.oscillators) {
        assert_eq!(
            oa.locked, ob.locked,
            "{tag}: oscillator {} verdict differs",
            oa.index
        );
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quiet = args.iter().any(|a| a == "--quiet");
    let quick = args.iter().any(|a| a == "--quick");
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok());
    macro_rules! say {
        ($($arg:tt)*) => { if !quiet { println!($($arg)*); } };
    }

    // Eight metronomes around a ring, natural frequencies fanned over
    // ±0.4% — close enough to lock under strong coupling, far enough
    // apart to free-run under weak coupling.
    let n = 8;
    let detuning: Vec<f64> = (0..n)
        .map(|i| -0.004 + 0.008 * i as f64 / (n - 1) as f64)
        .collect();
    let base = NetworkSpec::new(n, Topology::Ring, Coupling::Resistive { ohms: 1e3 })
        .with_detuning(detuning);
    let net = base.build()?;
    say!(
        "ring of {} oscillators: f_natural {:.3}–{:.3} kHz (mean {:.3} kHz), {} coupled pairs",
        n,
        net.f_natural.iter().cloned().fold(f64::INFINITY, f64::min) / 1e3,
        net.f_natural.iter().cloned().fold(0.0f64, f64::max) / 1e3,
        net.f_mean() / 1e3,
        net.pairs.len()
    );

    // Strong → weak coupling across the lock transition. Resistive
    // coupling strength is the resistance: small ohms = strong coupling.
    let strengths = [5e2, 1e3, 2e3, 5e3, 1e4, 3e4, 1e5, 3e5];
    let (settle, record) = if quick { (120.0, 60.0) } else { (200.0, 120.0) };
    let ppp = 64;
    let lock_opts = lock_options(record);
    let engine = SweepEngine::new(threads);

    let swept =
        coupling_strength_sweep(&base, &strengths, &engine, settle, record, ppp, &lock_opts);
    say!("\n  R_c (ohm) | mutual | locked osc | locked pairs | consensus (kHz)");
    let mut rows = Vec::new();
    let (mut saw_locked, mut saw_unlocked) = (false, false);
    for (strength, outcome) in &swept {
        let report = outcome
            .as_ref()
            .map_err(|e| format!("R_c = {strength}: {e}"))?;
        saw_locked |= report.mutual_lock;
        saw_unlocked |= !report.mutual_lock;
        let locked_pairs = report.pairs.iter().filter(|p| p.locked).count();
        say!(
            "  {:>9.0} | {:>6} | {:>6.0}/{:<3} | {:>8}/{:<3} | {:>15.3}",
            strength,
            if report.mutual_lock { "LOCK" } else { "--" },
            report.locked_fraction * n as f64,
            n,
            locked_pairs,
            report.pairs.len(),
            report.consensus_frequency_hz / 1e3
        );
        rows.push(format!(
            "{:e},{},{:.6},{},{},{:.6e}",
            strength,
            report.mutual_lock as u8,
            report.locked_fraction,
            locked_pairs,
            report.pairs.len(),
            report.consensus_frequency_hz
        ));
    }
    assert!(
        saw_locked && saw_unlocked,
        "the swept strengths must straddle the lock transition"
    );
    say!(
        "\nthe ring locks under strong coupling and free-runs under weak coupling — \
         the metronome transition"
    );

    // Solver-tier cross-check on the 8-ring: dense vs sparse LU must agree
    // on every verdict at every swept strength. Both run the same
    // elimination in natural order, so agreement is exact by construction
    // — the check pins the dispatch plumbing.
    let window = TranWindow {
        settle,
        record,
        ppp,
    };
    let sparse = sweep_with_solver(
        &base,
        &strengths,
        &engine,
        SolverKind::Sparse,
        &window,
        &lock_opts,
    );
    let dense = sweep_with_solver(
        &base,
        &strengths,
        &engine,
        SolverKind::Dense,
        &window,
        &lock_opts,
    );
    for ((strength, sp), de) in strengths.iter().zip(&sparse).zip(&dense) {
        assert_same_verdicts(&format!("8-ring, R_c = {strength}"), sp, de);
    }
    say!(
        "solver cross-check (N = {n}): zero lock-verdict differences between \
         dense and sparse LU across {} strengths",
        strengths.len()
    );

    // The same cross-check on a larger ring, one strength on each side of
    // the transition.
    let big_n = if quick { 36 } else { 48 };
    let big_detuning: Vec<f64> = (0..big_n)
        .map(|i| -0.003 + 0.006 * i as f64 / (big_n - 1) as f64)
        .collect();
    let big = NetworkSpec::new(big_n, Topology::Ring, Coupling::Resistive { ohms: 1e3 })
        .with_detuning(big_detuning);
    let unknowns = MnaStructure::new(&big.build()?.circuit).size();
    let big_strengths = [5e2, 2e5];
    let (big_settle, big_record) = if quick { (80.0, 48.0) } else { (120.0, 60.0) };
    let big_lock = lock_options(big_record);
    let big_window = TranWindow {
        settle: big_settle,
        record: big_record,
        ppp,
    };
    let sparse = sweep_with_solver(
        &big,
        &big_strengths,
        &engine,
        SolverKind::Sparse,
        &big_window,
        &big_lock,
    );
    let dense = sweep_with_solver(
        &big,
        &big_strengths,
        &engine,
        SolverKind::Dense,
        &big_window,
        &big_lock,
    );
    for ((strength, sp), de) in big_strengths.iter().zip(&sparse).zip(&dense) {
        assert_same_verdicts(&format!("{big_n}-ring, R_c = {strength}"), sp, de);
    }
    say!(
        "solver cross-check (N = {big_n}, {unknowns} unknowns): zero lock-verdict \
         differences between dense and sparse LU at R_c = {:?}",
        big_strengths
    );

    std::fs::create_dir_all("results")?;
    let csv = format!(
        "strength_ohm,mutual_lock,locked_fraction,locked_pairs,total_pairs,consensus_hz\n{}\n",
        rows.join("\n")
    );
    std::fs::write("results/metronome_network.csv", csv)?;
    say!("\nwrote results/metronome_network.csv");
    Ok(())
}
