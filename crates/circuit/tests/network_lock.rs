//! Solver-tier identity for coupled-oscillator network lock analysis: the
//! dense and sparse LU tiers of `SolverKind` must produce bit-identical
//! waveforms, and therefore the same lock verdicts, on the same network —
//! the CI-fast version of the metronome example's acceptance gate.
//!
//! Both tiers run the same partial-pivot elimination in natural order, so
//! the identity holds by construction; these tests pin it on rings of 12
//! and 66 unknowns, on both sides of the synchronization transition.

use shil_circuit::analysis::SolverKind;
use shil_circuit::mna::MnaStructure;
use shil_circuit::network::{
    CoupledNetwork, Coupling, NetworkLockOptions, NetworkLockReport, NetworkSpec, Topology,
};
use shil_circuit::TranResult;
use shil_waveform::lock::LockOptions;

/// Windows sized for the short CI transients (6 × 7 periods inside a
/// 48-period recorded tail, leaving margin for consensus detuning).
fn short_lock_options() -> NetworkLockOptions {
    NetworkLockOptions {
        lock: LockOptions {
            windows: 6,
            periods_per_window: 7,
            ..LockOptions::default()
        },
        ..NetworkLockOptions::default()
    }
}

fn detuned_ring(n: usize, spread: f64, ohms: f64) -> NetworkSpec {
    let detuning: Vec<f64> = (0..n)
        .map(|i| -spread + 2.0 * spread * i as f64 / (n - 1) as f64)
        .collect();
    NetworkSpec::new(n, Topology::Ring, Coupling::Resistive { ohms }).with_detuning(detuning)
}

fn run(net: &CoupledNetwork, solver: SolverKind) -> (TranResult, NetworkLockReport) {
    let mut opts = net.transient_options(120.0, 48.0, 48);
    opts.solver = solver;
    let result = net.simulate(&opts).expect("transient");
    let report = net
        .probe_lock(&result, &short_lock_options())
        .expect("lock analysis");
    (result, report)
}

fn assert_verdicts_identical(tag: &str, a: &NetworkLockReport, b: &NetworkLockReport) {
    assert_eq!(a.mutual_lock, b.mutual_lock, "{tag}: mutual verdict");
    assert_eq!(
        a.locked_fraction, b.locked_fraction,
        "{tag}: locked fraction"
    );
    for (oa, ob) in a.oscillators.iter().zip(&b.oscillators) {
        assert_eq!(oa.locked, ob.locked, "{tag}: oscillator {}", oa.index);
    }
    for (pa, pb) in a.pairs.iter().zip(&b.pairs) {
        assert_eq!(
            (pa.a, pa.b, pa.locked),
            (pb.a, pb.b, pb.locked),
            "{tag}: pair ({}, {})",
            pa.a,
            pa.b
        );
    }
}

fn assert_waveforms_identical(tag: &str, net: &CoupledNetwork, a: &TranResult, b: &TranResult) {
    assert_eq!(a.time, b.time, "{tag}: time axes");
    for &probe in &net.probes {
        assert_eq!(
            a.node_voltage(probe).unwrap(),
            b.node_voltage(probe).unwrap(),
            "{tag}: waveform at node {probe}"
        );
    }
}

/// The 6-ring (12 unknowns) sits on the dense side of `Auto`'s rung.
#[test]
fn network_small_ring_dense_is_bit_identical_to_sparse() {
    let net = detuned_ring(6, 0.005, 2e3).build().expect("build");
    assert_eq!(MnaStructure::new(&net.circuit).size(), 12);
    let (dense_wave, dense) = run(&net, SolverKind::Dense);
    let (sparse_wave, sparse) = run(&net, SolverKind::Sparse);
    assert_waveforms_identical("6-ring", &net, &dense_wave, &sparse_wave);
    assert_verdicts_identical("6-ring", &dense, &sparse);
}

/// The 33-ring (66 unknowns) sits on the sparse side; the waveforms and
/// the lock verdicts must not move, on either side of the synchronization
/// transition.
#[test]
fn network_large_ring_verdicts_match_across_solver_tiers() {
    for (ohms, expect_lock) in [(2e2, true), (3e5, false)] {
        let net = detuned_ring(33, 0.003, ohms).build().expect("build");
        assert_eq!(MnaStructure::new(&net.circuit).size(), 66);
        let tag = format!("33-ring at R_c = {ohms}");
        let (dense_wave, dense) = run(&net, SolverKind::Dense);
        let (sparse_wave, sparse) = run(&net, SolverKind::Sparse);
        assert_eq!(
            sparse.mutual_lock,
            expect_lock,
            "sparse reference at R_c = {ohms} should {} lock",
            if expect_lock { "" } else { "not" }
        );
        assert_waveforms_identical(&tag, &net, &dense_wave, &sparse_wave);
        assert_verdicts_identical(&tag, &dense, &sparse);
    }
}
