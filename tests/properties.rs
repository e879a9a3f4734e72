//! Property-based invariants spanning the analysis pipeline.

use proptest::prelude::*;

use shil::core::describing::{natural_oscillation, NaturalOptions};
use shil::core::harmonics::{i1_injected, HarmonicOptions};
use shil::core::nonlinearity::{NegativeTanh, Nonlinearity, Polynomial};
use shil::core::tank::{ParallelRlc, Tank};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The circle property (§VI-B1): |H(jω)| = R·cos(∠H(jω)) for any
    /// physical parallel RLC at any frequency.
    #[test]
    fn circle_property_for_random_tanks(
        r in 10.0f64..100e3,
        l in 1e-9f64..1e-3,
        c in 1e-12f64..1e-6,
        x in 0.3f64..3.0,
    ) {
        let tank = ParallelRlc::new(r, l, c).expect("valid tank");
        let w = x * tank.center_omega();
        let z = tank.impedance(w);
        prop_assert!(
            (z.abs() - r * z.arg().cos()).abs() < 1e-6 * r,
            "R = {r}, x = {x}: |Z| = {}, R cos = {}",
            z.abs(),
            r * z.arg().cos()
        );
    }

    /// Tank phase inversion is exact for any attainable phase.
    #[test]
    fn omega_for_phase_roundtrip(
        r in 100.0f64..10e3,
        phi in -1.4f64..1.4,
    ) {
        let tank = ParallelRlc::new(r, 10e-6, 10e-9).expect("valid tank");
        let w = tank.omega_for_phase(phi).expect("attainable");
        prop_assert!((tank.phase(w) - phi).abs() < 1e-9);
    }

    /// I₁ conjugate symmetry in φ (§VI-B3) holds for any (A, V_i, n).
    #[test]
    fn i1_conjugate_symmetry(
        a in 0.05f64..2.0,
        vi in 0.001f64..0.2,
        phi in 0.0f64..std::f64::consts::PI,
        n in 1u32..6,
    ) {
        let f = NegativeTanh::new(1e-3, 20.0);
        let o = HarmonicOptions { samples: 256 };
        let plus = i1_injected(&f, a, vi, phi, n, &o);
        let minus = i1_injected(&f, a, vi, -phi, n, &o);
        prop_assert!((plus.conj() - minus).abs() < 1e-12);
    }

    /// The natural-oscillation solve satisfies its own fixed point:
    /// T_f(A*) = 1, and scaling R scales the saturated tanh amplitude
    /// monotonically.
    #[test]
    fn natural_amplitude_is_a_fixed_point_and_monotone_in_r(
        r in 300.0f64..5e3,
        i0 in 0.2e-3f64..5e-3,
    ) {
        let f = NegativeTanh::new(i0, 20.0);
        let tank = ParallelRlc::new(r, 10e-6, 10e-9).expect("valid tank");
        prop_assume!(r * i0 * 20.0 > 1.5); // comfortably oscillating
        let nat = natural_oscillation(&f, &tank, &NaturalOptions::default())
            .expect("oscillates");
        let tf = shil::core::harmonics::t_f_single(
            &f,
            r,
            nat.amplitude,
            &HarmonicOptions::default(),
        );
        prop_assert!((tf - 1.0).abs() < 1e-8, "T_f(A*) = {tf}");

        let bigger = ParallelRlc::new(1.5 * r, 10e-6, 10e-9).expect("valid tank");
        let nat2 = natural_oscillation(&f, &bigger, &NaturalOptions::default())
            .expect("oscillates");
        prop_assert!(nat2.amplitude > nat.amplitude);
    }

    /// Van der Pol closed form: A* = 2√((g₁ − 1/R)/(3 g₃ /... )) — checked
    /// against the solver for random parameters.
    #[test]
    fn van_der_pol_closed_form(
        g1_scale in 1.2f64..10.0,
        g3 in 1e-4f64..1e-2,
    ) {
        let r = 1000.0;
        let g1 = g1_scale / r; // loop gain = g1·R = g1_scale > 1.2
        let f = Polynomial::van_der_pol(g1, g3).expect("valid");
        let tank = ParallelRlc::new(r, 10e-6, 10e-9).expect("valid tank");
        let nat = natural_oscillation(&f, &tank, &NaturalOptions::default())
            .expect("oscillates");
        let expect = ((g1 - 1.0 / r) * 4.0 / (3.0 * g3)).sqrt();
        prop_assert!(
            (nat.amplitude - expect).abs() < 1e-5 * expect.max(1.0),
            "A = {} vs closed form {expect}",
            nat.amplitude
        );
    }

    /// Bias-shifting a curve never changes its differential conductance
    /// profile, only re-centers it.
    #[test]
    fn biased_adapter_preserves_shape(
        bias in -0.5f64..0.5,
        v in -1.0f64..1.0,
    ) {
        let raw = shil::core::nonlinearity::TunnelDiode::new();
        let shifted = shil::core::nonlinearity::TunnelDiode::new().biased_at(bias);
        prop_assert!((shifted.conductance(v) - raw.conductance(v + bias)).abs() < 1e-15);
        prop_assert!(shifted.current(0.0).abs() < 1e-16);
    }
}

// --- Linear-solver backends ---------------------------------------------

use shil::numerics::solver::{DenseSolver, LinearSolver, Stamp};
use shil::numerics::sparse::{PatternBuilder, SparseMatrix, SparseSolver};
use shil::numerics::{Matrix, NumericsError};

/// Stamps a random MNA-shaped system — symmetric two-terminal conductance
/// stamps over `n` nodes plus a leak on every diagonal, exactly the
/// structure the circuit layer produces — into both backends' matrix types.
fn stamp_mna_system(
    n: usize,
    elements: &[(usize, usize, f64)],
    leak: f64,
) -> (Matrix, SparseMatrix) {
    let mut builder = PatternBuilder::new(n);
    for k in 0..n {
        builder.insert(k, k);
    }
    for &(i, j, _) in elements {
        let (i, j) = (i % n, j % n);
        builder.insert(i, j);
        builder.insert(j, i);
    }
    let mut dense = Matrix::zeros(n, n);
    let mut sparse = SparseMatrix::zeros(std::sync::Arc::new(builder.build()));
    for m in [&mut dense as &mut dyn Stamp, &mut sparse as &mut dyn Stamp] {
        for k in 0..n {
            m.add_at(k, k, leak);
        }
        for &(i, j, g) in elements {
            let (i, j) = (i % n, j % n);
            m.add_at(i, i, g);
            m.add_at(j, j, g);
            if i != j {
                m.add_at(i, j, -g);
                m.add_at(j, i, -g);
            }
        }
    }
    (dense, sparse)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sparse and dense LU agree *bitwise* on any MNA-shaped system: the
    /// sparse solver scatters into the same kernel with the same pivot
    /// order, so the backend choice may never change a single ulp.
    #[test]
    fn sparse_and_dense_lu_agree_bitwise(
        n in 2usize..14,
        elements in prop::collection::vec(
            (0usize..14, 0usize..14, 0.05f64..20.0), 1..24),
        leak in 1e-4f64..1.0,
        rhs_seed in prop::collection::vec(-2.0f64..2.0, 14),
    ) {
        let (dense, sparse) = stamp_mna_system(n, &elements, leak);
        let mut ds = DenseSolver::new(n);
        let mut ss = SparseSolver::new(sparse.pattern().clone());
        ds.refactorize(&dense).expect("diagonally loaded system");
        ss.refactorize(&sparse).expect("diagonally loaded system");
        let mut xd: Vec<f64> = rhs_seed[..n].to_vec();
        let mut xs = xd.clone();
        ds.solve_in_place(&mut xd);
        ss.solve_in_place(&mut xs);
        prop_assert_eq!(xd, xs);
    }

    /// A structurally singular system (an isolated, leak-free node) is
    /// rejected by both backends with the same typed error — the sparse
    /// path may not "succeed" where dense reports singularity.
    #[test]
    fn sparse_and_dense_reject_singular_systems_alike(
        n in 3usize..10,
        elements in prop::collection::vec(
            (0usize..10, 0usize..10, 0.05f64..20.0), 1..16),
        dead in 0usize..10,
    ) {
        let (mut dense, mut sparse) = stamp_mna_system(n, &elements, 1e-3);
        // Sever row/column `dead`: zero every entry touching the node.
        let dead = dead % n;
        for j in 0..n {
            let d = dense.data()[dead * n + j];
            dense.add_at(dead, j, -d);
            let d = dense.data()[j * n + dead];
            dense.add_at(j, dead, -d);
            let s = sparse.get(dead, j);
            if s != 0.0 { sparse.add_at(dead, j, -s); }
            let s = sparse.get(j, dead);
            if s != 0.0 { sparse.add_at(j, dead, -s); }
        }
        let mut ds = DenseSolver::new(n);
        let mut ss = SparseSolver::new(sparse.pattern().clone());
        let ed = ds.refactorize(&dense);
        let es = ss.refactorize(&sparse);
        prop_assert!(matches!(ed, Err(NumericsError::SingularMatrix { .. })), "dense: {ed:?}");
        prop_assert!(matches!(es, Err(NumericsError::SingularMatrix { .. })), "sparse: {es:?}");
        prop_assert!(!ds.is_factorized());
        prop_assert!(!ss.is_factorized());
    }
}

// --- Sweep engine --------------------------------------------------------

use shil::circuit::analysis::{transient, SweepEngine, TranOptions};
use shil::circuit::Circuit;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The parallel sweep engine returns bit-identical trajectories to
    /// one-at-a-time serial calls at *any* thread count, including thread
    /// counts exceeding the run count.
    #[test]
    fn sweep_engine_is_deterministic_at_any_thread_count(
        threads in 1usize..9,
        resistances in prop::collection::vec(500.0f64..5e3, 1..5),
    ) {
        let (l, c) = (10e-6_f64, 10e-9_f64);
        let period = std::f64::consts::TAU * (l * c).sqrt();
        let setup = |_: usize, &r: &f64| {
            let mut ckt = Circuit::new();
            let top = ckt.node("top");
            ckt.resistor(top, Circuit::GROUND, r);
            ckt.inductor(top, Circuit::GROUND, l);
            ckt.capacitor(top, Circuit::GROUND, c);
            let opts = TranOptions::new(period / 64.0, 5.0 * period)
                .use_ic()
                .with_ic(top, 1.0);
            (ckt, opts)
        };
        let sweep = SweepEngine::new(Some(threads)).transient_sweep(&resistances, setup);
        prop_assert_eq!(sweep.runs.len(), resistances.len());
        for (k, (run, &r)) in sweep.runs.iter().zip(&resistances).enumerate() {
            let run = run.as_ref().expect("sweep run");
            let (ckt, opts) = setup(k, &r);
            let want = transient(&ckt, &opts).expect("serial run");
            prop_assert_eq!(&run.time, &want.time);
            prop_assert_eq!(
                run.node_voltage(1).unwrap(),
                want.node_voltage(1).unwrap()
            );
        }
    }
}

// --- Execution control ---------------------------------------------------

use std::collections::BTreeMap;
use std::time::Duration;

use shil::numerics::newton::{newton_system_budgeted, NewtonOptions};
use shil::runtime::{Budget, CancelToken, CheckpointRecord, ItemOutcome};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Checkpoint JSONL round-trip: any record — arbitrary outcome, tries,
    /// counters, and payload bytes (including quotes and newlines) — parses
    /// back to exactly itself, and *no strict prefix* of its line parses at
    /// all (the torn-tail-reads-as-absent rule the resume path relies on).
    #[test]
    fn checkpoint_record_round_trips_and_tears_cleanly(
        index in 0usize..10_000,
        outcome_pick in 0usize..6,
        tries in 0u32..20,
        wall_s in 0.0f64..1e4,
        counter_vals in prop::collection::vec(0u64..u64::MAX, 0..6),
        payload_points in prop::collection::vec(0u32..0xFFFF, 0..40),
    ) {
        let outcome = [
            ItemOutcome::Ok,
            ItemOutcome::Degraded,
            ItemOutcome::Failed,
            ItemOutcome::TimedOut,
            ItemOutcome::Panicked,
            ItemOutcome::Cancelled,
        ][outcome_pick];
        // Arbitrary unicode payload (quotes, newlines, controls included —
        // unpaired surrogates excluded, as they are not Rust chars).
        let payload: String = payload_points
            .iter()
            .filter_map(|&p| char::from_u32(p))
            .collect();
        let counters: BTreeMap<String, u64> = counter_vals
            .iter()
            .enumerate()
            .map(|(i, &v)| (format!("counter_{i}"), v))
            .collect();
        let rec = CheckpointRecord {
            index,
            outcome,
            tries,
            wall_s,
            counters,
            payload,
        };
        let line = rec.to_line();
        let parsed = CheckpointRecord::from_line(&line);
        prop_assert_eq!(parsed, Some(rec));
        // Probe a spread of prefixes (every cut would be O(len²) per case);
        // cuts inside a multi-byte char cannot even form a &str, which is
        // its own kind of torn-line safety.
        for cut in (1..line.len()).step_by(7).chain([line.len() - 1]) {
            if !line.is_char_boundary(cut) {
                continue;
            }
            prop_assert!(
                CheckpointRecord::from_line(&line[..cut]).is_none(),
                "torn prefix of length {} parsed", cut
            );
        }
    }

    /// Cancellation is prompt: a Newton solve handed an already-cancelled
    /// token returns `Cancelled` without completing a single iteration —
    /// the model is never evaluated — and the best iterate is the seed.
    #[test]
    fn pre_cancelled_newton_never_evaluates_the_model(
        x0 in prop::collection::vec(-10.0f64..10.0, 1..6),
    ) {
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_token(token);
        let evals = std::sync::atomic::AtomicUsize::new(0);
        let err = newton_system_budgeted(
            |x, r| {
                evals.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                for (ri, xi) in r.iter_mut().zip(x) {
                    *ri = xi - 1.0;
                }
            },
            &x0,
            &NewtonOptions::default(),
            &budget,
        )
        .unwrap_err();
        prop_assert_eq!(evals.load(std::sync::atomic::Ordering::Relaxed), 0);
        match err {
            NumericsError::Cancelled { best_iterate, elapsed } => {
                prop_assert_eq!(best_iterate, x0);
                prop_assert!(elapsed < Duration::from_secs(600));
            }
            other => prop_assert!(false, "expected Cancelled, got {}", other),
        }
    }
}
