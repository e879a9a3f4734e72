//! Resilience acceptance tests: every public solver entry point must
//! return a typed error (with populated diagnostics) or a degraded-but-
//! finite result — never panic — when the device model injects NaN, Inf
//! or discontinuities.
//!
//! The injectors come from `shil-fault`; fault decisions are a pure
//! function of `(voltage bits, seed)`, so every trial here is reproducible
//! from its seed alone.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use proptest::prelude::*;

use shil::circuit::analysis::{operating_point, transient, OpOptions, SolverKind, SweepEngine};
use shil::circuit::{Circuit, IvCurve, SourceWave};
use shil::core::harmonics::HarmonicOptions;
use shil::core::nonlinearity::NegativeTanh;
use shil::core::shil::{ShilAnalysis, ShilOptions};
use shil::core::tank::ParallelRlc;
use shil::runtime::{Budget, SweepPolicy};
use shil_fault::{chaos_tran_options, faulty_iv, FaultSpec, FaultyNonlinearity};

/// Small grids keep 1000 trials fast; the escalation ladder and degraded
/// paths do not depend on resolution.
fn small_opts() -> ShilOptions {
    ShilOptions {
        phase_points: 41,
        amplitude_points: 31,
        harmonics: HarmonicOptions { samples: 64 },
        parallelism: Some(1),
        ..Default::default()
    }
}

fn tank() -> ParallelRlc {
    ParallelRlc::new(1000.0, 10e-6, 10e-9).expect("valid tank")
}

fn faulty_element(spec: FaultSpec) -> FaultyNonlinearity<NegativeTanh> {
    FaultyNonlinearity::new(NegativeTanh::new(1e-3, 20.0), spec)
}

/// A driven circuit with a fault-injected nonlinear element.
fn faulty_circuit(spec: FaultSpec) -> Circuit {
    let mut ckt = Circuit::new();
    let n1 = ckt.node("n1");
    let n2 = ckt.node("n2");
    ckt.vsource(n1, 0, SourceWave::sine(0.5, 1e5, 0.0));
    ckt.resistor(n1, n2, 1e3);
    ckt.capacitor(n2, 0, 1e-9);
    ckt.nonlinear(n2, 0, faulty_iv(IvCurve::tanh(-1e-3, 20.0), spec));
    ckt
}

/// Runs one entry point under fault injection and checks the outcome
/// contract: `Ok` results must be finite (degraded or not), `Err` results
/// must carry a non-empty diagnostic message. Panics propagate to the
/// caller's `catch_unwind`.
fn run_trial(entry: usize, spec: FaultSpec) {
    let t = tank();
    match entry {
        // operating_point
        0 => match operating_point(&faulty_circuit(spec), &OpOptions::default()) {
            Ok(op) => assert!(
                op.x.iter().all(|v| v.is_finite()),
                "non-finite OP escaped: {:?}",
                op.x
            ),
            Err(e) => assert!(!e.to_string().is_empty()),
        },
        // transient
        1 => {
            let opts = chaos_tran_options(1e-7, 2e-5);
            match transient(&faulty_circuit(spec), &opts) {
                Ok(res) => {
                    for col in (0..1).flat_map(|_| res.node_voltage(2).ok()) {
                        assert!(
                            col.iter().all(|v| v.is_finite()),
                            "non-finite transient sample escaped"
                        );
                    }
                }
                Err(e) => assert!(!e.to_string().is_empty()),
            }
        }
        // precharacterize (runs inside ShilAnalysis::new)
        2 => match ShilAnalysis::new(&faulty_element(spec), &t, 3, 0.03, small_opts()) {
            Ok(an) => {
                assert!(an.natural().amplitude.is_finite());
            }
            Err(e) => assert!(!e.to_string().is_empty()),
        },
        // solutions_at_phase
        3 => {
            if let Ok(an) = ShilAnalysis::new(&faulty_element(spec), &t, 3, 0.03, small_opts()) {
                match an.solutions_at_phase(0.01) {
                    Ok(sols) => {
                        for s in &sols {
                            assert!(
                                s.amplitude.is_finite()
                                    && s.phase.is_finite()
                                    && s.jacobian_det.is_finite()
                                    && s.jacobian_trace.is_finite(),
                                "non-finite solution escaped: {s:?}"
                            );
                        }
                    }
                    Err(e) => assert!(!e.to_string().is_empty()),
                }
            }
        }
        // lock_range
        4 => {
            if let Ok(an) = ShilAnalysis::new(&faulty_element(spec), &t, 3, 0.03, small_opts()) {
                match an.lock_range() {
                    Ok(lr) => assert!(
                        lr.phi_d_max.is_finite() && lr.injection_span_hz.is_finite(),
                        "non-finite lock range escaped: {lr:?}"
                    ),
                    Err(e) => assert!(!e.to_string().is_empty()),
                }
            }
        }
        // transient over the sparse kernel / factorization bypass: the new
        // solver paths must honor exactly the same contract as the dense
        // no-reuse engine — a fault is a typed error or a finite result,
        // never a panic and never a poisoned sample served by a stale LU.
        _ => {
            let (kind, reuse) = match entry {
                5 => (SolverKind::Sparse, true),
                6 => (SolverKind::Sparse, false),
                _ => (SolverKind::Dense, true),
            };
            let mut opts = chaos_tran_options(1e-7, 2e-5);
            opts.solver = kind;
            if !reuse {
                opts.reuse_tolerance = 0.0;
            }
            match transient(&faulty_circuit(spec), &opts) {
                Ok(res) => {
                    for col in (0..1).flat_map(|_| res.node_voltage(2).ok()) {
                        assert!(
                            col.iter().all(|v| v.is_finite()),
                            "non-finite sample escaped the {kind:?}/reuse={reuse} path"
                        );
                    }
                }
                Err(e) => assert!(!e.to_string().is_empty()),
            }
        }
    }
}

const ENTRY_POINTS: usize = 8;

/// The acceptance criterion: 1000 seeded trials at 1 % NaN injection,
/// round-robin over the eight entry points (five public solvers plus the
/// sparse/bypass transient configurations), zero panics.
#[test]
fn no_entry_point_panics_across_1000_seeded_nan_trials() {
    let mut failures = Vec::new();
    for seed in 0..1000u64 {
        let spec = FaultSpec::nan(0.01, seed);
        let entry = (seed as usize) % ENTRY_POINTS;
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run_trial(entry, spec))) {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".into());
            failures.push((seed, entry, msg));
        }
    }
    assert!(
        failures.is_empty(),
        "{} trials panicked; first: seed {} entry {}: {}",
        failures.len(),
        failures[0].0,
        failures[0].1,
        failures[0].2
    );
}

/// Mixed NaN/Inf/jump faults at a harsher rate must also never panic.
#[test]
fn mixed_fault_kinds_never_panic() {
    for seed in 0..50u64 {
        let spec = FaultSpec::mixed(0.03, seed);
        for entry in 0..ENTRY_POINTS {
            let result = catch_unwind(AssertUnwindSafe(|| run_trial(entry, spec)));
            assert!(result.is_ok(), "panic at seed {seed}, entry {entry}");
        }
    }
}

/// The policy-driven sweep under fault injection: 1000 seeded items with
/// mixed NaN/Inf/jump faults, each granted a per-item timeout and one
/// retry, must never panic the sweep — the engine isolates every failure
/// mode — and every item must come back with exactly one classified
/// outcome and a `Some` value iff that outcome is a success.
#[test]
fn policy_sweep_classifies_1000_faulty_items_without_panicking() {
    let seeds: Vec<u64> = (0..1000).collect();
    let policy = SweepPolicy {
        item_timeout: Some(Duration::from_secs(30)),
        max_retries: 1,
        ..SweepPolicy::default()
    };
    let sweep = catch_unwind(AssertUnwindSafe(|| {
        SweepEngine::new(None).run_with_policy(
            &seeds,
            &policy,
            &Budget::unlimited(),
            |_, &seed, budget| {
                // Rate ladder 0 %, 1 %, 2 %, 3 %: the zero-rate quarter
                // must succeed, the harsher tiers mostly produce typed
                // failures — so both classification paths are exercised.
                let spec = FaultSpec::mixed(0.01 * (seed % 4) as f64, seed);
                let opts = chaos_tran_options(1e-7, 2e-5).with_budget(budget.clone());
                let res = transient(&faulty_circuit(spec), &opts)?;
                let v = *res.node_voltage(2).unwrap().last().unwrap();
                Ok((v, res.report))
            },
        )
    }))
    .expect("the policy sweep must isolate every fault, not panic");
    assert_eq!(sweep.items.len(), seeds.len());
    for (seed, item) in seeds.iter().zip(&sweep.items) {
        assert!(
            item.tries >= 1,
            "seed {seed}: an uncancelled item records its attempts"
        );
        if item.outcome.is_success() {
            let v = item.value.expect("successful item carries a value");
            assert!(v.is_finite(), "seed {seed}: non-finite value escaped");
        } else {
            assert!(item.value.is_none(), "seed {seed}: failed item with value");
            assert!(
                item.error.as_deref().is_some_and(|e| !e.is_empty()),
                "seed {seed}: unsuccessful item must carry a diagnostic"
            );
        }
    }
    assert!(!sweep.cancelled, "no sweep-level deadline was set");
    // Every zero-rate item (a quarter of the seeds) must succeed — the
    // engine must not misclassify healthy work — and the harsher tiers
    // must surface as classified failures, not silence.
    assert!(
        sweep.ok_count() >= seeds.len() / 4,
        "only {}/{} items succeeded",
        sweep.ok_count(),
        seeds.len()
    );
    assert!(
        sweep.items.iter().any(|i| !i.outcome.is_success()),
        "the faulty tiers must produce classified failures"
    );
}

/// A NaN-poisoned lane must retire from its lock-step block without
/// perturbing any sibling: across 1000 seeded trials, one lane of a
/// 4-wide batched block carries a NaN-injecting element while the other
/// three stay healthy, and every healthy lane's trajectory must remain
/// bit-identical to its own scalar run. The poisoned lane itself keeps
/// the usual contract — a typed error or a finite (retried-on-the-scalar-
/// path) result — and nothing panics.
#[test]
fn poisoned_lane_retires_without_corrupting_siblings() {
    use shil::circuit::analysis::BackendChoice;

    let mut failures = Vec::new();
    let mut retired_total = 0usize;
    for seed in 0..1000u64 {
        let trial = catch_unwind(AssertUnwindSafe(|| {
            let poisoned = (seed % 4) as usize;
            let specs: Vec<FaultSpec> = (0..4)
                .map(|i| {
                    if i == poisoned {
                        FaultSpec::nan(0.05, seed)
                    } else {
                        FaultSpec::default()
                    }
                })
                .collect();
            let setup = |_: usize, spec: &FaultSpec| {
                (faulty_circuit(*spec), chaos_tran_options(1e-7, 2e-5))
            };
            let sweep = SweepEngine::serial()
                .with_backend(BackendChoice::Batched { lanes: 4 })
                .transient_sweep(&specs, setup);
            assert_eq!(sweep.runs.len(), specs.len());
            for (i, (run, spec)) in sweep.runs.iter().zip(&specs).enumerate() {
                if i == poisoned {
                    match run {
                        Ok(res) => {
                            let col = res.node_voltage(2).expect("probed node");
                            assert!(
                                col.iter().all(|v| v.is_finite()),
                                "non-finite sample escaped the retired lane"
                            );
                        }
                        Err(e) => assert!(!e.to_string().is_empty()),
                    }
                    continue;
                }
                let (ckt, opts) = setup(i, spec);
                let want = transient(&ckt, &opts).expect("healthy scalar run");
                let got = run
                    .as_ref()
                    .expect("healthy lane must survive a poisoned sibling");
                assert_eq!(got.time, want.time, "lane {i} time grid diverged");
                assert_eq!(
                    got.node_voltage(2).unwrap(),
                    want.node_voltage(2).unwrap(),
                    "lane {i} trajectory diverged from its scalar run"
                );
                // Wall time is the one nondeterministic report field.
                assert_eq!(
                    (
                        got.report.attempts,
                        got.report.factorizations,
                        got.report.reuses
                    ),
                    (
                        want.report.attempts,
                        want.report.factorizations,
                        want.report.reuses
                    ),
                    "lane {i} effort diverged"
                );
            }
            sweep.batch.lanes_retired
        }));
        match trial {
            Ok(retired) => retired_total += retired,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic payload".into());
                failures.push((seed, msg));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} trials panicked; first: seed {}: {}",
        failures.len(),
        failures[0].0,
        failures[0].1
    );
    // The scenario must actually exercise retirement somewhere in the
    // seed range, or the isolation claim above is vacuous.
    assert!(
        retired_total > 0,
        "no poisoned lane ever retired across 1000 seeds"
    );
}

/// A healthy element wrapped with a zero-rate spec must behave exactly like
/// the unwrapped pipeline — the injector itself adds no perturbation.
#[test]
fn zero_rate_injection_is_transparent() {
    let t = tank();
    let healthy = NegativeTanh::new(1e-3, 20.0);
    let transparent = faulty_element(FaultSpec::default());
    let clean = ShilAnalysis::new(&healthy, &t, 3, 0.03, small_opts()).unwrap();
    let wrapped = ShilAnalysis::new(&transparent, &t, 3, 0.03, small_opts()).unwrap();
    let a = clean.lock_range().unwrap();
    let b = wrapped.lock_range().unwrap();
    assert_eq!(a.phi_d_max, b.phi_d_max);
    assert!(!b.degraded, "zero-rate wrapper must not degrade results");
}

/// The factorization bypass must never let a poisoned Jacobian ride on a
/// stale LU: after a healthy solve establishes a reusable factorization,
/// stamping NaN (or Inf) into the matrix must surface as a typed
/// `NonFinite` from the very next `solve_step` — on both backends.
#[test]
fn poisoned_jacobian_is_never_served_by_a_stale_factorization() {
    use shil::numerics::solver::{BypassSolver, DenseSolver, Stamp, StepKind};
    use shil::numerics::sparse::{PatternBuilder, SparseMatrix, SparseSolver};
    use shil::numerics::{Matrix, NumericsError};

    let n = 3;
    let stamp_good = |m: &mut dyn Stamp| {
        m.clear();
        for i in 0..n {
            m.add_at(i, i, 4.0);
            if i + 1 < n {
                m.add_at(i, i + 1, -1.0);
                m.add_at(i + 1, i, -1.0);
            }
        }
    };

    let mut builder = PatternBuilder::new(n);
    for i in 0..n {
        builder.insert(i, i);
        if i + 1 < n {
            builder.insert(i, i + 1);
            builder.insert(i + 1, i);
        }
    }
    let pattern = std::sync::Arc::new(builder.build());

    let mut dense_a = Matrix::zeros(n, n);
    let mut sparse_a = SparseMatrix::zeros(pattern.clone());
    let mut dense = BypassSolver::new(DenseSolver::new(n));
    let mut sparse = BypassSolver::new(SparseSolver::new(pattern));
    let rhs = [1.0, -2.0, 0.5];

    for poison in [f64::NAN, f64::INFINITY] {
        stamp_good(&mut dense_a);
        stamp_good(&mut sparse_a);
        let mut dx = [0.0; 3];
        // Establish healthy factorizations, then confirm the next identical
        // step is served by reuse — the stale LU is live.
        dense.solve_step(&dense_a, &rhs, &mut dx).expect("healthy");
        sparse
            .solve_step(&sparse_a, &rhs, &mut dx)
            .expect("healthy");
        assert_eq!(
            dense.solve_step(&dense_a, &rhs, &mut dx).expect("healthy"),
            StepKind::Reused
        );
        assert_eq!(
            sparse
                .solve_step(&sparse_a, &rhs, &mut dx)
                .expect("healthy"),
            StepKind::Reused
        );

        dense_a.add_at(1, 2, poison);
        sparse_a.add_at(1, 2, poison);
        let reuses_before = (dense.reuses(), sparse.reuses());
        let ed = dense.solve_step(&dense_a, &rhs, &mut dx);
        let es = sparse.solve_step(&sparse_a, &rhs, &mut dx);
        assert!(
            matches!(ed, Err(NumericsError::NonFinite { .. })),
            "dense served a poisoned ({poison}) system: {ed:?}"
        );
        assert!(
            matches!(es, Err(NumericsError::NonFinite { .. })),
            "sparse served a poisoned ({poison}) system: {es:?}"
        );
        assert_eq!(
            (dense.reuses(), sparse.reuses()),
            reuses_before,
            "a poisoned step must not count as a reuse"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property form of the acceptance criterion: random fault rates and
    /// seeds across all entry points, no panics anywhere.
    #[test]
    fn solvers_survive_random_fault_rates(
        nan_rate in 0.0f64..0.15,
        inf_rate in 0.0f64..0.05,
        jump_rate in 0.0f64..0.05,
        seed in 0u64..u64::MAX,
        entry in 0usize..8,
    ) {
        let spec = FaultSpec {
            nan_rate,
            inf_rate,
            jump_rate,
            ..FaultSpec::nan(0.0, seed)
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| run_trial(entry, spec)));
        prop_assert!(
            outcome.is_ok(),
            "panic at entry {entry}, seed {seed}, rates ({nan_rate}, {inf_rate}, {jump_rate})"
        );
    }
}
