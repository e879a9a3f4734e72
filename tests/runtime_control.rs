//! End-to-end acceptance tests for the `shil-runtime` execution-control
//! layer: deadlines that cancel promptly with diagnostics, panic isolation
//! inside sweeps, bit-identical kill-and-resume from checkpoint files, and
//! the step-retry budget builder agreeing with its `SweepPolicy` source.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use shil::circuit::analysis::{transient, SweepEngine, TranOptions};
use shil::circuit::{Circuit, CircuitError, IvCurve, NodeId, SolveReport, SourceWave};
use shil::numerics::NumericsError;
use shil::repro::simlock::{lock_sweep_fingerprint, probe_lock_sweep_checkpointed, SimOptions};
use shil::runtime::{checkpoint, Budget, CancelToken, CheckpointFile, ItemOutcome, SweepPolicy};
use shil::waveform::lock::LockOptions;

/// The tanh negative-resistance LC oscillator used throughout the circuit
/// test suites; `scale` moves the inductance (and thus the frequency).
fn oscillator(scale: f64) -> (Circuit, NodeId, TranOptions) {
    let (r, l, c) = (1000.0, 10e-6, 10e-9);
    let mut ckt = Circuit::new();
    let top = ckt.node("top");
    ckt.resistor(top, 0, r);
    ckt.inductor(top, 0, l * scale);
    ckt.capacitor(top, 0, c);
    ckt.nonlinear(top, 0, IvCurve::tanh(-1e-3, 2.0 / (r * 1e-3)));
    let f0 = 1.0 / (std::f64::consts::TAU * (l * scale * c).sqrt());
    let period = 1.0 / f0;
    let opts = TranOptions::new(period / 120.0, 6.0 * period)
        .use_ic()
        .with_ic(top, 1e-3);
    (ckt, top, opts)
}

fn final_voltage(
    _: usize,
    &scale: &f64,
    budget: &Budget,
) -> Result<(f64, SolveReport), CircuitError> {
    let (ckt, top, opts) = oscillator(scale);
    let res = transient(&ckt, &opts.with_budget(budget.clone()))?;
    let v = *res.node_voltage(top).unwrap().last().unwrap();
    Ok((v, res.report))
}

fn encode(v: &f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn decode(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "shil_runtime_control_{}_{name}",
        std::process::id()
    ))
}

/// Acceptance criterion: a 0-second-deadline solve returns `Cancelled`
/// carrying best-iterate diagnostics, in bounded time — it does not run
/// the transient to completion.
#[test]
fn zero_second_deadline_cancels_with_diagnostics_in_bounded_time() {
    let (ckt, _, opts) = oscillator(1.0);
    let started = Instant::now();
    let err = transient(
        &ckt,
        &opts.with_budget(Budget::with_deadline(Duration::ZERO)),
    )
    .unwrap_err();
    let wall = started.elapsed();
    assert!(
        wall < Duration::from_secs(10),
        "cancellation took {wall:?} — not bounded"
    );
    match err {
        CircuitError::Numerics(NumericsError::Cancelled {
            ref best_iterate, ..
        }) => {
            assert!(
                !best_iterate.is_empty(),
                "cancellation must carry the best iterate"
            );
        }
        other => panic!("expected Cancelled, got {other}"),
    }
}

/// An already-cancelled caller token is honored the same way, and the
/// token survives to cancel a second solve too.
#[test]
fn caller_token_cancels_independent_solves() {
    let token = CancelToken::new();
    token.cancel();
    let budget = Budget::unlimited().with_token(token);
    for scale in [1.0, 1.3] {
        let (ckt, _, opts) = oscillator(scale);
        let err = transient(&ckt, &opts.with_budget(budget.clone())).unwrap_err();
        assert!(
            matches!(err, CircuitError::Numerics(NumericsError::Cancelled { .. })),
            "scale {scale}: expected Cancelled, got {err}"
        );
    }
}

/// Acceptance criterion: a deliberately panicking sweep item is isolated —
/// its neighbors complete and the item is classified, not propagated.
#[test]
fn panicking_sweep_item_is_isolated_across_the_crate_boundary() {
    let scales = [0.8, 0.9, 1.0, 1.1, 1.2];
    let sweep = SweepEngine::new(Some(2)).run_with_policy(
        &scales,
        &SweepPolicy::default(),
        &Budget::unlimited(),
        |i, &scale, budget| {
            if i == 2 {
                panic!("deliberate test panic at item {i}");
            }
            final_voltage(i, &scale, budget)
        },
    );
    assert_eq!(sweep.items.len(), scales.len());
    assert_eq!(sweep.items[2].outcome, ItemOutcome::Panicked);
    assert!(
        sweep.items[2]
            .error
            .as_deref()
            .unwrap_or("")
            .contains("deliberate test panic"),
        "panic message must be recorded: {:?}",
        sweep.items[2].error
    );
    for (i, item) in sweep.items.iter().enumerate() {
        if i != 2 {
            assert_eq!(item.outcome, ItemOutcome::Ok, "item {i} was disturbed");
            assert!(item.value.unwrap().is_finite());
        }
    }
    assert!(!sweep.cancelled);
}

/// Acceptance criterion: SIGKILL-and-resume yields bit-identical results
/// and aggregates at any thread count. The kill is simulated the way it
/// manifests on disk — the checkpoint is truncated to a prefix of complete
/// records plus one torn line.
#[test]
fn kill_and_resume_is_bit_identical_at_any_thread_count() {
    let scales: Vec<f64> = (0..8).map(|k| 0.75 + 0.08 * k as f64).collect();
    let policy = SweepPolicy::default();
    let fingerprint = checkpoint::fingerprint("runtime-control", &scales);

    // Uninterrupted reference, serial.
    let reference = SweepEngine::serial().run_with_policy(
        &scales,
        &policy,
        &Budget::unlimited(),
        final_voltage,
    );
    assert_eq!(reference.ok_count(), scales.len());

    // A full checkpointed run, to harvest a complete record log.
    let full_path = temp("full.jsonl");
    std::fs::remove_file(&full_path).ok();
    {
        let cp = CheckpointFile::open(&full_path, &fingerprint, scales.len()).unwrap();
        let sweep = SweepEngine::new(Some(3)).run_checkpointed(
            &scales,
            &policy,
            &Budget::unlimited(),
            Some(&cp),
            final_voltage,
            |v: &f64| encode(v),
            |s: &str| decode(s),
        );
        assert_eq!(sweep.ok_count(), scales.len());
    }

    // Simulate the kill: header + first 3 records survive, the 4th is torn.
    let text = std::fs::read_to_string(&full_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 5, "expected header + records, got {lines:?}");
    let mut truncated = lines[..4].join("\n");
    truncated.push('\n');
    truncated.push_str(&lines[4][..lines[4].len() / 2]);

    for threads in [1usize, 2, 3, 16] {
        let path = temp(&format!("resume_{threads}.jsonl"));
        std::fs::write(&path, &truncated).unwrap();
        let cp = CheckpointFile::open(&path, &fingerprint, scales.len()).unwrap();
        assert_eq!(
            cp.restored().len(),
            3,
            "threads {threads}: torn tail restored"
        );
        let resumed = SweepEngine::new(Some(threads)).run_checkpointed(
            &scales,
            &policy,
            &Budget::unlimited(),
            Some(&cp),
            final_voltage,
            |v: &f64| encode(v),
            |s: &str| decode(s),
        );
        assert_eq!(
            resumed.items.iter().filter(|i| i.restored).count(),
            3,
            "threads {threads}: restored count"
        );
        for (i, (a, b)) in reference.items.iter().zip(&resumed.items).enumerate() {
            assert_eq!(a.outcome, b.outcome, "threads {threads}, item {i}: outcome");
            assert_eq!(
                a.value.map(f64::to_bits),
                b.value.map(f64::to_bits),
                "threads {threads}, item {i}: value bits"
            );
        }
        assert_eq!(
            reference.aggregate.attempts, resumed.aggregate.attempts,
            "threads {threads}: aggregate attempts"
        );
        assert_eq!(
            reference.aggregate.halvings, resumed.aggregate.halvings,
            "threads {threads}: aggregate halvings"
        );
        assert_eq!(
            reference.aggregate.factorizations, resumed.aggregate.factorizations,
            "threads {threads}: aggregate factorizations"
        );
        assert_eq!(
            reference.aggregate.reuses, resumed.aggregate.reuses,
            "threads {threads}: aggregate reuses"
        );
        assert_eq!(
            reference.aggregate.fallbacks, resumed.aggregate.fallbacks,
            "threads {threads}: aggregate fallbacks"
        );
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_file(&full_path).ok();
}

/// The `with_step_retry_budget` builder and its `SweepPolicy` source
/// drive the same limiter and run the same trajectory.
#[test]
fn step_retry_budget_builder_agrees_with_sweep_policy() {
    let policy = SweepPolicy {
        step_retry_budget: 8,
        ..SweepPolicy::default()
    };
    let (_, _, base) = oscillator(1.0);
    let via_policy = base.clone().with_policy(&policy);
    let via_builder = base.clone().with_step_retry_budget(8);
    assert_eq!(via_policy.step_retry_budget(), 8);
    assert_eq!(via_builder.step_retry_budget(), 8);

    // Both run the same simulation to the same trajectory.
    let (ckt, top, _) = oscillator(1.0);
    let a = transient(&ckt, &via_policy).unwrap();
    let b = transient(&ckt, &via_builder).unwrap();
    assert_eq!(a.time, b.time);
    assert_eq!(a.node_voltage(top).unwrap(), b.node_voltage(top).unwrap());
}

/// The resumable lock sweep classifies every probe and restores verdicts
/// bit-identically after an interrupted run.
#[test]
fn resumable_lock_sweep_restores_verdicts() {
    // Injected tanh oscillator at 3rd sub-harmonic; tiny windows keep each
    // probe to a few thousand steps — this exercises classification and
    // checkpointing, not lock-range physics (covered by lock_behavior).
    let (r, l, c) = (1000.0_f64, 10e-6_f64, 10e-9_f64);
    let f0 = 1.0 / (std::f64::consts::TAU * (l * c).sqrt());
    let n = 3u32;
    let build = |f_inj: f64| {
        let mut ckt = Circuit::new();
        let top = ckt.node("top");
        ckt.resistor(top, 0, r);
        ckt.inductor(top, 0, l);
        ckt.capacitor(top, 0, c);
        ckt.injected_nonlinear(
            top,
            0,
            IvCurve::tanh(-1e-3, 2.0 / (r * 1e-3)),
            SourceWave::sine(0.05, f_inj, 0.0),
        );
        ckt
    };
    let opts = SimOptions {
        steps_per_period: 48,
        settle_periods: 20.0,
        lock: LockOptions {
            windows: 4,
            periods_per_window: 6,
            ..LockOptions::default()
        },
        startup_kick: 1e-3,
    };
    let freqs: Vec<f64> = (0..4)
        .map(|k| n as f64 * f0 * (1.0 + 1e-3 * k as f64))
        .collect();
    let policy = SweepPolicy::default();
    let ic = [(1usize, 1e-3)];

    let reference = probe_lock_sweep_checkpointed(
        build,
        1,
        Circuit::GROUND,
        &freqs,
        n,
        &opts,
        &ic,
        Some(1),
        &policy,
        &Budget::unlimited(),
        None,
    );
    assert!(
        reference.sweep.items.iter().all(|i| i.outcome.is_success()),
        "probes must classify as successful: {:?}",
        reference
            .sweep
            .items
            .iter()
            .map(|i| i.outcome)
            .collect::<Vec<_>>()
    );

    // Interrupted run: checkpoint with only the first two records kept.
    let path = temp("lock_sweep.jsonl");
    std::fs::remove_file(&path).ok();
    let fp = lock_sweep_fingerprint(&freqs, n);
    {
        let cp = CheckpointFile::open(&path, &fp, freqs.len()).unwrap();
        probe_lock_sweep_checkpointed(
            build,
            1,
            Circuit::GROUND,
            &freqs,
            n,
            &opts,
            &ic,
            Some(2),
            &policy,
            &Budget::unlimited(),
            Some(&cp),
        );
    }
    let text = std::fs::read_to_string(&path).unwrap();
    let kept: Vec<&str> = text.lines().take(3).collect();
    std::fs::write(&path, format!("{}\n", kept.join("\n"))).unwrap();

    let cp = CheckpointFile::open(&path, &fp, freqs.len()).unwrap();
    assert_eq!(cp.restored().len(), 2);
    let resumed = probe_lock_sweep_checkpointed(
        build,
        1,
        Circuit::GROUND,
        &freqs,
        n,
        &opts,
        &ic,
        // Resuming at a third thread count must restore and finish
        // identically: results do not depend on the thread count.
        Some(3),
        &policy,
        &Budget::unlimited(),
        Some(&cp),
    );
    assert_eq!(resumed.sweep.items.iter().filter(|i| i.restored).count(), 2);
    for (i, (a, b)) in reference
        .sweep
        .items
        .iter()
        .zip(&resumed.sweep.items)
        .enumerate()
    {
        assert_eq!(a.outcome, b.outcome, "probe {i}: outcome");
        assert_eq!(a.value, b.value, "probe {i}: verdict");
    }
    assert_eq!(reference.locked_count(), resumed.locked_count());
    std::fs::remove_file(&path).ok();
}

/// A whole-sweep deadline of zero classifies every item as `Cancelled`
/// without attempting any of them, in bounded time.
#[test]
fn zero_deadline_sweep_classifies_everything_cancelled() {
    let scales = [1.0, 1.1, 1.2];
    let started = Instant::now();
    let sweep = SweepEngine::new(Some(2)).run_with_policy(
        &scales,
        &SweepPolicy {
            deadline: Some(Duration::ZERO),
            ..SweepPolicy::default()
        },
        &Budget::unlimited(),
        final_voltage,
    );
    assert!(started.elapsed() < Duration::from_secs(10));
    assert!(sweep.cancelled);
    for item in &sweep.items {
        assert_eq!(item.outcome, ItemOutcome::Cancelled);
        assert_eq!(
            item.tries, 0,
            "a pre-cancelled sweep must not attempt items"
        );
    }
}
