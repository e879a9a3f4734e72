//! Brute-force (simulation-side) measurements: natural-oscillation
//! amplitude/frequency and lock-range binary search.
//!
//! This is the baseline the paper compares against: "a 'binary search'
//! needs to be done over different frequencies to find the lock range"
//! (§III-C). Each probe is a full transient simulation followed by a
//! phase-drift lock test, so it is orders of magnitude slower than the
//! describing-function prediction — which is exactly the speedup the
//! benchmark harness measures.

use shil_circuit::analysis::{transient, PolicySweep, SweepEngine, TranOptions};
use shil_circuit::{Circuit, CircuitError, NodeId, SolveReport};
use shil_runtime::{Budget, CheckpointFile, SweepPolicy};
use shil_waveform::lock::{is_subharmonic_locked, LockOptions};
use shil_waveform::measure::{estimate_frequency, peak_amplitude};
use shil_waveform::{Sampled, WaveformError};

/// Errors from the simulation-side measurement pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum SimError {
    /// The transient simulation failed.
    Circuit(CircuitError),
    /// Waveform post-processing failed.
    Waveform(WaveformError),
    /// The oscillator was not locked even at the search center frequency.
    NotLockedAtCenter {
        /// The injection frequency probed.
        f_injection_hz: f64,
    },
    /// The expanding search never left the lock range.
    BoundaryNotFound {
        /// Where the expansion stopped.
        last_frequency_hz: f64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Circuit(e) => write!(f, "simulation failed: {e}"),
            SimError::Waveform(e) => write!(f, "measurement failed: {e}"),
            SimError::NotLockedAtCenter { f_injection_hz } => {
                write!(f, "not locked at center frequency {f_injection_hz:.6e} Hz")
            }
            SimError::BoundaryNotFound { last_frequency_hz } => write!(
                f,
                "lock boundary not found (still locked at {last_frequency_hz:.6e} Hz)"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Circuit(e) => Some(e),
            SimError::Waveform(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CircuitError> for SimError {
    fn from(e: CircuitError) -> Self {
        SimError::Circuit(e)
    }
}

impl From<WaveformError> for SimError {
    fn from(e: WaveformError) -> Self {
        SimError::Waveform(e)
    }
}

/// Options for transient-based measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    /// Time steps per oscillator period.
    pub steps_per_period: usize,
    /// Oscillator periods to discard before measuring (startup + capture).
    pub settle_periods: f64,
    /// Lock-detection options (windows are in oscillator periods).
    pub lock: LockOptions,
    /// Differential startup kick applied as an initial condition (volts).
    pub startup_kick: f64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            steps_per_period: 96,
            settle_periods: 300.0,
            lock: LockOptions::default(),
            startup_kick: 0.1,
        }
    }
}

impl SimOptions {
    /// Total simulated periods (settle + measurement windows).
    pub fn total_periods(&self) -> f64 {
        self.settle_periods + (self.lock.windows * self.lock.periods_per_window) as f64 + 2.0
    }
}

/// A natural-oscillation measurement from transient simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NaturalMeasurement {
    /// Steady-state peak amplitude (volts).
    pub amplitude: f64,
    /// Oscillation frequency (hertz).
    pub frequency_hz: f64,
}

/// Runs a transient and returns the differential trace `v_a − v_b` after
/// the settle interval.
///
/// `ic` is a list of initial-condition node overrides used to kick the
/// oscillator off its unstable equilibrium.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn settled_trace(
    circuit: &Circuit,
    a: NodeId,
    b: NodeId,
    f_osc_guess: f64,
    opts: &SimOptions,
    ic: &[(NodeId, f64)],
) -> Result<(Vec<f64>, Vec<f64>), SimError> {
    let period = 1.0 / f_osc_guess;
    let dt = period / opts.steps_per_period as f64;
    let t_stop = opts.total_periods() * period;
    let t_record = opts.settle_periods * period;
    let mut tran = TranOptions::new(dt, t_stop).record_after(t_record);
    for &(node, v) in ic {
        tran = tran.with_ic(node, v);
    }
    let res = transient(circuit, &tran)?;
    let trace = res.voltage_between(a, b)?;
    Ok((trace.time, trace.values))
}

/// Measures the natural oscillation of a circuit by transient simulation.
///
/// # Errors
///
/// Propagates simulation and measurement failures.
pub fn measure_natural(
    circuit: &Circuit,
    a: NodeId,
    b: NodeId,
    f_osc_guess: f64,
    opts: &SimOptions,
    ic: &[(NodeId, f64)],
) -> Result<NaturalMeasurement, SimError> {
    let (time, values) = settled_trace(circuit, a, b, f_osc_guess, opts, ic)?;
    let s = Sampled::from_time_series(&time, &values)?;
    Ok(NaturalMeasurement {
        amplitude: peak_amplitude(&s),
        frequency_hz: estimate_frequency(&s)?,
    })
}

/// Probes whether a circuit (already carrying its injection waveform) locks
/// to the `n`-th sub-harmonic of `f_injection`.
///
/// # Errors
///
/// Propagates simulation and measurement failures.
pub fn probe_lock(
    circuit: &Circuit,
    a: NodeId,
    b: NodeId,
    f_injection: f64,
    n: u32,
    opts: &SimOptions,
    ic: &[(NodeId, f64)],
) -> Result<bool, SimError> {
    let f_osc = f_injection / n as f64;
    let (time, values) = settled_trace(circuit, a, b, f_osc, opts, ic)?;
    let s = Sampled::from_time_series(&time, &values)?;
    Ok(is_subharmonic_locked(&s, f_injection, n, &opts.lock)?)
}

/// Verdicts from a parallel lock sweep: one lock/no-lock answer per probed
/// injection frequency, plus the aggregated transient solver effort.
#[derive(Debug, Clone)]
pub struct LockSweep {
    /// The injection frequencies probed, in input order.
    pub frequencies_hz: Vec<f64>,
    /// `locked[i]` is the verdict at `frequencies_hz[i]`.
    pub locked: Vec<bool>,
    /// All per-run transient reports folded together.
    pub report: SolveReport,
}

impl LockSweep {
    /// Number of probed frequencies that locked.
    pub fn locked_count(&self) -> usize {
        self.locked.iter().filter(|&&l| l).count()
    }
}

/// Probes lock at every frequency of a grid, fanning the transient runs
/// across `parallelism` threads (`None` → available cores) with
/// deterministic, input-ordered verdicts.
///
/// `build(f)` must construct the circuit already carrying its injection
/// waveform at frequency `f` — each worker gets its own circuit, so the
/// closure only needs `Sync` captures. This is the paper's §III-C
/// brute-force validation scan as a single fan-out instead of a serial
/// binary search: all probes are independent, so wall clock scales with
/// the slowest run rather than the sum.
///
/// # Errors
///
/// Propagates the first simulation or measurement failure (all runs are
/// still executed; verdicts before the failure are discarded).
#[allow(clippy::too_many_arguments)]
pub fn probe_lock_sweep<F>(
    build: F,
    a: NodeId,
    b: NodeId,
    frequencies: &[f64],
    n: u32,
    opts: &SimOptions,
    ic: &[(NodeId, f64)],
    parallelism: Option<usize>,
) -> Result<LockSweep, SimError>
where
    F: Fn(f64) -> Circuit + Sync,
{
    let sweep = SweepEngine::new(parallelism).transient_sweep(frequencies, |_, &f_inj| {
        let period = n as f64 / f_inj;
        let dt = period / opts.steps_per_period as f64;
        let t_stop = opts.total_periods() * period;
        let t_record = opts.settle_periods * period;
        let mut tran = TranOptions::new(dt, t_stop).record_after(t_record);
        for &(node, v) in ic {
            tran = tran.with_ic(node, v);
        }
        (build(f_inj), tran)
    });
    let report = sweep.aggregate.clone();
    let mut locked = Vec::with_capacity(frequencies.len());
    for (res, &f_inj) in sweep.runs.into_iter().zip(frequencies) {
        let trace = res?.voltage_between(a, b)?;
        let s = Sampled::from_time_series(&trace.time, &trace.values)?;
        locked.push(is_subharmonic_locked(&s, f_inj, n, &opts.lock)?);
    }
    Ok(LockSweep {
        frequencies_hz: frequencies.to_vec(),
        locked,
        report,
    })
}

/// A policy-driven, resumable lock sweep: one classified outcome per probed
/// injection frequency.
#[derive(Debug)]
pub struct PolicyLockSweep {
    /// The injection frequencies probed, in input order.
    pub frequencies_hz: Vec<f64>,
    /// Per-frequency outcomes, verdicts, and the deterministic aggregate.
    pub sweep: PolicySweep<bool>,
}

impl PolicyLockSweep {
    /// Number of probed frequencies with a positive lock verdict.
    pub fn locked_count(&self) -> usize {
        self.sweep
            .items
            .iter()
            .filter(|item| item.value == Some(true))
            .count()
    }

    /// The lock verdict at input index `i` (`None` if the probe did not
    /// produce one — failed, timed out, panicked, or cancelled).
    pub fn verdict(&self, i: usize) -> Option<bool> {
        self.sweep.items.get(i).and_then(|item| item.value)
    }
}

/// The checkpoint fingerprint binding a lock-sweep checkpoint file to its
/// frequency grid and sub-harmonic order.
pub fn lock_sweep_fingerprint(frequencies: &[f64], n: u32) -> String {
    shil_runtime::checkpoint::fingerprint(&format!("simlock/lock-sweep/n{n}"), frequencies)
}

fn measure_err(e: WaveformError) -> CircuitError {
    CircuitError::InvalidRequest(format!("lock measurement failed: {e}"))
}

/// [`probe_lock_sweep`] under execution control: per-item deadlines, retry
/// with backoff, panic isolation, and durable checkpoint/resume.
///
/// Unlike [`probe_lock_sweep`], a failed probe does not fail the sweep —
/// every frequency gets a classified [`shil_runtime::ItemOutcome`], and a
/// sweep interrupted mid-run (deadline, kill) can be resumed from its
/// checkpoint file with bit-identical verdicts and aggregate. Open the
/// checkpoint with [`lock_sweep_fingerprint`] so stale files (different
/// grid or `n`) are rejected.
#[allow(clippy::too_many_arguments)]
pub fn probe_lock_sweep_checkpointed<F>(
    build: F,
    a: NodeId,
    b: NodeId,
    frequencies: &[f64],
    n: u32,
    opts: &SimOptions,
    ic: &[(NodeId, f64)],
    parallelism: Option<usize>,
    policy: &SweepPolicy,
    budget: &Budget,
    checkpoint: Option<&CheckpointFile>,
) -> PolicyLockSweep
where
    F: Fn(f64) -> Circuit + Sync,
{
    let sweep = SweepEngine::new(parallelism).run_checkpointed(
        frequencies,
        policy,
        budget,
        checkpoint,
        |_, &f_inj, item_budget| {
            let period = n as f64 / f_inj;
            let dt = period / opts.steps_per_period as f64;
            let t_stop = opts.total_periods() * period;
            let t_record = opts.settle_periods * period;
            let mut tran = TranOptions::new(dt, t_stop)
                .record_after(t_record)
                .with_budget(item_budget.clone());
            for &(node, v) in ic {
                tran = tran.with_ic(node, v);
            }
            let res = transient(&build(f_inj), &tran)?;
            let trace = res.voltage_between(a, b)?;
            let s = Sampled::from_time_series(&trace.time, &trace.values).map_err(measure_err)?;
            let locked = is_subharmonic_locked(&s, f_inj, n, &opts.lock).map_err(measure_err)?;
            Ok((locked, res.report))
        },
        |locked: &bool| if *locked { "1" } else { "0" }.to_string(),
        |s: &str| match s {
            "1" => Some(true),
            "0" => Some(false),
            _ => None,
        },
    );
    PolicyLockSweep {
        frequencies_hz: frequencies.to_vec(),
        sweep,
    }
}

/// The simulated lock range found by expanding + bisecting on each side of
/// the center frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulatedLockRange {
    /// Lower injection lock limit (hertz).
    pub lower_injection_hz: f64,
    /// Upper injection lock limit (hertz).
    pub upper_injection_hz: f64,
    /// Width (hertz).
    pub injection_span_hz: f64,
    /// Number of lock probes (transient simulations) performed.
    pub probes: usize,
}

/// Binary-searches the lock boundary on one side of `f_center`.
///
/// `probe(f)` must report lock/no-lock at injection frequency `f`.
fn boundary<P: FnMut(f64) -> Result<bool, SimError>>(
    mut probe: P,
    f_center: f64,
    initial_step: f64,
    tol: f64,
    upward: bool,
    probes: &mut usize,
) -> Result<f64, SimError> {
    let sign = if upward { 1.0 } else { -1.0 };
    let mut inside = f_center;
    let mut step = initial_step;
    let mut outside = None;
    for _ in 0..40 {
        let f = inside + sign * step;
        *probes += 1;
        if probe(f)? {
            inside = f;
            step *= 2.0;
        } else {
            outside = Some(f);
            break;
        }
    }
    let mut out = outside.ok_or(SimError::BoundaryNotFound {
        last_frequency_hz: inside,
    })?;
    while (out - inside).abs() > tol {
        let mid = 0.5 * (out + inside);
        *probes += 1;
        if probe(mid)? {
            inside = mid;
        } else {
            out = mid;
        }
    }
    Ok(0.5 * (inside + out))
}

/// Finds the injection lock range by brute-force binary search — the
/// paper's simulation baseline.
///
/// `probe(f)` runs a transient at injection frequency `f` and reports
/// whether the oscillator locked; `f_center` must be inside the range.
///
/// # Errors
///
/// - [`SimError::NotLockedAtCenter`] if `probe(f_center)` is false.
/// - [`SimError::BoundaryNotFound`] if expansion never exits the range.
/// - Propagated probe failures.
pub fn simulated_lock_range<P: FnMut(f64) -> Result<bool, SimError>>(
    mut probe: P,
    f_center: f64,
    initial_step: f64,
    tol: f64,
) -> Result<SimulatedLockRange, SimError> {
    let mut probes = 1;
    if !probe(f_center)? {
        return Err(SimError::NotLockedAtCenter {
            f_injection_hz: f_center,
        });
    }
    let upper = boundary(&mut probe, f_center, initial_step, tol, true, &mut probes)?;
    let lower = boundary(&mut probe, f_center, initial_step, tol, false, &mut probes)?;
    Ok(SimulatedLockRange {
        lower_injection_hz: lower,
        upper_injection_hz: upper,
        injection_span_hz: upper - lower,
        probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic "oscillator" whose lock range is exactly [990, 1020].
    fn synthetic_probe(f: f64) -> Result<bool, SimError> {
        Ok((990.0..=1020.0).contains(&f))
    }

    #[test]
    fn synthetic_lock_range_is_recovered() {
        let lr = simulated_lock_range(synthetic_probe, 1000.0, 1.0, 0.01).unwrap();
        assert!((lr.lower_injection_hz - 990.0).abs() < 0.02);
        assert!((lr.upper_injection_hz - 1020.0).abs() < 0.02);
        assert!((lr.injection_span_hz - 30.0).abs() < 0.05);
        assert!(lr.probes > 10);
    }

    #[test]
    fn unlocked_center_is_reported() {
        let e = simulated_lock_range(synthetic_probe, 2000.0, 1.0, 0.01).unwrap_err();
        assert!(matches!(e, SimError::NotLockedAtCenter { .. }));
    }

    #[test]
    fn boundless_lock_is_reported() {
        let e = simulated_lock_range(|_| Ok(true), 1000.0, 1.0, 0.01).unwrap_err();
        assert!(matches!(e, SimError::BoundaryNotFound { .. }));
    }

    #[test]
    fn sim_options_total_periods() {
        let o = SimOptions::default();
        // settle + 8 windows × 20 periods + slack
        assert!((o.total_periods() - (300.0 + 160.0 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn error_display() {
        let e = SimError::NotLockedAtCenter {
            f_injection_hz: 1.5e6,
        };
        assert!(e.to_string().contains("1.5"));
        let e = SimError::BoundaryNotFound {
            last_frequency_hz: 2e6,
        };
        assert!(e.to_string().contains("still locked"));
    }
}
