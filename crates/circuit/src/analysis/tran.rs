//! Transient analysis.
//!
//! Fixed-step integration with trapezoidal (default) or backward-Euler
//! companion models and a damped Newton solve at every step. The first step
//! after the initial condition uses backward Euler to bootstrap the
//! trapezoidal history; steps that fail to converge are retried with
//! recursive halving (the recorded output stays on the uniform grid).

use std::sync::Arc;
use std::time::Instant;

use shil_numerics::solver::{BypassSolver, DenseSolver, LinearSolver};
use shil_numerics::sparse::{SparseMatrix, SparseSolver};
use shil_numerics::{Matrix, NumericsError};
use shil_runtime::{Budget, SweepPolicy};

use crate::circuit::{Circuit, NodeId};
use crate::error::CircuitError;
use crate::mna::{
    assemble, sparse_pattern, update_dynamic_state, DynamicState, Integrator, MnaStructure,
    StampMode,
};
use crate::report::{Analysis, FallbackKind, SolveReport};
use crate::trace::TranResult;

use super::op::{operating_point_inner, OpOptions};

/// Linear-solver backend for the transient Newton loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverKind {
    /// Two-tier ladder: dense LU up to a dozen unknowns, sparse LU above.
    /// The two backends produce bit-identical solutions (they share the
    /// same elimination kernel and pivot order), so the choice never
    /// changes results, only speed.
    #[default]
    Auto,
    /// Always the preallocated dense LU.
    Dense,
    /// Always the CSR-stamped solver with symbolic-pattern reuse.
    Sparse,
}

impl SolverKind {
    /// The backend actually used for an `n`-unknown system.
    ///
    /// The dense→sparse rung is recorded as `auto_crossover` in
    /// `results/BENCH_tran.json` by `perf_tran`, measured under the
    /// production reuse setting ([`TranOptions::REUSE_MIN_DIM`]). From 17
    /// unknowns up sparse LU is faster at every rung; `12` keeps the paper's
    /// 9-unknown diff pair on the dense path. Sparse LU also serves the
    /// largest systems: on coupled rings of up to 896 unknowns the bypass
    /// certificate leaves it two refactorizations per run
    /// (`results/BENCH_network.json`).
    pub fn resolve(self, n: usize) -> SolverKind {
        match self {
            SolverKind::Auto if n > 12 => SolverKind::Sparse,
            SolverKind::Auto => SolverKind::Dense,
            // The sparse pattern is undefined for an empty system.
            SolverKind::Sparse if n == 0 => SolverKind::Dense,
            k => k,
        }
    }
}

/// Options for [`transient`].
#[derive(Debug, Clone)]
pub struct TranOptions {
    /// Uniform output step size (seconds).
    pub dt: f64,
    /// End time of the simulation (seconds).
    pub t_stop: f64,
    /// Only record samples with `t ≥ t_record_start` (saves memory on long
    /// settles).
    pub t_record_start: f64,
    /// Record every `record_every`-th grid point (≥ 1).
    pub record_every: usize,
    /// Companion-model integrator.
    pub method: Integrator,
    /// Node-voltage overrides applied to the initial state.
    pub initial_conditions: Vec<(NodeId, f64)>,
    /// If `true`, skip the operating-point solve and start from all-zeros
    /// plus `initial_conditions` (SPICE `UIC`).
    pub use_ic: bool,
    /// Newton residual tolerance (amperes).
    pub abstol: f64,
    /// Maximum Newton iterations per step.
    pub max_newton_iter: usize,
    /// Maximum recursive step halvings before giving up.
    pub max_halvings: usize,
    /// Total step rejections allowed across the whole run (see
    /// [`TranOptions::with_step_retry_budget`]).
    step_retry_budget: usize,
    /// Execution budget for the whole run: cancellation tokens and/or a
    /// wall-clock deadline, checked cooperatively before the operating-point
    /// solve, at every step boundary, and inside every Newton iteration.
    /// Unlimited by default (one branch per check, no behavior change).
    pub budget: Budget,
    /// Linear-solver backend ([`SolverKind::Auto`] picks sparse beyond a
    /// dozen unknowns; the choice never changes results, only speed).
    pub solver: SolverKind,
    /// Relative tolerance for the factorization-bypass certificate: a
    /// previous LU is reused for a Newton step only when the *linear*
    /// residual against the freshly assembled Jacobian stays below
    /// `reuse_tolerance·‖rhs‖∞` (after at most two refinement passes).
    /// `0.0` disables reuse entirely — every iteration refactorizes, as the
    /// pre-sparse engine did. A non-finite value also disables reuse.
    pub reuse_tolerance: f64,
    /// Smallest system size (unknown count) at which the factorization
    /// bypass runs at all. Below it the certificate is skipped — the
    /// residual check (`A·x` plus up to two refinement solves) costs more
    /// than simply refactorizing a tiny matrix, a regression the
    /// `reuse_threshold` ladder in `results/BENCH_tran.json` measures
    /// directly. Defaults to [`TranOptions::REUSE_MIN_DIM`]; set to `0` to
    /// force the certificate on at every size.
    pub reuse_min_dim: usize,
    /// Complete starting solution vector (node voltages *and* branch
    /// currents, in MNA unknown order) used instead of the operating-point
    /// solve or the UIC zero start. This is the warm-start continuation
    /// hook: seeding a sweep item from a neighboring item's
    /// [`TranResult::final_unknowns`] skips the oscillator ring-up
    /// entirely. `initial_conditions` overrides still apply on top, and the
    /// dynamic (capacitor/inductor) history is re-seeded from the given
    /// vector exactly as for a cold start. The length must equal the MNA
    /// system size.
    pub warm_start: Option<Vec<f64>>,
    /// Options for the initial operating-point solve.
    pub op: OpOptions,
}

impl TranOptions {
    /// Creates options with the given step and stop time and defaults
    /// elsewhere (trapezoidal, record everything, start from the OP).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < dt < t_stop` with both finite; use
    /// [`TranOptions::try_new`] for a non-panicking variant.
    pub fn new(dt: f64, t_stop: f64) -> Self {
        Self::try_new(dt, t_stop).expect("need finite 0 < dt < t_stop")
    }

    /// Creates options like [`TranOptions::new`], returning
    /// [`CircuitError::InvalidParameter`] instead of panicking on a bad
    /// (non-finite, non-positive or inverted) time axis.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidParameter`] unless `0 < dt < t_stop` with
    /// both values finite.
    pub fn try_new(dt: f64, t_stop: f64) -> Result<Self, CircuitError> {
        // NaN-rejecting form: any NaN fails the conjunction.
        if !(dt > 0.0 && t_stop > dt && dt.is_finite() && t_stop.is_finite()) {
            return Err(CircuitError::InvalidParameter(format!(
                "need finite 0 < dt < t_stop, got dt = {dt}, t_stop = {t_stop}"
            )));
        }
        Ok(TranOptions {
            dt,
            t_stop,
            t_record_start: 0.0,
            record_every: 1,
            method: Integrator::Trapezoidal,
            initial_conditions: Vec::new(),
            use_ic: false,
            abstol: 1e-9,
            max_newton_iter: 80,
            max_halvings: 14,
            step_retry_budget: SweepPolicy::default().step_retry_budget,
            budget: Budget::unlimited(),
            solver: SolverKind::default(),
            reuse_tolerance: BypassSolver::<DenseSolver>::DEFAULT_ETA,
            reuse_min_dim: Self::REUSE_MIN_DIM,
            warm_start: None,
            op: OpOptions::default(),
        })
    }

    /// Default for [`TranOptions::reuse_min_dim`]: the measured size below
    /// which the bypass certificate loses to plain refactorization (see the
    /// `reuse_threshold` ladder in `results/BENCH_tran.json` — at 9
    /// unknowns the certified-reuse path ran ~1.4× *slower* per step than
    /// refactorizing every iteration). Aligned with the dense→sparse
    /// [`SolverKind::Auto`] crossover: the dense small-N region is exactly
    /// where `A·x` residual checks cost as much as a tiny LU.
    pub const REUSE_MIN_DIM: usize = 13;

    /// Adds an initial-condition override for a node voltage.
    #[must_use]
    pub fn with_ic(mut self, node: NodeId, volts: f64) -> Self {
        self.initial_conditions.push((node, volts));
        self
    }

    /// Skips the operating point and starts from zeros + ICs.
    #[must_use]
    pub fn use_ic(mut self) -> Self {
        self.use_ic = true;
        self
    }

    /// Starts recording only after `t` seconds.
    #[must_use]
    pub fn record_after(mut self, t: f64) -> Self {
        self.t_record_start = t;
        self
    }

    /// Selects the integration method.
    #[must_use]
    pub fn with_method(mut self, method: Integrator) -> Self {
        self.method = method;
        self
    }

    /// Sets the execution budget (deadline and/or cancellation tokens) for
    /// the run.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the total step-rejection budget for the run. Each rejected
    /// step costs a wasted Newton solve plus two half-steps; this budget
    /// bounds the worst-case slowdown of a pathologically stiff (or
    /// fault-injected) circuit before the analysis gives up with the last
    /// step's diagnostics. Defaults to [`SweepPolicy`]'s
    /// `step_retry_budget`.
    #[must_use]
    pub fn with_step_retry_budget(mut self, budget: usize) -> Self {
        self.step_retry_budget = budget;
        self
    }

    /// Applies the retry knobs of a [`SweepPolicy`] — currently its
    /// `step_retry_budget`, the canonical home for the per-run rejection
    /// budget.
    #[must_use]
    pub fn with_policy(self, policy: &SweepPolicy) -> Self {
        self.with_step_retry_budget(policy.step_retry_budget)
    }

    /// The total step rejections allowed across the run.
    pub fn step_retry_budget(&self) -> usize {
        self.step_retry_budget
    }

    /// Seeds the run from a complete solution vector (see
    /// [`TranOptions::warm_start`]).
    #[must_use]
    pub fn with_warm_start(mut self, x: Vec<f64>) -> Self {
        self.warm_start = Some(x);
        self
    }

    /// Sets the smallest system size at which the factorization-bypass
    /// certificate runs (see [`TranOptions::reuse_min_dim`]).
    #[must_use]
    pub fn with_reuse_min_dim(mut self, dim: usize) -> Self {
        self.reuse_min_dim = dim;
        self
    }
}

/// The reuse tolerance a run of size `n` actually uses: the configured
/// tolerance, forced to `0.0` (certificate off) when it is non-finite —
/// fail safe, never certify against an infinite threshold — or when the
/// system is below [`TranOptions::reuse_min_dim`], where the certificate's
/// residual check costs more than refactorizing. One chokepoint shared by
/// [`transient`] and the steady-state runner, so both pick the same
/// tolerance.
pub(crate) fn effective_eta(opts: &TranOptions, n: usize) -> f64 {
    if !opts.reuse_tolerance.is_finite() || n < opts.reuse_min_dim {
        0.0
    } else {
        opts.reuse_tolerance
    }
}

/// Builds the typed cooperative-stop error for a tripped budget and counts
/// it. The best iterate travels with the error so a deadline-bounded run
/// still hands back where the solve got to.
fn cancelled_err(budget: &Budget, best_iterate: Vec<f64>) -> CircuitError {
    shil_observe::incr("shil_circuit_tran_cancellations_total");
    CircuitError::Numerics(NumericsError::Cancelled {
        best_iterate,
        elapsed: budget.elapsed(),
    })
}

/// NaN-propagating infinity norm: `f64::max` would silently discard NaN
/// entries and report a poisoned residual as converged.
fn inf_norm(v: &[f64]) -> f64 {
    let mut m = 0.0f64;
    for x in v {
        if x.is_nan() {
            return f64::NAN;
        }
        m = m.max(x.abs());
    }
    m
}

/// Workspace reused across all Newton solves of a transient run: every
/// buffer the inner loop touches is allocated here **once**, so an accepted
/// step performs zero heap allocation (the pre-sparse engine cloned the
/// Jacobian and allocated the step vector on every Newton iteration).
pub(crate) struct Workspace<S: LinearSolver> {
    r: Vec<f64>,
    r_trial: Vec<f64>,
    xt: Vec<f64>,
    /// Newton iterate for the step in flight; copied out only on success so
    /// a failed step leaves the caller's state untouched for the retry.
    x_new: Vec<f64>,
    neg_r: Vec<f64>,
    dx: Vec<f64>,
    jac: S::Matrix,
    jac_trial: S::Matrix,
    pub(crate) solver: BypassSolver<S>,
}

impl<S: LinearSolver> Workspace<S> {
    pub(crate) fn new(
        n: usize,
        jac: S::Matrix,
        jac_trial: S::Matrix,
        solver: BypassSolver<S>,
    ) -> Self {
        Workspace {
            r: vec![0.0; n],
            r_trial: vec![0.0; n],
            xt: vec![0.0; n],
            x_new: vec![0.0; n],
            neg_r: vec![0.0; n],
            dx: vec![0.0; n],
            jac,
            jac_trial,
            solver,
        }
    }
}

/// One Newton solve for the step ending at `t` with history `prev`.
///
/// On success the converged solution is left in `ws.x_new`; on failure the
/// caller's state is untouched (everything mutated lives in the workspace).
#[allow(clippy::too_many_arguments)]
fn newton_tran<S: LinearSolver>(
    ckt: &Circuit,
    structure: &MnaStructure,
    x0: &[f64],
    t: f64,
    dt: f64,
    method: Integrator,
    prev: &DynamicState,
    opts: &TranOptions,
    ws: &mut Workspace<S>,
) -> Result<(), CircuitError> {
    let n = structure.size();
    let mode = StampMode::Transient {
        t,
        dt,
        method,
        prev,
    };
    ws.x_new.copy_from_slice(x0);
    assemble(ckt, structure, &ws.x_new, mode, 0.0, &mut ws.r, &mut ws.jac);
    let mut rnorm = inf_norm(&ws.r);
    // A non-finite starting residual cannot improve — the line search
    // rejects every trial against a NaN baseline — so fail fast and let the
    // step-halving ladder retry from a shorter step.
    if !rnorm.is_finite() {
        return Err(CircuitError::Numerics(NumericsError::NonFinite {
            context: format!("transient residual at t = {t:.6e}"),
            at: ws.x_new.clone(),
        }));
    }

    for _ in 0..opts.max_newton_iter {
        if rnorm < opts.abstol {
            return Ok(());
        }
        // Cooperative stop at the iteration boundary; convergence (checked
        // above) wins a race with the deadline.
        if opts.budget.cancelled().is_some() {
            return Err(cancelled_err(&opts.budget, ws.x_new.clone()));
        }
        for (d, v) in ws.neg_r.iter_mut().zip(&ws.r) {
            *d = -v;
        }
        // The bypass solver reuses the previous LU whenever the refreshed
        // Jacobian certifies against it (see `BypassSolver`); a NaN stamped
        // anywhere in `jac` surfaces as `NonFinite` *before* any stale
        // factorization is consulted, never as a silently wrong reuse.
        ws.solver.solve_step(&ws.jac, &ws.neg_r, &mut ws.dx)?;
        let mut lambda = 1.0;
        let mut improved = false;
        for _ in 0..20 {
            for i in 0..n {
                ws.xt[i] = ws.x_new[i] + lambda * ws.dx[i];
            }
            assemble(
                ckt,
                structure,
                &ws.xt,
                mode,
                0.0,
                &mut ws.r_trial,
                &mut ws.jac_trial,
            );
            let tn = inf_norm(&ws.r_trial);
            if tn.is_finite() && tn < rnorm {
                std::mem::swap(&mut ws.x_new, &mut ws.xt);
                std::mem::swap(&mut ws.r, &mut ws.r_trial);
                std::mem::swap(&mut ws.jac, &mut ws.jac_trial);
                rnorm = tn;
                improved = true;
                break;
            }
            lambda *= 0.5;
        }
        if !improved {
            break;
        }
    }
    if rnorm < opts.abstol {
        Ok(())
    } else {
        Err(CircuitError::ConvergenceFailure {
            analysis: "tran",
            at: t,
            residual: rnorm,
        })
    }
}

/// Advances from `t0` to `t0 + dt`, recursively halving on Newton failure.
///
/// Every rejection is charged against `opts.step_retry_budget()`; once the
/// run has spent it, the failure propagates with the diagnostics of the
/// step that exhausted it instead of retrying indefinitely.
#[allow(clippy::too_many_arguments)]
fn advance<S: LinearSolver>(
    ckt: &Circuit,
    structure: &MnaStructure,
    x: &mut [f64],
    state: &mut DynamicState,
    next_state: &mut DynamicState,
    t0: f64,
    dt: f64,
    method: Integrator,
    opts: &TranOptions,
    ws: &mut Workspace<S>,
    depth: usize,
    report: &mut SolveReport,
) -> Result<(), CircuitError> {
    report.attempts += 1;
    match newton_tran(ckt, structure, x, t0 + dt, dt, method, state, opts, ws) {
        Ok(()) => {
            update_dynamic_state(ckt, structure, &ws.x_new, dt, method, state, next_state);
            std::mem::swap(state, next_state);
            x.copy_from_slice(&ws.x_new);
            Ok(())
        }
        Err(e) => {
            // A tripped budget is not a convergence failure: halving and
            // retrying would just re-trip it, so propagate immediately.
            let cancelled = matches!(&e, CircuitError::Numerics(NumericsError::Cancelled { .. }));
            if cancelled
                || depth >= opts.max_halvings
                || report.halvings >= opts.step_retry_budget()
            {
                return Err(e);
            }
            report.halvings += 1;
            report.note_fallback(FallbackKind::StepHalving);
            let half = dt * 0.5;
            advance(
                ckt,
                structure,
                x,
                state,
                next_state,
                t0,
                half,
                method,
                opts,
                ws,
                depth + 1,
                report,
            )?;
            advance(
                ckt,
                structure,
                x,
                state,
                next_state,
                t0 + half,
                half,
                method,
                opts,
                ws,
                depth + 1,
                report,
            )
        }
    }
}

/// Runs a transient analysis.
///
/// The returned [`TranResult::report`] records solver effort: total Newton
/// attempts, step halvings, fallbacks engaged (including those of the
/// initial operating-point solve), the split of linear solves into full
/// factorizations vs. certified reuses, and wall time.
///
/// # Errors
///
/// - [`CircuitError::InvalidParameter`] for a non-finite or non-positive
///   time axis or non-finite initial conditions.
/// - [`CircuitError::ConvergenceFailure`] if a step cannot be solved even
///   after `max_halvings` recursive halvings, or once the run's
///   step-retry budget of rejections is spent.
/// - Errors from the initial operating-point solve (unless `use_ic`).
///
/// See the crate-level example for typical usage.
pub fn transient(ckt: &Circuit, opts: &TranOptions) -> Result<TranResult, CircuitError> {
    validate_options(opts)?;
    let start = Instant::now();
    let structure = MnaStructure::new(ckt);
    let n = structure.size();
    let eta = effective_eta(opts, n);
    match opts.solver.resolve(n) {
        SolverKind::Sparse => {
            let pattern = Arc::new(sparse_pattern(ckt, &structure));
            let ws = Workspace::new(
                n,
                SparseMatrix::zeros(pattern.clone()),
                SparseMatrix::zeros(pattern.clone()),
                BypassSolver::new(SparseSolver::new(pattern)).with_tolerance(eta),
            );
            transient_impl(ckt, opts, structure, ws, start)
        }
        _ => {
            let ws = Workspace::new(
                n,
                Matrix::zeros(n, n),
                Matrix::zeros(n, n),
                BypassSolver::new(DenseSolver::new(n)).with_tolerance(eta),
            );
            transient_impl(ckt, opts, structure, ws, start)
        }
    }
}

/// Re-validates options at the analysis entry point. Options may be built
/// by struct update rather than `try_new`, so the time axis is checked
/// here — the chokepoint every construction path goes through.
pub(crate) fn validate_options(opts: &TranOptions) -> Result<(), CircuitError> {
    if !(opts.dt > 0.0 && opts.t_stop > opts.dt && opts.dt.is_finite() && opts.t_stop.is_finite()) {
        return Err(CircuitError::InvalidParameter(format!(
            "need finite 0 < dt < t_stop, got dt = {}, t_stop = {}",
            opts.dt, opts.t_stop
        )));
    }
    if !opts.t_record_start.is_finite() {
        return Err(CircuitError::InvalidParameter(format!(
            "t_record_start must be finite, got {}",
            opts.t_record_start
        )));
    }
    if opts.record_every == 0 {
        return Err(CircuitError::InvalidParameter(
            "record_every must be at least 1".into(),
        ));
    }
    if let Some((node, v)) = opts.initial_conditions.iter().find(|(_, v)| !v.is_finite()) {
        return Err(CircuitError::InvalidParameter(format!(
            "non-finite initial condition {v} on node {node}"
        )));
    }
    if let Some(w) = &opts.warm_start {
        if let Some(v) = w.iter().find(|v| !v.is_finite()) {
            return Err(CircuitError::InvalidParameter(format!(
                "non-finite warm-start entry {v}"
            )));
        }
    }
    Ok(())
}

/// The state a transient run carries between steps, produced by
/// [`tran_init`] and consumed by [`run_steps_from`]. Shared by the
/// transient main loop and the steady-state runner, so both initialize
/// identically by construction.
pub(crate) struct TranInit {
    pub(crate) x: Vec<f64>,
    pub(crate) state: DynamicState,
    pub(crate) next_state: DynamicState,
    pub(crate) result: TranResult,
    pub(crate) steps: usize,
}

/// Budget pre-check, initial state (OP solve or UIC), initial conditions,
/// dynamic-history seeding and `t = 0` recording — everything a transient
/// run does before its first step.
pub(crate) fn tran_init(
    ckt: &Circuit,
    opts: &TranOptions,
    structure: &MnaStructure,
    report: &mut SolveReport,
) -> Result<TranInit, CircuitError> {
    let n = structure.size();
    // Prompt cancellation: an already-tripped budget (e.g. a zero-second
    // deadline) returns before the operating-point solve even starts.
    if opts.budget.cancelled().is_some() {
        return Err(cancelled_err(&opts.budget, vec![0.0; n]));
    }

    // Initial state: a warm-start vector wins over both the UIC zero start
    // and the operating-point solve — it *is* a (neighboring run's)
    // converged solution, so no bring-up solve is spent on it.
    let mut x = if let Some(w) = &opts.warm_start {
        if w.len() != n {
            return Err(CircuitError::InvalidParameter(format!(
                "warm-start vector has {} entries, system has {n} unknowns",
                w.len()
            )));
        }
        w.clone()
    } else if opts.use_ic {
        vec![0.0; n]
    } else {
        // The un-publishing variant: this solve's effort is folded into
        // the transient's own report, which is published once below —
        // publishing here too would double-count it in exported metrics.
        let op = operating_point_inner(ckt, &opts.op)?;
        // Fold the operating point's effort into the transient's report so
        // the full story travels with the result.
        report.attempts += op.report.attempts;
        for &k in &op.report.fallbacks {
            report.note_fallback(k);
        }
        op.x
    };
    for &(node, v) in &opts.initial_conditions {
        if node >= ckt.num_nodes() {
            return Err(CircuitError::UnknownNode { node });
        }
        if let Some(i) = structure.node_index(node) {
            x[i] = v;
        }
    }

    // Seed the dynamic history from the initial state (zero element
    // currents: consistent with a quiescent start).
    let mut state = DynamicState::for_circuit(ckt);
    let next_state = DynamicState::for_circuit(ckt);
    seed_state(ckt, structure, &x, &mut state);

    let steps = (opts.t_stop / opts.dt).round() as usize;
    let mut result = TranResult::new(structure.clone());
    if 0.0 >= opts.t_record_start {
        result.push(0.0, &x);
    }
    Ok(TranInit {
        x,
        state,
        next_state,
        result,
        steps,
    })
}

/// Advances steps `first_step..steps` of the uniform grid, recording into
/// `result`. This is the transient main loop; the steady-state runner
/// calls it one chunk of steps at a time, which is why the starting step
/// is a parameter.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_steps_from<S: LinearSolver>(
    ckt: &Circuit,
    opts: &TranOptions,
    structure: &MnaStructure,
    ws: &mut Workspace<S>,
    x: &mut Vec<f64>,
    state: &mut DynamicState,
    next_state: &mut DynamicState,
    result: &mut TranResult,
    report: &mut SolveReport,
    first_step: usize,
    steps: usize,
) -> Result<(), CircuitError> {
    for k in first_step..steps {
        // Step-boundary check: even if every Newton solve converges on its
        // first iteration (and so never consults the budget itself), a
        // deadline still stops the run within one step of expiring.
        if opts.budget.cancelled().is_some() {
            return Err(cancelled_err(&opts.budget, std::mem::take(x)));
        }
        let t0 = k as f64 * opts.dt;
        // Bootstrap the trapezoidal history with one backward-Euler step.
        let method = if k == 0 {
            Integrator::BackwardEuler
        } else {
            opts.method
        };
        advance(
            ckt, structure, x, state, next_state, t0, opts.dt, method, opts, ws, 0, report,
        )?;
        let t1 = (k + 1) as f64 * opts.dt;
        if t1 >= opts.t_record_start && (k + 1) % opts.record_every == 0 {
            result.push(t1, x);
        }
    }
    Ok(())
}

/// The transient main loop, generic over the linear-solver backend.
fn transient_impl<S: LinearSolver>(
    ckt: &Circuit,
    opts: &TranOptions,
    structure: MnaStructure,
    mut ws: Workspace<S>,
    start: Instant,
) -> Result<TranResult, CircuitError> {
    let mut report = SolveReport::new();
    let TranInit {
        mut x,
        mut state,
        mut next_state,
        mut result,
        steps,
    } = tran_init(ckt, opts, &structure, &mut report)?;
    run_steps_from(
        ckt,
        opts,
        &structure,
        &mut ws,
        &mut x,
        &mut state,
        &mut next_state,
        &mut result,
        &mut report,
        0,
        steps,
    )?;
    report.factorizations = ws.solver.factorizations();
    report.reuses = ws.solver.reuses();
    report.wall_time = start.elapsed();
    report.publish(Analysis::Tran);
    result.report = report;
    Ok(result)
}

/// Initializes capacitor voltages and inductor voltages/currents from the
/// starting solution.
fn seed_state(ckt: &Circuit, structure: &MnaStructure, x: &[f64], state: &mut DynamicState) {
    use crate::device::Device;
    for (di, dev) in ckt.devices().iter().enumerate() {
        match dev {
            Device::Capacitor { a, b, .. } => {
                state.cap_v[di] = structure.voltage(x, *a) - structure.voltage(x, *b);
                state.cap_i[di] = 0.0;
            }
            Device::Inductor { a, b, .. } => {
                state.ind_v[di] = structure.voltage(x, *a) - structure.voltage(x, *b);
                state.ind_i[di] = structure.branch_index(di).map(|i| x[i]).unwrap_or_default();
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wave::SourceWave;
    use crate::{Circuit, IvCurve};

    #[test]
    fn rc_step_response_time_constant() {
        let mut ckt = Circuit::new();
        let n_in = ckt.node("in");
        let n_out = ckt.node("out");
        ckt.vsource(n_in, 0, SourceWave::Dc(1.0));
        ckt.resistor(n_in, n_out, 1e3);
        ckt.capacitor(n_out, 0, 1e-6);
        // Start discharged (UIC) so we see the full exponential.
        let opts = TranOptions::new(1e-6, 5e-3).use_ic();
        let res = transient(&ckt, &opts).unwrap();
        let v = res.node_voltage(n_out).unwrap();
        // At t = τ = 1 ms, v = 1 − e⁻¹.
        let idx = res.time.partition_point(|&t| t < 1e-3);
        assert!(
            (v[idx] - (1.0 - (-1.0f64).exp())).abs() < 2e-3,
            "v(τ) = {}",
            v[idx]
        );
        let v_end = *v.last().unwrap();
        assert!((v_end - 1.0).abs() < 1e-2);
    }

    #[test]
    fn lc_tank_rings_at_resonance() {
        let (l, c) = (10e-6, 10e-9);
        let mut ckt = Circuit::new();
        let top = ckt.node("top");
        ckt.inductor(top, 0, l);
        ckt.capacitor(top, 0, c);
        // Lossless ring from a 1 V initial condition.
        let f0 = 1.0 / (std::f64::consts::TAU * (l * c).sqrt());
        let period = 1.0 / f0;
        let opts = TranOptions::new(period / 200.0, 20.0 * period)
            .use_ic()
            .with_ic(top, 1.0);
        let res = transient(&ckt, &opts).unwrap();
        let v = res.node_voltage(top).unwrap();
        // Count zero crossings: 2 per period.
        let crossings = v.windows(2).filter(|w| w[0] * w[1] < 0.0).count();
        let periods = res.time.last().unwrap() * f0;
        let expected = (2.0 * periods).round() as usize;
        assert!(
            (crossings as i64 - expected as i64).abs() <= 1,
            "crossings {crossings} vs expected {expected}"
        );
        // Trapezoidal integration preserves the ring amplitude.
        let tail_max = v[v.len() - 400..]
            .iter()
            .fold(0.0f64, |m, x| m.max(x.abs()));
        assert!(tail_max > 0.98, "amplitude decayed to {tail_max}");
    }

    #[test]
    fn backward_euler_damps_the_same_tank() {
        let (l, c) = (10e-6, 10e-9);
        let mut ckt = Circuit::new();
        let top = ckt.node("top");
        ckt.inductor(top, 0, l);
        ckt.capacitor(top, 0, c);
        let f0 = 1.0 / (std::f64::consts::TAU * (l * c).sqrt());
        let period = 1.0 / f0;
        let opts = TranOptions::new(period / 200.0, 20.0 * period)
            .use_ic()
            .with_ic(top, 1.0)
            .with_method(Integrator::BackwardEuler);
        let res = transient(&ckt, &opts).unwrap();
        let v = res.node_voltage(top).unwrap();
        let tail_max = v[v.len() - 400..]
            .iter()
            .fold(0.0f64, |m, x| m.max(x.abs()));
        assert!(tail_max < 0.8, "BE should damp, got {tail_max}");
    }

    #[test]
    fn sine_source_reproduced_across_divider() {
        let mut ckt = Circuit::new();
        let n_in = ckt.node("in");
        let n_out = ckt.node("out");
        ckt.vsource(n_in, 0, SourceWave::sine(2.0, 1e3, 0.0));
        ckt.resistor(n_in, n_out, 1e3);
        ckt.resistor(n_out, 0, 1e3);
        let res = transient(&ckt, &TranOptions::new(1e-6, 2e-3)).unwrap();
        let v = res.node_voltage(n_out).unwrap();
        for (t, vk) in res.time.iter().zip(v) {
            let expect = (std::f64::consts::TAU * 1e3 * t).sin();
            assert!((vk - expect).abs() < 1e-6, "t={t}");
        }
    }

    #[test]
    fn tanh_oscillator_reaches_limit_cycle() {
        // Negative-resistance LC oscillator: startup from a small kick must
        // grow to a finite limit cycle (validated quantitatively against the
        // describing-function prediction in the integration tests).
        let (r, l, c) = (1000.0, 10e-6, 10e-9);
        let mut ckt = Circuit::new();
        let top = ckt.node("top");
        ckt.resistor(top, 0, r);
        ckt.inductor(top, 0, l);
        ckt.capacitor(top, 0, c);
        // Small-signal negative conductance −2/R: loop gain 2 at resonance.
        ckt.nonlinear(top, 0, IvCurve::tanh(-1e-3, 2.0 / (r * 1e-3)));
        let f0 = 1.0 / (std::f64::consts::TAU * (l * c).sqrt());
        let period = 1.0 / f0;
        let opts = TranOptions::new(period / 200.0, 120.0 * period)
            .use_ic()
            .with_ic(top, 1e-3);
        let res = transient(&ckt, &opts).unwrap();
        let v = res.node_voltage(top).unwrap();
        let early_max = v[..v.len() / 10].iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let tail_max = v[v.len() - 400..]
            .iter()
            .fold(0.0f64, |m, x| m.max(x.abs()));
        assert!(
            tail_max > 10.0 * early_max,
            "no growth: {early_max} → {tail_max}"
        );
        assert!(tail_max < 10.0, "unbounded growth: {tail_max}");
        // The oscillation frequency must be the tank resonance.
        let crossings = v[v.len() / 2..]
            .windows(2)
            .filter(|w| w[0] * w[1] < 0.0)
            .count();
        let span = res.time.last().unwrap() - res.time[res.time.len() / 2];
        let f_est = crossings as f64 / (2.0 * span);
        assert!((f_est - f0).abs() / f0 < 0.02, "f = {f_est} vs f0 = {f0}");
    }

    #[test]
    fn record_after_trims_output() {
        let mut ckt = Circuit::new();
        let n1 = ckt.node("n1");
        ckt.vsource(n1, 0, SourceWave::Dc(1.0));
        ckt.resistor(n1, 0, 1e3);
        let opts = {
            let mut o = TranOptions::new(1e-6, 1e-3);
            o.t_record_start = 0.5e-3;
            o
        };
        let res = transient(&ckt, &opts).unwrap();
        assert!(res.time[0] >= 0.5e-3);
        assert!(!res.is_empty());
    }

    #[test]
    fn try_new_validates_time_axis() {
        assert!(TranOptions::try_new(1e-6, 1e-3).is_ok());
        for (dt, t_stop) in [
            (0.0, 1e-3),
            (-1e-6, 1e-3),
            (1e-3, 1e-6),
            (f64::NAN, 1e-3),
            (1e-6, f64::NAN),
            (1e-6, f64::INFINITY),
        ] {
            assert!(
                matches!(
                    TranOptions::try_new(dt, t_stop),
                    Err(CircuitError::InvalidParameter(_))
                ),
                "dt = {dt}, t_stop = {t_stop}"
            );
        }
    }

    #[test]
    fn transient_revalidates_struct_built_options() {
        let mut ckt = Circuit::new();
        let n1 = ckt.node("n1");
        ckt.vsource(n1, 0, SourceWave::Dc(1.0));
        ckt.resistor(n1, 0, 1e3);
        let mut opts = TranOptions::new(1e-6, 1e-3);
        opts.dt = f64::NAN;
        assert!(matches!(
            transient(&ckt, &opts),
            Err(CircuitError::InvalidParameter(_))
        ));
        let mut opts = TranOptions::new(1e-6, 1e-3);
        opts.record_every = 0;
        assert!(matches!(
            transient(&ckt, &opts),
            Err(CircuitError::InvalidParameter(_))
        ));
        let opts = TranOptions::new(1e-6, 1e-3).with_ic(n1, f64::INFINITY);
        assert!(matches!(
            transient(&ckt, &opts),
            Err(CircuitError::InvalidParameter(_))
        ));
    }

    #[test]
    fn clean_run_report_has_no_halvings() {
        let mut ckt = Circuit::new();
        let n1 = ckt.node("n1");
        ckt.vsource(n1, 0, SourceWave::Dc(1.0));
        ckt.resistor(n1, 0, 1e3);
        let res = transient(&ckt, &TranOptions::new(1e-6, 1e-4)).unwrap();
        assert_eq!(res.report.halvings, 0);
        assert!(!res.report.escalated());
        // One OP attempt + one Newton attempt per step.
        assert_eq!(res.report.attempts, 1 + 100);
    }

    #[test]
    fn exhausted_retry_budget_fails_with_diagnostics() {
        // A nonlinearity that is NaN beyond ±0.5 V driven by a 2 V step:
        // every step fails no matter how small, so halving only burns the
        // budget. The run must terminate with a typed error, not hang.
        let mut ckt = Circuit::new();
        let n1 = ckt.node("n1");
        let n2 = ckt.node("n2");
        ckt.vsource(n1, 0, SourceWave::Dc(2.0));
        ckt.resistor(n1, n2, 1e3);
        ckt.nonlinear(
            n2,
            0,
            IvCurve::function(|v: f64| if v.abs() > 0.5 { f64::NAN } else { 1e-3 * v }),
        );
        let mut opts = TranOptions::new(1e-6, 1e-3)
            .use_ic()
            .with_step_retry_budget(8);
        opts.max_halvings = 40;
        match transient(&ckt, &opts) {
            Err(CircuitError::ConvergenceFailure { .. }) | Err(CircuitError::Numerics(_)) => {}
            other => panic!("expected typed failure, got {other:?}"),
        }
    }

    #[test]
    fn step_retry_budget_builder_and_policy_agree() {
        let via_builder = TranOptions::new(1e-6, 1e-3).with_step_retry_budget(8);
        assert_eq!(via_builder.step_retry_budget(), 8);
        let via_policy = TranOptions::new(1e-6, 1e-3).with_policy(&shil_runtime::SweepPolicy {
            step_retry_budget: 8,
            ..shil_runtime::SweepPolicy::default()
        });
        assert_eq!(via_policy.step_retry_budget(), 8);
        // Default flows from the unified policy.
        assert_eq!(
            TranOptions::new(1e-6, 1e-3).step_retry_budget(),
            shil_runtime::SweepPolicy::default().step_retry_budget
        );
    }

    #[test]
    fn zero_deadline_transient_cancels_promptly_with_diagnostics() {
        let (ckt, _top, base) = tanh_oscillator();
        let opts = base.with_budget(Budget::with_deadline(std::time::Duration::ZERO));
        let started = Instant::now();
        match transient(&ckt, &opts) {
            Err(CircuitError::Numerics(NumericsError::Cancelled { best_iterate, .. })) => {
                assert!(!best_iterate.is_empty());
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // "Bounded time": nowhere near the cost of the full 8-period run.
        assert!(started.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn pre_cancelled_token_stops_before_the_op_solve() {
        let (ckt, _top, base) = tanh_oscillator();
        let token = shil_runtime::CancelToken::new();
        token.cancel();
        let opts = base.with_budget(Budget::unlimited().with_token(token));
        match transient(&ckt, &opts) {
            Err(CircuitError::Numerics(NumericsError::Cancelled { .. })) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn unlimited_budget_changes_nothing() {
        let (ckt, top, base) = tanh_oscillator();
        let plain = transient(&ckt, &base).unwrap();
        let budgeted = transient(
            &ckt,
            &base
                .clone()
                .with_budget(Budget::with_deadline(std::time::Duration::from_secs(3600))),
        )
        .unwrap();
        assert_eq!(
            plain.node_voltage(top).unwrap(),
            budgeted.node_voltage(top).unwrap(),
            "a generous budget must not perturb the trajectory"
        );
    }

    /// The tanh negative-resistance LC oscillator used across the
    /// validation suite — exercises R, L, C and the nonlinearity.
    fn tanh_oscillator() -> (Circuit, NodeId, TranOptions) {
        let (r, l, c) = (1000.0, 10e-6, 10e-9);
        let mut ckt = Circuit::new();
        let top = ckt.node("top");
        ckt.resistor(top, 0, r);
        ckt.inductor(top, 0, l);
        ckt.capacitor(top, 0, c);
        ckt.nonlinear(top, 0, IvCurve::tanh(-1e-3, 2.0 / (r * 1e-3)));
        let f0 = 1.0 / (std::f64::consts::TAU * (l * c).sqrt());
        let period = 1.0 / f0;
        let opts = TranOptions::new(period / 150.0, 8.0 * period)
            .use_ic()
            .with_ic(top, 1e-3);
        (ckt, top, opts)
    }

    #[test]
    fn sparse_and_dense_backends_are_bit_identical() {
        let (ckt, top, base) = tanh_oscillator();
        let mut dense_opts = base.clone();
        dense_opts.solver = SolverKind::Dense;
        let mut sparse_opts = base;
        sparse_opts.solver = SolverKind::Sparse;
        let rd = transient(&ckt, &dense_opts).unwrap();
        let rs = transient(&ckt, &sparse_opts).unwrap();
        assert_eq!(rd.time, rs.time);
        assert_eq!(
            rd.node_voltage(top).unwrap(),
            rs.node_voltage(top).unwrap(),
            "sparse and dense transients diverged"
        );
        // Identical trajectories imply identical solver effort too.
        assert_eq!(rd.report.attempts, rs.report.attempts);
        assert_eq!(rd.report.factorizations, rs.report.factorizations);
        assert_eq!(rd.report.reuses, rs.report.reuses);
    }

    #[test]
    fn factorization_reuse_dominates_and_changes_nothing() {
        // The oscillator is far below `REUSE_MIN_DIM`, so force the
        // certificate on to exercise the reuse machinery itself.
        let (ckt, top, base) = tanh_oscillator();
        let base = base.with_reuse_min_dim(0);
        let with_reuse = transient(&ckt, &base).unwrap();
        assert!(
            with_reuse.report.reuses > with_reuse.report.factorizations,
            "expected reuse to dominate: {}",
            with_reuse.report
        );

        let mut no_reuse_opts = base;
        no_reuse_opts.reuse_tolerance = 0.0;
        let no_reuse = transient(&ckt, &no_reuse_opts).unwrap();
        assert_eq!(no_reuse.report.reuses, 0);
        assert!(no_reuse.report.factorizations > 0);
        // Reuse is an inexact-Newton strategy: each step still converges to
        // the same abstol, so the trajectories agree far inside the signal
        // amplitude (the slack covers per-step phase drift accumulating over
        // the run, not any per-step error).
        let va = with_reuse.node_voltage(top).unwrap();
        let vb = no_reuse.node_voltage(top).unwrap();
        for (a, b) in va.iter().zip(vb) {
            assert!((a - b).abs() < 0.02, "{a} vs {b}");
        }
    }

    #[test]
    fn auto_solver_resolution() {
        assert_eq!(SolverKind::Auto.resolve(3), SolverKind::Dense);
        assert_eq!(SolverKind::Auto.resolve(12), SolverKind::Dense);
        assert_eq!(SolverKind::Auto.resolve(13), SolverKind::Sparse);
        assert_eq!(SolverKind::Auto.resolve(33), SolverKind::Sparse);
        assert_eq!(SolverKind::Auto.resolve(384), SolverKind::Sparse);
        assert_eq!(SolverKind::Auto.resolve(385), SolverKind::Sparse);
        assert_eq!(SolverKind::Auto.resolve(10_000), SolverKind::Sparse);
        assert_eq!(SolverKind::Sparse.resolve(0), SolverKind::Dense);
        assert_eq!(SolverKind::Dense.resolve(100), SolverKind::Dense);
        assert_eq!(SolverKind::Sparse.resolve(2), SolverKind::Sparse);
    }

    #[test]
    fn unknown_ic_node_is_rejected() {
        let mut ckt = Circuit::new();
        let n1 = ckt.node("n1");
        ckt.vsource(n1, 0, SourceWave::Dc(1.0));
        ckt.resistor(n1, 0, 1e3);
        let opts = TranOptions::new(1e-6, 1e-3).with_ic(42, 1.0);
        assert!(matches!(
            transient(&ckt, &opts),
            Err(CircuitError::UnknownNode { node: 42 })
        ));
    }
}
