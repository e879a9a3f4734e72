//! Adaptive Arnold-tongue atlas engine.
//!
//! A full 2-D lock map over (injection amplitude × injection frequency) —
//! the Arnold-tongue picture of sub-harmonic injection locking — costs
//! `nx × ny` independent long transients when swept naively. This module
//! stacks three algorithmic accelerations on top of the sweep engine:
//!
//! 1. **Early termination** — every simulated cell runs through
//!    [`transient_steady`](super::transient_steady), which cuts the
//!    transient off as soon as the lock/unlock verdict is confirmed stable
//!    (see [`super::steady`] for the bounded-false-positive design).
//! 2. **Warm-start continuation** — when a cell is refined, its four
//!    children seed their initial state from the parent's final state
//!    (skipping ring-up), falling back to a cold start if the warm run
//!    fails. Children always warm from their *declared* parent — fixed by
//!    grid geometry, never by scheduling — so the map is deterministic at
//!    any thread count (see [`Wavefront`]).
//! 3. **Adaptive refinement** — the grid is first tiled with coarse
//!    superpixels (one simulation per tile, at the tile's center pixel);
//!    only tiles whose verdict differs from an adjacent tile's are split,
//!    quadtree-style, down to single pixels. Tongue interiors and the
//!    far-field are never simulated at full density; the lock/unlock
//!    boundary always is.
//!
//! The refinement invariant: after every pass the whole grid is painted,
//! and a pixel's final verdict comes either from its own simulation
//! (boundary region, painted by a size-1 cell) or from the nearest
//! simulated representative whose tile never disagreed with a neighbor.
//! Boundary pixels are therefore classified by exactly the same
//! [`classify_tail`](super::classify_tail) criterion as a dense cold
//! reference — `perf_atlas` asserts zero mismatches on them.

use std::collections::BTreeMap;
use std::sync::Mutex;

use shil_runtime::{checkpoint, Budget, CheckpointFile, CheckpointRecord, SweepPolicy};

use crate::circuit::{Circuit, NodeId};
use crate::error::CircuitError;
use crate::report::SolveReport;
use crate::wave::SourceWave;
use crate::IvCurve;

use super::checkpoint::{counters_to_report, report_to_counters};
use super::jobspec::{decode_final_voltages, encode_final_voltages};
use super::steady::{classify_tail, transient_steady, LockVerdict, SteadyOptions};
use super::sweep::{PolicySweep, SweepEngine, SweepItem, Wavefront};
use super::tran::{transient, TranOptions};

/// An Arnold-tongue atlas job over the paper's tanh negative-resistance LC
/// oscillator, described by value (serializable: every field is a scalar).
///
/// The oscillator is the validation circuit used throughout the repo: an
/// RLC tank (`r`, `l`, `c`) in parallel with a tanh negative-resistance
/// cell (`i0`, `gain`), injected through a series voltage source in the
/// nonlinearity branch. Each grid cell `(ix, iy)` simulates injection at
/// frequency `freqs[ix]` and amplitude `amps[iy]`, and classifies whether
/// the tank locks to the `n`-th sub-harmonic `f_inj / n`.
#[derive(Debug, Clone, PartialEq)]
pub struct AtlasSpec {
    /// Tank parallel resistance, ohms.
    pub r: f64,
    /// Tank inductance, henries.
    pub l: f64,
    /// Tank capacitance, farads.
    pub c: f64,
    /// Magnitude of the negative-resistance cell's saturation current,
    /// amps (the tanh cell is built with `-i0`).
    pub i0: f64,
    /// Tanh transconductance gain (1/V).
    pub gain: f64,
    /// Sub-harmonic order: the cell locks when the tank output sits at
    /// `f_inj / n`.
    pub n: u32,
    /// Injection-frequency axis: `nx` points from `f_start` to `f_stop`
    /// inclusive, Hz.
    pub f_start: f64,
    /// See `f_start`.
    pub f_stop: f64,
    /// Frequency-axis resolution (pixels).
    pub nx: usize,
    /// Injection-amplitude axis: `ny` points from `vi_start` to `vi_stop`
    /// inclusive, volts.
    pub vi_start: f64,
    /// See `vi_start`.
    pub vi_stop: f64,
    /// Amplitude-axis resolution (pixels).
    pub ny: usize,
    /// Integration steps per *reference* period (`n / f_inj`).
    pub steps_per_period: usize,
    /// Full transient horizon, in reference periods — what a cold
    /// classification integrates when no early exit fires.
    pub horizon_periods: usize,
    /// Initial coarse superpixel edge, in pixels (power of two dividing
    /// both `nx` and `ny`; 1 disables refinement → dense map).
    pub coarse: usize,
    /// Whether cells may exit before the horizon on a confirmed verdict.
    pub early_exit: bool,
    /// Whether refined children warm-start from their parent's final
    /// state.
    pub warm_start: bool,
    /// Start-up kick: initial tank voltage for cold starts, volts.
    pub startup_kick: f64,
}

impl AtlasSpec {
    /// The paper oscillator (fc ≈ 503 kHz, Q ≈ 31.6) under third
    /// sub-harmonic injection (`n = 3`, the paper's Fig. 14/15 case), on
    /// an `nx × ny` grid framing the Arnold tongue: injection frequencies
    /// within ±6 kHz of `3·fc` (the predicted span is ≈ 2.2 kHz at 30 mV
    /// and grows roughly linearly with amplitude, so the tongue fills
    /// about half the band at the top row) and amplitudes from 2 mV to
    /// 150 mV.
    pub fn paper_oscillator(nx: usize, ny: usize, coarse: usize) -> Self {
        let (r, l, c) = (1000.0f64, 10e-6f64, 10e-9f64);
        let f0 = 1.0 / (std::f64::consts::TAU * (l * c).sqrt());
        AtlasSpec {
            r,
            l,
            c,
            i0: 1e-3,
            gain: 20.0,
            n: 3,
            f_start: 3.0 * f0 - 6e3,
            f_stop: 3.0 * f0 + 6e3,
            nx,
            vi_start: 0.002,
            vi_stop: 0.15,
            ny,
            steps_per_period: 64,
            horizon_periods: 400,
            coarse,
            early_exit: true,
            warm_start: true,
            startup_kick: 0.1,
        }
    }

    /// Validates the spec into a runnable [`CompiledAtlas`].
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidRequest`] for non-positive or non-finite
    /// circuit/grid parameters, an axis with fewer than 2 points, a coarse
    /// size that is not a power of two dividing both axes, or a time grid
    /// too coarse for the lock detector.
    pub fn compile(&self) -> Result<CompiledAtlas, CircuitError> {
        let invalid = |msg: String| CircuitError::InvalidRequest(msg);
        for (name, v) in [
            ("r", self.r),
            ("l", self.l),
            ("c", self.c),
            ("i0", self.i0),
            ("gain", self.gain),
            ("f_start", self.f_start),
            ("f_stop", self.f_stop),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(invalid(format!(
                    "{name} must be positive and finite, got {v}"
                )));
            }
        }
        for (name, v) in [("vi_start", self.vi_start), ("vi_stop", self.vi_stop)] {
            if !(v >= 0.0 && v.is_finite()) {
                return Err(invalid(format!("{name} must be ≥ 0 and finite, got {v}")));
            }
        }
        if !(self.startup_kick.is_finite()) {
            return Err(invalid(format!(
                "startup_kick must be finite, got {}",
                self.startup_kick
            )));
        }
        if self.n == 0 {
            return Err(invalid("sub-harmonic order n must be ≥ 1".into()));
        }
        if self.f_stop <= self.f_start {
            return Err(invalid(format!(
                "need f_start < f_stop, got [{}, {}]",
                self.f_start, self.f_stop
            )));
        }
        if self.vi_stop <= self.vi_start {
            return Err(invalid(format!(
                "need vi_start < vi_stop, got [{}, {}]",
                self.vi_start, self.vi_stop
            )));
        }
        if self.nx < 2 || self.ny < 2 {
            return Err(invalid(format!(
                "grid must be at least 2×2, got {}×{}",
                self.nx, self.ny
            )));
        }
        if self.coarse == 0 || !self.coarse.is_power_of_two() {
            return Err(invalid(format!(
                "coarse must be a power of two, got {}",
                self.coarse
            )));
        }
        if !self.nx.is_multiple_of(self.coarse) || !self.ny.is_multiple_of(self.coarse) {
            return Err(invalid(format!(
                "coarse {} must divide both axes ({}×{})",
                self.coarse, self.nx, self.ny
            )));
        }
        if self.steps_per_period < 16 {
            return Err(invalid(format!(
                "steps_per_period must be ≥ 16 for the phasor windows, got {}",
                self.steps_per_period
            )));
        }
        if self.horizon_periods < 170 {
            // min_periods (60) + unlock streak headroom + 2×20-period
            // windows: anything shorter cannot even form a confirmed
            // verdict, so the "budget" would be fiction.
            return Err(invalid(format!(
                "horizon_periods must be ≥ 170, got {}",
                self.horizon_periods
            )));
        }
        let freqs = linspace(self.f_start, self.f_stop, self.nx);
        let amps = linspace(self.vi_start, self.vi_stop, self.ny);
        Ok(CompiledAtlas {
            spec: self.clone(),
            freqs,
            amps,
        })
    }
}

fn linspace(a: f64, b: f64, points: usize) -> Vec<f64> {
    let step = (b - a) / (points - 1) as f64;
    (0..points).map(|i| a + i as f64 * step).collect()
}

/// Per-cell simulation outcome — the value type flowing through the
/// wavefront sweep and the checkpoint payloads.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// The confirmed or tail-classified verdict.
    pub verdict: LockVerdict,
    /// The full MNA unknown vector at exit — the warm-start seed for this
    /// cell's children.
    pub final_state: Vec<f64>,
    /// Integration steps actually run.
    pub steps_run: u64,
    /// Steps the full horizon would have cost.
    pub steps_budgeted: u64,
    /// Whether the detector cut the run short.
    pub early_exit: bool,
    /// Whether the run was seeded from a parent state.
    pub warm: bool,
    /// Whether a failed warm run was salvaged by a cold restart.
    pub fell_back_cold: bool,
}

impl CellOutcome {
    /// Whether this outcome came from the exact reference protocol — cold
    /// start, full horizon, tail classification — and may therefore paint
    /// a boundary (size ≤ 2) cell. A cold-fallback run that reached the
    /// full horizon qualifies; any early exit or surviving warm start does
    /// not.
    pub fn is_exact(&self) -> bool {
        !self.early_exit && (!self.warm || self.fell_back_cold)
    }
}

/// Checkpoint payload: verdict, step counts, flags, then the exact state
/// bits — so a resumed atlas warms its children identically.
fn encode_cell(cell: &CellOutcome) -> String {
    format!(
        "{}:{}:{}:{}{}{};{}",
        cell.verdict.name(),
        cell.steps_run,
        cell.steps_budgeted,
        u8::from(cell.early_exit),
        u8::from(cell.warm),
        u8::from(cell.fell_back_cold),
        encode_final_voltages(&cell.final_state),
    )
}

fn decode_cell(payload: &str) -> Option<CellOutcome> {
    let (head, state) = payload.split_once(';')?;
    let mut parts = head.split(':');
    let verdict = LockVerdict::parse(parts.next()?)?;
    let steps_run = parts.next()?.parse().ok()?;
    let steps_budgeted = parts.next()?.parse().ok()?;
    let flags = parts.next()?.as_bytes();
    if parts.next().is_some() || flags.len() != 3 || flags.iter().any(|b| !matches!(b, b'0' | b'1'))
    {
        return None;
    }
    Some(CellOutcome {
        verdict,
        final_state: decode_final_voltages(state)?,
        steps_run,
        steps_budgeted,
        early_exit: flags[0] == b'1',
        warm: flags[1] == b'1',
        fell_back_cold: flags[2] == b'1',
    })
}

/// Execution counters of an adaptive atlas run, for the bench JSON and the
/// serve job footer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AtlasStats {
    /// Cells actually simulated (≤ `naive_items`).
    pub items_simulated: usize,
    /// Cells a naive dense sweep would simulate (`nx × ny`).
    pub naive_items: usize,
    /// Integration steps spent across simulated cells.
    pub steps_run: u64,
    /// Steps the simulated cells would have cost without early exit.
    pub steps_budgeted: u64,
    /// Steps the naive dense cold sweep costs
    /// (`nx × ny × horizon_periods × steps_per_period`).
    pub naive_steps: u64,
    /// Simulated cells whose detector fired before the horizon.
    pub early_exits: usize,
    /// Simulated cells that ran warm-started.
    pub warm_starts: usize,
    /// Warm-started cells that completed without a cold fallback.
    pub warm_start_hits: usize,
    /// Warm runs salvaged by a cold restart.
    pub cold_fallbacks: usize,
    /// Cells restored from a checkpoint instead of simulated.
    pub restored: usize,
    /// Cells whose simulation failed outright (painted unlocked).
    pub errors: usize,
    /// Refinement passes executed (coarse → … → single-pixel).
    pub passes: usize,
}

/// The finished (or cancelled-partial) Arnold-tongue map.
#[derive(Debug, Clone)]
pub struct AtlasMap {
    /// Frequency-axis resolution.
    pub nx: usize,
    /// Amplitude-axis resolution.
    pub ny: usize,
    /// Injection frequencies, Hz (length `nx`).
    pub freqs: Vec<f64>,
    /// Injection amplitudes, volts (length `ny`).
    pub amps: Vec<f64>,
    /// Per-pixel verdicts, row-major `iy * nx + ix`.
    pub verdicts: Vec<LockVerdict>,
    /// Whether the pixel was itself simulated (vs painted from a coarser
    /// representative).
    pub simulated: Vec<bool>,
    /// Edge length (pixels) of the cell that painted each pixel: 1 marks
    /// the fully-refined boundary region whose classifications must match
    /// a dense reference.
    pub cell_size: Vec<u32>,
    /// Execution counters.
    pub stats: AtlasStats,
    /// Solver effort folded over all simulated cells (deterministic minus
    /// wall time).
    pub aggregate: SolveReport,
    /// Whether the budget tripped before the map was fully refined (the
    /// map is still fully painted, at the resolution reached).
    pub cancelled: bool,
}

impl AtlasMap {
    /// Mismatch count against a dense reference map over the
    /// fully-refined (size-1) pixels — the acceptance oracle.
    ///
    /// # Panics
    ///
    /// Panics if `reference` is not `nx × ny`.
    pub fn boundary_mismatches(&self, reference: &[LockVerdict]) -> usize {
        assert_eq!(reference.len(), self.nx * self.ny, "reference grid shape");
        self.cell_size
            .iter()
            .zip(&self.verdicts)
            .zip(reference)
            .filter(|((&size, got), want)| size == 1 && got != want)
            .count()
    }

    /// Mismatch count against a dense reference over *all* pixels.
    ///
    /// Not gated yet. Interior pixels are painted from their tile's
    /// representative, so a tongue tip thinner than a coarse tile is lost:
    /// `results/BENCH_atlas.json` records 573 of 16384 pixels wrong at
    /// 128×128 (ROADMAP item 1 makes this count the gated oracle).
    pub fn total_mismatches(&self, reference: &[LockVerdict]) -> usize {
        assert_eq!(reference.len(), self.nx * self.ny, "reference grid shape");
        self.verdicts
            .iter()
            .zip(reference)
            .filter(|(got, want)| got != want)
            .count()
    }

    /// Number of pixels classified locked.
    pub fn locked_count(&self) -> usize {
        self.verdicts.iter().filter(|v| v.is_locked()).count()
    }
}

/// A quadtree tile: anchored at pixel `(x0, y0)`, `size` pixels on edge.
#[derive(Debug, Clone, Copy)]
struct Tile {
    x0: usize,
    y0: usize,
    size: usize,
}

impl Tile {
    /// The pixel whose simulation represents the tile (its center; the
    /// pixel itself at size 1).
    fn rep(&self) -> (usize, usize) {
        (self.x0 + self.size / 2, self.y0 + self.size / 2)
    }
}

/// A validated, runnable atlas.
#[derive(Debug, Clone)]
pub struct CompiledAtlas {
    spec: AtlasSpec,
    freqs: Vec<f64>,
    amps: Vec<f64>,
}

impl CompiledAtlas {
    /// The spec this atlas was compiled from.
    pub fn spec(&self) -> &AtlasSpec {
        &self.spec
    }

    /// Injection frequencies, Hz.
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Injection amplitudes, volts.
    pub fn amps(&self) -> &[f64] {
        &self.amps
    }

    /// Total pixels (`nx × ny`).
    pub fn pixels(&self) -> usize {
        self.spec.nx * self.spec.ny
    }

    /// Checkpoint item space: twice the pixel count. Index `p` holds a
    /// pixel's accelerated (coarse-pass) outcome; index `pixels() + p`
    /// holds its exact-protocol outcome from a boundary (size ≤ 2) pass.
    /// The two must stay separate: a pixel can be simulated under both
    /// protocols in one run (a coarse representative that coincides with a
    /// boundary pixel re-runs cold), and resuming replays each pass from
    /// the record that pass would have produced.
    pub fn checkpoint_slots(&self) -> usize {
        2 * self.pixels()
    }

    /// Digest binding a checkpoint to the exact atlas inputs. Any changed
    /// field — circuit, axes, resolution, horizon, acceleration switches —
    /// yields a different fingerprint.
    pub fn fingerprint(&self) -> String {
        let s = &self.spec;
        let inputs = [
            s.r,
            s.l,
            s.c,
            s.i0,
            s.gain,
            s.n as f64,
            s.f_start,
            s.f_stop,
            s.nx as f64,
            s.vi_start,
            s.vi_stop,
            s.ny as f64,
            s.steps_per_period as f64,
            s.horizon_periods as f64,
            s.coarse as f64,
            u8::from(s.early_exit) as f64,
            u8::from(s.warm_start) as f64,
            s.startup_kick,
        ];
        checkpoint::fingerprint("shil-circuit/atlas", &inputs)
    }

    /// The oscillator with injection at `(f_inj, vi)`: returns the circuit
    /// and the tank node.
    fn build_cell(&self, f_inj: f64, vi: f64) -> (Circuit, NodeId) {
        let s = &self.spec;
        let mut ckt = Circuit::new();
        let top = ckt.node("top");
        let nl = ckt.node("nl");
        ckt.resistor(top, Circuit::GROUND, s.r);
        ckt.inductor(top, Circuit::GROUND, s.l);
        ckt.capacitor(top, Circuit::GROUND, s.c);
        ckt.vsource(top, nl, SourceWave::sine(2.0 * vi, f_inj, 0.0));
        ckt.nonlinear(nl, Circuit::GROUND, IvCurve::tanh(-s.i0, s.gain));
        (ckt, top)
    }

    /// Reference period and time grid for a cell at `f_inj`.
    fn cell_grid(&self, f_inj: f64) -> (f64, f64, f64) {
        let period = self.spec.n as f64 / f_inj;
        let dt = period / self.spec.steps_per_period as f64;
        let t_stop = self.spec.horizon_periods as f64 * period;
        (period, dt, t_stop)
    }

    fn steady_options(&self, f_inj: f64) -> SteadyOptions {
        SteadyOptions::for_subharmonic(f_inj / self.spec.n as f64)
    }

    /// Simulates one cell: warm-started when a seed is given (falling back
    /// to a cold start on failure), cold otherwise.
    fn run_cell(
        &self,
        ix: usize,
        iy: usize,
        budget: &Budget,
        policy: &SweepPolicy,
        seed: Option<&CellOutcome>,
        accel: bool,
    ) -> Result<(CellOutcome, SolveReport), CircuitError> {
        let (f_inj, vi) = (self.freqs[ix], self.amps[iy]);
        let (_, dt, t_stop) = self.cell_grid(f_inj);
        let (ckt, top) = self.build_cell(f_inj, vi);
        let sopts = self.steady_options(f_inj);
        let base = TranOptions::new(dt, t_stop)
            .with_budget(budget.clone())
            .with_step_retry_budget(policy.step_retry_budget);
        let cold = || base.clone().use_ic().with_ic(top, self.spec.startup_kick);

        let seed = seed.filter(|_| accel && self.spec.warm_start);
        let mut warm = false;
        let mut fell_back_cold = false;
        let run = if let Some(parent) = seed {
            warm = true;
            shil_observe::incr("shil_atlas_warm_starts_total");
            // The warm state replaces the start-up kick entirely: the
            // parent's converged orbit *is* the bring-up.
            let opts = base
                .clone()
                .use_ic()
                .with_warm_start(parent.final_state.clone());
            match self.run_steady_or_full(&ckt, &opts, top, &sopts, accel) {
                Ok(run) => run,
                Err(_) if budget.cancelled().is_none() => {
                    // Continuation failed to converge — cold restart, as
                    // promised. (A tripped budget is not a convergence
                    // failure; let it surface.)
                    fell_back_cold = true;
                    shil_observe::incr("shil_atlas_cold_fallbacks_total");
                    self.run_steady_or_full(&ckt, &cold(), top, &sopts, accel)?
                }
                Err(e) => return Err(e),
            }
        } else {
            self.run_steady_or_full(&ckt, &cold(), top, &sopts, accel)?
        };
        let (verdict, result, steps_run, steps_budgeted, early_exit) = run;
        let final_state = result
            .final_unknowns()
            .ok_or_else(|| CircuitError::InvalidRequest("transient recorded no samples".into()))?;
        let report = result.report;
        Ok((
            CellOutcome {
                verdict,
                final_state,
                steps_run: steps_run as u64,
                steps_budgeted: steps_budgeted as u64,
                early_exit,
                warm,
                fell_back_cold,
            },
            report,
        ))
    }

    /// The early-exit run, or — with `early_exit` disabled — the plain
    /// full-horizon transient classified by its tail.
    #[allow(clippy::type_complexity)]
    fn run_steady_or_full(
        &self,
        ckt: &Circuit,
        opts: &TranOptions,
        top: NodeId,
        sopts: &SteadyOptions,
        accel: bool,
    ) -> Result<(LockVerdict, crate::trace::TranResult, usize, usize, bool), CircuitError> {
        if accel && self.spec.early_exit {
            let run = transient_steady(ckt, opts, top, sopts)?;
            Ok((
                run.verdict,
                run.result,
                run.steps_run,
                run.steps_budgeted,
                run.early_exit,
            ))
        } else {
            let steps = (opts.t_stop / opts.dt).round() as usize;
            let mut opts = opts.clone();
            opts.t_record_start = 0.0;
            let result = transient(ckt, &opts)?;
            let col = result
                .node_voltage(top)
                .expect("tank node is probed")
                .to_vec();
            let verdict = classify_tail(&result.time, &col, sopts);
            Ok((verdict, result, steps, steps, false))
        }
    }

    /// The cold-start dense reference: every pixel simulated over the full
    /// horizon (no early exit, no warm starts, no refinement) and
    /// classified by the same tail criterion as the adaptive path. Returns
    /// the row-major verdict grid plus the error count (failed pixels
    /// classify unlocked, as in the adaptive path).
    pub fn run_dense_reference(
        &self,
        engine: &SweepEngine,
        policy: &SweepPolicy,
        budget: &Budget,
    ) -> (Vec<LockVerdict>, usize) {
        let pixels: Vec<usize> = (0..self.pixels()).collect();
        let sweep = engine.run_with_policy(&pixels, policy, budget, |_, &p, item_budget| {
            let (ix, iy) = (p % self.spec.nx, p / self.spec.nx);
            let (f_inj, vi) = (self.freqs[ix], self.amps[iy]);
            let (period, dt, t_stop) = self.cell_grid(f_inj);
            let (ckt, top) = self.build_cell(f_inj, vi);
            let sopts = self.steady_options(f_inj);
            // Record only the tail the classifier reads — the dense
            // reference would otherwise hold gigabytes of trace. Two
            // extra periods of margin keep the classifier's span check
            // away from float-roundoff territory; the verdict itself
            // only reads the final `tail` seconds, so the margin cannot
            // change it.
            let tail = 2.0
                * super::steady::DEFAULT_WINDOWS
                    .0
                    .max(super::steady::DEFAULT_WINDOWS.1) as f64
                * period;
            let opts = TranOptions::new(dt, t_stop)
                .use_ic()
                .with_ic(top, self.spec.startup_kick)
                .with_budget(item_budget.clone())
                .with_step_retry_budget(policy.step_retry_budget)
                .record_after(t_stop - tail - 2.0 * period);
            let result = transient(&ckt, &opts)?;
            let col = result.node_voltage(top).expect("tank node").to_vec();
            let verdict = classify_tail(&result.time, &col, &sopts);
            Ok((verdict, result.report))
        });
        let errors = sweep
            .items
            .iter()
            .filter(|item| !item.outcome.is_success())
            .count();
        let verdicts = sweep
            .items
            .into_iter()
            .map(|item| item.value.unwrap_or(LockVerdict::Unlocked))
            .collect();
        (verdicts, errors)
    }

    /// Runs the adaptive atlas on `engine` under `policy`/`budget`,
    /// optionally checkpointed (one record per simulated pixel, restored
    /// bit-identically — including warm-start seeds — on resume).
    ///
    /// `on_pass` fires after each refinement pass with the pass's painted
    /// map-in-progress; serve streams partial maps from it.
    pub fn run(
        &self,
        engine: &SweepEngine,
        policy: &SweepPolicy,
        budget: &Budget,
        checkpoint: Option<&CheckpointFile>,
        mut on_pass: Option<&mut (dyn FnMut(&AtlasMap) + Send)>,
    ) -> AtlasMap {
        let s = &self.spec;
        let (nx, ny) = (s.nx, s.ny);
        let pixel = |x: usize, y: usize| y * nx + x;
        let _span = shil_observe::span("shil_atlas");

        // Painted state, updated after every pass.
        let mut verdicts: Vec<LockVerdict> = vec![LockVerdict::Unlocked; nx * ny];
        let mut painted_size: Vec<u32> = vec![0; nx * ny];
        let mut outcomes: BTreeMap<usize, SweepItem<CellOutcome>> = BTreeMap::new();
        let mut stats = AtlasStats {
            naive_items: nx * ny,
            naive_steps: (nx * ny * s.horizon_periods * s.steps_per_period) as u64,
            ..AtlasStats::default()
        };
        let mut aggregate = SolveReport::new();
        let mut cancelled = false;

        // Pass 0: the coarse tiling, cold. Later passes: children of
        // boundary-straddling tiles, warm from their parent's state.
        let mut tiles: Vec<(Tile, Option<usize>)> = (0..ny / s.coarse)
            .flat_map(|ty| {
                (0..nx / s.coarse).map(move |tx| {
                    (
                        Tile {
                            x0: tx * s.coarse,
                            y0: ty * s.coarse,
                            size: s.coarse,
                        },
                        None,
                    )
                })
            })
            .collect();

        while !tiles.is_empty() {
            stats.passes += 1;
            shil_observe::incr("shil_atlas_passes_total");
            let size = tiles[0].0.size;

            // Acceleration (warm starts AND early exit) stops above the
            // finest two levels: a size-2 tile's outcome is reused
            // verbatim by the size-1 child whose pixel coincides with
            // its representative, and size-1 pixels are the boundary
            // cells whose classifications must match the cold-start
            // dense reference. Running sizes ≤ 2 with the exact
            // reference protocol — cold start, full horizon, tail
            // classification — makes their trajectories and verdicts
            // *identical* to the reference's by construction. This
            // matters physically: just outside the tongue the dynamics
            // are phase slips separated by long near-lock intervals, so
            // any finite-time verdict is time-dependent there and an
            // early exit would legitimately disagree with the
            // full-horizon tail. Interior tiles keep both
            // optimizations; the boundary pays full price for exactness.
            let accel_pass = size > 2;
            let warm_pass = accel_pass && s.warm_start;

            // The pass's wavefront: level 0 restores the (already
            // simulated) parent pixels so their states can seed level 1 —
            // the tiles of this pass.
            let mut parent_pixels: Vec<usize> = if warm_pass {
                tiles.iter().filter_map(|(_, parent)| *parent).collect()
            } else {
                Vec::new()
            };
            parent_pixels.sort_unstable();
            parent_pixels.dedup();
            let parent_pos: BTreeMap<usize, usize> = parent_pixels
                .iter()
                .enumerate()
                .map(|(pos, &p)| (p, pos))
                .collect();
            let np = parent_pixels.len();
            let mut items: Vec<usize> = parent_pixels.clone();
            let mut parents: Vec<Option<usize>> = vec![None; np];
            for (tile, parent) in &tiles {
                let (rx, ry) = tile.rep();
                items.push(pixel(rx, ry));
                parents.push(parent.and_then(|p| parent_pos.get(&p).copied()));
            }
            let front = Wavefront {
                levels: if np > 0 {
                    vec![(0..np).collect(), (np..items.len()).collect()]
                } else {
                    vec![(0..items.len()).collect()]
                },
                parents,
            };

            let outcomes_ref = &outcomes;
            // Boundary passes only accept outcomes the exact protocol
            // produced: a coarse representative that happens to coincide
            // with a size ≤ 2 pixel ran warm and/or early-exited, and
            // serving that verdict here would leak an accelerated
            // classification into the region whose verdicts must match
            // the dense reference bit for bit. Such pixels re-run cold.
            let usable = |item: &SweepItem<CellOutcome>| {
                accel_pass || item.value.as_ref().is_some_and(CellOutcome::is_exact)
            };
            // Each protocol checkpoints in its own index space (see
            // `checkpoint_slots`), so a resumed run replays every pass
            // from the record that pass would have written live.
            let ck_offset = if accel_pass { 0 } else { nx * ny };
            let restore = |i: usize| -> Option<SweepItem<CellOutcome>> {
                let p = items[i];
                // A pixel simulated in an earlier pass (every level-0
                // parent, plus the child whose representative coincides
                // with its parent's at size 1).
                if let Some(done) = outcomes_ref.get(&p) {
                    if usable(done) {
                        return Some(done.clone());
                    }
                    // Unusable (accelerated) store hit: fall through to the
                    // checkpoint — this pass's index space may hold the
                    // exact-protocol record from an earlier run.
                }
                let rec = checkpoint?.restored().get(&(ck_offset + p))?;
                if !rec.outcome.is_success() {
                    return None;
                }
                let value = decode_cell(&rec.payload)?;
                let item = SweepItem {
                    outcome: rec.outcome,
                    tries: rec.tries,
                    value: Some(value),
                    report: counters_to_report(&rec.counters),
                    error: None,
                    restored: true,
                };
                usable(&item).then_some(item)
            };
            let items_ref = &items;
            let append_lock = Mutex::new(());
            let on_item = |i: usize, item: &SweepItem<CellOutcome>| {
                shil_observe::incr("shil_atlas_cells_simulated_total");
                let Some(cp) = checkpoint else { return };
                let record = CheckpointRecord {
                    index: ck_offset + items_ref[i],
                    outcome: item.outcome,
                    tries: item.tries,
                    wall_s: 0.0,
                    counters: if item.outcome.is_success() {
                        report_to_counters(&item.report)
                    } else {
                        BTreeMap::new()
                    },
                    payload: match (&item.value, &item.error) {
                        (Some(v), _) => encode_cell(v),
                        (None, Some(e)) => e.clone(),
                        _ => String::new(),
                    },
                };
                let _guard = append_lock.lock().expect("append lock");
                if cp.append(&record).is_err() {
                    shil_observe::incr("shil_sweep_checkpoint_write_failures_total");
                }
            };

            let sweep: PolicySweep<CellOutcome> = engine.run_wavefront(
                &items,
                &front,
                policy,
                budget,
                restore,
                |_, &p, item_budget, seed| {
                    let (ix, iy) = (p % nx, p / nx);
                    self.run_cell(ix, iy, item_budget, policy, seed, accel_pass)
                },
                Some(&on_item),
            );
            cancelled = sweep.cancelled;
            aggregate.absorb(&sweep.aggregate);

            // Fold the pass into the painted map and the pixel store. A
            // stored outcome survives unless a boundary pass re-ran the
            // pixel under the exact protocol (the stored one was
            // accelerated), in which case the exact outcome replaces it.
            for (&p, item) in items.iter().zip(sweep.items) {
                if outcomes.get(&p).is_some_and(&usable) {
                    continue;
                }
                if let Some(cell) = &item.value {
                    stats.items_simulated += 1;
                    stats.steps_run += cell.steps_run;
                    stats.steps_budgeted += cell.steps_budgeted;
                    stats.early_exits += usize::from(cell.early_exit);
                    stats.warm_starts += usize::from(cell.warm);
                    stats.warm_start_hits += usize::from(cell.warm && !cell.fell_back_cold);
                    stats.cold_fallbacks += usize::from(cell.fell_back_cold);
                    stats.restored += usize::from(item.restored);
                } else {
                    stats.errors += usize::from(!item.outcome.is_success() && !cancelled);
                }
                outcomes.insert(p, item);
            }
            for (tile, _) in &tiles {
                let rep = {
                    let (rx, ry) = tile.rep();
                    pixel(rx, ry)
                };
                let verdict = outcomes
                    .get(&rep)
                    .and_then(|item| item.value.as_ref())
                    .map(|cell| cell.verdict)
                    .unwrap_or(LockVerdict::Unlocked);
                for y in tile.y0..tile.y0 + tile.size {
                    for x in tile.x0..tile.x0 + tile.size {
                        verdicts[pixel(x, y)] = verdict;
                        painted_size[pixel(x, y)] = tile.size as u32;
                    }
                }
            }

            if let Some(cb) = on_pass.as_deref_mut() {
                cb(&self.snapshot(
                    &verdicts,
                    &painted_size,
                    &outcomes,
                    stats,
                    &aggregate,
                    cancelled,
                ));
            }
            if cancelled || size == 1 {
                break;
            }

            // Refinement: a tile splits iff any pixel adjacent to its
            // boundary disagrees with its verdict — the tile straddles the
            // lock/unlock edge at the current resolution.
            let straddles = |tile: &Tile| -> bool {
                let v = verdicts[pixel(tile.rep().0, tile.rep().1)];
                let (x0, y0, s1) = (tile.x0, tile.y0, tile.size);
                let mut differs = false;
                for y in y0..y0 + s1 {
                    if x0 > 0 {
                        differs |= verdicts[pixel(x0 - 1, y)] != v;
                    }
                    if x0 + s1 < nx {
                        differs |= verdicts[pixel(x0 + s1, y)] != v;
                    }
                }
                for x in x0..x0 + s1 {
                    if y0 > 0 {
                        differs |= verdicts[pixel(x, y0 - 1)] != v;
                    }
                    if y0 + s1 < ny {
                        differs |= verdicts[pixel(x, y0 + s1)] != v;
                    }
                }
                differs
            };
            let half = size / 2;
            tiles = tiles
                .iter()
                .filter(|(tile, _)| straddles(tile))
                .flat_map(|(tile, _)| {
                    let parent = pixel(tile.rep().0, tile.rep().1);
                    [(0, 0), (half, 0), (0, half), (half, half)].map(move |(dx, dy)| {
                        (
                            Tile {
                                x0: tile.x0 + dx,
                                y0: tile.y0 + dy,
                                size: half,
                            },
                            Some(parent),
                        )
                    })
                })
                .collect();
        }

        shil_observe::counter_add("shil_atlas_steps_saved_total", {
            stats.naive_steps.saturating_sub(stats.steps_run)
        });
        self.snapshot(
            &verdicts,
            &painted_size,
            &outcomes,
            stats,
            &aggregate,
            cancelled,
        )
    }

    fn snapshot(
        &self,
        verdicts: &[LockVerdict],
        painted_size: &[u32],
        outcomes: &BTreeMap<usize, SweepItem<CellOutcome>>,
        stats: AtlasStats,
        aggregate: &SolveReport,
        cancelled: bool,
    ) -> AtlasMap {
        let simulated = (0..verdicts.len())
            .map(|p| outcomes.contains_key(&p))
            .collect();
        AtlasMap {
            nx: self.spec.nx,
            ny: self.spec.ny,
            freqs: self.freqs.clone(),
            amps: self.amps.clone(),
            verdicts: verdicts.to_vec(),
            simulated,
            cell_size: painted_size.to_vec(),
            stats,
            aggregate: aggregate.clone(),
            cancelled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shil_runtime::ItemOutcome;

    fn tiny_spec() -> AtlasSpec {
        let mut s = AtlasSpec::paper_oscillator(8, 8, 4);
        s.steps_per_period = 48;
        s.horizon_periods = 240;
        s
    }

    /// Large enough (coarse 8) for a size-4 pass, which is where warm
    /// starts engage.
    fn warm_spec() -> AtlasSpec {
        let mut s = AtlasSpec::paper_oscillator(16, 16, 8);
        s.steps_per_period = 48;
        s.horizon_periods = 240;
        s
    }

    #[test]
    fn compile_rejects_bad_specs() {
        let mut s = tiny_spec();
        s.coarse = 3;
        assert!(s.compile().is_err());
        let mut s = tiny_spec();
        s.coarse = 16; // does not divide 8? 16 > 8, 8 % 16 != 0
        assert!(s.compile().is_err());
        let mut s = tiny_spec();
        s.f_stop = s.f_start;
        assert!(s.compile().is_err());
        let mut s = tiny_spec();
        s.n = 0;
        assert!(s.compile().is_err());
        let mut s = tiny_spec();
        s.horizon_periods = 10;
        assert!(s.compile().is_err());
        assert!(tiny_spec().compile().is_ok());
    }

    #[test]
    fn fingerprint_binds_acceleration_switches() {
        let base = tiny_spec().compile().unwrap().fingerprint();
        let mut s = tiny_spec();
        s.early_exit = false;
        assert_ne!(s.compile().unwrap().fingerprint(), base);
        let mut s = tiny_spec();
        s.warm_start = false;
        assert_ne!(s.compile().unwrap().fingerprint(), base);
        let mut s = tiny_spec();
        s.coarse = 2;
        assert_ne!(s.compile().unwrap().fingerprint(), base);
        assert_eq!(tiny_spec().compile().unwrap().fingerprint(), base);
    }

    #[test]
    fn cell_payloads_round_trip() {
        let cell = CellOutcome {
            verdict: LockVerdict::Locked,
            final_state: vec![1.0, -0.5, 2.5e-7, -0.0],
            steps_run: 1234,
            steps_budgeted: 25600,
            early_exit: true,
            warm: true,
            fell_back_cold: false,
        };
        let decoded = decode_cell(&encode_cell(&cell)).unwrap();
        assert_eq!(decoded, cell);
        assert!(decode_cell("junk").is_none());
        assert!(decode_cell("locked:1:2:999;deadbeef").is_none());
    }

    #[test]
    fn adaptive_map_paints_every_pixel_and_finds_the_tongue() {
        let atlas = tiny_spec().compile().unwrap();
        let map = atlas.run(
            &SweepEngine::new(Some(4)),
            &SweepPolicy::default(),
            &Budget::unlimited(),
            None,
            None,
        );
        assert_eq!(map.verdicts.len(), 64);
        assert!(map.cell_size.iter().all(|&s| s > 0), "unpainted pixels");
        assert!(!map.cancelled);
        assert_eq!(map.stats.errors, 0);
        // The tongue is inside the frame: strong near-center injection
        // locks, the weak far-detuned corners don't.
        assert!(map.locked_count() > 0, "no locked cells at all");
        assert!(map.locked_count() < 64, "everything locked");
        // Max amplitude at the frequency nearest the tongue center.
        let center = map.verdicts[(8 - 1) * 8 + 3];
        assert_eq!(center, LockVerdict::Locked);
        // The weak-injection far-detuned corners must not lock.
        assert_eq!(map.verdicts[0], LockVerdict::Unlocked);
        assert_eq!(map.verdicts[7], LockVerdict::Unlocked);
        // Refinement must have saved work vs the naive grid.
        assert!(map.stats.items_simulated < map.stats.naive_items);
        assert!(map.stats.steps_run < map.stats.naive_steps);
    }

    #[test]
    fn warm_starts_engage_above_the_boundary_levels() {
        let atlas = warm_spec().compile().unwrap();
        let map = atlas.run(
            &SweepEngine::new(Some(4)),
            &SweepPolicy::default(),
            &Budget::unlimited(),
            None,
            None,
        );
        assert_eq!(map.stats.errors, 0);
        assert!(map.stats.warm_starts > 0, "size-4 pass never warm-started");
        assert!(map.stats.warm_start_hits <= map.stats.warm_starts);
        assert!(map.locked_count() > 0);
    }

    #[test]
    fn adaptive_map_is_thread_count_invariant() {
        let atlas = tiny_spec().compile().unwrap();
        let run = |threads| {
            atlas.run(
                &SweepEngine::new(Some(threads)),
                &SweepPolicy::default(),
                &Budget::unlimited(),
                None,
                None,
            )
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.verdicts, b.verdicts);
        assert_eq!(a.cell_size, b.cell_size);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.aggregate.attempts, b.aggregate.attempts);
        assert_eq!(a.aggregate.factorizations, b.aggregate.factorizations);
    }

    #[test]
    fn checkpoint_resume_restores_the_same_map() {
        let dir = std::env::temp_dir().join(format!(
            "shil_atlas_ckpt_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atlas.ckpt");
        let _ = std::fs::remove_file(&path);

        let atlas = tiny_spec().compile().unwrap();
        let engine = SweepEngine::new(Some(2));
        let policy = SweepPolicy::default();
        let cp =
            CheckpointFile::open(&path, &atlas.fingerprint(), atlas.checkpoint_slots()).unwrap();
        let first = atlas.run(&engine, &policy, &Budget::unlimited(), Some(&cp), None);
        drop(cp);

        let cp =
            CheckpointFile::open(&path, &atlas.fingerprint(), atlas.checkpoint_slots()).unwrap();
        assert!(!cp.restored().is_empty(), "no records restored");
        let resumed = atlas.run(&engine, &policy, &Budget::unlimited(), Some(&cp), None);
        assert_eq!(first.verdicts, resumed.verdicts);
        assert_eq!(first.cell_size, resumed.cell_size);
        assert_eq!(resumed.stats.restored, resumed.stats.items_simulated);
        // Restored efforts fold in exactly.
        assert_eq!(
            first.aggregate.factorizations,
            resumed.aggregate.factorizations
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn dense_reference_agrees_on_refined_pixels() {
        let atlas = tiny_spec().compile().unwrap();
        let engine = SweepEngine::new(Some(4));
        let policy = SweepPolicy::default();
        let map = atlas.run(&engine, &policy, &Budget::unlimited(), None, None);
        let (reference, errors) = atlas.run_dense_reference(&engine, &policy, &Budget::unlimited());
        assert_eq!(errors, 0);
        assert_eq!(
            map.boundary_mismatches(&reference),
            0,
            "refined-pixel classifications diverged from the dense reference"
        );
    }

    #[test]
    fn failed_cells_paint_unlocked_not_poison() {
        // A zero budget cancels immediately: the map must still come back
        // fully painted with the cancelled flag set.
        let atlas = tiny_spec().compile().unwrap();
        let budget = Budget::with_deadline(std::time::Duration::ZERO);
        let map = atlas.run(
            &SweepEngine::serial(),
            &SweepPolicy::default(),
            &budget,
            None,
            None,
        );
        assert!(map.cancelled);
        assert!(map.cell_size.iter().all(|&s| s > 0));
        assert_eq!(map.stats.items_simulated, 0);
        let _ = ItemOutcome::Cancelled;
    }
}
