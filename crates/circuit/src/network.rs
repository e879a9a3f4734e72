//! Coupled-oscillator networks: build N mutually coupled LC oscillators as
//! one MNA system and classify their collective locking behavior.
//!
//! The paper analyses *one* oscillator under sub-harmonic injection; the
//! natural extension (and the largest MNA systems in the workspace) is a
//! *network* of N tanks pulling on each other — the
//! metronomes-on-a-moving-platform experiment in circuit form. This module
//! provides:
//!
//! - [`NetworkSpec`] — a programmatic builder: N `−tanh` negative-resistance
//!   LC oscillators, optionally detuned per-oscillator, wired by a
//!   [`Topology`] (chain, ring, star, all-to-all) with a pluggable
//!   [`Coupling`] element (resistive, capacitive, or mutual-inductance via
//!   [`crate::Circuit::mutual`]). `build()` yields a [`CoupledNetwork`]
//!   holding the assembled [`crate::Circuit`] plus per-oscillator probe
//!   nodes, so every existing analysis (transient, AC, sweeps, the serve
//!   layer) applies unchanged.
//! - [`probe_network_lock`] — network-level lock analysis over a transient
//!   result: per-oscillator phase extraction (windowed, against the network
//!   consensus frequency), pairwise lock classification by relative-phase
//!   drift, and a mutual-SHIL verdict for the network as a whole.
//!
//! Netlist-driven networks get the same treatment: build the circuit from a
//! netlist (the `.subckt` + `K` cards in [`crate::netlist`] express coupled
//! tanks directly), resolve the probe nodes by name, and hand both to
//! [`probe_network_lock`].
//!
//! Observability: builders and analyses record under `shil_network_*`
//! (span histograms `shil_network_build_seconds`,
//! `shil_network_tran_seconds`, `shil_network_lock_seconds`; gauges
//! `shil_network_oscillators`, `shil_network_locked_fraction` and
//! per-oscillator `shil_network_osc<i>_locked`; counters
//! `shil_network_couplings_total`, `shil_network_lock_analyses_total`).

use std::collections::HashMap;
use std::sync::Mutex;

use crate::analysis::{transient, TranOptions};
use crate::circuit::{Circuit, DeviceId, NodeId};
use crate::error::CircuitError;
use crate::iv::IvCurve;
use crate::trace::TranResult;
use shil_numerics::angle_diff;
use shil_waveform::lock::{lock_analysis, LockOptions};
use shil_waveform::measure::estimate_frequency;
use shil_waveform::Sampled;

/// How the oscillators are wired together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Open chain: oscillator `i` couples to `i+1`.
    Chain,
    /// Closed chain: a chain plus the wrap-around edge `(n−1, 0)`.
    Ring,
    /// Hub-and-spoke: oscillator 0 couples to every other oscillator.
    Star,
    /// Complete graph: every pair couples.
    AllToAll,
}

impl Topology {
    /// The coupled index pairs for a network of `n` oscillators.
    ///
    /// Pairs are unordered and listed once; a 2-oscillator ring degenerates
    /// to the single chain edge rather than a doubled one.
    pub fn pairs(self, n: usize) -> Vec<(usize, usize)> {
        match self {
            Topology::Chain => (1..n).map(|i| (i - 1, i)).collect(),
            Topology::Ring => {
                let mut p: Vec<_> = (1..n).map(|i| (i - 1, i)).collect();
                if n > 2 {
                    p.push((0, n - 1));
                }
                p
            }
            Topology::Star => (1..n).map(|i| (0, i)).collect(),
            Topology::AllToAll => {
                let mut p = Vec::with_capacity(n * (n - 1) / 2);
                for a in 0..n {
                    for b in (a + 1)..n {
                        p.push((a, b));
                    }
                }
                p
            }
        }
    }

    /// Stable lowercase name (used by the CLI, serve jobs and manifests).
    pub fn name(self) -> &'static str {
        match self {
            Topology::Chain => "chain",
            Topology::Ring => "ring",
            Topology::Star => "star",
            Topology::AllToAll => "all-to-all",
        }
    }

    /// Parses the names produced by [`Topology::name`].
    pub fn parse(s: &str) -> Option<Topology> {
        match s.trim().to_ascii_lowercase().as_str() {
            "chain" => Some(Topology::Chain),
            "ring" => Some(Topology::Ring),
            "star" => Some(Topology::Star),
            "all-to-all" | "alltoall" | "full" => Some(Topology::AllToAll),
            _ => None,
        }
    }
}

/// The two-terminal element placed on each coupled pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Coupling {
    /// Resistor of `ohms` between the two tank nodes. Dissipative;
    /// stronger coupling = smaller resistance.
    Resistive {
        /// Coupling resistance in ohms.
        ohms: f64,
    },
    /// Capacitor of `farads` between the two tank nodes. Reactive;
    /// stronger coupling = larger capacitance.
    Capacitive {
        /// Coupling capacitance in farads.
        farads: f64,
    },
    /// Mutual inductance `M = k·√(L_a·L_b)` between the two tank
    /// inductors (no extra nodes or unknowns; see
    /// [`crate::Circuit::mutual`]).
    MutualInductance {
        /// Coupling coefficient, `0 < |k| < 1`.
        k: f64,
    },
}

impl Coupling {
    /// Stable lowercase kind name (used by the CLI, serve jobs, manifests).
    pub fn kind(self) -> &'static str {
        match self {
            Coupling::Resistive { .. } => "resistive",
            Coupling::Capacitive { .. } => "capacitive",
            Coupling::MutualInductance { .. } => "mutual",
        }
    }

    /// The scalar coupling parameter (ohms, farads, or `k`).
    pub fn strength(self) -> f64 {
        match self {
            Coupling::Resistive { ohms } => ohms,
            Coupling::Capacitive { farads } => farads,
            Coupling::MutualInductance { k } => k,
        }
    }

    /// Builds a coupling from the names produced by [`Coupling::kind`]
    /// plus a strength value.
    pub fn parse(kind: &str, strength: f64) -> Option<Coupling> {
        match kind.trim().to_ascii_lowercase().as_str() {
            "resistive" | "r" => Some(Coupling::Resistive { ohms: strength }),
            "capacitive" | "c" => Some(Coupling::Capacitive { farads: strength }),
            "mutual" | "k" => Some(Coupling::MutualInductance { k: strength }),
            _ => None,
        }
    }

    fn validate(self) -> Result<(), CircuitError> {
        let bad = |msg: String| Err(CircuitError::InvalidParameter(msg));
        match self {
            // `<=` plus the NaN checks also rejects non-finite inputs.
            Coupling::Resistive { ohms } if ohms <= 0.0 || ohms.is_nan() => {
                bad(format!("coupling resistance must be positive, got {ohms}"))
            }
            Coupling::Capacitive { farads } if farads <= 0.0 || farads.is_nan() => bad(format!(
                "coupling capacitance must be positive, got {farads}"
            )),
            Coupling::MutualInductance { k } if k.abs() <= 0.0 || k.abs() >= 1.0 || k.is_nan() => {
                bad(format!(
                    "coupling coefficient must satisfy 0 < |k| < 1, got {k}"
                ))
            }
            _ => Ok(()),
        }
    }
}

/// Specification of a coupled-oscillator network.
///
/// Each oscillator is the validation suite's `−tanh` negative-resistance
/// tank (parallel R‖L‖C with an `i = −I·tanh(g·v/I)` element sized for a
/// gain of 2 at the origin). Per-oscillator frequency detuning is applied
/// by scaling the tank capacitance, `C_i = C / (1 + δ_i)²`, so oscillator
/// `i` runs nominally at `(1 + δ_i)·f₀`.
#[derive(Debug, Clone)]
pub struct NetworkSpec {
    /// Number of oscillators (≥ 2).
    pub n: usize,
    /// Wiring pattern.
    pub topology: Topology,
    /// Element placed on each coupled pair.
    pub coupling: Coupling,
    /// Tank parallel resistance in ohms.
    pub r_ohms: f64,
    /// Tank inductance in henries.
    pub l_henries: f64,
    /// Tank capacitance in farads (before detuning).
    pub c_farads: f64,
    /// Fractional frequency detuning per oscillator; indexed cyclically if
    /// shorter than `n`, no detuning if empty.
    pub detuning: Vec<f64>,
    /// Seed voltage for the staggered initial conditions.
    pub ic_volts: f64,
}

impl NetworkSpec {
    /// A network of `n` oscillators on the validation-suite tank
    /// (R = 1 kΩ, L = 10 µH, C = 10 nF, f₀ ≈ 503 kHz), undetuned.
    pub fn new(n: usize, topology: Topology, coupling: Coupling) -> NetworkSpec {
        NetworkSpec {
            n,
            topology,
            coupling,
            r_ohms: 1000.0,
            l_henries: 10e-6,
            c_farads: 10e-9,
            detuning: Vec::new(),
            ic_volts: 1e-3,
        }
    }

    /// Sets the per-oscillator fractional detuning (cyclic if shorter
    /// than `n`).
    #[must_use]
    pub fn with_detuning(mut self, detuning: Vec<f64>) -> NetworkSpec {
        self.detuning = detuning;
        self
    }

    /// The fractional detuning of oscillator `i`.
    pub fn detune(&self, i: usize) -> f64 {
        if self.detuning.is_empty() {
            0.0
        } else {
            self.detuning[i % self.detuning.len()]
        }
    }

    /// Assembles the network into a single circuit with one probe node per
    /// oscillator.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] for `n < 2`, non-positive
    /// tank parameters, detuning ≤ −1 (non-physical capacitance), or an
    /// out-of-range coupling value.
    pub fn build(&self) -> Result<CoupledNetwork, CircuitError> {
        let _span = shil_observe::span("shil_network_build");
        let bad = |msg: String| Err(CircuitError::InvalidParameter(msg));
        if self.n < 2 {
            return bad(format!(
                "a network needs at least 2 oscillators, got {}",
                self.n
            ));
        }
        if !(self.r_ohms > 0.0 && self.l_henries > 0.0 && self.c_farads > 0.0) {
            return bad(format!(
                "tank parameters must be positive: R = {}, L = {}, C = {}",
                self.r_ohms, self.l_henries, self.c_farads
            ));
        }
        self.coupling.validate()?;

        let pairs = self.topology.pairs(self.n);
        // One node and four devices per oscillator, one device per coupling.
        let mut circuit = Circuit::with_capacity(self.n, 4 * self.n + pairs.len());
        let mut probes = Vec::with_capacity(self.n);
        let mut inductors = Vec::with_capacity(self.n);
        let mut f_natural = Vec::with_capacity(self.n);
        for i in 0..self.n {
            let delta = self.detune(i);
            if 1.0 + delta <= 0.0 || delta.is_nan() {
                return bad(format!(
                    "detuning must exceed −1, got {delta} at oscillator {i}"
                ));
            }
            // f ∝ 1/√(LC): scaling C by (1+δ)⁻² shifts f₀ by (1+δ).
            let c_i = self.c_farads / ((1.0 + delta) * (1.0 + delta));
            let node = circuit.node(&format!("osc{i}"));
            circuit.resistor(node, Circuit::GROUND, self.r_ohms);
            let l = circuit.inductor(node, Circuit::GROUND, self.l_henries);
            circuit.capacitor(node, Circuit::GROUND, c_i);
            // Gain 2.0 at the origin, as in the single-oscillator fixture.
            circuit.nonlinear(
                node,
                Circuit::GROUND,
                IvCurve::tanh(-1e-3, 2.0 / (self.r_ohms * 1e-3)),
            );
            probes.push(node);
            inductors.push(l);
            f_natural.push(
                (1.0 + delta) / (std::f64::consts::TAU * (self.l_henries * self.c_farads).sqrt()),
            );
        }

        for &(a, b) in &pairs {
            match self.coupling {
                Coupling::Resistive { ohms } => {
                    circuit.resistor(probes[a], probes[b], ohms);
                }
                Coupling::Capacitive { farads } => {
                    circuit.capacitor(probes[a], probes[b], farads);
                }
                Coupling::MutualInductance { k } => {
                    circuit.mutual(inductors[a], inductors[b], k);
                }
            }
        }

        shil_observe::gauge_set("shil_network_oscillators", self.n as f64);
        shil_observe::counter_add("shil_network_couplings_total", pairs.len() as u64);

        Ok(CoupledNetwork {
            spec: self.clone(),
            circuit,
            probes,
            inductors,
            pairs,
            f_natural,
        })
    }
}

/// An assembled coupled-oscillator network: the MNA circuit plus the
/// bookkeeping needed to probe and classify it.
#[derive(Debug, Clone)]
pub struct CoupledNetwork {
    /// The specification this network was built from.
    pub spec: NetworkSpec,
    /// The assembled circuit; run any analysis on it directly.
    pub circuit: Circuit,
    /// Per-oscillator tank node (named `osc<i>`).
    pub probes: Vec<NodeId>,
    /// Per-oscillator tank inductor (coupling targets for `K` elements).
    pub inductors: Vec<DeviceId>,
    /// The coupled index pairs realized by the topology.
    pub pairs: Vec<(usize, usize)>,
    /// Per-oscillator nominal natural frequency in Hz (detuning applied).
    pub f_natural: Vec<f64>,
}

impl CoupledNetwork {
    /// The mean nominal natural frequency of the network in Hz.
    pub fn f_mean(&self) -> f64 {
        self.f_natural.iter().sum::<f64>() / self.f_natural.len() as f64
    }

    /// Transient options sized for lock analysis: simulate
    /// `settle_periods + record_periods` mean periods at
    /// `points_per_period` samples each, record only the tail, and seed
    /// each oscillator with a staggered initial condition (amplitude ramp
    /// across the network) so start-up is not perfectly symmetric.
    pub fn transient_options(
        &self,
        settle_periods: f64,
        record_periods: f64,
        points_per_period: usize,
    ) -> TranOptions {
        let period = 1.0 / self.f_mean();
        let dt = period / points_per_period as f64;
        let mut opts = TranOptions::new(dt, (settle_periods + record_periods) * period)
            .record_after(settle_periods * period)
            .use_ic();
        let n = self.probes.len();
        for (i, &p) in self.probes.iter().enumerate() {
            let stagger = 1.0 + 0.5 * i as f64 / n as f64;
            opts = opts.with_ic(p, self.spec.ic_volts * stagger);
        }
        opts
    }

    /// Runs a transient under a `shil_network_tran` span.
    ///
    /// # Errors
    ///
    /// Propagates any [`CircuitError`] from [`transient`].
    pub fn simulate(&self, opts: &TranOptions) -> Result<TranResult, CircuitError> {
        let _span = shil_observe::span("shil_network_tran");
        transient(&self.circuit, opts)
    }

    /// Network-level lock analysis of a transient result; see
    /// [`probe_network_lock`].
    ///
    /// # Errors
    ///
    /// See [`probe_network_lock`].
    pub fn probe_lock(
        &self,
        result: &TranResult,
        opts: &NetworkLockOptions,
    ) -> Result<NetworkLockReport, CircuitError> {
        probe_network_lock(result, &self.probes, opts)
    }
}

/// Options for [`probe_network_lock`].
#[derive(Debug, Clone)]
pub struct NetworkLockOptions {
    /// Per-oscillator windowed lock analysis options (windows, periods per
    /// window, per-window drift tolerance).
    pub lock: LockOptions,
    /// Maximum window-to-window change of a pair's relative phase (radians)
    /// for the pair to count as mutually locked.
    pub max_pair_drift: f64,
}

impl Default for NetworkLockOptions {
    fn default() -> Self {
        NetworkLockOptions {
            lock: LockOptions::default(),
            // Twice the single-oscillator drift tolerance: a pair offset is
            // a difference of two phases, each allowed `max_drift` of jitter.
            max_pair_drift: 2.0 * LockOptions::default().max_drift,
        }
    }
}

/// Lock classification of one oscillator against the network consensus
/// frequency.
#[derive(Debug, Clone)]
pub struct OscillatorLock {
    /// Oscillator index.
    pub index: usize,
    /// Whether the oscillator is phase-locked to the consensus frequency.
    pub locked: bool,
    /// Zero-crossing frequency estimate in Hz (NaN if the trace never
    /// crosses zero — a dead oscillator).
    pub frequency_hz: f64,
    /// Mean tail amplitude in volts.
    pub amplitude: f64,
    /// Phase in radians (final analysis window, relative to the consensus
    /// frequency).
    pub phase: f64,
    /// Per-window phases at the consensus frequency, oldest first.
    pub window_phases: Vec<f64>,
}

/// Lock classification of one oscillator pair.
#[derive(Debug, Clone)]
pub struct PairLock {
    /// First oscillator index.
    pub a: usize,
    /// Second oscillator index.
    pub b: usize,
    /// Whether both oscillators are locked and their relative phase is
    /// stationary.
    pub locked: bool,
    /// Largest window-to-window change of the relative phase `φ_a − φ_b`
    /// (radians).
    pub drift: f64,
    /// Circular-mean relative phase `φ_a − φ_b` (radians).
    pub mean_offset: f64,
    /// Whether this pair is directly coupled in the network topology
    /// (always `true` for reports from netlist-driven probes without
    /// topology information... see [`probe_network_lock`]).
    pub coupled: bool,
}

/// The network-level verdict from [`probe_network_lock`].
#[derive(Debug, Clone)]
pub struct NetworkLockReport {
    /// Consensus (median) zero-crossing frequency across oscillators, Hz.
    pub consensus_frequency_hz: f64,
    /// Per-oscillator classification, index order.
    pub oscillators: Vec<OscillatorLock>,
    /// All unordered pairs, lexicographic order.
    pub pairs: Vec<PairLock>,
    /// Fraction of oscillators locked to the consensus frequency.
    pub locked_fraction: f64,
    /// `true` when every oscillator is locked *and* every pairwise relative
    /// phase is stationary — the network-wide mutual-SHIL verdict.
    pub mutual_lock: bool,
}

impl NetworkLockReport {
    /// The pair record for `(a, b)` (order-insensitive).
    pub fn pair(&self, a: usize, b: usize) -> Option<&PairLock> {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        self.pairs.iter().find(|p| p.a == lo && p.b == hi)
    }
}

/// Per-oscillator lock-state gauge names: `shil_network_osc<i>_locked`.
///
/// The observe registry keys metrics by `&'static str`; names for oscillator
/// indices seen for the first time are leaked once and cached for the life
/// of the process (bounded by the largest network analyzed).
fn oscillator_gauge_name(i: usize) -> &'static str {
    static NAMES: Mutex<Option<HashMap<usize, &'static str>>> = Mutex::new(None);
    let mut guard = NAMES.lock().unwrap_or_else(|e| e.into_inner());
    let names = guard.get_or_insert_with(HashMap::new);
    names
        .entry(i)
        .or_insert_with(|| Box::leak(format!("shil_network_osc{i}_locked").into_boxed_str()))
}

/// Classifies the collective lock state of a network of oscillators from a
/// transient result.
///
/// `probes` names one node per oscillator (for [`CoupledNetwork`] these are
/// the tank nodes; for netlist-driven networks resolve them with
/// [`crate::Circuit::find_node`]). The analysis:
///
/// 1. estimates each oscillator's frequency by interpolated zero crossings,
/// 2. takes the **median** estimate as the network consensus frequency,
/// 3. runs the windowed phase-drift analysis of
///    [`shil_waveform::lock::lock_analysis`] per oscillator at the
///    consensus frequency,
/// 4. classifies every unordered pair by the stationarity of its relative
///    phase across windows, and
/// 5. issues the mutual-SHIL verdict: every oscillator locked and every
///    pair stationary.
///
/// Oscillators whose trace never crosses zero (dead or collapsed) are
/// reported unlocked with `frequency_hz = NaN` rather than failing the
/// whole analysis.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidRequest`] if `probes` is empty, a probe
/// refers to ground, the recorded trace is too short for the requested
/// windows, or *no* oscillator yields a frequency estimate.
pub fn probe_network_lock(
    result: &TranResult,
    probes: &[NodeId],
    opts: &NetworkLockOptions,
) -> Result<NetworkLockReport, CircuitError> {
    probe_network_lock_impl(result, probes, None, opts)
}

/// [`probe_network_lock`] with topology information: `coupled_pairs` marks
/// which pairs are directly coupled (the `coupled` flag on [`PairLock`]).
pub fn probe_network_lock_with_pairs(
    result: &TranResult,
    probes: &[NodeId],
    coupled_pairs: &[(usize, usize)],
    opts: &NetworkLockOptions,
) -> Result<NetworkLockReport, CircuitError> {
    probe_network_lock_impl(result, probes, Some(coupled_pairs), opts)
}

fn wf_err(e: shil_waveform::WaveformError) -> CircuitError {
    CircuitError::InvalidRequest(format!("network lock analysis: {e}"))
}

fn probe_network_lock_impl(
    result: &TranResult,
    probes: &[NodeId],
    coupled_pairs: Option<&[(usize, usize)]>,
    opts: &NetworkLockOptions,
) -> Result<NetworkLockReport, CircuitError> {
    let _span = shil_observe::span("shil_network_lock");
    if probes.is_empty() {
        return Err(CircuitError::InvalidRequest(
            "network lock analysis needs at least one probe node".into(),
        ));
    }

    // Per-oscillator frequency estimates; NaN marks a dead trace.
    let mut traces = Vec::with_capacity(probes.len());
    let mut freqs = Vec::with_capacity(probes.len());
    for &p in probes {
        let v = result.node_voltage(p)?;
        let s = Sampled::from_time_series(&result.time, v).map_err(wf_err)?;
        let f = estimate_frequency(&s).unwrap_or(f64::NAN);
        traces.push(v);
        freqs.push(f);
    }
    let mut finite: Vec<f64> = freqs.iter().copied().filter(|f| f.is_finite()).collect();
    if finite.is_empty() {
        return Err(CircuitError::InvalidRequest(
            "no oscillator produced a frequency estimate (all traces dead?)".into(),
        ));
    }
    finite.sort_by(|a, b| a.total_cmp(b));
    let consensus = finite[finite.len() / 2];

    // Windowed phase analysis per oscillator at the consensus frequency.
    let mut oscillators = Vec::with_capacity(probes.len());
    for (i, v) in traces.iter().enumerate() {
        let s = Sampled::from_time_series(&result.time, v).map_err(wf_err)?;
        if !freqs[i].is_finite() {
            oscillators.push(OscillatorLock {
                index: i,
                locked: false,
                frequency_hz: f64::NAN,
                amplitude: 0.0,
                phase: f64::NAN,
                window_phases: Vec::new(),
            });
            continue;
        }
        let analysis = lock_analysis(&s, consensus, &opts.lock).map_err(wf_err)?;
        oscillators.push(OscillatorLock {
            index: i,
            locked: analysis.locked,
            frequency_hz: freqs[i],
            amplitude: analysis.mean_amplitude,
            phase: analysis.window_phases.last().copied().unwrap_or(f64::NAN),
            window_phases: analysis.window_phases,
        });
    }

    // Pairwise relative-phase stationarity over all unordered pairs.
    let n = oscillators.len();
    let mut pairs = Vec::with_capacity(n * (n - 1) / 2);
    for a in 0..n {
        for b in (a + 1)..n {
            let (oa, ob) = (&oscillators[a], &oscillators[b]);
            let windows = oa.window_phases.len().min(ob.window_phases.len());
            let offsets: Vec<f64> = (0..windows)
                .map(|w| angle_diff(oa.window_phases[w], ob.window_phases[w]))
                .collect();
            let drift = offsets
                .windows(2)
                .map(|w| angle_diff(w[1], w[0]).abs())
                .fold(0.0, f64::max);
            // Circular mean of the relative phase.
            let (sin_sum, cos_sum) = offsets
                .iter()
                .fold((0.0, 0.0), |(s, c), &o| (s + o.sin(), c + o.cos()));
            let mean_offset = if offsets.is_empty() {
                f64::NAN
            } else {
                sin_sum.atan2(cos_sum)
            };
            let locked =
                oa.locked && ob.locked && !offsets.is_empty() && drift <= opts.max_pair_drift;
            let coupled = coupled_pairs
                .map(|cp| {
                    cp.iter()
                        .any(|&(x, y)| (x, y) == (a, b) || (y, x) == (a, b))
                })
                .unwrap_or(true);
            pairs.push(PairLock {
                a,
                b,
                locked,
                drift,
                mean_offset,
                coupled,
            });
        }
    }

    let locked_count = oscillators.iter().filter(|o| o.locked).count();
    let locked_fraction = locked_count as f64 / n as f64;
    let mutual_lock = locked_count == n && pairs.iter().all(|p| p.locked);

    shil_observe::incr("shil_network_lock_analyses_total");
    shil_observe::gauge_set("shil_network_locked_fraction", locked_fraction);
    for o in &oscillators {
        shil_observe::gauge_set(
            oscillator_gauge_name(o.index),
            if o.locked { 1.0 } else { 0.0 },
        );
    }

    Ok(NetworkLockReport {
        consensus_frequency_hz: consensus,
        oscillators,
        pairs,
        locked_fraction,
        mutual_lock,
    })
}

/// Sweeps the coupling strength of a network across `strengths`, one
/// transient + lock analysis per point, fanned out through the given
/// [`SweepEngine`] (deterministic result ordering at any thread count).
///
/// Each point rebuilds the network with the same topology/tank/detuning but
/// the coupling strength replaced, simulates
/// `settle_periods + record_periods` mean periods, and classifies the tail
/// with [`probe_network_lock`]. Build or transient failures surface as the
/// per-point `Err`.
pub fn coupling_strength_sweep(
    base: &NetworkSpec,
    strengths: &[f64],
    engine: &crate::analysis::SweepEngine,
    settle_periods: f64,
    record_periods: f64,
    points_per_period: usize,
    lock_opts: &NetworkLockOptions,
) -> Vec<(f64, Result<NetworkLockReport, CircuitError>)> {
    let _span = shil_observe::span("shil_network_sweep");
    engine.map(strengths, |_, &strength| {
        let coupling = Coupling::parse(base.coupling.kind(), strength)
            .expect("kind() strings always re-parse");
        let mut spec = base.clone();
        spec.coupling = coupling;
        let outcome = spec.build().and_then(|net| {
            let opts = net.transient_options(settle_periods, record_periods, points_per_period);
            let result = net.simulate(&opts)?;
            net.probe_lock(&result, lock_opts)
        });
        (strength, outcome)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The circuit `build()` assembles, written out device by device on a
    /// `Circuit::new()`: node `osc<i>` with its R, L, C and `−tanh`
    /// element per oscillator, then one coupling per topology pair.
    fn twin(spec: &NetworkSpec) -> Circuit {
        let mut c = Circuit::new();
        let mut inductors = Vec::new();
        for i in 0..spec.n {
            let delta = spec.detune(i);
            let node = c.node(&format!("osc{i}"));
            c.resistor(node, 0, spec.r_ohms);
            inductors.push(c.inductor(node, 0, spec.l_henries));
            c.capacitor(node, 0, spec.c_farads / ((1.0 + delta) * (1.0 + delta)));
            c.nonlinear(node, 0, IvCurve::tanh(-1e-3, 2.0 / (spec.r_ohms * 1e-3)));
        }
        for (a, b) in spec.topology.pairs(spec.n) {
            match spec.coupling {
                Coupling::Resistive { ohms } => c.resistor(a + 1, b + 1, ohms),
                Coupling::Capacitive { farads } => c.capacitor(a + 1, b + 1, farads),
                Coupling::MutualInductance { k } => c.mutual(inductors[a], inductors[b], k),
            };
        }
        c
    }

    #[test]
    fn presized_build_matches_an_incrementally_built_twin() {
        for spec in [
            NetworkSpec::new(5, Topology::Ring, Coupling::Resistive { ohms: 2e3 })
                .with_detuning(vec![-0.003, 0.001, 0.004]),
            NetworkSpec::new(
                4,
                Topology::AllToAll,
                Coupling::Capacitive { farads: 1e-10 },
            ),
            NetworkSpec::new(3, Topology::Chain, Coupling::MutualInductance { k: 0.05 }),
        ] {
            let built = spec.build().expect("valid spec").circuit;
            let twin = twin(&spec);
            assert_eq!(built.num_nodes(), twin.num_nodes());
            for id in 0..twin.num_nodes() {
                assert_eq!(built.node_name(id), twin.node_name(id));
                assert_eq!(built.find_node(twin.node_name(id)), Some(id));
            }
            assert_eq!(
                format!("{:?}", built.devices()),
                format!("{:?}", twin.devices()),
                "{spec:?}"
            );
        }
    }

    #[test]
    fn topology_pair_enumeration() {
        assert_eq!(Topology::Chain.pairs(4), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(
            Topology::Ring.pairs(4),
            vec![(0, 1), (1, 2), (2, 3), (0, 3)]
        );
        // A 2-ring is just the chain edge, not a doubled one.
        assert_eq!(Topology::Ring.pairs(2), vec![(0, 1)]);
        assert_eq!(Topology::Star.pairs(4), vec![(0, 1), (0, 2), (0, 3)]);
        assert_eq!(
            Topology::AllToAll.pairs(4).len(),
            6,
            "complete graph on 4 vertices has 6 edges"
        );
        for t in [
            Topology::Chain,
            Topology::Ring,
            Topology::Star,
            Topology::AllToAll,
        ] {
            assert_eq!(
                Topology::parse(t.name()),
                Some(t),
                "name round-trip for {t:?}"
            );
        }
    }

    #[test]
    fn coupling_parse_round_trips() {
        for c in [
            Coupling::Resistive { ohms: 220.0 },
            Coupling::Capacitive { farads: 1e-9 },
            Coupling::MutualInductance { k: 0.2 },
        ] {
            assert_eq!(Coupling::parse(c.kind(), c.strength()), Some(c));
        }
        assert_eq!(Coupling::parse("banana", 1.0), None);
    }

    #[test]
    fn build_rejects_bad_specs() {
        let base = NetworkSpec::new(2, Topology::Chain, Coupling::Resistive { ohms: 100.0 });
        let mut one = base.clone();
        one.n = 1;
        assert!(one.build().is_err(), "n = 1 is not a network");
        let mut neg = base.clone();
        neg.coupling = Coupling::MutualInductance { k: 1.5 };
        assert!(neg.build().is_err(), "|k| ≥ 1 must be rejected");
        let mut det = base.clone();
        det.detuning = vec![-1.0];
        assert!(det.build().is_err(), "detuning ≤ −1 is non-physical");
        let mut zero_c = base;
        zero_c.coupling = Coupling::Capacitive { farads: 0.0 };
        assert!(
            zero_c.build().is_err(),
            "zero coupling capacitance rejected"
        );
    }

    #[test]
    fn build_counts_devices_and_probes() {
        let net = NetworkSpec::new(5, Topology::Ring, Coupling::MutualInductance { k: 0.1 })
            .build()
            .unwrap();
        assert_eq!(net.probes.len(), 5);
        assert_eq!(net.inductors.len(), 5);
        assert_eq!(net.pairs.len(), 5, "5-ring has 5 edges");
        // 4 devices per oscillator + one K element per edge.
        assert_eq!(net.circuit.devices().len(), 5 * 4 + 5);
        // Mutual coupling adds no nodes and no unknowns beyond the tanks.
        for (i, &p) in net.probes.iter().enumerate() {
            assert_eq!(net.circuit.find_node(&format!("osc{i}")), Some(p));
        }
    }

    #[test]
    fn detuning_scales_natural_frequencies() {
        let net = NetworkSpec::new(3, Topology::Chain, Coupling::Resistive { ohms: 1e5 })
            .with_detuning(vec![-0.01, 0.0, 0.01])
            .build()
            .unwrap();
        assert!(net.f_natural[0] < net.f_natural[1]);
        assert!(net.f_natural[1] < net.f_natural[2]);
        let f0 = 1.0 / (std::f64::consts::TAU * (10e-6_f64 * 10e-9).sqrt());
        assert!((net.f_natural[1] - f0).abs() / f0 < 1e-12);
    }

    /// Lock options sized for short test transients: 6 windows × 8 periods
    /// instead of the default 8 × 20, so 60 recorded periods suffice.
    fn short_lock_options() -> NetworkLockOptions {
        let mut opts = NetworkLockOptions::default();
        opts.lock.windows = 6;
        opts.lock.periods_per_window = 8;
        opts
    }

    #[test]
    fn strongly_coupled_pair_mutually_locks() {
        // Two oscillators detuned by ∓0.5 %, strongly coupled: they must
        // pull onto a common frequency with stationary relative phase.
        let net = NetworkSpec::new(2, Topology::Chain, Coupling::Resistive { ohms: 2e3 })
            .with_detuning(vec![-0.005, 0.005])
            .build()
            .unwrap();
        let opts = net.transient_options(60.0, 60.0, 64);
        let result = net.simulate(&opts).unwrap();
        let report = net.probe_lock(&result, &short_lock_options()).unwrap();
        assert!(
            report.mutual_lock,
            "strong coupling must lock the pair: {:?}",
            report.pairs
        );
        assert_eq!(report.locked_fraction, 1.0);
        assert!(
            report.pair(1, 0).unwrap().locked,
            "pair lookup is order-insensitive"
        );
    }

    #[test]
    fn weakly_coupled_detuned_pair_stays_unlocked() {
        // Same detuning, but coupling ~100× weaker: the beat between the
        // tanks must survive, so the pair cannot report mutual lock.
        let net = NetworkSpec::new(2, Topology::Chain, Coupling::Resistive { ohms: 2e5 })
            .with_detuning(vec![-0.005, 0.005])
            .build()
            .unwrap();
        let opts = net.transient_options(60.0, 60.0, 64);
        let result = net.simulate(&opts).unwrap();
        let report = net.probe_lock(&result, &short_lock_options()).unwrap();
        assert!(
            !report.mutual_lock,
            "weak coupling across 1 % detuning must not lock: {:?}",
            report.pairs
        );
    }

    #[test]
    fn network_netlist_round_trips() {
        let net = NetworkSpec::new(3, Topology::Ring, Coupling::MutualInductance { k: 0.15 })
            .build()
            .unwrap();
        let text = crate::netlist::write(&net.circuit).unwrap();
        let reparsed = crate::netlist::parse(&text).unwrap();
        assert_eq!(reparsed.devices().len(), net.circuit.devices().len());
        for i in 0..3 {
            assert!(
                reparsed.find_node(&format!("osc{i}")).is_some(),
                "probe node osc{i} survives the round trip"
            );
        }
    }

    #[test]
    fn probe_lock_rejects_empty_probes() {
        let net = NetworkSpec::new(2, Topology::Chain, Coupling::Resistive { ohms: 1e3 })
            .build()
            .unwrap();
        let opts = net.transient_options(4.0, 4.0, 32);
        let result = net.simulate(&opts).unwrap();
        assert!(probe_network_lock(&result, &[], &NetworkLockOptions::default()).is_err());
    }
}
