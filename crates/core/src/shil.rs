//! Sub-harmonic injection locking: the paper's graphical procedure (§III-C)
//! as an executable algorithm.
//!
//! # The procedure
//!
//! For an injection phasor `V_i` at `n·ω_i` the lock conditions are
//! (paper eqs. 3–4)
//!
//! ```text
//! T_f(A, φ)  = −R·I₁ₓ(A, V_i, φ) / (A/2) = 1
//! ∠−I₁(A, φ) = −φ_d(ω_i)
//! ```
//!
//! The level set `C_{T_f,1}` of the first equation does **not** depend on
//! the injection frequency — the invariance the paper exploits for cheap
//! lock-range sweeps — so it is found once per oscillator, `n` and `V_i`:
//! traced on the exact equation by pseudo-arclength continuation (see
//! [`crate::continuation`]), seeded from the `φ = 0` and `φ = π` amplitude
//! columns, with the `φ > π` half mirrored (`φ → −φ` conjugates `I₁`,
//! §VI-B3). Every point `s` of
//! `C_{T_f,1}` is a lock solution for exactly one tank phase,
//! `φ_d(s) = −∠−I₁(s)`: the tracer's own `I₁` evaluation at every vertex
//! gives `∠−I₁` there exactly (the *phase track*), and a query at `φ_d`
//! reads its solutions off the
//! track segments where `∠−I₁ + φ_d` changes sign — the intersections with
//! the isoline `C_{∠−I₁, −φ_d}` — each polished by a 2×2 Newton solve on the
//! exact residuals and classified as stable or unstable from the local
//! restoring-force field (§VI-B3). The lock range (§III-C, Fig. 10) is the
//! end of the `φ_d` image of the track's stable arcs: one walk splits the
//! track at folds of `φ_d(s)` (saddle-node edges, `det J = 0`) and at sign
//! changes of the Jacobian trace, and a 1-D solve on the exact equations
//! refines the end; the tank phase inverse maps it back to frequency.
//!
//! Every intermediate object — grids, level sets, isolines, intersections —
//! is exposed through [`GraphicalCurves`] so the figures of the paper can
//! be re-rendered from this crate's output. Only those figure accessors
//! need the rectangular `(φ, A)` grids of `T_f` and `∠−I₁`
//! ([`precharacterize`]); they are filled on first use.

use std::f64::consts::FRAC_PI_2;
use std::sync::{Arc, OnceLock};

use shil_numerics::contour::{marching_squares, Point, Polyline};
use shil_numerics::fallback::{newton_with_restarts, FallbackOptions};
use shil_numerics::newton::NewtonOptions;
use shil_numerics::roots::brent;
use shil_numerics::{wrap_angle, Grid2};

use crate::cache::{self, NaturalKey, PrecharCache, PrecharKey, Precharacterization};
use crate::continuation::trace_unity;
use crate::describing::{natural_oscillation, NaturalOptions, NaturalOscillation};
use crate::error::ShilError;
use crate::harmonics::{neg_angle, HarmonicOptions, HarmonicTable};
use crate::nonlinearity::Nonlinearity;
use crate::tank::Tank;

/// Options for the SHIL analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShilOptions {
    /// Resolution of the phase axis `φ ∈ [0, 2π]`: the columns of the
    /// figure grids, and the phase cell of the continuation step.
    pub phase_points: usize,
    /// Resolution of the amplitude axis: the rows of the figure grids, the
    /// seed columns of the continuation and the amplitude cell of its step.
    pub amplitude_points: usize,
    /// Lower amplitude bound as a fraction of the natural amplitude.
    pub a_min_factor: f64,
    /// Upper amplitude bound as a fraction of the natural amplitude.
    pub a_max_factor: f64,
    /// Harmonic-integral sampling.
    pub harmonics: HarmonicOptions,
    /// Natural-oscillation solve options (the amplitude window is scaled
    /// from the natural amplitude).
    pub natural: NaturalOptions,
    /// Worker threads for the figure grids' fill and the Newton-polish
    /// fan-out:
    /// `None` = one per available core, `Some(1)` = fully serial,
    /// `Some(k)` = exactly `k`. Results are **bit-for-bit identical**
    /// regardless of the setting (rows are partitioned, never reduced
    /// across threads).
    pub parallelism: Option<usize>,
}

impl Default for ShilOptions {
    fn default() -> Self {
        // The graphical pass only needs to *locate* intersections — the
        // Newton polish against the exact residuals supplies the precision —
        // so a moderate grid loses nothing (verified by the A02 ablation).
        ShilOptions {
            phase_points: 161,
            amplitude_points: 101,
            a_min_factor: 0.05,
            a_max_factor: 1.35,
            harmonics: HarmonicOptions { samples: 256 },
            natural: NaturalOptions::default(),
            parallelism: None,
        }
    }
}

/// Resolves a [`ShilOptions::parallelism`] request to a concrete thread
/// count (`None` → available cores, floor of 1).
///
/// Delegates to [`shil_numerics::parallel::effective_parallelism`] so the
/// grid fill and the circuit-level sweep engine share one policy;
/// re-exported here to keep the historical path alive.
pub fn effective_parallelism(requested: Option<usize>) -> usize {
    shil_numerics::parallel::effective_parallelism(requested)
}

/// Digest of the options that influence a natural-oscillation solve.
fn natural_options_fingerprint(opts: &NaturalOptions) -> u64 {
    cache::fingerprint(
        "natural-options",
        &[
            opts.a_max.unwrap_or(-1.0),
            opts.scan_points as f64,
            opts.harmonics.samples as f64,
        ],
    )
}

/// Digest of the options that influence the grid pre-characterization.
/// Excludes `parallelism` (the fill is bit-identical at any thread count).
fn grid_options_fingerprint(opts: &ShilOptions) -> u64 {
    cache::combine(
        cache::fingerprint(
            "grid-options",
            &[
                opts.phase_points as f64,
                opts.amplitude_points as f64,
                opts.a_min_factor,
                opts.a_max_factor,
                opts.harmonics.samples as f64,
            ],
        ),
        natural_options_fingerprint(&opts.natural),
    )
}

/// Fills the `T_f(φ, A)` and `∠−I₁(φ, A)` grids on the uniform phase axis
/// `φ_i = 2π·i/(phase_points − 1)` and the given amplitude axis, using
/// `threads` workers.
///
/// [`ShilAnalysis`] fills these grids only for the figure accessors
/// ([`ShilAnalysis::tf_grid`], [`ShilAnalysis::angle_grid`],
/// [`ShilAnalysis::graphical_curves`], [`ShilAnalysis::angle_isolines`]);
/// lock solutions and lock ranges never need them. Each evaluated cell
/// costs one batched two-tone sampling pass of `table` (no trigonometric
/// calls; see [`HarmonicTable`]).
///
/// Only the columns `φ ∈ [0, π]` — `⌈phase_points/2⌉` of them — are
/// evaluated. Replacing `φ` by `−φ` conjugates the fundamental phasor
/// (§VI-B3), and exactly so for the periodic trapezoid sum: waveform sample
/// `k` at `−φ` is sample `N − k` at `φ`. The column at `2π − φ` therefore
/// carries the same `T_f` and the opposite `∠−I₁`, and is written from its
/// mirror in the same row pass. Angles are kept in `(−π, π]`: `π` mirrors
/// to `π` and `−0.0` is written as `0.0`. The uniform axis is built here so
/// the mirror pairing holds by construction.
///
/// Rows are partitioned into disjoint contiguous chunks, one scoped thread
/// per chunk, every cell computed by the same expressions in the same
/// order — so serial (`threads == 1`) and parallel fills return
/// **bit-for-bit identical** grids.
///
/// # Errors
///
/// [`ShilError::InvalidParameter`] for fewer than 2 phase points, plus
/// grid-construction failures (fewer than 2 or non-monotonic amplitudes).
pub fn precharacterize<N: Nonlinearity + Sync + ?Sized>(
    nonlinearity: &N,
    r: f64,
    vi: f64,
    phase_points: usize,
    amps: &[f64],
    table: &HarmonicTable,
    threads: usize,
) -> Result<(Grid2, Grid2), ShilError> {
    if phase_points < 2 {
        return Err(ShilError::InvalidParameter(format!(
            "phase axis needs at least 2 points, got {phase_points}"
        )));
    }
    let nx = phase_points;
    let ny = amps.len();
    let phis: Vec<f64> = (0..nx)
        .map(|i| std::f64::consts::TAU * i as f64 / (nx - 1) as f64)
        .collect();
    let half = nx.div_ceil(2);
    let _fill_span = shil_observe::span("shil_core_prechar_fill");
    shil_observe::counter_add("shil_core_prechar_cells_total", (half * ny) as u64);
    let mut tf_data = vec![0.0; nx * ny];
    let mut angle_data = vec![0.0; nx * ny];

    // `j0` is the absolute index of the first row in the chunk; each worker
    // owns a disjoint &mut window of both data vectors.
    let fill = |j0: usize, tf_rows: &mut [f64], angle_rows: &mut [f64]| {
        let mut buf = table.scratch();
        for (dj, (tf_row, angle_row)) in tf_rows
            .chunks_mut(nx)
            .zip(angle_rows.chunks_mut(nx))
            .enumerate()
        {
            let a = amps[j0 + dj];
            for (i, &phi) in phis[..half].iter().enumerate() {
                let i1 = table.i1(nonlinearity, a, vi, phi, &mut buf);
                let (tf, angle) = (-r * i1.re / (a / 2.0), neg_angle(i1));
                tf_row[i] = tf;
                angle_row[i] = angle;
                let mirror = nx - 1 - i;
                if mirror != i {
                    tf_row[mirror] = tf;
                    angle_row[mirror] = mirror_angle(angle);
                }
            }
        }
    };

    let threads = threads.clamp(1, ny.max(1));
    if threads == 1 {
        fill(0, &mut tf_data, &mut angle_data);
    } else {
        let rows_per = ny.div_ceil(threads);
        std::thread::scope(|scope| {
            for (chunk, (tf_chunk, angle_chunk)) in tf_data
                .chunks_mut(rows_per * nx)
                .zip(angle_data.chunks_mut(rows_per * nx))
                .enumerate()
            {
                let fill = &fill;
                scope.spawn(move || fill(chunk * rows_per, tf_chunk, angle_chunk));
            }
        });
    }

    let tf_grid = Grid2::from_data(phis.clone(), amps.to_vec(), tf_data)?;
    let angle_grid = Grid2::from_data(phis, amps.to_vec(), angle_data)?;
    Ok((tf_grid, angle_grid))
}

/// `∠−I₁` at `2π − φ` from `∠−I₁` at `φ`: the conjugate's angle, kept in
/// `(−π, π]`. Negation alone would send `π` to `−π` and `0` to `−0.0`.
pub(crate) fn mirror_angle(angle: f64) -> f64 {
    if angle == std::f64::consts::PI || angle == 0.0 {
        angle.abs()
    } else {
        -angle
    }
}

/// One lock solution `(φ_s, A_s)` of the SHIL equations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShilSolution {
    /// Oscillation amplitude `A_s` (volts).
    pub amplitude: f64,
    /// Phase `φ_s` of the injection relative to the oscillation fundamental
    /// (radians, wrapped to `(−π, π]`).
    pub phase: f64,
    /// Stability from the restoring-force analysis (§VI-B3).
    pub stable: bool,
    /// Determinant of the perturbation Jacobian (positive for
    /// non-saddle equilibria).
    pub jacobian_det: f64,
    /// Trace of the perturbation Jacobian (negative for stable equilibria).
    pub jacobian_trace: f64,
    /// Whether an escalation fallback produced this solution.
    ///
    /// `true` means the Newton polish (and its restarts) failed and the
    /// coarse graphical intersection was accepted instead, or the stability
    /// classification hit non-finite derivatives — the numbers are grid-
    /// resolution accurate, not solver-tolerance accurate.
    pub degraded: bool,
}

/// The predicted lock range (paper Fig. 10 / Tables 1–2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LockRange {
    /// Largest tank phase magnitude `|φ_d|` with a stable lock (radians).
    pub phi_d_max: f64,
    /// Lower oscillator lock limit (hertz, below `f_c`).
    pub lower_oscillator_hz: f64,
    /// Upper oscillator lock limit (hertz, above `f_c`).
    pub upper_oscillator_hz: f64,
    /// Lower injection lock limit `n·lower_oscillator_hz` (hertz).
    pub lower_injection_hz: f64,
    /// Upper injection lock limit `n·upper_oscillator_hz` (hertz).
    pub upper_injection_hz: f64,
    /// Injection lock-range width `Δf` (hertz).
    pub injection_span_hz: f64,
    /// Amplitude of the stable lock at center frequency (`φ_d = 0`).
    pub amplitude_at_center: f64,
    /// Whether any solution consulted while locating the boundary was
    /// itself degraded (see [`ShilSolution::degraded`]) — the range is then
    /// grid-resolution accurate rather than solver-tolerance accurate.
    pub degraded: bool,
}

/// The raw curves of the graphical procedure at one injection frequency —
/// everything needed to redraw Figs. 7/10/14/18.
#[derive(Debug, Clone)]
pub struct GraphicalCurves {
    /// The tank phase `−φ_d` used for the isoline.
    pub neg_phi_d: f64,
    /// The injection-invariant `C_{T_f,1}` level set (φ on x, A on y).
    pub tf_unity: Vec<Polyline>,
    /// The `∠−I₁ = −φ_d` isoline.
    pub angle_isoline: Vec<Polyline>,
    /// Intersections after Newton refinement, with stability.
    pub solutions: Vec<ShilSolution>,
}

/// A prepared SHIL analysis for one oscillator, sub-harmonic order and
/// injection strength.
///
/// Construction traces `C_{T_f,1}` with its phase track; all queries
/// afterwards (solutions at a frequency, lock range, plot curves) reuse it.
pub struct ShilAnalysis<'a, N: ?Sized, T: ?Sized> {
    nonlinearity: &'a N,
    tank: &'a T,
    n: u32,
    vi: f64,
    /// Level set, phase track, natural solve and sampling tables (and the
    /// grids, once a figure accessor asked for them) — possibly shared with
    /// other analyses through a [`PrecharCache`].
    prechar: Arc<Precharacterization>,
    /// Resolved worker-thread count (from [`ShilOptions::parallelism`]).
    threads: usize,
}

impl<'a, N: Nonlinearity + Sync + ?Sized, T: Tank + Sync + ?Sized> ShilAnalysis<'a, N, T> {
    /// Pre-characterizes the oscillator for `n`-th sub-harmonic injection
    /// with phasor magnitude `vi` (the physical injection waveform is
    /// `2·vi·cos(nω_i t + φ)`).
    ///
    /// # Errors
    ///
    /// - [`ShilError::InvalidParameter`] for `n = 0` or `vi ≤ 0`.
    /// - [`ShilError::NoOscillation`] if the oscillator has no stable
    ///   natural oscillation (the amplitude window is scaled from it).
    pub fn new(
        nonlinearity: &'a N,
        tank: &'a T,
        n: u32,
        vi: f64,
        opts: ShilOptions,
    ) -> Result<Self, ShilError> {
        Self::validate(n, vi, &opts)?;
        let natural = natural_oscillation(nonlinearity, tank, &opts.natural)?;
        let threads = effective_parallelism(opts.parallelism);
        let prechar = Arc::new(Self::build_prechar(
            nonlinearity,
            tank,
            natural,
            n,
            vi,
            &opts,
        )?);
        Ok(ShilAnalysis {
            nonlinearity,
            tank,
            n,
            vi,
            prechar,
            threads,
        })
    }

    /// Like [`Self::new`], but serving the natural solve and the
    /// pre-characterization (the traced `C_{T_f,1}`) from `cache` when the
    /// oscillator's elements carry fingerprints (falling back to an
    /// uncached build otherwise).
    ///
    /// A sweep that constructs many analyses over the same oscillator —
    /// e.g. one per injection frequency, as the Tab. 1/Fig. 14 experiments
    /// do — pays for a single build; every further construction is a
    /// lookup.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::new`].
    pub fn new_cached(
        nonlinearity: &'a N,
        tank: &'a T,
        n: u32,
        vi: f64,
        opts: ShilOptions,
        cache: &PrecharCache,
    ) -> Result<Self, ShilError> {
        Self::validate(n, vi, &opts)?;
        let threads = effective_parallelism(opts.parallelism);
        let (nl_fp, tank_fp) = match (nonlinearity.fingerprint(), tank.fingerprint()) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                cache.note_uncacheable();
                return Self::new(nonlinearity, tank, n, vi, opts);
            }
        };
        let natural_fp = natural_options_fingerprint(&opts.natural);
        let natural = cache.natural_or_insert(
            NaturalKey {
                nonlinearity: nl_fp,
                tank: tank_fp,
                options: natural_fp,
            },
            || natural_oscillation(nonlinearity, tank, &opts.natural),
        )?;
        let key = PrecharKey {
            nonlinearity: nl_fp,
            tank: tank_fp,
            n,
            vi_bits: vi.to_bits(),
            options: grid_options_fingerprint(&opts),
        };
        let prechar = cache.grid_or_insert(key, || {
            Self::build_prechar(nonlinearity, tank, natural, n, vi, &opts)
        })?;
        Ok(ShilAnalysis {
            nonlinearity,
            tank,
            n,
            vi,
            prechar,
            threads,
        })
    }

    fn validate(n: u32, vi: f64, opts: &ShilOptions) -> Result<(), ShilError> {
        if n == 0 {
            return Err(ShilError::InvalidParameter(
                "sub-harmonic order n must be ≥ 1".into(),
            ));
        }
        if !(vi > 0.0 && vi.is_finite()) {
            return Err(ShilError::InvalidParameter(format!(
                "injection magnitude must be positive and finite, got {vi}"
            )));
        }
        if opts.phase_points < 2 || opts.amplitude_points < 2 {
            return Err(ShilError::InvalidParameter(format!(
                "grid needs at least 2 points per axis, got {}×{}",
                opts.phase_points, opts.amplitude_points
            )));
        }
        // NaN fails all of these comparisons, so non-finite factors are
        // rejected here instead of producing NaN grid axes downstream.
        if !(opts.a_min_factor > 0.0
            && opts.a_max_factor > opts.a_min_factor
            && opts.a_max_factor.is_finite())
        {
            return Err(ShilError::InvalidParameter(format!(
                "amplitude bounds must satisfy 0 < a_min_factor < a_max_factor < ∞, \
                 got [{}, {}]",
                opts.a_min_factor, opts.a_max_factor
            )));
        }
        if opts.harmonics.samples == 0 {
            return Err(ShilError::InvalidParameter(
                "harmonic sampling needs at least one sample".into(),
            ));
        }
        Ok(())
    }

    fn build_prechar(
        nonlinearity: &N,
        tank: &T,
        natural: NaturalOscillation,
        n: u32,
        vi: f64,
        opts: &ShilOptions,
    ) -> Result<Precharacterization, ShilError> {
        let r = tank.peak_resistance();
        let a_lo = opts.a_min_factor * natural.amplitude;
        let a_hi = opts.a_max_factor * natural.amplitude;
        let ny = opts.amplitude_points;
        let amplitudes: Vec<f64> = (0..ny)
            .map(|j| a_lo + (a_hi - a_lo) * j as f64 / (ny - 1) as f64)
            .collect();
        // NaN-rejecting strict-increase check: the lazily filled grids take
        // this axis as it is.
        if amplitudes
            .windows(2)
            .any(|w| w[1].partial_cmp(&w[0]) != Some(std::cmp::Ordering::Greater))
        {
            return Err(ShilError::InvalidParameter(format!(
                "amplitude axis [{a_lo}, {a_hi}] is not strictly increasing"
            )));
        }
        let table = HarmonicTable::new(n, 1, &opts.harmonics);
        let track = {
            let _span = shil_observe::span("shil_core_track");
            trace_unity(nonlinearity, r, vi, &table, opts.phase_points, &amplitudes)?
        };
        shil_observe::counter_add("shil_core_track_evals_total", track.evals);
        Ok(Precharacterization {
            natural,
            r,
            table,
            phase_points: opts.phase_points,
            amplitudes,
            tf_unity: track.curves,
            phase_track: track.angles,
            trace_track: track.traces,
            non_finite_evals: track.non_finite,
            grids: OnceLock::new(),
        })
    }

    /// The natural oscillation the amplitude window was scaled from.
    pub fn natural(&self) -> NaturalOscillation {
        self.prechar.natural
    }

    /// Sub-harmonic order `n`.
    pub fn order(&self) -> u32 {
        self.n
    }

    /// Injection phasor magnitude `V_i`.
    pub fn injection(&self) -> f64 {
        self.vi
    }

    /// The `T_f` and `∠−I₁` grids of [`precharacterize`], filled on first
    /// use and then held by the (possibly shared) pre-characterization.
    fn grids(&self) -> &(Grid2, Grid2) {
        let p = &self.prechar;
        p.grids.get_or_init(|| {
            precharacterize(
                self.nonlinearity,
                p.r,
                self.vi,
                p.phase_points,
                &p.amplitudes,
                &p.table,
                self.threads,
            )
            .expect("phase points and amplitude axis are validated at construction")
        })
    }

    /// The pre-characterized `T_f(φ, A)` grid (x = φ, y = A), filled on
    /// first use.
    pub fn tf_grid(&self) -> &Grid2 {
        &self.grids().0
    }

    /// The pre-characterized `∠−I₁(φ, A)` grid, wrapped to `(−π, π]`,
    /// filled on first use.
    pub fn angle_grid(&self) -> &Grid2 {
        &self.grids().1
    }

    /// The injection-frequency-invariant level set `C_{T_f,1}`, as traced
    /// by continuation.
    pub fn tf_unity_curve(&self) -> &[Polyline] {
        &self.prechar.tf_unity
    }

    /// Extracts the isoline `∠−I₁ = level` from the angle grid, masking the
    /// wrap-around branch cut. Only the figure accessors use it; lock
    /// solutions come from the phase track.
    fn angle_isoline(&self, level: f64) -> Result<Vec<Polyline>, ShilError> {
        let angle_grid = self.angle_grid();
        let nx = angle_grid.nx();
        let ny = angle_grid.ny();
        let mut data = Vec::with_capacity(nx * ny);
        for j in 0..ny {
            for i in 0..nx {
                let d = wrap_angle(angle_grid.value(i, j) - level);
                // Mask the half of the circle nearest the branch cut so
                // marching squares never sees the ±π jump.
                data.push(if d.abs() > FRAC_PI_2 { f64::NAN } else { d });
            }
        }
        let g = Grid2::from_data(angle_grid.xs().to_vec(), angle_grid.ys().to_vec(), data)?;
        Ok(marching_squares(&g, 0.0)?)
    }

    /// Exact residuals of the lock equations at `(φ, A)`, batched through
    /// the caller's scratch buffer.
    fn residuals_with(&self, phi: f64, a: f64, neg_phi_d: f64, buf: &mut Vec<f64>) -> (f64, f64) {
        let i1 = self
            .prechar
            .table
            .i1(self.nonlinearity, a, self.vi, phi, buf);
        let tf = -self.prechar.r * i1.re / (a / 2.0);
        let ang = wrap_angle((-i1).arg() - neg_phi_d);
        (tf - 1.0, ang)
    }

    /// Exact residuals of the lock equations at `(φ, A)`:
    /// `(T_f − 1, ∠−I₁ − (−φ_d))`. Both vanish at a lock solution — useful
    /// for validating refined solutions against the non-gridded equations.
    pub fn residuals(&self, phi: f64, a: f64, neg_phi_d: f64) -> (f64, f64) {
        let mut buf = self.prechar.table.scratch();
        self.residuals_with(phi, a, neg_phi_d, &mut buf)
    }

    /// Classifies the stability of a refined solution from the local
    /// restoring-force field (§VI-B3).
    ///
    /// Perturbation dynamics: `dA/dt ∝ (T_F − 1)·A`, with the effective
    /// loop gain `T_F = R·|I₁|·|cos φ_d| / (A/2)` (paper eq. 5), and
    /// `dφ/dt ∝ −(∠−I₁ + φ_d)`. The solution is stable iff the 2×2
    /// Jacobian of this field has positive determinant and negative trace.
    /// Central differences; each of the four stencil points costs one exact
    /// `I₁` evaluation, which yields both fields.
    fn classify(&self, phi: f64, a: f64, phi_d: f64) -> (bool, f64, f64) {
        let ha = 1e-5 * self.prechar.natural.amplitude;
        let hp = 1e-5;
        let mut buf = self.prechar.table.scratch();
        let mut field = |p: f64, aa: f64| {
            let i1 = self
                .prechar
                .table
                .i1(self.nonlinearity, aa, self.vi, p, &mut buf);
            let gain = self.prechar.r * i1.abs() * phi_d.cos().abs() / (aa / 2.0) - 1.0;
            (gain, wrap_angle((-i1).arg() + phi_d))
        };
        let (ga_hi, pa_hi) = field(phi, a + ha);
        let (ga_lo, pa_lo) = field(phi, a - ha);
        let (gp_hi, pp_hi) = field(phi + hp, a);
        let (gp_lo, pp_lo) = field(phi - hp, a);
        let dga = (ga_hi - ga_lo) / (2.0 * ha);
        let dgp = (gp_hi - gp_lo) / (2.0 * hp);
        let dpa = (pa_hi - pa_lo) / (2.0 * ha);
        let dpp = (pp_hi - pp_lo) / (2.0 * hp);
        // J = [[∂Ȧ/∂A, ∂Ȧ/∂φ], [∂φ̇/∂A, ∂φ̇/∂φ]] with Ȧ = (T_F−1)A, φ̇ = −(∠−I₁+φ_d).
        let j11 = dga * a;
        let j12 = dgp * a;
        let j21 = -dpa;
        let j22 = -dpp;
        let det = j11 * j22 - j12 * j21;
        let trace = j11 + j22;
        (det > 0.0 && trace < 0.0, det, trace)
    }

    /// The graphical intersections of `C_{T_f,1}` with the isoline
    /// `∠−I₁ = −φ_d`, read off the phase track: a track segment on which
    /// `wrap(∠−I₁ + φ_d)` changes sign holds one, at the linearly
    /// interpolated point. Segments with an end in the half-circle nearest
    /// the branch cut (`|·| > π/2`) are skipped — the rule the isoline mask
    /// of [`Self::graphical_curves`] applies. Each hit carries its
    /// `(polyline, segment)` index.
    fn track_crossings(&self, phi_d: f64) -> Vec<(Point, TrackSegment)> {
        // Offsets within 1e-12 rad of the level count as on it, and zeros as
        // positive (as in marching squares): the seam vertices at φ = 0 and
        // φ = 2π are one point of the periodic curve, and rounding can give
        // them opposite signs when the isoline passes through that point.
        let offset = |theta: f64| {
            let d = wrap_angle(theta + phi_d);
            if d.abs() <= 1e-12 {
                0.0
            } else {
                d
            }
        };
        let mut hits = Vec::new();
        for (i, (line, theta)) in self
            .prechar
            .tf_unity
            .iter()
            .zip(&self.prechar.phase_track)
            .enumerate()
        {
            for (k, (pts, th)) in line.points.windows(2).zip(theta.windows(2)).enumerate() {
                let (d0, d1) = (offset(th[0]), offset(th[1]));
                // NaN fails the comparison and is skipped with the cut.
                if !(d0.abs() <= FRAC_PI_2 && d1.abs() <= FRAC_PI_2) {
                    continue;
                }
                if (d0 >= 0.0) == (d1 >= 0.0) {
                    continue;
                }
                let t = d0 / (d0 - d1);
                let p = Point::new(
                    pts[0].x + t * (pts[1].x - pts[0].x),
                    pts[0].y + t * (pts[1].y - pts[0].y),
                );
                hits.push((p, (i, k)));
            }
        }
        hits
    }

    /// All lock solutions at a given tank phase `φ_d` (radians), over the
    /// full `φ ∈ [0, 2π)` plane — so each physical lock appears with all of
    /// its `n` state copies (§VI-B4).
    ///
    /// # Errors
    ///
    /// - [`ShilError::InvalidParameter`] if `|φ_d| ≥ π/2`.
    pub fn solutions_at_phase(&self, phi_d: f64) -> Result<Vec<ShilSolution>, ShilError> {
        Ok(self
            .solutions_on_track(phi_d)?
            .into_iter()
            .map(|(s, _)| s)
            .collect())
    }

    /// [`Self::solutions_at_phase`], each solution tagged with the
    /// `(polyline, segment)` of the track crossing it was polished from.
    fn solutions_on_track(
        &self,
        phi_d: f64,
    ) -> Result<Vec<(ShilSolution, TrackSegment)>, ShilError> {
        // The explicit NaN branch matters: NaN sails through a plain `>=`
        // comparison and would poison every crossing test.
        if phi_d.is_nan() || phi_d.abs() >= FRAC_PI_2 {
            return Err(ShilError::InvalidParameter(format!(
                "tank phase must lie in (−π/2, π/2), got {phi_d}"
            )));
        }
        let neg_phi_d = -phi_d;
        let (raw, segments): (Vec<Point>, Vec<TrackSegment>) =
            self.track_crossings(phi_d).into_iter().unzip();

        // Newton-polish every graphical intersection (parallel when the
        // analysis has workers), then dedup + classify serially in the
        // original order — identical results at any thread count.
        let refined = self.refine_all(&raw, neg_phi_d);

        // A non-finite evaluation may have cut the track short, so some
        // intersections may simply be missing; anything we do find is at
        // best grid-accurate.
        let grid_degraded = self.prechar.non_finite_evals > 0;

        let mut solutions: Vec<(ShilSolution, TrackSegment)> = Vec::new();
        for (refined, segment) in refined.into_iter().zip(segments) {
            let (phi, a, fell_back) = match refined {
                Some(pa) => pa,
                None => continue,
            };
            let phi_wrapped = wrap_angle(phi);
            // Deduplicate (neighboring crossings can converge together).
            let dup = solutions.iter().any(|(s, _)| {
                shil_numerics::angle_diff(s.phase, phi_wrapped).abs() < 1e-4
                    && (s.amplitude - a).abs() < 1e-6 * self.prechar.natural.amplitude.max(1.0)
            });
            if dup {
                continue;
            }
            let (stable, det, trace) = self.classify(phi, a, phi_d);
            // Non-finite classification derivatives (fault injection, grid
            // edges): report the solution as unstable and degraded rather
            // than leaking NaN into user-facing fields.
            let classify_poisoned = !det.is_finite() || !trace.is_finite();
            let solution = ShilSolution {
                amplitude: a,
                phase: phi_wrapped,
                stable: stable && !classify_poisoned,
                jacobian_det: if classify_poisoned { 0.0 } else { det },
                jacobian_trace: if classify_poisoned { 0.0 } else { trace },
                degraded: fell_back || classify_poisoned || grid_degraded,
            };
            solutions.push((solution, segment));
        }
        solutions.sort_by(|a, b| a.0.phase.total_cmp(&b.0.phase));
        Ok(solutions)
    }

    /// Newton-polishes each graphical intersection, fanning the (mutually
    /// independent) polishes across the analysis' worker threads. Output
    /// order matches input order, and each polish runs the same expressions
    /// regardless of the partition, so the result is independent of the
    /// thread count.
    fn refine_all(&self, raw: &[Point], neg_phi_d: f64) -> Vec<Option<(f64, f64, bool)>> {
        if self.threads <= 1 || raw.len() < 2 {
            let mut buf = self.prechar.table.scratch();
            return raw
                .iter()
                .map(|&p| self.refine(p, neg_phi_d, &mut buf))
                .collect();
        }
        let mut refined: Vec<Option<(f64, f64, bool)>> = vec![None; raw.len()];
        let per = raw.len().div_ceil(self.threads);
        std::thread::scope(|scope| {
            for (points, out) in raw.chunks(per).zip(refined.chunks_mut(per)) {
                scope.spawn(move || {
                    let mut buf = self.prechar.table.scratch();
                    for (p, slot) in points.iter().zip(out.iter_mut()) {
                        *slot = self.refine(*p, neg_phi_d, &mut buf);
                    }
                });
            }
        });
        refined
    }

    /// Polishes a graphical intersection against the exact residuals with
    /// the escalation ladder: damped Newton from the intersection, then
    /// Newton restarted from the four grid-neighbor seeds and deterministic
    /// perturbations, then — if every solve fails but the exact residuals at
    /// the raw intersection are finite and small — the coarse graphical
    /// answer itself, flagged as degraded (`true` in the returned triple).
    ///
    /// Returns `None` only for genuinely spurious intersections: polish
    /// lands out of the amplitude range, or the raw point's residuals are
    /// non-finite/large.
    fn refine(&self, p: Point, neg_phi_d: f64, buf: &mut Vec<f64>) -> Option<(f64, f64, bool)> {
        let amps = &self.prechar.amplitudes;
        let (a_lo, a_hi) = (amps[0], amps[amps.len() - 1]);
        let in_range = |phi: f64, a: f64| {
            a.is_finite() && phi.is_finite() && a >= 0.25 * a_lo && a <= 1.2 * a_hi
        };
        // Grid-neighbor seeds: one cell spacing away along each axis.
        let dphi = self.prechar.phase_step();
        let da = (a_hi - a_lo) / (amps.len() - 1) as f64;
        let neighbor_seeds = [
            vec![p.x + dphi, p.y],
            vec![p.x - dphi, p.y],
            vec![p.x, p.y + da],
            vec![p.x, p.y - da],
        ];
        let fallback_opts = FallbackOptions {
            newton: NewtonOptions {
                tol_residual: 1e-11,
                max_iter: 60,
                ..NewtonOptions::default()
            },
            random_restarts: 2,
            perturbation: 0.02,
            ..FallbackOptions::default()
        };
        if let Ok(sol) = newton_with_restarts(
            |x, r| {
                let (r0, r1) = self.residuals_with(x[0], x[1], neg_phi_d, buf);
                r[0] = r0;
                r[1] = r1;
            },
            &[p.x, p.y],
            &neighbor_seeds,
            &fallback_opts,
        ) {
            let (phi, a) = (sol.x[0], sol.x[1]);
            if in_range(phi, a) {
                return Some((phi, a, false));
            }
            // A converged polish outside the range means the intersection
            // was a grid artifact; do not resurrect it via the coarse rung.
            return None;
        }
        // Terminal rung: accept the coarse graphical intersection when the
        // exact equations nearly hold there. The tolerance is grid-scale
        // loose on purpose — this is the "degrade to the graphical answer"
        // path, not a convergence claim — and it still rejects spurious
        // intersections, whose residuals are far from zero.
        let (r0, r1) = self.residuals_with(p.x, p.y, neg_phi_d, buf);
        if r0.is_finite()
            && r1.is_finite()
            && r0.abs() < 0.05
            && r1.abs() < 0.05
            && in_range(p.x, p.y)
        {
            return Some((p.x, p.y, true));
        }
        None
    }

    /// All lock solutions at a given **injection** frequency (hertz); the
    /// oscillator runs at `f_injection/n`.
    ///
    /// # Errors
    ///
    /// - [`ShilError::InvalidParameter`] for a non-positive frequency.
    pub fn solutions_at_injection(
        &self,
        f_injection_hz: f64,
    ) -> Result<Vec<ShilSolution>, ShilError> {
        // NaN-rejecting positivity check.
        if f_injection_hz.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(ShilError::InvalidParameter(format!(
                "injection frequency must be positive, got {f_injection_hz}"
            )));
        }
        let omega_i = std::f64::consts::TAU * f_injection_hz / self.n as f64;
        let phi_d = self.tank.phase(omega_i);
        self.solutions_at_phase(phi_d)
    }

    /// The full graphical picture at one tank phase: level set, isoline,
    /// refined solutions (Fig. 7 at a glance).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::solutions_at_phase`].
    pub fn graphical_curves(&self, phi_d: f64) -> Result<GraphicalCurves, ShilError> {
        let solutions = self.solutions_at_phase(phi_d)?;
        Ok(GraphicalCurves {
            neg_phi_d: -phi_d,
            tf_unity: self.prechar.tf_unity.clone(),
            angle_isoline: self.angle_isoline(-phi_d)?,
            solutions,
        })
    }

    /// Isolines of `∠−I₁` at several levels (the Fig. 10 visualization).
    ///
    /// # Errors
    ///
    /// Propagates grid extraction failures.
    pub fn angle_isolines(&self, levels: &[f64]) -> Result<Vec<(f64, Vec<Polyline>)>, ShilError> {
        levels
            .iter()
            .map(|&lv| Ok((lv, self.angle_isoline(lv)?)))
            .collect()
    }

    /// The `n` physical lock states of a solution (§VI-B4), reported as the
    /// oscillator's phase offsets relative to a reference signal at
    /// `f_injection/n` that is phase-locked to the injection (the
    /// measurement of Figs. 15/19).
    ///
    /// In the `(φ, A)` solution plane all `n` states coincide — shifting
    /// the oscillation by a full injection period leaves the relative phase
    /// `φ` unchanged — but the oscillator's absolute phase takes the `n`
    /// equally spaced values `(−φ_s + 2πk)/n`, `k = 0..n`.
    pub fn state_phases(&self, solution: &ShilSolution) -> Vec<f64> {
        let nf = self.n as f64;
        (0..self.n)
            .map(|k| wrap_angle((-solution.phase + std::f64::consts::TAU * k as f64) / nf))
            .collect()
    }

    /// `(stable lock exists, any solution was degraded)` at `φ_d` — the
    /// lock range's confirmation probes need both, so the boundary it
    /// reports can carry the degradation of the solutions it consulted.
    fn stable_lock_probe(&self, phi_d: f64) -> (bool, bool) {
        shil_observe::incr("shil_core_lock_probes_total");
        self.solutions_at_phase(phi_d)
            .map(|sols| {
                (
                    sols.iter().any(|s| s.stable),
                    sols.iter().any(|s| s.degraded),
                )
            })
            .unwrap_or((false, false))
    }

    /// Splits the phase track into [`TrackArc`]s: maximal runs of vertices
    /// with `|φ_d| < π/2`, cut at every local extremum of `φ_d` (a fold,
    /// where `det J = 0`) and at every sign change of the trace estimate
    /// the tracer stored with each vertex. The estimate only places arc
    /// splits: arc stability and the refined lock-range end come from the
    /// exact equations. Neighboring arcs share their cut vertex, so their
    /// `φ_d` images touch.
    fn track_arcs(&self) -> Vec<TrackArc> {
        let mut arcs = Vec::new();
        for (line, (theta, trace)) in self
            .prechar
            .phase_track
            .iter()
            .zip(&self.prechar.trace_track)
            .enumerate()
        {
            let phi_d = |k: usize| -theta[k];
            // NaN fails the comparison: non-finite vertices end a run.
            let valid = |k: usize| phi_d(k).abs() < FRAC_PI_2;
            let mut k = 0;
            while k < theta.len() {
                if !valid(k) {
                    k += 1;
                    continue;
                }
                let (mut first, mut first_end, mut dir) = (k, ArcEnd::Open, 0.0);
                let mut j = k + 1;
                while j < theta.len() && valid(j) {
                    let step = phi_d(j) - phi_d(j - 1);
                    let turn = dir != 0.0 && step != 0.0 && step.signum() != dir;
                    let flip = trace[j - 1] * trace[j] < 0.0;
                    if (turn || flip) && j - 1 > first {
                        let end = if turn { ArcEnd::Fold } else { ArcEnd::Trace };
                        arcs.push(TrackArc::new(line, first, j - 1, [first_end, end], theta));
                        (first, first_end, dir) = (j - 1, end, 0.0);
                    }
                    if dir == 0.0 && step != 0.0 {
                        dir = step.signum();
                    }
                    j += 1;
                }
                arcs.push(TrackArc::new(
                    line,
                    first,
                    j - 1,
                    [first_end, ArcEnd::Open],
                    theta,
                ));
                k = j;
            }
        }
        arcs
    }

    /// Exact stability of an arc, classified at its middle (a vertex, or the
    /// midpoint of the middle segment): the point farthest from the folds
    /// at its ends, where `det J` vanishes.
    fn arc_is_stable(&self, arc: &TrackArc) -> bool {
        let pts = &self.prechar.tf_unity[arc.line].points;
        let theta = &self.prechar.phase_track[arc.line];
        let m = (arc.first + arc.last) / 2;
        let (p, th) = if (arc.last - arc.first) % 2 == 1 {
            (
                Point::new(
                    0.5 * (pts[m].x + pts[m + 1].x),
                    0.5 * (pts[m].y + pts[m + 1].y),
                ),
                theta[m] + 0.5 * wrap_angle(theta[m + 1] - theta[m]),
            )
        } else {
            (pts[m], theta[m])
        };
        let (stable, det, trace) = self.classify(p.x, p.y, -th);
        stable && det.is_finite() && trace.is_finite()
    }

    /// Projects `(φ, a_guess)` onto the exact `T_f = 1` along `A` by secant
    /// iterations (one `I₁` evaluation each). Returns `(A, ∠−I₁)` at the
    /// projected point, or `None` if the iteration breaks down.
    fn project_to_unity(&self, phi: f64, a_guess: f64, buf: &mut Vec<f64>) -> Option<(f64, f64)> {
        let mut eval = |a: f64| {
            let i1 = self
                .prechar
                .table
                .i1(self.nonlinearity, a, self.vi, phi, buf);
            (-self.prechar.r * i1.re / (a / 2.0) - 1.0, neg_angle(i1))
        };
        let mut a_prev = a_guess * (1.0 + 1e-6);
        let mut r_prev = eval(a_prev).0;
        let mut a = a_guess;
        for _ in 0..30 {
            let (r, theta) = eval(a);
            if !(r.is_finite() && a > 0.0) {
                return None;
            }
            let step = r * (a - a_prev) / (r - r_prev);
            if r.abs() < 1e-13 || step.abs() <= 1e-15 * a {
                return Some((a, theta));
            }
            if !step.is_finite() {
                return None;
            }
            (a_prev, r_prev) = (a, r);
            a -= step;
        }
        None
    }

    /// Refines a fold end of the lock range: the maximum of `φ_d` along the
    /// exact `C_{T_f,1}` for `φ` within one grid cell of track vertex `k`,
    /// with `A` projected onto `T_f = 1` at every trial `φ`. `I₁` is
    /// `2π`-periodic in `φ`, so a fold at the `φ = 0 ≡ 2π` seam needs no
    /// special case.
    fn refine_fold(&self, line: usize, k: usize) -> Option<f64> {
        let p = self.prechar.tf_unity[line].points[k];
        let dx = self.prechar.phase_step();
        let mut buf = self.prechar.table.scratch();
        let mut a_guess = p.y;
        let (_, neg) = minimize(
            |phi| match self.project_to_unity(phi, a_guess, &mut buf) {
                Some((a, theta)) => {
                    a_guess = a;
                    theta
                }
                None => f64::INFINITY,
            },
            p.x - dx,
            p.x + dx,
            1e-9,
            60,
        );
        neg.is_finite().then_some(-neg)
    }

    /// Refines a trace end of the lock range: the root of the exact §VI-B3
    /// trace along the exact `C_{T_f,1}`, bracketed within one grid cell of
    /// track vertex `k`. Returns `φ_d` at the root.
    fn refine_trace(&self, line: usize, k: usize) -> Option<f64> {
        let p = self.prechar.tf_unity[line].points[k];
        let dx = self.prechar.phase_step();
        let mut buf = self.prechar.table.scratch();
        let mut on_curve = |phi: f64| self.project_to_unity(phi, p.y, &mut buf);
        let mut trace = |phi: f64| match on_curve(phi) {
            Some((a, theta)) => self.classify(phi, a, -theta).2,
            None => f64::NAN,
        };
        let root = brent(&mut trace, p.x - dx, p.x + dx, 1e-10, 100).ok()?;
        on_curve(root).map(|(_, theta)| -theta)
    }

    /// Predicts the lock range (paper §III-C, Fig. 10; validated against
    /// Tables 1–2) from one walk along the phase track.
    ///
    /// 1. The stable solution at `φ_d = 0` (largest amplitude) must exist,
    ///    else [`ShilError::NoLock`]; its track segment seeds the walk.
    /// 2. The track is split into arcs at folds of `φ_d(s)` and at sign
    ///    changes of the trace ([`Self::track_arcs`]); each arc whose image
    ///    reaches above 0 is classified exactly at one point.
    /// 3. `φ_d_max` is the supremum of the connected component containing
    ///    0 of the union of the stable arcs' `φ_d` images, capped at
    ///    `0.999·π/2`.
    /// 4. A 1-D solve on the exact equations refines that end: the maximum
    ///    of `φ_d` at a fold, the root of the trace at a stability change.
    /// 5. Two [`Self::solutions_at_phase`] probes at `φ_d_max ∓ δ` confirm
    ///    it: a stable lock inside, none outside. `δ` is the `φ_d` drop
    ///    from the refined end to the lower of the end vertex's two track
    ///    neighbors — one track segment, so the inner probe's crossings sit
    ///    at least a segment from the fold, where the track resolves them —
    ///    and at least twice the gap between the refined end and the end
    ///    vertex itself.
    ///
    /// The tank phase inverse maps `±φ_d_max` back to the oscillator and
    /// injection frequencies; by the reflection symmetry of §VI-B3 the
    /// range is symmetric in `±φ_d`. The range is flagged
    /// [`LockRange::degraded`] when a consulted solution was degraded, the
    /// end could not be refined, or a confirmation probe disagreed.
    ///
    /// # Errors
    ///
    /// - [`ShilError::NoLock`] when even `φ_d = 0` admits no stable
    ///   solution.
    pub fn lock_range(&self) -> Result<LockRange, ShilError> {
        let _span = shil_observe::span("shil_core_lock_range");
        let (center, (seed_line, seed_seg)) = self
            .solutions_on_track(0.0)?
            .into_iter()
            .filter(|(s, _)| s.stable)
            .max_by(|a, b| a.0.amplitude.total_cmp(&b.0.amplitude))
            .ok_or(ShilError::NoLock)?;
        let mut degraded = center.degraded;

        // The arc through the center lock seeds the component; an arc
        // classification that disagrees with the center solve degrades it.
        // Arcs entirely below 0 cannot extend the component and are not
        // classified.
        let arcs = self.track_arcs();
        let seed = arcs
            .iter()
            .position(|a| a.line == seed_line && a.first <= seed_seg && seed_seg < a.last)
            .ok_or(ShilError::NoLock)?;
        let stable: Vec<bool> = arcs
            .iter()
            .enumerate()
            .map(|(i, arc)| (arc.hi > 0.0 || i == seed) && self.arc_is_stable(arc))
            .collect();
        degraded |= !stable[seed];
        let mut top = seed;
        loop {
            let hi = arcs[top].hi;
            match (0..arcs.len())
                .filter(|&i| stable[i] && arcs[i].lo <= hi + 1e-12 && arcs[i].hi > hi)
                .max_by(|&i, &j| arcs[i].hi.total_cmp(&arcs[j].hi))
            {
                Some(next) => top = next,
                None => break,
            }
        }

        let cap = FRAC_PI_2 * 0.999;
        let arc = &arcs[top];
        let (k, end) = arc.top();
        let phi_d_max = if arc.hi >= cap {
            cap
        } else {
            let refined = match end {
                ArcEnd::Trace => self.refine_trace(arc.line, k),
                ArcEnd::Fold | ArcEnd::Open => self.refine_fold(arc.line, k),
            };
            degraded |= refined.is_none();
            refined.unwrap_or(arc.hi).clamp(0.0, cap)
        };

        // Confirmation probes one track segment inside and outside.
        let theta = &self.prechar.phase_track[arc.line];
        let vertex_gap = (phi_d_max + theta[k]).abs();
        let delta = [k.wrapping_sub(1), k + 1]
            .into_iter()
            .filter_map(|j| theta.get(j).filter(|t| t.abs() < FRAC_PI_2))
            .map(|t| phi_d_max + t)
            .fold(2.0 * vertex_gap, f64::max)
            .max(1e-12);
        let (inside, inside_degraded) = self.stable_lock_probe((phi_d_max - delta).max(0.0));
        let (outside, outside_degraded) = if phi_d_max + delta < FRAC_PI_2 {
            self.stable_lock_probe(phi_d_max + delta)
        } else {
            (false, false)
        };
        degraded |= !inside || outside || inside_degraded || outside_degraded;

        // φ_d > 0 ⇒ below resonance; the ± pair gives the two edges.
        let w_lo = self.tank.omega_for_phase(phi_d_max)?;
        let w_hi = self.tank.omega_for_phase(-phi_d_max)?;
        let lower_oscillator_hz = w_lo / std::f64::consts::TAU;
        let upper_oscillator_hz = w_hi / std::f64::consts::TAU;
        let nf = self.n as f64;
        Ok(LockRange {
            phi_d_max,
            lower_oscillator_hz,
            upper_oscillator_hz,
            lower_injection_hz: nf * lower_oscillator_hz,
            upper_injection_hz: nf * upper_oscillator_hz,
            injection_span_hz: nf * (upper_oscillator_hz - lower_oscillator_hz),
            amplitude_at_center: center.amplitude,
            degraded,
        })
    }
}

/// `(polyline, segment)`: segment `k` of `C_{T_f,1}` polyline `i` joins its
/// vertices `k` and `k + 1`.
type TrackSegment = (usize, usize);

/// How a [`TrackArc`] ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArcEnd {
    /// At a local extremum of `φ_d` (a saddle-node fold).
    Fold,
    /// At a sign change of the estimated trace (a stability change).
    Trace,
    /// At the end of a polyline or of the `|φ_d| < π/2` run.
    Open,
}

/// Vertices `first..=last` of `C_{T_f,1}` polyline `line`, on which `φ_d`
/// is monotone and the estimated trace keeps its sign.
#[derive(Debug, Clone, Copy)]
struct TrackArc {
    line: usize,
    first: usize,
    last: usize,
    /// How the arc ends at `first` and at `last`.
    ends: [ArcEnd; 2],
    /// The `φ_d` image of the arc's vertices, `[lo, hi]`.
    lo: f64,
    hi: f64,
    /// Whether `hi` is attained at `last` (else at `first`).
    rising: bool,
}

impl TrackArc {
    fn new(line: usize, first: usize, last: usize, ends: [ArcEnd; 2], theta: &[f64]) -> Self {
        let (a, b) = (-theta[first], -theta[last]);
        TrackArc {
            line,
            first,
            last,
            ends,
            lo: a.min(b),
            hi: a.max(b),
            rising: b > a,
        }
    }

    /// The vertex where the arc's image attains `hi`, and how it ends there.
    fn top(&self) -> (usize, ArcEnd) {
        if self.rising {
            (self.last, self.ends[1])
        } else {
            (self.first, self.ends[0])
        }
    }
}

/// Brent's minimizer: golden-section steps with parabolic interpolation,
/// to absolute tolerance `tol` in `x`, within `[a, b]`. Returns
/// `(x_min, f(x_min))`.
fn minimize(
    mut f: impl FnMut(f64) -> f64,
    mut a: f64,
    mut b: f64,
    tol: f64,
    max_iter: usize,
) -> (f64, f64) {
    const GOLDEN: f64 = 0.381_966_011_250_105_1; // (3 − √5)/2
    let mut x = a + GOLDEN * (b - a);
    let (mut w, mut v) = (x, x);
    let mut fx = f(x);
    let (mut fw, mut fv) = (fx, fx);
    let (mut d, mut e) = (0.0f64, 0.0f64);
    for _ in 0..max_iter {
        let m = 0.5 * (a + b);
        let tol1 = 1e-10 * x.abs() + tol;
        let tol2 = 2.0 * tol1;
        if (x - m).abs() <= tol2 - 0.5 * (b - a) {
            break;
        }
        let mut parabolic = false;
        if e.abs() > tol1 {
            let r = (x - w) * (fx - fv);
            let mut q = (x - v) * (fx - fw);
            let mut p = (x - v) * q - (x - w) * r;
            q = 2.0 * (q - r);
            if q > 0.0 {
                p = -p;
            } else {
                q = -q;
            }
            let e_prev = e;
            e = d;
            if p.abs() < (0.5 * q * e_prev).abs() && p > q * (a - x) && p < q * (b - x) {
                d = p / q;
                let u = x + d;
                if u - a < tol2 || b - u < tol2 {
                    d = if x < m { tol1 } else { -tol1 };
                }
                parabolic = true;
            }
        }
        if !parabolic {
            e = if x < m { b - x } else { a - x };
            d = GOLDEN * e;
        }
        let u = if d.abs() >= tol1 {
            x + d
        } else {
            x + tol1.copysign(d)
        };
        let fu = f(u);
        if fu <= fx {
            if u < x {
                b = x;
            } else {
                a = x;
            }
            (v, fv, w, fw, x, fx) = (w, fw, x, fx, u, fu);
        } else {
            if u < x {
                a = u;
            } else {
                b = u;
            }
            if fu <= fw || w == x {
                (v, fv, w, fw) = (w, fw, u, fu);
            } else if fu <= fv || v == x || v == w {
                (v, fv) = (u, fu);
            }
        }
    }
    (x, fx)
}

impl<N: ?Sized, T: ?Sized> std::fmt::Debug for ShilAnalysis<'_, N, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShilAnalysis")
            .field("n", &self.n)
            .field("vi", &self.vi)
            .field("natural", &self.prechar.natural)
            .field(
                "grid",
                &(self.prechar.phase_points, self.prechar.amplitudes.len()),
            )
            .field("threads", &self.threads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonlinearity::{NegativeTanh, Polynomial, TunnelDiode};
    use crate::tank::ParallelRlc;
    use proptest::prelude::*;
    use shil_numerics::angle_diff;
    use shil_numerics::contour::polyline_intersections;

    fn setup() -> (NegativeTanh, ParallelRlc) {
        (
            NegativeTanh::new(1e-3, 20.0),
            ParallelRlc::new(1000.0, 10e-6, 10e-9).unwrap(),
        )
    }

    fn fast_opts() -> ShilOptions {
        ShilOptions {
            phase_points: 121,
            amplitude_points: 81,
            harmonics: HarmonicOptions { samples: 256 },
            ..Default::default()
        }
    }

    #[test]
    fn grid_angles_stay_in_the_half_open_range() {
        use std::f64::consts::PI;
        // A node at exactly π is its own conjugate's angle: it mirrors to
        // π, not to −π, which lies outside (−π, π].
        assert_eq!(mirror_angle(PI).to_bits(), PI.to_bits());
        assert_eq!(mirror_angle(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(mirror_angle(-0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(mirror_angle(1.25), -1.25);
        assert_eq!(mirror_angle(-3.0), 3.0);
        assert!(mirror_angle(f64::NAN).is_nan());
    }

    #[test]
    fn precharacterize_rejects_a_phase_axis_under_two_points() {
        let (f, _t) = setup();
        let table = HarmonicTable::new(3, 1, &HarmonicOptions { samples: 64 });
        for phase_points in [0, 1] {
            let err = precharacterize(&f, 1000.0, 0.03, phase_points, &[0.1, 0.2], &table, 2);
            assert!(
                matches!(err, Err(ShilError::InvalidParameter(_))),
                "{phase_points} phase points: {err:?}"
            );
        }
    }

    #[test]
    fn construction_validates_parameters() {
        let (f, t) = setup();
        assert!(ShilAnalysis::new(&f, &t, 0, 0.03, fast_opts()).is_err());
        assert!(ShilAnalysis::new(&f, &t, 3, 0.0, fast_opts()).is_err());
        assert!(ShilAnalysis::new(&f, &t, 3, -0.1, fast_opts()).is_err());
        assert!(ShilAnalysis::new(&f, &t, 3, 0.03, fast_opts()).is_ok());
    }

    #[test]
    fn center_frequency_has_stable_unstable_pair() {
        // In the (φ, A) plane the n physical states coincide, so at the
        // center frequency exactly one stable/unstable pair appears: the
        // stable lock at φ = π and its unstable companion at φ = 0 (for the
        // odd tanh element, where ∠−I₁ = 0 on both axes).
        let (f, t) = setup();
        let an = ShilAnalysis::new(&f, &t, 3, 0.03, fast_opts()).unwrap();
        let sols = an.solutions_at_phase(0.0).unwrap();
        let stable: Vec<_> = sols.iter().filter(|s| s.stable).collect();
        let unstable: Vec<_> = sols.iter().filter(|s| !s.stable).collect();
        assert_eq!(stable.len(), 1, "stable: {stable:?}");
        assert_eq!(unstable.len(), 1, "unstable: {unstable:?}");
        assert!(shil_numerics::angle_diff(stable[0].phase, std::f64::consts::PI).abs() < 1e-3);
        assert!(unstable[0].phase.abs() < 1e-3);
    }

    #[test]
    fn shil_amplitude_drops_below_natural_at_the_band_edge() {
        // §IV observes "the value of A for SHIL is lower than that for
        // natural oscillations": A decreases with detuning, so near the
        // lock-range edge it sits clearly below the natural amplitude. At
        // exact center the difference is within the injection perturbation.
        let (f, t) = setup();
        let an = ShilAnalysis::new(&f, &t, 3, 0.03, fast_opts()).unwrap();
        let nat = an.natural().amplitude;
        let center = an.solutions_at_phase(0.0).unwrap();
        let s0 = center.iter().find(|s| s.stable).expect("stable lock");
        assert!(
            (s0.amplitude - nat).abs() < 0.01 * nat,
            "center amplitude {} vs natural {nat}",
            s0.amplitude
        );
        let lr = an.lock_range().unwrap();
        let edge = an.solutions_at_phase(0.95 * lr.phi_d_max).unwrap();
        let se = edge.iter().find(|s| s.stable).expect("stable edge lock");
        assert!(
            se.amplitude < nat,
            "edge amplitude {} vs natural {nat}",
            se.amplitude
        );
    }

    #[test]
    fn residuals_vanish_at_solutions() {
        let (f, t) = setup();
        let an = ShilAnalysis::new(&f, &t, 3, 0.03, fast_opts()).unwrap();
        for &phi_d in &[0.0, 0.1, -0.15] {
            for s in an.solutions_at_phase(phi_d).unwrap() {
                let (r0, r1) = an.residuals(s.phase, s.amplitude, -phi_d);
                assert!(r0.abs() < 1e-9, "T_f residual {r0} at φ_d = {phi_d}");
                assert!(r1.abs() < 1e-9, "angle residual {r1} at φ_d = {phi_d}");
            }
        }
    }

    #[test]
    fn detuning_shrinks_amplitude() {
        // Fig. 14: A decreases with increasing |ω_c − ω_i| up to the lock
        // boundary.
        let (f, t) = setup();
        let an = ShilAnalysis::new(&f, &t, 3, 0.03, fast_opts()).unwrap();
        let amp_at = |phi_d: f64| {
            an.solutions_at_phase(phi_d)
                .unwrap()
                .into_iter()
                .filter(|s| s.stable)
                .map(|s| s.amplitude)
                .fold(f64::NEG_INFINITY, f64::max)
        };
        // The lock boundary for this oscillator sits near φ_d ≈ 0.047, so
        // probe inside it.
        let a0 = amp_at(0.0);
        let a1 = amp_at(0.02);
        let a2 = amp_at(0.04);
        assert!(a0 > a1 && a1 > a2, "a0={a0}, a1={a1}, a2={a2}");
    }

    #[test]
    fn lock_range_is_positive_and_centered() {
        let (f, t) = setup();
        let an = ShilAnalysis::new(&f, &t, 3, 0.03, fast_opts()).unwrap();
        let lr = an.lock_range().unwrap();
        let fc = t.center_frequency_hz();
        assert!(lr.phi_d_max > 0.0 && lr.phi_d_max < std::f64::consts::FRAC_PI_2);
        assert!(lr.lower_oscillator_hz < fc && fc < lr.upper_oscillator_hz);
        assert!((lr.lower_injection_hz - 3.0 * lr.lower_oscillator_hz).abs() < 1e-6);
        assert!(
            (lr.injection_span_hz - (lr.upper_injection_hz - lr.lower_injection_hz)).abs() < 1e-9
        );
        assert!(lr.amplitude_at_center > 0.0);
        // Locking inside the range, no stable lock outside.
        assert!(an.stable_lock_probe(0.5 * lr.phi_d_max).0);
        assert!(!an.stable_lock_probe((1.05 * lr.phi_d_max).min(1.5)).0);
    }

    #[test]
    fn lock_range_grows_with_injection_strength() {
        let (f, t) = setup();
        let weak = ShilAnalysis::new(&f, &t, 3, 0.01, fast_opts())
            .unwrap()
            .lock_range()
            .unwrap();
        let strong = ShilAnalysis::new(&f, &t, 3, 0.05, fast_opts())
            .unwrap()
            .lock_range()
            .unwrap();
        assert!(
            strong.injection_span_hz > 2.0 * weak.injection_span_hz,
            "weak {} vs strong {}",
            weak.injection_span_hz,
            strong.injection_span_hz
        );
    }

    #[test]
    fn even_order_lock_is_much_weaker_through_an_odd_nonlinearity() {
        // Leading-order mixing of a 2nd-harmonic injection down to the
        // fundamental needs even-order terms that an odd f lacks; the
        // surviving 5th-order path (a³b² → cos(θ + 2φ)) is weak. The n = 2
        // lock range must therefore be far narrower than n = 3's — the
        // classic reason practical ÷2 injection dividers add asymmetry.
        let (f, t) = setup();
        let n3 = ShilAnalysis::new(&f, &t, 3, 0.03, fast_opts())
            .unwrap()
            .lock_range()
            .unwrap();
        let an2 = ShilAnalysis::new(&f, &t, 2, 0.03, fast_opts()).unwrap();
        match an2.lock_range() {
            Err(ShilError::NoLock) => {}
            Ok(lr2) => assert!(
                lr2.injection_span_hz < 0.1 * n3.injection_span_hz,
                "n=2 span {} vs n=3 span {}",
                lr2.injection_span_hz,
                n3.injection_span_hz
            ),
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn solutions_at_injection_maps_frequency_through_tank() {
        let (f, t) = setup();
        let an = ShilAnalysis::new(&f, &t, 3, 0.03, fast_opts()).unwrap();
        let fc = t.center_frequency_hz();
        let sols_center = an.solutions_at_injection(3.0 * fc).unwrap();
        let direct = an.solutions_at_phase(0.0).unwrap();
        assert_eq!(sols_center.len(), direct.len());
        assert!(an.solutions_at_injection(-1.0).is_err());
    }

    #[test]
    fn graphical_curves_expose_the_procedure() {
        let (f, t) = setup();
        let an = ShilAnalysis::new(&f, &t, 3, 0.03, fast_opts()).unwrap();
        let g = an.graphical_curves(0.1).unwrap();
        assert!(!g.tf_unity.is_empty(), "C_{{T_f,1}} missing");
        assert!(!g.angle_isoline.is_empty(), "isoline missing");
        assert_eq!(g.neg_phi_d, -0.1);
        // Solutions lie on both curve families (within grid tolerance).
        for s in &g.solutions {
            let p = Point::new(
                if s.phase < 0.0 {
                    s.phase + std::f64::consts::TAU
                } else {
                    s.phase
                },
                s.amplitude,
            );
            let near_tf = g
                .tf_unity
                .iter()
                .filter_map(|c| {
                    c.points
                        .iter()
                        .map(|q| q.distance(p))
                        .min_by(|a, b| a.partial_cmp(b).expect("finite"))
                })
                .fold(f64::INFINITY, f64::min);
            assert!(near_tf < 0.1, "solution far from C_Tf1: {near_tf}");
        }
    }

    #[test]
    fn state_phases_are_equally_spaced() {
        let (f, t) = setup();
        let an = ShilAnalysis::new(&f, &t, 3, 0.03, fast_opts()).unwrap();
        let sols = an.solutions_at_phase(0.02).unwrap();
        let s = sols.iter().find(|s| s.stable).expect("stable solution");
        let states = an.state_phases(s);
        assert_eq!(states.len(), 3);
        // Gaps of exactly 2π/3 (§VI-B4), independent of the lock phase.
        for w in 0..3 {
            let gap = shil_numerics::angle_diff(states[(w + 1) % 3], states[w]);
            assert!(
                (gap.abs() - std::f64::consts::TAU / 3.0).abs() < 1e-12,
                "gap {gap}"
            );
        }
        // State 0 is the lock phase divided down by n.
        assert!((states[0] - wrap_angle(-s.phase / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn fhil_special_case_n1_locks() {
        // §III-C: "this viewpoint is general and also works for n = 1."
        let (f, t) = setup();
        let an = ShilAnalysis::new(&f, &t, 1, 0.03, fast_opts()).unwrap();
        let sols = an.solutions_at_phase(0.0).unwrap();
        assert!(sols.iter().any(|s| s.stable));
        let lr = an.lock_range().unwrap();
        assert!(lr.injection_span_hz > 0.0);
        // n = 1: injection and oscillator frequencies coincide.
        assert!((lr.lower_injection_hz - lr.lower_oscillator_hz).abs() < 1e-9);
    }

    #[test]
    fn angle_isolines_for_figure_10() {
        let (f, t) = setup();
        let an = ShilAnalysis::new(&f, &t, 3, 0.03, fast_opts()).unwrap();
        let iso = an.angle_isolines(&[-0.2, -0.1, 0.0, 0.1, 0.2]).unwrap();
        assert_eq!(iso.len(), 5);
        // The zero isoline exists (locks at resonance).
        let zero = iso.iter().find(|(l, _)| *l == 0.0).expect("level 0");
        assert!(!zero.1.is_empty());
    }

    #[test]
    fn track_splits_at_the_two_folds_into_one_stable_arc() {
        // The odd tanh element: `φ_d(s)` along `C_{T_f,1}` swings once
        // through ±φ_d_max, so the track has two folds; the arc between
        // them through the stable lock at φ = π is the only stable one,
        // and its image is symmetric about 0.
        let (f, t) = setup();
        let an = ShilAnalysis::new(&f, &t, 3, 0.03, fast_opts()).unwrap();
        let arcs = an.track_arcs();
        let stable: Vec<&TrackArc> = arcs.iter().filter(|a| an.arc_is_stable(a)).collect();
        assert_eq!(stable.len(), 1, "{arcs:?}");
        let arc = stable[0];
        assert_eq!(arc.ends, [ArcEnd::Fold, ArcEnd::Fold], "{arc:?}");
        assert!((arc.hi + arc.lo).abs() < 1e-3 * arc.hi, "{arc:?}");
        let lr = an.lock_range().unwrap();
        assert!(lr.phi_d_max >= arc.hi && lr.phi_d_max < arc.hi * (1.0 + 1e-3));
        assert!(!lr.degraded);
    }

    #[test]
    fn minimize_finds_interior_and_edge_minima() {
        let (x, fx) = minimize(|x| (x - 0.3).powi(2) + 1.0, 0.0, 1.0, 1e-10, 100);
        assert!(
            (x - 0.3).abs() < 1e-8 && (fx - 1.0).abs() < 1e-15,
            "{x} {fx}"
        );
        let (x, _) = minimize(|x| -x.cos(), -1.0, 2.0, 1e-10, 100);
        assert!(x.abs() < 1e-8, "{x}");
        let (x, _) = minimize(|x| x, 0.0, 1.0, 1e-10, 100);
        assert!(x < 1e-6, "{x}");
    }

    /// The isoline method that `solutions_at_phase` used before the phase
    /// track, entirely on the grids: marching squares on the masked angle
    /// grid, intersected with the marching-squares `C_{T_f,1}` of the `T_f`
    /// grid (not the traced curve), then polished, deduplicated and
    /// classified alike.
    fn isoline_solutions<N, T>(an: &ShilAnalysis<'_, N, T>, phi_d: f64) -> Vec<ShilSolution>
    where
        N: Nonlinearity + Sync,
        T: Tank + Sync,
    {
        let tf_grid = an.tf_grid();
        let merge_tol = 1e-3 * tf_grid.ys()[tf_grid.ny() - 1];
        let isoline = an.angle_isoline(-phi_d).unwrap();
        let tf_unity = marching_squares(tf_grid, 1.0).unwrap();
        let raw = polyline_intersections(&tf_unity, &isoline, merge_tol);
        let scale = 1e-6 * an.prechar.natural.amplitude.max(1.0);
        let mut out: Vec<ShilSolution> = Vec::new();
        for (phi, a, fell_back) in an.refine_all(&raw, -phi_d).into_iter().flatten() {
            let phase = wrap_angle(phi);
            if out
                .iter()
                .any(|s| angle_diff(s.phase, phase).abs() < 1e-4 && (s.amplitude - a).abs() < scale)
            {
                continue;
            }
            let (stable, det, trace) = an.classify(phi, a, phi_d);
            out.push(ShilSolution {
                amplitude: a,
                phase,
                stable,
                jacobian_det: det,
                jacobian_trace: trace,
                degraded: fell_back,
            });
        }
        out
    }

    fn check_track_matches_isolines<N, T>(
        f: &N,
        t: &T,
        n: u32,
        vi: f64,
        u: f64,
    ) -> Result<(), TestCaseError>
    where
        N: Nonlinearity + Sync,
        T: Tank + Sync,
    {
        let an = ShilAnalysis::new(f, t, n, vi, ShilOptions::default()).unwrap();
        let Ok(lr) = an.lock_range() else {
            return Ok(());
        };
        let phi_d = u * lr.phi_d_max;
        let track = an.solutions_at_phase(phi_d).unwrap();
        let isolines = isoline_solutions(&an, phi_d);
        prop_assert!(
            track.len() == isolines.len(),
            "φ_d = {}: {:?} vs {:?}",
            phi_d,
            track,
            isolines
        );
        for s in &track {
            let twin = isolines
                .iter()
                .find(|o| angle_diff(o.phase, s.phase).abs() <= 1e-9)
                .ok_or_else(|| TestCaseError::Fail(format!("no isoline twin of {s:?}")))?;
            prop_assert!(
                (twin.amplitude - s.amplitude).abs() <= 1e-9,
                "{:?} vs {:?}",
                s,
                twin
            );
            prop_assert_eq!(twin.stable, s.stable);
        }
        Ok(())
    }

    /// Bilinear estimate of the §VI-B3 trace at a point `p` of `C_{T_f,1}`
    /// whose exact `∠−I₁` is `theta`, from the grid cell holding `p`: the
    /// estimate the lock-range walk used before the tracer supplied one.
    fn bilinear_trace_estimate(tf: &Grid2, ang: &Grid2, p: Point, theta: f64) -> f64 {
        let cell = |v: f64, axis: &[f64]| {
            let h = (axis[axis.len() - 1] - axis[0]) / (axis.len() - 1) as f64;
            let i = (((v - axis[0]) / h).floor().max(0.0) as usize).min(axis.len() - 2);
            (i, ((v - axis[i]) / h).clamp(0.0, 1.0), h)
        };
        let (i, tx, dx) = cell(p.x, tf.xs());
        let (j, ty, da) = cell(p.y, tf.ys());
        let g = |i: usize, j: usize| tf.value(i, j) / ang.value(i, j).cos();
        let dg_da =
            ((g(i, j + 1) - g(i, j)) * (1.0 - tx) + (g(i + 1, j + 1) - g(i + 1, j)) * tx) / da;
        let dth_dphi = (wrap_angle(ang.value(i + 1, j) - ang.value(i, j)) * (1.0 - ty)
            + wrap_angle(ang.value(i + 1, j + 1) - ang.value(i, j + 1)) * ty)
            / dx;
        p.y * theta.cos() * dg_da - dth_dphi
    }

    /// `an` with its traced `C_{T_f,1}` swapped for the grid build the
    /// tracer replaced: marching squares on the `T_f` grid, one exact `I₁`
    /// per vertex for the phase track, bilinear trace estimates.
    fn marching_squares_twin<'a, N, T>(an: &ShilAnalysis<'a, N, T>) -> ShilAnalysis<'a, N, T>
    where
        N: Nonlinearity + Sync,
        T: Tank + Sync,
    {
        let (tf, ang) = an.grids();
        let tf_unity = marching_squares(tf, 1.0).unwrap();
        let table = &an.prechar.table;
        let mut buf = table.scratch();
        let phase_track: Vec<Vec<f64>> = tf_unity
            .iter()
            .map(|line| {
                line.points
                    .iter()
                    .map(|p| neg_angle(table.i1(an.nonlinearity, p.y, an.vi, p.x, &mut buf)))
                    .collect()
            })
            .collect();
        let trace_track = tf_unity
            .iter()
            .zip(&phase_track)
            .map(|(line, theta)| {
                line.points
                    .iter()
                    .zip(theta)
                    .map(|(p, &t)| bilinear_trace_estimate(tf, ang, *p, t))
                    .collect()
            })
            .collect();
        let non_finite_evals = (0..tf.ny())
            .flat_map(|j| (0..tf.nx()).map(move |i| (i, j)))
            .filter(|&(i, j)| !tf.value(i, j).is_finite() || !ang.value(i, j).is_finite())
            .count();
        ShilAnalysis {
            prechar: Arc::new(Precharacterization {
                tf_unity,
                phase_track,
                trace_track,
                non_finite_evals,
                ..(*an.prechar).clone()
            }),
            ..*an
        }
    }

    /// Distance from `p` to the segment `a`–`b`.
    fn segment_distance(p: Point, a: Point, b: Point) -> f64 {
        let (dx, dy) = (b.x - a.x, b.y - a.y);
        let len2 = dx * dx + dy * dy;
        let t = if len2 > 0.0 {
            (((p.x - a.x) * dx + (p.y - a.y) * dy) / len2).clamp(0.0, 1.0)
        } else {
            0.0
        };
        p.distance(Point::new(a.x + t * dx, a.y + t * dy))
    }

    /// The traced `C_{T_f,1}` against the marching-squares curve of the
    /// lazily filled `T_f` grid: the same number of components, every
    /// traced vertex within 0.05 cell of that curve (in cell units), and
    /// the same `φ_d_max` as the marching-squares track to 1e-9 relative.
    fn check_trace_matches_marching_squares<N, T>(
        f: &N,
        t: &T,
        n: u32,
        vi: f64,
    ) -> Result<(), TestCaseError>
    where
        N: Nonlinearity + Sync,
        T: Tank + Sync,
    {
        let an = ShilAnalysis::new(f, t, n, vi, ShilOptions::default()).unwrap();
        let twin = marching_squares_twin(&an);
        let traced = an.tf_unity_curve();
        let grid_curve = twin.tf_unity_curve();
        prop_assert_eq!(traced.len(), grid_curve.len());
        let (dphi, amps) = (an.prechar.phase_step(), &an.prechar.amplitudes);
        let da = (amps[amps.len() - 1] - amps[0]) / (amps.len() - 1) as f64;
        let cells = |p: &Point| Point::new(p.x / dphi, p.y / da);
        let segments: Vec<(Point, Point)> = grid_curve
            .iter()
            .flat_map(|line| line.points.windows(2).map(|w| (cells(&w[0]), cells(&w[1]))))
            .collect();
        for p in traced.iter().flat_map(|line| &line.points) {
            let d = segments
                .iter()
                .map(|&(a, b)| segment_distance(cells(p), a, b))
                .fold(f64::INFINITY, f64::min);
            prop_assert!(
                d <= 0.05,
                "n={} vi={}: vertex {:?} is {} cells off",
                n,
                vi,
                p,
                d
            );
        }
        match (an.lock_range(), twin.lock_range()) {
            (Ok(a), Ok(b)) => prop_assert!(
                (a.phi_d_max - b.phi_d_max).abs() <= 1e-9 * b.phi_d_max,
                "n={} vi={}: traced {} vs marching squares {}",
                n,
                vi,
                a.phi_d_max,
                b.phi_d_max
            ),
            (Err(ShilError::NoLock), Err(ShilError::NoLock)) => {}
            (a, b) => prop_assert!(false, "n={} vi={}: {:?} vs {:?}", n, vi, a, b),
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn traced_curve_matches_marching_squares(
            family in 0usize..3,
            vi in 0.01f64..0.05,
            n in 2u32..4,
        ) {
            let rlc = |r| ParallelRlc::new(r, 10e-6, 10e-9).unwrap();
            match family {
                0 => check_trace_matches_marching_squares(&NegativeTanh::new(1e-3, 20.0), &rlc(1000.0), n, vi)?,
                1 => check_trace_matches_marching_squares(
                    &Polynomial::new(vec![0.0, -5e-3, 0.0, 4e-3]).unwrap(),
                    &rlc(300.0),
                    n,
                    vi,
                )?,
                _ => check_trace_matches_marching_squares(
                    &TunnelDiode::new().biased_at(0.25),
                    &ParallelRlc::new(3753.858330376428, 10e-9, 10e-12).unwrap(),
                    n,
                    vi,
                )?,
            }
        }

        /// Reading crossings off the phase track finds the same solutions
        /// as intersecting `C_{T_f,1}` with a fresh isoline, anywhere inside
        /// the lock range.
        #[test]
        fn track_solutions_match_the_isoline_method(
            family in 0usize..3,
            vi in 0.01f64..0.05,
            n in 2u32..4,
            u in -0.95f64..0.95,
        ) {
            let rlc = |r| ParallelRlc::new(r, 10e-6, 10e-9).unwrap();
            match family {
                0 => check_track_matches_isolines(&NegativeTanh::new(1e-3, 20.0), &rlc(1000.0), n, vi, u)?,
                1 => check_track_matches_isolines(
                    &Polynomial::new(vec![0.0, -5e-3, 0.0, 4e-3]).unwrap(),
                    &rlc(300.0),
                    n,
                    vi,
                    u,
                )?,
                _ => check_track_matches_isolines(
                    &TunnelDiode::new().biased_at(0.25),
                    &ParallelRlc::new(3753.858330376428, 10e-9, 10e-12).unwrap(),
                    n,
                    vi,
                    u,
                )?,
            }
        }
    }
}
