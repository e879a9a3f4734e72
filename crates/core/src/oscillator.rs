//! High-level façade tying a nonlinearity and a tank together.

use crate::cache::PrecharCache;
use crate::describing::{
    natural_oscillation, natural_oscillations, small_signal_loop_gain, NaturalOptions,
    NaturalOscillation,
};
use crate::error::ShilError;
use crate::hb::{solve_oscillator, HbOptions, HbSolution};
use crate::nonlinearity::Nonlinearity;
use crate::pulling::{pulling_state, PullingState};
use crate::shil::{LockRange, ShilAnalysis, ShilOptions};
use crate::tank::Tank;

/// A negative-resistance LC oscillator: a memoryless nonlinearity in
/// feedback around a linear tank.
///
/// This is the one-stop entry point for the common questions:
/// does it oscillate, at what amplitude, and where does it lock?
///
/// ```
/// use shil_core::nonlinearity::NegativeTanh;
/// use shil_core::oscillator::Oscillator;
/// use shil_core::tank::ParallelRlc;
///
/// # fn main() -> Result<(), shil_core::ShilError> {
/// let osc = Oscillator::new(
///     NegativeTanh::new(1e-3, 20.0),
///     ParallelRlc::new(1000.0, 10e-6, 10e-9)?,
/// );
/// assert!(osc.small_signal_loop_gain() > 1.0);
/// let nat = osc.natural_oscillation()?;
/// let lock = osc.shil_lock_range(3, 0.03)?;
/// assert!(lock.lower_injection_hz < 3.0 * nat.frequency_hz);
/// assert!(lock.upper_injection_hz > 3.0 * nat.frequency_hz);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Oscillator<N, T> {
    nonlinearity: N,
    tank: T,
    natural_opts: NaturalOptions,
    shil_opts: ShilOptions,
}

impl<N: Nonlinearity, T: Tank> Oscillator<N, T> {
    /// Creates an oscillator with default analysis options.
    pub fn new(nonlinearity: N, tank: T) -> Self {
        Oscillator {
            nonlinearity,
            tank,
            natural_opts: NaturalOptions::default(),
            shil_opts: ShilOptions::default(),
        }
    }

    /// Overrides the natural-oscillation solve options.
    #[must_use]
    pub fn with_natural_options(mut self, opts: NaturalOptions) -> Self {
        self.natural_opts = opts;
        self
    }

    /// Overrides the SHIL analysis options.
    #[must_use]
    pub fn with_shil_options(mut self, opts: ShilOptions) -> Self {
        self.shil_opts = opts;
        self
    }

    /// The nonlinearity.
    pub fn nonlinearity(&self) -> &N {
        &self.nonlinearity
    }

    /// The tank.
    pub fn tank(&self) -> &T {
        &self.tank
    }

    /// Small-signal loop gain `−R·f′(0)`; oscillation requires `> 1`.
    pub fn small_signal_loop_gain(&self) -> f64 {
        small_signal_loop_gain(&self.nonlinearity, &self.tank)
    }

    /// The stable natural oscillation (§II + §VI-A1).
    ///
    /// # Errors
    ///
    /// [`ShilError::NoOscillation`] when the loop gain never reaches one or
    /// no stable crossing exists.
    pub fn natural_oscillation(&self) -> Result<NaturalOscillation, ShilError> {
        natural_oscillation(&self.nonlinearity, &self.tank, &self.natural_opts)
    }

    /// All crossings of `T_f(A) = 1` with stability.
    ///
    /// # Errors
    ///
    /// Propagates scan/refinement failures.
    pub fn natural_oscillations(&self) -> Result<Vec<NaturalOscillation>, ShilError> {
        natural_oscillations(&self.nonlinearity, &self.tank, &self.natural_opts)
    }

    /// Multi-harmonic (harmonic-balance) steady state: refines the
    /// describing-function answer with waveform distortion and the
    /// Groszkowski frequency shift.
    ///
    /// # Errors
    ///
    /// See [`solve_oscillator`].
    pub fn harmonic_balance(&self, opts: &HbOptions) -> Result<HbSolution, ShilError> {
        solve_oscillator(&self.nonlinearity, &self.tank, opts)
    }
}

// The SHIL entry points additionally require `Sync` elements: the grid
// pre-characterization and solution refinement fan out across scoped
// threads that share the nonlinearity and tank (see
// [`ShilOptions::parallelism`]).
impl<N: Nonlinearity + Sync, T: Tank + Sync> Oscillator<N, T> {
    /// Prepares the full SHIL analysis for order `n` and injection phasor
    /// magnitude `vi` (physical injection amplitude `2·vi`).
    ///
    /// # Errors
    ///
    /// See [`ShilAnalysis::new`].
    pub fn shil(&self, n: u32, vi: f64) -> Result<ShilAnalysis<'_, N, T>, ShilError> {
        ShilAnalysis::new(&self.nonlinearity, &self.tank, n, vi, self.shil_opts)
    }

    /// Like [`Self::shil`], but serving the natural solve and grid
    /// pre-characterization from `cache` (see [`ShilAnalysis::new_cached`]).
    ///
    /// # Errors
    ///
    /// See [`ShilAnalysis::new`].
    pub fn shil_cached(
        &self,
        n: u32,
        vi: f64,
        cache: &PrecharCache,
    ) -> Result<ShilAnalysis<'_, N, T>, ShilError> {
        ShilAnalysis::new_cached(&self.nonlinearity, &self.tank, n, vi, self.shil_opts, cache)
    }

    /// Convenience: the `n`-th sub-harmonic lock range at injection `vi`.
    ///
    /// # Errors
    ///
    /// See [`ShilAnalysis::lock_range`].
    pub fn shil_lock_range(&self, n: u32, vi: f64) -> Result<LockRange, ShilError> {
        self.shil(n, vi)?.lock_range()
    }

    /// Sweeps the lock range over several injection strengths — the
    /// divider-sizing curve a designer actually wants. The (expensive)
    /// natural-oscillation seed is shared; injections that produce no lock
    /// appear as `Err` entries without aborting the sweep.
    pub fn shil_lock_range_sweep(
        &self,
        n: u32,
        vis: &[f64],
    ) -> Vec<(f64, Result<LockRange, ShilError>)> {
        // The grids differ per injection strength, but the natural solve is
        // injection-independent — the sweep-local cache runs it once.
        let cache = PrecharCache::new();
        vis.iter()
            .map(|&vi| {
                (
                    vi,
                    self.shil_cached(n, vi, &cache)
                        .and_then(|an| an.lock_range()),
                )
            })
            .collect()
    }

    /// Lock-or-pull verdict at one injection frequency: `Locked` inside the
    /// lock range, otherwise the quasi-static beat frequency.
    ///
    /// # Errors
    ///
    /// See [`pulling_state`] and [`ShilAnalysis::new`].
    pub fn injection_response(
        &self,
        n: u32,
        vi: f64,
        f_injection_hz: f64,
    ) -> Result<PullingState, ShilError> {
        let analysis = self.shil(n, vi)?;
        pulling_state(
            &analysis,
            &self.nonlinearity,
            &self.tank,
            f_injection_hz,
            256,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harmonics::HarmonicOptions;
    use crate::nonlinearity::NegativeTanh;
    use crate::tank::ParallelRlc;

    fn osc() -> Oscillator<NegativeTanh, ParallelRlc> {
        Oscillator::new(
            NegativeTanh::new(1e-3, 20.0),
            ParallelRlc::new(1000.0, 10e-6, 10e-9).unwrap(),
        )
        .with_shil_options(ShilOptions {
            phase_points: 121,
            amplitude_points: 81,
            harmonics: HarmonicOptions { samples: 256 },
            ..Default::default()
        })
    }

    #[test]
    fn facade_exposes_components() {
        let o = osc();
        assert_eq!(o.nonlinearity().i0, 1e-3);
        assert!((o.tank().q() - 31.6227766).abs() < 1e-6);
        assert!((o.small_signal_loop_gain() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn natural_and_shil_workflow() {
        let o = osc();
        let nat = o.natural_oscillation().unwrap();
        assert!(nat.stable);
        let all = o.natural_oscillations().unwrap();
        assert_eq!(all.len(), 1);
        let analysis = o.shil(3, 0.03).unwrap();
        assert_eq!(analysis.order(), 3);
        assert_eq!(analysis.injection(), 0.03);
        let lr = o.shil_lock_range(3, 0.03).unwrap();
        assert!(lr.injection_span_hz > 0.0);
    }

    #[test]
    fn sweep_and_response_conveniences() {
        let o = osc();
        let sweep = o.shil_lock_range_sweep(3, &[0.01, 0.03]);
        assert_eq!(sweep.len(), 2);
        let s0 = sweep[0].1.as_ref().expect("locks");
        let s1 = sweep[1].1.as_ref().expect("locks");
        assert!(s1.injection_span_hz > s0.injection_span_hz);

        let hb = o.harmonic_balance(&HbOptions::default()).unwrap();
        assert!(hb.frequency_hz < o.tank().center_frequency_hz());

        let center = 0.5 * (s1.lower_injection_hz + s1.upper_injection_hz);
        assert_eq!(
            o.injection_response(3, 0.03, center).unwrap(),
            PullingState::Locked
        );
        match o
            .injection_response(3, 0.03, s1.upper_injection_hz + 2.0 * s1.injection_span_hz)
            .unwrap()
        {
            PullingState::Pulled { beat_hz, .. } => assert!(beat_hz > 0.0),
            other => panic!("expected pulling, got {other:?}"),
        }
    }

    #[test]
    fn option_overrides_apply() {
        let o = osc().with_natural_options(NaturalOptions {
            a_max: Some(3.0),
            ..Default::default()
        });
        assert!(o.natural_oscillation().is_ok());
    }
}
