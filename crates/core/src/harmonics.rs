//! Harmonic pre-characterization of nonlinearities.
//!
//! Everything the describing-function method needs from a nonlinearity is a
//! handful of Fourier coefficients of its output under one- or two-tone
//! excitation (paper eq. 1 and §VI-B2):
//!
//! - single tone: `i(θ) = f(A·cosθ)` with coefficients `I_k(A)`;
//! - with sub-harmonic injection: `i(θ) = f(A·cosθ + 2V_i·cos(nθ + φ))`
//!   with the fundamental `I₁(A, V_i, φ)` carrying all the locking physics.
//!
//! All integrals are periodic trapezoid sums, which converge spectrally for
//! the smooth waveforms at hand; this is the "minimal cost" computational
//! pre-characterization the paper describes.

use shil_numerics::quad::{buffer_coefficient, sample_periodic, TwiddleTable};
use shil_numerics::Complex64;

use crate::nonlinearity::Nonlinearity;

/// Sampling options for the harmonic integrals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HarmonicOptions {
    /// Samples per fundamental period (power of two recommended).
    pub samples: usize,
}

impl Default for HarmonicOptions {
    fn default() -> Self {
        HarmonicOptions { samples: 512 }
    }
}

/// Precomputed sampling and twiddle tables for batched two-tone harmonic
/// pre-characterization.
///
/// One table serves an entire (φ, A) grid: the injection angle is
/// phase-decomposed as `cos(nθ+φ) = cosφ·cos(nθ) − sinφ·sin(nθ)`, so the
/// per-cell work reduces to one nonlinearity evaluation per sample plus a
/// handful of multiply-adds — no trigonometric calls at all. The scalar
/// wrappers ([`i_k`], [`i1_injected`], …) re-derive their angles per call;
/// on the pre-characterization grid that trigonometry dominated the total
/// runtime.
///
/// The two-tone waveform is sampled once per `(A, V_i, φ)` point into a
/// caller-owned scratch buffer; every Fourier coefficient `I_k` up to
/// `max_k` is then extracted from that one buffer via the embedded
/// [`TwiddleTable`].
#[derive(Debug, Clone)]
pub struct HarmonicTable {
    n: u32,
    /// `cos θ_i` — the oscillation tone.
    cos_theta: Vec<f64>,
    /// `cos(nθ_i)` — in-phase injection tone.
    cos_n: Vec<f64>,
    /// `sin(nθ_i)` — quadrature injection tone.
    sin_n: Vec<f64>,
    twiddle: TwiddleTable,
}

impl HarmonicTable {
    /// Builds tables for sub-harmonic order `n`, extracting harmonics up to
    /// `max_k`, at `opts.samples` angles per period.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `opts.samples == 0`.
    pub fn new(n: u32, max_k: usize, opts: &HarmonicOptions) -> Self {
        assert!(n >= 1, "harmonic order n must be >= 1");
        let samples = opts.samples;
        assert!(samples >= 1, "at least one sample required");
        let h = std::f64::consts::TAU / samples as f64;
        let nf = n as f64;
        let mut cos_theta = Vec::with_capacity(samples);
        let mut cos_n = Vec::with_capacity(samples);
        let mut sin_n = Vec::with_capacity(samples);
        for i in 0..samples {
            let theta = h * i as f64;
            cos_theta.push(theta.cos());
            let (s, c) = (nf * theta).sin_cos();
            cos_n.push(c);
            sin_n.push(s);
        }
        HarmonicTable {
            n,
            cos_theta,
            cos_n,
            sin_n,
            twiddle: TwiddleTable::new(samples, max_k),
        }
    }

    /// Sub-harmonic order `n` the injection tables were built for.
    pub fn order(&self) -> u32 {
        self.n
    }

    /// Angular samples per period.
    pub fn samples(&self) -> usize {
        self.cos_theta.len()
    }

    /// Highest extractable harmonic.
    pub fn max_k(&self) -> usize {
        self.twiddle.max_k()
    }

    /// A correctly sized scratch buffer for the `sample_*` methods.
    pub fn scratch(&self) -> Vec<f64> {
        Vec::with_capacity(self.samples())
    }

    /// Samples `f(A·cosθ + 2V_i·cos(nθ + φ))` over one period into `buf`
    /// (cleared first) — one nonlinearity call per sample, no trig.
    pub fn sample_into<N: Nonlinearity + ?Sized>(
        &self,
        f: &N,
        amplitude: f64,
        vi: f64,
        phi: f64,
        buf: &mut Vec<f64>,
    ) {
        let (sphi, cphi) = phi.sin_cos();
        buf.clear();
        buf.reserve(self.samples());
        for i in 0..self.cos_theta.len() {
            let injection = 2.0 * vi * (cphi * self.cos_n[i] - sphi * self.sin_n[i]);
            buf.push(f.current(amplitude * self.cos_theta[i] + injection));
        }
    }

    /// Samples the single-tone waveform `f(A·cosθ)` into `buf`.
    pub fn sample_single_into<N: Nonlinearity + ?Sized>(
        &self,
        f: &N,
        amplitude: f64,
        buf: &mut Vec<f64>,
    ) {
        buf.clear();
        buf.reserve(self.samples());
        for &c in &self.cos_theta {
            buf.push(f.current(amplitude * c));
        }
    }

    /// `I_k` extracted from a buffer filled by one of the `sample_*`
    /// methods.
    ///
    /// # Panics
    ///
    /// Panics if `buf` has the wrong length or `k > self.max_k()`.
    pub fn coefficient(&self, buf: &[f64], k: usize) -> Complex64 {
        self.twiddle.coefficient(buf, k)
    }

    /// Batched `I₁(A, V_i, φ)`: sample once, extract the fundamental.
    pub fn i1<N: Nonlinearity + ?Sized>(
        &self,
        f: &N,
        amplitude: f64,
        vi: f64,
        phi: f64,
        buf: &mut Vec<f64>,
    ) -> Complex64 {
        self.sample_into(f, amplitude, vi, phi, buf);
        self.twiddle.coefficient(buf, 1)
    }

    /// Batched single-tone `I₁(A)`.
    pub fn i1_single<N: Nonlinearity + ?Sized>(
        &self,
        f: &N,
        amplitude: f64,
        buf: &mut Vec<f64>,
    ) -> Complex64 {
        self.sample_single_into(f, amplitude, buf);
        self.twiddle.coefficient(buf, 1)
    }

    /// All `I_0..=I_max_k` of the injected response from one sampling pass.
    pub fn spectrum<N: Nonlinearity + ?Sized>(
        &self,
        f: &N,
        amplitude: f64,
        vi: f64,
        phi: f64,
        buf: &mut Vec<f64>,
    ) -> Vec<Complex64> {
        self.sample_into(f, amplitude, vi, phi, buf);
        (0..=self.max_k())
            .map(|k| self.twiddle.coefficient(buf, k))
            .collect()
    }
}

/// `k`-th Fourier coefficient `I_k(A)` of `f(A·cosθ)` (paper eq. 1).
///
/// For any real memoryless `f`, `I₁(A)` is real (the input is even in θ),
/// and negative exactly when `f` acts as a negative resistance at this
/// amplitude — the fact §II uses to close the loop without injection.
///
/// This is the one-shot scalar path; for repeated evaluation (grids,
/// sweeps) build a [`HarmonicTable`] once and reuse it.
pub fn i_k<N: Nonlinearity + ?Sized>(
    f: &N,
    amplitude: f64,
    k: i32,
    opts: &HarmonicOptions,
) -> Complex64 {
    let mut buf = Vec::new();
    sample_periodic(
        |theta| f.current(amplitude * theta.cos()),
        opts.samples,
        &mut buf,
    );
    buffer_coefficient(&buf, k)
}

/// Fundamental coefficient `I₁(A)` of the single-tone response.
pub fn i1_single<N: Nonlinearity + ?Sized>(
    f: &N,
    amplitude: f64,
    opts: &HarmonicOptions,
) -> Complex64 {
    i_k(f, amplitude, 1, opts)
}

/// Fundamental coefficient `I₁(A, V_i, φ)` under `n`-th-harmonic injection:
/// the Fourier coefficient at the fundamental of
/// `f(A·cosθ + 2V_i·cos(nθ + φ))` (paper §VI-B2).
///
/// `vi` is the injection **phasor magnitude** (the physical injection
/// waveform has peak amplitude `2·vi`, matching the paper's
/// `2V_i·cos(nω_i t + φ)` convention).
///
/// # Panics
///
/// Panics if `n == 0` (use [`i1_single`] for no injection, or `n = 1` for
/// fundamental injection).
pub fn i1_injected<N: Nonlinearity + ?Sized>(
    f: &N,
    amplitude: f64,
    vi: f64,
    phi: f64,
    n: u32,
    opts: &HarmonicOptions,
) -> Complex64 {
    assert!(n >= 1, "harmonic order n must be >= 1");
    let nf = n as f64;
    let mut buf = Vec::new();
    sample_periodic(
        |theta| f.current(amplitude * theta.cos() + 2.0 * vi * (nf * theta + phi).cos()),
        opts.samples,
        &mut buf,
    );
    buffer_coefficient(&buf, 1)
}

/// All coefficients `I_0..=I_max_k` of the injected two-tone response.
///
/// Useful for verifying the filtering assumption: with a high-Q tank only
/// `I₁` (and the injection's own bin `I_n`) matter.
pub fn injected_spectrum<N: Nonlinearity + ?Sized>(
    f: &N,
    amplitude: f64,
    vi: f64,
    phi: f64,
    n: u32,
    max_k: usize,
    opts: &HarmonicOptions,
) -> Vec<Complex64> {
    let table = HarmonicTable::new(n, max_k, opts);
    let mut buf = table.scratch();
    table.spectrum(f, amplitude, vi, phi, &mut buf)
}

/// The paper's loop-gain describing function
/// `T_f(A) = −R·I₁(A)/(A/2)` for the injection-free loop (eq. 2).
pub fn t_f_single<N: Nonlinearity + ?Sized>(
    f: &N,
    r: f64,
    amplitude: f64,
    opts: &HarmonicOptions,
) -> f64 {
    -r * i1_single(f, amplitude, opts).re / (amplitude / 2.0)
}

/// The injected loop-gain describing function
/// `T_f(A, V_i, φ) = −R·I₁ₓ(A, V_i, φ)/(A/2)` (paper eq. 3), where `I₁ₓ` is
/// the cosine (real) component of the fundamental phasor.
pub fn t_f_injected<N: Nonlinearity + ?Sized>(
    f: &N,
    r: f64,
    amplitude: f64,
    vi: f64,
    phi: f64,
    n: u32,
    opts: &HarmonicOptions,
) -> f64 {
    -r * i1_injected(f, amplitude, vi, phi, n, opts).re / (amplitude / 2.0)
}

/// The phase `∠−I₁(A, V_i, φ)` used in the lock condition (paper eq. 4),
/// wrapped to `(−π, π]`.
pub fn angle_neg_i1<N: Nonlinearity + ?Sized>(
    f: &N,
    amplitude: f64,
    vi: f64,
    phi: f64,
    n: u32,
    opts: &HarmonicOptions,
) -> f64 {
    neg_angle(i1_injected(f, amplitude, vi, phi, n, opts))
}

/// `∠−I₁` of a fundamental phasor `I₁`, in `(−π, π]`. `atan2` returns
/// `−π` when `−I₁` sits on the negative real axis with a `−0.0` imaginary
/// part, or a negative one too small to move the angle off `−π`; that is
/// the same angle as `π`.
/// Every stored `∠−I₁` (the grid, the phase track, [`angle_neg_i1`]) is
/// computed here.
pub(crate) fn neg_angle(i1: Complex64) -> f64 {
    let angle = (-i1).arg();
    if angle == -std::f64::consts::PI {
        std::f64::consts::PI
    } else {
        angle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonlinearity::{FnNonlinearity, NegativeTanh, Polynomial};
    use std::f64::consts::PI;

    fn opts() -> HarmonicOptions {
        HarmonicOptions::default()
    }

    #[test]
    fn linear_element_fundamental() {
        let f = FnNonlinearity::new(|v: f64| 0.01 * v);
        // I₁ = g·A/2 for i = g·v.
        let i1 = i1_single(&f, 2.0, &opts());
        assert!((i1.re - 0.01).abs() < 1e-12);
        assert!(i1.im.abs() < 1e-14);
    }

    #[test]
    fn tanh_fundamental_is_real_negative_and_saturates() {
        let f = NegativeTanh::new(1e-3, 50.0);
        for &a in &[0.05, 0.2, 1.0, 5.0] {
            let i1 = i1_single(&f, a, &opts());
            assert!(i1.im.abs() < 1e-12, "imaginary leak at A={a}");
            assert!(i1.re < 0.0, "negative resistance sign at A={a}");
        }
        // Hard-limit asymptote: |I₁| → (2/π)·i₀.
        let deep = i1_single(&f, 100.0, &opts());
        assert!((deep.re.abs() - 2e-3 / PI).abs() < 1e-5);
    }

    #[test]
    fn van_der_pol_fundamental_matches_closed_form() {
        // i = −g₁v + g₃v³ with v = A cosθ:
        // I₁ = (−g₁·A/2 + g₃·(3/4)A³·(1/2)) = −g₁A/2 + (3/8)g₃A³.
        let (g1, g3) = (2e-3, 5e-4);
        let f = Polynomial::van_der_pol(g1, g3).unwrap();
        for &a in &[0.1, 0.7, 1.5, 3.0] {
            let i1 = i1_single(&f, a, &opts());
            let expect = -g1 * a / 2.0 + 3.0 / 8.0 * g3 * a.powi(3);
            assert!(
                (i1.re - expect).abs() < 1e-12 * (1.0 + expect.abs()),
                "A={a}: {} vs {expect}",
                i1.re
            );
        }
    }

    #[test]
    fn injection_at_n2plus_leaves_linear_element_untouched() {
        // A *linear* element cannot mix the injection down to the
        // fundamental: I₁ must be independent of V_i and φ for n ≥ 2.
        let f = FnNonlinearity::new(|v: f64| 0.01 * v);
        let base = i1_injected(&f, 1.0, 0.0, 0.0, 3, &opts());
        for &phi in &[0.0, 1.0, 2.5] {
            let withinj = i1_injected(&f, 1.0, 0.2, phi, 3, &opts());
            assert!((withinj - base).abs() < 1e-13);
        }
    }

    #[test]
    fn nonlinear_element_mixes_injection_into_fundamental() {
        let f = NegativeTanh::new(1e-3, 20.0);
        let no_inj = i1_injected(&f, 0.5, 0.0, 0.0, 3, &opts());
        assert!(no_inj.im.abs() < 1e-12);
        let with_inj = i1_injected(&f, 0.5, 0.03, 0.8, 3, &opts());
        // The injection must rotate the fundamental phasor — that rotation
        // is the entire SHIL mechanism (§III-C).
        assert!(with_inj.im.abs() > 1e-6, "no phase generated: {with_inj:?}");
    }

    #[test]
    fn conjugate_symmetry_in_phi() {
        // §VI-B3: replacing φ → −φ conjugates the fundamental phasor.
        let f = NegativeTanh::new(1e-3, 20.0);
        for &phi in &[0.3, 1.2, 2.9] {
            let plus = i1_injected(&f, 0.4, 0.05, phi, 3, &opts());
            let minus = i1_injected(&f, 0.4, 0.05, -phi, 3, &opts());
            assert!((plus.conj() - minus).abs() < 1e-13);
        }
    }

    #[test]
    fn phi_periodicity_is_two_pi() {
        let f = NegativeTanh::new(1e-3, 20.0);
        let a = i1_injected(&f, 0.4, 0.05, 0.7, 3, &opts());
        let b = i1_injected(&f, 0.4, 0.05, 0.7 + std::f64::consts::TAU, 3, &opts());
        assert!((a - b).abs() < 1e-13);
    }

    #[test]
    fn n1_injection_reduces_to_vector_addition() {
        // For n = 1 the two tones are colinear: the input is a single
        // sinusoid with phasor A/2 + V_i·e^{jφ}, so
        // I₁(A, V_i, φ) = I₁(A_eff)·e^{jψ} with A_eff/2·e^{jψ} the combined
        // phasor.
        let f = NegativeTanh::new(1e-3, 20.0);
        let (a, vi, phi) = (0.5, 0.04, 1.1);
        let combined = Complex64::new(a / 2.0, 0.0) + Complex64::from_polar(vi, phi);
        let a_eff = 2.0 * combined.abs();
        let psi = combined.arg();
        let direct = i1_injected(&f, a, vi, phi, 1, &opts());
        let composed = i1_single(&f, a_eff, &opts()) * Complex64::from_polar(1.0, psi);
        assert!(
            (direct - composed).abs() < 1e-12,
            "{direct:?} vs {composed:?}"
        );
    }

    #[test]
    fn injected_spectrum_shows_injection_bin() {
        let f = NegativeTanh::new(1e-3, 20.0);
        let spec = injected_spectrum(&f, 0.5, 0.03, 0.4, 3, 6, &opts());
        // Odd nonlinearity, odd input structure: fundamental and 3rd
        // dominate; DC vanishes.
        assert!(spec[0].abs() < 1e-12);
        assert!(spec[1].abs() > 1e-4);
        assert!(spec[3].abs() > 1e-6);
    }

    #[test]
    fn t_f_definitions_are_consistent() {
        let f = NegativeTanh::new(1e-3, 20.0);
        let r = 1000.0;
        let a = 0.7;
        let tf1 = t_f_single(&f, r, a, &opts());
        let tf2 = t_f_injected(&f, r, a, 0.0, 0.0, 3, &opts());
        assert!((tf1 - tf2).abs() < 1e-12);
        assert!(tf1 > 0.0);
        // Small-signal limit: T_f → −R·f′(0) = R·i₀·gain = 20.
        let tf0 = t_f_single(&f, r, 1e-6, &opts());
        assert!((tf0 - 20.0).abs() < 1e-6, "tf0 = {tf0}");
    }

    #[test]
    fn angle_neg_i1_is_zero_without_injection() {
        let f = NegativeTanh::new(1e-3, 20.0);
        // −I₁ is a positive real number ⇒ angle 0 (the §II natural case).
        let ang = angle_neg_i1(&f, 0.5, 0.0, 0.0, 3, &opts());
        assert!(ang.abs() < 1e-12);
    }

    #[test]
    fn angle_neg_i1_stays_in_the_half_open_range() {
        // Van der Pol at n = 1, φ = 0: I₁ is real and positive up to an
        // imaginary part of ~1.7e-20, so `atan2` of −I₁ rounds to exactly
        // −π. The mirror property test in `tests/precharacterize.rs` met
        // this case at n = 1, φ = 0.
        let f = Polynomial::van_der_pol(5e-3, 4e-3).unwrap();
        let opts = HarmonicOptions { samples: 64 };
        let i1 = i1_injected(&f, 1.25, 0.027, 0.0, 1, &opts);
        assert_eq!((-i1).arg(), -PI, "the case must reach the branch cut");
        assert_eq!(
            angle_neg_i1(&f, 1.25, 0.027, 0.0, 1, &opts).to_bits(),
            PI.to_bits()
        );
        assert_eq!(neg_angle(Complex64::new(1.0, 0.0)).to_bits(), PI.to_bits());
        assert_eq!(neg_angle(Complex64::new(1.0, -0.0)).to_bits(), PI.to_bits());
        assert_eq!(neg_angle(Complex64::new(-1.0, 0.0)), 0.0);
        assert_eq!(neg_angle(Complex64::new(0.0, 1.0)), -PI / 2.0);
    }

    #[test]
    #[should_panic(expected = "harmonic order")]
    fn zero_harmonic_order_panics() {
        let f = NegativeTanh::new(1e-3, 20.0);
        let _ = i1_injected(&f, 0.5, 0.03, 0.0, 0, &opts());
    }

    #[test]
    fn harmonic_table_matches_scalar_injected_path() {
        let f = NegativeTanh::new(1e-3, 20.0);
        let table = HarmonicTable::new(3, 1, &opts());
        let mut buf = table.scratch();
        for &(a, vi, phi) in &[
            (0.5, 0.03, 0.8),
            (0.1, 0.0, 0.0),
            (1.3, 0.08, -2.4),
            (2.0, 0.01, 3.1),
        ] {
            let batched = table.i1(&f, a, vi, phi, &mut buf);
            let scalar = i1_injected(&f, a, vi, phi, 3, &opts());
            // The table phase-decomposes cos(nθ+φ); agreement is to
            // rounding, not bitwise.
            assert!(
                (batched - scalar).abs() < 1e-15,
                "(A={a}, Vi={vi}, φ={phi}): {batched:?} vs {scalar:?}"
            );
        }
    }

    #[test]
    fn harmonic_table_single_tone_is_bitwise_scalar() {
        // The single-tone sampling and extraction use the exact same
        // floating-point expressions as the scalar i_k path, so agreement
        // is bit-for-bit.
        let f = NegativeTanh::new(1e-3, 20.0);
        let table = HarmonicTable::new(3, 1, &opts());
        let mut buf = table.scratch();
        for &a in &[0.05, 0.4, 1.7] {
            let batched = table.i1_single(&f, a, &mut buf);
            let scalar = i1_single(&f, a, &opts());
            assert_eq!(batched, scalar, "A={a}");
        }
    }

    #[test]
    fn harmonic_table_spectrum_matches_per_coefficient_extraction() {
        let f = NegativeTanh::new(1e-3, 20.0);
        let table = HarmonicTable::new(3, 6, &opts());
        let mut buf = table.scratch();
        let spec = table.spectrum(&f, 0.5, 0.03, 0.4, &mut buf);
        assert_eq!(spec.len(), 7);
        for (k, &c) in spec.iter().enumerate() {
            assert_eq!(c, table.coefficient(&buf, k), "k={k}");
        }
        // And the free-function spectrum rides the same table path.
        let free = injected_spectrum(&f, 0.5, 0.03, 0.4, 3, 6, &opts());
        for k in 0..=6 {
            assert!((free[k] - spec[k]).abs() < 1e-18);
        }
    }

    #[test]
    fn harmonic_table_scratch_is_reusable_across_cells() {
        let f = NegativeTanh::new(1e-3, 20.0);
        let table = HarmonicTable::new(3, 1, &opts());
        let mut buf = table.scratch();
        let first = table.i1(&f, 0.5, 0.03, 0.4, &mut buf);
        let _ = table.i1(&f, 0.9, 0.05, -1.0, &mut buf);
        let again = table.i1(&f, 0.5, 0.03, 0.4, &mut buf);
        assert_eq!(first, again);
    }
}
