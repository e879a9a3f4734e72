//! Describing-function analysis of injection locking in negative-resistance
//! LC oscillators — a Rust reproduction of *"A Rigorous Graphical Technique
//! for Predicting Sub-harmonic Injection Locking in LC Oscillators"*
//! (DAC 2014).
//!
//! # The method in one paragraph
//!
//! An LC oscillator is a memoryless nonlinearity `i = f(v)` in feedback
//! around a band-pass tank `H(jω)`. Cutting the loop and driving the
//! nonlinearity with `A·cos(ω_i t) + 2V_i·cos(nω_i t + φ)` (tank fundamental
//! plus the `n`-th-harmonic injection) produces a current whose fundamental
//! phasor `I₁(A, V_i, φ)` can be pre-characterized numerically for *any*
//! `f`. Closing the loop demands (paper eqs. 3–4)
//!
//! ```text
//! T_f(A, V_i, φ) = −R·I₁ₓ(A, V_i, φ) / (A/2) = 1          (magnitude)
//! ∠−I₁(A, V_i, φ) = −φ_d(ω_i) = −∠H(jω_i)                 (phase)
//! ```
//!
//! Solutions are intersections of two level-set curves in the `(φ, A)`
//! plane; their stability follows from the local slopes; the **lock range**
//! is the largest tank phase `|φ_d|` at which a stable intersection
//! survives, mapped back to frequency through the tank. Every step is
//! exposed both as numbers and as extractable curves (see
//! [`shil::GraphicalCurves`]) so the original *graphical* procedure of the
//! paper can be rendered.
//!
//! # Quickstart
//!
//! ```
//! use shil_core::nonlinearity::NegativeTanh;
//! use shil_core::oscillator::Oscillator;
//! use shil_core::tank::ParallelRlc;
//!
//! # fn main() -> Result<(), shil_core::ShilError> {
//! let tank = ParallelRlc::new(1000.0, 10e-6, 10e-9)?;
//! let osc = Oscillator::new(NegativeTanh::new(1e-3, 20.0), tank);
//!
//! // §II: natural oscillation amplitude by the describing-function method.
//! let natural = osc.natural_oscillation()?;
//! assert!(natural.amplitude > 1.0 && natural.amplitude < 1.4);
//!
//! // §III: 3rd-sub-harmonic lock range for a 30 mV injection phasor.
//! let lock = osc.shil_lock_range(3, 0.03)?;
//! assert!(lock.upper_injection_hz > lock.lower_injection_hz);
//! # Ok(())
//! # }
//! ```

pub mod cache;
mod continuation;
pub mod describing;
pub mod fhil;
pub mod harmonics;
pub mod hb;
pub mod nonlinearity;
pub mod oscillator;
pub mod pulling;
pub mod shil;
pub mod tank;

mod error;

pub use error::ShilError;
pub use nonlinearity::Nonlinearity;
pub use oscillator::Oscillator;
pub use tank::Tank;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ShilError>;
