//! Small, dependency-free numerical kernel for the `shil` workspace.
//!
//! The systems that arise in describing-function analysis of LC oscillators
//! and in the companion MNA circuit simulator are all *small and dense*:
//! MNA matrices with a handful of unknowns, 1-D and 2-D Newton solves,
//! Fourier coefficients of uniformly sampled periodic signals, and level-set
//! (contour) extraction on modest 2-D grids. This crate implements exactly
//! those kernels, with tests and property-based invariants, rather than
//! pulling in a general-purpose linear-algebra dependency.
//!
//! # Modules
//!
//! - [`complex`] — a minimal `Complex64` with full arithmetic and polar form.
//! - [`linalg`] — dense row-major matrices and partial-pivot LU over both
//!   `f64` and [`complex::Complex64`].
//! - [`roots`] — bracketing, bisection, Brent and 1-D Newton root finding.
//! - [`newton`] — small damped Newton systems with numerical Jacobians.
//! - [`fallback`] — escalating solve policies (Newton → restarts → bisection).
//! - [`quad`] — trapezoid/Simpson quadrature and periodic trapezoid rules.
//! - [`fft`] — iterative radix-2 FFT and Fourier-series helpers.
//! - [`interp`] — linear and PCHIP (monotone cubic) interpolation.
//! - [`grid`] — rectangular 2-D sampled scalar fields.
//! - [`contour`] — marching-squares level sets and polyline intersection.
//! - [`solver`] — the [`solver::LinearSolver`] abstraction: preallocated
//!   dense LU and a factorization-bypass wrapper with iterative-refinement
//!   certification.
//! - [`sparse`] — CSR matrices with symbolic-analysis reuse
//!   ([`sparse::SparsePattern`]) and the natural-order sparse LU.
//! - [`parallel`] — deterministic scoped-thread fan-out
//!   ([`parallel::ordered_map`]).
//!
//! # Example
//!
//! ```
//! use shil_numerics::roots::brent;
//!
//! # fn main() -> Result<(), shil_numerics::NumericsError> {
//! // Solve cos(x) = x.
//! let root = brent(|x| x.cos() - x, 0.0, 1.0, 1e-12, 100)?;
//! assert!((root.cos() - root).abs() < 1e-10);
//! # Ok(())
//! # }
//! ```

pub mod complex;
pub mod contour;
pub mod fallback;
pub mod fft;
pub mod grid;
pub mod interp;
pub mod linalg;
pub mod newton;
pub mod parallel;
pub mod quad;
pub mod roots;
pub mod solver;
pub mod sparse;

mod error;

pub use complex::Complex64;
pub use error::NumericsError;
pub use grid::Grid2;
pub use linalg::{CMatrix, Matrix};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NumericsError>;

/// Wrap an angle into the half-open interval `(-π, π]`.
///
/// Phase comparisons in the SHIL solver are all performed on wrapped angles
/// so that level sets of `∠−I₁` do not suffer branch-cut artifacts.
///
/// ```
/// use shil_numerics::wrap_angle;
/// use std::f64::consts::PI;
///
/// assert!((wrap_angle(3.0 * PI) - PI).abs() < 1e-12);
/// assert!((wrap_angle(-3.5 * PI) - 0.5 * PI).abs() < 1e-12);
/// ```
pub fn wrap_angle(theta: f64) -> f64 {
    let two_pi = std::f64::consts::TAU;
    let mut t = theta % two_pi;
    if t <= -std::f64::consts::PI {
        t += two_pi;
    } else if t > std::f64::consts::PI {
        t -= two_pi;
    }
    t
}

/// Signed smallest difference `a − b` between two angles, in `(-π, π]`.
///
/// ```
/// use shil_numerics::angle_diff;
/// use std::f64::consts::PI;
///
/// assert!((angle_diff(0.1, 2.0 * PI - 0.1) - 0.2).abs() < 1e-12);
/// ```
pub fn angle_diff(a: f64, b: f64) -> f64 {
    wrap_angle(a - b)
}

/// Relative-or-absolute closeness check used pervasively in tests.
///
/// Returns `true` when `|a − b| ≤ atol + rtol·max(|a|, |b|)`.
pub fn approx_eq(a: f64, b: f64, rtol: f64, atol: f64) -> bool {
    (a - b).abs() <= atol + rtol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn wrap_angle_identity_in_range() {
        for &t in &[-3.0, -0.5, 0.0, 0.5, 3.0] {
            assert!((wrap_angle(t) - t).abs() < 1e-15, "t={t}");
        }
    }

    #[test]
    fn wrap_angle_boundary() {
        // π maps to π, not -π.
        assert!((wrap_angle(PI) - PI).abs() < 1e-12);
        // -π maps to +π under the half-open convention.
        assert!((wrap_angle(-PI) - PI).abs() < 1e-12);
    }

    #[test]
    fn angle_diff_is_antisymmetric_modulo_branch() {
        let d1 = angle_diff(0.3, 1.7);
        let d2 = angle_diff(1.7, 0.3);
        assert!((d1 + d2).abs() < 1e-12);
    }

    #[test]
    fn approx_eq_behaviour() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9, 0.0));
        assert!(!approx_eq(1.0, 1.1, 1e-9, 0.0));
        assert!(approx_eq(0.0, 1e-14, 0.0, 1e-12));
    }
}
