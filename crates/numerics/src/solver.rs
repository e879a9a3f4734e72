//! Reusable linear solvers for Newton loops.
//!
//! The MNA Jacobians solved in the circuit simulator's inner loops are
//! re-assembled and re-factorized thousands of times per transient run. The
//! seed implementation cloned the matrix and allocated a fresh LU on every
//! Newton iteration; this module provides the replacement kernel:
//!
//! - [`Stamp`] — the minimal matrix interface MNA assembly writes into,
//!   implemented by the dense [`Matrix`](crate::Matrix) and by
//!   [`SparseMatrix`](crate::sparse::SparseMatrix).
//! - [`LinearSolver`] — numeric *re*-factorization into preallocated
//!   storage plus an in-place triangular solve: zero heap allocation per
//!   solve after construction.
//! - [`DenseSolver`] — the small-N workhorse, bit-compatible with the
//!   historical [`Lu`](crate::linalg::Lu) elimination (identical pivoting
//!   and update order; exact-zero multiplier updates are skipped, which can
//!   only change the sign of a zero).
//! - [`BypassSolver`] — factorization bypass: reuse the last factorization
//!   as long as an iterative-refinement check certifies the step against
//!   the *current* matrix, counting factorizations vs. reuses.

use crate::error::NumericsError;
use crate::linalg::Matrix;

/// Minimal interface the MNA assembly loop needs from a Jacobian container.
///
/// Implementations must treat `add_at` as accumulation (`A[i,j] += v`) and
/// `clear` as resetting every stored entry to zero *without* releasing
/// storage — assembly re-stamps the same structural positions every Newton
/// iteration.
pub trait Stamp {
    /// Dimension `n` of the square `n × n` system.
    fn dim(&self) -> usize;
    /// Resets all stored entries to zero, keeping the allocation.
    fn clear(&mut self);
    /// Accumulates `v` into entry `(i, j)`.
    fn add_at(&mut self, i: usize, j: usize, v: f64);
    /// Dense matrix–vector product `y = A·x` into a caller buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` length differs from [`Stamp::dim`].
    fn mul_vec_into(&self, x: &[f64], y: &mut [f64]);
    /// First stored non-finite entry as `(row, col, value)`, if any.
    ///
    /// Used by solvers to refuse poisoned systems with a typed
    /// [`NumericsError::NonFinite`] instead of grinding NaN through an
    /// elimination (or worse, serving a stale factorization for a matrix
    /// that is no longer meaningful).
    fn find_non_finite(&self) -> Option<(usize, usize, f64)>;
}

impl Stamp for Matrix {
    #[inline]
    fn dim(&self) -> usize {
        self.rows()
    }

    fn clear(&mut self) {
        Matrix::clear(self);
    }

    #[inline]
    fn add_at(&mut self, i: usize, j: usize, v: f64) {
        Matrix::add_at(self, i, j, v);
    }

    fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        let n = self.rows();
        assert_eq!(x.len(), n, "dimension mismatch in mul_vec_into");
        assert_eq!(y.len(), n, "dimension mismatch in mul_vec_into");
        let data = self.data();
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (a, xv) in data[i * n..(i + 1) * n].iter().zip(x) {
                acc += *a * *xv;
            }
            *yi = acc;
        }
    }

    fn find_non_finite(&self) -> Option<(usize, usize, f64)> {
        let cols = self.cols();
        self.data()
            .iter()
            .enumerate()
            .find(|(_, v)| !v.is_finite())
            .map(|(idx, &v)| (idx / cols, idx % cols, v))
    }
}

/// A factorization that can be *re*-computed into existing storage and then
/// applied in place — the contract every Newton inner loop in the workspace
/// builds on.
///
/// After construction, [`refactorize`](Self::refactorize) and
/// [`solve_in_place`](Self::solve_in_place) perform no heap allocation.
pub trait LinearSolver {
    /// The matrix representation this solver factorizes.
    type Matrix: Stamp;

    /// Dimension of the systems this solver was sized for.
    fn dim(&self) -> usize;

    /// Recomputes the factorization of `a` into preallocated storage.
    ///
    /// # Errors
    ///
    /// - [`NumericsError::NonFinite`] if `a` contains a NaN/±Inf entry.
    /// - [`NumericsError::SingularMatrix`] if elimination breaks down.
    fn refactorize(&mut self, a: &Self::Matrix) -> Result<(), NumericsError>;

    /// Overwrites `x` (holding the right-hand side `b`) with the solution
    /// of `A·x = b` using the last successful factorization.
    ///
    /// # Panics
    ///
    /// Panics if no successful [`refactorize`](Self::refactorize) has
    /// happened yet, or if `x.len() != self.dim()`.
    fn solve_in_place(&mut self, x: &mut [f64]);

    /// Whether a successful factorization is currently stored.
    fn is_factorized(&self) -> bool;
}

/// Partial-pivot LU elimination on a row-major `n × n` buffer, in place.
///
/// Mirrors [`Lu::factorize`](crate::linalg::Lu::factorize) exactly — same
/// pivot selection (strictly-greater magnitude scan), same row-swap and
/// update order — except that a row update with an *exactly zero* multiplier
/// is skipped. Such an update can only flip the sign of a zero entry, so
/// results agree with the historical dense path under `==` comparison while
/// sparse systems skip most of the `O(n³)` work.
///
/// `perm` is overwritten with the row permutation (`perm[i]` = original row
/// now in position `i`).
///
/// # Errors
///
/// [`NumericsError::SingularMatrix`] when the best pivot magnitude in some
/// column is not greater than `1e-300` (NaN pivots are rejected the same
/// way, matching the dense path).
///
/// # Panics
///
/// Panics if `lu.len() != n²` or `perm.len() != n`.
pub fn factorize_dense_in_place(
    lu: &mut [f64],
    n: usize,
    perm: &mut [usize],
) -> Result<(), NumericsError> {
    assert_eq!(lu.len(), n * n, "buffer is not n×n");
    assert_eq!(perm.len(), n, "permutation length mismatch");
    for (i, p) in perm.iter_mut().enumerate() {
        *p = i;
    }
    for k in 0..n {
        let mut pivot_row = k;
        let mut pivot_mag = lu[k * n + k].abs();
        for i in (k + 1)..n {
            let mag = lu[i * n + k].abs();
            if mag > pivot_mag {
                pivot_mag = mag;
                pivot_row = i;
            }
        }
        // `partial_cmp` keeps the NaN-rejecting behaviour of `!(a > b)`.
        if pivot_mag.partial_cmp(&1e-300) != Some(std::cmp::Ordering::Greater) {
            return Err(NumericsError::SingularMatrix { pivot: k });
        }
        if pivot_row != k {
            for j in 0..n {
                lu.swap(k * n + j, pivot_row * n + j);
            }
            perm.swap(k, pivot_row);
        }
        let pivot = lu[k * n + k];
        for i in (k + 1)..n {
            let (head, tail) = lu.split_at_mut(i * n);
            let row_k = &head[k * n..(k + 1) * n];
            let row_i = &mut tail[..n];
            let m = row_i[k] / pivot;
            row_i[k] = m;
            if m != 0.0 {
                for j in (k + 1)..n {
                    row_i[j] -= m * row_k[j];
                }
            }
        }
    }
    Ok(())
}

/// Applies a factorization from [`factorize_dense_in_place`] to solve
/// `A·x = b` in place (`x` holds `b` on entry, the solution on exit).
///
/// `scratch` is caller-provided working storage of length `n`; no heap
/// allocation happens here.
///
/// # Panics
///
/// Panics on any length mismatch.
pub fn solve_factored_in_place(
    lu: &[f64],
    n: usize,
    perm: &[usize],
    scratch: &mut [f64],
    x: &mut [f64],
) {
    assert_eq!(lu.len(), n * n, "buffer is not n×n");
    assert_eq!(perm.len(), n, "permutation length mismatch");
    assert_eq!(scratch.len(), n, "scratch length mismatch");
    assert_eq!(x.len(), n, "rhs length mismatch");
    scratch.copy_from_slice(x);
    for i in 0..n {
        x[i] = scratch[perm[i]];
    }
    // Forward substitution with unit-lower-triangular L (zero entries are
    // skipped; they contribute only a zero-signed perturbation).
    for i in 1..n {
        let (solved, rest) = x.split_at_mut(i);
        let mut acc = rest[0];
        for (l, xj) in lu[i * n..i * n + i].iter().zip(solved.iter()) {
            if *l != 0.0 {
                acc -= *l * *xj;
            }
        }
        rest[0] = acc;
    }
    // Back substitution with U.
    for i in (0..n).rev() {
        let (lo, solved) = x.split_at_mut(i + 1);
        let mut acc = lo[i];
        for (u, xj) in lu[i * n + i + 1..(i + 1) * n].iter().zip(solved.iter()) {
            if *u != 0.0 {
                acc -= *u * *xj;
            }
        }
        lo[i] = acc / lu[i * n + i];
    }
}

/// Scans a stamped matrix and converts a non-finite entry into the typed
/// error the resilience layer expects.
pub(crate) fn reject_non_finite<M: Stamp>(a: &M, context: &str) -> Result<(), NumericsError> {
    if let Some((i, j, v)) = a.find_non_finite() {
        return Err(NumericsError::NonFinite {
            context: format!("{context} entry ({i}, {j})"),
            at: vec![v],
        });
    }
    Ok(())
}

/// Dense LU with preallocated storage: the small-N [`LinearSolver`].
///
/// ```
/// use shil_numerics::solver::{DenseSolver, LinearSolver};
/// use shil_numerics::Matrix;
///
/// # fn main() -> Result<(), shil_numerics::NumericsError> {
/// let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
/// let mut solver = DenseSolver::new(2);
/// solver.refactorize(&a)?;
/// let mut x = [10.0, 12.0];
/// solver.solve_in_place(&mut x);
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DenseSolver {
    n: usize,
    lu: Vec<f64>,
    perm: Vec<usize>,
    scratch: Vec<f64>,
    factorized: bool,
}

impl DenseSolver {
    /// Allocates working storage for `n × n` systems.
    ///
    /// `n = 0` is permitted (a degenerate system factorizes and solves
    /// trivially), mirroring the legacy `Lu` path for circuits with no
    /// unknowns.
    pub fn new(n: usize) -> Self {
        DenseSolver {
            n,
            lu: vec![0.0; n * n],
            perm: (0..n).collect(),
            scratch: vec![0.0; n],
            factorized: false,
        }
    }
}

impl LinearSolver for DenseSolver {
    type Matrix = Matrix;

    fn dim(&self) -> usize {
        self.n
    }

    fn refactorize(&mut self, a: &Matrix) -> Result<(), NumericsError> {
        assert_eq!(a.rows(), self.n, "matrix dimension mismatch");
        assert_eq!(a.cols(), self.n, "matrix dimension mismatch");
        self.factorized = false;
        reject_non_finite(a, "dense jacobian")?;
        self.lu.copy_from_slice(a.data());
        factorize_dense_in_place(&mut self.lu, self.n, &mut self.perm)?;
        self.factorized = true;
        Ok(())
    }

    fn solve_in_place(&mut self, x: &mut [f64]) {
        assert!(self.factorized, "solve_in_place before refactorize");
        solve_factored_in_place(&self.lu, self.n, &self.perm, &mut self.scratch, x);
    }

    fn is_factorized(&self) -> bool {
        self.factorized
    }
}

/// How a [`BypassSolver`] served a Newton step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// A fresh numeric factorization was computed for this step.
    Factorized,
    /// The previous factorization was reused; iterative refinement
    /// certified the step against the current matrix.
    Reused,
}

/// Factorization bypass with an iterative-refinement safety check.
///
/// Newton loops over slowly varying systems (consecutive transient steps,
/// consecutive iterations near convergence) waste most of their
/// factorization work: the matrix barely changed. This wrapper solves each
/// step with the *stale* factorization `S` first and measures the linear
/// residual `s = b − A·x` against the **current** matrix `A`. If
/// `‖s‖∞ ≤ η·‖b‖∞` the step is certified and the factorization cost is
/// bypassed; otherwise up to `refine_max` refinement corrections
/// `x += S⁻¹s` are tried, and only if those fail is `A` refactorized.
///
/// The certificate is computed against the current `A`, so a reused step is
/// never silently wrong — at worst it is refused and a factorization
/// happens, which is exactly the behaviour without bypass. Non-finite
/// matrices are rejected *before* the stale solve, so a NaN stamp can never
/// be served by reuse.
#[derive(Debug, Clone)]
pub struct BypassSolver<S: LinearSolver> {
    inner: S,
    eta: f64,
    refine_max: usize,
    force_refactorize: bool,
    ax: Vec<f64>,
    s: Vec<f64>,
    factorizations: usize,
    reuses: usize,
}

impl<S: LinearSolver> BypassSolver<S> {
    /// Default reuse tolerance `η` (relative linear-residual bound).
    pub const DEFAULT_ETA: f64 = 1e-6;

    /// Wraps `inner` with the default tolerance (`η = 1e-6`, four
    /// refinement passes). The tolerance is deliberately *tight*: a loose
    /// certificate (say 1e-2) would accept Newton directions inexact enough
    /// to inflate the nonlinear iteration count, and each extra Newton
    /// iteration costs a full Jacobian assembly — far more than the
    /// factorization the bypass saves on small MNA systems. Refinement
    /// converges geometrically at the Jacobian's relative drift `δ`
    /// (residual `δ → δ² → δ³ → …`), so even the across-a-time-step drift
    /// (`δ` of a few percent) certifies at 1e-6 within the refinement
    /// budget, refinement corrections are cheap (a triangular solve and a
    /// multiply — no factorization), and a certified reused step is
    /// numerically indistinguishable from a fresh factorization as far as
    /// Newton is concerned. Non-contracting refinement (the factorization
    /// is too stale to help) is detected after one correction and falls
    /// straight through to refactorization.
    pub fn new(inner: S) -> Self {
        let n = inner.dim();
        BypassSolver {
            inner,
            eta: Self::DEFAULT_ETA,
            refine_max: 4,
            force_refactorize: false,
            ax: vec![0.0; n],
            s: vec![0.0; n],
            factorizations: 0,
            reuses: 0,
        }
    }

    /// Overrides the reuse tolerance. `0.0` disables reuse entirely (every
    /// step refactorizes) — useful as a baseline in benchmarks.
    #[must_use]
    pub fn with_tolerance(mut self, eta: f64) -> Self {
        self.eta = eta.max(0.0);
        self
    }

    /// Drops the stored factorization, forcing the next step to refactorize.
    ///
    /// The refinement certificate would catch a stale factorization anyway;
    /// this just skips the doomed attempt when the caller knows the system
    /// changed discontinuously.
    pub fn invalidate(&mut self) {
        self.force_refactorize = true;
    }

    /// Fresh factorizations performed so far.
    pub fn factorizations(&self) -> usize {
        self.factorizations
    }

    /// Steps served by reusing a previous factorization.
    pub fn reuses(&self) -> usize {
        self.reuses
    }

    /// The wrapped solver.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Solves `A·dx = rhs`, reusing the previous factorization when the
    /// refinement certificate allows it.
    ///
    /// # Errors
    ///
    /// - [`NumericsError::NonFinite`] if `a` or `rhs` contains NaN/±Inf
    ///   (checked before any stale solve).
    /// - [`NumericsError::SingularMatrix`] from a required factorization.
    ///
    /// # Panics
    ///
    /// Panics on slice-length mismatches.
    pub fn solve_step(
        &mut self,
        a: &S::Matrix,
        rhs: &[f64],
        dx: &mut [f64],
    ) -> Result<StepKind, NumericsError> {
        let n = self.inner.dim();
        assert_eq!(rhs.len(), n, "rhs length mismatch");
        assert_eq!(dx.len(), n, "solution length mismatch");
        // A poisoned matrix must surface as NonFinite, never be served by a
        // stale factorization that happens to pass a NaN-polluted check.
        reject_non_finite(a, "jacobian")?;
        let rhs_norm = nan_propagating_inf_norm(rhs);
        if !rhs_norm.is_finite() {
            return Err(NumericsError::NonFinite {
                context: "linear-solve right-hand side".into(),
                at: rhs.to_vec(),
            });
        }

        if self.inner.is_factorized() && !self.force_refactorize && self.eta > 0.0 {
            let threshold = self.eta * rhs_norm;
            dx.copy_from_slice(rhs);
            self.inner.solve_in_place(dx);
            a.mul_vec_into(dx, &mut self.ax);
            for ((s, &r), &ax) in self.s.iter_mut().zip(rhs).zip(&self.ax) {
                *s = r - ax;
            }
            // NaN residuals fail the `<=` comparison and fall through to a
            // fresh factorization below.
            let mut snorm = nan_propagating_inf_norm(&self.s);
            let mut certified = snorm <= threshold;
            let mut refinements = 0;
            while !certified && refinements < self.refine_max {
                self.inner.solve_in_place(&mut self.s);
                for (d, &s) in dx.iter_mut().zip(&self.s) {
                    *d += s;
                }
                a.mul_vec_into(dx, &mut self.ax);
                for ((s, &r), &ax) in self.s.iter_mut().zip(rhs).zip(&self.ax) {
                    *s = r - ax;
                }
                let next = nan_propagating_inf_norm(&self.s);
                certified = next <= threshold;
                // Refinement contracts at the Jacobian drift; a residual
                // that stopped shrinking (or went NaN) will never certify,
                // so stop wasting corrections and refactorize.
                let contracting =
                    matches!(next.partial_cmp(&snorm), Some(std::cmp::Ordering::Less));
                if !certified && !contracting {
                    break;
                }
                snorm = next;
                refinements += 1;
            }
            if certified {
                self.reuses += 1;
                return Ok(StepKind::Reused);
            }
        }

        self.inner.refactorize(a)?;
        self.force_refactorize = false;
        self.factorizations += 1;
        dx.copy_from_slice(rhs);
        self.inner.solve_in_place(dx);
        Ok(StepKind::Factorized)
    }
}

/// NaN-propagating infinity norm (a NaN entry must poison the norm so the
/// reuse gate cannot accept a poisoned step).
fn nan_propagating_inf_norm(v: &[f64]) -> f64 {
    let mut m = 0.0f64;
    for &x in v {
        if x.is_nan() {
            return f64::NAN;
        }
        m = m.max(x.abs());
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Lu;

    fn random_matrix(n: usize, seed: u64) -> Matrix {
        // Deterministic LCG so tests are reproducible without rand.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = next();
            }
            // Diagonal boost keeps the draw comfortably nonsingular.
            m[(i, i)] += 3.0;
        }
        m
    }

    #[test]
    fn dense_solver_matches_lu_bitwise() {
        for seed in 0..20u64 {
            let n = 1 + (seed as usize % 7);
            let a = random_matrix(n, seed);
            let b: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.7 + seed as f64).sin())
                .collect();
            let reference = Lu::factorize(a.clone()).unwrap().solve(&b);
            let mut solver = DenseSolver::new(n);
            solver.refactorize(&a).unwrap();
            let mut x = b.clone();
            solver.solve_in_place(&mut x);
            assert_eq!(x, reference, "seed {seed}");
        }
    }

    #[test]
    fn dense_solver_is_reusable_across_matrices() {
        let mut solver = DenseSolver::new(3);
        for seed in 0..5u64 {
            let a = random_matrix(3, 100 + seed);
            solver.refactorize(&a).unwrap();
            let b = [1.0, -2.0, 0.5];
            let mut x = b;
            solver.solve_in_place(&mut x);
            let r = a.mul_vec(&x);
            for (ri, bi) in r.iter().zip(&b) {
                assert!((ri - bi).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn dense_solver_rejects_non_finite_matrix() {
        let mut a = Matrix::identity(3);
        a[(1, 2)] = f64::NAN;
        let mut solver = DenseSolver::new(3);
        let err = solver.refactorize(&a).unwrap_err();
        match err {
            NumericsError::NonFinite { context, .. } => {
                assert!(context.contains("(1, 2)"), "{context}");
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
        assert!(!solver.is_factorized());
    }

    #[test]
    fn dense_solver_rejects_singular_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let mut solver = DenseSolver::new(2);
        assert!(matches!(
            solver.refactorize(&a),
            Err(NumericsError::SingularMatrix { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "before refactorize")]
    fn solve_before_factorize_panics() {
        let mut solver = DenseSolver::new(2);
        let mut x = [1.0, 2.0];
        solver.solve_in_place(&mut x);
    }

    #[test]
    fn bypass_reuses_on_unchanged_matrix() {
        let a = random_matrix(4, 7);
        let mut solver = BypassSolver::new(DenseSolver::new(4));
        let b = [1.0, 2.0, 3.0, 4.0];
        let mut dx = [0.0; 4];
        assert_eq!(
            solver.solve_step(&a, &b, &mut dx).unwrap(),
            StepKind::Factorized
        );
        assert_eq!(
            solver.solve_step(&a, &b, &mut dx).unwrap(),
            StepKind::Reused
        );
        assert_eq!(solver.factorizations(), 1);
        assert_eq!(solver.reuses(), 1);
        let r = a.mul_vec(&dx);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn bypass_reuse_step_is_accurate_for_perturbed_matrix() {
        let a = random_matrix(5, 11);
        let mut solver = BypassSolver::new(DenseSolver::new(5));
        let b = [0.3, -1.0, 2.0, 0.1, -0.4];
        let mut dx = [0.0; 5];
        solver.solve_step(&a, &b, &mut dx).unwrap();
        // Small perturbation: reuse should hold and still satisfy the
        // certificate against the *perturbed* matrix.
        let mut a2 = a.clone();
        for i in 0..5 {
            a2[(i, i)] *= 1.0 + 1e-6;
        }
        let kind = solver.solve_step(&a2, &b, &mut dx).unwrap();
        assert_eq!(kind, StepKind::Reused);
        let r = a2.mul_vec(&dx);
        let bnorm = b.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        for (ri, bi) in r.iter().zip(&b) {
            assert!(
                (ri - bi).abs() <= BypassSolver::<DenseSolver>::DEFAULT_ETA * bnorm,
                "certificate violated: {} vs {}",
                ri,
                bi
            );
        }
    }

    #[test]
    fn bypass_refactorizes_on_large_change() {
        let a = random_matrix(4, 3);
        let mut solver = BypassSolver::new(DenseSolver::new(4));
        let b = [1.0, 0.0, -1.0, 2.0];
        let mut dx = [0.0; 4];
        solver.solve_step(&a, &b, &mut dx).unwrap();
        // A completely different matrix must fail the certificate.
        let a2 = random_matrix(4, 999);
        let kind = solver.solve_step(&a2, &b, &mut dx).unwrap();
        assert_eq!(kind, StepKind::Factorized);
        assert_eq!(solver.factorizations(), 2);
        let r = a2.mul_vec(&dx);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn bypass_never_reuses_for_non_finite_matrix() {
        let a = random_matrix(3, 21);
        let mut solver = BypassSolver::new(DenseSolver::new(3));
        let b = [1.0, 1.0, 1.0];
        let mut dx = [0.0; 3];
        solver.solve_step(&a, &b, &mut dx).unwrap();
        let mut poisoned = a.clone();
        poisoned[(0, 1)] = f64::NAN;
        let err = solver.solve_step(&poisoned, &b, &mut dx).unwrap_err();
        assert!(matches!(err, NumericsError::NonFinite { .. }), "{err:?}");
        // The poisoned call must not have been counted as a reuse.
        assert_eq!(solver.reuses(), 0);
    }

    #[test]
    fn bypass_rejects_non_finite_rhs() {
        let a = random_matrix(2, 5);
        let mut solver = BypassSolver::new(DenseSolver::new(2));
        let mut dx = [0.0; 2];
        let err = solver
            .solve_step(&a, &[1.0, f64::INFINITY], &mut dx)
            .unwrap_err();
        assert!(matches!(err, NumericsError::NonFinite { .. }));
    }

    #[test]
    fn zero_tolerance_disables_reuse() {
        let a = random_matrix(3, 13);
        let mut solver = BypassSolver::new(DenseSolver::new(3)).with_tolerance(0.0);
        let b = [1.0, 2.0, 3.0];
        let mut dx = [0.0; 3];
        for _ in 0..4 {
            assert_eq!(
                solver.solve_step(&a, &b, &mut dx).unwrap(),
                StepKind::Factorized
            );
        }
        assert_eq!(solver.factorizations(), 4);
        assert_eq!(solver.reuses(), 0);
    }

    #[test]
    fn invalidate_forces_refactorization() {
        let a = random_matrix(3, 17);
        let mut solver = BypassSolver::new(DenseSolver::new(3));
        let b = [1.0, 0.5, -0.5];
        let mut dx = [0.0; 3];
        solver.solve_step(&a, &b, &mut dx).unwrap();
        solver.invalidate();
        assert_eq!(
            solver.solve_step(&a, &b, &mut dx).unwrap(),
            StepKind::Factorized
        );
        assert_eq!(solver.factorizations(), 2);
    }
}
