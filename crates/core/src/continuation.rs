//! `C_{T_f,1}` traced by pseudo-arclength continuation.
//!
//! The lock solutions at every tank phase lie on the level set
//! `T_f(φ, A) = 1`, which does not depend on the injection frequency
//! (§III-C). [`trace_unity`] follows that curve directly on the exact
//! equation, so a prediction needs no `(φ, A)` grid:
//!
//! 1. **Seeds.** The amplitude column at `φ = 0` and at `φ = π` is
//!    evaluated on the amplitude axis. `T_f` is even about both columns
//!    (`φ → −φ` conjugates `I₁`, §VI-B3), so the curve crosses them
//!    square-on and each bracketed sign change of `T_f − 1` starts one
//!    trace into `0 < φ < π`, unless a trace already ended in it.
//! 2. **Steps.** A predictor step of one grid cell along the tangent, in
//!    the cell-scaled metric `(φ/Δφ, A/ΔA)`, then a secant corrector on
//!    `T_f = 1` along the normal (the pseudo-arclength constraint). Forward
//!    differences at each accepted vertex give the gradient for the next
//!    step. A step whose corrector fails, strays more than a step from the
//!    prediction or turns the tangent by more than ~37° is halved.
//! 3. **Ends.** A trace ends where it leaves `[0, π] × [A_lo, A_hi]`, with
//!    its last vertex solved onto that boundary: on a column (`φ = 0` or
//!    `π`) or at an edge of the amplitude window (an open end, as marching
//!    squares ends at a grid boundary). The `φ > π` half is the exact
//!    mirror `(2π − φ, A)`, with the angle through [`mirror_angle`]; a
//!    trace with an end on `φ = π` is joined to its mirror there.
//!
//! Every vertex is a point where the corrector evaluated `I₁`, so that one
//! evaluation gives both `T_f` and `∠−I₁` there (the phase track), and the
//! two difference evaluations give the §VI-B3 Jacobian-trace estimate that
//! places the lock-range walk's arc splits.

use std::f64::consts::{PI, TAU};

use shil_numerics::contour::{Point, Polyline};
use shil_numerics::wrap_angle;

use crate::error::ShilError;
use crate::harmonics::{neg_angle, HarmonicTable};
use crate::nonlinearity::Nonlinearity;
use crate::shil::mirror_angle;

/// Corrector tolerance on `T_f − 1`.
const TOL: f64 = 1e-12;
/// Secant iterations per corrector solve.
const MAX_SECANT: usize = 12;
/// Forward-difference step of the partials, in cells.
const FD_STEP: f64 = 1e-4;
/// Smallest step, in cells, before a trace gives up.
const MIN_STEP: f64 = 1.0 / 64.0;
/// Smallest cosine between successive tangents of an accepted step.
const MIN_TURN_COS: f64 = 0.8;

/// `C_{T_f,1}` on `φ ∈ [0, 2π]`, with what each vertex carries.
#[derive(Debug, Clone, Default)]
pub(crate) struct UnityTrack {
    /// The polylines of the level set (x = φ, y = A).
    pub curves: Vec<Polyline>,
    /// `∠−I₁` at each vertex of `curves`.
    pub angles: Vec<Vec<f64>>,
    /// The §VI-B3 Jacobian-trace estimate at each vertex of `curves`.
    pub traces: Vec<Vec<f64>>,
    /// `I₁` evaluations spent.
    pub evals: u64,
    /// Evaluations whose `T_f` or `∠−I₁` came out non-finite.
    pub non_finite: usize,
}

/// Traces `C_{T_f,1}` of the element `nonlinearity` on tank resistance `r`
/// at injection `vi`, inside the amplitude window of the uniform axis
/// `amps`. `phase_points` sets the phase cell `Δφ = 2π/(phase_points − 1)`
/// of the step metric, as on the grid of [`crate::shil::precharacterize`].
///
/// # Errors
///
/// [`ShilError::InvalidParameter`] when every seed evaluation is
/// non-finite.
pub(crate) fn trace_unity<N: Nonlinearity + ?Sized>(
    nonlinearity: &N,
    r: f64,
    vi: f64,
    table: &HarmonicTable,
    phase_points: usize,
    amps: &[f64],
) -> Result<UnityTrack, ShilError> {
    let ny = amps.len();
    let (a_lo, a_hi) = (amps[0], amps[ny - 1]);
    let mut tracer = Tracer {
        nonlinearity,
        r,
        vi,
        table,
        buf: table.scratch(),
        dphi: TAU / (phase_points - 1) as f64,
        da: (a_hi - a_lo) / (ny - 1) as f64,
        a_lo,
        a_hi,
        evals: 0,
        non_finite: 0,
    };
    let columns = [0.0, PI].map(|phi| {
        amps.iter()
            .map(|&a| tracer.sample(phi, a).residual)
            .collect::<Vec<f64>>()
    });
    if tracer.non_finite == 2 * ny {
        return Err(ShilError::InvalidParameter(
            "continuation seeds evaluated non-finite everywhere \
             (nonlinearity non-finite over the whole (φ, A) window)"
                .into(),
        ));
    }
    let mut open = columns.clone().map(|c| brackets(&c));
    let max_vertices = 4 * (phase_points + ny);
    let mut halves = Vec::new();
    for col in 0..2 {
        while !open[col].is_empty() {
            let j = open[col].remove(0);
            let Some(start) = tracer.seed(col, j, &columns[col], amps) else {
                continue;
            };
            let (verts, end) = tracer.trace(start, col, max_vertices);
            if let End::Column(c) = end {
                let a = verts[verts.len() - 1].a;
                let slack = 1e-9 * tracer.da;
                open[c].retain(|&k| !(amps[k] - slack <= a && a <= amps[k + 1] + slack));
            }
            halves.push((col, verts, end));
        }
    }
    let mut track = UnityTrack {
        evals: tracer.evals,
        non_finite: tracer.non_finite,
        ..UnityTrack::default()
    };
    for (col, mut verts, end) in halves {
        let ends_at_pi = end == End::Column(1);
        if col == 1 && !ends_at_pi {
            // Put the φ = π end last, where the mirror joins.
            verts.reverse();
        }
        track.push_with_mirror(verts, col == 1 || ends_at_pi);
    }
    Ok(track)
}

/// Indices `j` where `T_f − 1` changes sign between `amps[j]` and
/// `amps[j + 1]` (zero counts as positive, as in marching squares).
fn brackets(column: &[f64]) -> Vec<usize> {
    column
        .windows(2)
        .enumerate()
        .filter(|(_, w)| w[0].is_finite() && w[1].is_finite() && (w[0] >= 0.0) != (w[1] >= 0.0))
        .map(|(j, _)| j)
        .collect()
}

impl UnityTrack {
    /// Adds a half-trace (`0 ≤ φ ≤ π`) and its mirror. When the trace's
    /// last vertex is on `φ = π` (`joins`), the two are one polyline
    /// through it.
    fn push_with_mirror(&mut self, mut verts: Vec<Vertex>, joins: bool) {
        let mirror: Vec<Vertex> = verts.iter().rev().map(Vertex::mirrored).collect();
        if joins {
            verts.extend_from_slice(&mirror[1..]);
            self.push(&verts);
        } else {
            self.push(&verts);
            self.push(&mirror);
        }
    }

    fn push(&mut self, verts: &[Vertex]) {
        self.curves.push(Polyline {
            points: verts.iter().map(|v| Point::new(v.phi, v.a)).collect(),
        });
        self.angles.push(verts.iter().map(|v| v.angle).collect());
        self.traces.push(verts.iter().map(|v| v.trace).collect());
    }
}

/// One exact `I₁` evaluation, reduced to what the tracer uses.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// `T_f − 1`.
    residual: f64,
    /// `∠−I₁`.
    angle: f64,
    /// `G = R·|I₁|/(A/2)`, so that `T_f = G·cos ∠−I₁`.
    gain: f64,
}

/// A point of `C_{T_f,1}` with its phase-track value and derivatives.
#[derive(Debug, Clone, Copy)]
struct Vertex {
    phi: f64,
    a: f64,
    /// `∠−I₁`: the vertex is a lock solution at `φ_d = −angle`.
    angle: f64,
    /// §VI-B3 Jacobian trace at `φ_d = −angle`: `A·cos θ·∂G/∂A − ∂θ/∂φ`.
    trace: f64,
    /// Gradient of `T_f` in cell units, `(∂/∂(φ/Δφ), ∂/∂(A/ΔA))`.
    grad: [f64; 2],
}

impl Vertex {
    /// The vertex at `2π − φ`: `T_f` and the trace estimate repeat, the
    /// angle is negated.
    fn mirrored(&self) -> Vertex {
        Vertex {
            phi: TAU - self.phi,
            angle: mirror_angle(self.angle),
            ..*self
        }
    }
}

/// Where a half-trace ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    /// On the column `φ = 0` (`0`) or `φ = π` (`1`).
    Column(usize),
    /// On an edge of the amplitude window, or where a step could not be
    /// completed.
    Open,
}

/// Outcome of one continuation step.
enum Step {
    /// A vertex inside the half-window, with its oriented tangent.
    Inside(Vertex, [f64; 2]),
    /// The step left the half-window; the vertex is on the boundary.
    Boundary(Vertex, End),
    /// The step left the half-window and could not be landed on it.
    Lost,
}

/// A boundary of the half-window `[0, π] × [A_lo, A_hi]`.
#[derive(Debug, Clone, Copy)]
enum Bound {
    Column(usize),
    Edge(f64),
}

struct Tracer<'t, N: ?Sized> {
    nonlinearity: &'t N,
    r: f64,
    vi: f64,
    table: &'t HarmonicTable,
    buf: Vec<f64>,
    dphi: f64,
    da: f64,
    a_lo: f64,
    a_hi: f64,
    evals: u64,
    non_finite: usize,
}

impl<N: Nonlinearity + ?Sized> Tracer<'_, N> {
    fn sample(&mut self, phi: f64, a: f64) -> Sample {
        self.evals += 1;
        let i1 = self
            .table
            .i1(self.nonlinearity, a, self.vi, phi, &mut self.buf);
        let s = Sample {
            residual: -self.r * i1.re / (a / 2.0) - 1.0,
            angle: neg_angle(i1),
            gain: self.r * i1.abs() / (a / 2.0),
        };
        if !(s.residual.is_finite() && s.angle.is_finite()) {
            self.non_finite += 1;
        }
        s
    }

    /// Completes a point of the curve, whose evaluation is `s`, to a
    /// vertex: two forward differences give the gradient and the trace.
    fn vertex(&mut self, phi: f64, a: f64, s: Sample) -> Vertex {
        let (hp, ha) = (FD_STEP * self.dphi, FD_STEP * self.da);
        let sp = self.sample(phi + hp, a);
        let sa = self.sample(phi, a + ha);
        let trace =
            a * s.angle.cos() * (sa.gain - s.gain) / ha - wrap_angle(sp.angle - s.angle) / hp;
        Vertex {
            phi,
            a,
            angle: s.angle,
            trace,
            grad: [
                (sp.residual - s.residual) / FD_STEP,
                (sa.residual - s.residual) / FD_STEP,
            ],
        }
    }

    /// Secant solve of `T_f = 1` on the line `origin + s·dir`, from `s0`
    /// with the slope estimate `slope` (`d(T_f)/ds`). The returned point is
    /// the last one evaluated, so its sample is exact there.
    fn solve_on_line(
        &mut self,
        origin: (f64, f64),
        dir: (f64, f64),
        s0: f64,
        mut slope: f64,
    ) -> Option<(f64, Point, Sample)> {
        let mut s = s0;
        let mut prev: Option<(f64, f64)> = None;
        for _ in 0..MAX_SECANT {
            let p = Point::new(origin.0 + s * dir.0, origin.1 + s * dir.1);
            // A secant overshoot towards A = 0, where T_f is undefined.
            if p.y.partial_cmp(&(0.5 * self.a_lo)) != Some(std::cmp::Ordering::Greater) {
                return None;
            }
            let smp = self.sample(p.x, p.y);
            let res = smp.residual;
            if !res.is_finite() {
                return None;
            }
            if let Some((s_prev, res_prev)) = prev {
                if res != res_prev {
                    slope = (res - res_prev) / (s - s_prev);
                }
            }
            let step = res / slope;
            if res.abs() <= TOL || step.abs() <= 1e-12 {
                return Some((s, p, smp));
            }
            if !step.is_finite() {
                return None;
            }
            prev = Some((s, res));
            s -= step;
        }
        None
    }

    /// The start vertex of the trace from bracket `j` of column `col`.
    fn seed(&mut self, col: usize, j: usize, column: &[f64], amps: &[f64]) -> Option<Vertex> {
        let phi = if col == 0 { 0.0 } else { PI };
        let (r0, r1) = (column[j], column[j + 1]);
        let (s, p, smp) =
            self.solve_on_line((phi, amps[j]), (0.0, self.da), r0 / (r0 - r1), r1 - r0)?;
        (-0.5..=1.5)
            .contains(&s)
            .then(|| self.vertex(p.x, p.y, smp))
    }

    /// Follows the curve from `start` on column `col` into `0 < φ < π`.
    fn trace(&mut self, start: Vertex, col: usize, max_vertices: usize) -> (Vec<Vertex>, End) {
        let heading = if col == 0 { [1.0, 0.0] } else { [-1.0, 0.0] };
        let mut verts = vec![start];
        let Some(mut t) = tangent(start.grad, heading) else {
            return (verts, End::Open);
        };
        while verts.len() < max_vertices {
            let v = verts[verts.len() - 1];
            let mut h = 1.0;
            let step = loop {
                if let Some(step) = self.step(&v, t, h) {
                    break step;
                }
                h *= 0.5;
                if h < MIN_STEP {
                    return (verts, End::Open);
                }
            };
            match step {
                Step::Inside(w, t_next) => {
                    verts.push(w);
                    t = t_next;
                }
                Step::Boundary(w, end) => {
                    verts.push(w);
                    return (verts, end);
                }
                Step::Lost => return (verts, End::Open),
            }
        }
        (verts, End::Open)
    }

    /// One predictor–corrector step of `h` cells from `v` along `t`;
    /// `None` asks for a shorter step.
    fn step(&mut self, v: &Vertex, t: [f64; 2], h: f64) -> Option<Step> {
        let g = v.grad[0].hypot(v.grad[1]);
        let normal = (v.grad[0] / g * self.dphi, v.grad[1] / g * self.da);
        let predicted = (v.phi + h * t[0] * self.dphi, v.a + h * t[1] * self.da);
        let (s, q, smp) = self.solve_on_line(predicted, normal, 0.0, g)?;
        if s.abs() > h {
            return None;
        }
        let inside = (0.0..=PI).contains(&q.x) && (self.a_lo..=self.a_hi).contains(&q.y);
        if !inside {
            return self.land(v, q);
        }
        let w = self.vertex(q.x, q.y, smp);
        let t_next = tangent(w.grad, t)?;
        (t_next[0] * t[0] + t_next[1] * t[1] >= MIN_TURN_COS).then_some(Step::Inside(w, t_next))
    }

    /// Solves the curve onto the boundary that the segment `v → q` leaves
    /// the half-window through first. `None` (a shorter step) when `q` is
    /// outside without such a crossing: a step back through the start
    /// column.
    fn land(&mut self, v: &Vertex, q: Point) -> Option<Step> {
        let fraction = |from: f64, to: f64, at: f64| {
            let l = (at - from) / (to - from);
            (l > 0.0 && l <= 1.0).then_some(l)
        };
        let crossings = [
            (q.x < 0.0).then(|| fraction(v.phi, q.x, 0.0).map(|l| (l, Bound::Column(0)))),
            (q.x > PI).then(|| fraction(v.phi, q.x, PI).map(|l| (l, Bound::Column(1)))),
            (q.y < self.a_lo)
                .then(|| fraction(v.a, q.y, self.a_lo).map(|l| (l, Bound::Edge(self.a_lo)))),
            (q.y > self.a_hi)
                .then(|| fraction(v.a, q.y, self.a_hi).map(|l| (l, Bound::Edge(self.a_hi)))),
        ];
        let mut first: Option<(f64, Bound)> = None;
        for c in crossings.into_iter().flatten() {
            let c = c?;
            if first.is_none_or(|f| c.0 < f.0) {
                first = Some(c);
            }
        }
        let (l, bound) = first?;
        let guess = (v.phi + l * (q.x - v.phi), v.a + l * (q.y - v.a));
        let (landed, end) = match bound {
            Bound::Column(c) => {
                let phi = if c == 0 { 0.0 } else { PI };
                let solved = self.solve_on_line((phi, guess.1), (0.0, self.da), 0.0, v.grad[1]);
                let ok = |p: &Point| (self.a_lo..=self.a_hi).contains(&p.y);
                (
                    solved.filter(|(s, p, _)| s.abs() <= 1.0 && ok(p)),
                    End::Column(c),
                )
            }
            Bound::Edge(a) => {
                let solved = self.solve_on_line((guess.0, a), (self.dphi, 0.0), 0.0, v.grad[0]);
                let ok = |p: &Point| (0.0..=PI).contains(&p.x);
                (
                    solved.filter(|(s, p, _)| s.abs() <= 1.0 && ok(p)),
                    End::Open,
                )
            }
        };
        Some(match landed {
            Some((_, p, smp)) => Step::Boundary(self.vertex(p.x, p.y, smp), end),
            None => Step::Lost,
        })
    }
}

/// The unit tangent (cell units) of a level set with gradient `grad`,
/// oriented along `along`; `None` where the gradient vanishes or is not
/// finite.
fn tangent(grad: [f64; 2], along: [f64; 2]) -> Option<[f64; 2]> {
    let g = grad[0].hypot(grad[1]);
    if !(g.is_finite() && g > 0.0) {
        return None;
    }
    let t = [-grad[1] / g, grad[0] / g];
    Some(if t[0] * along[0] + t[1] * along[1] < 0.0 {
        [-t[0], -t[1]]
    } else {
        t
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harmonics::HarmonicOptions;
    use crate::nonlinearity::Polynomial;
    use crate::shil::precharacterize;
    use shil_numerics::contour::marching_squares;

    #[test]
    fn both_branches_of_a_hard_excitation_element_are_traced() {
        // i = b₁v + b₃v³ + b₅v⁵ with T_f(A) = 0.5 + 2.5A² − 2A⁴ on R = 300:
        // small-signal gain 0.5 (the origin is stable), an unstable
        // oscillation at A = 0.5 and a stable one at A = 1 — two branches
        // of C_{T_f,1}, both crossing every phase column.
        let f =
            Polynomial::new(vec![0.0, -1.0 / 600.0, 0.0, -1.0 / 90.0, 0.0, 4.0 / 375.0]).unwrap();
        let (r, vi, n, phase_points) = (300.0, 0.02, 3, 121);
        let table = HarmonicTable::new(n, 1, &HarmonicOptions { samples: 256 });
        let amps: Vec<f64> = (0..81).map(|j| 0.3 + j as f64 / 80.0).collect();
        let track = trace_unity(&f, r, vi, &table, phase_points, &amps).unwrap();
        assert_eq!(track.non_finite, 0);
        assert_eq!(track.curves.len(), 2, "{:?}", track.curves);

        let mut buf = table.scratch();
        let mut levels = Vec::new();
        for (line, angles) in track.curves.iter().zip(&track.angles) {
            let pts = &line.points;
            assert_eq!((pts[0].x, pts[pts.len() - 1].x), (0.0, TAU));
            for (p, &angle) in pts.iter().zip(angles) {
                let i1 = table.i1(&f, p.y, vi, p.x, &mut buf);
                let tf = -r * i1.re / (p.y / 2.0);
                assert!((tf - 1.0).abs() <= 1e-11, "T_f = {tf} at {p:?}");
                assert!(wrap_angle(neg_angle(i1) - angle).abs() <= 1e-12);
            }
            levels.push(pts.iter().map(|p| p.y).sum::<f64>() / pts.len() as f64);
        }
        levels.sort_by(f64::total_cmp);
        assert!((levels[0] - 0.5).abs() < 0.05 && (levels[1] - 1.0).abs() < 0.05);

        // The marching-squares level set of the grid has the same two.
        let (tf, _) = precharacterize(&f, r, vi, phase_points, &amps, &table, 1).unwrap();
        assert_eq!(marching_squares(&tf, 1.0).unwrap().len(), 2);
    }
}
