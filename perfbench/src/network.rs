//! `network`: coupling-strength points of detuned tanh-LC rings
//! (`NetworkSpec::build` → `CoupledNetwork::simulate` → `probe_lock`).
//!
//! Ring sizes put the MNA unknown counts (two per oscillator) on both
//! sides of `SolverKind::ITERATIVE_CROSSOVER`, so the `numerics`
//! sparse-LU and GMRES+ILU(0) tiers decide the cost. Points come in
//! cycles of four small rings and two large ones, strongly (locking) or
//! weakly (drifting) coupled, in a seeded order; a run stops at a cycle
//! boundary, so every seed measures the same work.

use shil::circuit::analysis::SolverKind;
use shil::circuit::network::{
    CoupledNetwork, Coupling, NetworkLockOptions, NetworkLockReport, NetworkSpec, Topology,
};
use shil::circuit::CircuitError;

use crate::common::{time, CycleClock, Pass, Report, Rng, Stop};
use crate::{layers, trace, Config};

/// Oscillators per ring: 2·SMALL unknowns below the crossover, 2·LARGE
/// above it.
const SMALL: usize = 128;
const LARGE: usize = 256;
const SETTLE_PERIODS: f64 = 60.0;
const RECORD_PERIODS: f64 = 36.0;
const POINTS_PER_PERIOD: usize = 32;
/// Spread of the per-oscillator detuning, ±.
const DETUNING: f64 = 0.004;
const SETUP_REPS: usize = 21;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    pub n: usize,
    /// Coupling resistance, Ω (lower couples more strongly).
    pub ohms: f64,
}

/// One cycle of (oscillators, coupling ohms): four small rings and two
/// large ones, each either strongly coupled (mutual lock) or weakly
/// coupled (drift).
const CYCLE: [(usize, f64); 6] = [
    (SMALL, 10.0),
    (SMALL, 12.0),
    (SMALL, 2e5),
    (SMALL, 3e5),
    (LARGE, 4.0),
    (LARGE, 3e5),
];

/// The seeded point stream: `cycles` cycles of [`CYCLE`], each in a
/// seeded order.
pub fn points(seed: u64, cycles: usize) -> Vec<Point> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    for _ in 0..cycles {
        let mut cycle: Vec<Point> = CYCLE.iter().map(|&(n, ohms)| Point { n, ohms }).collect();
        rng.shuffle(&mut cycle);
        out.extend(cycle);
    }
    out
}

fn base(n: usize) -> NetworkSpec {
    let detuning = (0..n)
        .map(|i| -DETUNING + 2.0 * DETUNING * i as f64 / (n - 1) as f64)
        .collect();
    NetworkSpec::new(n, Topology::Ring, Coupling::Resistive { ohms: 1e3 }).with_detuning(detuning)
}

fn lock_options() -> NetworkLockOptions {
    let mut opts = NetworkLockOptions::default();
    opts.lock.windows = 6;
    opts.lock.periods_per_window =
        ((0.9 * RECORD_PERIODS / opts.lock.windows as f64).floor() as usize).max(2);
    opts
}

fn run_point(p: &Point, solver: SolverKind) -> Result<NetworkLockReport, CircuitError> {
    let mut spec = base(p.n);
    spec.coupling = Coupling::Resistive { ohms: p.ohms };
    let net: CoupledNetwork = {
        let _s = trace::span("circuit.network.build");
        spec.build()?
    };
    let mut opts = net.transient_options(SETTLE_PERIODS, RECORD_PERIODS, POINTS_PER_PERIOD);
    opts.solver = solver;
    let result = {
        let _s = trace::span("circuit.tran.simulate");
        net.simulate(&opts)?
    };
    let _s = trace::span("waveform.probe_lock");
    net.probe_lock(&result, &lock_options())
}

/// Verdicts of a lock report: the mutual verdict, then each oscillator's,
/// then each pair's.
fn verdicts(r: &NetworkLockReport) -> Vec<bool> {
    std::iter::once(r.mutual_lock)
        .chain(r.oscillators.iter().map(|o| o.locked))
        .chain(r.pairs.iter().map(|p| p.locked))
        .collect()
}

struct PassOut {
    pass: Pass,
    mutual_locks: usize,
    /// The report of operation `keep` (the oracle's point), if it ran.
    kept: Option<NetworkLockReport>,
}

/// Lock reports of large rings hold every oscillator pair, so a pass keeps
/// only the one the oracle needs; keeping them all would make peak RSS
/// grow with the run length.
fn pass(points: &[Point], stop: Stop, keep: usize) -> PassOut {
    let mut out = Pass::default();
    let (mut mutual_locks, mut kept) = (0, None);
    let mut clock = CycleClock::new(CYCLE.len());
    let (_, wall) = time(|| {
        for (i, p) in points.iter().enumerate() {
            clock.tick(i, &mut out);
            if i % CYCLE.len() == 0 && !stop.allows(i) {
                break;
            }
            let _op = trace::op_span("network.point", i as u64 + 1);
            out.attempted += 1;
            let (res, dt) = time(|| run_point(p, SolverKind::Auto));
            match res {
                Ok(r) => {
                    out.latencies.push(dt);
                    mutual_locks += usize::from(r.mutual_lock);
                    if i == keep {
                        kept = Some(r);
                    }
                }
                Err(e) => {
                    eprintln!("network: point {i} {p:?} failed: {e}");
                    out.failed += 1;
                }
            }
        }
        clock.tick(out.attempted, &mut out);
    });
    out.wall_s = wall;
    PassOut {
        pass: out,
        mutual_locks,
        kept,
    }
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report {
        threads: vec![("transient", 1), ("clients", 1)],
        ..Report::default()
    };
    let stream = points(cfg.seed, 256);
    // Set-up: validating and assembling the two ring shapes once.
    for _ in 0..SETUP_REPS {
        let (built, dt) = time(|| [base(SMALL).build(), base(LARGE).build()]);
        report.setup_s.push(dt);
        for b in built {
            b.expect("benchmark ring specs are valid");
        }
    }
    // Oracle point: the first large ring, which `Auto` solves with the
    // iterative tier.
    let idx = stream
        .iter()
        .position(|p| p.n == LARGE)
        .expect("every cycle holds a large ring");
    let untraced = pass(&stream, Stop::after(cfg.untraced_time()), idx);
    report.peak_rss_mb = crate::common::peak_rss_mb();
    report.pass = untraced.pass.clone();

    let checked = if cfg.trace {
        layers::begin_traced_pass();
        let traced = pass(&stream, Stop::Count(untraced.pass.attempted), idx);
        let spans = layers::end_traced_pass();
        layers::fill(
            &mut report,
            spans,
            "network.point",
            &untraced.pass,
            &traced.pass,
        );
        traced
    } else {
        untraced
    };

    // Oracle: the kept large-ring point, re-run with the sparse direct
    // solver forced, must give the same verdicts as the `Auto` run.
    let point = &stream[idx];
    let sparse = run_point(point, SolverKind::Sparse);
    report
        .facts
        .push(("mutual_locks", checked.mutual_locks as f64, "count"));
    match (&checked.kept, &sparse) {
        (Some(auto), Ok(sparse)) => {
            let (a, b) = (verdicts(auto), verdicts(sparse));
            let wrong = a.iter().zip(&b).filter(|(x, y)| x != y).count();
            report.facts.push(("wrong_verdicts", wrong as f64, "count"));
            report.check(
                "sparse_reference_verdicts",
                wrong == 0 && a.len() == b.len(),
                format!(
                    "{wrong} of {} verdicts of point {idx} ({} oscillators, {} ohm) differ \
                     from the forced sparse-LU run",
                    a.len(),
                    point.n,
                    point.ohms
                ),
            );
        }
        (_, Err(e)) => report.check(
            "sparse_reference_verdicts",
            false,
            format!("the forced sparse-LU run of point {idx} failed: {e}"),
        ),
        (None, _) => report.check(
            "sparse_reference_verdicts",
            false,
            format!("point {idx} failed in the measured pass"),
        ),
    }
    report
}
