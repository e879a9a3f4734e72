//! Shared plumbing for the experiment binaries that regenerate every figure
//! and table of the DAC 2014 SHIL paper.
//!
//! Each binary in `src/bin/` reproduces one figure or table (see DESIGN.md
//! §4 for the index) and writes its artifacts — SVG renderings and CSV data
//! — into `results/` at the workspace root, printing a paper-style summary
//! to stdout. The Criterion benches in `benches/` measure the runtime story
//! (prediction vs. brute-force simulation).

use std::path::PathBuf;
use std::time::Instant;

use shil::repro::simlock::SimOptions;
use shil::waveform::lock::LockOptions;

/// The paper's experiment constants (§IV).
pub mod paper {
    /// Sub-harmonic order used throughout §IV.
    pub const N: u32 = 3;
    /// Injection phasor magnitude `|V_i|` (V); physical peak is `2·V_i`.
    pub const VI: f64 = 0.03;
    /// Reported diff-pair natural amplitude (V) used to calibrate `R`.
    pub const DIFF_PAIR_AMPLITUDE: f64 = 0.505;
    /// Reported tunnel-diode natural amplitude (V) used to calibrate `R`.
    pub const TUNNEL_AMPLITUDE: f64 = 0.199;
    /// Diff-pair kick pulse that flips SHIL states (A, s) — Fig. 15.
    pub const DIFF_PAIR_KICK: (f64, f64) = (40e-3, 1.5e-6);
    /// Tunnel-diode kick pulse (A, s) — Fig. 19.
    pub const TUNNEL_KICK: (f64, f64) = (30e-3, 1.2e-9);

    /// Paper Table 1 (diff pair, §IV-A2) reference numbers, hertz.
    pub mod table1 {
        /// Simulated lower lock limit.
        pub const SIM_LOWER: f64 = 1.4998e6;
        /// Simulated upper lock limit.
        pub const SIM_UPPER: f64 = 1.5174e6;
        /// Predicted lower lock limit.
        pub const PRED_LOWER: f64 = 1.501065e6;
        /// Predicted upper lock limit.
        pub const PRED_UPPER: f64 = 1.518735e6;
        /// Reported speedup of prediction over simulation.
        pub const SPEEDUP: f64 = 25.0;
    }

    /// Paper Table 2 (tunnel diode, §IV-B2) reference numbers, hertz.
    pub mod table2 {
        /// Simulated lower lock limit.
        pub const SIM_LOWER: f64 = 1.507185e9;
        /// Simulated upper lock limit.
        pub const SIM_UPPER: f64 = 1.512293e9;
        /// Predicted lower lock limit.
        pub const PRED_LOWER: f64 = 1.507320e9;
        /// Predicted upper lock limit.
        pub const PRED_UPPER: f64 = 1.512429e9;
        /// Reported speedup of prediction over simulation.
        pub const SPEEDUP: f64 = 50.0;
    }
}

/// Simulation settings for the publication-quality table runs: fine time
/// step (numerical dispersion ∝ dt² shifts the apparent frequency), long
/// settle, strict phase-drift gate.
pub fn accurate_sim_options() -> SimOptions {
    SimOptions {
        steps_per_period: 256,
        settle_periods: 900.0,
        lock: LockOptions {
            windows: 10,
            periods_per_window: 30,
            max_drift: 0.02,
            ..LockOptions::default()
        },
        startup_kick: 0.1,
    }
}

/// Faster settings for smoke runs and tests.
pub fn fast_sim_options() -> SimOptions {
    SimOptions::default()
}

/// Directory for experiment artifacts (`results/` at the workspace root),
/// created on first use.
///
/// # Panics
///
/// Panics if the directory cannot be created — the experiment binaries
/// cannot do anything useful without it.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    std::fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Observability wiring shared by the perf harnesses: parses the common
/// `--quiet` / `--metrics-out [path]` / `--events-out [path]` flags,
/// enables the process-wide metric registry when metrics are requested,
/// and writes the run manifest next to the `BENCH_*.json` artifacts.
pub mod obs {
    use std::path::PathBuf;

    use shil_observe::{EventLog, RunManifest};

    use crate::results_dir;

    /// Parsed observability flags plus the live event log.
    pub struct Observability {
        /// Manifest destination when `--metrics-out` was given.
        pub metrics_out: Option<PathBuf>,
        /// The `--quiet`-aware event log (JSONL sink when `--events-out`).
        pub log: EventLog,
    }

    /// A flag whose value is optional: absent → `None`, `--flag` alone →
    /// `Some(default)`, `--flag path` → `Some(path)`. A following token
    /// that looks like another flag does not count as the value.
    fn optional_path(args: &[String], flag: &str, default: PathBuf) -> Option<PathBuf> {
        let i = args.iter().position(|a| a == flag)?;
        match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Some(PathBuf::from(v)),
            _ => Some(default),
        }
    }

    /// Wires observability up from the process arguments. `stem` names the
    /// default artifact files (`manifest_<stem>.json` and
    /// `events_<stem>.jsonl` under `results/`).
    pub fn init(stem: &str) -> Observability {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let quiet = args.iter().any(|a| a == "--quiet");
        let metrics_out = optional_path(
            &args,
            "--metrics-out",
            results_dir().join(format!("manifest_{stem}.json")),
        );
        let events_out = optional_path(
            &args,
            "--events-out",
            results_dir().join(format!("events_{stem}.jsonl")),
        );
        if metrics_out.is_some() {
            shil_observe::set_enabled(true);
        }
        let log = match &events_out {
            Some(p) => EventLog::to_path(p, quiet).expect("open event log"),
            None => EventLog::terminal(quiet),
        };
        Observability { metrics_out, log }
    }

    impl Observability {
        /// Finalizes `manifest` against the global registry and writes it
        /// when `--metrics-out` was requested.
        pub fn write_manifest(&self, manifest: RunManifest) {
            let Some(path) = &self.metrics_out else {
                return;
            };
            let manifest = manifest.finish(shil_observe::global());
            manifest.write(path).expect("write manifest");
            self.log.info(
                "manifest_written",
                &[("path", path.display().to_string().into())],
            );
        }
    }
}

/// The lock-range search `ShilAnalysis::lock_range` used before it walked
/// the phase track, kept as a test oracle for the walk. Public API only.
pub mod oracle {
    use shil::core::shil::{LockRange, ShilAnalysis};
    use shil::core::{Nonlinearity, ShilError, Tank};

    /// Largest allowed `|Δφ_d_max|` between the walk and this oracle,
    /// relative to `φ_d_max`. The oracle bisects on where the graphical
    /// (track-resolution) intersection vanishes, which sits below the exact
    /// fold the walk refines to by about `φ_d_max·h²/8` for a sinusoidal
    /// `φ_d(φ)` sampled at the default grid's phase step `h = 2π/160`:
    /// 1.9e-4. Seen up to 3.8e-4 over tanh, van der Pol and the biased
    /// tunnel diode at `V_i` ∈ [0.01, 0.05], `n` ∈ {2, 3}.
    pub const WALK_ORACLE_REL_BOUND: f64 = 1e-3;

    /// Coarse scan steps over `φ_d ∈ (0, 0.999·π/2]`.
    pub const SCAN_STEPS: usize = 16;
    /// Bisection iterations between the last locked and the first unlocked
    /// scan point.
    pub const BISECTION_ITERS: usize = 36;

    /// `(stable lock exists, any solution degraded)` at `φ_d`.
    fn probe<N, T>(an: &ShilAnalysis<'_, N, T>, phi_d: f64) -> (bool, bool)
    where
        N: Nonlinearity + Sync + ?Sized,
        T: Tank + Sync + ?Sized,
    {
        an.solutions_at_phase(phi_d)
            .map(|sols| {
                (
                    sols.iter().any(|s| s.stable),
                    sols.iter().any(|s| s.degraded),
                )
            })
            .unwrap_or((false, false))
    }

    /// The lock range by scan plus bisection: [`SCAN_STEPS`] probes find
    /// the first `φ_d > 0` without a stable lock, [`BISECTION_ITERS`]
    /// probes sharpen it, and `tank`'s phase inverse maps `±φ_d_max` to
    /// frequency. Every probe is one `solutions_at_phase` call.
    ///
    /// # Errors
    ///
    /// [`ShilError::NoLock`] when `φ_d = 0` has no stable solution, and the
    /// tank's phase-inverse errors.
    pub fn scan_lock_range<N, T>(
        an: &ShilAnalysis<'_, N, T>,
        tank: &T,
    ) -> Result<LockRange, ShilError>
    where
        N: Nonlinearity + Sync + ?Sized,
        T: Tank + Sync + ?Sized,
    {
        let center = an
            .solutions_at_phase(0.0)
            .unwrap_or_default()
            .into_iter()
            .filter(|s| s.stable)
            .max_by(|a, b| a.amplitude.total_cmp(&b.amplitude))
            .ok_or(ShilError::NoLock)?;
        let mut degraded = center.degraded;
        let cap = std::f64::consts::FRAC_PI_2 * 0.999;
        let (mut lo, mut hi) = (0.0, cap);
        let mut found_fail = false;
        for k in 1..=SCAN_STEPS {
            let phi = cap * k as f64 / SCAN_STEPS as f64;
            let (ok, deg) = probe(an, phi);
            degraded |= deg;
            if ok {
                lo = phi;
            } else {
                hi = phi;
                found_fail = true;
                break;
            }
        }
        let phi_d_max = if found_fail {
            for _ in 0..BISECTION_ITERS {
                let mid = 0.5 * (lo + hi);
                let (ok, deg) = probe(an, mid);
                degraded |= deg;
                if ok {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi)
        } else {
            cap
        };
        let lower_oscillator_hz = tank.omega_for_phase(phi_d_max)? / std::f64::consts::TAU;
        let upper_oscillator_hz = tank.omega_for_phase(-phi_d_max)? / std::f64::consts::TAU;
        let nf = f64::from(an.order());
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

/// Runs `f`, returning its output and wall-clock duration.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Prints a boxed experiment header.
pub fn header(title: &str) {
    let bar: String = "=".repeat(title.len() + 4);
    println!("{bar}\n| {title} |\n{bar}");
}

/// Formats hertz with engineering units.
pub fn fmt_hz(f: f64) -> String {
    let a = f.abs();
    if a >= 1e9 {
        format!("{:.6} GHz", f / 1e9)
    } else if a >= 1e6 {
        format!("{:.6} MHz", f / 1e6)
    } else if a >= 1e3 {
        format!("{:.4} kHz", f / 1e3)
    } else {
        format!("{f:.3} Hz")
    }
}

/// Relative deviation `|a − b| / |b|`.
pub fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_hz_units() {
        assert_eq!(fmt_hz(1.5e9), "1.500000 GHz");
        assert_eq!(fmt_hz(1.5174e6), "1.517400 MHz");
        assert_eq!(fmt_hz(503.3e3), "503.3000 kHz");
        assert_eq!(fmt_hz(12.0), "12.000 Hz");
    }

    #[test]
    fn rel_err_basic() {
        assert!((rel_err(1.01, 1.0) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn results_dir_is_creatable() {
        let d = results_dir();
        assert!(d.is_dir());
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // sanity-checking the paper constants is the point
    fn paper_constants_are_consistent() {
        use paper::*;
        assert!(table1::SIM_UPPER > table1::SIM_LOWER);
        assert!(table2::PRED_UPPER > table2::PRED_LOWER);
        assert_eq!(N, 3);
        assert!(VI > 0.0);
    }

    #[test]
    fn sim_option_presets_differ() {
        assert!(accurate_sim_options().settle_periods > fast_sim_options().settle_periods);
    }
}
