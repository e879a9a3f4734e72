//! A02 — ablation: grid resolution of the graphical pass.
//!
//! The paper advertises a one-pass graphical procedure. This ablation shows
//! *why* a modest grid suffices in this implementation: the traced
//! `C_{T_f,1}`, whose vertices lie about one grid cell apart, only needs to
//! locate each intersection within one segment, because the 2×2 Newton
//! polish against the exact residuals supplies the final precision.

use shil::core::harmonics::HarmonicOptions;
use shil::core::nonlinearity::NegativeTanh;
use shil::core::shil::{ShilAnalysis, ShilOptions};
use shil::core::tank::ParallelRlc;
use shil_bench::{header, paper, timed};

fn main() {
    header("Ablation A02 — (phi, A) grid resolution vs solution accuracy");
    let f = NegativeTanh::new(1e-3, 20.0);
    let tank = ParallelRlc::new(1000.0, 10e-6, 10e-9).expect("tank");

    // High-resolution reference.
    let reference = ShilAnalysis::new(
        &f,
        &tank,
        paper::N,
        paper::VI,
        ShilOptions {
            phase_points: 481,
            amplitude_points: 281,
            ..Default::default()
        },
    )
    .expect("reference analysis");
    let ref_sols = reference.solutions_at_phase(0.02).expect("solutions");
    let ref_stable = ref_sols.iter().find(|s| s.stable).expect("stable");
    let ref_span = reference
        .lock_range()
        .expect("reference lock range")
        .injection_span_hz;
    println!(
        "reference (481x281): phi_s = {:+.9}, A_s = {:.9}, span = {:.6e} Hz",
        ref_stable.phase, ref_stable.amplitude, ref_span
    );
    println!();
    println!("grid      | build time | |dphi|    | |dA|      | span rel err | solutions found");
    println!("----------+------------+-----------+-----------+--------------+----------------");

    for (pp, ap) in [
        (31usize, 21usize),
        (61, 41),
        (121, 81),
        (161, 101),
        (241, 141),
    ] {
        let opts = ShilOptions {
            phase_points: pp,
            amplitude_points: ap,
            harmonics: HarmonicOptions { samples: 256 },
            ..Default::default()
        };
        let (an, t_build) =
            timed(|| ShilAnalysis::new(&f, &tank, paper::N, paper::VI, opts).expect("analysis"));
        let sols = an.solutions_at_phase(0.02).expect("solutions");
        let found = sols.len();
        let err = sols
            .iter()
            .find(|s| s.stable)
            .map(|s| {
                (
                    shil_numerics::angle_diff(s.phase, ref_stable.phase).abs(),
                    (s.amplitude - ref_stable.amplitude).abs(),
                )
            })
            .unwrap_or((f64::NAN, f64::NAN));
        let span = an
            .lock_range()
            .map(|l| l.injection_span_hz)
            .unwrap_or(f64::NAN);
        println!(
            "{:>4}x{:<4} | {:>10.1?} | {:>9.2e} | {:>9.2e} | {:>12.3e} | {found}",
            pp,
            ap,
            t_build,
            err.0,
            err.1,
            (span - ref_span).abs() / ref_span
        );
    }
    println!();
    println!("conclusion: once the grid is fine enough to find every");
    println!("intersection (>= ~61x41 here), the refined answers are");
    println!("resolution-independent — the graphical pass is a locator,");
    println!("not the precision step.");
}
