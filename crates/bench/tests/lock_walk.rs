//! The phase-track walk of `ShilAnalysis::lock_range` against the scan +
//! bisection search it replaced (`shil_bench::oracle`), over random
//! oscillators, injection strengths and sub-harmonic orders.

use proptest::prelude::*;
use shil::core::nonlinearity::{NegativeTanh, Nonlinearity, Polynomial, TunnelDiode};
use shil::core::shil::{ShilAnalysis, ShilOptions};
use shil::core::tank::{ParallelRlc, Tank};
use shil::core::ShilError;
use shil_bench::oracle::{scan_lock_range, WALK_ORACLE_REL_BOUND};

/// Walk and oracle agree on `NoLock`, and otherwise on `φ_d_max` within
/// [`WALK_ORACLE_REL_BOUND`].
fn check<N, T>(f: &N, tank: &T, n: u32, vi: f64) -> Result<(), TestCaseError>
where
    N: Nonlinearity + Sync,
    T: Tank + Sync,
{
    let opts = ShilOptions {
        parallelism: Some(1),
        ..ShilOptions::default()
    };
    let an = ShilAnalysis::new(f, tank, n, vi, opts).expect("analysis");
    match (an.lock_range(), scan_lock_range(&an, tank)) {
        (Ok(walk), Ok(scan)) => {
            let err = (walk.phi_d_max - scan.phi_d_max).abs();
            prop_assert!(
                err <= WALK_ORACLE_REL_BOUND * scan.phi_d_max,
                "n={} vi={}: walk {} vs oracle {} (|Δ| = {:e})",
                n,
                vi,
                walk.phi_d_max,
                scan.phi_d_max,
                err
            );
            prop_assert_eq!(walk.amplitude_at_center, scan.amplitude_at_center);
            prop_assert!(!walk.degraded, "walk degraded at n={} vi={}", n, vi);
        }
        (Err(ShilError::NoLock), Err(ShilError::NoLock)) => {}
        (walk, scan) => prop_assert!(
            false,
            "n={} vi={}: walk {:?} vs oracle {:?}",
            n,
            vi,
            walk.map(|l| l.phi_d_max),
            scan.map(|l| l.phi_d_max)
        ),
    }
    Ok(())
}

fn rlc(r: f64) -> ParallelRlc {
    ParallelRlc::new(r, 10e-6, 10e-9).expect("tank")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn walk_agrees_with_the_scan_oracle(
        family in 0usize..3,
        vi in 0.01f64..0.05,
        n in 2u32..4,
    ) {
        match family {
            0 => check(&NegativeTanh::new(1e-3, 20.0), &rlc(1000.0), n, vi)?,
            1 => check(
                &Polynomial::new(vec![0.0, -5e-3, 0.0, 4e-3]).expect("poly"),
                &rlc(300.0),
                n,
                vi,
            )?,
            // The §VI-C tunnel diode at its 0.25 V bias, tank calibrated
            // to a 0.15 V natural amplitude.
            _ => check(
                &TunnelDiode::new().biased_at(0.25),
                &ParallelRlc::new(3753.858330376428, 10e-9, 10e-12).expect("tank"),
                n,
                vi,
            )?,
        }
    }
}
