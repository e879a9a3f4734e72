//! Property-based invariants of the batched/parallel pre-characterization
//! engine.
//!
//! Three guarantees are load-bearing for the perf work and are pinned here:
//!
//! 1. **Thread-count invariance is exact.** The parallel grid fill
//!    partitions rows across workers but computes every cell with the same
//!    expressions in the same order, so serial and parallel fills must be
//!    *bit-for-bit* identical — not merely close. Same for the full
//!    analysis pipeline (refinement fan-out, lock-range walk).
//! 2. **Batching does not change the numbers.** The single-tone batched
//!    path reuses the exact trigonometric expressions of the scalar path
//!    and must match it bit-for-bit; the two-tone path phase-decomposes the
//!    injection angle and is allowed rounding-level (~1 ulp per operation)
//!    differences only.
//! 3. **The mirrored half of the grid is the grid.** The fill evaluates
//!    only `φ ∈ [0, π]` and writes the column at `2π − φ` from the
//!    conjugate symmetry; every node must match a direct scalar evaluation
//!    at that node to rounding level, for every element family.

use proptest::prelude::*;
use shil_core::harmonics::{
    angle_neg_i1, i1_injected, i_k, t_f_injected, HarmonicOptions, HarmonicTable,
};
use shil_core::nonlinearity::{NegativeTanh, Nonlinearity, Polynomial, Tabulated, TunnelDiode};
use shil_core::shil::{precharacterize, ShilAnalysis, ShilOptions};
use shil_core::tank::ParallelRlc;
use shil_numerics::angle_diff;

/// Fills a `phase_points × amps` grid and compares every node — the
/// mirrored `φ > π` columns included — with `t_f_injected` /
/// `angle_neg_i1` evaluated directly at the node's `(φ, A)`.
fn check_mirror<N: Nonlinearity + Sync>(
    f: &N,
    r: f64,
    vi: f64,
    n: u32,
    phase_points: usize,
    amps: &[f64],
) -> Result<(), TestCaseError> {
    let opts = HarmonicOptions { samples: 64 };
    let table = HarmonicTable::new(n, 1, &opts);
    let (tf, angle) = precharacterize(f, r, vi, phase_points, amps, &table, 1).unwrap();
    prop_assert_eq!(tf.nx(), phase_points);
    for (j, &a) in amps.iter().enumerate() {
        for (i, &phi) in tf.xs().iter().enumerate() {
            let tf_direct = t_f_injected(f, r, a, vi, phi, n, &opts);
            let angle_direct = angle_neg_i1(f, a, vi, phi, n, &opts);
            let (t, g) = (tf.value(i, j), angle.value(i, j));
            prop_assert!(
                (t - tf_direct).abs() <= 1e-12 * (1.0 + tf_direct.abs()),
                "n={} nx={} node ({}, {}): T_f {} vs direct {}",
                n,
                phase_points,
                i,
                j,
                t,
                tf_direct
            );
            prop_assert!(
                angle_diff(g, angle_direct).abs() <= 1e-12,
                "n={} nx={} node ({}, {}): angle {} vs direct {}",
                n,
                phase_points,
                i,
                j,
                g,
                angle_direct
            );
            prop_assert!(
                g > -std::f64::consts::PI && g <= std::f64::consts::PI,
                "n={} nx={} node ({}, {}): angle {} outside (-pi, pi] (direct {})",
                n,
                phase_points,
                i,
                j,
                g,
                angle_direct
            );
        }
    }
    Ok(())
}

/// Element families of the mirror check, with a tank resistance and an
/// amplitude scale near each one's natural oscillation: the tanh
/// reference, van der Pol, the §VI-C tunnel diode at its 0.25 V bias, and
/// a PCHIP table of a tanh curve.
fn check_family(family: usize, vi: f64, n: u32, phase_points: usize) -> Result<(), TestCaseError> {
    let amps = |scale: f64| -> Vec<f64> { (1..=5).map(|j| scale * j as f64 / 4.0).collect() };
    match family {
        0 => check_mirror(
            &NegativeTanh::new(1e-3, 20.0),
            1000.0,
            vi,
            n,
            phase_points,
            &amps(0.1),
        ),
        1 => check_mirror(
            &Polynomial::van_der_pol(5e-3, 4e-3).unwrap(),
            300.0,
            vi,
            n,
            phase_points,
            &amps(1.0),
        ),
        2 => check_mirror(
            &TunnelDiode::new().biased_at(0.25),
            3753.858330376428,
            vi,
            n,
            phase_points,
            &amps(0.15),
        ),
        _ => {
            let v: Vec<f64> = (0..=40).map(|k| -0.5 + 0.025 * k as f64).collect();
            let i = v.iter().map(|&x| -1e-3 * (20.0 * x).tanh()).collect();
            check_mirror(
                &Tabulated::new(v, i).unwrap(),
                1000.0,
                vi,
                n,
                phase_points,
                &amps(0.1),
            )
        }
    }
}

#[test]
fn mirrored_grid_matches_direct_evaluation_on_the_smallest_axes() {
    // Two and three phase points: the φ = 2π column mirrors φ = 0, and the
    // φ = π column of an odd axis is its own mirror.
    for family in 0..4 {
        for n in 1..=4 {
            for phase_points in [2, 3] {
                check_family(family, 0.02, n, phase_points).unwrap();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_grid_fill_is_bit_identical_to_serial(
        i0 in 2e-4f64..5e-3,
        gain in 5.0f64..40.0,
        vi in 0.005f64..0.08,
        n in 1u32..5,
        nx in 5usize..24,
        ny in 3usize..16,
        threads in 2usize..7,
    ) {
        let f = NegativeTanh::new(i0, gain);
        let table = HarmonicTable::new(n, 1, &HarmonicOptions { samples: 64 });
        let amps: Vec<f64> = (0..ny).map(|j| 0.1 + 0.1 * j as f64).collect();
        let r = 1000.0;

        let (tf_serial, ang_serial) =
            precharacterize(&f, r, vi, nx, &amps, &table, 1).unwrap();
        let (tf_par, ang_par) =
            precharacterize(&f, r, vi, nx, &amps, &table, threads).unwrap();

        // Grid2 compares data element-wise by f64 equality, so this is the
        // bit-for-bit claim (no NaNs occur for these inputs).
        prop_assert_eq!(&tf_serial, &tf_par);
        prop_assert_eq!(&ang_serial, &ang_par);
    }

    #[test]
    fn mirrored_grid_matches_direct_evaluation(
        family in 0usize..4,
        vi in 0.005f64..0.05,
        n in 1u32..5,
        phase_points in 2usize..24,
    ) {
        check_family(family, vi, n, phase_points)?;
    }

    #[test]
    fn batched_single_tone_harmonics_are_bitwise_scalar(
        i0 in 2e-4f64..5e-3,
        gain in 5.0f64..40.0,
        amplitude in 0.05f64..2.0,
    ) {
        let f = NegativeTanh::new(i0, gain);
        let opts = HarmonicOptions { samples: 128 };
        let table = HarmonicTable::new(1, 3, &opts);
        let mut buf = table.scratch();
        table.sample_single_into(&f, amplitude, &mut buf);
        for k in 0..=3usize {
            let batched = table.coefficient(&buf, k);
            let scalar = i_k(&f, amplitude, k as i32, &opts);
            prop_assert_eq!(batched.re.to_bits(), scalar.re.to_bits());
            prop_assert_eq!(batched.im.to_bits(), scalar.im.to_bits());
        }
    }

    #[test]
    fn batched_two_tone_fundamental_matches_scalar_reference(
        i0 in 2e-4f64..5e-3,
        gain in 5.0f64..40.0,
        amplitude in 0.05f64..2.0,
        vi in 0.005f64..0.08,
        phi in -3.1f64..3.1,
        n in 1u32..5,
    ) {
        let f = NegativeTanh::new(i0, gain);
        let opts = HarmonicOptions { samples: 128 };
        let table = HarmonicTable::new(n, 1, &opts);
        let mut buf = table.scratch();
        let batched = table.i1(&f, amplitude, vi, phi, &mut buf);
        let scalar = i1_injected(&f, amplitude, vi, phi, n, &opts);
        // The phase decomposition reorders rounding, so allow a few ulps of
        // the coefficient scale (bounded by the saturation current i0).
        let tol = 16.0 * f64::EPSILON * i0.max(batched.abs());
        prop_assert!(
            (batched - scalar).abs() <= tol,
            "batched {:?} vs scalar {:?} (tol {})",
            batched,
            scalar,
            tol
        );
    }
}

proptest! {
    // Full-pipeline cases are much heavier (two complete analyses each), so
    // run fewer of them.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn full_analysis_is_invariant_under_thread_count(
        vi in 0.015f64..0.05,
        phi_d in -0.03f64..0.03,
        threads in 2usize..5,
    ) {
        let f = NegativeTanh::new(1e-3, 20.0);
        let tank = ParallelRlc::new(1000.0, 10e-6, 10e-9).unwrap();
        let opts = |p: usize| ShilOptions {
            phase_points: 61,
            amplitude_points: 41,
            harmonics: HarmonicOptions { samples: 128 },
            parallelism: Some(p),
            ..Default::default()
        };
        let serial = ShilAnalysis::new(&f, &tank, 3, vi, opts(1)).unwrap();
        let parallel = ShilAnalysis::new(&f, &tank, 3, vi, opts(threads)).unwrap();

        prop_assert_eq!(serial.tf_grid(), parallel.tf_grid());
        prop_assert_eq!(serial.angle_grid(), parallel.angle_grid());

        // Solutions and the lock range run the refinement fan-out and the
        // phase-track walk; both must also be exactly thread-count invariant.
        let s = serial.solutions_at_phase(phi_d).unwrap();
        let p = parallel.solutions_at_phase(phi_d).unwrap();
        prop_assert_eq!(s, p);
        let lr_s = serial.lock_range().unwrap();
        let lr_p = parallel.lock_range().unwrap();
        prop_assert_eq!(lr_s, lr_p);
    }
}
