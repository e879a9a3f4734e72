//! Property-based invariants of the batched/parallel pre-characterization
//! engine.
//!
//! Two guarantees are load-bearing for the perf work and are pinned here:
//!
//! 1. **Thread-count invariance is exact.** The parallel grid fill
//!    partitions rows across workers but computes every cell with the same
//!    expressions in the same order, so serial and parallel fills must be
//!    *bit-for-bit* identical — not merely close. Same for the full
//!    analysis pipeline (refinement fan-out, lock-range scan).
//! 2. **Batching does not change the numbers.** The single-tone batched
//!    path reuses the exact trigonometric expressions of the scalar path
//!    and must match it bit-for-bit; the two-tone path phase-decomposes the
//!    injection angle and is allowed rounding-level (~1 ulp per operation)
//!    differences only.

use proptest::prelude::*;
use shil_core::harmonics::{i1_injected, i_k, HarmonicOptions, HarmonicTable};
use shil_core::nonlinearity::NegativeTanh;
use shil_core::shil::{precharacterize, ShilAnalysis, ShilOptions};
use shil_core::tank::ParallelRlc;

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
        let phis: Vec<f64> = (0..nx)
            .map(|i| std::f64::consts::TAU * i as f64 / nx as f64)
            .collect();
        let amps: Vec<f64> = (0..ny).map(|j| 0.1 + 0.1 * j as f64).collect();
        let r = 1000.0;

        let (tf_serial, ang_serial) =
            precharacterize(&f, r, vi, &phis, &amps, &table, 1).unwrap();
        let (tf_par, ang_par) =
            precharacterize(&f, r, vi, &phis, &amps, &table, threads).unwrap();

        // Grid2 compares data element-wise by f64 equality, so this is the
        // bit-for-bit claim (no NaNs occur for these inputs).
        prop_assert_eq!(&tf_serial, &tf_par);
        prop_assert_eq!(&ang_serial, &ang_par);
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
        // coarse scan; both must also be exactly thread-count invariant.
        let s = serial.solutions_at_phase(phi_d).unwrap();
        let p = parallel.solutions_at_phase(phi_d).unwrap();
        prop_assert_eq!(s, p);
        let lr_s = serial.lock_range().unwrap();
        let lr_p = parallel.lock_range().unwrap();
        prop_assert_eq!(lr_s, lr_p);
    }
}
