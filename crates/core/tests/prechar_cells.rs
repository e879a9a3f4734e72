//! Work counters of the pre-characterization, on the default options:
//!
//! - `shil_core_prechar_cells_total` counts the cells the grid fill
//!   evaluates: the `φ ∈ [0, π]` half, `⌈phase_points/2⌉ × amplitude_points`,
//!   not the mirrored columns;
//! - a cold `ShilAnalysis::new` fills no grid at all: it traces `C_{T_f,1}`,
//!   and `shil_core_track_evals_total` counts the `I₁` evaluations it spends.
//!
//! This file is its own test process with a single test, so no other build
//! can add to the process-wide counters while they are read.

use shil_core::harmonics::HarmonicTable;
use shil_core::nonlinearity::NegativeTanh;
use shil_core::shil::{precharacterize, ShilAnalysis, ShilOptions};
use shil_core::tank::ParallelRlc;

/// What `run` adds to each counter in `names`.
fn added<const K: usize>(names: [&str; K], run: impl FnOnce()) -> [u64; K] {
    let before = shil_observe::snapshot();
    run();
    let after = shil_observe::snapshot();
    names.map(|name| after.counter(name) - before.counter(name))
}

#[test]
fn grid_fill_evaluates_half_the_columns_and_a_cold_build_fills_none() {
    const CELLS: &str = "shil_core_prechar_cells_total";
    const TRACK: &str = "shil_core_track_evals_total";
    let f = NegativeTanh::new(1e-3, 20.0);
    let tank = ParallelRlc::new(1000.0, 10e-6, 10e-9).unwrap();
    let opts = ShilOptions::default();
    shil_observe::set_enabled(true);

    let amps: Vec<f64> = (0..opts.amplitude_points)
        .map(|j| 0.06 + 0.015 * j as f64)
        .collect();
    let table = HarmonicTable::new(3, 1, &opts.harmonics);
    let [cells, _] = added([CELLS, TRACK], || {
        precharacterize(&f, 1000.0, 0.03, opts.phase_points, &amps, &table, 1).unwrap();
    });
    // 161 phase points → 81 evaluated columns, of 101 rows each.
    assert_eq!(
        cells,
        (opts.phase_points.div_ceil(2) * opts.amplitude_points) as u64
    );
    assert_eq!(cells, 81 * 101);

    let [cells, evals] = added([CELLS, TRACK], || {
        ShilAnalysis::new(&f, &tank, 3, 0.03, opts).unwrap();
    });
    shil_observe::set_enabled(false);
    assert_eq!(cells, 0, "a cold build filled grid cells");
    assert!(
        evals > 0 && evals <= 1500,
        "a cold build made {evals} I₁ evaluations"
    );
}
