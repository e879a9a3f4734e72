//! `shil_core_prechar_cells_total` counts the cells the grid fill
//! evaluates: the `φ ∈ [0, π]` half, `⌈phase_points/2⌉ × amplitude_points`,
//! not the mirrored columns.
//!
//! This file is its own test process with a single test, so no other grid
//! fill can add to the process-wide counter while it is read.

use shil_core::nonlinearity::NegativeTanh;
use shil_core::shil::{ShilAnalysis, ShilOptions};
use shil_core::tank::ParallelRlc;

#[test]
fn default_build_evaluates_half_the_phase_columns() {
    const CELLS: &str = "shil_core_prechar_cells_total";
    let f = NegativeTanh::new(1e-3, 20.0);
    let tank = ParallelRlc::new(1000.0, 10e-6, 10e-9).unwrap();
    let opts = ShilOptions::default();
    shil_observe::set_enabled(true);
    let before = shil_observe::snapshot().counter(CELLS);
    ShilAnalysis::new(&f, &tank, 3, 0.03, opts).unwrap();
    let added = shil_observe::snapshot().counter(CELLS) - before;
    shil_observe::set_enabled(false);
    // 161 phase points → 81 evaluated columns, of 101 rows each.
    assert_eq!(
        added,
        (opts.phase_points.div_ceil(2) * opts.amplitude_points) as u64
    );
    assert_eq!(added, 81 * 101);
}
