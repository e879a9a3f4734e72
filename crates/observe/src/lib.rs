//! `shil-observe` — zero-dependency observability for the SHIL solver
//! stack: metrics, span tracing, structured events and run manifests.
//!
//! The paper's method is a pipeline of iterative numerics (harmonic
//! pre-characterization grids, Newton closures, transient validation),
//! and understanding its behavior at sweep scale needs more than ad-hoc
//! printouts. This crate provides the four pieces, all `std`-only and
//! thread-safe:
//!
//! * **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]) behind a
//!   [`Registry`] — atomic, lock-free on the recording path, with a
//!   log-linear histogram whose exports can never contain NaN.
//! * **Spans** ([`Span`]) — RAII timers recording scope durations into
//!   `<name>_seconds` histograms.
//! * **Events** ([`EventLog`]) — structured JSONL records with a
//!   `--quiet`-aware human rendering, replacing `println!` progress
//!   output.
//! * **Manifests** ([`RunManifest`]) — one JSON file per run (config,
//!   seed, wall-time, metric snapshot) making `results/` artifacts
//!   self-describing.
//!
//! # The global registry
//!
//! Library code records into the crate-level global registry through the
//! free functions below ([`incr`], [`counter_add`], [`observe`],
//! [`gauge_set`], [`span`]). The global starts **disabled**: every
//! recording call is then a single relaxed atomic load, cheap enough to
//! leave instrumentation on in the hottest loops (the overhead bench in
//! `shil-bench` holds this to <2% on the transient hot loop). Binaries
//! that want telemetry call [`set_enabled`]`(true)` at startup and
//! [`snapshot`] at the end.
//!
//! Tests that need isolation construct their own [`Registry`] — or, for
//! code paths hard-wired to the global, run in their own integration-test
//! process.
//!
//! # Metric naming
//!
//! `shil_<layer>_<what>_<unit>`, e.g. `shil_core_prechar_grid_hits_total`
//! (counter), `shil_sweep_threads` (gauge),
//! `shil_circuit_tran_solve_seconds` (span histogram). `_total` suffixes
//! counters; histograms carry their unit (`_seconds`, `_attempts`).
//! The execution-control layer records under the same scheme:
//! per-layer `*_cancellations_total`, the sweep outcome taxonomy
//! (`shil_sweep_outcome_<outcome>_total`, `shil_sweep_retries_total`,
//! `shil_sweep_panics_total`) and checkpoint durability counters
//! (`shil_runtime_checkpoint_records_written_total`,
//! `shil_runtime_checkpoint_records_replayed_total`,
//! `shil_runtime_checkpoint_bytes_appended_total`,
//! `shil_runtime_checkpoint_torn_tails_total`,
//! `shil_runtime_checkpoint_corrupt_skipped_total`,
//! `shil_runtime_checkpoint_seals_total`,
//! `shil_runtime_storage_renames_total`,
//! `shil_sweep_checkpoint_write_failures_total`).
//! DESIGN.md's Observability section documents the full scheme.

pub mod events;
pub mod export;
mod json;
pub mod manifest;
pub mod metrics;
pub mod registry;
pub mod span;

pub use events::{EventLog, Field, Level};
pub use export::{to_json, to_prometheus};
pub use manifest::{RunManifest, MANIFEST_SCHEMA};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{Registry, Snapshot};
pub use span::Span;

/// The process-wide registry. Starts disabled.
static GLOBAL: Registry = Registry::new(false);

/// The process-wide registry, for callers that need direct handles.
pub fn global() -> &'static Registry {
    &GLOBAL
}

/// Turns global recording on or off.
pub fn set_enabled(on: bool) {
    GLOBAL.set_enabled(on);
}

/// Whether the global registry is recording.
#[inline]
pub fn is_enabled() -> bool {
    GLOBAL.is_enabled()
}

/// Adds one to global counter `name`; no-op while disabled.
#[inline]
pub fn incr(name: &'static str) {
    GLOBAL.incr(name);
}

/// Adds `n` to global counter `name`; no-op while disabled.
#[inline]
pub fn counter_add(name: &'static str, n: u64) {
    GLOBAL.counter_add(name, n);
}

/// Records `v` into global histogram `name`; no-op while disabled.
#[inline]
pub fn observe(name: &'static str, v: f64) {
    GLOBAL.observe(name, v);
}

/// Sets global gauge `name` to `v`; no-op while disabled.
#[inline]
pub fn gauge_set(name: &'static str, v: f64) {
    GLOBAL.gauge_set(name, v);
}

/// Starts an RAII span against the global registry; records into
/// `"<name>_seconds"` on drop. Free while disabled.
#[inline]
pub fn span(name: &'static str) -> Span<'static> {
    Span::enter(&GLOBAL, name)
}

/// Snapshot of the global registry.
pub fn snapshot() -> Snapshot {
    GLOBAL.snapshot()
}

/// Clears the global registry's metrics (the enabled switch is
/// untouched). Intended for tests and between-phase resets in harnesses.
pub fn reset() {
    GLOBAL.reset();
}

#[cfg(test)]
mod tests {
    // The global registry is process-wide state; unit tests here would
    // race with each other under the parallel test runner, so global-path
    // coverage lives in `tests/global.rs` (its own process) and all other
    // behavior is tested against scoped `Registry` instances in each
    // module. This module only checks the disabled default.
    #[test]
    fn global_registry_starts_disabled() {
        // Runs first in this process only because it is the sole test
        // touching `is_enabled` before any `set_enabled` call in-crate.
        assert!(!super::is_enabled());
    }
}
