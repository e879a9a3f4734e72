//! The traced pass: turning spans and the program's own counters into the
//! per-layer metrics listed in `BENCHMARK.json`.

use crate::common::{percentile, Pass, Report};
use crate::trace::{self, Span};

/// Spans recorded around layer calls; each gives `<name>_s` (busy time:
/// summed self time), `<name>_p50_s` (median call) and `<name>_calls`.
pub const SPAN_LAYERS: [&str; 16] = [
    "core.prechar_miss",
    "core.prechar_hit",
    "core.lock_range",
    "core.solutions",
    "repro.calibrate",
    "repro.extract",
    "circuit.network.build",
    "circuit.tran.simulate",
    "waveform.probe_lock",
    "serve.http.submit",
    "serve.http.status",
    "serve.http.results",
    "runtime.storage.replace",
    "runtime.storage.append",
    "runtime.storage.sync",
    "runtime.storage.read",
];

/// Span layers that also report `<name>_p90_s`.
pub const P90_LAYERS: [&str; 3] = [
    "serve.http.submit",
    "serve.http.status",
    "serve.http.results",
];

/// Counters and ratios that are not span aggregates.
pub const COUNTERS: [(&str, &str); 20] = [
    ("core.grid_builds", "count"),
    ("core.grid_hits", "count"),
    ("core.grid_hit_ratio", "1"),
    ("core.natural_builds", "count"),
    ("core.natural_hits", "count"),
    ("circuit.tran.steps", "count"),
    ("circuit.tran.halvings", "count"),
    ("circuit.tran.steps_per_s", "1/s"),
    ("numerics.factorizations", "count"),
    ("numerics.reuses", "count"),
    ("numerics.reuse_ratio", "1"),
    ("numerics.gmres_iters", "count"),
    ("numerics.gmres_fallbacks", "count"),
    ("numerics.newton_iters", "count"),
    ("serve.polls_per_job", "count"),
    ("serve.shed", "count"),
    ("runtime.storage.bytes_written", "B"),
    ("runtime.checkpoint.records_written", "count"),
    ("trace.overhead_frac", "1"),
    ("trace.unattributed_frac", "1"),
];

/// Every per-layer metric name with its unit, in output order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for name in SPAN_LAYERS {
        out.push((format!("{name}_s"), "s"));
        out.push((format!("{name}_p50_s"), "s"));
        if P90_LAYERS.contains(&name) {
            out.push((format!("{name}_p90_s"), "s"));
        }
        out.push((format!("{name}_calls"), "count"));
    }
    out.extend(COUNTERS.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Starts the traced pass: clears the `shil_observe` registry, then turns
/// it and span recording on. Spans recorded earlier (a traced set-up) are
/// kept.
pub fn begin_traced_pass() {
    shil::observe::reset();
    shil::observe::set_enabled(true);
    trace::set_enabled(true);
}

/// Ends the traced pass and returns its spans.
pub fn end_traced_pass() -> Vec<Span> {
    trace::set_enabled(false);
    trace::take()
}

/// Writes the spans of a traced run to `perfbench/out/`.
pub fn write_spans(workload: &str, seed: u64, spans: &[Span]) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, trace::to_jsonl(spans)))
    {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn counter(snap: &shil::observe::Snapshot, names: &[&str]) -> f64 {
    names.iter().map(|n| snap.counter(n) as f64).sum()
}

/// Fills the span aggregates, the registry-derived `numerics`/`circuit`
/// counters and the trace bookkeeping into `report.layer`. Workload code
/// inserts its own counters (cache, serve) before or after.
pub fn fill(report: &mut Report, spans: Vec<Span>, op_name: &str, untraced: &Pass, traced: &Pass) {
    let stats = trace::layer_stats(&spans);
    let l = &mut report.layer;
    let empty = trace::LayerStat::default();
    for name in SPAN_LAYERS {
        let s = stats.get(name).unwrap_or(&empty);
        l.insert(format!("{name}_s"), s.busy_s);
        l.insert(format!("{name}_p50_s"), percentile(&s.durations, 0.5));
        if P90_LAYERS.contains(&name) {
            l.insert(format!("{name}_p90_s"), percentile(&s.durations, 0.9));
        }
        l.insert(format!("{name}_calls"), s.calls as f64);
    }

    let snap = shil::observe::snapshot();
    // Workloads that hold the `PrecharCache` themselves insert its counters
    // first; elsewhere (the server's cache) the registry mirrors them.
    for (name, names) in [
        ("core.grid_builds", "shil_core_prechar_grid_misses_total"),
        ("core.grid_hits", "shil_core_prechar_grid_hits_total"),
        (
            "core.natural_builds",
            "shil_core_prechar_natural_misses_total",
        ),
        ("core.natural_hits", "shil_core_prechar_natural_hits_total"),
    ] {
        l.entry(name.into()).or_insert(counter(&snap, &[names]));
    }
    let (hits, builds) = (l["core.grid_hits"], l["core.grid_builds"]);
    l.insert(
        "core.grid_hit_ratio".into(),
        hits / (hits + builds).max(1.0),
    );
    let factorizations = counter(
        &snap,
        &[
            "shil_circuit_tran_factorizations_total",
            "shil_circuit_op_factorizations_total",
        ],
    );
    let reuses = counter(
        &snap,
        &[
            "shil_circuit_tran_reuses_total",
            "shil_circuit_op_reuses_total",
        ],
    );
    l.insert("numerics.factorizations".into(), factorizations);
    l.insert("numerics.reuses".into(), reuses);
    l.insert(
        "numerics.reuse_ratio".into(),
        reuses / (factorizations + reuses).max(1.0),
    );
    l.insert(
        "numerics.gmres_iters".into(),
        counter(&snap, &["shil_numerics_gmres_iterations_total"]),
    );
    l.insert(
        "numerics.gmres_fallbacks".into(),
        counter(
            &snap,
            &[
                "shil_numerics_gmres_stagnations_total",
                "shil_numerics_gmres_precond_breakdowns_total",
            ],
        ),
    );
    l.insert(
        "numerics.newton_iters".into(),
        counter(
            &snap,
            &[
                "shil_numerics_newton_iterations_total",
                "shil_circuit_tran_newton_iterations_total",
            ],
        ),
    );
    let steps = counter(&snap, &["shil_circuit_tran_attempts_total"]);
    l.insert("circuit.tran.steps".into(), steps);
    l.insert(
        "circuit.tran.halvings".into(),
        counter(&snap, &["shil_circuit_tran_halvings_total"]),
    );
    let tran_busy = stats.get("circuit.tran.simulate").map_or(0.0, |s| s.busy_s);
    l.insert(
        "circuit.tran.steps_per_s".into(),
        if tran_busy > 0.0 {
            steps / tran_busy
        } else {
            0.0
        },
    );
    l.insert(
        "runtime.checkpoint.records_written".into(),
        counter(&snap, &["shil_runtime_checkpoint_records_written_total"]),
    );
    l.insert(
        "trace.overhead_frac".into(),
        if untraced.wall_s > 0.0 {
            traced.wall_s / untraced.wall_s - 1.0
        } else {
            0.0
        },
    );
    l.insert(
        "trace.unattributed_frac".into(),
        trace::unattributed_frac(&spans, op_name),
    );
    report.spans = spans;
}
