//! The pre-characterization engine in isolation: the per-coefficient
//! scalar fill the crate originally shipped, the batched serial fill, the
//! batched parallel fill, and cache-served re-construction. These are the
//! numbers behind the "Performance" section of DESIGN.md.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use shil::core::cache::PrecharCache;
use shil::core::harmonics::{i1_injected, HarmonicTable};
use shil::core::nonlinearity::NegativeTanh;
use shil::core::shil::{effective_parallelism, precharacterize, ShilAnalysis, ShilOptions};
use shil::core::tank::ParallelRlc;

fn bench_precharacterize(c: &mut Criterion) {
    let f = NegativeTanh::new(1e-3, 20.0);
    let tank = ParallelRlc::new(1000.0, 10e-6, 10e-9).expect("tank");
    let opts = ShilOptions::default();
    let (n, vi, r) = (3u32, 0.03, 1000.0);

    let nx = opts.phase_points;
    let ny = opts.amplitude_points;
    let phis: Vec<f64> = (0..nx)
        .map(|i| std::f64::consts::TAU * i as f64 / (nx - 1) as f64)
        .collect();
    let amps: Vec<f64> = (0..ny).map(|j| 0.06 + 0.015 * j as f64).collect();
    let table = HarmonicTable::new(n, 1, &opts.harmonics);
    let cores = effective_parallelism(None);

    let mut g = c.benchmark_group("grid_fill");
    g.sample_size(10);
    // The original engine: one scalar two-tone quadrature per cell, trig
    // re-derived inside every integrand evaluation, over the full grid (the
    // batched fills evaluate the φ ≤ π half and mirror the rest).
    g.bench_function("scalar_per_cell", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &a in &amps {
                for &phi in &phis {
                    let i1 = i1_injected(&f, a, vi, phi, n, &opts.harmonics);
                    acc += -r * i1.re / (a / 2.0) + (-i1).arg();
                }
            }
            black_box(acc)
        })
    });
    g.bench_function("batched_serial", |b| {
        b.iter(|| precharacterize(&f, r, vi, nx, &amps, &table, 1).expect("grids"))
    });
    g.bench_function(format!("batched_parallel_x{cores}"), |b| {
        b.iter(|| precharacterize(&f, r, vi, nx, &amps, &table, cores).expect("grids"))
    });
    g.finish();

    let mut g = c.benchmark_group("analysis_construction");
    g.sample_size(10);
    g.bench_function("uncached", |b| {
        b.iter(|| ShilAnalysis::new(&f, &tank, n, vi, opts).expect("analysis"))
    });
    let cache = PrecharCache::new();
    // Warm the cache so the measured constructions are pure lookups.
    ShilAnalysis::new_cached(&f, &tank, n, vi, opts, &cache).expect("warm");
    g.bench_function("cached", |b| {
        b.iter(|| ShilAnalysis::new_cached(&f, &tank, n, vi, opts, &cache).expect("analysis"))
    });
    g.finish();
}

criterion_group!(benches, bench_precharacterize);
criterion_main!(benches);
