//! Memoized pre-characterization cache for SHIL sweeps.
//!
//! The expensive artifacts of a [`crate::shil::ShilAnalysis`] — the natural
//! oscillation solve and the traced `C_{T_f,1}` level set with its phase
//! track (plus the `(φ, A)` grids, once a figure accessor has asked for
//! them) — depend only on the *value* of the oscillator (nonlinearity +
//! tank parameters), the injection `(n, V_i)` and the grid/sampling
//! options, not on which `ShilAnalysis` instance asked for them. A
//! [`PrecharCache`] keys them by those values so that sweeps (the Tab. 1/2
//! frequency sweeps, Fig. 10's isoline families, Fig. 14's
//! amplitude-vs-detuning curve) re-analyzing the same oscillator reuse one
//! build instead of repeating it per sweep point.
//!
//! Elements identify themselves through
//! [`Nonlinearity::fingerprint`](crate::nonlinearity::Nonlinearity::fingerprint)
//! and [`Tank::fingerprint`](crate::tank::Tank::fingerprint) — a stable
//! 64-bit digest of their parameters. Elements that cannot be identified by
//! value (arbitrary closures) return `None` and bypass the cache safely.
//!
//! The natural-oscillation solve is cached under a *coarser* key than the
//! grids: it does not depend on `(n, V_i)` or the grid spec, so a `V_i`
//! sweep at fixed oscillator re-solves it exactly once.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use shil_numerics::contour::Polyline;
use shil_numerics::Grid2;

use crate::describing::NaturalOscillation;
use crate::error::ShilError;
use crate::harmonics::HarmonicTable;

/// FNV-1a digest of a tag string plus a parameter list.
///
/// The tag separates element types with coincidentally equal parameters
/// (`NegativeTanh{1e-3, 20}` vs a polynomial starting with the same
/// numbers). Parameters hash by their exact bit patterns, so two elements
/// collide only when they are numerically identical — which is exactly when
/// sharing a cache entry is correct.
pub fn fingerprint(tag: &str, params: &[f64]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in tag.as_bytes() {
        h = (h ^ u64::from(*b)).wrapping_mul(PRIME);
    }
    for p in params {
        for b in p.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
    h
}

/// Folds a child digest into a parent digest (for wrapper elements like
/// `Biased<N>`).
pub fn combine(parent: u64, child: u64) -> u64 {
    // splitmix64-style finalizer keeps the combination well mixed.
    let mut z = parent ^ child.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Everything a [`crate::shil::ShilAnalysis`] computes up front that depends
/// only on (oscillator, `n`, `V_i`, grid spec): the natural oscillation, the
/// sampling tables, and the injection-frequency-invariant `C_{T_f,1}` level
/// set traced by continuation, with its phase track. A few KB per entry.
///
/// The `(φ, A)` grids of `T_f` and `∠−I₁` are not part of a prediction;
/// the entry holds them only after a figure accessor
/// ([`crate::shil::ShilAnalysis::tf_grid`] and friends) filled them.
#[derive(Debug, Clone)]
pub struct Precharacterization {
    /// The natural oscillation the amplitude window was scaled from.
    pub natural: NaturalOscillation,
    /// Tank peak resistance `R` used in `T_f`.
    pub r: f64,
    /// Sampling/twiddle tables for the exact residual evaluations.
    pub table: HarmonicTable,
    /// Points of the uniform phase axis `[0, 2π]`: the grids' x axis, and
    /// the phase cell `2π/(phase_points − 1)` of the continuation step.
    pub phase_points: usize,
    /// The uniform amplitude axis: the grids' y axis and the window
    /// `C_{T_f,1}` is traced in.
    pub amplitudes: Vec<f64>,
    /// The `C_{T_f,1}` level set (independent of injection frequency).
    pub tf_unity: Vec<Polyline>,
    /// The phase track along `C_{T_f,1}`: `phase_track[i][k]` is
    /// `∠−I₁` evaluated exactly at vertex `k` of `tf_unity[i]`, so that
    /// vertex is a lock solution for the tank phase `φ_d = −phase_track[i][k]`.
    /// Lock solutions and the lock range are read off this track.
    pub phase_track: Vec<Vec<f64>>,
    /// The §VI-B3 Jacobian-trace estimate at each vertex of `tf_unity`,
    /// from the tracer's finite differences; it places the arc splits of
    /// the lock-range walk.
    pub trace_track: Vec<Vec<f64>>,
    /// Number of tracer evaluations where `T_f` or `∠−I₁` came out
    /// non-finite.
    ///
    /// A trace stops at a non-finite evaluation, so a nonzero count means
    /// `C_{T_f,1}` (and everything derived from it) may be incomplete —
    /// queries against this pre-characterization report their solutions
    /// as degraded.
    pub non_finite_evals: usize,
    /// The `(T_f, ∠−I₁)` grids, filled on first use by a figure accessor.
    pub(crate) grids: OnceLock<(Grid2, Grid2)>,
}

impl Precharacterization {
    /// Spacing of the phase axis.
    pub(crate) fn phase_step(&self) -> f64 {
        std::f64::consts::TAU / (self.phase_points - 1) as f64
    }
}

/// Cache key for a pre-characterization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrecharKey {
    /// Nonlinearity parameter digest.
    pub nonlinearity: u64,
    /// Tank parameter digest.
    pub tank: u64,
    /// Sub-harmonic order.
    pub n: u32,
    /// Injection magnitude bit pattern.
    pub vi_bits: u64,
    /// Digest of the grid/sampling options.
    pub options: u64,
}

/// Cache key for a natural-oscillation solve (no injection dependence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NaturalKey {
    /// Nonlinearity parameter digest.
    pub nonlinearity: u64,
    /// Tank parameter digest.
    pub tank: u64,
    /// Digest of the natural-solve options.
    pub options: u64,
}

/// A cache entry stamped with its last-use tick, the unit of the LRU
/// eviction order.
#[derive(Debug)]
struct Stamped<V> {
    value: V,
    last_used: u64,
}

/// Thread-safe memoization of pre-characterizations and natural solves.
///
/// Entries are shared via [`Arc`]; hit/miss counters expose the reuse a
/// sweep achieved (the `perf_precharacterize` harness reports them), and
/// each event is mirrored to the process-wide `shil-observe` registry as
/// the `shil_core_prechar_*` counters (plus the cross-layer
/// `shil_prechar_cache_{hit,miss,evict}_total` triplet) when it is
/// enabled. Lookups never hold a lock across a build, so concurrent
/// sweeps can (rarely) race to build the same entry — the first insert
/// wins and both callers receive the canonical `Arc`.
///
/// A cache built with [`PrecharCache::bounded`] holds at most `capacity`
/// grid entries and `capacity` natural solves, evicting the
/// least-recently-used entry on overflow — the configuration a long-lived
/// server needs, where one shared cache sees an unbounded stream of
/// distinct oscillators and must not grow without bound. [`Arc`]s handed
/// out before an eviction stay valid; eviction only drops the cache's own
/// reference.
#[derive(Debug, Default)]
pub struct PrecharCache {
    grids: Mutex<HashMap<PrecharKey, Stamped<Arc<Precharacterization>>>>,
    naturals: Mutex<HashMap<NaturalKey, Stamped<NaturalOscillation>>>,
    /// `None` = unbounded (the default, and the pre-existing behavior).
    capacity: Option<usize>,
    /// Monotone use counter; entries carry the tick of their last touch.
    tick: AtomicU64,
    grid_hits: AtomicU64,
    grid_misses: AtomicU64,
    natural_hits: AtomicU64,
    natural_misses: AtomicU64,
    evictions: AtomicU64,
    uncacheable: AtomicU64,
}

impl PrecharCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache holding at most `capacity` grid entries (and as many
    /// natural solves), evicting least-recently-used entries on overflow.
    /// A zero capacity is clamped to 1 — a cache that can hold nothing
    /// would turn every lookup into a rebuild while still paying the
    /// bookkeeping.
    pub fn bounded(capacity: usize) -> Self {
        PrecharCache {
            capacity: Some(capacity.max(1)),
            ..Self::default()
        }
    }

    /// The configured entry bound (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Entries dropped by the LRU policy since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The next use tick.
    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Drops least-recently-used entries until `map` has room for one
    /// more insert under `capacity`. Called with the map lock held.
    fn make_room<K: Eq + std::hash::Hash + Copy, V>(&self, map: &mut HashMap<K, Stamped<V>>) {
        let Some(cap) = self.capacity else { return };
        while map.len() >= cap {
            let Some(oldest) = map.iter().min_by_key(|(_, s)| s.last_used).map(|(k, _)| *k) else {
                return;
            };
            map.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            shil_observe::incr("shil_prechar_cache_evict_total");
        }
    }

    /// Grid lookups served from memory.
    pub fn grid_hits(&self) -> u64 {
        self.grid_hits.load(Ordering::Relaxed)
    }

    /// Grid builds actually performed (cache misses).
    pub fn grid_builds(&self) -> u64 {
        self.grid_misses.load(Ordering::Relaxed)
    }

    /// Natural-oscillation lookups served from memory.
    pub fn natural_hits(&self) -> u64 {
        self.natural_hits.load(Ordering::Relaxed)
    }

    /// Natural-oscillation solves actually performed.
    pub fn natural_builds(&self) -> u64 {
        self.natural_misses.load(Ordering::Relaxed)
    }

    /// Analyses that bypassed the cache because an element had no
    /// fingerprint.
    pub fn uncacheable(&self) -> u64 {
        self.uncacheable.load(Ordering::Relaxed)
    }

    /// Number of distinct grid entries held.
    pub fn len(&self) -> usize {
        self.grids
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Whether the cache holds no grid entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries (counters are preserved).
    pub fn clear(&self) {
        self.grids
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
        self.naturals
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }

    /// Records a cache bypass (missing fingerprint).
    pub(crate) fn note_uncacheable(&self) {
        self.uncacheable.fetch_add(1, Ordering::Relaxed);
        shil_observe::incr("shil_core_prechar_uncacheable_total");
    }

    /// Returns the cached pre-characterization for `key`, building it with
    /// `build` on a miss.
    pub(crate) fn grid_or_insert(
        &self,
        key: PrecharKey,
        build: impl FnOnce() -> Result<Precharacterization, ShilError>,
    ) -> Result<Arc<Precharacterization>, ShilError> {
        if let Some(hit) = self
            .grids
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get_mut(&key)
        {
            hit.last_used = self.next_tick();
            self.grid_hits.fetch_add(1, Ordering::Relaxed);
            shil_observe::incr("shil_core_prechar_grid_hits_total");
            shil_observe::incr("shil_prechar_cache_hit_total");
            return Ok(Arc::clone(&hit.value));
        }
        self.grid_misses.fetch_add(1, Ordering::Relaxed);
        shil_observe::incr("shil_core_prechar_grid_misses_total");
        shil_observe::incr("shil_prechar_cache_miss_total");
        let built = Arc::new(build()?);
        let mut grids = self
            .grids
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if !grids.contains_key(&key) {
            self.make_room(&mut grids);
        }
        let tick = self.next_tick();
        let entry = grids.entry(key).or_insert(Stamped {
            value: built,
            last_used: tick,
        });
        entry.last_used = tick;
        Ok(Arc::clone(&entry.value))
    }

    /// Returns the cached natural oscillation for `key`, solving on a miss.
    pub(crate) fn natural_or_insert(
        &self,
        key: NaturalKey,
        solve: impl FnOnce() -> Result<NaturalOscillation, ShilError>,
    ) -> Result<NaturalOscillation, ShilError> {
        if let Some(hit) = self
            .naturals
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get_mut(&key)
        {
            hit.last_used = self.next_tick();
            self.natural_hits.fetch_add(1, Ordering::Relaxed);
            shil_observe::incr("shil_core_prechar_natural_hits_total");
            shil_observe::incr("shil_prechar_cache_hit_total");
            return Ok(hit.value);
        }
        self.natural_misses.fetch_add(1, Ordering::Relaxed);
        shil_observe::incr("shil_core_prechar_natural_misses_total");
        shil_observe::incr("shil_prechar_cache_miss_total");
        let solved = solve()?;
        let mut naturals = self
            .naturals
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if !naturals.contains_key(&key) {
            self.make_room(&mut naturals);
        }
        let tick = self.next_tick();
        let entry = naturals.entry(key).or_insert(Stamped {
            value: solved,
            last_used: tick,
        });
        entry.last_used = tick;
        Ok(entry.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_separates_tags_and_params() {
        let a = fingerprint("negative-tanh", &[1e-3, 20.0]);
        let b = fingerprint("polynomial", &[1e-3, 20.0]);
        let c = fingerprint("negative-tanh", &[1e-3, 20.000001]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, fingerprint("negative-tanh", &[1e-3, 20.0]));
    }

    #[test]
    fn fingerprint_distinguishes_signed_zero_but_not_value() {
        // Bit-pattern hashing: −0.0 and +0.0 key differently, which only
        // ever costs a redundant build, never a wrong reuse.
        assert_ne!(fingerprint("t", &[0.0]), fingerprint("t", &[-0.0]));
    }

    #[test]
    fn combine_is_order_sensitive() {
        let (a, b) = (fingerprint("x", &[1.0]), fingerprint("y", &[2.0]));
        assert_ne!(combine(a, b), combine(b, a));
    }

    #[test]
    fn natural_cache_counts_hits_and_misses() {
        let cache = PrecharCache::new();
        let key = NaturalKey {
            nonlinearity: 1,
            tank: 2,
            options: 3,
        };
        let natural = NaturalOscillation {
            amplitude: 1.0,
            frequency_hz: 5e5,
            stable: true,
            t_f_slope: -1.0,
        };
        let mut solves = 0;
        for _ in 0..3 {
            let got = cache
                .natural_or_insert(key, || {
                    solves += 1;
                    Ok(natural)
                })
                .unwrap();
            assert_eq!(got, natural);
        }
        assert_eq!(solves, 1);
        assert_eq!(cache.natural_builds(), 1);
        assert_eq!(cache.natural_hits(), 2);
    }

    fn nat(amplitude: f64) -> NaturalOscillation {
        NaturalOscillation {
            amplitude,
            frequency_hz: 5e5,
            stable: true,
            t_f_slope: -1.0,
        }
    }

    fn nkey(id: u64) -> NaturalKey {
        NaturalKey {
            nonlinearity: id,
            tank: id,
            options: id,
        }
    }

    #[test]
    fn bounded_cache_respects_capacity_and_counts_evictions() {
        let cache = PrecharCache::bounded(2);
        assert_eq!(cache.capacity(), Some(2));
        let mut solves = 0;
        for id in 0..5 {
            cache
                .natural_or_insert(nkey(id), || {
                    solves += 1;
                    Ok(nat(id as f64))
                })
                .unwrap();
        }
        assert_eq!(solves, 5);
        assert_eq!(cache.evictions(), 3);
        let held = cache
            .naturals
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len();
        assert_eq!(held, 2);
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let cache = PrecharCache::bounded(2);
        let solve = |id: u64| move || Ok(nat(id as f64));
        cache.natural_or_insert(nkey(1), solve(1)).unwrap();
        cache.natural_or_insert(nkey(2), solve(2)).unwrap();
        // Touch 1 so that 2 becomes the LRU entry, then overflow with 3.
        cache.natural_or_insert(nkey(1), solve(1)).unwrap();
        cache.natural_or_insert(nkey(3), solve(3)).unwrap();
        assert_eq!(cache.evictions(), 1);
        // 1 and 3 survive (hits); 2 was evicted (re-solve = miss).
        let before = cache.natural_builds();
        cache.natural_or_insert(nkey(1), solve(1)).unwrap();
        cache.natural_or_insert(nkey(3), solve(3)).unwrap();
        assert_eq!(cache.natural_builds(), before);
        cache.natural_or_insert(nkey(2), solve(2)).unwrap();
        assert_eq!(cache.natural_builds(), before + 1);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let cache = PrecharCache::bounded(0);
        assert_eq!(cache.capacity(), Some(1));
        cache.natural_or_insert(nkey(1), || Ok(nat(1.0))).unwrap();
        // The single slot still serves repeat lookups as hits.
        let before = cache.natural_hits();
        cache.natural_or_insert(nkey(1), || Ok(nat(1.0))).unwrap();
        assert_eq!(cache.natural_hits(), before + 1);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = PrecharCache::new();
        assert_eq!(cache.capacity(), None);
        for id in 0..64 {
            cache
                .natural_or_insert(nkey(id), || Ok(nat(id as f64)))
                .unwrap();
        }
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn build_errors_are_not_cached() {
        let cache = PrecharCache::new();
        let key = NaturalKey {
            nonlinearity: 9,
            tank: 9,
            options: 9,
        };
        assert!(cache
            .natural_or_insert(key, || Err(ShilError::NoLock))
            .is_err());
        // A later successful solve still runs and is then cached.
        let natural = NaturalOscillation {
            amplitude: 2.0,
            frequency_hz: 1e6,
            stable: true,
            t_f_slope: -0.5,
        };
        assert!(cache.natural_or_insert(key, || Ok(natural)).is_ok());
        assert_eq!(cache.natural_builds(), 2);
    }
}
