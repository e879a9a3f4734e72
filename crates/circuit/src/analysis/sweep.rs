//! Parallel validation sweeps over independent transient runs.
//!
//! The paper's validation story (§IV) is a *sweep*: one transient per
//! injection frequency (or per `n`, per `V_i`) with a lock / no-lock verdict
//! extracted from each. The runs share nothing, so they fan out across the
//! same scoped-thread pool the SHIL grid fill uses — with **deterministic
//! result ordering**: outputs come back keyed by input index, so a sweep is
//! bit-for-bit identical at any thread count (including 1).
//!
//! ```
//! use shil_circuit::analysis::{SweepEngine, TranOptions};
//! use shil_circuit::{Circuit, SourceWave};
//!
//! // Amplitude sweep of an RC settle, 4 ways in parallel.
//! let amplitudes = [0.5, 1.0, 1.5, 2.0];
//! let sweep = SweepEngine::new(Some(4)).transient_sweep(&amplitudes, |_, &a| {
//!     let mut ckt = Circuit::new();
//!     let n1 = ckt.node("in");
//!     let n2 = ckt.node("out");
//!     ckt.vsource(n1, Circuit::GROUND, SourceWave::Dc(a));
//!     ckt.resistor(n1, n2, 1e3);
//!     ckt.capacitor(n2, Circuit::GROUND, 1e-7);
//!     (ckt, TranOptions::new(1e-5, 1e-3))
//! });
//! assert_eq!(sweep.runs.len(), 4);
//! assert!(sweep.aggregate.attempts > 0);
//! ```

use std::collections::BTreeMap;
use std::time::Instant;

use shil_numerics::parallel::{effective_parallelism, ordered_map};
use shil_numerics::NumericsError;
use shil_runtime::{
    isolate, Budget, CancelToken, CheckpointFile, CheckpointRecord, ItemOutcome, SweepPolicy,
};

use crate::circuit::Circuit;
use crate::error::CircuitError;
use crate::report::SolveReport;
use crate::trace::TranResult;

use super::checkpoint::{counters_to_report, report_to_counters};
use super::tran::{transient, TranOptions};

/// Fans independent analyses across scoped worker threads with
/// deterministic, input-ordered results.
///
/// The engine is a thin policy object (a thread count), cheap to build per
/// sweep. Construction never spawns anything; threads live only for the
/// duration of each call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepEngine {
    threads: usize,
}

impl SweepEngine {
    /// An engine with the requested worker count (`None` → one per
    /// available core, floor of 1).
    pub fn new(threads: Option<usize>) -> Self {
        SweepEngine {
            threads: effective_parallelism(threads),
        }
    }

    /// A strictly serial engine — the reference every parallel sweep must
    /// match bit-for-bit.
    pub fn serial() -> Self {
        SweepEngine { threads: 1 }
    }

    /// The worker count this engine fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Order-preserving parallel map: applies `f` to every item and returns
    /// the outputs in input order, identical to the serial map at any
    /// thread count.
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        ordered_map(items, self.threads, f)
    }

    /// Runs one transient per item: `setup` builds the circuit and options
    /// for item `i`, the engine runs them across the pool and aggregates
    /// every per-run [`SolveReport`] into [`TranSweep::aggregate`].
    ///
    /// A run that fails keeps its error in place (at its input index)
    /// without poisoning the others — a lock-range sweep *expects* the
    /// unlocked edge points to behave differently from the locked middle.
    pub fn transient_sweep<I, F>(&self, items: &[I], setup: F) -> TranSweep
    where
        I: Sync,
        F: Fn(usize, &I) -> (Circuit, TranOptions) + Sync,
    {
        shil_observe::gauge_set("shil_sweep_threads", self.threads as f64);
        let _sweep_span = shil_observe::span("shil_sweep");
        let runs = self.map(items, |i, item| {
            let started = Instant::now();
            let (ckt, opts) = setup(i, item);
            let res = transient(&ckt, &opts);
            // Per-item throughput, recorded from inside the worker thread.
            // `shil_sweep_run_attempts` carries only integer-valued samples,
            // so its aggregates are bit-deterministic at any thread count
            // (see `tests/observe_metrics.rs`); the wall-time histogram is
            // deterministic in count only.
            shil_observe::incr("shil_sweep_items_total");
            shil_observe::observe("shil_sweep_item_seconds", started.elapsed().as_secs_f64());
            match &res {
                Ok(r) => shil_observe::observe("shil_sweep_run_attempts", r.report.attempts as f64),
                Err(_) => shil_observe::incr("shil_sweep_failures_total"),
            }
            res
        });
        let mut aggregate = SolveReport::new();
        for r in runs.iter().flatten() {
            aggregate.absorb(&r.report);
        }
        TranSweep { runs, aggregate }
    }
}

/// Canonical counter name for a per-item outcome.
fn outcome_metric(outcome: ItemOutcome) -> &'static str {
    match outcome {
        ItemOutcome::Ok => "shil_sweep_outcome_ok_total",
        ItemOutcome::Degraded => "shil_sweep_outcome_degraded_total",
        ItemOutcome::Failed => "shil_sweep_outcome_failed_total",
        ItemOutcome::TimedOut => "shil_sweep_outcome_timed_out_total",
        ItemOutcome::Panicked => "shil_sweep_outcome_panicked_total",
        ItemOutcome::Cancelled => "shil_sweep_outcome_cancelled_total",
        // `ItemOutcome` is non_exhaustive in shil-runtime.
        _ => "shil_sweep_outcome_other_total",
    }
}

/// The per-item retry loop of a policy sweep: bounded retry-with-backoff
/// around isolated attempts, ending in exactly one classified outcome.
/// `attempt` receives each attempt's budget (the sweep budget narrowed by
/// `policy.item_timeout`) and returns the run's result, or a panic message.
fn policy_loop<T>(
    policy: &SweepPolicy,
    sweep_budget: &Budget,
    mut attempt: impl FnMut(&Budget) -> Result<Result<(T, SolveReport), CircuitError>, String>,
) -> (ItemOutcome, u32, Option<T>, SolveReport, Option<String>) {
    let mut tries: u32 = 0;
    let mut last_error: Option<String> = None;
    let (outcome, value, report) = loop {
        if sweep_budget.cancelled().is_some() {
            break (ItemOutcome::Cancelled, None, SolveReport::new());
        }
        tries += 1;
        let may_retry = (tries as usize) <= policy.max_retries;
        let attempt_budget = sweep_budget.child(policy.item_timeout);
        match attempt(&attempt_budget) {
            Ok(Ok((value, report))) => {
                let outcome = if report.escalated() {
                    ItemOutcome::Degraded
                } else {
                    ItemOutcome::Ok
                };
                if outcome == ItemOutcome::Degraded && policy.retry_degraded && may_retry {
                    shil_observe::incr("shil_sweep_retries_total");
                    std::thread::sleep(policy.backoff(tries as usize - 1));
                    continue;
                }
                break (outcome, Some(value), report);
            }
            Ok(Err(e)) => {
                let attempt_cancelled =
                    matches!(&e, CircuitError::Numerics(NumericsError::Cancelled { .. }));
                if attempt_cancelled && sweep_budget.cancelled().is_some() {
                    // The whole sweep stopped, not just this attempt.
                    break (ItemOutcome::Cancelled, None, SolveReport::new());
                }
                last_error = Some(e.to_string());
                if may_retry {
                    shil_observe::incr("shil_sweep_retries_total");
                    std::thread::sleep(policy.backoff(tries as usize - 1));
                    continue;
                }
                let outcome = if attempt_cancelled {
                    ItemOutcome::TimedOut
                } else {
                    ItemOutcome::Failed
                };
                break (outcome, None, SolveReport::new());
            }
            Err(panic_msg) => {
                shil_observe::incr("shil_sweep_panics_total");
                last_error = Some(panic_msg);
                if may_retry {
                    shil_observe::incr("shil_sweep_retries_total");
                    std::thread::sleep(policy.backoff(tries as usize - 1));
                    continue;
                }
                break (ItemOutcome::Panicked, None, SolveReport::new());
            }
        }
    };
    (outcome, tries, value, report, last_error)
}

impl SweepEngine {
    /// Policy-driven sweep: per-item panic isolation, bounded
    /// retry-with-backoff, per-item timeouts and whole-sweep
    /// deadline/cancellation, with every item ending in exactly one
    /// classified [`ItemOutcome`].
    ///
    /// `run` receives the item's index, the item, and a per-attempt
    /// [`Budget`] (the sweep budget narrowed by `policy.item_timeout`) that
    /// it should thread into its solves; it returns the item's value plus
    /// the [`SolveReport`] describing the effort spent.
    pub fn run_with_policy<I, T, F>(
        &self,
        items: &[I],
        policy: &SweepPolicy,
        budget: &Budget,
        run: F,
    ) -> PolicySweep<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I, &Budget) -> Result<(T, SolveReport), CircuitError> + Sync,
    {
        self.run_checkpointed(
            items,
            policy,
            budget,
            None,
            run,
            |_| String::new(),
            |_| None,
        )
    }

    /// [`SweepEngine::run_with_policy`] with durable checkpoint/resume.
    ///
    /// When `checkpoint` is given, every completed item appends one flushed
    /// JSONL record, and items already restored from a previous run of the
    /// *same* sweep (successful outcome, decodable payload) are skipped —
    /// their values and effort counters come from the file, so the resumed
    /// sweep's deterministic aggregates are bit-identical to an
    /// uninterrupted run's. Unsuccessful recorded items re-run.
    ///
    /// `encode`/`decode` serialize an item's value into the record payload;
    /// use an exact encoding (e.g. hex `f64::to_bits`) to keep resumed
    /// values bit-identical too.
    #[allow(clippy::too_many_arguments)]
    pub fn run_checkpointed<I, T, F, E, D>(
        &self,
        items: &[I],
        policy: &SweepPolicy,
        budget: &Budget,
        checkpoint: Option<&CheckpointFile>,
        run: F,
        encode: E,
        decode: D,
    ) -> PolicySweep<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I, &Budget) -> Result<(T, SolveReport), CircuitError> + Sync,
        E: Fn(&T) -> String + Sync,
        D: Fn(&str) -> Option<T> + Sync,
    {
        shil_observe::gauge_set("shil_sweep_threads", self.threads as f64);
        let _sweep_span = shil_observe::span("shil_policy_sweep");
        // The sweep budget layers the policy deadline (clock restarts at
        // sweep start) and, for fail-fast, an internal token on top of
        // whatever tokens/deadline the caller provided.
        let fail_token = CancelToken::new();
        let mut sweep_budget = budget.child(policy.deadline);
        if policy.fail_fast {
            sweep_budget = sweep_budget.with_token(fail_token.clone());
        }
        let sweep_budget = &sweep_budget;
        let fail_token = &fail_token;

        let out = self.map(items, |i, item| {
            let started = Instant::now();
            // Resume path: a restored success short-circuits the run.
            if let Some(cp) = checkpoint {
                if let Some(rec) = cp.restored().get(&i) {
                    if rec.outcome.is_success() {
                        if let Some(value) = decode(&rec.payload) {
                            shil_observe::incr("shil_sweep_restored_total");
                            shil_observe::incr(outcome_metric(rec.outcome));
                            return SweepItem {
                                outcome: rec.outcome,
                                tries: rec.tries,
                                value: Some(value),
                                report: counters_to_report(&rec.counters),
                                error: None,
                                restored: true,
                            };
                        }
                    }
                }
            }

            let (outcome, tries, value, report, last_error) =
                policy_loop(policy, sweep_budget, |attempt_budget| {
                    isolate(|| run(i, item, attempt_budget))
                });
            if policy.fail_fast && !outcome.is_success() {
                fail_token.cancel();
            }
            shil_observe::incr(outcome_metric(outcome));
            shil_observe::incr("shil_sweep_items_total");
            shil_observe::observe("shil_sweep_item_seconds", started.elapsed().as_secs_f64());
            let item_out = SweepItem {
                outcome,
                tries,
                value,
                report,
                error: last_error,
                restored: false,
            };
            if let Some(cp) = checkpoint {
                let record = CheckpointRecord {
                    index: i,
                    outcome,
                    tries,
                    wall_s: started.elapsed().as_secs_f64(),
                    counters: if outcome.is_success() {
                        report_to_counters(&item_out.report)
                    } else {
                        BTreeMap::new()
                    },
                    payload: match (&item_out.value, &item_out.error) {
                        (Some(v), _) => encode(v),
                        (None, Some(e)) => e.clone(),
                        _ => String::new(),
                    },
                };
                // A checkpoint write failure degrades durability, never the
                // sweep itself.
                if cp.append(&record).is_err() {
                    shil_observe::incr("shil_sweep_checkpoint_write_failures_total");
                }
            }
            item_out
        });

        // Serial fold in input order: the aggregate (minus wall time, as
        // everywhere in this module) is deterministic at any thread count,
        // and restored items contribute their exact recorded counters.
        let mut aggregate = SolveReport::new();
        for item in &out {
            if item.outcome.is_success() {
                aggregate.absorb(&item.report);
            }
        }
        let cancelled = sweep_budget.cancelled().is_some();
        // A sweep that ran to its natural end seals the checkpoint: the
        // sealed record count lets the next reader distinguish "file is
        // short because the run was interrupted" from "records silently
        // went missing". Cancelled/drained sweeps stay unsealed on purpose
        // — their file legitimately ends mid-run.
        if let Some(cp) = checkpoint {
            if !cancelled && cp.seal().is_err() {
                shil_observe::incr("shil_sweep_checkpoint_write_failures_total");
            }
        }
        PolicySweep {
            items: out,
            aggregate,
            cancelled,
        }
    }
}

/// A dependency-aware execution plan for continuation sweeps: items are
/// grouped into *levels* that run as sequential barriers, and each item may
/// name one *parent* from an earlier level whose value seeds its warm
/// start.
///
/// Determinism: within a level, items run through the same order-preserving
/// map as every other sweep; across levels, each item's parent value is
/// fixed by the plan (the parent's level completed before the item
/// started), never by scheduling. A wavefront sweep is therefore
/// **bit-identical at any thread count** — warm starts included — because
/// no item ever observes a racing neighbor, only its declared parent.
#[derive(Debug, Clone, Default)]
pub struct Wavefront {
    /// `levels[l]` holds the item indices of pass `l`. Every item index
    /// must appear in exactly one level.
    pub levels: Vec<Vec<usize>>,
    /// `parents[i]` is the item whose value seeds item `i`'s warm start,
    /// or `None` for a cold start. A parent must sit in a strictly earlier
    /// level.
    pub parents: Vec<Option<usize>>,
}

impl Wavefront {
    /// A plan with no dependencies: every item cold-starts in one level.
    pub fn flat(items: usize) -> Self {
        Wavefront {
            levels: vec![(0..items).collect()],
            parents: vec![None; items],
        }
    }

    /// Panics (programmer error in plan construction) unless every item
    /// appears exactly once and every parent is in a strictly earlier
    /// level.
    fn validate(&self, items: usize) {
        assert_eq!(
            self.parents.len(),
            items,
            "wavefront parents must cover every item"
        );
        let mut level_of = vec![usize::MAX; items];
        let mut seen = 0usize;
        for (l, level) in self.levels.iter().enumerate() {
            for &i in level {
                assert!(i < items, "wavefront level {l} names item {i} of {items}");
                assert_eq!(level_of[i], usize::MAX, "item {i} appears in two levels");
                level_of[i] = l;
                seen += 1;
            }
        }
        assert_eq!(seen, items, "wavefront levels must cover every item");
        for (i, parent) in self.parents.iter().enumerate() {
            if let Some(p) = parent {
                assert!(
                    level_of[*p] < level_of[i],
                    "item {i} (level {}) depends on item {p} (level {}) — parents must \
                     complete strictly earlier",
                    level_of[i],
                    level_of[*p]
                );
            }
        }
    }
}

impl SweepEngine {
    /// Policy-driven continuation sweep over a [`Wavefront`] plan.
    ///
    /// Levels run sequentially; items within a level fan out across the
    /// pool with the same per-item retry/timeout/panic handling as
    /// [`SweepEngine::run_with_policy`]. `run` additionally receives the
    /// parent's value (`None` for a cold start *or* when the parent did not
    /// produce a value — continuation failure falls back to cold start by
    /// construction).
    ///
    /// `restore` is consulted once per item before its live attempt; a
    /// `Some` short-circuits the run (the item is marked restored) and its
    /// value still seeds dependents — so a resumed atlas warms its children
    /// exactly as the uninterrupted run did.
    ///
    /// `on_item` fires from the worker thread as each non-restored item
    /// completes (checkpoint appends ride here).
    ///
    /// # Panics
    ///
    /// If the plan does not cover every item exactly once or orders a
    /// parent at or after its child (see [`Wavefront::validate`]).
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    pub fn run_wavefront<I, T, F, G>(
        &self,
        items: &[I],
        front: &Wavefront,
        policy: &SweepPolicy,
        budget: &Budget,
        restore: G,
        run: F,
        on_item: Option<&(dyn Fn(usize, &SweepItem<T>) + Sync)>,
    ) -> PolicySweep<T>
    where
        I: Sync,
        T: Send + Sync,
        F: Fn(usize, &I, &Budget, Option<&T>) -> Result<(T, SolveReport), CircuitError> + Sync,
        G: Fn(usize) -> Option<SweepItem<T>> + Sync,
    {
        front.validate(items.len());
        shil_observe::gauge_set("shil_sweep_threads", self.threads as f64);
        let _sweep_span = shil_observe::span("shil_wavefront_sweep");
        let fail_token = CancelToken::new();
        let mut sweep_budget = budget.child(policy.deadline);
        if policy.fail_fast {
            sweep_budget = sweep_budget.with_token(fail_token.clone());
        }
        let sweep_budget = &sweep_budget;
        let fail_token = &fail_token;

        let mut slots: Vec<Option<SweepItem<T>>> = (0..items.len()).map(|_| None).collect();
        for level in &front.levels {
            let slots_ref = &slots;
            let level_out = self.map(level, |_, &i| {
                let started = Instant::now();
                if let Some(item) = restore(i) {
                    shil_observe::incr("shil_sweep_restored_total");
                    shil_observe::incr(outcome_metric(item.outcome));
                    return item;
                }
                let seed = front.parents[i]
                    .and_then(|p| slots_ref[p].as_ref())
                    .and_then(|parent| parent.value.as_ref());
                if seed.is_some() {
                    shil_observe::incr("shil_sweep_warm_starts_total");
                }
                let (outcome, tries, value, report, last_error) =
                    policy_loop(policy, sweep_budget, |attempt_budget| {
                        isolate(|| run(i, &items[i], attempt_budget, seed))
                    });
                if policy.fail_fast && !outcome.is_success() {
                    fail_token.cancel();
                }
                shil_observe::incr(outcome_metric(outcome));
                shil_observe::incr("shil_sweep_items_total");
                shil_observe::observe("shil_sweep_item_seconds", started.elapsed().as_secs_f64());
                let item_out = SweepItem {
                    outcome,
                    tries,
                    value,
                    report,
                    error: last_error,
                    restored: false,
                };
                if let Some(f) = on_item {
                    f(i, &item_out);
                }
                item_out
            });
            for (&i, item) in level.iter().zip(level_out) {
                slots[i] = Some(item);
            }
        }

        let mut aggregate = SolveReport::new();
        let out: Vec<SweepItem<T>> = slots
            .into_iter()
            .map(|s| s.expect("wavefront covered every item"))
            .collect();
        for item in &out {
            if item.outcome.is_success() {
                aggregate.absorb(&item.report);
            }
        }
        let cancelled = sweep_budget.cancelled().is_some();
        PolicySweep {
            items: out,
            aggregate,
            cancelled,
        }
    }
}

impl Default for SweepEngine {
    /// One worker per available core.
    fn default() -> Self {
        Self::new(None)
    }
}

/// One item of a policy-driven sweep: the classified outcome plus
/// everything recovered from the attempt(s).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepItem<T> {
    /// How the item ended, after retries.
    pub outcome: ItemOutcome,
    /// Attempts spent (1 + retries; the recorded count when restored).
    pub tries: u32,
    /// The item's value, when [`ItemOutcome::is_success`].
    pub value: Option<T>,
    /// Solver effort behind the value (empty for unsuccessful items, whose
    /// failed attempts report no effort).
    pub report: SolveReport,
    /// The last attempt's error or panic message, for diagnostics.
    pub error: Option<String>,
    /// Whether the value came from a checkpoint instead of a live run.
    pub restored: bool,
}

/// The outcome of a policy-driven sweep.
#[derive(Debug)]
pub struct PolicySweep<T> {
    /// One entry per input item, in input order.
    pub items: Vec<SweepItem<T>>,
    /// Successful items' reports folded in input order — deterministic
    /// (minus wall time) at any thread count, and across kill/resume.
    pub aggregate: SolveReport,
    /// Whether the sweep budget was tripped (deadline, caller token, or a
    /// fail-fast abort) while items were still outstanding.
    pub cancelled: bool,
}

impl<T> PolicySweep<T> {
    /// Number of items that produced a usable value.
    pub fn ok_count(&self) -> usize {
        self.items
            .iter()
            .filter(|item| item.outcome.is_success())
            .count()
    }

    /// Number of items that ended with the given outcome.
    pub fn outcome_count(&self, outcome: ItemOutcome) -> usize {
        self.items
            .iter()
            .filter(|item| item.outcome == outcome)
            .count()
    }
}

/// The outcome of a [`SweepEngine::transient_sweep`]: per-run results in
/// input order plus the whole-sweep effort aggregate.
#[derive(Debug)]
pub struct TranSweep {
    /// One result per input item, in input order.
    pub runs: Vec<Result<TranResult, CircuitError>>,
    /// All successful runs' reports folded together
    /// (see [`SolveReport::absorb`]).
    pub aggregate: SolveReport,
}

impl TranSweep {
    /// Number of runs that completed.
    pub fn ok_count(&self) -> usize {
        self.runs.iter().filter(|r| r.is_ok()).count()
    }

    /// Unwraps every run, surfacing the first failure.
    ///
    /// # Errors
    ///
    /// The first per-run error, when any run failed.
    pub fn into_results(self) -> Result<Vec<TranResult>, CircuitError> {
        self.runs.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wave::SourceWave;
    use crate::IvCurve;

    fn oscillator_setup(freq_scale: &f64) -> (Circuit, TranOptions) {
        let (r, l, c) = (1000.0, 10e-6, 10e-9);
        let mut ckt = Circuit::new();
        let top = ckt.node("top");
        ckt.resistor(top, 0, r);
        ckt.inductor(top, 0, l * freq_scale);
        ckt.capacitor(top, 0, c);
        ckt.nonlinear(top, 0, IvCurve::tanh(-1e-3, 2.0 / (r * 1e-3)));
        let f0 = 1.0 / (std::f64::consts::TAU * (l * freq_scale * c).sqrt());
        let period = 1.0 / f0;
        let opts = TranOptions::new(period / 120.0, 6.0 * period)
            .use_ic()
            .with_ic(top, 1e-3);
        (ckt, opts)
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial_at_any_thread_count() {
        let scales: Vec<f64> = (0..7).map(|k| 0.7 + 0.1 * k as f64).collect();
        let reference = SweepEngine::serial().transient_sweep(&scales, |_, s| oscillator_setup(s));
        for threads in [2usize, 3, 5, 16] {
            let sweep = SweepEngine::new(Some(threads))
                .transient_sweep(&scales, |_, s| oscillator_setup(s));
            assert_eq!(sweep.runs.len(), reference.runs.len());
            for (i, (a, b)) in reference.runs.iter().zip(&sweep.runs).enumerate() {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                assert_eq!(a.time, b.time, "time axis, run {i}, threads {threads}");
                assert_eq!(
                    a.columns, b.columns,
                    "trace data, run {i}, threads {threads}"
                );
            }
            // Everything except wall time is deterministic.
            let (a, b) = (&sweep.aggregate, &reference.aggregate);
            assert_eq!(a.attempts, b.attempts, "attempts, threads {threads}");
            assert_eq!(a.halvings, b.halvings, "halvings, threads {threads}");
            assert_eq!(a.fallbacks, b.fallbacks, "fallbacks, threads {threads}");
            assert_eq!(
                a.factorizations, b.factorizations,
                "factorizations, threads {threads}"
            );
            assert_eq!(a.reuses, b.reuses, "reuses, threads {threads}");
        }
    }

    #[test]
    fn aggregate_sums_per_run_reports() {
        let scales = [1.0f64, 1.1, 0.9];
        let sweep = SweepEngine::serial().transient_sweep(&scales, |_, s| oscillator_setup(s));
        assert_eq!(sweep.ok_count(), 3);
        let sum: usize = sweep
            .runs
            .iter()
            .map(|r| r.as_ref().unwrap().report.attempts)
            .sum();
        assert_eq!(sweep.aggregate.attempts, sum);
        let results = sweep.into_results().unwrap();
        assert_eq!(results.len(), 3);
    }

    #[test]
    fn failed_runs_stay_in_place_without_poisoning_the_rest() {
        // Item 1 builds an invalid time axis; 0 and 2 are fine.
        let items = [1.0f64, f64::NAN, 2.0];
        let sweep = SweepEngine::new(Some(2)).transient_sweep(&items, |_, &v| {
            let mut ckt = Circuit::new();
            let n1 = ckt.node("n1");
            ckt.vsource(n1, 0, SourceWave::Dc(1.0));
            ckt.resistor(n1, 0, 1e3);
            let mut opts = TranOptions::new(1e-6, 1e-4);
            opts.dt *= v; // NaN for item 1
            (ckt, opts)
        });
        assert!(sweep.runs[0].is_ok());
        assert!(matches!(
            sweep.runs[1],
            Err(CircuitError::InvalidParameter(_))
        ));
        assert!(sweep.runs[2].is_ok());
        assert_eq!(sweep.ok_count(), 2);
        assert!(sweep.into_results().is_err());
    }

    /// A policy-sweep runner over the tanh oscillator: value is the final
    /// top-node voltage, exactly as bits.
    fn oscillator_runner(
        i: usize,
        scale: &f64,
        budget: &Budget,
    ) -> Result<(f64, SolveReport), CircuitError> {
        let _ = i;
        let (ckt, opts) = oscillator_setup(scale);
        let res = transient(&ckt, &opts.with_budget(budget.clone()))?;
        let v = *res.node_voltage(1).unwrap().last().unwrap();
        Ok((v, res.report))
    }

    #[test]
    fn policy_sweep_classifies_every_item_and_matches_plain_sweep() {
        let scales: Vec<f64> = (0..5).map(|k| 0.8 + 0.1 * k as f64).collect();
        let engine = SweepEngine::new(Some(3));
        let sweep = engine.run_with_policy(
            &scales,
            &SweepPolicy::default(),
            &Budget::unlimited(),
            oscillator_runner,
        );
        assert_eq!(sweep.items.len(), 5);
        assert_eq!(sweep.ok_count(), 5);
        assert!(!sweep.cancelled);
        for item in &sweep.items {
            assert!(item.outcome.is_success());
            assert_eq!(item.tries, 1);
            assert!(item.value.unwrap().is_finite());
            assert!(!item.restored);
        }
        // Same work as the plain transient sweep → same deterministic
        // aggregate (minus wall time).
        let plain = SweepEngine::serial().transient_sweep(&scales, |_, s| oscillator_setup(s));
        assert_eq!(sweep.aggregate.attempts, plain.aggregate.attempts);
        assert_eq!(sweep.aggregate.halvings, plain.aggregate.halvings);
        assert_eq!(sweep.aggregate.fallbacks, plain.aggregate.fallbacks);
    }

    #[test]
    fn panicking_item_is_isolated_and_classified() {
        let items: Vec<usize> = (0..6).collect();
        let sweep = SweepEngine::new(Some(2)).run_with_policy(
            &items,
            &SweepPolicy::default(),
            &Budget::unlimited(),
            |_, &k, _| {
                if k == 3 {
                    panic!("deliberate test panic on item {k}");
                }
                Ok((k as f64, SolveReport::new()))
            },
        );
        assert_eq!(sweep.ok_count(), 5);
        assert_eq!(sweep.items[3].outcome, ItemOutcome::Panicked);
        assert_eq!(sweep.items[3].value, None);
        assert!(sweep.items[3]
            .error
            .as_deref()
            .unwrap()
            .contains("deliberate test panic"));
        // Neighbors are untouched.
        assert_eq!(sweep.items[2].value, Some(2.0));
        assert_eq!(sweep.items[4].value, Some(4.0));
    }

    #[test]
    fn retries_with_backoff_rescue_flaky_items() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = AtomicUsize::new(0);
        let items = [0usize];
        let policy = SweepPolicy {
            max_retries: 3,
            retry_backoff: std::time::Duration::from_millis(1),
            ..SweepPolicy::default()
        };
        let sweep = SweepEngine::serial().run_with_policy(
            &items,
            &policy,
            &Budget::unlimited(),
            |_, _, _| {
                // Panic once, fail once, then succeed.
                match calls.fetch_add(1, Ordering::SeqCst) {
                    0 => panic!("flaky"),
                    1 => Err(CircuitError::InvalidParameter("flaky".into())),
                    _ => Ok((42.0, SolveReport::new())),
                }
            },
        );
        assert_eq!(sweep.items[0].outcome, ItemOutcome::Ok);
        assert_eq!(sweep.items[0].tries, 3);
        assert_eq!(sweep.items[0].value, Some(42.0));
    }

    #[test]
    fn zero_second_item_timeout_classifies_as_timed_out() {
        let scales = [1.0f64];
        let policy = SweepPolicy {
            item_timeout: Some(std::time::Duration::ZERO),
            ..SweepPolicy::default()
        };
        let sweep = SweepEngine::serial().run_with_policy(
            &scales,
            &policy,
            &Budget::unlimited(),
            oscillator_runner,
        );
        assert_eq!(sweep.items[0].outcome, ItemOutcome::TimedOut);
        assert!(!sweep.cancelled, "only the item timed out, not the sweep");
    }

    #[test]
    fn cancelled_sweep_budget_classifies_as_cancelled() {
        let token = CancelToken::new();
        token.cancel();
        let scales = [1.0f64, 1.1];
        let sweep = SweepEngine::serial().run_checkpointed(
            &scales,
            &SweepPolicy::default(),
            &Budget::unlimited().with_token(token),
            None,
            oscillator_runner,
            |v| format!("{:016x}", v.to_bits()),
            |_| None,
        );
        assert!(sweep.cancelled);
        for item in &sweep.items {
            assert_eq!(item.outcome, ItemOutcome::Cancelled);
            assert_eq!(item.tries, 0, "no attempt should start");
        }
    }

    #[test]
    fn fail_fast_cancels_the_remaining_items() {
        // Serial engine, so the failure at index 0 is observed before the
        // rest start: every later item must come back Cancelled.
        let items: Vec<usize> = (0..4).collect();
        let policy = SweepPolicy {
            fail_fast: true,
            ..SweepPolicy::default()
        };
        let sweep = SweepEngine::serial().run_with_policy(
            &items,
            &policy,
            &Budget::unlimited(),
            |_, &k, _| {
                if k == 0 {
                    Err(CircuitError::InvalidParameter("poison".into()))
                } else {
                    Ok((k as f64, SolveReport::new()))
                }
            },
        );
        assert_eq!(sweep.items[0].outcome, ItemOutcome::Failed);
        for item in &sweep.items[1..] {
            assert_eq!(item.outcome, ItemOutcome::Cancelled);
        }
        assert!(sweep.cancelled);
    }

    #[test]
    fn checkpointed_sweep_resumes_bit_identically() {
        let dir = std::env::temp_dir().join(format!("shil_sweep_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.jsonl");
        std::fs::remove_file(&path).ok();

        let scales: Vec<f64> = (0..6).map(|k| 0.8 + 0.08 * k as f64).collect();
        let fp = shil_runtime::checkpoint::fingerprint("sweep-test", &scales);
        let encode = |v: &f64| format!("{:016x}", v.to_bits());
        let decode = |s: &str| u64::from_str_radix(s, 16).ok().map(f64::from_bits);

        // Reference: uninterrupted, no checkpoint.
        let reference = SweepEngine::serial().run_with_policy(
            &scales,
            &SweepPolicy::default(),
            &Budget::unlimited(),
            oscillator_runner,
        );

        // First run with checkpoint, then truncate the file mid-record to
        // simulate a SIGKILL tearing the last line.
        {
            let cp = CheckpointFile::open(&path, &fp, scales.len()).unwrap();
            SweepEngine::serial().run_checkpointed(
                &scales,
                &SweepPolicy::default(),
                &Budget::unlimited(),
                Some(&cp),
                oscillator_runner,
                encode,
                decode,
            );
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let keep: Vec<&str> = text.lines().take(4).collect(); // header + 3 records
        let torn = format!(
            "{}\n{}",
            keep.join("\n"),
            &text.lines().nth(4).unwrap()[..20]
        );
        std::fs::write(&path, torn).unwrap();

        // Resume at various thread counts: restored + re-run must equal the
        // uninterrupted reference exactly.
        for threads in [1usize, 2, 3, 16] {
            let work = std::path::PathBuf::from(format!("{}.t{threads}", path.display()));
            std::fs::copy(&path, &work).unwrap();
            let cp = CheckpointFile::open(&work, &fp, scales.len()).unwrap();
            assert_eq!(cp.restored().len(), 3, "3 complete records survive");
            let resumed = SweepEngine::new(Some(threads)).run_checkpointed(
                &scales,
                &SweepPolicy::default(),
                &Budget::unlimited(),
                Some(&cp),
                oscillator_runner,
                encode,
                decode,
            );
            assert_eq!(resumed.items.len(), reference.items.len());
            let mut restored_count = 0;
            for (i, (a, b)) in reference.items.iter().zip(&resumed.items).enumerate() {
                assert_eq!(a.outcome, b.outcome, "outcome, item {i}");
                assert_eq!(
                    a.value.map(f64::to_bits),
                    b.value.map(f64::to_bits),
                    "value bits, item {i}, threads {threads}"
                );
                restored_count += b.restored as usize;
            }
            assert_eq!(restored_count, 3, "threads {threads}");
            // Aggregate bit-identity, wall time excluded as everywhere.
            assert_eq!(resumed.aggregate.attempts, reference.aggregate.attempts);
            assert_eq!(resumed.aggregate.halvings, reference.aggregate.halvings);
            assert_eq!(resumed.aggregate.fallbacks, reference.aggregate.fallbacks);
            assert_eq!(
                resumed.aggregate.factorizations,
                reference.aggregate.factorizations
            );
            assert_eq!(resumed.aggregate.reuses, reference.aggregate.reuses);
            std::fs::remove_file(&work).ok();
        }
        std::fs::remove_file(&path).ok();
    }
}
