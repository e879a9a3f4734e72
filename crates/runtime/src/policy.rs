//! Sweep execution policy and the per-item outcome taxonomy.

use std::fmt;
use std::time::Duration;

/// How one sweep item ended, after retries.
///
/// Every item of a policy-driven sweep gets exactly one classified outcome
/// — including the pathological endings (panic, timeout, cancellation) that
/// would previously have taken the whole sweep down or hung it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ItemOutcome {
    /// Completed cleanly: no fallback rung was needed.
    Ok,
    /// Completed, but the solver escalated (fallbacks engaged) — the value
    /// is usable and flagged, matching `SolveReport::escalated`.
    Degraded,
    /// Every attempt returned a typed error.
    Failed,
    /// Every attempt tripped its per-item deadline.
    TimedOut,
    /// Every attempt panicked; the panic was caught and recorded.
    Panicked,
    /// The sweep itself was cancelled (token or whole-sweep deadline)
    /// before this item could complete.
    Cancelled,
}

impl ItemOutcome {
    /// Whether the item produced a usable value.
    pub fn is_success(self) -> bool {
        matches!(self, ItemOutcome::Ok | ItemOutcome::Degraded)
    }

    /// Stable lower-case name, used in checkpoint records and as the
    /// `shil_sweep_outcome_<name>_total` metric suffix.
    pub fn as_str(self) -> &'static str {
        match self {
            ItemOutcome::Ok => "ok",
            ItemOutcome::Degraded => "degraded",
            ItemOutcome::Failed => "failed",
            ItemOutcome::TimedOut => "timed_out",
            ItemOutcome::Panicked => "panicked",
            ItemOutcome::Cancelled => "cancelled",
        }
    }

    /// The documented process exit code for a run that ended with this as
    /// its worst outcome, so supervisors (systemd, CI, the serve-layer
    /// restart logic) can distinguish a timeout from a panic from an
    /// operator cancellation without parsing logs:
    ///
    /// | code | outcome |
    /// |---|---|
    /// | 0  | `ok` — every item clean |
    /// | 10 | `degraded` — completed, but fallbacks engaged |
    /// | 11 | `failed` — at least one item exhausted retries on errors |
    /// | 12 | `timed_out` — at least one item tripped its deadline |
    /// | 13 | `panicked` — at least one item panicked (caught) |
    /// | 14 | `cancelled` — the sweep was cancelled before completion |
    ///
    /// Codes 1 (generic failure) and 2 (usage) stay reserved for the
    /// conventional meanings.
    pub fn exit_code(self) -> u8 {
        match self {
            ItemOutcome::Ok => 0,
            ItemOutcome::Degraded => 10,
            ItemOutcome::Failed => 11,
            ItemOutcome::TimedOut => 12,
            ItemOutcome::Panicked => 13,
            ItemOutcome::Cancelled => 14,
        }
    }

    /// Severity rank for reducing a sweep to its *worst* outcome (higher is
    /// worse). Panics outrank failures outrank timeouts outrank
    /// cancellation outrank degradation — a supervisor seeing the exit code
    /// of [`ItemOutcome::worst`] learns the most actionable problem first.
    pub fn severity(self) -> u8 {
        match self {
            ItemOutcome::Ok => 0,
            ItemOutcome::Degraded => 1,
            ItemOutcome::Cancelled => 2,
            ItemOutcome::TimedOut => 3,
            ItemOutcome::Failed => 4,
            ItemOutcome::Panicked => 5,
        }
    }

    /// The worst (highest-[severity](ItemOutcome::severity)) outcome of an
    /// iterator, or `Ok` when it is empty.
    pub fn worst(outcomes: impl IntoIterator<Item = ItemOutcome>) -> ItemOutcome {
        outcomes
            .into_iter()
            .max_by_key(|o| o.severity())
            .unwrap_or(ItemOutcome::Ok)
    }

    /// Parses the stable name written by [`ItemOutcome::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "ok" => ItemOutcome::Ok,
            "degraded" => ItemOutcome::Degraded,
            "failed" => ItemOutcome::Failed,
            "timed_out" => ItemOutcome::TimedOut,
            "panicked" => ItemOutcome::Panicked,
            "cancelled" => ItemOutcome::Cancelled,
            _ => return None,
        })
    }
}

impl fmt::Display for ItemOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Execution policy for a policy-driven sweep.
///
/// The default policy changes nothing relative to a plain sweep: no
/// deadline, no per-item timeout, no retries, keep going past failures.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPolicy {
    /// Wall-clock budget for the whole sweep; items not finished when it
    /// expires end as [`ItemOutcome::Cancelled`].
    pub deadline: Option<Duration>,
    /// Wall-clock budget for each item attempt; a tripped attempt ends as
    /// [`ItemOutcome::TimedOut`] (after retries).
    pub item_timeout: Option<Duration>,
    /// Extra attempts granted to an item whose attempt failed, timed out,
    /// panicked, or degraded. `0` (default) means one attempt only.
    pub max_retries: usize,
    /// Whether a retry is also granted when the attempt *succeeded with
    /// escalation* (`Degraded`). Off by default: the solvers are
    /// deterministic, so an identical retry cannot improve a degraded
    /// answer — this exists for environment-dependent work.
    pub retry_degraded: bool,
    /// If `true`, the first item that ends unsuccessfully (not `Ok`, not
    /// `Degraded`) cancels the rest of the sweep.
    pub fail_fast: bool,
    /// Backoff before the first retry; doubles per retry (capped by
    /// [`SweepPolicy::retry_max_backoff`]).
    pub retry_backoff: Duration,
    /// Upper bound on a single backoff sleep.
    pub retry_max_backoff: Duration,
    /// Per-run transient step-rejection budget, applied to each item's
    /// `TranOptions` (`with_step_retry_budget` or `with_policy`) by the
    /// policy-driven transient sweeps.
    pub step_retry_budget: usize,
}

impl Default for SweepPolicy {
    fn default() -> Self {
        SweepPolicy {
            deadline: None,
            item_timeout: None,
            max_retries: 0,
            retry_degraded: false,
            fail_fast: false,
            retry_backoff: Duration::from_millis(10),
            retry_max_backoff: Duration::from_secs(1),
            step_retry_budget: 1000,
        }
    }
}

impl SweepPolicy {
    /// The exponential backoff sleep before retry number `retry`
    /// (0-based): `retry_backoff · 2^retry`, capped at `retry_max_backoff`.
    pub fn backoff(&self, retry: usize) -> Duration {
        let factor = 1u32 << retry.min(20) as u32;
        (self.retry_backoff * factor).min(self.retry_max_backoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_names_round_trip() {
        for o in [
            ItemOutcome::Ok,
            ItemOutcome::Degraded,
            ItemOutcome::Failed,
            ItemOutcome::TimedOut,
            ItemOutcome::Panicked,
            ItemOutcome::Cancelled,
        ] {
            assert_eq!(ItemOutcome::parse(o.as_str()), Some(o));
            assert_eq!(o.to_string(), o.as_str());
        }
        assert_eq!(ItemOutcome::parse("exploded"), None);
    }

    #[test]
    fn success_classification() {
        assert!(ItemOutcome::Ok.is_success());
        assert!(ItemOutcome::Degraded.is_success());
        for o in [
            ItemOutcome::Failed,
            ItemOutcome::TimedOut,
            ItemOutcome::Panicked,
            ItemOutcome::Cancelled,
        ] {
            assert!(!o.is_success());
        }
    }

    #[test]
    fn exit_codes_are_distinct_and_documented() {
        use std::collections::HashSet;
        let all = [
            ItemOutcome::Ok,
            ItemOutcome::Degraded,
            ItemOutcome::Failed,
            ItemOutcome::TimedOut,
            ItemOutcome::Panicked,
            ItemOutcome::Cancelled,
        ];
        let codes: HashSet<u8> = all.iter().map(|o| o.exit_code()).collect();
        assert_eq!(codes.len(), all.len(), "exit codes must be distinct");
        assert_eq!(ItemOutcome::Ok.exit_code(), 0);
        // 1 and 2 are reserved for generic failure / usage.
        assert!(!codes.contains(&1) && !codes.contains(&2));
        let ranks: HashSet<u8> = all.iter().map(|o| o.severity()).collect();
        assert_eq!(ranks.len(), all.len(), "severities must be distinct");
    }

    #[test]
    fn worst_picks_the_most_severe_outcome() {
        assert_eq!(ItemOutcome::worst([]), ItemOutcome::Ok);
        assert_eq!(
            ItemOutcome::worst([ItemOutcome::Ok, ItemOutcome::Degraded]),
            ItemOutcome::Degraded
        );
        assert_eq!(
            ItemOutcome::worst([
                ItemOutcome::TimedOut,
                ItemOutcome::Panicked,
                ItemOutcome::Failed,
            ]),
            ItemOutcome::Panicked
        );
        assert_eq!(
            ItemOutcome::worst([ItemOutcome::Cancelled, ItemOutcome::TimedOut]),
            ItemOutcome::TimedOut
        );
    }

    #[test]
    fn default_policy_is_permissive() {
        let p = SweepPolicy::default();
        assert_eq!(p.deadline, None);
        assert_eq!(p.item_timeout, None);
        assert_eq!(p.max_retries, 0);
        assert!(!p.fail_fast);
        assert_eq!(p.step_retry_budget, 1000);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = SweepPolicy {
            retry_backoff: Duration::from_millis(10),
            retry_max_backoff: Duration::from_millis(65),
            ..SweepPolicy::default()
        };
        assert_eq!(p.backoff(0), Duration::from_millis(10));
        assert_eq!(p.backoff(1), Duration::from_millis(20));
        assert_eq!(p.backoff(2), Duration::from_millis(40));
        assert_eq!(p.backoff(3), Duration::from_millis(65));
        // Huge retry indices saturate instead of overflowing the shift.
        assert_eq!(p.backoff(500), Duration::from_millis(65));
    }
}
