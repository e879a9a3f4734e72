//! In-memory span recorder for the traced pass, and the self-time and
//! coverage arithmetic over its spans.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer's public API; the program itself is not instrumented. Recording
//! is off unless [`set_enabled`] turned it on, so the untraced pass pays
//! one relaxed atomic load per would-be span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are seconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Operation the span belongs to (0: outside any operation, e.g. work
    /// on a server thread).
    pub op: u64,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans on this thread: (span id, operation id).
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn now() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned by a panic"))
}

/// An open span; it is recorded when dropped.
pub struct Guard {
    open: Option<(u64, Option<u64>, u64, f64)>,
    name: &'static str,
}

impl Guard {
    /// Renames the span before it closes (a call's kind can depend on what
    /// the call found, e.g. a cache hit or miss).
    pub fn rename(&mut self, name: &'static str) {
        self.name = name;
    }
}

fn open(name: &'static str, op: Option<u64>) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard { open: None, name };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, op) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let top = s.last().copied();
        let op = op.or(top.map(|t| t.1)).unwrap_or(0);
        s.push((id, op));
        (top.map(|t| t.0), op)
    });
    Guard {
        open: Some((id, parent, op, now())),
        name,
    }
}

/// A span around one call into a layer, child of this thread's open span.
pub fn span(name: &'static str) -> Guard {
    open(name, None)
}

/// The root span of operation `op`.
pub fn op_span(name: &'static str, op: u64) -> Guard {
    open(name, Some(op))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, op, start)) = self.open else {
            return;
        };
        let end = now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&(sid, _)| sid == id) {
                s.truncate(pos);
            }
        });
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(Span {
                id,
                parent,
                op,
                name: self.name,
                start,
                end,
            });
        }
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered(lo: f64, hi: f64, intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Each span's self time: its duration minus the part of it that its
/// children cover. Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            s.duration() - covered(s.start, s.end, &mut kids)
        })
        .collect()
}

/// Per-name aggregate of the spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerStat {
    pub calls: usize,
    /// Sum of self times.
    pub busy_s: f64,
    /// Each call's full duration.
    pub durations: Vec<f64>,
}

pub fn layer_stats(spans: &[Span]) -> BTreeMap<&'static str, LayerStat> {
    let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
    for (s, self_s) in spans.iter().zip(self_times(spans)) {
        let stat = out.entry(s.name).or_default();
        stat.calls += 1;
        stat.busy_s += self_s;
        stat.durations.push(s.duration());
    }
    out
}

/// Share of the operations' wall time (spans named `op_name`) that no
/// layer span covers.
pub fn unattributed_frac(spans: &[Span], op_name: &str) -> f64 {
    let (mut wall, mut gap) = (0.0, 0.0);
    for (s, self_s) in spans.iter().zip(self_times(spans)) {
        if s.name == op_name {
            wall += s.duration();
            gap += self_s;
        }
    }
    if wall > 0.0 {
        gap / wall
    } else {
        0.0
    }
}

/// One JSON object per span, one per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start\":{},\"end\":{}}}\n",
            s.id, parent, s.op, s.name, s.start, s.end
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: Option<u64>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start,
            end,
        }
    }

    #[test]
    fn coverage_merges_overlaps_and_clips() {
        let mut iv = vec![(2.0, 4.0), (1.0, 3.0), (8.0, 12.0), (5.0, 5.5)];
        assert!((covered(0.0, 10.0, &mut iv) - 5.5).abs() < 1e-12);
        assert_eq!(covered(0.0, 1.0, &mut []), 0.0);
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        let spans = vec![
            sp(1, None, "op", 0.0, 10.0),
            sp(2, Some(1), "a", 1.0, 4.0),
            sp(3, Some(2), "b", 2.0, 3.0),
            sp(4, Some(1), "c", 3.0, 6.0),
        ];
        let st = self_times(&spans);
        // op: 10 − |[1,6]| = 5; a: 3 − 1 = 2; leaves keep their duration.
        for (got, want) in st.iter().zip([5.0, 2.0, 1.0, 3.0]) {
            assert!((got - want).abs() < 1e-12, "{st:?}");
        }
        assert!((unattributed_frac(&spans, "op") - 0.5).abs() < 1e-12);
        let ls = layer_stats(&spans);
        assert_eq!(ls["a"].calls, 1);
        assert!((ls["a"].busy_s - 2.0).abs() < 1e-12);
        assert_eq!(ls["op"].durations, vec![10.0]);
    }

    #[test]
    fn recorder_links_parents_and_operations() {
        set_enabled(true);
        {
            let _op = op_span("test.op", 7);
            let mut g = span("test.child");
            g.rename("test.renamed");
        }
        set_enabled(false);
        drop(span("test.off"));
        let spans: Vec<Span> = take()
            .into_iter()
            .filter(|s| s.name.starts_with("test."))
            .collect();
        assert_eq!(spans.len(), 2);
        let (child, op) = (&spans[0], &spans[1]);
        assert_eq!(child.name, "test.renamed");
        assert_eq!(child.parent, Some(op.id));
        assert_eq!((child.op, op.op, op.parent), (7, 7, None));
        assert!(op.start <= child.start && child.end <= op.end);
    }
}
