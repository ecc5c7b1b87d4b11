//! The benchmark's span recorder and the nesting analysis over it.
//!
//! [`SpanLog`] is a `cfs_obs::Recorder` attached through
//! `CfsBuilder::recorder`: it keeps every span the engine already emits
//! (name, start, end, thread) and every counter, in memory. Parents and
//! self times are derived from the measured intervals, per thread: a
//! span's parent is the innermost span *on the same thread* whose
//! interval contains it. Work a span hands to another thread therefore
//! never shortens that span's self time — the caller was waiting for it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cfs_obs::Recorder;

use crate::clock;

/// One closed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// The engine's span name (`stage.extract`, `cfs.iteration`, …).
    pub name: &'static str,
    /// Start, ns since the log's origin.
    pub start_ns: u64,
    /// End, ns since the log's origin.
    pub end_ns: u64,
    /// The recording thread (a small per-process number).
    pub thread: u64,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// An in-memory recorder of spans and counters.
pub struct SpanLog {
    origin: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: clock::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        clock::since_ns(self.origin)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span log lock poisoned").clone()
    }

    /// A counter's total (0 when never touched).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .expect("span log lock poisoned")
            .get(name)
            .copied()
            .unwrap_or(0)
    }
}

impl Recorder for SpanLog {
    fn enabled(&self) -> bool {
        true
    }

    fn counter(&self, name: &'static str, delta: u64) {
        *self
            .counters
            .lock()
            .expect("span log lock poisoned")
            .entry(name)
            .or_insert(0) += delta;
    }

    fn span_start(&self) -> u64 {
        self.now_ns()
    }

    fn span_end(&self, name: &'static str, start_ns: u64) {
        let end_ns = self.now_ns();
        let thread = THREAD.with(|t| *t);
        self.spans
            .lock()
            .expect("span log lock poisoned")
            .push(SpanRecord {
                name,
                start_ns,
                end_ns,
                thread,
            });
    }
}

/// A span placed in its per-thread nesting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Node {
    /// The span.
    pub span: SpanRecord,
    /// Index (into the returned vector) of the innermost containing span
    /// on the same thread.
    pub parent: Option<usize>,
    /// Duration minus the part of it covered by child spans.
    pub self_ns: u64,
}

/// Places every span under its innermost same-thread container and
/// computes self times. Spans on one thread nest or are disjoint; a
/// partial overlap (clock skew at a boundary) is clipped to the parent.
pub fn nest(spans: &[SpanRecord]) -> Vec<Node> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| {
        let s = &spans[i];
        (s.thread, s.start_ns, std::cmp::Reverse(s.end_ns), i)
    });
    let mut nodes: Vec<Node> = spans
        .iter()
        .map(|s| Node {
            span: s.clone(),
            parent: None,
            self_ns: s.end_ns.saturating_sub(s.start_ns),
        })
        .collect();
    let mut stack: Vec<usize> = Vec::new();
    let mut thread = None;
    for i in order {
        let s = &spans[i];
        if thread != Some(s.thread) {
            stack.clear();
            thread = Some(s.thread);
        }
        while let Some(&top) = stack.last() {
            if spans[top].end_ns <= s.start_ns {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&top) = stack.last() {
            nodes[i].parent = Some(top);
            let covered = s.end_ns.min(spans[top].end_ns) - s.start_ns;
            nodes[top].self_ns = nodes[top].self_ns.saturating_sub(covered);
        }
        stack.push(i);
    }
    nodes
}

/// Self time summed per span name.
pub fn self_ns_by_name(nodes: &[Node]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for n in nodes {
        *out.entry(n.span.name).or_insert(0) += n.self_ns;
    }
    out
}

/// Whether every child lies within its parent's interval and no self
/// time exceeds its span's duration.
pub fn nesting_is_consistent(nodes: &[Node]) -> bool {
    nodes.iter().all(|n| {
        let dur = n.span.end_ns - n.span.start_ns;
        let inside = n.parent.is_none_or(|p| {
            let ps = &nodes[p].span;
            ps.thread == n.span.thread && n.span.end_ns - n.span.start_ns <= ps.end_ns - ps.start_ns
        });
        inside && n.self_ns <= dur
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, thread: u64) -> SpanRecord {
        SpanRecord {
            name,
            start_ns,
            end_ns,
            thread,
        }
    }

    #[test]
    fn same_thread_children_are_subtracted_from_the_parent() {
        let spans = vec![
            span("run", 0, 100, 1),
            span("a", 10, 40, 1),
            span("b", 50, 90, 1),
            span("a.inner", 20, 30, 1),
        ];
        let nodes = nest(&spans);
        assert_eq!(nodes[0].parent, None);
        assert_eq!(nodes[1].parent, Some(0));
        assert_eq!(nodes[2].parent, Some(0));
        assert_eq!(nodes[3].parent, Some(1));
        assert_eq!(nodes[0].self_ns, 100 - 30 - 40);
        assert_eq!(nodes[1].self_ns, 30 - 10);
        assert_eq!(nodes[2].self_ns, 40);
        assert!(nesting_is_consistent(&nodes));
        let by_name = self_ns_by_name(&nodes);
        assert_eq!(by_name.values().sum::<u64>(), 100);
    }

    #[test]
    fn children_on_another_thread_do_not_shorten_the_parent() {
        // The parent waits on thread 1 while its work runs on threads 2
        // and 3: those spans are roots of their own threads, and the
        // parent keeps its whole duration as self time.
        let spans = vec![
            span("stage", 0, 100, 1),
            span("worker", 10, 60, 2),
            span("worker", 15, 70, 3),
            span("local", 80, 90, 1),
        ];
        let nodes = nest(&spans);
        assert_eq!(nodes[1].parent, None);
        assert_eq!(nodes[2].parent, None);
        assert_eq!(nodes[3].parent, Some(0));
        assert_eq!(nodes[0].self_ns, 90);
        assert_eq!(nodes[1].self_ns, 50);
        assert_eq!(nodes[2].self_ns, 55);
        assert!(nesting_is_consistent(&nodes));
    }

    #[test]
    fn back_to_back_spans_are_siblings_and_overlap_is_clipped() {
        let spans = vec![
            span("p", 0, 50, 1),
            span("x", 0, 20, 1),
            span("y", 20, 50, 1),
            span("q", 50, 60, 1),
            span("skew", 55, 65, 1),
        ];
        let nodes = nest(&spans);
        assert_eq!(nodes[1].parent, Some(0));
        assert_eq!(nodes[2].parent, Some(0));
        assert_eq!(nodes[3].parent, None);
        assert_eq!(nodes[0].self_ns, 0);
        assert_eq!(nodes[4].parent, Some(3));
        assert_eq!(nodes[3].self_ns, 5);
    }

    #[test]
    fn the_log_records_spans_and_counters() {
        let log = SpanLog::new();
        let outer = log.span_start();
        let inner = log.span_start();
        log.span_end("inner", inner);
        log.counter("c", 2);
        log.counter("c", 3);
        log.span_end("outer", outer);
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(log.counter_total("c"), 5);
        assert_eq!(log.counter_total("missing"), 0);
        let nodes = nest(&spans);
        assert_eq!(nodes[0].parent, Some(1));
        assert!(nesting_is_consistent(&nodes));
    }
}
