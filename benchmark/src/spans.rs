//! The span recorder behind the traced pass.
//!
//! Spans are recorded from the benchmark's own wrappers, around the calls
//! into each layer (nothing inside the program is instrumented). Each
//! wrapper owns a [`Recorder`] with a private buffer — wrappers are moved
//! onto the thread that uses them, so the hot path takes no lock — and
//! the buffer is handed to the shared [`Tracer`] when the wrapper drops.
//!
//! Parent links come from one `current span` slot per nesting
//! [`Level`]: the serving pipeline runs one service call at a time (the
//! net engine thread owns the service), one unit call inside it, and the
//! policy/sink/spill calls inside that, so "the open span one level up"
//! is unambiguous even when the unit runs on an executor worker thread.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::now_ns;

/// Nesting depth of a wrapper boundary. (The load generator's send →
/// receive spans are roots, recorded after the fact with
/// [`Recorder::root`].)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// The `Service` handed to `NetServer` (`submit_batch`).
    Service = 0,
    /// A `ShardUnit` inside the executor.
    Unit = 1,
    /// Policy, record-sink, spill and kernel calls made by a store.
    Inner = 2,
}

const LEVELS: usize = 3;

/// One recorded interval. `req` is the request identifier the span
/// belongs to: the `RequestId` of a serve, the round of an ingest, or the
/// first envelope's sequence number for a batch-level span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<what>`; the layer prefix attributes the span's self time.
    pub name: &'static str,
    /// Start, in [`now_ns`] time.
    pub start_ns: u64,
    /// End, in [`now_ns`] time.
    pub end_ns: u64,
    /// Unique id (never 0).
    pub id: u32,
    /// Id of the span that caused this one; 0 for roots.
    pub parent: u32,
    /// Request identifier shared by the spans of one request.
    pub req: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer this span's self time is attributed to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The shared span collector of one traced pass.
#[derive(Debug)]
pub struct Tracer {
    next_id: AtomicU32,
    current: [AtomicU32; LEVELS],
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A fresh collector.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            next_id: AtomicU32::new(1),
            current: [const { AtomicU32::new(0) }; LEVELS],
            spans: Mutex::named(Vec::new(), "benchmark.trace_spans"),
        })
    }

    /// A recorder feeding this collector.
    pub fn recorder(self: &Arc<Self>) -> Recorder {
        Recorder {
            tracer: self.clone(),
            buf: Vec::new(),
        }
    }

    /// Every span flushed so far, ordered by start time. Recorders flush
    /// when dropped, so call this after the wrappers are gone.
    pub fn take_spans(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock());
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// A span that has started but not ended.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u32,
    parent: u32,
    level: Level,
    start_ns: u64,
}

/// A wrapper's private span buffer.
#[derive(Debug)]
pub struct Recorder {
    tracer: Arc<Tracer>,
    buf: Vec<Span>,
}

impl Recorder {
    /// Opens a span at `level`; its parent is the innermost open span of
    /// a shallower level.
    pub fn enter(&mut self, level: Level) -> Open {
        // SeqCst throughout: the slots are read from other threads (an
        // executor worker reads the engine thread's service span id), and
        // tracing cost is excluded from every end-to-end number anyway.
        let id = self.tracer.next_id.fetch_add(1, Ordering::SeqCst);
        let parent = (0..level as usize)
            .rev()
            .map(|l| self.tracer.current[l].load(Ordering::SeqCst))
            .find(|&p| p != 0)
            .unwrap_or(0);
        self.tracer.current[level as usize].store(id, Ordering::SeqCst);
        Open {
            id,
            parent,
            level,
            start_ns: now_ns(),
        }
    }

    /// Closes `open` under `name` for request `req`.
    pub fn exit(&mut self, open: Open, name: &'static str, req: u64) {
        let end_ns = now_ns();
        self.tracer.current[open.level as usize].store(0, Ordering::SeqCst);
        self.buf.push(Span {
            name,
            start_ns: open.start_ns,
            end_ns,
            id: open.id,
            parent: open.parent,
            req,
        });
    }

    /// Records an already-measured root span (the client's send →
    /// receive interval).
    pub fn root(&mut self, name: &'static str, start_ns: u64, end_ns: u64, req: u64) {
        let id = self.tracer.next_id.fetch_add(1, Ordering::SeqCst);
        self.buf.push(Span {
            name,
            start_ns,
            end_ns,
            id,
            parent: 0,
            req,
        });
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        if !self.buf.is_empty() {
            self.tracer.spans.lock().append(&mut self.buf);
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover (overlapping children are not counted
/// twice; children are clipped to the parent's interval).
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    let bounds: BTreeMap<u32, (u64, u64)> = spans
        .iter()
        .map(|s| (s.id, (s.start_ns, s.end_ns)))
        .collect();
    for s in spans {
        if let Some(&(ps, pe)) = bounds.get(&s.parent) {
            let (start, end) = (s.start_ns.max(ps), s.end_ns.min(pe));
            if end > start {
                children.entry(s.parent).or_default().push((start, end));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(intervals) = children.get_mut(&s.id) {
                intervals.sort_unstable();
                let mut cursor = s.start_ns;
                for &(start, end) in intervals.iter() {
                    let start = start.max(cursor);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Total self time per layer (the span-name prefix), in nanoseconds,
/// over spans that are not client roots.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.layer() != "loadgen") {
        *out.entry(s.layer()).or_default() += selfs[&s.id];
    }
    out
}

/// Count and total self time per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += selfs[&s.id];
    }
    out
}

/// Most spans written to a trace file; the per-name totals always cover
/// every span.
pub const MAX_SPANS_IN_FILE: usize = 200_000;

/// The trace file: a name table, per-name totals over every span, and
/// the first [`MAX_SPANS_IN_FILE`] spans as
/// `[name_index, start_ns, end_ns, id, parent, req]` rows.
pub fn to_json(spans: &[Span]) -> serde_json::Value {
    let totals = by_name(spans);
    let names: Vec<&'static str> = totals.keys().copied().collect();
    let index: BTreeMap<&'static str, usize> =
        names.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let rows: Vec<serde_json::Value> = spans
        .iter()
        .take(MAX_SPANS_IN_FILE)
        .map(|s| serde_json::json!([index[s.name], s.start_ns, s.end_ns, s.id, s.parent, s.req]))
        .collect();
    let totals: Vec<serde_json::Value> = totals
        .iter()
        .map(|(name, (count, self_ns))| {
            serde_json::json!({"name": name, "count": count, "self_ns": self_ns})
        })
        .collect();
    serde_json::json!({
        "columns": ["name", "start_ns", "end_ns", "id", "parent", "req"],
        "names": names,
        "span_count": spans.len(),
        "spans_in_file": rows.len(),
        "totals": totals,
        "spans": rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u32, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            id,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("core.submit", 1, 0, 0, 100),
            span("core.policy", 2, 1, 10, 30),
            span("workloads.kernel", 3, 1, 40, 90),
            span("durability.append", 4, 2, 12, 20), // grandchild
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[&1], 100 - 20 - 50);
        assert_eq!(selfs[&2], 20 - 8);
        assert_eq!(selfs[&3], 50);
        assert_eq!(selfs[&4], 8);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["core"], 30 + 12);
        assert_eq!(layers["workloads"], 50);
        assert_eq!(layers["durability"], 8);
        // Self times partition the root exactly.
        assert_eq!(layers.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span("exec.submit", 1, 0, 100, 200),
            span("workloads.kernel", 2, 1, 110, 160),
            span("workloads.kernel", 3, 1, 140, 180), // overlaps 2 on [140,160)
            span("workloads.kernel", 4, 1, 190, 250), // runs past the parent
        ];
        let selfs = self_times_ns(&spans);
        // Covered: [110,180) = 70, [190,200) = 10.
        assert_eq!(selfs[&1], 100 - 80);
    }

    #[test]
    fn orphans_and_roots_keep_their_whole_duration() {
        let spans = vec![
            span("loadgen.request", 1, 0, 0, 50),
            span("core.submit", 2, 99, 5, 25), // parent never recorded
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[&1], 50);
        assert_eq!(selfs[&2], 20);
        assert!(!layer_self_ns(&spans).contains_key("loadgen"));
    }

    #[test]
    fn recorder_links_parents_across_levels_and_flushes_on_drop() {
        let tracer = Tracer::new();
        {
            let mut service = tracer.recorder();
            let mut inner = tracer.recorder();
            let outer = service.enter(Level::Service);
            // No Unit level open: an Inner span parents to the service.
            let leaf = inner.enter(Level::Inner);
            inner.exit(leaf, "core.policy", 7);
            service.exit(outer, "core.submit", 7);
            let lone = inner.enter(Level::Inner);
            inner.exit(lone, "core.policy", 8);
        }
        let spans = tracer.take_spans();
        assert_eq!(spans.len(), 3);
        let submit = spans.iter().find(|s| s.name == "core.submit").unwrap();
        let first = spans
            .iter()
            .find(|s| s.req == 7 && s.id != submit.id)
            .unwrap();
        let lone = spans.iter().find(|s| s.req == 8).unwrap();
        assert_eq!(first.parent, submit.id);
        assert_eq!(lone.parent, 0, "the service span had closed");
        let json = to_json(&spans);
        assert_eq!(json["span_count"].as_u64(), Some(3));
    }
}
