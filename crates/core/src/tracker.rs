//! The Request Tracker (paper §4.3).
//!
//! Receives non-training requests, records which functions each was routed
//! to, and tracks completion — the paper's dictionary
//! `RequestID → Tuple(List[FunctionID], Status)`.
//!
//! The tracker is shared state between the client-facing front end and the
//! functions reporting progress, so it is internally synchronized
//! (`parking_lot::RwLock`) and cheap: the paper measures <0.19 MB for 1000
//! in-flight requests and sub-millisecond operations (§5.5), which the
//! overhead benchmarks reproduce.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::RwLock;

use flstore_serverless::function::FunctionId;
use flstore_sim::bytes::ByteSize;
use flstore_workloads::request::RequestId;

/// Routing record of one in-flight request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestEntry {
    /// Functions the request was dispatched to.
    pub functions: Vec<FunctionId>,
    /// Whether all dispatched work completed.
    pub done: bool,
}

/// Thread-safe request routing/progress tracker.
///
/// # Examples
///
/// ```
/// use flstore_core::tracker::RequestTracker;
/// use flstore_workloads::request::RequestId;
/// use flstore_serverless::function::FunctionId;
///
/// let tracker = RequestTracker::new();
/// let id = RequestId::new(1);
/// tracker.dispatch(id, vec![FunctionId::from_raw(0)]);
/// assert!(!tracker.entry(id).unwrap().done);
/// tracker.complete(id);
/// assert!(tracker.entry(id).unwrap().done);
/// ```
#[derive(Debug)]
pub struct RequestTracker {
    entries: RwLock<HashMap<RequestId, RequestEntry>>,
    /// Mirror of the unfinished-entry count, so the hot-path gauge
    /// [`RequestTracker::in_flight`] never takes the map lock. Mutated
    /// only while holding the `entries` write lock, which already orders
    /// the updates — hence every access is Relaxed.
    open: AtomicUsize,
}

impl Default for RequestTracker {
    fn default() -> Self {
        RequestTracker::new()
    }
}

impl RequestTracker {
    /// Creates an empty tracker. The lock is named so the `lock-order`
    /// deadlock detector can identify it in witness stacks.
    pub fn new() -> Self {
        RequestTracker {
            entries: RwLock::named(HashMap::new(), "core.tracker.entries"),
            open: AtomicUsize::new(0),
        }
    }

    /// Records that `request` was routed to `functions`.
    pub fn dispatch(&self, request: RequestId, functions: Vec<FunctionId>) {
        let mut entries = self.entries.write();
        let prev = entries.insert(
            request,
            RequestEntry {
                functions,
                done: false,
            },
        );
        if !matches!(prev, Some(ref e) if !e.done) {
            // Relaxed: guarded by the write lock above; the atomic only
            // mirrors the count for lock-free reads.
            self.open.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Marks a request complete. Returns false if unknown.
    pub fn complete(&self, request: RequestId) -> bool {
        let mut entries = self.entries.write();
        match entries.get_mut(&request) {
            Some(entry) => {
                if !entry.done {
                    entry.done = true;
                    // Relaxed: guarded by the write lock above.
                    self.open.fetch_sub(1, Ordering::Relaxed);
                }
                true
            }
            None => false,
        }
    }

    /// Routing record of a request.
    pub fn entry(&self, request: RequestId) -> Option<RequestEntry> {
        self.entries.read().get(&request).cloned()
    }

    /// Removes a finished request's record (the client collected results).
    pub fn forget(&self, request: RequestId) -> bool {
        let mut entries = self.entries.write();
        match entries.remove(&request) {
            Some(entry) => {
                if !entry.done {
                    // Relaxed: guarded by the write lock above.
                    self.open.fetch_sub(1, Ordering::Relaxed);
                }
                true
            }
            None => false,
        }
    }

    /// Number of tracked requests.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// True when no requests are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Number of tracked-but-unfinished requests. Lock-free: reads the
    /// mirrored counter (Relaxed — a monitoring gauge needs no ordering)
    /// instead of scanning the map under its lock.
    pub fn in_flight(&self) -> usize {
        self.open.load(Ordering::Relaxed)
    }

    /// Estimated resident memory, for the overhead analysis (§5.5).
    pub fn estimated_memory(&self) -> ByteSize {
        let entries = self.entries.read();
        // RequestId = 8 B; entry = Vec header 24 B + 8 B/function + bool,
        // hash-map entry overhead ≈ 48 B.
        let fns: usize = entries.values().map(|e| 8 * e.functions.len()).sum();
        ByteSize::from_bytes((entries.len() * (8 + 24 + 1 + 48) + fns) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid(i: u64) -> FunctionId {
        FunctionId::from_raw(i)
    }

    #[test]
    fn dispatch_complete_forget_lifecycle() {
        let t = RequestTracker::new();
        let r = RequestId::new(42);
        t.dispatch(r, vec![fid(1), fid(2)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.in_flight(), 1);
        assert_eq!(
            t.entry(r).expect("dispatched").functions,
            vec![fid(1), fid(2)]
        );
        assert!(t.complete(r));
        assert_eq!(t.in_flight(), 0);
        assert!(t.forget(r));
        assert!(t.is_empty());
        assert!(!t.complete(r));
        assert!(t.entry(r).is_none());
    }

    #[test]
    fn memory_matches_paper_scale() {
        let t = RequestTracker::new();
        for i in 0..1000 {
            t.dispatch(RequestId::new(i), vec![fid(i % 7)]);
        }
        let est = t.estimated_memory();
        // Paper §5.5: <0.19 MB at 1000 concurrent requests.
        assert!(est < ByteSize::from_mb_f64(0.25), "{est}");
        assert!(est > ByteSize::from_kb(50), "{est}");
    }

    #[test]
    fn in_flight_gauge_stays_exact_across_lifecycles() {
        let t = RequestTracker::new();
        let scan = |t: &RequestTracker| t.entries.read().values().filter(|e| !e.done).count();
        let r1 = RequestId::new(1);
        let r2 = RequestId::new(2);
        t.dispatch(r1, vec![fid(1)]);
        t.dispatch(r2, vec![fid(2)]);
        assert_eq!(t.in_flight(), 2);
        t.dispatch(r1, vec![fid(3)]); // re-dispatch while open: no double count
        assert_eq!(t.in_flight(), 2);
        t.complete(r1);
        t.complete(r1); // idempotent completion: no double decrement
        assert_eq!(t.in_flight(), 1);
        t.dispatch(r1, vec![fid(4)]); // re-dispatch after completion re-opens
        assert_eq!(t.in_flight(), 2);
        t.forget(r2); // forgetting an open request closes it
        assert_eq!(t.in_flight(), 1);
        t.complete(r1);
        t.forget(r1); // forgetting a finished request is a no-op on the gauge
        assert_eq!(t.in_flight(), 0);
        assert_eq!(t.in_flight(), scan(&t));
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let t = Arc::new(RequestTracker::new());
        let mut handles = Vec::new();
        for thread in 0..4u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..250u64 {
                    let id = RequestId::new(thread * 1000 + i);
                    t.dispatch(id, vec![fid(i % 3)]);
                    t.complete(id);
                }
            }));
        }
        for h in handles {
            h.join().expect("no panics");
        }
        assert_eq!(t.len(), 1000);
        assert_eq!(t.in_flight(), 0);
    }
}
