//! A minimal discrete-event queue.
//!
//! Most of the reproduction composes latency analytically, but a few
//! processes are genuinely event-driven — keep-alive pings, function
//! reclamations, asynchronous prefetch completions. [`EventQueue`] provides
//! a deterministic time-ordered queue with stable FIFO tie-breaking.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// One scheduled entry.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want earliest first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list.
///
/// Events scheduled for the same instant pop in insertion order, which keeps
/// simulations reproducible regardless of payload type.
///
/// # Examples
///
/// ```
/// use flstore_sim::des::EventQueue;
/// use flstore_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(5), "late");
/// q.schedule(SimTime::from_secs(1), "early");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t, e), (SimTime::from_secs(1), "early"));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.at, s.event))
    }

    /// Removes the earliest event only if it fires at or before `deadline`.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? <= deadline {
            self.pop()
        } else {
            None
        }
    }

    /// Time of the earliest event without removing it.
    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 3);
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(2), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<i32>>());
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), "future");
        assert!(q.pop_before(SimTime::from_secs(4)).is_none());
        assert_eq!(q.len(), 1);
        assert!(q.pop_before(SimTime::from_secs(5)).is_some());
        assert!(q.is_empty());
    }

    #[test]
    fn clear_empties() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, ());
        q.clear();
        assert!(q.is_empty());
        assert!(q.peek_time().is_none());
    }
}
