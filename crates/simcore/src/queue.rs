//! Multi-server FIFO queueing on the virtual clock.
//!
//! Concurrency effects — the knee in the paper's scalability experiment
//! (Fig. 12) where latency rises once parallel requests exceed the number of
//! cached function instances — come from contention for a bounded set of
//! servers. [`ServerPool`] models `c` identical servers with a shared FIFO
//! queue: each assignment picks the earliest-available server.

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// Outcome of assigning one job to a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// Index of the chosen server within the pool.
    pub server: usize,
    /// When service begins (>= arrival time).
    pub start: SimTime,
    /// When service completes.
    pub end: SimTime,
    /// Time spent waiting for a free server.
    pub queue_wait: SimDuration,
}

/// A pool of `c` identical servers with first-come-first-served assignment.
///
/// Jobs are assigned in call order; each job takes the server that frees up
/// earliest. This is an event-free equivalent of an M/G/c queue when callers
/// feed arrivals in non-decreasing time order.
///
/// # Examples
///
/// ```
/// use flstore_sim::queue::ServerPool;
/// use flstore_sim::time::{SimDuration, SimTime};
///
/// let mut pool = ServerPool::new(2);
/// let now = SimTime::ZERO;
/// let s = SimDuration::from_secs(10);
/// let a = pool.assign(now, s);
/// let b = pool.assign(now, s);
/// let c = pool.assign(now, s); // must wait for a server
/// assert!(a.queue_wait.is_zero() && b.queue_wait.is_zero());
/// assert_eq!(c.queue_wait, SimDuration::from_secs(10));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerPool {
    busy_until: Vec<SimTime>,
}

impl ServerPool {
    /// Creates a pool of `servers` idle servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "a server pool needs at least one server");
        ServerPool {
            busy_until: vec![SimTime::ZERO; servers],
        }
    }

    /// Number of servers in the pool.
    pub fn len(&self) -> usize {
        self.busy_until.len()
    }

    /// Always false: pools cannot be empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Assigns a job arriving at `now` with the given `service` time.
    ///
    /// Picks the earliest-available server, waits if none is free, and marks
    /// that server busy until completion.
    pub fn assign(&mut self, now: SimTime, service: SimDuration) -> Assignment {
        let (server, free_at) = self.earliest();
        let start = now.max(free_at);
        let end = start + service;
        self.busy_until[server] = end;
        Assignment {
            server,
            start,
            end,
            queue_wait: start.duration_since(now),
        }
    }

    /// The server that frees up earliest and its free time.
    fn earliest(&self) -> (usize, SimTime) {
        let mut best = 0;
        let mut best_time = self.busy_until[0];
        for (i, t) in self.busy_until.iter().enumerate().skip(1) {
            if *t < best_time {
                best = i;
                best_time = *t;
            }
        }
        (best, best_time)
    }

    /// Grows or shrinks the pool. New servers start idle; shrinking drops the
    /// busiest servers last (it removes from the end).
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn resize(&mut self, servers: usize) {
        assert!(servers > 0, "a server pool needs at least one server");
        self.busy_until.resize(servers, SimTime::ZERO);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn parallel_until_saturated() {
        // Mirrors Fig. 12: 5 servers, k simultaneous requests.
        let mut pool = ServerPool::new(5);
        let now = SimTime::ZERO;
        let service = secs(6);
        let mut ends = Vec::new();
        for _ in 0..10 {
            ends.push(pool.assign(now, service).end);
        }
        // First five finish at 6 s, next five at 12 s.
        for end in &ends[..5] {
            assert_eq!(*end, SimTime::from_secs(6));
        }
        for end in &ends[5..] {
            assert_eq!(*end, SimTime::from_secs(12));
        }
    }

    #[test]
    fn fifo_ordering_prefers_earliest_free() {
        let mut pool = ServerPool::new(2);
        let a = pool.assign(SimTime::ZERO, secs(10));
        let b = pool.assign(SimTime::ZERO, secs(2));
        assert_ne!(a.server, b.server);
        // Third job should land on the server finishing at 2 s.
        let c = pool.assign(SimTime::from_secs(1), secs(1));
        assert_eq!(c.server, b.server);
        assert_eq!(c.start, SimTime::from_secs(2));
        assert_eq!(c.queue_wait, secs(1));
    }

    #[test]
    fn resize_adds_idle_servers() {
        let mut pool = ServerPool::new(1);
        pool.assign(SimTime::ZERO, secs(100));
        pool.resize(3);
        assert_eq!(pool.len(), 3);
        assert!(pool.assign(SimTime::ZERO, secs(1)).queue_wait.is_zero());
        assert!(pool.assign(SimTime::ZERO, secs(1)).queue_wait.is_zero());
    }

    #[test]
    fn arrival_after_busy_period_is_immediate() {
        let mut pool = ServerPool::new(1);
        pool.assign(SimTime::ZERO, secs(3));
        let late = pool.assign(SimTime::from_secs(10), secs(1));
        assert!(late.queue_wait.is_zero());
        assert_eq!(late.start, SimTime::from_secs(10));
    }
}
