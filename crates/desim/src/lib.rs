//! A small, deterministic discrete-event simulation engine.
//!
//! The parallel-join evaluation replays the paper's KSR1 cost model in
//! virtual time: processors advance private clocks through CPU work and
//! block on shared resources (disks). This crate provides the engine pieces:
//!
//! * [`EventQueue`] — a priority queue of `(time, seq, payload)` events with
//!   a total order: ties in virtual time are broken by insertion sequence
//!   number, making every simulation run bit-for-bit reproducible.
//! * [`FcfsResource`] — a single-server first-come-first-served resource
//!   (one disk); a request made at time `t` starts at `max(t, free_at)` and
//!   occupies the server for its service time.
//! * [`ResourcePool`] — a bank of FCFS resources (the disk array).
//!
//! The engine deliberately has no notion of "process"; executors drive
//! explicit state machines from the event loop. That keeps the join logic in
//! `psj-core` free of coroutine machinery while still letting a processor
//! suspend at every page fault.

#![warn(missing_docs)]

use psj_store::Nanos;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// SplitMix64: the 64-bit finalizer seeded tests use to derive a
/// reproducible stream of draws from a seed. Small, well-distributed, and
/// dependency-free.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A time-ordered event queue with deterministic tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: Nanos,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `payload` at virtual time `time`.
    pub fn schedule(&mut self, time: Nanos, payload: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { time, seq, payload }));
    }

    /// Removes and returns the earliest event `(time, payload)`; events with
    /// equal times come out in scheduling order.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.payload))
    }

    /// Virtual time of the next event without removing it.
    pub fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// A single-server FCFS resource: requests queue up in arrival (virtual
/// time) order and are served back to back.
#[derive(Debug, Clone, Default)]
pub struct FcfsResource {
    free_at: Nanos,
    served: u64,
    busy: Nanos,
}

impl FcfsResource {
    /// A resource that is idle from time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Issues a request arriving at `now` with the given `service` duration.
    /// Returns the completion time. The caller must issue requests in
    /// non-decreasing arrival order (the event loop guarantees this).
    pub fn request(&mut self, now: Nanos, service: Nanos) -> Nanos {
        let start = self.free_at.max(now);
        let done = start + service;
        self.free_at = done;
        self.served += 1;
        self.busy += service;
        done
    }

    /// Time until which the server is currently booked.
    pub fn free_at(&self) -> Nanos {
        self.free_at
    }

    /// Number of completed (scheduled) requests.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Accumulated pure service time (excludes queueing delay).
    pub fn busy_time(&self) -> Nanos {
        self.busy
    }
}

/// A bank of identical FCFS resources, e.g. the simulated disk array.
#[derive(Debug, Clone)]
pub struct ResourcePool {
    servers: Vec<FcfsResource>,
}

impl ResourcePool {
    /// Creates `n` idle resources.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "resource pool needs at least one server");
        ResourcePool {
            servers: vec![FcfsResource::new(); n],
        }
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the pool has no servers (never true; pools are non-empty).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Issues a request on server `idx`; see [`FcfsResource::request`].
    pub fn request(&mut self, idx: usize, now: Nanos, service: Nanos) -> Nanos {
        self.servers[idx].request(now, service)
    }

    /// Access to an individual server's counters.
    pub fn server(&self, idx: usize) -> &FcfsResource {
        &self.servers[idx]
    }

    /// Total completed requests over all servers.
    pub fn total_served(&self) -> u64 {
        self.servers.iter().map(|s| s.served()).sum()
    }

    /// Total busy time over all servers.
    pub fn total_busy(&self) -> Nanos {
        self.servers.iter().map(|s| s.busy_time()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(5, 1);
        q.schedule(5, 2);
        q.schedule(5, 3);
        assert_eq!(q.pop(), Some((5, 1)));
        assert_eq!(q.pop(), Some((5, 2)));
        assert_eq!(q.pop(), Some((5, 3)));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(7, ());
        assert_eq!(q.peek_time(), Some(7));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn fcfs_idle_server_starts_immediately() {
        let mut r = FcfsResource::new();
        assert_eq!(r.request(100, 16), 116);
        assert_eq!(r.free_at(), 116);
    }

    #[test]
    fn fcfs_busy_server_queues() {
        let mut r = FcfsResource::new();
        assert_eq!(r.request(0, 16), 16);
        // Arrives while busy: waits.
        assert_eq!(r.request(5, 16), 32);
        // Arrives after idle period: starts at arrival.
        assert_eq!(r.request(100, 16), 116);
        assert_eq!(r.served(), 3);
        assert_eq!(r.busy_time(), 48);
    }

    #[test]
    fn pool_servers_are_independent() {
        let mut p = ResourcePool::new(2);
        assert_eq!(p.request(0, 0, 16), 16);
        assert_eq!(p.request(1, 0, 16), 16, "second disk is idle");
        assert_eq!(p.request(0, 0, 16), 32, "first disk queues");
        assert_eq!(p.total_served(), 3);
        assert_eq!(p.total_busy(), 48);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_pool_rejected() {
        let _ = ResourcePool::new(0);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(10, 'a');
        assert_eq!(q.pop(), Some((10, 'a')));
        q.schedule(5, 'b');
        q.schedule(15, 'c');
        assert_eq!(q.pop(), Some((5, 'b')));
        q.schedule(12, 'd');
        assert_eq!(q.pop(), Some((12, 'd')));
        assert_eq!(q.pop(), Some((15, 'c')));
    }
}
