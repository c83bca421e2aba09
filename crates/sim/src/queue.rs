//! Latency-insensitive message queues.
//!
//! X-Cache "interfaces with other components through a set of parameterized
//! message bundles, i.e., latency-insensitive queues" (§7.1). [`MsgQueue`]
//! models such a bundle: a bounded FIFO in which a pushed message only
//! becomes visible to the consumer `latency` cycles later. Back-pressure is
//! explicit — pushing into a full queue fails and the producer must retry,
//! exactly as a ready/valid handshake would stall.

use std::collections::VecDeque;
use std::fmt;

use crate::Cycle;

/// Error returned by [`MsgQueue::push`] when the queue is full.
///
/// Carries the rejected message back so the producer can hold it and retry
/// next cycle without cloning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushError<T>(pub T);

impl<T> fmt::Display for PushError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "queue full; message rejected")
    }
}

impl<T: fmt::Debug> std::error::Error for PushError<T> {}

/// A bounded FIFO whose entries become visible `latency` cycles after push.
///
/// Determinism: entries are delivered strictly in push order, even when
/// several become ready on the same cycle.
///
/// ```
/// use xcache_sim::{Cycle, MsgQueue};
/// let mut q = MsgQueue::new("fill", 1, 2);
/// q.push(Cycle(5), "block").unwrap();
/// assert!(q.push(Cycle(5), "rejected").is_err()); // capacity 1
/// assert_eq!(q.pop(Cycle(6)), None);
/// assert_eq!(q.pop(Cycle(7)), Some("block"));
/// ```
#[derive(Debug, Clone)]
pub struct MsgQueue<T> {
    name: &'static str,
    capacity: usize,
    latency: u64,
    entries: VecDeque<(Cycle, T)>,
    /// Total messages ever pushed (for statistics).
    pushed: u64,
    /// Total messages ever popped (for statistics).
    popped: u64,
    /// Number of rejected pushes (back-pressure events).
    stalls: u64,
}

impl<T> MsgQueue<T> {
    /// Creates a queue with `capacity` entries and `latency` cycles of
    /// visibility delay.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-capacity bundle can never
    /// transfer a message, which is always a configuration bug.
    #[must_use]
    pub fn new(name: &'static str, capacity: usize, latency: u64) -> Self {
        assert!(capacity > 0, "queue `{name}` must have nonzero capacity");
        MsgQueue {
            name,
            capacity,
            latency,
            entries: VecDeque::with_capacity(capacity),
            pushed: 0,
            popped: 0,
            stalls: 0,
        }
    }

    /// The queue's configured name (used in traces and statistics).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Maximum number of in-flight messages.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Visibility latency in cycles.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Number of messages currently buffered (ready or not).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue holds no messages at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether a push at this moment would be rejected.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Enqueues `msg` at time `now`; it becomes poppable at `now + latency`.
    ///
    /// # Errors
    ///
    /// Returns [`PushError`] carrying `msg` back if the queue is full.
    pub fn push(&mut self, now: Cycle, msg: T) -> Result<(), PushError<T>> {
        self.push_after(now, 0, msg)
    }

    /// Enqueues `msg` with `extra` cycles of latency on top of the queue's
    /// configured latency — used to model serialised multi-beat transfers
    /// (e.g. a matrix row returned sector-by-sector to the datapath).
    ///
    /// # Errors
    ///
    /// Returns [`PushError`] carrying `msg` back if the queue is full.
    pub fn push_after(&mut self, now: Cycle, extra: u64, msg: T) -> Result<(), PushError<T>> {
        if self.is_full() {
            self.stalls += 1;
            return Err(PushError(msg));
        }
        self.pushed += 1;
        // FIFO delivery: a head with a later ready time delays younger
        // entries, preserving in-order semantics.
        self.entries.push_back((now + self.latency + extra, msg));
        Ok(())
    }

    /// Removes and returns the oldest message that is ready at `now`.
    ///
    /// Returns `None` when the queue is empty or the head message is still
    /// in flight. Because delivery is FIFO, a not-yet-ready head blocks
    /// younger messages even if (through reconfiguration) they would be
    /// ready sooner — matching a physical channel.
    pub fn pop(&mut self, now: Cycle) -> Option<T> {
        match self.entries.front() {
            Some((ready, _)) if *ready <= now => {
                self.popped += 1;
                self.entries.pop_front().map(|(_, m)| m)
            }
            _ => None,
        }
    }

    /// Returns a reference to the oldest ready message without removing it.
    ///
    /// This models the `peek` microcode action: the walker can examine a
    /// DRAM response header before deciding to dequeue it.
    #[must_use]
    pub fn peek(&self, now: Cycle) -> Option<&T> {
        match self.entries.front() {
            Some((ready, msg)) if *ready <= now => Some(msg),
            _ => None,
        }
    }

    /// Whether at least one message is ready to pop at `now`.
    #[must_use]
    pub fn has_ready(&self, now: Cycle) -> bool {
        self.peek(now).is_some()
    }

    /// The cycle at which the head message becomes poppable, or `None` when
    /// the queue is empty. Because delivery is FIFO, this is the earliest
    /// cycle at which a consumer could observe anything new — the queue's
    /// contribution to a component's `next_event`.
    #[must_use]
    pub fn next_ready(&self) -> Option<Cycle> {
        self.entries.front().map(|&(ready, _)| ready)
    }

    /// Total messages pushed over the queue's lifetime.
    #[must_use]
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Total messages popped over the queue's lifetime.
    #[must_use]
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// Number of rejected pushes (back-pressure stalls) observed.
    #[must_use]
    pub fn total_stalls(&self) -> u64 {
        self.stalls
    }

    /// Removes every entry, returning the number removed. Statistics are
    /// preserved.
    pub fn clear(&mut self) -> usize {
        let n = self.entries.len();
        self.entries.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_after_latency() {
        let mut q = MsgQueue::new("t", 4, 3);
        q.push(Cycle(10), 1u32).unwrap();
        assert_eq!(q.pop(Cycle(12)), None);
        assert_eq!(q.pop(Cycle(13)), Some(1));
        assert_eq!(q.pop(Cycle(13)), None);
    }

    #[test]
    fn zero_latency_is_same_cycle() {
        let mut q = MsgQueue::new("t", 1, 0);
        q.push(Cycle(4), 9u8).unwrap();
        assert_eq!(q.pop(Cycle(4)), Some(9));
    }

    #[test]
    fn rejects_when_full_and_returns_message() {
        let mut q = MsgQueue::new("t", 2, 1);
        q.push(Cycle(0), 'a').unwrap();
        q.push(Cycle(0), 'b').unwrap();
        let err = q.push(Cycle(0), 'c').unwrap_err();
        assert_eq!(err.0, 'c');
        assert_eq!(q.total_stalls(), 1);
        // Draining frees space again.
        assert_eq!(q.pop(Cycle(1)), Some('a'));
        q.push(Cycle(1), 'c').unwrap();
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = MsgQueue::new("t", 8, 2);
        for i in 0..5u32 {
            q.push(Cycle(0), i).unwrap();
        }
        let drained: Vec<_> = std::iter::from_fn(|| q.pop(Cycle(2))).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = MsgQueue::new("t", 2, 0);
        q.push(Cycle(0), 5u64).unwrap();
        assert_eq!(q.peek(Cycle(0)), Some(&5));
        assert_eq!(q.len(), 1);
        assert!(q.has_ready(Cycle(0)));
        assert_eq!(q.pop(Cycle(0)), Some(5));
        assert!(!q.has_ready(Cycle(0)));
    }

    #[test]
    fn push_after_adds_extra_latency() {
        let mut q = MsgQueue::new("t", 4, 1);
        q.push_after(Cycle(0), 5, 'x').unwrap();
        assert_eq!(q.pop(Cycle(5)), None);
        assert_eq!(q.pop(Cycle(6)), Some('x'));
        // A delayed head blocks a younger zero-extra message (FIFO).
        q.push_after(Cycle(10), 5, 'a').unwrap();
        q.push(Cycle(10), 'b').unwrap();
        assert_eq!(q.pop(Cycle(11)), None);
        assert_eq!(q.pop(Cycle(16)), Some('a'));
        assert_eq!(q.pop(Cycle(16)), Some('b'));
    }

    #[test]
    fn next_ready_reports_head_visibility() {
        let mut q = MsgQueue::new("t", 4, 3);
        assert_eq!(q.next_ready(), None);
        q.push(Cycle(10), 1u32).unwrap();
        q.push(Cycle(12), 2u32).unwrap();
        assert_eq!(q.next_ready(), Some(Cycle(13)));
        q.pop(Cycle(13));
        assert_eq!(q.next_ready(), Some(Cycle(15)));
    }

    #[test]
    fn counters_track_traffic() {
        let mut q = MsgQueue::new("t", 2, 0);
        q.push(Cycle(0), 1).unwrap();
        q.push(Cycle(0), 2).unwrap();
        q.pop(Cycle(0));
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.total_popped(), 1);
        assert_eq!(q.clear(), 1);
        assert!(q.is_empty());
        assert_eq!(q.total_pushed(), 2);
    }

    #[test]
    #[should_panic(expected = "nonzero capacity")]
    fn zero_capacity_panics() {
        let _ = MsgQueue::<u8>::new("bad", 0, 0);
    }

    #[test]
    fn full_push_returns_message_and_empty_pop_is_none() {
        let mut q = MsgQueue::new("t", 1, 1);
        q.push(Cycle(0), 'a').unwrap();
        let err = q.push(Cycle(0), 'b').unwrap_err();
        assert_eq!(err.0, 'b');
        assert_eq!(q.total_stalls(), 1);
        assert_eq!(q.pop(Cycle(0)), None); // not ready yet
        assert_eq!(q.pop(Cycle(1)), Some('a'));
        assert_eq!(q.pop(Cycle(1)), None); // empty: None, not a panic
    }
}
