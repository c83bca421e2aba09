//! Hierarchical timing wheel / calendar queue.
//!
//! The PR 2 fast-forward machinery finds the next interesting cycle by
//! folding `next_event` reports over *every* component (or every pending
//! delayed message) each step — an O(n) scan that is pure overhead when
//! most of n is idle. [`TimingWheel`] inverts that: work is *scheduled* at
//! its due cycle once, finding the next due cycle is a cached O(1) peek,
//! and advancing time pops exactly the entries whose cycle has arrived.
//!
//! The structure is a two-tier calendar queue: a `SLOTS`-wide ring of
//! buckets covers the near window `[now, now + SLOTS)` with one bucket per
//! cycle, and everything further out lives in a min-heap that migrates into
//! the ring as the clock advances. Near-window operations are O(1);
//! far-heap operations are O(log n) and rare for the populations this
//! simulator sees (tens of in-flight events).
//!
//! Ordering is fully deterministic: entries pop sorted by
//! `(due cycle, insertion sequence)`, so two runs that schedule the same
//! events in the same order drain them identically — the property the
//! byte-identical-stats differential suites lean on.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::Cycle;

/// Near-window width in cycles. Most controller latencies (hazard retries,
/// message delays, DRAM round-trips) land within this window.
const SLOTS: usize = 256;

/// A far-heap entry, ordered min-first by `(due, seq)` (the item itself
/// never participates in ordering).
struct FarEnt<T> {
    due: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for FarEnt<T> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<T> Eq for FarEnt<T> {}
impl<T> PartialOrd for FarEnt<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for FarEnt<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

/// A deterministic event scheduler keyed by absolute [`Cycle`].
///
/// ```
/// use xcache_sim::{Cycle, TimingWheel};
///
/// let mut w = TimingWheel::new(Cycle(0));
/// w.schedule(Cycle(40), "dram fill");
/// w.schedule(Cycle(3), "retry");
/// assert_eq!(w.next_due(), Some(Cycle(3)));
/// assert_eq!(w.pop_due(Cycle(3)), vec![(Cycle(3), "retry")]);
/// assert_eq!(w.next_due(), Some(Cycle(40)));
/// ```
pub struct TimingWheel<T> {
    /// Ring of per-cycle buckets for dues in `[now, now + SLOTS)`; bucket
    /// index is `due % SLOTS`, entries are `(seq, item)` in insertion order.
    near: Vec<Vec<(u64, T)>>,
    /// Entries due at or beyond `now + SLOTS`, min-ordered by `(due, seq)`.
    far: BinaryHeap<FarEnt<T>>,
    /// All entries with due `< now` have been popped.
    now: u64,
    /// Monotonic insertion sequence; ties on `due` pop in schedule order.
    seq: u64,
    len: usize,
    /// Cached earliest due; `u64::MAX` means "unknown, recompute".
    min_due: Cell<u64>,
}

impl<T> TimingWheel<T> {
    /// An empty wheel whose clock starts at `now`.
    #[must_use]
    pub fn new(now: Cycle) -> Self {
        TimingWheel {
            near: (0..SLOTS).map(|_| Vec::new()).collect(),
            far: BinaryHeap::new(),
            now: now.raw(),
            seq: 0,
            len: 0,
            min_due: Cell::new(u64::MAX),
        }
    }

    /// Number of scheduled entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The wheel's current clock (entries due before this are gone).
    #[must_use]
    pub fn now(&self) -> Cycle {
        Cycle(self.now)
    }

    /// Schedules `item` at `due`. Dues in the past are clamped to the
    /// current clock (they pop on the next [`pop_due`](Self::pop_due)).
    /// [`Cycle::NEVER`] is rejected in debug builds — "never" events must
    /// simply not be scheduled.
    pub fn schedule(&mut self, due: Cycle, item: T) {
        debug_assert_ne!(due, Cycle::NEVER, "schedule() called with Cycle::NEVER");
        let due = due.raw().max(self.now);
        let seq = self.seq;
        self.seq += 1;
        if due - self.now < SLOTS as u64 {
            self.near[(due % SLOTS as u64) as usize].push((seq, item));
        } else {
            self.far.push(FarEnt { due, seq, item });
        }
        self.len += 1;
        if due < self.min_due.get() {
            self.min_due.set(due);
        }
    }

    /// The earliest scheduled due cycle, or `None` when empty. O(1) when
    /// the cached minimum is valid; otherwise one bounded ring scan.
    #[must_use]
    pub fn next_due(&self) -> Option<Cycle> {
        if self.len == 0 {
            return None;
        }
        let cached = self.min_due.get();
        if cached != u64::MAX {
            return Some(Cycle(cached));
        }
        let mut min = self.far.peek().map_or(u64::MAX, |e| e.due);
        for off in 0..SLOTS as u64 {
            let due = self.now + off;
            if !self.near[(due % SLOTS as u64) as usize].is_empty() {
                min = due;
                break;
            }
        }
        debug_assert_ne!(min, u64::MAX, "len > 0 but no entry found");
        self.min_due.set(min);
        Some(Cycle(min))
    }

    /// Advances the clock to `t` and appends every entry with `due <= t`
    /// to `out`, sorted by `(due, insertion sequence)`. `t` earlier than
    /// the current clock is treated as the current clock.
    pub fn pop_due_into(&mut self, t: Cycle, out: &mut Vec<(Cycle, T)>) {
        let t = t.raw().max(self.now);
        if self.len > 0 {
            // Drain near buckets in due order over the elapsed range (the
            // whole ring if the jump exceeds the window).
            let span = (t - self.now + 1).min(SLOTS as u64);
            for off in 0..span {
                let due = self.now + off;
                let bucket = &mut self.near[(due % SLOTS as u64) as usize];
                if !bucket.is_empty() {
                    self.len -= bucket.len();
                    out.extend(bucket.drain(..).map(|(_, item)| (Cycle(due), item)));
                }
            }
            // Far entries due by `t` follow (their dues are >= every near
            // due just drained); the heap yields them in (due, seq) order.
            while self.far.peek().is_some_and(|e| e.due <= t) {
                let e = self.far.pop().unwrap();
                self.len -= 1;
                out.push((Cycle(e.due), e.item));
            }
        }
        self.now = t;
        // Migrate far entries that entered the near window. Heap order
        // keeps each bucket's (seq) ordering intact: a due can only be
        // scheduled directly into the ring *after* the pop that brought it
        // inside the window, i.e. after this migration.
        while self.far.peek().is_some_and(|e| e.due - t < SLOTS as u64) {
            let e = self.far.pop().unwrap();
            self.near[(e.due % SLOTS as u64) as usize].push((e.seq, e.item));
        }
        self.min_due.set(u64::MAX);
    }

    /// Convenience wrapper around [`pop_due_into`](Self::pop_due_into)
    /// that allocates the output vector.
    #[must_use]
    pub fn pop_due(&mut self, t: Cycle) -> Vec<(Cycle, T)> {
        let mut out = Vec::new();
        self.pop_due_into(t, &mut out);
        out
    }

    /// Removes every entry without advancing the clock.
    pub fn clear(&mut self) {
        for bucket in &mut self.near {
            bucket.clear();
        }
        self.far.clear();
        self.len = 0;
        self.min_due.set(u64::MAX);
    }
}

impl<T> std::fmt::Debug for TimingWheel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimingWheel")
            .field("now", &self.now)
            .field("len", &self.len)
            .field("far", &self.far.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn pops_in_due_then_seq_order() {
        let mut w = TimingWheel::new(Cycle(0));
        w.schedule(Cycle(5), "b");
        w.schedule(Cycle(2), "a");
        w.schedule(Cycle(5), "c");
        assert_eq!(w.next_due(), Some(Cycle(2)));
        assert_eq!(
            w.pop_due(Cycle(10)),
            vec![(Cycle(2), "a"), (Cycle(5), "b"), (Cycle(5), "c")]
        );
        assert!(w.is_empty());
        assert_eq!(w.next_due(), None);
    }

    #[test]
    fn far_entries_migrate_and_interleave_correctly() {
        let mut w = TimingWheel::new(Cycle(0));
        w.schedule(Cycle(1_000), "far");
        w.schedule(Cycle(10), "near");
        assert_eq!(w.next_due(), Some(Cycle(10)));
        assert_eq!(w.pop_due(Cycle(10)), vec![(Cycle(10), "near")]);
        assert_eq!(w.next_due(), Some(Cycle(1_000)));
        // Advance into the far entry's window, then schedule the same due
        // directly: insertion order must still be preserved.
        assert_eq!(w.pop_due(Cycle(900)), vec![]);
        w.schedule(Cycle(1_000), "late");
        assert_eq!(
            w.pop_due(Cycle(1_000)),
            vec![(Cycle(1_000), "far"), (Cycle(1_000), "late")]
        );
    }

    #[test]
    fn big_jumps_drain_everything_in_order() {
        let mut w = TimingWheel::new(Cycle(0));
        for i in 0..2_000u64 {
            // Scatter dues; same-due ties broken by insertion order.
            w.schedule(Cycle((i * 37) % 1_500), i);
        }
        let popped = w.pop_due(Cycle(2_000));
        assert_eq!(popped.len(), 2_000);
        let mut sorted = popped.clone();
        sorted.sort_by_key(|&(due, item)| (due, item));
        // Insertion seq == item value here, so (due, seq) order is
        // exactly (due, item) order.
        assert_eq!(popped, sorted);
        assert!(w.is_empty());
    }

    #[test]
    fn past_dues_clamp_to_now() {
        let mut w = TimingWheel::new(Cycle(100));
        w.schedule(Cycle(3), "stale");
        assert_eq!(w.next_due(), Some(Cycle(100)));
        assert_eq!(w.pop_due(Cycle(100)), vec![(Cycle(100), "stale")]);
    }

    #[test]
    fn pop_at_current_clock_is_idempotent() {
        let mut w = TimingWheel::new(Cycle(0));
        w.schedule(Cycle(0), 1u32);
        assert_eq!(w.pop_due(Cycle(0)), vec![(Cycle(0), 1)]);
        assert_eq!(w.pop_due(Cycle(0)), vec![]);
        w.schedule(Cycle(0), 2u32);
        assert_eq!(w.pop_due(Cycle(0)), vec![(Cycle(0), 2)]);
    }

    #[test]
    fn next_due_recomputes_after_pop() {
        let mut w = TimingWheel::new(Cycle(0));
        w.schedule(Cycle(4), ());
        w.schedule(Cycle(300), ());
        assert_eq!(w.next_due(), Some(Cycle(4)));
        let _ = w.pop_due(Cycle(4));
        assert_eq!(w.next_due(), Some(Cycle(300)));
        let _ = w.pop_due(Cycle(300));
        assert_eq!(w.next_due(), None);
    }

    #[test]
    fn clear_empties_without_touching_clock() {
        let mut w = TimingWheel::new(Cycle(7));
        w.schedule(Cycle(9), ());
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.now(), Cycle(7));
        assert_eq!(w.next_due(), None);
    }

    #[test]
    fn reuses_caller_buffer() {
        let mut w = TimingWheel::new(Cycle(0));
        let mut buf = Vec::with_capacity(8);
        w.schedule(Cycle(1), 1u8);
        w.pop_due_into(Cycle(1), &mut buf);
        assert_eq!(buf, vec![(Cycle(1), 1)]);
        buf.clear();
        w.schedule(Cycle(2), 2u8);
        w.pop_due_into(Cycle(2), &mut buf);
        assert_eq!(buf, vec![(Cycle(2), 2)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The wheel against a `BTreeMap<(due, seq), item>` model over
        /// random interleavings of tied, near, far and past schedules with
        /// pops that step, jump past the ring, land an existing due on the
        /// near-window edge, or aim behind the clock.
        #[test]
        fn matches_btreemap_model(
            start in 0u64..10_000,
            ops in prop::collection::vec((0u8..8, 0u64..1_000), 1..300),
        ) {
            let slots = SLOTS as u64;
            let mut w = TimingWheel::new(Cycle(start));
            let mut model: BTreeMap<(u64, u64), u64> = BTreeMap::new();
            let (mut now, mut seq) = (start, 0u64);
            for (kind, arg) in ops {
                // An already-scheduled due, for ties and edge pops.
                let existing = match model.len() {
                    0 => now,
                    n => model.keys().nth(arg as usize % n).unwrap().0,
                };
                let due = match kind {
                    0 => Some(existing),
                    1 => Some(now + arg % slots),
                    2 => Some(now + slots + arg % 512),
                    3 => Some(now.saturating_sub(arg)),
                    _ => None,
                };
                if let Some(due) = due {
                    w.schedule(Cycle(due), seq);
                    model.insert((due.max(now), seq), seq);
                    seq += 1;
                } else {
                    let t = match kind {
                        4 => now + arg % 16,
                        5 => now + slots + arg,
                        // `existing` ends up just inside, at, or just past
                        // the edge of the near window.
                        6 => existing.saturating_sub(slots - 2 + (arg >> 4) % 3),
                        _ => now.saturating_sub(arg % 8),
                    };
                    now = now.max(t);
                    let later = model.split_off(&(now + 1, 0));
                    let popped = std::mem::replace(&mut model, later);
                    let expected: Vec<_> =
                        popped.into_iter().map(|((d, _), item)| (Cycle(d), item)).collect();
                    prop_assert_eq!(w.pop_due(Cycle(t)), expected);
                }
                prop_assert_eq!(w.next_due(), model.keys().next().map(|&(d, _)| Cycle(d)));
                prop_assert_eq!(w.len(), model.len());
                prop_assert_eq!(w.now(), Cycle(now));
            }
            let end = model.keys().next_back().map_or(now, |&(d, _)| d);
            let rest: Vec<_> = model.into_iter().map(|((d, _), item)| (Cycle(d), item)).collect();
            prop_assert_eq!(w.pop_due(Cycle(end)), rest);
            prop_assert!(w.is_empty());
        }
    }
}
