//! The controller's delayed work: hash digests and posted events
//! ([`DelayedEvent`](super::DelayedEvent)), and the watchdog's backoff
//! replays.
//!
//! Items pop by `(due cycle, schedule sequence)`, so two runs that
//! schedule the same work in the same order drain it identically. The
//! shipped walkers keep at most one digest pending per live walker (tens
//! of items), so a plain binary heap needs no cached minimum to be fast.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use xcache_sim::Cycle;

/// One scheduled item, ordered min-first by `(due, seq)`; the item itself
/// never takes part in the ordering.
#[derive(Debug)]
struct Entry<T> {
    due: Cycle,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap, the earliest must come first.
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

/// Items due at a cycle, popped in `(due, seq)` order.
#[derive(Debug)]
pub(crate) struct DueQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    /// Monotonic schedule sequence; ties on `due` pop in schedule order.
    seq: u64,
}

impl<T> DueQueue<T> {
    pub(crate) fn new() -> Self {
        DueQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `item` at `due`. A due already past pops on the next
    /// [`pop_due`](Self::pop_due).
    pub(crate) fn schedule(&mut self, due: Cycle, item: T) {
        self.heap.push(Entry {
            due,
            seq: self.seq,
            item,
        });
        self.seq += 1;
    }

    /// The earliest scheduled due, or `None` when empty.
    pub(crate) fn next_due(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.due)
    }

    /// Removes and returns the first item in `(due, seq)` order if it is
    /// due by `now`.
    pub(crate) fn pop_due(&mut self, now: Cycle) -> Option<T> {
        if self.next_due()? > now {
            return None;
        }
        self.heap.pop().map(|e| e.item)
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Pops every item, in `(due, seq)` order.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(|| self.heap.pop().map(|e| e.item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Every item due by `t`, in pop order.
    fn pop_all<T>(q: &mut DueQueue<T>, t: Cycle) -> Vec<T> {
        std::iter::from_fn(|| q.pop_due(t)).collect()
    }

    #[test]
    fn pops_in_due_then_seq_order() {
        let mut q = DueQueue::new();
        q.schedule(Cycle(5), "b");
        q.schedule(Cycle(2), "a");
        q.schedule(Cycle(5), "c");
        assert_eq!(q.next_due(), Some(Cycle(2)));
        assert_eq!(pop_all(&mut q, Cycle(10)), vec!["a", "b", "c"]);
        assert!(q.is_empty());
        assert_eq!(q.next_due(), None);
    }

    #[test]
    fn big_jumps_drain_everything_in_order() {
        let mut q = DueQueue::new();
        for i in 0..2_000u64 {
            // Scatter dues; same-due ties broken by schedule order.
            q.schedule(Cycle((i * 37) % 1_500), i);
        }
        let mut popped = Vec::new();
        while let Some(due) = q.next_due() {
            let item = q.pop_due(Cycle(2_000)).expect("due by 2000");
            popped.push((due, item));
        }
        assert_eq!(popped.len(), 2_000);
        let mut sorted = popped.clone();
        // The schedule sequence equals the item here, so (due, seq) order
        // is exactly (due, item) order.
        sorted.sort_unstable();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn pop_at_current_clock_is_idempotent() {
        let mut q = DueQueue::new();
        q.schedule(Cycle(0), 1u32);
        assert_eq!(pop_all(&mut q, Cycle(0)), vec![1]);
        assert_eq!(pop_all(&mut q, Cycle(0)), vec![]);
        q.schedule(Cycle(0), 2u32);
        assert_eq!(pop_all(&mut q, Cycle(0)), vec![2]);
    }

    #[test]
    fn next_due_recomputes_after_pop() {
        let mut q = DueQueue::new();
        q.schedule(Cycle(4), 'a');
        q.schedule(Cycle(300), 'b');
        q.schedule(Cycle(8), 'c');
        assert_eq!(q.next_due(), Some(Cycle(4)));
        assert_eq!(pop_all(&mut q, Cycle(4)), vec!['a']);
        // A later due scheduled right after a pop must not hide the
        // earlier one still queued.
        q.schedule(Cycle(14), 'd');
        assert_eq!(q.next_due(), Some(Cycle(8)));
        assert_eq!(pop_all(&mut q, Cycle(14)), vec!['c', 'd']);
        assert_eq!(q.next_due(), Some(Cycle(300)));
        assert_eq!(pop_all(&mut q, Cycle(300)), vec!['b']);
        assert_eq!(q.next_due(), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The queue against a `BTreeMap<(due, seq), item>` model over
        /// random interleavings of tied, near, far and past schedules,
        /// pops that step, jump, land on an existing due or aim behind the
        /// clock, in-order drains, and `next_due` queries at random points
        /// (so a query does not refresh anything before each schedule).
        #[test]
        fn matches_btreemap_model(
            start in 0u64..10_000,
            ops in prop::collection::vec((0u8..9, 0u64..1_000), 1..300),
        ) {
            let mut q = DueQueue::new();
            let mut model: BTreeMap<(u64, u64), u64> = BTreeMap::new();
            let (mut now, mut seq) = (start, 0u64);
            for (kind, arg) in ops {
                // An already-scheduled due, for ties and exact pops.
                let existing = match model.len() {
                    0 => now,
                    n => model.keys().nth(arg as usize % n).unwrap().0,
                };
                match kind {
                    0..=3 => {
                        let due = match kind {
                            0 => existing,
                            1 => now + arg % 256,
                            2 => now + 256 + arg % 512,
                            _ => now.saturating_sub(arg),
                        };
                        q.schedule(Cycle(due), seq);
                        model.insert((due, seq), seq);
                        seq += 1;
                    }
                    4..=7 => {
                        let t = match kind {
                            4 => now + arg % 16,
                            5 => existing,
                            6 => now + 256 + arg,
                            // Behind the clock: only dues scheduled in the past.
                            _ => now.saturating_sub(arg % 8),
                        };
                        now = now.max(t);
                        let later = model.split_off(&(t + 1, 0));
                        let expected: Vec<_> =
                            std::mem::replace(&mut model, later).into_values().collect();
                        prop_assert_eq!(pop_all(&mut q, Cycle(t)), expected);
                    }
                    _ if arg % 8 == 0 => {
                        let expected: Vec<_> = std::mem::take(&mut model).into_values().collect();
                        prop_assert_eq!(q.drain().collect::<Vec<_>>(), expected);
                    }
                    _ => prop_assert_eq!(
                        q.next_due(),
                        model.keys().next().map(|&(d, _)| Cycle(d))
                    ),
                }
                prop_assert_eq!(q.len(), model.len());
            }
            let rest: Vec<_> = model.into_values().collect();
            prop_assert_eq!(pop_all(&mut q, Cycle(u64::MAX)), rest);
            prop_assert!(q.is_empty());
        }
    }
}
