//! A min-heap of deadlines that stays bounded by what is still live.
//!
//! The replica's deadline reaper and the router's pacer both register a
//! deadline for every request and delete lazily: a request answered
//! early leaves its entry behind until the deadline passes.  Those
//! stale entries (and the allocations their weak handles pin) would
//! otherwise grow with throughput × deadline.  [`DeadlineHeap`] drops
//! them by amortized compaction: whenever the heap reaches twice its
//! live size at the previous compaction, it keeps only live entries.
//! So the heap never holds more than `2 × live + MIN_COMPACT` entries,
//! at O(1) amortized cost per push.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Compaction never runs on heaps smaller than this.
const MIN_COMPACT: usize = 64;

struct Entry<T> {
    due: Instant,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    // Reversed: BinaryHeap is a max-heap, we want the earliest first;
    // equal deadlines pop in registration order.
    fn cmp(&self, other: &Self) -> Ordering {
        other.due.cmp(&self.due).then(other.seq.cmp(&self.seq))
    }
}

/// Earliest-deadline-first heap of `T`s; `is_live` tells which entries
/// still guard an unsettled request.
pub struct DeadlineHeap<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
    compact_at: usize,
    is_live: fn(&T) -> bool,
}

impl<T> DeadlineHeap<T> {
    /// An empty heap; entries for which `is_live` is false may be
    /// dropped before they are due.
    pub fn new(is_live: fn(&T) -> bool) -> DeadlineHeap<T> {
        DeadlineHeap {
            heap: BinaryHeap::new(),
            seq: 0,
            compact_at: MIN_COMPACT,
            is_live,
        }
    }

    /// Register `item` to come due at `due`.
    pub fn push(&mut self, due: Instant, item: T) {
        self.seq += 1;
        self.heap.push(Entry {
            due,
            seq: self.seq,
            item,
        });
        if self.heap.len() >= self.compact_at {
            let is_live = self.is_live;
            self.heap.retain(|e| is_live(&e.item));
            self.compact_at = (2 * self.heap.len()).max(MIN_COMPACT);
        }
    }

    /// The earliest deadline, if any.
    pub fn next_due(&self) -> Option<Instant> {
        self.heap.peek().map(|e| e.due)
    }

    /// Remove and return the earliest entry if it is due by `now`.
    pub fn pop_due(&mut self, now: Instant) -> Option<T> {
        if self.next_due()? <= now {
            self.heap.pop().map(|e| e.item)
        } else {
            None
        }
    }

    /// Entries held, stale ones included.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap holds no entries.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Weak};
    use std::time::Duration;

    fn live(w: &Weak<u32>) -> bool {
        w.strong_count() > 0
    }

    #[test]
    fn pops_earliest_first_and_only_when_due() {
        let now = Instant::now();
        let mut h = DeadlineHeap::new(|_: &u32| true);
        for (ms, v) in [(30, 3), (10, 1), (20, 2), (10, 4)] {
            h.push(now + Duration::from_millis(ms), v);
        }
        assert_eq!(h.pop_due(now), None);
        assert_eq!(h.next_due(), Some(now + Duration::from_millis(10)));
        let later = now + Duration::from_millis(30);
        let order: Vec<u32> = std::iter::from_fn(|| h.pop_due(later)).collect();
        // Ties pop in registration order.
        assert_eq!(order, vec![1, 4, 2, 3]);
        assert!(h.is_empty());
    }

    #[test]
    fn answered_entries_do_not_accumulate_and_live_ones_still_expire() {
        let now = Instant::now();
        let mut h = DeadlineHeap::new(live);
        // A few requests stay unanswered; one of them is due soon.
        let unanswered: Vec<Arc<u32>> = (0..3).map(Arc::new).collect();
        h.push(
            now + Duration::from_millis(5),
            Arc::downgrade(&unanswered[0]),
        );
        for a in &unanswered[1..] {
            h.push(now + Duration::from_secs(10), Arc::downgrade(a));
        }
        // Many requests answered long before their 10 s deadline.
        for i in 0..100_000u32 {
            let answered = Arc::new(i);
            h.push(now + Duration::from_secs(10), Arc::downgrade(&answered));
            drop(answered);
            assert!(
                h.len() <= 2 * unanswered.len() + MIN_COMPACT,
                "heap grew to {} after {i} answered requests",
                h.len()
            );
        }
        // The unanswered request still comes due, and nothing else yet.
        let due = h.pop_due(now + Duration::from_millis(5)).expect("expires");
        assert_eq!(due.upgrade().as_deref(), Some(&0));
        assert!(h.pop_due(now + Duration::from_millis(5)).is_none());
    }
}
