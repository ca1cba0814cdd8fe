//! Deterministic event queue.
//!
//! Ordered by (time, insertion sequence): events scheduled for the same
//! instant pop in the order they were scheduled, so every virtual-time
//! run is exactly reproducible — a property the LB experiments and the
//! test suite rely on.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A future-event list for one simulation.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: SimTime,
    /// Latest timestamp ever scheduled — lets `drain_until` detect the
    /// "whole queue drains" case and skip per-event heap sifting.
    max_at: SimTime,
    /// Reused staging buffer for whole-queue drains, so bulk extraction
    /// allocates nothing once warm.
    scratch: Vec<Reverse<Entry<E>>>,
    /// Debug-only high-water mark of the heap's live length, used by
    /// tests to assert zero steady-state reallocation after
    /// `with_capacity` sizing.
    #[cfg(debug_assertions)]
    high_water: usize,
}

impl<E> EventQueue<E> {
    pub fn new() -> EventQueue<E> {
        Self::with_capacity(0)
    }

    /// A queue whose backing heap is pre-sized for `cap` simultaneous
    /// in-flight events, so steady-state scheduling never reallocates.
    pub fn with_capacity(cap: usize) -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            seq: 0,
            now: SimTime::ZERO,
            max_at: SimTime::ZERO,
            scratch: Vec::with_capacity(cap),
            #[cfg(debug_assertions)]
            high_water: 0,
        }
    }

    /// Grow the backing heap to hold at least `additional` more events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Allocated capacity of the backing heap.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Debug-only: the largest live length the heap ever reached.
    /// Together with `capacity()` this lets tests assert that a
    /// pre-sized queue never reallocated.
    #[cfg(debug_assertions)]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — causality violations are bugs.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({:?} < {:?})",
            at,
            self.now
        );
        self.heap.push(Reverse(Entry {
            at,
            seq: self.seq,
            event,
        }));
        self.seq += 1;
        self.max_at = self.max_at.max(at);
        #[cfg(debug_assertions)]
        {
            self.high_water = self.high_water.max(self.heap.len());
        }
    }

    /// Pop the next event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(e) = self.heap.pop()?;
        self.now = e.at;
        Some((e.at, e.event))
    }

    /// Timestamp of the next event without popping.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Total events ever scheduled (diagnostics).
    pub fn scheduled_count(&self) -> u64 {
        self.seq
    }

    /// [`Self::drain_until`] as one heap pop per event into a fresh
    /// vector: the oracle the tests check it against — do not
    /// "optimize".
    #[cfg(test)]
    fn pop_window(&mut self, horizon: SimTime) -> Vec<(SimTime, E)> {
        let mut out = Vec::new();
        while let Some(t) = self.peek_time() {
            if t >= horizon {
                break;
            }
            out.push(self.pop().expect("peeked event must pop"));
        }
        out
    }

    /// Bulk epoch extraction: append every event with timestamp strictly
    /// below `horizon` to `out`, in (time, insertion sequence) order,
    /// advancing `now` to the latest timestamp drained. Appends nothing
    /// when the queue is empty or its head is already at/after `horizon`.
    ///
    /// This is the epoch-extraction primitive for conservative parallel
    /// simulation: with a lookahead `L` no smaller than the minimum
    /// cross-PE event latency, every event in the window
    /// `[peek_time(), peek_time() + L)` is causally independent across
    /// PEs and the whole window can execute concurrently. Events
    /// generated while the window runs land at or beyond `horizon`, so
    /// re-inserting them afterwards can never schedule into the past.
    ///
    /// The caller owns and reuses the output buffer, so steady-state
    /// extraction never allocates, and when the horizon clears the whole
    /// queue the heap is emptied with one `O(n log n)` sort instead of
    /// `n` heap-pop siftings — the common case for the parallel engine,
    /// whose lookahead window usually swallows every pending event.
    pub fn drain_until(&mut self, horizon: SimTime, out: &mut Vec<(SimTime, E)>) {
        if self.heap.is_empty() {
            return;
        }
        // Below this length, `n` heap pops beat the flatten-sort's fixed
        // cost; the pop loop keeps tiny epochs (e.g. a 2-rank ping-pong)
        // as cheap as popping them one by one.
        const SORT_CUTOFF: usize = 32;
        if self.max_at < horizon && self.heap.len() > SORT_CUTOFF {
            // Whole-queue drain: flatten and sort once instead of `n`
            // heap-pop siftings. `drain` keeps the heap's allocation and
            // the scratch buffer is reused, so a warm queue extracts
            // with zero allocations. `sort_unstable` is safe because
            // (at, seq) is a total order with no duplicates (seq is
            // unique).
            self.scratch.extend(self.heap.drain());
            self.scratch.sort_unstable_by_key(|Reverse(a)| (a.at, a.seq));
            if let Some(Reverse(last)) = self.scratch.last() {
                self.now = last.at;
            }
            out.reserve(self.scratch.len());
            out.extend(self.scratch.drain(..).map(|Reverse(e)| (e.at, e.event)));
            return;
        }
        while let Some(t) = self.peek_time() {
            if t >= horizon {
                break;
            }
            out.push(self.pop().expect("peeked event must pop"));
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.now(), SimTime(20));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(SimTime(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn past_scheduling_rejected() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(100), ());
        q.pop();
        q.schedule(SimTime(50), ());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), 1);
        let (t, _) = q.pop().unwrap();
        q.schedule(t + SimDuration(5), 2);
        q.schedule(t + SimDuration(1), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn same_time_fifo_survives_interleaved_push_pop() {
        // Regression pin for the scheduler's determinism guarantee: a
        // PeWake and a Deliver scheduled for the same instant must pop in
        // scheduling order even when other events are popped in between
        // (the heap is reorganized by every pop, and the global `seq`
        // keeps counting — the tie-break must still hold).
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), "early-a");
        q.schedule(SimTime(50), "tie-1");
        q.schedule(SimTime(10), "early-b");
        assert_eq!(q.pop().unwrap().1, "early-a");
        // now() == 10; schedule more ties for t=50 after a pop
        q.schedule(SimTime(50), "tie-2");
        assert_eq!(q.pop().unwrap().1, "early-b");
        q.schedule(SimTime(50), "tie-3");
        q.schedule(SimTime(20), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        // a final same-time arrival right at the pop boundary
        q.schedule(SimTime(50), "tie-4");
        let ties: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            ties,
            vec!["tie-1", "tie-2", "tie-3", "tie-4"],
            "same-timestamp events must pop in scheduling order"
        );
        assert_eq!(q.now(), SimTime(50));
    }

    #[test]
    fn pop_window_drains_strictly_below_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(19), "b");
        q.schedule(SimTime(20), "c");
        q.schedule(SimTime(10), "a2");
        let w = q.pop_window(SimTime(20));
        assert_eq!(
            w,
            vec![
                (SimTime(10), "a"),
                (SimTime(10), "a2"),
                (SimTime(19), "b")
            ]
        );
        assert_eq!(q.now(), SimTime(19));
        assert_eq!(q.len(), 1);
        // Head at the horizon stays; an empty window is a no-op.
        assert!(q.pop_window(SimTime(20)).is_empty());
        assert_eq!(q.pop(), Some((SimTime(20), "c")));
    }

    #[test]
    fn pop_window_respects_insertion_order_across_windows() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(5), 0);
        q.schedule(SimTime(5), 1);
        let w1 = q.pop_window(SimTime(6));
        assert_eq!(w1.len(), 2);
        // Events generated "during" the window land at/after the horizon
        // and are re-inserted afterwards — FIFO within a timestamp must
        // still hold in the next window.
        q.schedule(SimTime(6), 2);
        q.schedule(SimTime(6), 3);
        let w2 = q.pop_window(SimTime::MAX);
        assert_eq!(w2, vec![(SimTime(6), 2), (SimTime(6), 3)]);
        assert!(q.is_empty());
    }

    #[test]
    fn drain_until_matches_pop_window() {
        // Same schedule, both extraction paths: identical output
        // sequence, identical post-state.
        let times = [30u64, 10, 10, 25, 19, 20, 20, 5, 40, 25];
        let mut reference = EventQueue::new();
        let mut fast = EventQueue::with_capacity(times.len());
        for (i, &t) in times.iter().enumerate() {
            reference.schedule(SimTime(t), i);
            fast.schedule(SimTime(t), i);
        }
        let mut buf = Vec::new();
        for horizon in [SimTime(20), SimTime(26), SimTime::MAX] {
            let want = reference.pop_window(horizon);
            buf.clear();
            fast.drain_until(horizon, &mut buf);
            assert_eq!(buf, want, "horizon {horizon:?}");
            assert_eq!(fast.now(), reference.now());
            assert_eq!(fast.len(), reference.len());
        }
        assert!(fast.is_empty());
    }

    #[test]
    fn drain_until_bulk_path_preserves_fifo_and_capacity() {
        // max_at < horizon takes the sort-once path; insertion order
        // within a timestamp must still hold, and the heap's
        // pre-allocated buffer must survive the drain.
        let mut q = EventQueue::with_capacity(16);
        for i in 0..8 {
            q.schedule(SimTime(7), i);
        }
        let cap = q.capacity();
        let mut out = Vec::new();
        q.drain_until(SimTime::MAX, &mut out);
        assert_eq!(
            out,
            (0..8).map(|i| (SimTime(7), i)).collect::<Vec<_>>(),
            "bulk drain must keep same-timestamp FIFO"
        );
        assert_eq!(q.now(), SimTime(7));
        assert!(q.capacity() >= cap, "bulk drain must not shrink the heap");
        // The queue stays usable: later windows keep global seq order.
        q.schedule(SimTime(9), 100);
        q.schedule(SimTime(9), 101);
        out.clear();
        q.drain_until(SimTime(9), &mut out); // head at horizon: no-op
        assert!(out.is_empty());
        q.drain_until(SimTime(10), &mut out);
        assert_eq!(out, vec![(SimTime(9), 100), (SimTime(9), 101)]);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn high_water_tracks_live_peak_not_throughput() {
        let mut q = EventQueue::with_capacity(4);
        for round in 0..10 {
            q.schedule(SimTime(round), round);
            q.pop();
        }
        assert_eq!(q.high_water(), 1, "pops must drain the live count");
        assert!(
            q.high_water() <= q.capacity(),
            "steady-state run must fit the pre-sized heap"
        );
    }

    proptest! {
        #[test]
        fn prop_drain_until_equals_pop_window(
            times in proptest::collection::vec(0u64..100, 1..200),
            horizon in 0u64..120,
        ) {
            let mut reference = EventQueue::new();
            let mut fast = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                reference.schedule(SimTime(t), i);
                fast.schedule(SimTime(t), i);
            }
            let want = reference.pop_window(SimTime(horizon));
            let mut got = Vec::new();
            fast.drain_until(SimTime(horizon), &mut got);
            prop_assert_eq!(got, want);
            prop_assert_eq!(fast.now(), reference.now());
            prop_assert_eq!(fast.len(), reference.len());
        }

        #[test]
        fn prop_monotone_pops(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime(t), i);
            }
            let mut last = SimTime::ZERO;
            let mut count = 0;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
                count += 1;
            }
            prop_assert_eq!(count, times.len());
        }

        #[test]
        fn prop_same_time_fifo(n in 1usize..100) {
            let mut q = EventQueue::new();
            for i in 0..n {
                q.schedule(SimTime(42), i);
            }
            let popped: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            prop_assert_eq!(popped, (0..n).collect::<Vec<_>>());
        }
    }
}
