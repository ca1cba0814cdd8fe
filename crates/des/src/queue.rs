//! Deterministic event queue.
//!
//! Ordered by key `(time, stamp)`, so every virtual-time run is exactly
//! reproducible — a property the LB experiments and the test suite rely
//! on. [`EventQueue::schedule`] numbers its events itself, in insertion
//! order, from [`UNSTAMPED`] up; [`EventQueue::schedule_stamped`] takes
//! the stamp from the caller, who keeps one counter for several queues
//! (`pvr-rts` keeps one queue per PE and stamps every event that crosses
//! a barrier in the order one global queue would have numbered it). An
//! unstamped event therefore sorts after every stamped event of the same
//! time, and same-time events of either kind pop in the order of their
//! stamps.
//!
//! The entries live in two places. An event whose key is at least the
//! key of the last event in the *run* — a FIFO of keys in increasing
//! order — is appended to it, and leaves from its front: O(1) both ways,
//! which is what a simulation whose events mostly arrive in time order
//! pays. Any other event goes to a binary heap, and a pop takes the
//! smaller of the two heads. Entries are kept inline in both.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// The first stamp [`EventQueue::schedule`] gives an event; callers of
/// [`EventQueue::schedule_stamped`] stay below it.
pub const UNSTAMPED: u64 = 1 << 63;

struct Entry<E> {
    at: SimTime,
    stamp: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.stamp)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        self.key().cmp(&other.key())
    }
}

/// A future-event list for one simulation (or for one PE of one).
pub struct EventQueue<E> {
    /// Events that arrived in key order, keys increasing front to back.
    run: VecDeque<Entry<E>>,
    /// Every other event.
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// Stamp of the next [`Self::schedule`]d event.
    seq: u64,
    now: SimTime,
}

impl<E> EventQueue<E> {
    pub fn new() -> EventQueue<E> {
        Self::with_capacity(0)
    }

    /// A queue pre-sized for `cap` simultaneous in-flight events, so
    /// steady-state scheduling never reallocates.
    pub fn with_capacity(cap: usize) -> EventQueue<E> {
        EventQueue {
            run: VecDeque::with_capacity(cap),
            heap: BinaryHeap::with_capacity(cap),
            seq: UNSTAMPED,
            now: SimTime::ZERO,
        }
    }

    /// Allocated capacity of the smaller of the run and the heap: how
    /// many events the queue holds without reallocating, wherever they
    /// land.
    pub fn capacity(&self) -> usize {
        self.run.capacity().min(self.heap.capacity())
    }

    /// Current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`, after every event already
    /// scheduled for `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — causality violations are bugs.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let stamp = self.seq;
        self.seq += 1;
        self.push(at, stamp, event);
    }

    /// Schedule `event` at `at` with the caller's `stamp`: it pops after
    /// the same-time events of lower stamp and before those of higher
    /// stamp and every unstamped one. Stamps must be unique among the
    /// queue's events.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or `stamp` is not below
    /// [`UNSTAMPED`].
    pub fn schedule_stamped(&mut self, at: SimTime, stamp: u64, event: E) {
        assert!(stamp < UNSTAMPED, "stamp {stamp} out of range");
        self.push(at, stamp, event);
    }

    fn push(&mut self, at: SimTime, stamp: u64, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({:?} < {:?})",
            at,
            self.now
        );
        let e = Entry { at, stamp, event };
        match self.run.back() {
            Some(tail) if e.key() < tail.key() => self.heap.push(Reverse(e)),
            _ => self.run.push_back(e),
        }
    }

    /// The event the latest [`Self::schedule`] queued, if it is due at
    /// `at` and still the run's tail. What the caller folds into it pops
    /// where it would have popped as the next scheduled event: no key lies
    /// between the two.
    pub fn last_scheduled_mut(&mut self, at: SimTime) -> Option<&mut E> {
        let last = self.seq.checked_sub(1).filter(|&s| s >= UNSTAMPED)?;
        let tail = self.run.back_mut()?;
        (tail.key() == (at, last)).then_some(&mut tail.event)
    }

    /// Where the next event is — the run's front (`true`) or the heap's
    /// top — and its key; `None` when the queue is empty.
    fn head(&self) -> Option<(bool, (SimTime, u64))> {
        match (self.run.front(), self.heap.peek()) {
            (Some(r), Some(Reverse(h))) if h.key() < r.key() => Some((false, h.key())),
            (Some(r), _) => Some((true, r.key())),
            (None, Some(Reverse(h))) => Some((false, h.key())),
            (None, None) => None,
        }
    }

    /// Key `(time, stamp)` of the next event without popping.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.head().map(|(_, key)| key)
    }

    fn pop_entry(&mut self, in_run: bool) -> Entry<E> {
        let e = if in_run {
            self.run.pop_front()
        } else {
            self.heap.pop().map(|Reverse(e)| e)
        };
        let e = e.expect("the head is where `head` said");
        self.now = e.at;
        e
    }

    /// Pop the next event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (in_run, _) = self.head()?;
        let e = self.pop_entry(in_run);
        Some((e.at, e.event))
    }

    /// Pop the next event if its key is below `bound`, advancing `now`
    /// to its timestamp; returns its time and stamp with it.
    pub fn pop_before(&mut self, bound: (SimTime, u64)) -> Option<(SimTime, u64, E)> {
        let (in_run, key) = self.head()?;
        if key >= bound {
            return None;
        }
        let e = self.pop_entry(in_run);
        Some((e.at, e.stamp, e.event))
    }

    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }

    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// Move every event `pred` accepts to `out` as `(time, stamp,
    /// event)`, in no particular order; `now` is unchanged. For events
    /// that must leave this queue for another one with their keys. One
    /// pass over the queue, in place: the run keeps its order and the
    /// heap is rebuilt in linear time.
    pub fn extract(&mut self, mut pred: impl FnMut(&E) -> bool, out: &mut Vec<(SimTime, u64, E)>) {
        for _ in 0..self.run.len() {
            let e = self.run.pop_front().expect("counted");
            if pred(&e.event) {
                out.push((e.at, e.stamp, e.event));
            } else {
                self.run.push_back(e);
            }
        }
        let mut rest = std::mem::take(&mut self.heap).into_vec();
        let mut i = 0;
        while i < rest.len() {
            if pred(&rest[i].0.event) {
                let Reverse(e) = rest.swap_remove(i);
                out.push((e.at, e.stamp, e.event));
            } else {
                i += 1;
            }
        }
        self.heap = BinaryHeap::from(rest);
    }

    /// Append every event with timestamp strictly below `horizon` to
    /// `out`, in key order, advancing `now` to the latest timestamp
    /// drained. Appends nothing when the queue is empty or its head is
    /// already at/after `horizon`. The caller owns and reuses the output
    /// buffer, so steady-state extraction never allocates.
    pub fn drain_until(&mut self, horizon: SimTime, out: &mut Vec<(SimTime, E)>) {
        while let Some((at, _, event)) = self.pop_before((horizon, 0)) {
            out.push((at, event));
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

    /// `drain_until` into a fresh vector.
    fn window<E>(q: &mut EventQueue<E>, horizon: SimTime) -> Vec<(SimTime, E)> {
        let mut out = Vec::new();
        q.drain_until(horizon, &mut out);
        out
    }

    #[test]
    fn pop_window_drains_strictly_below_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(19), "b");
        q.schedule(SimTime(20), "c");
        q.schedule(SimTime(10), "a2");
        let w = window(&mut q, SimTime(20));
        assert_eq!(
            w,
            vec![(SimTime(10), "a"), (SimTime(10), "a2"), (SimTime(19), "b")]
        );
        assert_eq!(q.now(), SimTime(19));
        assert_eq!(q.len(), 1);
        // Head at the horizon stays; an empty window is a no-op.
        assert!(window(&mut q, SimTime(20)).is_empty());
        assert_eq!(q.pop(), Some((SimTime(20), "c")));
    }

    #[test]
    fn pop_window_respects_insertion_order_across_windows() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(5), 0);
        q.schedule(SimTime(5), 1);
        let w1 = window(&mut q, SimTime(6));
        assert_eq!(w1.len(), 2);
        // Events generated "during" the window land at/after the horizon
        // and are re-inserted afterwards — FIFO within a timestamp must
        // still hold in the next window.
        q.schedule(SimTime(6), 2);
        q.schedule(SimTime(6), 3);
        let w2 = window(&mut q, SimTime::MAX);
        assert_eq!(w2, vec![(SimTime(6), 2), (SimTime(6), 3)]);
        assert!(q.is_empty());
    }

    #[test]
    fn drain_until_matches_pop_window() {
        // Windows over a schedule that mixes the run and the heap: each
        // drains its keys in order and leaves the rest.
        let times = [30u64, 10, 10, 25, 19, 20, 20, 5, 40, 25];
        let mut q = EventQueue::with_capacity(times.len());
        let cap = q.capacity();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        assert_eq!(q.capacity(), cap, "the pre-sized queue never reallocated");
        let windows = [
            (SimTime(20), vec![(5, 7), (10, 1), (10, 2), (19, 4)], 6),
            (SimTime(26), vec![(20, 5), (20, 6), (25, 3), (25, 9)], 2),
            (SimTime::MAX, vec![(30, 0), (40, 8)], 0),
        ];
        let mut buf = Vec::new();
        for (horizon, want, left) in windows {
            buf.clear();
            q.drain_until(horizon, &mut buf);
            let want: Vec<_> = want.into_iter().map(|(t, i)| (SimTime(t), i)).collect();
            assert_eq!(buf, want, "horizon {horizon:?}");
            assert_eq!(q.now(), want.last().unwrap().0);
            assert_eq!(q.len(), left);
        }
    }

    #[test]
    fn stamps_order_ties_and_unstamped_events_follow() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(5), "local-a");
        q.schedule_stamped(SimTime(5), 9, "stamp-9");
        q.schedule_stamped(SimTime(5), 2, "stamp-2");
        q.schedule(SimTime(5), "local-b");
        q.schedule_stamped(SimTime(4), 30, "earlier");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            ["earlier", "stamp-2", "stamp-9", "local-a", "local-b"]
        );
    }

    #[test]
    fn pop_before_stops_at_the_bound_key() {
        let mut q = EventQueue::new();
        q.schedule_stamped(SimTime(7), 3, 'a');
        q.schedule_stamped(SimTime(7), 5, 'b');
        assert_eq!(q.pop_before((SimTime(7), 4)), Some((SimTime(7), 3, 'a')));
        assert_eq!(q.pop_before((SimTime(7), 4)), None);
        assert_eq!(q.now(), SimTime(7));
        assert_eq!(q.pop_before((SimTime(8), 0)), Some((SimTime(7), 5, 'b')));
        assert_eq!(q.pop_before((SimTime::MAX, 0)), None);
    }

    #[test]
    fn extract_keeps_keys_and_leaves_the_rest_in_order() {
        let mut q = EventQueue::new();
        for (t, stamp) in [(3u64, 1u64), (1, 2), (3, 0), (2, 4), (9, 3)] {
            q.schedule_stamped(SimTime(t), stamp, (t, stamp));
        }
        q.pop();
        let mut out = Vec::new();
        q.extract(|&(_, stamp)| stamp % 2 == 0, &mut out);
        out.sort_unstable_by_key(|&(at, stamp, _)| (at, stamp));
        assert_eq!(out, vec![(SimTime(2), 4, (2, 4)), (SimTime(3), 0, (3, 0))]);
        assert_eq!(q.now(), SimTime(1));
        let rest: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec![(3, 1), (9, 3)]);
    }

    #[test]
    fn only_the_last_scheduled_run_tail_takes_a_fold() {
        let mut q: EventQueue<Vec<&str>> = EventQueue::new();
        assert!(
            q.last_scheduled_mut(SimTime(5)).is_none(),
            "nothing scheduled"
        );
        q.schedule_stamped(SimTime(5), 1, vec!["stamped"]);
        assert!(
            q.last_scheduled_mut(SimTime(5)).is_none(),
            "stamped events take none"
        );
        q.schedule(SimTime(5), vec!["a"]);
        q.last_scheduled_mut(SimTime(5)).unwrap().push("a2");
        assert!(q.last_scheduled_mut(SimTime(6)).is_none(), "another time");
        q.schedule(SimTime(4), vec!["heap"]);
        assert!(
            q.last_scheduled_mut(SimTime(4)).is_none(),
            "not the run's tail"
        );
        q.schedule(SimTime(7), vec!["b"]);
        q.schedule_stamped(SimTime(7), 0, vec!["stamped-7"]);
        q.last_scheduled_mut(SimTime(7)).unwrap().push("b2");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            [
                vec!["heap"],
                vec!["stamped"],
                vec!["a", "a2"],
                vec!["stamped-7"],
                vec!["b", "b2"]
            ]
        );
        assert!(q.last_scheduled_mut(SimTime(7)).is_none(), "popped");
    }

    /// One step of the differential test below.
    #[derive(Debug, Clone)]
    enum Op {
        /// `schedule` at `now + dt`.
        Schedule(u64),
        /// `schedule_stamped` at `now + dt`, with the next stamp of a
        /// shuffled pool (so stamps arrive out of order).
        Stamped(u64),
        /// `n` stamped events at `now + dt`, `now + dt + 1`, …: keys in
        /// order, the run's case.
        Burst(u64, usize),
        Pop,
        /// `pop_before((now + dt, stamp))`.
        PopBefore(u64, u64),
        /// `drain_until(now + dt)`, or `SimTime::MAX` for `None`.
        Drain(Option<u64>),
        /// `extract` the events whose id is a multiple of `k`.
        Extract(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        // Small offsets, so equal times are common.
        prop_oneof![
            3 => (0u64..4).prop_map(Op::Schedule),
            3 => (0u64..4).prop_map(Op::Stamped),
            1 => (0u64..4, 1usize..48).prop_map(|(dt, n)| Op::Burst(dt, n)),
            3 => Just(Op::Pop),
            2 => (0u64..4, 0u64..600).prop_map(|(dt, s)| Op::PopBefore(dt, s)),
            1 => (0u64..240).prop_map(|dt| Op::Drain((dt < 200).then_some(dt))),
            1 => (1usize..4).prop_map(Op::Extract),
        ]
    }

    /// Run `ops` against the queue and a `BTreeMap` keyed `(time, stamp)`,
    /// comparing every popped or extracted event, `now()` and `len()`
    /// after each step.
    fn check_against_oracle(ops: &[Op], stamps: &[u64]) {
        use std::collections::BTreeMap;
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut oracle: BTreeMap<(SimTime, u64), usize> = BTreeMap::new();
        let (mut oracle_now, mut oracle_seq) = (SimTime::ZERO, UNSTAMPED);
        let mut stamps = stamps.iter().copied();
        let mut ids = 0usize..;
        for op in ops {
            let now = q.now().0;
            match *op {
                Op::Schedule(dt) => {
                    let id = ids.next().unwrap();
                    q.schedule(SimTime(now + dt), id);
                    oracle.insert((SimTime(now + dt), oracle_seq), id);
                    oracle_seq += 1;
                }
                Op::Stamped(dt) => {
                    let (id, stamp) = (ids.next().unwrap(), stamps.next().unwrap());
                    q.schedule_stamped(SimTime(now + dt), stamp, id);
                    oracle.insert((SimTime(now + dt), stamp), id);
                }
                Op::Burst(dt, n) => {
                    for k in 0..n as u64 {
                        let (id, stamp) = (ids.next().unwrap(), stamps.next().unwrap());
                        q.schedule_stamped(SimTime(now + dt + k), stamp, id);
                        oracle.insert((SimTime(now + dt + k), stamp), id);
                    }
                }
                Op::Pop => {
                    let want = oracle.pop_first().map(|((at, _), v)| (at, v));
                    if let Some((at, _)) = want {
                        oracle_now = at;
                    }
                    prop_assert_eq!(q.pop(), want);
                }
                Op::PopBefore(dt, s) => {
                    let bound = (SimTime(now + dt), s);
                    let want = match oracle.first_key_value() {
                        Some((&key, _)) if key < bound => oracle.pop_first(),
                        _ => None,
                    };
                    let want = want.map(|((at, stamp), v)| {
                        oracle_now = at;
                        (at, stamp, v)
                    });
                    prop_assert_eq!(q.pop_before(bound), want);
                }
                Op::Drain(dt) => {
                    let horizon = dt.map_or(SimTime::MAX, |dt| SimTime(now + dt));
                    let mut want = Vec::new();
                    while let Some(e) = oracle.first_entry().filter(|e| e.key().0 < horizon) {
                        let ((at, _), v) = e.remove_entry();
                        oracle_now = at;
                        want.push((at, v));
                    }
                    let mut got = Vec::new();
                    q.drain_until(horizon, &mut got);
                    prop_assert_eq!(got, want);
                }
                Op::Extract(k) => {
                    let mut want = Vec::new();
                    oracle.retain(|&(at, stamp), &mut v| {
                        let hit = v % k == 0;
                        if hit {
                            want.push((at, stamp, v));
                        }
                        !hit
                    });
                    let mut got = Vec::new();
                    q.extract(|&v| v % k == 0, &mut got);
                    got.sort_unstable_by_key(|&(at, stamp, _)| (at, stamp));
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(q.now(), oracle_now);
            prop_assert_eq!(q.len(), oracle.len());
        }
    }

    proptest! {
        #[test]
        fn prop_queue_matches_btreemap_oracle(
            ops in proptest::collection::vec(op(), 1..80),
            seed in any::<u64>(),
        ) {
            // 0..4096 in a seeded Fisher-Yates order
            let mut stamps: Vec<u64> = (0..4096).collect();
            let mut x = seed;
            for i in (1..stamps.len()).rev() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                stamps.swap(i, (x >> 33) as usize % (i + 1));
            }
            check_against_oracle(&ops, &stamps);
        }

        /// A queue that folds each event into the one scheduled last
        /// whenever it may pops, flattened, what a queue that schedules
        /// every event pops.
        #[test]
        fn prop_folding_pops_as_scheduling_does(
            ops in proptest::collection::vec((0u64..3, 0u8..4), 1..160),
        ) {
            let mut plain = EventQueue::new();
            let mut folded: EventQueue<Vec<usize>> = EventQueue::new();
            let mut stamps = 0u64..;
            for (id, &(dt, kind)) in ops.iter().enumerate() {
                let at = SimTime(plain.now().0 + dt);
                match kind {
                    0 | 1 => {
                        plain.schedule(at, id);
                        match folded.last_scheduled_mut(at) {
                            Some(run) => run.push(id),
                            None => folded.schedule(at, vec![id]),
                        }
                    }
                    2 => {
                        let stamp = stamps.next().unwrap();
                        plain.schedule_stamped(at, stamp, id);
                        folded.schedule_stamped(at, stamp, vec![id]);
                    }
                    _ => {
                        if let Some((t, run)) = folded.pop() {
                            for want in run {
                                prop_assert_eq!(plain.pop(), Some((t, want)));
                            }
                        }
                        prop_assert_eq!(plain.now(), folded.now());
                    }
                }
            }
            let rest: Vec<_> = std::iter::from_fn(|| folded.pop())
                .flat_map(|(t, run)| run.into_iter().map(move |id| (t, id)))
                .collect();
            let plain_rest: Vec<_> = std::iter::from_fn(|| plain.pop()).collect();
            prop_assert_eq!(rest, plain_rest);
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
