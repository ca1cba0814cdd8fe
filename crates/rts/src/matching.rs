//! The matching engine: one per rank, O(1) expected per message.
//!
//! Every message a rank receives — through a posted nonblocking receive,
//! a blocking receive, or a raw `recv` — is paired with its receiver
//! here, and nowhere else:
//!
//! * **Posted queue.** Pending receives are indexed by their spec,
//!   `(src, tag_mask, tag_value)` → FIFO of request ids. An arrival
//!   probes one bucket per spec *class* in use (`(src given?, mask)`: at
//!   most four with AMPI's envelopes) and takes the smallest id among
//!   the bucket fronts. Request ids are post-order stamps, so that is
//!   "the first posted receive that matches" (non-overtaking), exactly.
//!   Wildcards are classes like any other.
//! * **Request table.** Id-keyed hash map; completions carry a stamp, so
//!   reaping a subset in completion order never walks the rest (and a
//!   wait for all of its requests, which needs no order, sorts nothing),
//!   and a suspended wait counts its pending requests down instead of
//!   re-probing them on every completion.
//! * **Unexpected queue.** Messages nobody was waiting for, in arrival
//!   order, with a `(from, tag)` index: a receive whose spec names the
//!   source and every tag bit claims in O(1); only wildcards scan.
//! * **Blocking receives.** A rank parked in a matched receive has
//!   posted nothing since (it is suspended), so it is the youngest
//!   posted receive: an arrival tries it after the posted index.
//!
//! The posted index is derived state: a checkpoint carries the table
//! (`ReqState`), and a restore rebuilds the index from it in id order.
//! Nothing depends on hash-map iteration order.
//!
//! The scheduler (`ExecCtx`, which `Machine`'s barrier-time paths run
//! through as well) keeps only tallies, trace events and the ready-queue
//! push; every protocol step — match an arrival, complete a request,
//! take a satisfied wait — is a method here.

use crate::command::MatchSpec;
use crate::message::RtsMessage;
use crate::RankId;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher for the small integer keys of this module
/// (request ids, `(from, tag)`, spec keys). Fixed, so runs repeat; the
/// keys come from the program's own ranks, not from outside it.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FixedHasher(u64);

impl Hasher for FixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        // A product's high bits depend on every key bit, its low bits
        // only on the key's low bits, and the table indexes by the low
        // bits: tags that differ in the envelope's high bits alone must
        // not share a bucket.
        self.0.rotate_left(26)
    }
}

/// Hash map under [`FixedHasher`].
pub(crate) type FixedMap<K, V> = HashMap<K, V, BuildHasherDefault<FixedHasher>>;

/// Completed requests handed back by a wait or test: `(id, message)`;
/// sends carry `None`. A wait for all of its requests answers in the
/// order it named them, a wait for any and a test in completion order.
pub type Outcomes = Vec<(u64, Option<RtsMessage>)>;

/// End of a request chain.
const NO_REQ: u64 = u64::MAX;
/// End of a slot chain.
const NIL: u32 = u32::MAX;
/// Wildcard source in a spec key (no rank has this id).
const ANY_SRC: RankId = usize::MAX;

/// One open request.
#[derive(Debug, Clone)]
enum Req {
    Pending {
        /// A receive's predicate; `None` for a send.
        spec: Option<MatchSpec>,
        /// Named by the suspended wait set.
        waited: bool,
        /// Next-younger pending receive of the same spec.
        next: u64,
    },
    /// Complete and not yet reaped; a receive carries its message.
    Done {
        /// Completion-order stamp.
        stamp: u64,
        msg: Option<RtsMessage>,
    },
}

impl Req {
    /// `waited` of a pending request.
    fn waited_mut(&mut self) -> Option<&mut bool> {
        match self {
            Req::Pending { waited, .. } => Some(waited),
            Req::Done { .. } => None,
        }
    }
}

/// Why a rank is suspended on communication.
#[derive(Debug, Clone)]
enum Parked {
    /// In a blocking matched receive.
    Recv(MatchSpec),
    /// In a wait-family call.
    Wait {
        /// Request ids the call named.
        ids: Vec<u64>,
        /// `true`: wake when any one completes (Waitany/Waitsome);
        /// `false`: wake only when all complete (Wait/Waitall).
        any: bool,
        /// Completions delivered to this wait count as continuations.
        cont: bool,
        /// Named requests still pending (each has `waited` set).
        remaining: usize,
    },
}

/// What became of an arriving message.
#[derive(Debug)]
pub(crate) enum Arrival {
    /// It satisfies posted receive `.0`, which the caller completes.
    Posted(u64, RtsMessage),
    /// It satisfies the blocking receive the rank was parked in, which
    /// the caller answers.
    Parked(RtsMessage),
    /// Nobody was waiting for it: buffered in the unexpected queue.
    Queued,
}

/// `(source or ANY_SRC, tag mask, masked tag)`.
type SpecKey = (RankId, u64, u64);

/// Pending receives by spec, FIFO per spec, chained through
/// `Req::Pending::next`.
#[derive(Debug, Default)]
struct Posted {
    /// Spec → `(oldest, youngest)` pending receive.
    buckets: FixedMap<SpecKey, (u64, u64)>,
    /// `(source given, tag mask, pending receives)` per class in use.
    classes: Vec<(bool, u64, usize)>,
}

impl Posted {
    fn push(&mut self, reqs: &mut FixedMap<u64, Req>, id: u64, spec: &MatchSpec) {
        let key = (spec.src.unwrap_or(ANY_SRC), spec.tag_mask, spec.tag_value);
        match self.buckets.entry(key) {
            Entry::Occupied(mut e) => {
                let (_, tail) = e.get_mut();
                let Some(Req::Pending { next, .. }) = reqs.get_mut(tail) else {
                    unreachable!("bucket tail {tail} is a pending request")
                };
                *next = id;
                *tail = id;
            }
            Entry::Vacant(e) => {
                e.insert((id, id));
            }
        }
        let class = (spec.src.is_some(), spec.tag_mask);
        match self.classes.iter_mut().find(|c| (c.0, c.1) == class) {
            Some(c) => c.2 += 1,
            None => self.classes.push((class.0, class.1, 1)),
        }
    }

    /// Unlink and return the oldest pending receive `msg` satisfies.
    fn take_match(&mut self, reqs: &FixedMap<u64, Req>, msg: &RtsMessage) -> Option<u64> {
        let mut best: Option<(u64, usize, SpecKey)> = None;
        for (ci, &(has_src, mask, _)) in self.classes.iter().enumerate() {
            let key = (
                if has_src { msg.from } else { ANY_SRC },
                mask,
                msg.tag & mask,
            );
            if let Some(&(head, _)) = self.buckets.get(&key) {
                if best.is_none_or(|(b, _, _)| head < b) {
                    best = Some((head, ci, key));
                }
            }
        }
        let (id, ci, key) = best?;
        let Some(&Req::Pending { next, .. }) = reqs.get(&id) else {
            unreachable!("bucket head {id} is a pending request")
        };
        match next {
            NO_REQ => {
                self.buckets.remove(&key);
            }
            next => self.buckets.get_mut(&key).expect("probed above").0 = next,
        }
        self.classes[ci].2 -= 1;
        if self.classes[ci].2 == 0 {
            self.classes.swap_remove(ci);
        }
        Some(id)
    }
}

/// One buffered message and its links.
#[derive(Debug)]
struct Slot {
    msg: Option<RtsMessage>,
    /// Arrival-order neighbours (slot 0 closes the ring).
    prev: u32,
    next: u32,
    /// Next arrival with the same `(from, tag)`.
    next_same: u32,
}

/// The unexpected queue: arrival order as a ring of slab slots through
/// the message-less slot 0 (oldest = its `next`), so a message leaves
/// from anywhere in O(1), plus a `(from, tag)` index.
#[derive(Debug)]
struct Unexpected {
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// `(from, tag)` → `(oldest, youngest)` buffered message.
    by_key: FixedMap<(RankId, u64), (u32, u32)>,
}

impl Default for Unexpected {
    fn default() -> Self {
        let ring = Slot {
            msg: None,
            prev: 0,
            next: 0,
            next_same: NIL,
        };
        Unexpected {
            slots: vec![ring],
            free: Vec::new(),
            by_key: FixedMap::default(),
        }
    }
}

impl Unexpected {
    fn push(&mut self, msg: RtsMessage) {
        let key = (msg.from, msg.tag);
        let youngest = self.slots[0].prev;
        let slot = Slot {
            msg: Some(msg),
            prev: youngest,
            next: 0,
            next_same: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                u32::try_from(self.slots.len() - 1).expect("unexpected queue under 2^32 deep")
            }
        };
        self.slots[youngest as usize].next = i;
        self.slots[0].prev = i;
        match self.by_key.entry(key) {
            Entry::Occupied(mut e) => {
                let (_, youngest) = e.get_mut();
                self.slots[*youngest as usize].next_same = i;
                *youngest = i;
            }
            Entry::Vacant(e) => {
                e.insert((i, i));
            }
        }
    }

    /// Remove and return the oldest message `spec` accepts: through the
    /// index when the spec pins the source and every tag bit, by an
    /// in-order scan otherwise.
    fn claim(&mut self, spec: &MatchSpec) -> Option<RtsMessage> {
        let mut i = match (spec.src, spec.tag_mask) {
            (Some(src), u64::MAX) => self.by_key.get(&(src, spec.tag_value))?.0,
            _ => self.slots[0].next,
        };
        // slot 0 holds no message: the scan ends there
        while !spec.matches(self.slots[i as usize].msg.as_ref()?) {
            i = self.slots[i as usize].next;
        }
        let slot = &mut self.slots[i as usize];
        let msg = slot.msg.take()?;
        let (prev, next, next_same) = (slot.prev, slot.next, slot.next_same);
        self.slots[prev as usize].next = next;
        self.slots[next as usize].prev = prev;
        // `i` is the oldest of its (from, tag): a claim takes the oldest
        // message its spec accepts, and no spec tells two messages of
        // one (from, tag) apart.
        let key = (msg.from, msg.tag);
        match next_same {
            NIL => {
                self.by_key.remove(&key);
            }
            n => self.by_key.get_mut(&key).expect("indexed on push").0 = n,
        }
        self.free.push(i);
        Some(msg)
    }
}

/// A rank's request-engine state proper — what a checkpoint carries, so
/// that coordinated rollback restores it as it stood at the barrier.
/// Not the posted index (derived: rebuilt on restore) and not the
/// unexpected queue (messages are not rolled back).
#[derive(Debug, Clone, Default)]
pub(crate) struct ReqState {
    /// Next request id: a per-rank post-order stamp.
    seq: u64,
    /// Next completion stamp.
    done_seq: u64,
    /// The request table: every open request, pending or unreaped.
    reqs: FixedMap<u64, Req>,
    parked: Option<Parked>,
    /// Sends under reliable delivery: `(destination, sequence number)`
    /// → the request the matching ack completes.
    unacked: FixedMap<(RankId, u64), u64>,
}

/// One rank's matching engine (see the module doc).
#[derive(Debug, Default)]
pub struct Matcher {
    st: ReqState,
    posted: Posted,
    unexpected: Unexpected,
}

impl Matcher {
    /// Open requests (pending, or complete and not yet reaped).
    pub fn open_reqs(&self) -> usize {
        self.st.reqs.len()
    }

    /// Messages buffered in the unexpected queue.
    pub fn buffered(&self) -> usize {
        self.unexpected.slots.len() - 1 - self.unexpected.free.len()
    }

    fn open(&mut self, spec: Option<MatchSpec>) -> u64 {
        let id = self.st.seq;
        self.st.seq += 1;
        let req = Req::Pending {
            spec,
            waited: false,
            next: NO_REQ,
        };
        self.st.reqs.insert(id, req);
        id
    }

    /// Open a send request.
    pub(crate) fn post_send(&mut self) -> u64 {
        self.open(None)
    }

    /// Send request `id` completes when `to` acks sequence number `seq`.
    pub(crate) fn await_ack(&mut self, to: RankId, seq: u64, id: u64) {
        self.st.unacked.insert((to, seq), id);
    }

    /// The send request `to`'s ack of `seq` completes, if any.
    pub(crate) fn acked(&mut self, to: RankId, seq: u64) -> Option<u64> {
        self.st.unacked.remove(&(to, seq))
    }

    /// Open a receive request. An unexpected message that satisfies it
    /// is claimed and returned for the caller to complete the request
    /// with; otherwise the receive joins the posted queue.
    pub(crate) fn post_recv(&mut self, spec: MatchSpec) -> (u64, Option<RtsMessage>) {
        let id = self.open(Some(spec));
        let claimed = self.unexpected.claim(&spec);
        if claimed.is_none() {
            self.posted.push(&mut self.st.reqs, id, &spec);
        }
        (id, claimed)
    }

    /// A blocking (`park`) or polling matched receive: the oldest
    /// unexpected message `spec` accepts, else `None` — and, when
    /// `park`, the rank is recorded as suspended in that receive.
    pub(crate) fn recv(&mut self, spec: MatchSpec, park: bool) -> Option<RtsMessage> {
        let msg = self.unexpected.claim(&spec);
        if msg.is_none() && park {
            self.st.parked = Some(Parked::Recv(spec));
        }
        msg
    }

    /// Pair an arriving message with its receiver: the oldest posted
    /// receive it satisfies, else the blocking receive the rank is
    /// parked in, else the unexpected queue.
    pub(crate) fn arrive(&mut self, msg: RtsMessage) -> Arrival {
        if let Some(id) = self.posted.take_match(&self.st.reqs, &msg) {
            return Arrival::Posted(id, msg);
        }
        if matches!(&self.st.parked, Some(Parked::Recv(spec)) if spec.matches(&msg)) {
            self.st.parked = None;
            return Arrival::Parked(msg);
        }
        self.unexpected.push(msg);
        Arrival::Queued
    }

    /// Mark request `id` complete. Returns `(is a send, the suspended
    /// wait is now satisfied)`; on the latter the caller takes the wait
    /// with [`Matcher::take_wait`] and resumes the rank.
    pub(crate) fn complete(&mut self, id: u64, msg: Option<RtsMessage>) -> (bool, bool) {
        let req = self
            .st
            .reqs
            .get_mut(&id)
            .expect("completing unknown request");
        let stamp = self.st.done_seq;
        self.st.done_seq += 1;
        let Req::Pending { spec, waited, .. } = std::mem::replace(req, Req::Done { stamp, msg })
        else {
            unreachable!("request {id} completed twice")
        };
        let send = spec.is_none();
        if !waited {
            return (send, false);
        }
        let Some(Parked::Wait { any, remaining, .. }) = &mut self.st.parked else {
            unreachable!("a waited request implies a suspended wait")
        };
        *remaining -= 1;
        (send, *any || *remaining == 0)
    }

    /// A wait-family call: `Ok` with the reaped outcomes when the wait
    /// is already satisfied (all of `ids` complete, or any one if `any`;
    /// ids no longer in the table count as complete), else the rank is
    /// recorded as suspended and `Err` carries how many are pending.
    pub(crate) fn wait(&mut self, ids: Vec<u64>, any: bool, cont: bool) -> Result<Outcomes, usize> {
        let mut remaining = 0;
        let mut some_done = false;
        for id in &ids {
            match self.st.reqs.get_mut(id).and_then(Req::waited_mut) {
                Some(waited) => remaining += usize::from(!std::mem::replace(waited, true)),
                None => some_done = true,
            }
        }
        if remaining == 0 || (any && some_done) {
            self.unmark(&ids, remaining);
            return Ok(self.reap(&ids, any));
        }
        let wait = Parked::Wait {
            ids,
            any,
            cont,
            remaining,
        };
        self.st.parked = Some(wait);
        Err(remaining)
    }

    /// Take the satisfied wait of a suspended rank: `(continuation-style,
    /// reaped outcomes)`.
    pub(crate) fn take_wait(&mut self) -> (bool, Outcomes) {
        let Some(Parked::Wait {
            ids,
            any,
            cont,
            remaining,
        }) = self.st.parked.take()
        else {
            unreachable!("take_wait without a suspended wait")
        };
        self.unmark(&ids, remaining);
        (cont, self.reap(&ids, any))
    }

    /// Clear the `waited` marks a wait over `ids` left on its `pending`
    /// still-pending requests.
    fn unmark(&mut self, ids: &[u64], pending: usize) {
        if pending > 0 {
            for id in ids {
                if let Some(waited) = self.st.reqs.get_mut(id).and_then(Req::waited_mut) {
                    *waited = false;
                }
            }
        }
    }

    /// Remove the completed requests among `ids` from the table and
    /// return them: in the order `ids` names them when the caller waited
    /// for all of them (it will pair them up with its requests), in
    /// completion order otherwise (wait-any, test).
    pub(crate) fn reap(&mut self, ids: &[u64], by_completion: bool) -> Outcomes {
        let stamp = |id: &u64| match self.st.reqs.get(id)? {
            Req::Done { stamp, .. } => Some((*stamp, *id)),
            Req::Pending { .. } => None,
        };
        let sorted: Vec<u64>;
        let ids = if by_completion {
            let mut done: Vec<(u64, u64)> = ids.iter().filter_map(stamp).collect();
            done.sort_unstable();
            sorted = done.into_iter().map(|d| d.1).collect();
            &sorted
        } else {
            ids
        };
        let mut out = Vec::with_capacity(ids.len());
        for &id in ids {
            if let Entry::Occupied(e) = self.st.reqs.entry(id) {
                if matches!(e.get(), Req::Done { .. }) {
                    let Req::Done { msg, .. } = e.remove() else {
                        unreachable!("matched above")
                    };
                    out.push((id, msg));
                }
            }
        }
        out
    }

    /// Drop every open request of a finished rank (leak cleanup);
    /// returns how many there were.
    pub(crate) fn clear_reqs(&mut self) -> usize {
        let open = self.st.reqs.len();
        self.st.reqs.clear();
        self.posted = Posted::default();
        self.st.unacked.clear();
        open
    }

    pub(crate) fn snapshot(&self) -> ReqState {
        self.st.clone()
    }

    /// Roll the request state back to `snap`, rebuilding the posted
    /// index from the table in post order.
    pub(crate) fn restore(&mut self, snap: &ReqState) {
        self.st = snap.clone();
        self.posted = Posted::default();
        let mut pending: Vec<(u64, MatchSpec)> = Vec::new();
        for (&id, req) in &mut self.st.reqs {
            if let Req::Pending { spec, next, .. } = req {
                *next = NO_REQ;
                pending.extend(spec.map(|spec| (id, spec)));
            }
        }
        pending.sort_unstable_by_key(|p| p.0);
        for (id, spec) in pending {
            self.posted.push(&mut self.st.reqs, id, &spec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, VecDeque};

    /// The matcher this module replaced, kept as the oracle: an ordered
    /// request table scanned front to back on every arrival, a
    /// completion queue, a wait set re-probed on every completion, and a
    /// mailbox scanned on every receive. It has no derived state, so
    /// after a restore it is also what a run that never diverged from
    /// that table and mailbox does.
    #[derive(Clone, Default)]
    struct Linear {
        seq: u64,
        /// `(spec, Some(outcome) once complete)` in post order.
        reqs: BTreeMap<u64, (Option<MatchSpec>, Option<Option<RtsMessage>>)>,
        completions: VecDeque<u64>,
        mailbox: VecDeque<RtsMessage>,
        parked_recv: Option<MatchSpec>,
        wait: Option<(Vec<u64>, bool)>,
    }

    impl Linear {
        fn open(&mut self, spec: Option<MatchSpec>) -> u64 {
            self.seq += 1;
            self.reqs.insert(self.seq - 1, (spec, None));
            self.seq - 1
        }

        fn claim(&mut self, spec: &MatchSpec) -> Option<RtsMessage> {
            let i = self.mailbox.iter().position(|m| spec.matches(m))?;
            self.mailbox.remove(i)
        }

        fn post_recv(&mut self, spec: MatchSpec) -> (u64, Option<RtsMessage>) {
            (self.open(Some(spec)), self.claim(&spec))
        }

        fn recv(&mut self, spec: MatchSpec, park: bool) -> Option<RtsMessage> {
            let msg = self.claim(&spec);
            if msg.is_none() && park {
                self.parked_recv = Some(spec);
            }
            msg
        }

        fn arrive(&mut self, msg: RtsMessage) -> Arrival {
            let posted = self
                .reqs
                .iter()
                .find(|(_, (spec, done))| done.is_none() && spec.is_some_and(|s| s.matches(&msg)));
            if let Some((&id, _)) = posted {
                return Arrival::Posted(id, msg);
            }
            if self.parked_recv.is_some_and(|s| s.matches(&msg)) {
                self.parked_recv = None;
                return Arrival::Parked(msg);
            }
            self.mailbox.push_back(msg);
            Arrival::Queued
        }

        fn done(&self, id: &u64) -> bool {
            self.reqs.get(id).is_none_or(|e| e.1.is_some())
        }

        fn satisfied(&self, ids: &[u64], any: bool) -> bool {
            if any {
                ids.iter().any(|id| self.done(id))
            } else {
                ids.iter().all(|id| self.done(id))
            }
        }

        fn complete(&mut self, id: u64, msg: Option<RtsMessage>) -> (bool, bool) {
            let e = self.reqs.get_mut(&id).expect("completing unknown request");
            e.1 = Some(msg);
            let send = e.0.is_none();
            self.completions.push_back(id);
            let wake = self
                .wait
                .as_ref()
                .is_some_and(|(ids, any)| self.satisfied(ids, *any));
            (send, wake)
        }

        fn wait(&mut self, ids: Vec<u64>, any: bool) -> Result<Outcomes, usize> {
            if ids.is_empty() || self.satisfied(&ids, any) {
                return Ok(self.reap(&ids));
            }
            let pending = ids.iter().filter(|id| !self.done(id)).count();
            self.wait = Some((ids, any));
            Err(pending)
        }

        fn take_wait(&mut self) -> Outcomes {
            let (ids, _) = self.wait.take().expect("a suspended wait");
            self.reap(&ids)
        }

        fn reap(&mut self, ids: &[u64]) -> Outcomes {
            let mut out = Vec::new();
            let mut i = 0;
            while i < self.completions.len() {
                let id = self.completions[i];
                if ids.contains(&id) {
                    self.completions.remove(i);
                    let e = self.reqs.remove(&id).expect("completed request in table");
                    out.push((id, e.1.expect("queued completion is done")));
                } else {
                    i += 1;
                }
            }
            out
        }

        /// Roll everything but the mailbox back to `snap`.
        fn restore(&mut self, snap: &Linear) {
            let mailbox = std::mem::take(&mut self.mailbox);
            *self = Linear {
                mailbox,
                ..snap.clone()
            };
        }
    }

    const HEADER: u64 = 0xFFFF_FF00_0000_0000;

    #[derive(Debug, Clone)]
    enum Op {
        Post(MatchSpec),
        Isend,
        /// Ack the `.0`-th pending send (modulo how many there are).
        Ack(usize),
        Arrive {
            from: RankId,
            tag: u64,
        },
        Recv(MatchSpec),
        TryRecv(MatchSpec),
        /// Wait on the open requests `pick` selects (bit `i % 64` for the
        /// `i`-th open request in post order).
        Wait {
            pick: u64,
            any: bool,
        },
        Test {
            pick: u64,
        },
        Snapshot,
        Restore,
    }

    /// Sources 1–3 or any; two envelope kinds; tags 0–3 exact, any, or
    /// by parity (a second mask class).
    fn spec() -> impl Strategy<Value = MatchSpec> {
        (0usize..4, 0u64..3, 0u64..2, 0u64..4).prop_map(|(src, class, kind, tag)| {
            let (tag_mask, low) = match class {
                0 => (u64::MAX, tag),
                1 => (HEADER, 0),
                _ => (HEADER | 1, tag & 1),
            };
            MatchSpec {
                src: (src > 0).then_some(src),
                tag_mask,
                tag_value: kind << 40 | low,
            }
        })
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            6 => spec().prop_map(Op::Post),
            1 => Just(Op::Isend),
            1 => (0usize..8).prop_map(Op::Ack),
            8 => (1usize..4, 0u64..2, 0u64..4)
                .prop_map(|(from, kind, tag)| Op::Arrive { from, tag: kind << 40 | tag }),
            2 => spec().prop_map(Op::Recv),
            1 => spec().prop_map(Op::TryRecv),
            2 => (any::<u64>(), any::<bool>()).prop_map(|(pick, any)| Op::Wait { pick, any }),
            1 => any::<u64>().prop_map(|pick| Op::Test { pick }),
            1 => Just(Op::Snapshot),
            1 => Just(Op::Restore),
        ]
    }

    /// What the rank-side driver knows: open request ids in post order,
    /// which of them are unacked sends, and whether the rank is
    /// suspended (then only arrivals and acks happen).
    #[derive(Clone, Default)]
    struct Driver {
        open: Vec<u64>,
        unacked: Vec<u64>,
        parked: bool,
    }

    /// Both matchers side by side; every step asserts they agree.
    #[derive(Default)]
    struct Pair {
        new: Matcher,
        old: Linear,
        driver: Driver,
        serial: u64,
        /// Last serial handed to a receiver per `(from, tag)`.
        last: BTreeMap<(RankId, u64), u64>,
        /// A restore happened. It rolls the table back and not the
        /// unexpected queue (in a run, the rolled-back senders send
        /// again), so a restored receive can sit pending beside a
        /// buffered message it accepts: from then on the matchers are
        /// held to each other, not to arrival order.
        restored: bool,
        snap: Option<(ReqState, Linear, Driver)>,
    }

    fn serials(out: &Outcomes) -> Vec<(u64, Option<u64>)> {
        out.iter()
            .map(|(id, m)| (*id, m.as_ref().map(|m| m.seq)))
            .collect()
    }

    impl Pair {
        /// A receiver got `msg`: both matchers chose it, and no later
        /// message of its `(from, tag)` was handed out before it.
        fn handed(&mut self, msg: &RtsMessage, old: &RtsMessage) {
            assert_eq!(msg.seq, old.seq, "receiver got a different message");
            let last = self.last.insert((msg.from, msg.tag), msg.seq);
            let in_order = last.is_none_or(|l| l < msg.seq);
            assert!(in_order || self.restored, "message {} overtaken", msg.seq);
        }

        fn claimed(
            &mut self,
            new: Option<RtsMessage>,
            old: Option<RtsMessage>,
        ) -> Option<RtsMessage> {
            assert_eq!(
                new.is_some(),
                old.is_some(),
                "one matcher claimed, one did not"
            );
            if let (Some(n), Some(o)) = (&new, &old) {
                self.handed(n, o);
            }
            new
        }

        /// `new` against the oracle's completion-order `old`; a wait for
        /// all (`!by_completion`) answers in the order `ids` names them.
        fn reaped(&mut self, new: Outcomes, mut old: Outcomes, ids: &[u64], by_completion: bool) {
            if !by_completion {
                old.sort_by_key(|(id, _)| ids.iter().position(|i| i == id));
            }
            assert_eq!(serials(&new), serials(&old), "reaped outcomes differ");
            self.driver
                .open
                .retain(|id| !new.iter().any(|(r, _)| r == id));
        }

        fn complete(&mut self, id: u64, msg: Option<RtsMessage>) {
            let new = self.new.complete(id, msg.clone());
            assert_eq!(new, self.old.complete(id, msg), "completion of {id}");
            if new.1 {
                let (ids, any) = self.old.wait.clone().expect("a suspended wait");
                let (_, outcomes) = self.new.take_wait();
                let old = self.old.take_wait();
                self.reaped(outcomes, old, &ids, any);
                self.driver.parked = false;
            }
        }

        fn picked(&self, pick: u64) -> Vec<u64> {
            let open = self.driver.open.iter().enumerate();
            open.filter(|(i, _)| pick >> (i % 64) & 1 == 1)
                .map(|(_, &id)| id)
                .collect()
        }

        fn step(&mut self, op: Op) {
            let rank_side = !matches!(
                op,
                Op::Arrive { .. } | Op::Ack(_) | Op::Snapshot | Op::Restore
            );
            if rank_side && self.driver.parked {
                return;
            }
            match op {
                Op::Post(spec) => {
                    let (id, new) = self.new.post_recv(spec);
                    let (old_id, old) = self.old.post_recv(spec);
                    assert_eq!(id, old_id);
                    self.driver.open.push(id);
                    if let Some(m) = self.claimed(new, old) {
                        self.complete(id, Some(m));
                    }
                }
                Op::Isend => {
                    let id = self.new.post_send();
                    assert_eq!(id, self.old.open(None));
                    self.driver.open.push(id);
                    self.driver.unacked.push(id);
                }
                Op::Ack(k) if !self.driver.unacked.is_empty() => {
                    let id = self.driver.unacked.remove(k % self.driver.unacked.len());
                    self.complete(id, None);
                }
                Op::Ack(_) => {}
                Op::Arrive { from, tag } => {
                    let mut msg = RtsMessage::new(from, 0, tag, Bytes::new());
                    msg.seq = self.serial;
                    self.serial += 1;
                    match (self.new.arrive(msg.clone()), self.old.arrive(msg)) {
                        (Arrival::Posted(id, m), Arrival::Posted(old_id, old)) => {
                            assert_eq!(id, old_id, "arrival completed a different receive");
                            self.handed(&m, &old);
                            self.complete(id, Some(m));
                        }
                        (Arrival::Parked(m), Arrival::Parked(old)) => {
                            self.handed(&m, &old);
                            self.driver.parked = false;
                        }
                        (Arrival::Queued, Arrival::Queued) => {}
                        (new, old) => panic!("arrival went {new:?} vs {old:?}"),
                    }
                }
                Op::Recv(spec) => {
                    let (new, old) = (self.new.recv(spec, true), self.old.recv(spec, true));
                    self.driver.parked = self.claimed(new, old).is_none();
                }
                Op::TryRecv(spec) => {
                    let (new, old) = (self.new.recv(spec, false), self.old.recv(spec, false));
                    self.claimed(new, old);
                }
                Op::Wait { pick, any } => {
                    let ids = self.picked(pick);
                    match (
                        self.new.wait(ids.clone(), any, false),
                        self.old.wait(ids.clone(), any),
                    ) {
                        (Ok(new), Ok(old)) => self.reaped(new, old, &ids, any),
                        (Err(new), Err(old)) => {
                            assert_eq!(new, old, "pending counts differ");
                            self.driver.parked = true;
                        }
                        (new, old) => panic!("wait went {new:?} vs {:?}", old.map(|o| serials(&o))),
                    }
                }
                Op::Test { pick } => {
                    let ids = self.picked(pick);
                    let (new, old) = (self.new.reap(&ids, true), self.old.reap(&ids));
                    self.reaped(new, old, &ids, true);
                }
                Op::Snapshot => {
                    self.snap = Some((self.new.snapshot(), self.old.clone(), self.driver.clone()));
                }
                Op::Restore => {
                    if let Some((new, old, driver)) = &self.snap {
                        self.new.restore(new);
                        self.old.restore(old);
                        self.driver = driver.clone();
                        self.restored = true;
                    }
                }
            }
            assert_eq!(self.new.open_reqs(), self.old.reqs.len());
            assert_eq!(self.new.buffered(), self.old.mailbox.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of posts, arrivals, blocking and polling
        /// receives, wait-all, wait-any, test, acks, snapshot and
        /// restore: at every step the hashed matcher and the linear scan
        /// hand the same message to the same request or blocked receive,
        /// reap the same outcomes in the same order — also after the
        /// posted index was rebuilt from a restored table — and, up to
        /// the first restore, never let a message overtake an earlier
        /// one of its `(from, tag)`.
        #[test]
        fn agrees_with_the_linear_scan(ops in proptest::collection::vec(op(), 1..400)) {
            let mut pair = Pair::default();
            for op in ops {
                pair.step(op);
            }
        }
    }

    #[test]
    fn exact_receive_claims_through_the_index_in_arrival_order() {
        let mut m = Matcher::default();
        for (serial, (from, tag)) in [(1, 5), (2, 5), (1, 6), (1, 5)].into_iter().enumerate() {
            let mut msg = RtsMessage::new(from, 0, tag, Bytes::new());
            msg.seq = serial as u64;
            assert!(matches!(m.arrive(msg), Arrival::Queued));
        }
        let exact = |src, tag| MatchSpec {
            src: Some(src),
            tag_mask: u64::MAX,
            tag_value: tag,
        };
        assert_eq!(m.recv(exact(1, 6), false).map(|m| m.seq), Some(2));
        assert_eq!(m.recv(exact(1, 5), false).map(|m| m.seq), Some(0));
        assert_eq!(m.recv(MatchSpec::ANY, false).map(|m| m.seq), Some(1));
        assert_eq!(m.recv(exact(1, 5), false).map(|m| m.seq), Some(3));
        assert!(m.recv(MatchSpec::ANY, false).is_none());
        assert_eq!(m.buffered(), 0);
    }
}
