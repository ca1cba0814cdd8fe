//! Point-to-point communication: blocking and non-blocking sends and
//! receives with MPI tag/source matching, including wildcards.
//!
//! Every receive is a [`MatchSpec`] over the encoded envelope, matched
//! by the runtime's per-rank matching engine: a blocking receive takes
//! the oldest buffered message its spec accepts or suspends until one
//! arrives; a nonblocking one ([`Ampi::irecv`]) is a real request in the
//! runtime's request table, completed the moment a matching message is
//! deposited — not when the rank later waits. Both draw on the one
//! unexpected queue, in arrival order, and posted receives are served in
//! post order, which gives MPI's non-overtaking guarantee for any fixed
//! `(source, tag, comm)` triple across the two. [`Ampi::isend_bytes`]
//! completes when the reliable-delivery layer acks (or at post under
//! unconditional delivery). The wait family ([`Ampi::wait`],
//! [`Ampi::waitall`], [`Ampi::waitany`], [`Ampi::waitsome`],
//! [`Ampi::test`]) reaps completions in completion order.
//!
//! [`Ampi::recv_then`] registers a completion *continuation*: a closure
//! the library runs from [`Ampi::progress`] / [`Ampi::progress_wait`]
//! when the matching message arrives, without suspending the rank.
//!
//! [`MatchSpec`]: pvr_rts::MatchSpec

use crate::comm::CommId;
use crate::envelope::{Envelope, Kind};
use crate::{Ampi, ContEntry};
use bytes::Bytes;
use pvr_rts::matching::Outcomes;
use pvr_rts::RtsMessage;

/// `MPI_ANY_SOURCE`.
pub const ANY_SOURCE: Option<usize> = None;
/// `MPI_ANY_TAG`.
pub const ANY_TAG: Option<u32> = None;

/// How deep `recv_then` closures may nest by driving progress from
/// inside one another (see `Ampi::run_continuations`).
const CONTINUATION_DEPTH: u32 = 8;

/// Completed-receive metadata (`MPI_Status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Source rank, local to the receive's communicator.
    pub source: usize,
    pub tag: u32,
    pub bytes: usize,
}

/// Opaque id of a request in the runtime's per-rank request table.
///
/// Obtained from [`SendReq::id`]/[`RecvReq::id`] or returned by
/// [`Ampi::recv_then`]; useful for logging and for correlating with
/// `ReqPost`/`ReqComplete` trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReqId(pub(crate) u64);

/// Handle for a nonblocking send (`MPI_Isend`). Completed — and
/// consumed — by [`Ampi::wait_send`]/[`Ampi::waitall_sends`]; dropping
/// it without waiting leaks the request (tallied at finalize, cleaned
/// up by the runtime).
#[derive(Debug)]
#[must_use = "nonblocking sends must be completed with wait_send/waitall_sends"]
pub struct SendReq {
    pub(crate) id: u64,
}

impl SendReq {
    pub fn id(&self) -> ReqId {
        ReqId(self.id)
    }
}

/// Handle for a nonblocking receive (`MPI_Irecv`). Completed — and
/// consumed — by the wait family; dropping it without waiting leaks the
/// request (tallied at finalize, cleaned up by the runtime).
#[derive(Debug)]
#[must_use = "nonblocking receives must be completed with wait/waitall/waitany/waitsome"]
pub struct RecvReq {
    pub(crate) id: u64,
    pub(crate) comm: CommId,
}

impl RecvReq {
    pub fn id(&self) -> ReqId {
        ReqId(self.id)
    }
}

impl Ampi {
    /// Payload and status of a received message.
    fn decode(&self, comm: CommId, m: RtsMessage) -> (Bytes, Status) {
        let status = Status {
            source: self
                .to_local(comm, m.from)
                .expect("sender must be a communicator member"),
            tag: Envelope::decode(m.tag).tag,
            bytes: m.payload.len(),
        };
        (m.payload, status)
    }

    /// Payload and status of a completed receive request's outcome.
    fn decode_outcome(&self, comm: CommId, m: Option<RtsMessage>) -> (Bytes, Status) {
        self.decode(comm, m.expect("a receive's outcome carries its message"))
    }

    /// Decode the stashed outcome of receive `id`.
    fn take_reaped(&self, comm: CommId, id: u64) -> Option<(Bytes, Status)> {
        let m = self.state.borrow_mut().reaped.remove(&id)?;
        Some(self.decode_outcome(comm, m))
    }

    /// Post a nonblocking receive without emitting a trace call (shared
    /// by `irecv` and `recv_then`).
    fn post_recv(&self, comm: CommId, src: Option<usize>, tag: Option<u32>) -> RecvReq {
        let spec = self.match_spec(comm, Kind::PointToPoint, src, tag);
        RecvReq {
            id: self.ctx.req_post_recv(spec),
            comm,
        }
    }

    /// `MPI_Send` (buffered): never blocks in this model, like AMPI's
    /// eager path for reasonable message sizes.
    pub fn send_bytes(&self, comm: CommId, dest: usize, tag: u32, payload: Bytes) {
        pvr_trace::emit(pvr_trace::EventKind::MpiCall { name: "MPI_Send" });
        let to_global = self.to_global(comm, dest);
        self.raw_send(to_global, Envelope::p2p(comm.0, tag), payload);
    }

    /// `MPI_Recv` with optional wildcards.
    pub fn recv_bytes(
        &self,
        comm: CommId,
        src: Option<usize>,
        tag: Option<u32>,
    ) -> (Bytes, Status) {
        pvr_trace::emit(pvr_trace::EventKind::MpiCall { name: "MPI_Recv" });
        let spec = self.match_spec(comm, Kind::PointToPoint, src, tag);
        self.decode(comm, self.ctx.recv_match(spec))
    }

    /// `MPI_Iprobe`-then-receive: non-blocking. Kept for tests: MPI surface.
    pub fn try_recv_bytes(
        &self,
        comm: CommId,
        src: Option<usize>,
        tag: Option<u32>,
    ) -> Option<(Bytes, Status)> {
        pvr_trace::emit(pvr_trace::EventKind::MpiCall { name: "MPI_Iprobe" });
        let spec = self.match_spec(comm, Kind::PointToPoint, src, tag);
        Some(self.decode(comm, self.ctx.try_recv_match(spec)?))
    }

    /// `MPI_Isend`: posts into the runtime request table and returns a
    /// typed handle. The request completes when the reliable-delivery
    /// layer acks the payload (lossy virtual-time runs) or at post time
    /// (unconditional delivery) — either way, completion is observed
    /// through [`Ampi::wait_send`]/[`Ampi::waitall_sends`]/[`Ampi::test_send`].
    pub fn isend_bytes(&self, comm: CommId, dest: usize, tag: u32, payload: Bytes) -> SendReq {
        pvr_trace::emit(pvr_trace::EventKind::MpiCall { name: "MPI_Isend" });
        let to_global = self.to_global(comm, dest);
        SendReq {
            id: self
                .ctx
                .req_post_send(to_global, Envelope::p2p(comm.0, tag).encode(), payload),
        }
    }

    /// `MPI_Irecv`: posts a delivery-time matching predicate into the
    /// runtime request table. An arriving message completes the request
    /// when it is deposited, so communication overlaps whatever the rank
    /// does between post and wait.
    pub fn irecv(&self, comm: CommId, src: Option<usize>, tag: Option<u32>) -> RecvReq {
        pvr_trace::emit(pvr_trace::EventKind::MpiCall { name: "MPI_Irecv" });
        self.post_recv(comm, src, tag)
    }

    /// `MPI_Test` on a receive: true once the matching message has been
    /// delivered. Reaped outcomes are stashed, so a `test`-then-`wait`
    /// sequence observes the completion exactly once.
    pub fn test(&self, req: &RecvReq) -> bool {
        self.test_id(req.id)
    }

    /// `MPI_Test` on a send. Kept for tests: MPI surface.
    pub fn test_send(&self, req: &SendReq) -> bool {
        self.test_id(req.id)
    }

    fn test_id(&self, id: u64) -> bool {
        pvr_trace::emit(pvr_trace::EventKind::MpiCall { name: "MPI_Test" });
        if !self.state.borrow().reaped.contains_key(&id) {
            self.stash(self.ctx.req_test(vec![id], false));
        }
        self.state.borrow().reaped.contains_key(&id)
    }

    /// `MPI_Wait` on a receive: suspends until the matching message has
    /// been delivered, then returns it.
    pub fn wait(&self, req: RecvReq) -> (Bytes, Status) {
        pvr_trace::emit(pvr_trace::EventKind::MpiCall { name: "MPI_Wait" });
        if let Some(done) = self.take_reaped(req.comm, req.id) {
            return done;
        }
        let (_, msg) = self
            .ctx
            .req_wait(vec![req.id], false, false)
            .pop()
            .expect("wait returns the named request");
        self.decode_outcome(req.comm, msg)
    }

    /// `MPI_Wait` on a send: suspends until the delivery layer acks.
    pub fn wait_send(&self, req: SendReq) {
        pvr_trace::emit(pvr_trace::EventKind::MpiCall { name: "MPI_Wait" });
        if self.state.borrow_mut().reaped.remove(&req.id).is_some() {
            return;
        }
        self.ctx.req_wait(vec![req.id], false, false);
    }

    /// `MPI_Waitall` over receives: one suspension for the whole set,
    /// results in request order.
    pub fn waitall(&self, reqs: Vec<RecvReq>) -> Vec<(Bytes, Status)> {
        pvr_trace::emit(pvr_trace::EventKind::MpiCall {
            name: "MPI_Waitall",
        });
        let todo: Vec<u64> = {
            let st = self.state.borrow();
            reqs.iter()
                .map(|r| r.id)
                .filter(|id| !st.reaped.contains_key(id))
                .collect()
        };
        // a wait for all answers in the order it was asked
        let mut waited = self.ctx.req_wait(todo, false, false).into_iter();
        reqs.into_iter()
            .map(|r| {
                self.take_reaped(r.comm, r.id).unwrap_or_else(|| {
                    let (id, msg) = waited.next().expect("waitall reaps every named request");
                    assert_eq!(id, r.id, "waitall outcomes follow request order");
                    self.decode_outcome(r.comm, msg)
                })
            })
            .collect()
    }

    /// `MPI_Waitall` over sends: one suspension for the whole set.
    pub fn waitall_sends(&self, reqs: Vec<SendReq>) {
        pvr_trace::emit(pvr_trace::EventKind::MpiCall {
            name: "MPI_Waitall",
        });
        let todo: Vec<u64> = {
            let mut st = self.state.borrow_mut();
            reqs.iter()
                .map(|r| r.id)
                .filter(|id| st.reaped.remove(id).is_none())
                .collect()
        };
        self.ctx.req_wait(todo, false, false);
    }

    /// `MPI_Waitany`: suspends until at least one of `reqs` completes,
    /// removes that request from the vector, and returns its original
    /// index with the received payload. Other completions observed along
    /// the way are stashed for later waits.
    pub fn waitany(&self, reqs: &mut Vec<RecvReq>) -> (usize, Bytes, Status) {
        pvr_trace::emit(pvr_trace::EventKind::MpiCall {
            name: "MPI_Waitany",
        });
        assert!(!reqs.is_empty(), "waitany over an empty request set");
        if let Some(idx) = self.first_reaped_index(reqs) {
            return self.take_at(reqs, idx);
        }
        let ids: Vec<u64> = reqs.iter().map(|r| r.id).collect();
        let outcomes = self.ctx.req_wait(ids, true, false);
        let first = outcomes
            .first()
            .expect("waitany must deliver at least one completion")
            .0;
        self.stash(outcomes);
        let idx = reqs
            .iter()
            .position(|r| r.id == first)
            .expect("completed id names a posted request");
        self.take_at(reqs, idx)
    }

    /// `MPI_Waitsome`: suspends until at least one of `reqs` completes,
    /// then removes and returns *every* currently-completed request as
    /// `(original_index, payload, status)` triples in index order.
    pub fn waitsome(&self, reqs: &mut Vec<RecvReq>) -> Vec<(usize, Bytes, Status)> {
        pvr_trace::emit(pvr_trace::EventKind::MpiCall {
            name: "MPI_Waitsome",
        });
        assert!(!reqs.is_empty(), "waitsome over an empty request set");
        if self.first_reaped_index(reqs).is_none() {
            let ids: Vec<u64> = reqs.iter().map(|r| r.id).collect();
            self.stash(self.ctx.req_wait(ids, true, false));
        }
        let done: Vec<usize> = {
            let st = self.state.borrow();
            (0..reqs.len())
                .filter(|&i| st.reaped.contains_key(&reqs[i].id))
                .collect()
        };
        let mut out = Vec::with_capacity(done.len());
        for (removed, idx) in done.into_iter().enumerate() {
            let (_, b, s) = self.take_at(reqs, idx - removed);
            out.push((idx, b, s));
        }
        out
    }

    /// Register a completion continuation (AMPI extension): when a
    /// message matching `(comm, src, tag)` arrives, the library runs `f`
    /// from the next [`Ampi::progress`]/[`Ampi::progress_wait`] call —
    /// the rank never suspends in a wait for it. Nesting (a continuation
    /// driving progress that runs further continuations) is capped at
    /// eight levels; one more panics the rank. Kept for tests: MPI surface.
    pub fn recv_then(
        &self,
        comm: CommId,
        src: Option<usize>,
        tag: Option<u32>,
        f: impl FnOnce(&Ampi, Bytes, Status) + 'static,
    ) -> ReqId {
        pvr_trace::emit(pvr_trace::EventKind::MpiCall {
            name: "AMPI_Recv_then",
        });
        let req = self.post_recv(comm, src, tag);
        self.state.borrow_mut().continuations.insert(
            req.id,
            ContEntry {
                comm,
                f: Box::new(f),
            },
        );
        ReqId(req.id)
    }

    /// Poll the completion queue and run every continuation whose
    /// message has arrived. Never suspends. Returns how many ran.
    pub fn progress(&self) -> usize {
        let ids: Vec<u64> = self.state.borrow().continuations.keys().copied().collect();
        if ids.is_empty() {
            return 0;
        }
        let outcomes = self.ctx.req_test(ids, true);
        self.run_continuations(outcomes)
    }

    /// Suspend until at least one registered continuation's message
    /// arrives, then run every continuation that has completed. Returns
    /// how many ran (0 if none are registered). Kept for tests: MPI surface.
    pub fn progress_wait(&self) -> usize {
        let ids: Vec<u64> = self.state.borrow().continuations.keys().copied().collect();
        if ids.is_empty() {
            return 0;
        }
        let outcomes = self.ctx.req_wait(ids, true, true);
        self.run_continuations(outcomes)
    }

    /// Outstanding `recv_then` continuations not yet delivered.
    /// Kept for tests: MPI surface (README teaches it as the progress idiom).
    pub fn pending_continuations(&self) -> usize {
        self.state.borrow().continuations.len()
    }

    /// Run delivered continuations under the nesting cap.
    fn run_continuations(&self, outcomes: Outcomes) -> usize {
        let n = outcomes.len();
        for (id, msg) in outcomes {
            let entry = self
                .state
                .borrow_mut()
                .continuations
                .remove(&id)
                .expect("completion delivered for an unknown continuation");
            let (payload, status) = self.decode_outcome(entry.comm, msg);
            {
                let mut st = self.state.borrow_mut();
                st.cont_depth += 1;
                assert!(
                    st.cont_depth <= CONTINUATION_DEPTH,
                    "continuation depth cap ({CONTINUATION_DEPTH}) exceeded: a recv_then \
                     closure is recursively driving progress"
                );
            }
            (entry.f)(self, payload, status);
            self.state.borrow_mut().cont_depth -= 1;
        }
        n
    }

    /// Keep reaped outcomes until the wait that names them collects them.
    fn stash(&self, outcomes: Outcomes) {
        self.state.borrow_mut().reaped.extend(outcomes);
    }

    /// Lowest index in `reqs` whose outcome is already stashed.
    fn first_reaped_index(&self, reqs: &[RecvReq]) -> Option<usize> {
        let st = self.state.borrow();
        (0..reqs.len()).find(|&i| st.reaped.contains_key(&reqs[i].id))
    }

    /// Remove `reqs[idx]` and return its stashed outcome.
    fn take_at(&self, reqs: &mut Vec<RecvReq>, idx: usize) -> (usize, Bytes, Status) {
        let req = reqs.remove(idx);
        let (b, s) = self
            .take_reaped(req.comm, req.id)
            .expect("outcome stashed before take_at");
        (idx, b, s)
    }

    /// `MPI_Sendrecv` — the halo-exchange workhorse; deadlock-free
    /// because sends are buffered. Kept for tests: MPI surface.
    pub fn sendrecv(
        &self,
        comm: CommId,
        dest: usize,
        send_tag: u32,
        payload: Bytes,
        src: Option<usize>,
        recv_tag: Option<u32>,
    ) -> (Bytes, Status) {
        pvr_trace::emit(pvr_trace::EventKind::MpiCall {
            name: "MPI_Sendrecv",
        });
        self.send_bytes(comm, dest, send_tag, payload);
        self.recv_bytes(comm, src, recv_tag)
    }

    // -- typed convenience wrappers --------------------------------------

    /// `MPI_Send` of `MPI_DOUBLE`s. Kept for tests: MPI surface.
    pub fn send_f64s(&self, comm: CommId, dest: usize, tag: u32, data: &[f64]) {
        self.send_bytes(comm, dest, tag, crate::util::f64s_to_bytes(data));
    }

    /// `MPI_Recv` of `MPI_DOUBLE`s. Kept for tests: MPI surface.
    pub fn recv_f64s(
        &self,
        comm: CommId,
        src: Option<usize>,
        tag: Option<u32>,
    ) -> (Vec<f64>, Status) {
        let (b, s) = self.recv_bytes(comm, src, tag);
        (crate::util::bytes_to_f64s(&b), s)
    }

    /// Nonblocking typed send.
    pub fn isend_f64s(&self, comm: CommId, dest: usize, tag: u32, data: &[f64]) -> SendReq {
        self.isend_bytes(comm, dest, tag, crate::util::f64s_to_bytes(data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_spmd;
    use crate::COMM_WORLD;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn tagged_send_recv() {
        run_spmd(2, 1, |mpi| {
            if mpi.rank() == 0 {
                mpi.send_bytes(COMM_WORLD, 1, 7, Bytes::from_static(b"seven"));
                mpi.send_bytes(COMM_WORLD, 1, 8, Bytes::from_static(b"eight"));
            } else {
                // receive out of order by tag: 8 first, then 7
                let (b8, s8) = mpi.recv_bytes(COMM_WORLD, Some(0), Some(8));
                assert_eq!(&b8[..], b"eight");
                assert_eq!(s8.tag, 8);
                let (b7, s7) = mpi.recv_bytes(COMM_WORLD, Some(0), Some(7));
                assert_eq!(&b7[..], b"seven");
                assert_eq!(s7.source, 0);
            }
        });
    }

    #[test]
    fn wildcard_source_and_tag() {
        run_spmd(3, 1, |mpi| {
            if mpi.rank() == 2 {
                let mut froms = Vec::new();
                for _ in 0..2 {
                    let (b, s) = mpi.recv_bytes(COMM_WORLD, ANY_SOURCE, ANY_TAG);
                    assert_eq!(b.len(), 1);
                    froms.push(s.source);
                }
                froms.sort_unstable();
                assert_eq!(froms, vec![0, 1]);
            } else {
                mpi.send_bytes(
                    COMM_WORLD,
                    2,
                    mpi.rank() as u32,
                    Bytes::from(vec![mpi.rank() as u8]),
                );
            }
        });
    }

    #[test]
    fn non_overtaking_order_preserved() {
        run_spmd(2, 1, |mpi| {
            if mpi.rank() == 0 {
                for i in 0..10u8 {
                    mpi.send_bytes(COMM_WORLD, 1, 1, Bytes::from(vec![i]));
                }
            } else {
                for i in 0..10u8 {
                    let (b, _) = mpi.recv_bytes(COMM_WORLD, Some(0), Some(1));
                    assert_eq!(b[0], i, "same (src,tag,comm) must arrive in order");
                }
            }
        });
    }

    #[test]
    fn self_send_works() {
        run_spmd(1, 1, |mpi| {
            mpi.send_bytes(COMM_WORLD, 0, 5, Bytes::from_static(b"me"));
            let (b, s) = mpi.recv_bytes(COMM_WORLD, Some(0), Some(5));
            assert_eq!(&b[..], b"me");
            assert_eq!(s.source, 0);
        });
    }

    #[test]
    fn irecv_wait_and_test() {
        run_spmd(2, 1, |mpi| {
            if mpi.rank() == 0 {
                // request posted before the message exists
                let req = mpi.irecv(COMM_WORLD, Some(1), Some(3));
                assert!(!mpi.test(&req));
                mpi.send_bytes(COMM_WORLD, 1, 2, Bytes::from_static(b"go"));
                let (b, s) = mpi.wait(req);
                assert_eq!(&b[..], b"answer");
                assert_eq!(s.tag, 3);
            } else {
                let (b, _) = mpi.recv_bytes(COMM_WORLD, Some(0), Some(2));
                assert_eq!(&b[..], b"go");
                let sreq = mpi.isend_bytes(COMM_WORLD, 0, 3, Bytes::from_static(b"answer"));
                // unconditional delivery: sends complete at post
                assert!(mpi.test_send(&sreq));
                mpi.wait_send(sreq);
            }
        });
    }

    #[test]
    fn waitall_multiple_receives() {
        run_spmd(3, 1, |mpi| {
            if mpi.rank() == 0 {
                let reqs = vec![
                    mpi.irecv(COMM_WORLD, Some(1), ANY_TAG),
                    mpi.irecv(COMM_WORLD, Some(2), ANY_TAG),
                ];
                let results = mpi.waitall(reqs);
                assert_eq!(&results[0].0[..], &[1]);
                assert_eq!(&results[1].0[..], &[2]);
            } else {
                mpi.send_bytes(COMM_WORLD, 0, 0, Bytes::from(vec![mpi.rank() as u8]));
            }
        });
    }

    #[test]
    fn waitany_returns_completions_as_they_land() {
        run_spmd(3, 1, |mpi| {
            if mpi.rank() == 0 {
                let mut reqs = vec![
                    mpi.irecv(COMM_WORLD, Some(1), Some(10)),
                    mpi.irecv(COMM_WORLD, Some(2), Some(20)),
                ];
                let mut seen = Vec::new();
                while !reqs.is_empty() {
                    let (_, b, s) = mpi.waitany(&mut reqs);
                    seen.push((s.source, b[0]));
                }
                seen.sort_unstable();
                assert_eq!(seen, vec![(1, 1), (2, 2)]);
            } else {
                let me = mpi.rank();
                mpi.send_bytes(
                    COMM_WORLD,
                    0,
                    me as u32 * 10,
                    Bytes::from(vec![me as u8]),
                );
            }
        });
    }

    #[test]
    fn waitsome_drains_ready_subset() {
        run_spmd(2, 1, |mpi| {
            if mpi.rank() == 0 {
                let mut reqs = vec![
                    mpi.irecv(COMM_WORLD, Some(1), Some(1)),
                    mpi.irecv(COMM_WORLD, Some(1), Some(2)),
                    mpi.irecv(COMM_WORLD, Some(1), Some(3)),
                ];
                let mut got = 0;
                while !reqs.is_empty() {
                    for (_, b, s) in mpi.waitsome(&mut reqs) {
                        assert_eq!(b[0] as u32, s.tag);
                        got += 1;
                    }
                }
                assert_eq!(got, 3);
            } else {
                for t in 1..=3u32 {
                    mpi.send_bytes(COMM_WORLD, 0, t, Bytes::from(vec![t as u8]));
                }
            }
        });
    }

    #[test]
    fn recv_then_continuation_fires_on_progress() {
        run_spmd(2, 1, |mpi| {
            if mpi.rank() == 0 {
                let fired = Rc::new(Cell::new(0u32));
                let f = fired.clone();
                mpi.recv_then(COMM_WORLD, Some(1), Some(42), move |mpi, b, s| {
                    assert_eq!(&b[..], b"cont");
                    assert_eq!(s.tag, 42);
                    f.set(f.get() + 1);
                    // a continuation may itself communicate
                    mpi.send_bytes(COMM_WORLD, 1, 43, Bytes::from_static(b"done"));
                });
                assert_eq!(mpi.pending_continuations(), 1);
                while mpi.progress_wait() == 0 {}
                assert_eq!(fired.get(), 1);
                assert_eq!(mpi.pending_continuations(), 0);
            } else {
                mpi.send_bytes(COMM_WORLD, 0, 42, Bytes::from_static(b"cont"));
                let (b, _) = mpi.recv_bytes(COMM_WORLD, Some(0), Some(43));
                assert_eq!(&b[..], b"done");
            }
        });
    }

    #[test]
    fn irecv_prematches_unexpected_queue() {
        run_spmd(2, 1, |mpi| {
            if mpi.rank() == 0 {
                // Pull the tag-2 message into the unexpected queue by
                // receiving tag 1 posted after it.
                let (b1, _) = mpi.recv_bytes(COMM_WORLD, Some(1), Some(1));
                assert_eq!(&b1[..], b"one");
                // Now an irecv for tag 2 must claim the queued message,
                // not wait for a new one.
                let req = mpi.irecv(COMM_WORLD, Some(1), Some(2));
                assert!(mpi.test(&req));
                let (b2, s2) = mpi.wait(req);
                assert_eq!(&b2[..], b"two");
                assert_eq!(s2.tag, 2);
            } else {
                mpi.send_bytes(COMM_WORLD, 0, 2, Bytes::from_static(b"two"));
                mpi.send_bytes(COMM_WORLD, 0, 1, Bytes::from_static(b"one"));
            }
        });
    }

    #[test]
    fn sendrecv_ring_shift() {
        run_spmd(2, 2, |mpi| {
            let p = mpi.size();
            let me = mpi.rank();
            let right = (me + 1) % p;
            let (b, s) = mpi.sendrecv(
                COMM_WORLD,
                right,
                9,
                Bytes::from(vec![me as u8]),
                ANY_SOURCE,
                Some(9),
            );
            assert_eq!(b[0] as usize, (me + p - 1) % p);
            assert_eq!(s.source, (me + p - 1) % p);
        });
    }

    #[test]
    fn try_recv_nonblocking() {
        run_spmd(1, 2, |mpi| {
            if mpi.rank() == 0 {
                assert!(mpi.try_recv_bytes(COMM_WORLD, ANY_SOURCE, ANY_TAG).is_none());
                mpi.barrier(COMM_WORLD);
                // partner has now sent
                loop {
                    if let Some((b, _)) = mpi.try_recv_bytes(COMM_WORLD, Some(1), Some(4)) {
                        assert_eq!(&b[..], b"late");
                        break;
                    }
                    mpi.ctx().yield_now();
                }
            } else {
                mpi.barrier(COMM_WORLD);
                mpi.send_bytes(COMM_WORLD, 0, 4, Bytes::from_static(b"late"));
            }
        });
    }

    #[test]
    fn typed_f64_roundtrip() {
        run_spmd(2, 1, |mpi| {
            if mpi.rank() == 0 {
                mpi.send_f64s(COMM_WORLD, 1, 0, &[1.5, -2.5, 3.25]);
            } else {
                let (v, s) = mpi.recv_f64s(COMM_WORLD, Some(0), Some(0));
                assert_eq!(v, vec![1.5, -2.5, 3.25]);
                assert_eq!(s.bytes, 24);
            }
        });
    }
}
