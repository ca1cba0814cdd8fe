//! Lane-level execution: the per-PE slice of a [`Machine`](crate::machine::Machine)
//! that the engine's workers drive during one epoch.
//!
//! The epoch-barrier protocol keeps parallel runs bit-identical to serial
//! ones: the machine pops the global DES queue into a time window, splits
//! the batch into per-PE [`Lane`]s, and the engine's workers drive each
//! lane exactly once. During an epoch a lane touches only its own ranks
//! (enforced by the [`RankTable`] ownership contract below); everything
//! that would cross a lane boundary — events for other PEs, tallies,
//! errors, retransmit-exhaustion verdicts — is buffered in the lane's
//! [`Outbox`] and merged deterministically at the barrier.
//!
//! ## Send-safety audit
//!
//! What actually crosses threads here, and why each is sound:
//!
//! * **ULTs** (`RankState::ult`): a suspended ULT is a heap stack plus a
//!   saved stack pointer; it is only ever resumed by the lane that owns
//!   the rank, and rank ownership is frozen for the whole epoch
//!   (migration happens at barriers only). The ULT never moves between
//!   threads *while running* — only while suspended, which is a plain
//!   memory hand-off ordered by the worker pool's publish (`Release`
//!   store of the job's generation) and completion (`Release` decrement
//!   of its pending count) edges. Which OS thread drives a lane differs
//!   from epoch to epoch; nothing a lane reads depends on it.
//! * **Privatization registers** (`pvr_privatize::regs`): thread-locals,
//!   re-installed by `activate()`/`set_pe_base` at every context switch,
//!   so concurrent lanes never observe each other's bases.
//! * **Tracer**: `Sync` by construction (atomic counters + per-PE ring
//!   mutexes); each lane writes only its own PE rings, so per-PE event
//!   streams stay deterministic.
//! * **Reliable-delivery state**: a single `Mutex<ReliableState>` — all
//!   per-pair counters are keyed so that each key is only mutated by one
//!   lane per epoch (see the per-field notes in `machine.rs`).
//! * **Guards** (`crate::guards::Guards`) and the privatizers their
//!   segment scan reads through: the baseline sits behind a mutex, and a
//!   guarded machine runs on one worker, so the scan never meets a rank
//!   running elsewhere.

use crate::command::{Command, Response};
use crate::guards::Guards;
use crate::location::LocationManager;
use crate::machine::{arena_trip_kind, ClockMode, Event, ReliableState, RtsError};
use crate::matching::Arrival;
use crate::message::RtsMessage;
use crate::pe::PeState;
use crate::rank::{RankState, RankStatus};
use crate::stats::Tallies;
use crate::{PeId, RankId};
use parking_lot::Mutex;
use pvr_des::{EventQueue, FaultPlan, FaultStream, NetworkModel, SimDuration, SimTime, Topology};
use pvr_isomalloc::IsoPtr;
use pvr_privatize::{PrivatizeError, Privatizer};
use pvr_trace::{EventKind, Tracer, NO_RANK};
use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Why a rank slice stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StopReason {
    BlockedRecv,
    AtSync,
    Yielded,
    Done,
}

/// What [`ExecCtx::handle`] made of a command.
pub(crate) enum Handled {
    /// Completed on the rank's stack: the rank keeps running.
    Done(Response),
    /// The rank must wait and leaves its stack; whoever completes a
    /// receive or a wait answers it through the rank's slot.
    Park(StopReason),
}

/// The rank table, shared read-mostly across lanes with per-rank `&mut`
/// access for the owning lane.
///
/// # Ownership contract
///
/// * **During an epoch**: lane `p` may call [`RankTable::resident_mut`]
///   only for ranks with `location.lookup(r) == p`. Rank→PE placement is
///   frozen for the epoch (migration is barrier-only), so distinct lanes
///   touch disjoint ranks and the returned `&mut`s never alias.
/// * **At a barrier** (no lanes running): the machine holds `&mut
///   Machine` and uses [`Index`]/[`IndexMut`] freely.
///
/// All access goes through the `Vec`'s element pointer (never through a
/// whole-slice reference), so an outstanding `&mut` to one element never
/// conflicts with access to another.
pub(crate) struct RankTable {
    inner: UnsafeCell<Vec<RankState>>,
}

// SAFETY: see the ownership contract above — element access is
// partitioned by rank placement during epochs and exclusive at barriers.
unsafe impl Send for RankTable {}
unsafe impl Sync for RankTable {}

impl RankTable {
    pub(crate) fn new(ranks: Vec<RankState>) -> RankTable {
        RankTable {
            inner: UnsafeCell::new(ranks),
        }
    }

    fn base(&self) -> *mut RankState {
        // SAFETY: only the Vec header is dereferenced; element borrows
        // elsewhere are reached through the Vec's internal pointer and
        // are not invalidated by this read.
        unsafe { (*self.inner.get()).as_mut_ptr() }
    }

    pub(crate) fn len(&self) -> usize {
        unsafe { (*self.inner.get()).len() }
    }

    /// Barrier-time iteration (no lanes may be running).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &RankState> + '_ {
        (0..self.len()).map(move |r| &self[r])
    }

    /// Exclusive access to one rank's state from a shared table handle.
    ///
    /// # Safety
    ///
    /// The caller must be the lane owning `location.lookup(r)` for the
    /// current epoch (or hold `&mut Machine` at a barrier), and must not
    /// let two `&mut` to the same rank overlap in use.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn resident_mut(&self, r: RankId) -> &mut RankState {
        debug_assert!(r < self.len());
        &mut *self.base().add(r)
    }
}

impl std::ops::Index<RankId> for RankTable {
    type Output = RankState;
    fn index(&self, r: RankId) -> &RankState {
        assert!(r < self.len());
        // SAFETY: shared reads are only performed on fields no concurrent
        // lane mutates (see ownership contract).
        unsafe { &*self.base().add(r) }
    }
}

impl std::ops::IndexMut<RankId> for RankTable {
    fn index_mut(&mut self, r: RankId) -> &mut RankState {
        assert!(r < self.len());
        unsafe { &mut *self.base().add(r) }
    }
}

/// Per-PE hierarchical-local-storage block pointers (null when the
/// method has none). Read-only after build; the blocks themselves are
/// only written through thread-local register installs.
pub(crate) struct HlsBlocks(Vec<*mut u8>);

// SAFETY: the pointers are read-only here; writes go through per-thread
// privatization registers.
unsafe impl Send for HlsBlocks {}
unsafe impl Sync for HlsBlocks {}

impl HlsBlocks {
    pub(crate) fn new(blocks: Vec<*mut u8>) -> HlsBlocks {
        HlsBlocks(blocks)
    }

    pub(crate) fn get(&self, pe: PeId) -> *mut u8 {
        self.0[pe]
    }
}

/// A retransmit budget exhausted mid-epoch for a receiver on another
/// lane: whether the message actually got through (only the acks were
/// lost) cannot be decided until the receiver's lane finishes the epoch,
/// so the verdict is deferred to the barrier.
pub(crate) struct Exhausted {
    pub at: SimTime,
    pub from: RankId,
    pub to: RankId,
    pub seq: u64,
    pub attempts: u32,
}

/// Everything a lane produces during an epoch that must cross the
/// barrier: cross-PE events, counter deltas, deferred verdicts, and the
/// first error the lane hit.
#[derive(Default)]
pub(crate) struct Outbox {
    /// Events for other PEs (or beyond this lane's horizon), merged into
    /// the global queue at the barrier in deterministic order.
    pub events: Vec<(SimTime, Event)>,
    /// Every exact count this lane's ranks raised during the epoch.
    pub tallies: Tallies,
    pub done: usize,
    pub at_sync: usize,
    pub comm_bytes: BTreeMap<(RankId, RankId), u64>,
    /// Stale-location forward hops taken (merged into the location
    /// manager's counter at the barrier).
    pub forwards: u64,
    /// Deferred retransmit-exhaustion verdicts (see [`Exhausted`]).
    pub exhausted: Vec<Exhausted>,
    /// Real-time mode: messages for PEs outside this worker's lane set.
    pub unrouted: Vec<RtsMessage>,
    /// First error this lane hit: (sim time, error class, error). Class
    /// 0 = raised in-lane, class 1 = deferred exhaustion — the barrier
    /// picks the canonical (time, pe, class)-smallest error so parallel
    /// runs surface the same failure as serial ones.
    pub error: Option<(SimTime, u8, RtsError)>,
    pub last_ran: Option<RankId>,
}

impl Outbox {
    /// An outbox whose event buffer is pre-sized for `cap` cross-barrier
    /// emissions per epoch.
    pub fn with_capacity(cap: usize) -> Outbox {
        Outbox {
            events: Vec::with_capacity(cap),
            ..Default::default()
        }
    }

    /// Clear every field for reuse in a later epoch, keeping buffer
    /// capacity.
    pub fn reset(&mut self) {
        let Outbox {
            events,
            tallies,
            done,
            at_sync,
            comm_bytes,
            forwards,
            exhausted,
            unrouted,
            error,
            last_ran,
        } = self;
        events.clear();
        *tallies = Tallies::default();
        *done = 0;
        *at_sync = 0;
        comm_bytes.clear();
        *forwards = 0;
        exhausted.clear();
        unrouted.clear();
        *error = None;
        *last_ran = None;
    }
}

/// One PE's share of an epoch: its scheduler state, its slice of the
/// event batch, and the outbox for everything that crosses the barrier.
pub(crate) struct Lane {
    pub pe: PeId,
    pub state: PeState,
    pub queue: EventQueue<Event>,
    /// Events at `t >= horizon` belong to a later epoch and are routed
    /// through the outbox even when targeting this lane's own PE.
    pub horizon: SimTime,
    pub out: Outbox,
}

/// Machine state shared immutably (or behind locks) by every lane for
/// the duration of one epoch. Must be `Sync`.
pub(crate) struct EngineShared<'e> {
    pub clock: ClockMode,
    pub topology: &'e Topology,
    pub network: &'e NetworkModel,
    pub location: &'e LocationManager,
    pub ranks: &'e RankTable,
    pub hls: &'e HlsBlocks,
    pub alive: &'e [bool],
    pub tracer: Option<&'e Arc<Tracer>>,
    pub reliable: Option<&'e Mutex<ReliableState>>,
    pub privatizers: &'e [Box<dyn Privatizer>],
    /// Present when the memory-safety guards are on: every resume ends
    /// with [`ExecCtx::check_guards`].
    pub guards: Option<&'e Guards>,
    pub epoch_start: Instant,
    pub n_ranks: usize,
    /// Request-table size cap per rank (open entries, pending or
    /// unreaped); exceeding it is a protocol error.
    pub max_outstanding_reqs: usize,
}

/// The execution context a worker drives: shared machine state plus the
/// lanes this context may touch — the one claimed lane in a virtual-time
/// epoch (and at a barrier, `Machine::with_lane`'s), a worker's
/// contiguous chunk in a real-time burst (every lane on a pool of one).
pub(crate) struct ExecCtx<'a, 'e> {
    pub shared: &'a EngineShared<'e>,
    pub lanes: &'a mut [Lane],
    /// PE id of `lanes[0]` — the lanes are a contiguous PE range.
    pub pe_base: PeId,
    /// Index into `lanes` of the lane currently being driven.
    pub li: usize,
}

impl<'a, 'e> ExecCtx<'a, 'e> {
    fn pe(&self) -> PeId {
        self.lanes[self.li].pe
    }

    fn lane(&mut self) -> &mut Lane {
        &mut self.lanes[self.li]
    }

    /// Lane index for `pe` if this worker owns it.
    fn owned_lane(&self, pe: PeId) -> Option<usize> {
        pe.checked_sub(self.pe_base).filter(|&i| i < self.lanes.len())
    }

    fn now_ns_at(&self, tl: usize) -> u64 {
        match self.shared.clock {
            ClockMode::Virtual => self.lanes[tl].state.clock.nanos(),
            ClockMode::RealTime => self.shared.epoch_start.elapsed().as_nanos() as u64,
        }
    }

    #[inline]
    fn trace_at(&self, tl: usize, rank: u32, kind: EventKind) {
        if let Some(t) = self.shared.tracer {
            t.record(self.lanes[tl].pe, rank, self.now_ns_at(tl), kind);
        }
    }

    #[inline]
    pub(crate) fn trace(&self, rank: u32, kind: EventKind) {
        self.trace_at(self.li, rank, kind);
    }

    /// Schedule `ev` at `at`: locally when it targets this lane's PE
    /// inside the current window, otherwise via the outbox for the
    /// barrier merge.
    fn emit(&mut self, target_pe: PeId, at: SimTime, ev: Event) {
        let lane = &mut self.lanes[self.li];
        if target_pe == lane.pe && at < lane.horizon {
            let at = at.max_of(lane.queue.now());
            lane.queue.schedule(at, ev);
        } else {
            lane.out.events.push((at, ev));
        }
    }

    /// Route a message (immediately in real time; as an event in virtual
    /// time, through the reliable-delivery layer when the network is
    /// lossy).
    fn route(&mut self, msg: RtsMessage) {
        match self.shared.clock {
            ClockMode::RealTime => {
                let dest_pe = self.shared.location.lookup(msg.to);
                match self.owned_lane(dest_pe) {
                    Some(tl) => self.deposit(tl, msg),
                    None => self.lane().out.unrouted.push(msg),
                }
            }
            ClockMode::Virtual if self.shared.reliable.is_some() => {
                self.send_reliable(msg);
            }
            ClockMode::Virtual => {
                let from_pe = self.pe();
                let dest_pe = self.shared.location.lookup(msg.to);
                let cost = self.shared.network.cost(
                    self.shared.topology,
                    from_pe,
                    dest_pe,
                    msg.wire_bytes(),
                );
                let at = self.lanes[self.li].state.clock + cost;
                let at = at.max_of(self.lanes[self.li].queue.now());
                self.emit(
                    dest_pe,
                    at,
                    Event::Deliver {
                        msg,
                        dest_pe,
                        forwarded: false,
                    },
                );
            }
        }
    }

    /// Assign a per-(src,dst) sequence number, stamp the checksum,
    /// record the message in-flight, and transmit attempt 0. Returns the
    /// assigned sequence number so a nonblocking send can key its
    /// completion on the matching ack.
    fn send_reliable(&mut self, mut msg: RtsMessage) -> u64 {
        let seq;
        {
            let mut rel = self
                .shared
                .reliable
                .expect("reliable layer active")
                .lock();
            let counter = rel.send_seq.entry((msg.from, msg.to)).or_insert(0);
            *counter += 1;
            msg.seq = *counter;
            seq = msg.seq;
            msg.seal();
            rel.inflight.insert((msg.from, msg.to, msg.seq), msg.clone());
        }
        let lane = &self.lanes[self.li];
        let t_send = lane.state.clock.max_of(lane.queue.now());
        self.transmit(t_send, msg, 0);
        seq
    }

    /// Transmit one attempt of an in-flight message: apply the fault
    /// plan per copy (drop/duplicate/corrupt/jitter), schedule surviving
    /// copies for delivery, and arm the retransmit timer.
    ///
    /// Always runs on the *sender's* lane (sends and `Retransmit` events
    /// are both partitioned there), so the fault-plan decisions for one
    /// (src, dst) pair are made in deterministic time order.
    fn transmit(&mut self, t_send: SimTime, msg: RtsMessage, attempt: u32) {
        let (from, to, seq) = (msg.from, msg.to, msg.seq);
        let from_pe = self.shared.location.lookup(from);
        let dest_pe = self.shared.location.lookup(to);
        let class = NetworkModel::classify(self.shared.topology, from_pe, dest_pe);
        let cost = self
            .shared
            .network
            .cost(self.shared.topology, from_pe, dest_pe, msg.wire_bytes());
        let (plan, base_rto) = {
            let rel = self
                .shared
                .reliable
                .expect("reliable layer active")
                .lock();
            (rel.plan, rel.base_rto)
        };

        let primary = plan.decide(
            class,
            FaultPlan::message_key(from as u64, to as u64, seq, attempt, 0, FaultStream::Data),
        );
        // At most two copies (primary + one duplicate) — a fixed array,
        // not a heap vector, so the per-transmit path allocates nothing.
        let mut copies = [Some(primary), None];
        if primary.duplicate {
            self.lane().out.tallies.faults.duplicates_injected += 1;
            // The duplicate's own fate is decided independently; its
            // `duplicate` flag is ignored to prevent cascades.
            copies[1] = Some(plan.decide(
                class,
                FaultPlan::message_key(from as u64, to as u64, seq, attempt, 1, FaultStream::Data),
            ));
        }
        for d in copies.into_iter().flatten() {
            if d.drop {
                self.lane().out.tallies.faults.msgs_dropped += 1;
                self.trace(
                    from as u32,
                    EventKind::MsgDrop {
                        from: from as u32,
                        to: to as u32,
                        seq,
                        ack: false,
                    },
                );
                continue;
            }
            // Refcounted (or inline) payload share: cloning the message
            // never copies a heap buffer.
            let mut copy = msg.clone();
            if d.corrupt {
                copy.corrupt_payload();
            }
            let at = (t_send + cost + d.jitter).max_of(self.lanes[self.li].queue.now());
            self.emit(
                dest_pe,
                at,
                Event::Deliver {
                    msg: copy,
                    dest_pe,
                    forwarded: false,
                },
            );
        }

        // Retransmit timer: a generous multiple of the modeled round
        // trip plus the configured base, doubling per attempt.
        let rtt_estimate = SimDuration::from_nanos(cost.nanos().saturating_mul(4));
        let rto =
            SimDuration::from_nanos((base_rto.nanos() + rtt_estimate.nanos()) << attempt.min(20));
        let at = (t_send + rto).max_of(self.lanes[self.li].queue.now());
        let own_pe = self.pe();
        self.emit(
            own_pe,
            at,
            Event::Retransmit {
                from,
                to,
                seq,
                attempt,
            },
        );
    }

    /// Receive one arriving copy under reliable delivery: verify
    /// integrity, acknowledge, dedup/reorder, and deposit newly in-order
    /// messages to the application. Runs on the receiver's lane.
    fn receive_transport(&mut self, msg: RtsMessage, t: SimTime) {
        let (from, to, seq) = (msg.from, msg.to, msg.seq);
        if !msg.intact() {
            self.lane().out.tallies.faults.msgs_corrupted += 1;
            self.trace(
                to as u32,
                EventKind::MsgCorrupt {
                    from: from as u32,
                    to: to as u32,
                    seq,
                },
            );
            // no ack: the sender's retransmit timer recovers the message
            return;
        }
        // Ack every intact arrival (duplicates re-ack so a sender whose
        // earlier ack was dropped stops retransmitting).
        self.send_ack(from, to, seq, t);

        let (is_dup, ready) = {
            let mut rel = self
                .shared
                .reliable
                .expect("reliable layer active")
                .lock();
            let pair = rel.recv.entry((from, to)).or_default();
            if seq < pair.next_expected || pair.pending.contains_key(&seq) {
                (true, Vec::new())
            } else {
                pair.pending.insert(seq, msg);
                let mut ready = Vec::new();
                while let Some(m) = pair.pending.remove(&pair.next_expected) {
                    pair.next_expected += 1;
                    ready.push(m);
                }
                (false, ready)
            }
        };
        if is_dup {
            self.lane().out.tallies.faults.duplicates_suppressed += 1;
            self.trace(
                to as u32,
                EventKind::MsgDupSuppressed {
                    from: from as u32,
                    to: to as u32,
                    seq,
                },
            );
            return;
        }
        for m in ready {
            self.deposit(self.li, m);
        }
    }

    /// Send an acknowledgement back to the sender's PE, itself subject
    /// to the fault plan's drop and jitter on the reverse path. The ack
    /// instance counter is per-(src,dst) pair so its fault decisions
    /// don't depend on cross-pair interleaving.
    fn send_ack(&mut self, from: RankId, to: RankId, seq: u64, t: SimTime) {
        let recv_pe = self.pe();
        let send_pe = self.shared.location.lookup(from);
        let class = NetworkModel::classify(self.shared.topology, recv_pe, send_pe);
        let cost = self
            .shared
            .network
            .cost(self.shared.topology, recv_pe, send_pe, 32);
        let (plan, instance) = {
            let mut rel = self
                .shared
                .reliable
                .expect("reliable layer active")
                .lock();
            let plan = rel.plan;
            let pair = rel.recv.entry((from, to)).or_default();
            pair.ack_seq += 1;
            (plan, pair.ack_seq)
        };
        let d = plan.decide(
            class,
            FaultPlan::message_key(
                from as u64,
                to as u64,
                seq,
                instance as u32,
                0,
                FaultStream::Ack,
            ),
        );
        if d.drop {
            self.lane().out.tallies.faults.acks_dropped += 1;
            self.trace(
                NO_RANK,
                EventKind::MsgDrop {
                    from: from as u32,
                    to: to as u32,
                    seq,
                    ack: true,
                },
            );
            return;
        }
        let at = (t + cost + d.jitter).max_of(self.lanes[self.li].queue.now());
        self.emit(send_pe, at, Event::Ack { from, to, seq });
    }

    /// Hand a message to its target's matching engine: it completes the
    /// oldest posted receive it satisfies — at delivery time, not when
    /// the rank later waits — or answers the blocking receive the rank
    /// is parked in, or is buffered as unexpected. `tl` must be a lane
    /// this worker owns.
    pub(crate) fn deposit(&mut self, tl: usize, msg: RtsMessage) {
        let to = msg.to;
        self.lanes[tl].out.tallies.delivered += 1;
        // SAFETY: the rank lives on lanes[tl].pe, owned by this worker.
        let rs = unsafe { self.shared.ranks.resident_mut(to) };
        rs.messages_received += 1;
        if self.shared.tracer.is_some() {
            self.trace_at(
                tl,
                to as u32,
                EventKind::MsgRecv {
                    from: msg.from as u32,
                    tag: msg.tag,
                    bytes: msg.wire_bytes() as u32,
                },
            );
        }
        match rs.matcher.arrive(msg) {
            Arrival::Posted(id, m) => self.complete_req(tl, to, id, Some(m)),
            Arrival::Parked(m) => {
                rs.slot.answer(Response::Message(m));
                self.wake(tl, to);
            }
            Arrival::Queued => {}
        }
    }

    /// Resume a rank whose blocking call was just answered: requeue it
    /// on lane `tl`, scheduling a `PeWake` in virtual mode so the lane's
    /// queue drives it (routed through the outbox past the epoch
    /// horizon).
    fn wake(&mut self, tl: usize, r: RankId) {
        // SAFETY: the rank lives on lanes[tl].pe, owned by this worker.
        unsafe { self.shared.ranks.resident_mut(r) }.status = RankStatus::Ready;
        self.trace_at(tl, r as u32, EventKind::Unblock);
        let lane = &mut self.lanes[tl];
        lane.state.ready.push_back(r);
        if self.shared.clock == ClockMode::Virtual {
            let at = lane.queue.now().max_of(lane.state.clock);
            if at < lane.horizon {
                lane.queue.schedule(at, Event::PeWake { pe: lane.pe });
            } else {
                lane.out.events.push((at, Event::PeWake { pe: lane.pe }));
            }
        }
    }

    /// Mark request `id` on rank `owner` complete, emit/tally the
    /// completion, and — if that satisfies the wait `owner` is suspended
    /// in — reap the wait's outcomes, answer the pending command and
    /// resume the rank. `tl` must be the lane owning `owner`.
    fn complete_req(&mut self, tl: usize, owner: RankId, id: u64, msg: Option<RtsMessage>) {
        // SAFETY: the rank lives on lanes[tl].pe, owned by this worker.
        let rs = unsafe { self.shared.ranks.resident_mut(owner) };
        let (send, satisfied) = rs.matcher.complete(id, msg);
        let req = &mut self.lanes[tl].out.tallies.req;
        if send {
            req.send_completes += 1;
        } else {
            req.recv_completes += 1;
        }
        self.trace_at(tl, owner as u32, EventKind::ReqComplete { req: id, send });
        if satisfied {
            let (cont, outcomes) = rs.matcher.take_wait();
            self.tally_continuations(tl, owner, cont, &outcomes);
            rs.slot.answer(Response::ReqOutcomes(outcomes));
            self.wake(tl, owner);
        }
    }

    /// Build rank `r`'s next outgoing message and account for it in the
    /// envelope pool, the communication matrix and the trace. `what`
    /// names the call in the error for a destination that does not exist.
    fn outgoing(
        &mut self,
        r: RankId,
        to: RankId,
        tag: u64,
        payload: bytes::Bytes,
        what: &str,
    ) -> Result<RtsMessage, RtsError> {
        if to >= self.shared.n_ranks {
            return Err(RtsError::Protocol {
                rank: r,
                detail: format!("{what} to nonexistent rank {to}"),
            });
        }
        let msg = RtsMessage::new(r, to, tag, payload);
        // Envelope-pool accounting: an inline payload's whole lifecycle
        // (send, retransmit copies, delivery) is allocation-free. The
        // classification depends only on the message stream, so every
        // engine tallies identically.
        let inline = msg.payload.is_inline();
        let out = &mut self.lanes[self.li].out;
        if inline {
            out.tallies.pool_hits += 1;
        } else {
            out.tallies.pool_misses += 1;
        }
        *out.comm_bytes.entry((r, to)).or_default() += msg.wire_bytes() as u64;
        self.trace(r as u32, EventKind::MsgPool { inline });
        self.trace(
            r as u32,
            EventKind::MsgSend {
                to: to as u32,
                tag,
                bytes: msg.wire_bytes() as u32,
            },
        );
        Ok(msg)
    }

    /// Enforce the per-rank request-table cap before a new post.
    fn check_req_capacity(&self, rank: RankId, outstanding: usize) -> Result<(), RtsError> {
        if outstanding >= self.shared.max_outstanding_reqs {
            return Err(RtsError::RequestOverflow {
                rank,
                outstanding,
                limit: self.shared.max_outstanding_reqs,
            });
        }
        Ok(())
    }

    /// Tag reaped completions as continuation-delivered: one
    /// `ReqContinuation` per outcome handed to a continuation-style
    /// wait or test.
    fn tally_continuations(
        &mut self,
        tl: usize,
        owner: RankId,
        cont: bool,
        outcomes: &[(u64, Option<RtsMessage>)],
    ) {
        if !cont {
            return;
        }
        self.lanes[tl].out.tallies.req.continuations += outcomes.len() as u64;
        for (id, _) in outcomes {
            self.trace_at(tl, owner as u32, EventKind::ReqContinuation { req: *id });
        }
    }

    /// Deposit a message that arrived from another worker's hub post
    /// (parallel real-time mode). The destination rank must live on one
    /// of this worker's lanes — the hub routes by PE owner.
    pub(crate) fn deposit_external(&mut self, msg: RtsMessage) {
        let dest_pe = self.shared.location.lookup(msg.to);
        let tl = self
            .owned_lane(dest_pe)
            .expect("hub routed message to wrong worker");
        self.deposit(tl, msg);
    }

    /// Drive one rank until it leaves its stack: a call that must wait,
    /// an error, or the end of its body. Commands that complete run
    /// inside the resume ([`ExecCtx::handle`]). The rank must live on the
    /// current lane.
    pub(crate) fn run_rank_slice(&mut self, r: RankId) -> Result<StopReason, RtsError> {
        let pe = self.pe();
        // SAFETY: `r` is resident on this lane's PE (caller checks).
        let rs = unsafe { self.shared.ranks.resident_mut(r) };
        // Context switch: install the rank's privatization registers
        // and this PE's hierarchical-local-storage block.
        rs.instance.activate();
        let hls = self.shared.hls.get(pe);
        if !hls.is_null() {
            pvr_privatize::regs::set_pe_base(hls);
        }
        let now_ns = self.now_ns_at(self.li);
        rs.shared.now_ns.store(now_ns, Ordering::Relaxed);
        let out = &mut self.lanes[self.li].out;
        out.tallies.switches += 1;
        out.last_ran = Some(r);
        if self.shared.tracer.is_some() {
            pvr_trace::set_context(pe, r as u32, now_ns);
            self.trace(
                r as u32,
                EventKind::CtxSwitchIn {
                    ctx_work: rs.instance.has_ctx_work(),
                },
            );
        }

        let mut ult = rs.ult.take().expect("rank ULT present");
        // the rank's calls re-derive its state: hold no borrow across them
        let slot = rs.slot.clone();
        // Only real-time runs measure load by the wall clock.
        let t0 = (self.shared.clock == ClockMode::RealTime).then(Instant::now);
        let (outcome, stop) = slot.resume(self, &mut ult);
        // SAFETY: as above; the rank is suspended again.
        let rs = unsafe { self.shared.ranks.resident_mut(r) };
        rs.ult = Some(ult);

        if let Some(t0) = t0 {
            let d: SimDuration = t0.elapsed().into();
            rs.load_since_lb += d;
            rs.total_load += d;
        }

        if let Some(guards) = self.shared.guards {
            self.check_guards(guards, r)?;
        }

        // SAFETY: re-derive after the guard checks (which take their
        // own exclusive borrows of this rank).
        let rs = unsafe { self.shared.ranks.resident_mut(r) };
        match outcome {
            Ok(pvr_ult::UltState::Complete) => {
                rs.status = RankStatus::Done;
                // Leaked requests (never waited on, or completed but
                // never reaped) are cleaned up here so a finished
                // rank's table cannot pin messages or wake logic.
                self.lanes[self.li].out.tallies.req.leaked += rs.matcher.clear_reqs() as u64;
                self.lanes[self.li].out.done += 1;
                Ok(StopReason::Done)
            }
            Err(e) => {
                rs.status = RankStatus::Done;
                self.lanes[self.li].out.done += 1;
                let message = match e {
                    pvr_ult::ResumeError::Panicked(p) => p
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| p.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "<non-string panic>".into()),
                    pvr_ult::ResumeError::Completed => "resume after completion".into(),
                };
                Err(RtsError::RankPanicked { rank: r, message })
            }
            // A rank that raised an error stays suspended for good: its
            // ULT is cancelled at teardown.
            Ok(pvr_ult::UltState::Suspended) => stop.unwrap_or_else(|| {
                Err(RtsError::Protocol {
                    rank: r,
                    detail: "rank yielded without issuing a command".into(),
                })
            }),
        }
    }

    /// Execute one command of rank `r`, the rank this lane is running:
    /// called **on `r`'s own stack** by `RankCtx::call`, through the
    /// pointer `run_rank_slice` published for the span of the resume.
    /// `Done` costs no context switch; `Park` and `Err` end the slice.
    pub(crate) fn handle(&mut self, r: RankId, cmd: Command) -> Result<Handled, RtsError> {
        debug_assert_eq!(self.lanes[self.li].out.last_ran, Some(r));
        // SAFETY: `r` is resident on this lane's PE and is the caller.
        let rs = unsafe { self.shared.ranks.resident_mut(r) };
        let resp = match cmd {
            Command::Send { to, tag, payload } => {
                let msg = self.outgoing(r, to, tag, payload, "send")?;
                rs.messages_sent += 1;
                // `rs` must not be used past here: a send-to-self
                // re-derives the same rank inside `route`.
                self.route(msg);
                Response::Ack
            }
            Command::RecvMatch { spec } => match rs.matcher.recv(spec, true) {
                Some(m) => Response::Message(m),
                None => {
                    rs.status = RankStatus::Waiting;
                    self.trace(r as u32, EventKind::Block);
                    // answered by `deposit` when a message the spec
                    // accepts arrives
                    return Ok(Handled::Park(StopReason::BlockedRecv));
                }
            },
            Command::TryRecvMatch { spec } => match rs.matcher.recv(spec, false) {
                Some(m) => Response::Message(m),
                None => Response::NoMessage,
            },
            Command::Compute(d) => {
                if self.shared.clock == ClockMode::Virtual {
                    self.lanes[self.li].state.work(d);
                    rs.load_since_lb += d;
                    rs.total_load += d;
                    let now_ns = self.lanes[self.li].state.clock.nanos();
                    rs.shared.now_ns.store(now_ns, Ordering::Relaxed);
                    if self.shared.tracer.is_some() {
                        // the rank keeps running: its own emissions
                        // (`MpiCall`) are stamped with the advanced clock
                        pvr_trace::set_context(self.pe(), r as u32, now_ns);
                    }
                }
                Response::Ack
            }
            Command::Yield => {
                self.lanes[self.li].state.ready.push_back(r);
                return Ok(Handled::Park(StopReason::Yielded));
            }
            Command::AtSync => {
                rs.status = RankStatus::AtSync;
                self.lanes[self.li].out.at_sync += 1;
                return Ok(Handled::Park(StopReason::AtSync));
            }
            Command::AllocHeap { size, align } => {
                let ptr = rs
                    .memory
                    .heap()
                    .alloc(size, align)
                    .map_err(|e| RtsError::Privatize(PrivatizeError::Alloc(e)))?;
                Response::Addr(ptr.ptr as usize)
            }
            Command::FreeHeap { addr, size } => {
                let res = rs.memory.heap().try_dealloc(IsoPtr {
                    ptr: addr as *mut u8,
                    size,
                });
                if let Err(v) = res {
                    self.trace(
                        r as u32,
                        EventKind::ArenaGuardTrip {
                            kind: arena_trip_kind(&v),
                        },
                    );
                    self.lanes[self.li].out.tallies.hardening.arena_guard_trips += 1;
                    // The rank's corrupted-heap state must not run
                    // further (same as AllocHeap failure).
                    return Err(RtsError::ArenaGuard {
                        rank: r,
                        detail: v.to_string(),
                    });
                }
                Response::Ack
            }
            Command::ReqPostSend { to, tag, payload } => {
                self.check_req_capacity(r, rs.matcher.open_reqs())?;
                let msg = self.outgoing(r, to, tag, payload, "isend")?;
                rs.messages_sent += 1;
                let id = rs.matcher.post_send();
                self.lanes[self.li].out.tallies.req.send_posts += 1;
                self.trace(r as u32, EventKind::ReqPost { req: id, send: true });
                // `rs` must not be used past here: a send-to-self
                // re-derives the same rank inside `route`/`deposit`.
                if self.shared.clock == ClockMode::Virtual && self.shared.reliable.is_some() {
                    // completes when the payload's ack arrives back
                    // on this (the sender's) lane
                    let seq = self.send_reliable(msg);
                    let rs = unsafe { self.shared.ranks.resident_mut(r) };
                    rs.matcher.await_ack(to, seq, id);
                } else {
                    // unconditional delivery: buffered-send
                    // semantics, complete at post
                    self.route(msg);
                    self.complete_req(self.li, r, id, None);
                }
                Response::ReqId(id)
            }
            Command::ReqPostRecv { spec } => {
                self.check_req_capacity(r, rs.matcher.open_reqs())?;
                // An already-buffered match is claimed now, oldest
                // first, which preserves non-overtaking.
                let (id, claimed) = rs.matcher.post_recv(spec);
                self.lanes[self.li].out.tallies.req.recv_posts += 1;
                self.trace(r as u32, EventKind::ReqPost { req: id, send: false });
                if let Some(m) = claimed {
                    self.complete_req(self.li, r, id, Some(m));
                }
                Response::ReqId(id)
            }
            Command::ReqWait { ids, any, cont } => match rs.matcher.wait(ids, any, cont) {
                Ok(outcomes) => {
                    self.tally_continuations(self.li, r, cont, &outcomes);
                    Response::ReqOutcomes(outcomes)
                }
                Err(pending) => {
                    rs.status = RankStatus::Waiting;
                    self.lanes[self.li].out.tallies.req.wait_blocks += 1;
                    self.trace(r as u32, EventKind::Block);
                    let waiting = pending as u32;
                    self.trace(r as u32, EventKind::ReqWaitBlock { waiting });
                    // answered by `complete_req` when the wait set
                    // is satisfied
                    return Ok(Handled::Park(StopReason::BlockedRecv));
                }
            },
            Command::ReqTest { ids, cont } => {
                let outcomes = rs.matcher.reap(&ids, true);
                self.tally_continuations(self.li, r, cont, &outcomes);
                Response::ReqOutcomes(outcomes)
            }
        };
        Ok(Handled::Done(resp))
    }

    /// Dispatch one virtual-mode event on the current lane.
    fn exec_event(&mut self, t: SimTime, ev: Event) -> Result<(), RtsError> {
        match ev {
            Event::Deliver {
                msg,
                dest_pe,
                forwarded,
            } => {
                let actual_pe = self.shared.location.lookup(msg.to);
                debug_assert_eq!(
                    actual_pe,
                    self.pe(),
                    "Deliver events are partitioned to the target's lane"
                );
                if actual_pe != dest_pe && !forwarded {
                    // stale location: forward one extra hop (the cost is
                    // charged even though the lane partition already
                    // brought us to the right PE)
                    self.lane().out.forwards += 1;
                    let cost = self.shared.network.cost(
                        self.shared.topology,
                        dest_pe,
                        actual_pe,
                        msg.wire_bytes(),
                    );
                    self.emit(
                        actual_pe,
                        t + cost,
                        Event::Deliver {
                            msg,
                            dest_pe: actual_pe,
                            forwarded: true,
                        },
                    );
                } else if self.shared.reliable.is_some() {
                    self.receive_transport(msg, t);
                } else {
                    self.deposit(self.li, msg);
                }
            }
            Event::Ack { from, to, seq } => {
                if let Some(rel) = self.shared.reliable {
                    rel.lock().inflight.remove(&(from, to, seq));
                }
                // Ack events are partitioned to the sender's lane, so a
                // nonblocking send waiting on this ack completes here.
                // SAFETY: `from` is resident on this lane's PE.
                let rs = unsafe { self.shared.ranks.resident_mut(from) };
                if let Some(id) = rs.matcher.acked(to, seq) {
                    self.complete_req(self.li, from, id, None);
                }
            }
            Event::Retransmit {
                from,
                to,
                seq,
                attempt,
            } => {
                let key = (from, to, seq);
                let rel = self.shared.reliable.expect("reliable layer active");
                let in_flight = rel.lock().inflight.contains_key(&key);
                if !in_flight {
                    return Ok(()); // acked since the timer was armed
                }
                let next = attempt + 1;
                let max_attempts = rel.lock().max_attempts;
                if next >= max_attempts {
                    if self.shared.location.lookup(to) == self.pe() {
                        // Receiver lives on this very lane: its reorder
                        // state at time `t` is final, decide now.
                        let delivered = rel
                            .lock()
                            .recv
                            .get(&(from, to))
                            .is_some_and(|p| p.next_expected > seq);
                        if delivered {
                            // The receiver released it; only the acks
                            // were lost. Stop retransmitting quietly.
                            rel.lock().inflight.remove(&key);
                        } else {
                            return Err(RtsError::DeliveryFailed {
                                from,
                                to,
                                seq,
                                attempts: next,
                            });
                        }
                    } else {
                        // The receiver's lane may still deliver this seq
                        // within the epoch; the verdict is decided at the
                        // barrier from post-epoch reorder state.
                        self.lane().out.exhausted.push(Exhausted {
                            at: t,
                            from,
                            to,
                            seq,
                            attempts: next,
                        });
                    }
                } else {
                    let msg = rel
                        .lock()
                        .inflight
                        .get(&key)
                        .expect("checked in_flight")
                        .clone();
                    self.lane().out.tallies.faults.retransmits += 1;
                    self.trace(
                        from as u32,
                        EventKind::MsgRetransmit {
                            from: from as u32,
                            to: to as u32,
                            seq,
                            attempt: next,
                        },
                    );
                    self.transmit(t, msg, next);
                }
            }
            Event::PeWake { pe } => {
                debug_assert_eq!(pe, self.pe());
                if !self.shared.alive[pe] {
                    return Ok(());
                }
                self.lanes[self.li].state.advance_to(t);
                while let Some(r) = self.lanes[self.li].state.ready.pop_front() {
                    if self.shared.location.lookup(r) != pe {
                        // migrated while queued; its new PE owns it
                        continue;
                    }
                    // SAFETY: `r` is resident here, checked above.
                    if unsafe { self.shared.ranks.resident_mut(r) }.status == RankStatus::Done {
                        continue;
                    }
                    self.run_rank_slice(r)?;
                }
            }
        }
        Ok(())
    }
}

/// Drive one lane through its share of an epoch: pop the lane-local
/// queue in (time, seq) order until drained. The first error stops this
/// lane (class 0) but not its siblings; the barrier picks the canonical
/// error across lanes.
pub(crate) fn run_epoch_lane(ctx: &mut ExecCtx<'_, '_>) {
    while let Some((t, ev)) = ctx.lanes[ctx.li].queue.pop() {
        if let Err(e) = ctx.exec_event(t, ev) {
            ctx.lanes[ctx.li].out.error = Some((t, 0, e));
            return;
        }
    }
}

/// One fair scheduling sweep in real-time mode: each alive PE runs at
/// most one rank slice, round-robin, so an early PE's deep ready queue
/// cannot starve later PEs. Returns how many slices ran.
pub(crate) fn real_sweep(ctx: &mut ExecCtx<'_, '_>) -> Result<u32, RtsError> {
    let mut ran = 0u32;
    for li in 0..ctx.lanes.len() {
        ctx.li = li;
        let pe = ctx.lanes[li].pe;
        if !ctx.shared.alive[pe] {
            continue;
        }
        while let Some(r) = ctx.lanes[li].state.ready.pop_front() {
            if ctx.shared.location.lookup(r) != pe {
                continue; // migrated while queued
            }
            if ctx.shared.ranks[r].status == RankStatus::Done {
                continue;
            }
            ctx.run_rank_slice(r)?;
            ran += 1;
            break; // one slice per PE per sweep (fairness)
        }
    }
    Ok(ran)
}
