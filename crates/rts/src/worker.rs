//! Lane-level execution: a PE's scheduler, driven through an
//! [`ExecCtx`] — one context, one lane.
//!
//! The machine keeps one [`Lane`] per PE for the whole run (the PE's
//! scheduler state, the queue of its future events, its outbox) and one
//! [`Shared`] that every lane reads and only barriers write. The
//! epoch-barrier protocol keeps parallel runs bit-identical to serial
//! ones: the machine bounds an epoch by the lane heads, and the engine's
//! workers drive each lane with an event below the bound exactly once.
//! During an epoch a lane touches only its own ranks (enforced by the
//! [`RankTable`] ownership contract below); everything that would cross
//! a lane boundary — events for other PEs or a later epoch, tallies,
//! errors, retransmit-exhaustion verdicts — is buffered in the lane's
//! [`Outbox`] and merged deterministically at the barrier.
//!
//! ## Send-safety audit
//!
//! What actually crosses threads here, and why each is sound:
//!
//! * **Lanes**: owned by the machine for the whole run; during an epoch
//!   or a burst each is reached through exactly one `ExecCtx` at a time
//!   — the one that claimed it in virtual time, its worker's in real
//!   time, where a worker drives its chunk one lane after another and
//!   hands a message for a sibling lane to that lane's
//!   [`ExecCtx::deposit`] between two slices. Which OS thread drives a
//!   lane differs from epoch to epoch; nothing a lane reads depends on
//!   it.
//! * **ULTs** (`RankState::ult`): a suspended ULT is a heap stack plus a
//!   saved stack pointer; it is only ever resumed by the lane that owns
//!   the rank, and rank ownership is frozen for the whole epoch
//!   (migration happens at barriers only). The ULT never moves between
//!   threads *while running* — only while suspended, which is a plain
//!   memory hand-off ordered by the worker pool's publish (`Release`
//!   store of the job's generation) and completion (`Release` decrement
//!   of its pending count) edges.
//! * **Privatization registers** (`pvr_privatize::regs`): thread-locals,
//!   re-installed by `activate()` and the PE's HLS block at every
//!   context switch, so concurrent lanes never observe each other's
//!   bases.
//! * **Tracer**: `Sync` by construction (atomic counters + per-PE ring
//!   mutexes); each lane writes only its own PE rings, so per-PE event
//!   streams stay deterministic.
//! * **Reliable-delivery state**: a single `Mutex<ReliableState>`, locked
//!   once per call of the layer's functions — all per-pair counters are
//!   keyed so that each key is only mutated by one lane per epoch (see
//!   the per-field notes in `machine.rs`).
//! * **Guards** (`crate::guards::Guards`) and the privatizers their
//!   segment scan reads through: the baseline sits behind a mutex, and a
//!   guarded machine runs on one worker, so the scan never meets a rank
//!   running elsewhere.

use crate::command::{Command, Response};
use crate::guards::Guards;
use crate::location::LocationManager;
use crate::machine::{arena_trip_kind, ClockMode, Event, ReliableState, RtsError};
use crate::matching::{Arrival, FixedMap};
use crate::message::RtsMessage;
use crate::pe::PeState;
use crate::rank::{RankState, RankStatus};
use crate::rescale::Geometry;
use crate::stats::Tallies;
use crate::{PeId, RankId};
use parking_lot::Mutex;
use pvr_des::queue::UNSTAMPED;
use pvr_des::{EventQueue, FaultPlan, FaultStream, NetworkModel, SimDuration, SimTime, Topology};
use pvr_isomalloc::IsoPtr;
use pvr_privatize::{PrivatizeError, Privatizer};
use pvr_trace::{EventKind, Tracer, NO_RANK};
use std::cell::UnsafeCell;
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
    /// Events for other PEs (or past this epoch's bound), in emission
    /// order; the barrier merge takes each out once, in deterministic
    /// order, into its target lane.
    pub events: Vec<Option<(SimTime, Event)>>,
    /// Every exact count this lane's ranks raised during the epoch.
    pub tallies: Tallies,
    pub done: usize,
    pub at_sync: usize,
    /// Bytes sent per (from, to) rank pair; the barrier only sums them,
    /// so the map's order does not matter and `clear` keeps its buckets.
    pub comm_bytes: FixedMap<(RankId, RankId), u64>,
    /// Stale-location forward hops taken (merged into the location
    /// manager's counter at the barrier).
    pub forwards: u64,
    /// Deferred retransmit-exhaustion verdicts (see [`Exhausted`]).
    pub exhausted: Vec<Exhausted>,
    /// Real-time mode: messages for other PEs, handed on by whoever
    /// drives this lane.
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

/// One PE's scheduler for the whole run: its state, every future event
/// of the PE, and the outbox for everything that crosses the barrier.
pub(crate) struct Lane {
    pub pe: PeId,
    pub state: PeState,
    /// The PE's future events, keyed `(time, stamp)`. What crosses a
    /// barrier into it carries a run-wide stamp (`Machine::schedule`);
    /// what the lane emits for itself inside its epoch is unstamped, so
    /// it runs after every stamped event of the same time.
    pub queue: EventQueue<Event>,
    /// This epoch's bound: the lane runs its events keyed below it, and
    /// an event it emits at or past `bound.0` — for its own PE too —
    /// belongs to a later epoch and goes through the outbox.
    pub bound: (SimTime, u64),
    /// Time of the latest stamped event this lane has run.
    pub stamped_now: SimTime,
    pub out: Outbox,
}

impl Lane {
    /// PE `pe`'s lane, its queue and outbox pre-sized for `cap` events
    /// so that steady-state epochs allocate nothing.
    pub(crate) fn new(pe: PeId, cap: usize) -> Lane {
        Lane {
            pe,
            state: PeState::default(),
            queue: EventQueue::with_capacity(cap),
            bound: (SimTime::ZERO, 0),
            stamped_now: SimTime::ZERO,
            out: Outbox::with_capacity(cap),
        }
    }

    /// Whether the lane has an event to run below its bound.
    pub(crate) fn has_work(&self) -> bool {
        self.queue.peek_key().is_some_and(|key| key < self.bound)
    }
}

/// What every lane reads and only a barrier (holding `&mut Machine`)
/// writes. The machine owns it; each [`ExecCtx`] borrows it shared, so
/// it must be `Sync`.
pub(crate) struct Shared {
    pub clock: ClockMode,
    pub topology: Topology,
    pub network: NetworkModel,
    /// Where each rank lives: the one record of placement.
    pub location: LocationManager,
    pub ranks: RankTable,
    /// Per-PE HLS block (null when the method has none); installed at
    /// each context switch alongside the rank's registers.
    pub hls: HlsBlocks,
    /// Which PEs are active, and which have failed.
    pub geometry: Geometry,
    pub tracer: Option<Arc<Tracer>>,
    /// Reliable-delivery state, present when the network carries a
    /// fault plan. Behind a mutex so concurrent lanes can share it; the
    /// per-pair keying keeps its evolution deterministic regardless.
    pub reliable: Option<Mutex<ReliableState>>,
    /// One privatizer per simulated OS process.
    pub privatizers: Vec<Box<dyn Privatizer>>,
    /// Present when the memory-safety guards are on: every resume ends
    /// with [`ExecCtx::check_guards`].
    pub guards: Option<Guards>,
    /// Wall-clock origin of real-time trace stamps.
    pub epoch: Instant,
    /// Request-table size cap per rank (open entries, pending or
    /// unreaped); exceeding it is a protocol error.
    pub max_outstanding_reqs: usize,
}

impl Shared {
    /// Trace timestamp on `lane`'s PE: its virtual clock in virtual
    /// mode, wall time since the machine was built otherwise.
    pub(crate) fn now_ns(&self, lane: &Lane) -> u64 {
        match self.clock {
            ClockMode::Virtual => lane.state.clock.nanos(),
            ClockMode::RealTime => self.epoch.elapsed().as_nanos() as u64,
        }
    }

    /// Record a scheduler-side event on `lane`'s PE. Free (one `Option`
    /// branch) when no tracer is attached.
    #[inline]
    pub(crate) fn trace(&self, lane: &Lane, rank: u32, kind: EventKind) {
        if let Some(t) = &self.tracer {
            t.record(lane.pe, rank, self.now_ns(lane), kind);
        }
    }
}

/// The execution context a worker drives: the shared machine state and
/// exactly one lane — the one claimed in a virtual-time epoch, each lane
/// of a worker's chunk in turn in a real-time burst, and at a barrier
/// `Machine::with_lane`'s.
pub(crate) struct ExecCtx<'a> {
    pub shared: &'a Shared,
    pub lane: &'a mut Lane,
}

impl ExecCtx<'_> {
    #[inline]
    pub(crate) fn trace(&self, rank: u32, kind: EventKind) {
        self.shared.trace(self.lane, rank, kind);
    }

    /// Schedule `ev` at `at`: locally when it targets this lane's PE
    /// inside the current epoch, otherwise via the outbox for the
    /// barrier merge.
    fn emit(&mut self, target_pe: PeId, at: SimTime, ev: Event) {
        let lane = &mut *self.lane;
        if target_pe == lane.pe && at < lane.bound.0 {
            let at = at.max_of(lane.queue.now());
            lane.queue.schedule(at, ev);
        } else {
            lane.out.events.push(Some((at, ev)));
        }
    }

    /// Route a message: in real time, deposit it now when its target
    /// lives on this lane and leave it in the outbox for whoever drives
    /// the target's lane otherwise; in virtual time, as an event —
    /// through the reliable-delivery layer when the network is lossy.
    fn route(&mut self, msg: RtsMessage) {
        let shared = self.shared;
        let dest_pe = shared.location.lookup(msg.to);
        match (shared.clock, &shared.reliable) {
            (ClockMode::RealTime, _) if dest_pe == self.lane.pe => self.deposit(msg),
            (ClockMode::RealTime, _) => self.lane.out.unrouted.push(msg),
            (ClockMode::Virtual, Some(rel)) => {
                self.send_reliable(rel, msg);
            }
            (ClockMode::Virtual, None) => {
                let (topology, from_pe) = (&shared.topology, self.lane.pe);
                let cost = shared
                    .network
                    .cost(topology, from_pe, dest_pe, msg.wire_bytes());
                let at = (self.lane.state.clock + cost).max_of(self.lane.queue.now());
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
    fn send_reliable(&mut self, rel: &Mutex<ReliableState>, mut msg: RtsMessage) -> u64 {
        {
            let mut rel = rel.lock();
            let counter = rel.send_seq.entry((msg.from, msg.to)).or_insert(0);
            *counter += 1;
            msg.seq = *counter;
            msg.seal();
            rel.inflight.insert((msg.from, msg.to, msg.seq), msg.clone());
        }
        let seq = msg.seq;
        let t_send = self.lane.state.clock.max_of(self.lane.queue.now());
        self.transmit(rel, t_send, msg, 0);
        seq
    }

    /// Transmit one attempt of an in-flight message: apply the fault
    /// plan per copy (drop/duplicate/corrupt/jitter), schedule surviving
    /// copies for delivery, and arm the retransmit timer.
    ///
    /// Always runs on the *sender's* lane (sends and `Retransmit` events
    /// are both partitioned there), so the fault-plan decisions for one
    /// (src, dst) pair are made in deterministic time order.
    fn transmit(
        &mut self,
        rel: &Mutex<ReliableState>,
        t_send: SimTime,
        msg: RtsMessage,
        attempt: u32,
    ) {
        let shared = self.shared;
        let (from, to, seq) = (msg.from, msg.to, msg.seq);
        let from_pe = shared.location.lookup(from);
        let dest_pe = shared.location.lookup(to);
        let class = NetworkModel::classify(&shared.topology, from_pe, dest_pe);
        let cost = shared
            .network
            .cost(&shared.topology, from_pe, dest_pe, msg.wire_bytes());
        let (plan, base_rto) = {
            let rel = rel.lock();
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
            self.lane.out.tallies.faults.duplicates_injected += 1;
            // The duplicate's own fate is decided independently; its
            // `duplicate` flag is ignored to prevent cascades.
            copies[1] = Some(plan.decide(
                class,
                FaultPlan::message_key(from as u64, to as u64, seq, attempt, 1, FaultStream::Data),
            ));
        }
        for d in copies.into_iter().flatten() {
            if d.drop {
                self.lane.out.tallies.faults.msgs_dropped += 1;
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
            let at = (t_send + cost + d.jitter).max_of(self.lane.queue.now());
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
        let at = (t_send + rto).max_of(self.lane.queue.now());
        let own_pe = self.lane.pe;
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

    /// The retransmit timer armed at transmission `attempt` of `(from,
    /// to, seq)` fired on the sender's lane: nothing to do if an ack came
    /// since, a retransmission while the budget lasts, and otherwise the
    /// verdict — now, when the receiver lives on this lane (its reorder
    /// state at `t` is final), at the barrier when it lives elsewhere.
    fn retransmit(
        &mut self,
        rel: &Mutex<ReliableState>,
        t: SimTime,
        (from, to, seq): (RankId, RankId, u64),
        attempt: u32,
    ) -> Result<(), RtsError> {
        let next = attempt + 1;
        let msg = {
            let mut state = rel.lock();
            let Some(msg) = state.inflight.get(&(from, to, seq)) else {
                return Ok(()); // acked since the timer was armed
            };
            if next < state.max_attempts {
                msg.clone()
            } else if self.shared.location.lookup(to) == self.lane.pe {
                return state.give_up(from, to, seq, next);
            } else {
                drop(state);
                self.lane.out.exhausted.push(Exhausted {
                    at: t,
                    from,
                    to,
                    seq,
                    attempts: next,
                });
                return Ok(());
            }
        };
        self.lane.out.tallies.faults.retransmits += 1;
        self.trace(
            from as u32,
            EventKind::MsgRetransmit {
                from: from as u32,
                to: to as u32,
                seq,
                attempt: next,
            },
        );
        self.transmit(rel, t, msg, next);
        Ok(())
    }

    /// Receive one arriving copy under reliable delivery: verify
    /// integrity, acknowledge, dedup/reorder, and deposit newly in-order
    /// messages to the application. Runs on the receiver's lane.
    fn receive_transport(&mut self, rel: &Mutex<ReliableState>, msg: RtsMessage, t: SimTime) {
        let (from, to, seq) = (msg.from, msg.to, msg.seq);
        if !msg.intact() {
            self.lane.out.tallies.faults.msgs_corrupted += 1;
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
        self.send_ack(rel, from, to, seq, t);

        let (is_dup, ready) = {
            let mut rel = rel.lock();
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
            self.lane.out.tallies.faults.duplicates_suppressed += 1;
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
            self.deposit(m);
        }
    }

    /// Send an acknowledgement back to the sender's PE, itself subject
    /// to the fault plan's drop and jitter on the reverse path. The ack
    /// instance counter is per-(src,dst) pair so its fault decisions
    /// don't depend on cross-pair interleaving.
    fn send_ack(
        &mut self,
        rel: &Mutex<ReliableState>,
        from: RankId,
        to: RankId,
        seq: u64,
        t: SimTime,
    ) {
        let shared = self.shared;
        let recv_pe = self.lane.pe;
        let send_pe = shared.location.lookup(from);
        let class = NetworkModel::classify(&shared.topology, recv_pe, send_pe);
        let cost = shared.network.cost(&shared.topology, recv_pe, send_pe, 32);
        let (plan, instance) = {
            let mut rel = rel.lock();
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
            self.lane.out.tallies.faults.acks_dropped += 1;
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
        let at = (t + cost + d.jitter).max_of(self.lane.queue.now());
        self.emit(send_pe, at, Event::Ack { from, to, seq });
    }

    /// Hand a message to its target's matching engine: it completes the
    /// oldest posted receive it satisfies — at delivery time, not when
    /// the rank later waits — or answers the blocking receive the rank
    /// is parked in, or is buffered as unexpected. The target must live
    /// on this lane.
    pub(crate) fn deposit(&mut self, msg: RtsMessage) {
        let to = msg.to;
        self.lane.out.tallies.delivered += 1;
        // SAFETY: the rank lives on this lane's PE (caller routes here).
        let rs = unsafe { self.shared.ranks.resident_mut(to) };
        rs.messages_received += 1;
        if self.shared.tracer.is_some() {
            self.trace(
                to as u32,
                EventKind::MsgRecv {
                    from: msg.from as u32,
                    tag: msg.tag,
                    bytes: msg.wire_bytes() as u32,
                },
            );
        }
        match rs.matcher.arrive(msg) {
            Arrival::Posted(id, m) => self.complete_req(to, id, Some(m)),
            Arrival::Parked(m) => {
                rs.slot.answer(Response::Message(m));
                self.wake(to);
            }
            Arrival::Queued => {}
        }
    }

    /// Resume a rank whose blocking call was just answered: requeue it
    /// on this lane, scheduling a `PeWake` in virtual mode so the lane's
    /// queue drives it (routed through the outbox past the epoch
    /// horizon).
    fn wake(&mut self, r: RankId) {
        // SAFETY: the rank lives on this lane's PE.
        unsafe { self.shared.ranks.resident_mut(r) }.status = RankStatus::Ready;
        self.trace(r as u32, EventKind::Unblock);
        self.lane.state.ready.push_back(r);
        if self.shared.clock == ClockMode::Virtual {
            let pe = self.lane.pe;
            let at = self.lane.queue.now().max_of(self.lane.state.clock);
            self.emit(pe, at, Event::PeWake { pe });
        }
    }

    /// Mark request `id` on rank `owner` complete, emit/tally the
    /// completion, and — if that satisfies the wait `owner` is suspended
    /// in — reap the wait's outcomes, answer the pending command and
    /// resume the rank. `owner` must live on this lane.
    fn complete_req(&mut self, owner: RankId, id: u64, msg: Option<RtsMessage>) {
        // SAFETY: the rank lives on this lane's PE.
        let rs = unsafe { self.shared.ranks.resident_mut(owner) };
        let (send, satisfied) = rs.matcher.complete(id, msg);
        let req = &mut self.lane.out.tallies.req;
        if send {
            req.send_completes += 1;
        } else {
            req.recv_completes += 1;
        }
        self.trace(owner as u32, EventKind::ReqComplete { req: id, send });
        if satisfied {
            let (cont, outcomes) = rs.matcher.take_wait();
            self.tally_continuations(owner, cont, &outcomes);
            rs.slot.answer(Response::ReqOutcomes(outcomes));
            self.wake(owner);
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
        if to >= self.shared.ranks.len() {
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
        let out = &mut self.lane.out;
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
        owner: RankId,
        cont: bool,
        outcomes: &[(u64, Option<RtsMessage>)],
    ) {
        if !cont {
            return;
        }
        self.lane.out.tallies.req.continuations += outcomes.len() as u64;
        for (id, _) in outcomes {
            self.trace(owner as u32, EventKind::ReqContinuation { req: *id });
        }
    }

    /// Drive one rank until it leaves its stack: a call that must wait,
    /// an error, or the end of its body. Commands that complete run
    /// inside the resume ([`ExecCtx::handle`]). The rank must live on
    /// this lane.
    pub(crate) fn run_rank_slice(&mut self, r: RankId) -> Result<StopReason, RtsError> {
        let pe = self.lane.pe;
        // SAFETY: `r` is resident on this lane's PE (caller checks).
        let rs = unsafe { self.shared.ranks.resident_mut(r) };
        // Context switch: install the rank's privatization registers
        // and this PE's hierarchical-local-storage block.
        rs.instance.activate();
        let hls = self.shared.hls.get(pe);
        if !hls.is_null() {
            pvr_privatize::regs::set_pe_base(hls);
        }
        let now_ns = self.shared.now_ns(self.lane);
        rs.shared.now_ns.store(now_ns, Ordering::Relaxed);
        let out = &mut self.lane.out;
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

        if let Some(guards) = &self.shared.guards {
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
                self.lane.out.tallies.req.leaked += rs.matcher.clear_reqs() as u64;
                self.lane.out.done += 1;
                Ok(StopReason::Done)
            }
            Err(e) => {
                rs.status = RankStatus::Done;
                self.lane.out.done += 1;
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
        debug_assert_eq!(self.lane.out.last_ran, Some(r));
        let shared = self.shared;
        // SAFETY: `r` is resident on this lane's PE and is the caller.
        let rs = unsafe { shared.ranks.resident_mut(r) };
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
                if shared.clock == ClockMode::Virtual {
                    self.lane.state.work(d);
                    rs.load_since_lb += d;
                    rs.total_load += d;
                    let now_ns = self.lane.state.clock.nanos();
                    rs.shared.now_ns.store(now_ns, Ordering::Relaxed);
                    if shared.tracer.is_some() {
                        // the rank keeps running: its own emissions
                        // (`MpiCall`) are stamped with the advanced clock
                        pvr_trace::set_context(self.lane.pe, r as u32, now_ns);
                    }
                }
                Response::Ack
            }
            Command::Yield => {
                self.lane.state.ready.push_back(r);
                return Ok(Handled::Park(StopReason::Yielded));
            }
            Command::AtSync => {
                rs.status = RankStatus::AtSync;
                self.lane.out.at_sync += 1;
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
                    self.lane.out.tallies.hardening.arena_guard_trips += 1;
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
                self.lane.out.tallies.req.send_posts += 1;
                self.trace(r as u32, EventKind::ReqPost { req: id, send: true });
                // `rs` must not be used past here: a send-to-self
                // re-derives the same rank inside `route`/`deposit`.
                match (shared.clock, &shared.reliable) {
                    (ClockMode::Virtual, Some(rel)) => {
                        // completes when the payload's ack arrives back
                        // on this (the sender's) lane
                        let seq = self.send_reliable(rel, msg);
                        let rs = unsafe { shared.ranks.resident_mut(r) };
                        rs.matcher.await_ack(to, seq, id);
                    }
                    _ => {
                        // unconditional delivery: buffered-send
                        // semantics, complete at post
                        self.route(msg);
                        self.complete_req(r, id, None);
                    }
                }
                Response::ReqId(id)
            }
            Command::ReqPostRecv { spec } => {
                self.check_req_capacity(r, rs.matcher.open_reqs())?;
                // An already-buffered match is claimed now, oldest
                // first, which preserves non-overtaking.
                let (id, claimed) = rs.matcher.post_recv(spec);
                self.lane.out.tallies.req.recv_posts += 1;
                self.trace(r as u32, EventKind::ReqPost { req: id, send: false });
                if let Some(m) = claimed {
                    self.complete_req(r, id, Some(m));
                }
                Response::ReqId(id)
            }
            Command::ReqWait { ids, any, cont } => match rs.matcher.wait(ids, any, cont) {
                Ok(outcomes) => {
                    self.tally_continuations(r, cont, &outcomes);
                    Response::ReqOutcomes(outcomes)
                }
                Err(pending) => {
                    rs.status = RankStatus::Waiting;
                    self.lane.out.tallies.req.wait_blocks += 1;
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
                self.tally_continuations(r, cont, &outcomes);
                Response::ReqOutcomes(outcomes)
            }
        };
        Ok(Handled::Done(resp))
    }

    /// Dispatch one virtual-mode event on this lane.
    fn exec_event(&mut self, t: SimTime, ev: Event) -> Result<(), RtsError> {
        let shared = self.shared;
        match ev {
            Event::Deliver {
                msg,
                dest_pe,
                forwarded,
            } => {
                let actual_pe = shared.location.lookup(msg.to);
                debug_assert_eq!(
                    actual_pe, self.lane.pe,
                    "Deliver events are partitioned to the target's lane"
                );
                if actual_pe != dest_pe && !forwarded {
                    // stale location: forward one extra hop (the cost is
                    // charged even though the lane partition already
                    // brought us to the right PE)
                    self.lane.out.forwards += 1;
                    let cost =
                        shared
                            .network
                            .cost(&shared.topology, dest_pe, actual_pe, msg.wire_bytes());
                    self.emit(
                        actual_pe,
                        t + cost,
                        Event::Deliver {
                            msg,
                            dest_pe: actual_pe,
                            forwarded: true,
                        },
                    );
                } else if let Some(rel) = &shared.reliable {
                    self.receive_transport(rel, msg, t);
                } else {
                    self.deposit(msg);
                }
            }
            Event::Ack { from, to, seq } => {
                if let Some(rel) = &shared.reliable {
                    rel.lock().inflight.remove(&(from, to, seq));
                }
                // Ack events are partitioned to the sender's lane, so a
                // nonblocking send waiting on this ack completes here.
                // SAFETY: `from` is resident on this lane's PE.
                let rs = unsafe { shared.ranks.resident_mut(from) };
                if let Some(id) = rs.matcher.acked(to, seq) {
                    self.complete_req(from, id, None);
                }
            }
            Event::Retransmit {
                from,
                to,
                seq,
                attempt,
            } => {
                // only the reliable layer arms retransmit timers
                if let Some(rel) = &shared.reliable {
                    self.retransmit(rel, t, (from, to, seq), attempt)?;
                }
            }
            Event::PeWake { pe } => {
                debug_assert_eq!(pe, self.lane.pe);
                if !shared.geometry.alive()[pe] {
                    return Ok(());
                }
                self.lane.state.advance_to(t);
                while let Some(r) = self.next_ready() {
                    self.run_rank_slice(r)?;
                }
            }
        }
        Ok(())
    }

    /// Pop this PE's next runnable rank, skipping ranks that migrated
    /// while queued (their new PE owns them) or completed.
    fn next_ready(&mut self) -> Option<RankId> {
        let pe = self.lane.pe;
        while let Some(r) = self.lane.state.ready.pop_front() {
            if self.shared.location.lookup(r) == pe && !self.shared.ranks[r].is_done() {
                return Some(r);
            }
        }
        None
    }

    /// Drive this lane through its share of an epoch: pop the lane's
    /// queue in (time, stamp) order up to its bound. The first error
    /// stops this lane (class 0) but not its siblings; the barrier picks
    /// the canonical error across lanes.
    pub(crate) fn run_epoch(&mut self) {
        while let Some((t, stamp, ev)) = self.lane.queue.pop_before(self.lane.bound) {
            if stamp < UNSTAMPED {
                self.lane.stamped_now = t;
            }
            if let Err(e) = self.exec_event(t, ev) {
                self.lane.out.error = Some((t, 0, e));
                return;
            }
        }
    }

    /// This lane's turn in a real-time sweep: at most one rank slice, so
    /// an early PE's deep ready queue cannot starve later PEs. Returns
    /// whether a slice ran.
    pub(crate) fn real_slice(&mut self) -> Result<bool, RtsError> {
        if !self.shared.geometry.alive()[self.lane.pe] {
            return Ok(false);
        }
        let Some(r) = self.next_ready() else {
            return Ok(false);
        };
        self.run_rank_slice(r)?;
        Ok(true)
    }
}
