//! Lane-level execution: a PE's scheduler, driven through an
//! [`ExecCtx`] — one context, one lane.
//!
//! The machine keeps one [`Lane`] per PE for the whole run (the PE's
//! scheduler state, the ranks that live on it, the queue of its future
//! events, its real-time inbox, its outbox) and one [`Shared`] that every
//! lane reads and only barriers write. The epoch-barrier protocol keeps
//! parallel runs identical to serial ones: the machine bounds an epoch —
//! by the lane heads in virtual time; in real time an epoch is a round —
//! and the engine's workers drive each lane with work exactly once. A
//! lane owns its ranks ([`Residents`]), so during an epoch it can reach
//! no other lane's; everything that would cross a lane boundary — events
//! and real-time messages for other PEs, events for a later epoch,
//! tallies, errors, retransmit-exhaustion verdicts — is buffered in the
//! lane's [`Outbox`] and merged deterministically at the barrier, and a
//! rank changes lanes only there (`Machine::place`).
//!
//! ## Send-safety audit
//!
//! What actually crosses threads here, and why each is sound:
//!
//! * **Lanes**, with their ranks: owned by the machine for the whole run;
//!   during an epoch (a round, in real time) each is reached through
//!   exactly one `ExecCtx`, the one whose worker claimed it. Which OS
//!   thread drives a lane differs from epoch to epoch; nothing a lane
//!   reads depends on it.
//! * **ULTs** (`RankState::ult`): a suspended ULT is a heap stack plus a
//!   saved stack pointer, resumed only by the lane that holds its rank.
//!   The ULT never moves between threads *while running* — only while
//!   suspended, which is a plain memory hand-off ordered by the worker
//!   pool's publish (`Release` store of the job's generation) and
//!   completion (`Release` decrement of its pending count) edges.
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

use crate::command::MatchSpec;
use crate::guards::Guards;
use crate::location::LocationManager;
use crate::machine::{arena_trip_kind, ClockMode, Event, ReliableState, RtsError};
use crate::matching::{Arrival, FixedMap, Outcomes};
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
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The ranks that live on one lane, indexed by [`RankId`]: a rank's slot
/// is filled on exactly one lane, the one the directory
/// (`Shared::location`) names. `Machine::place` moves it, at a barrier.
pub(crate) struct Residents(Vec<Option<Box<RankState>>>);

impl Residents {
    fn new(n_ranks: usize) -> Residents {
        Residents((0..n_ranks).map(|_| None).collect())
    }

    pub(crate) fn get(&self, r: RankId) -> Option<&RankState> {
        self.0[r].as_deref()
    }

    pub(crate) fn take(&mut self, r: RankId) -> Option<Box<RankState>> {
        self.0[r].take()
    }

    pub(crate) fn put(&mut self, r: RankId, state: Option<Box<RankState>>) {
        debug_assert!(self.0[r].is_none(), "rank {r} already lives here");
        self.0[r] = state;
    }
}

impl std::ops::Index<RankId> for Residents {
    type Output = RankState;
    fn index(&self, r: RankId) -> &RankState {
        match &self.0[r] {
            Some(state) => state,
            None => panic!("rank {r} does not live on this lane"),
        }
    }
}

impl std::ops::IndexMut<RankId> for Residents {
    fn index_mut(&mut self, r: RankId) -> &mut RankState {
        match &mut self.0[r] {
            Some(state) => state,
            None => panic!("rank {r} does not live on this lane"),
        }
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
    /// Deferred retransmit-exhaustion verdicts (see [`Exhausted`]).
    pub exhausted: Vec<Exhausted>,
    /// Real-time mode: messages for other PEs, in emission order; the
    /// barrier merge moves each once into its target lane's inbox.
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
        exhausted.clear();
        unrouted.clear();
        *error = None;
        *last_ran = None;
    }
}

/// One PE's scheduler for the whole run: its state, its ranks, every
/// future event of the PE, and the outbox for everything that crosses
/// the barrier.
pub(crate) struct Lane {
    pub pe: PeId,
    pub state: PeState,
    pub ranks: Residents,
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
    /// Real-time mode: what other PEs sent this one in the last round,
    /// deposited when the lane's next round begins.
    pub inbox: Vec<RtsMessage>,
    pub out: Outbox,
}

impl Lane {
    /// PE `pe`'s lane, with no rank yet, its queue and outbox pre-sized
    /// for `cap` events so that steady-state epochs allocate nothing.
    pub(crate) fn new(pe: PeId, n_ranks: usize, cap: usize) -> Lane {
        Lane {
            pe,
            state: PeState::default(),
            ranks: Residents::new(n_ranks),
            queue: EventQueue::with_capacity(cap),
            bound: (SimTime::ZERO, 0),
            stamped_now: SimTime::ZERO,
            inbox: Vec::new(),
            out: Outbox::with_capacity(cap),
        }
    }

    /// Whether the lane has something to run in its epoch: in virtual
    /// time an event below its bound; in real time, on a PE that is
    /// alive, mail in its inbox or a rank on its ready queue.
    pub(crate) fn has_work(&self, shared: &Shared) -> bool {
        match shared.clock {
            ClockMode::Virtual => self.queue.peek_key().is_some_and(|key| key < self.bound),
            ClockMode::RealTime => {
                shared.geometry.alive()[self.pe]
                    && !(self.inbox.is_empty() && self.state.ready.is_empty())
            }
        }
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
    /// Per-PE HLS block (null when the method has none), installed at
    /// each context switch alongside the rank's registers. Written once,
    /// at build, before the worker pool's publish edge that first hands
    /// a lane to another thread: atomic only to be `Sync`, and read with
    /// a `Relaxed` load, which is a plain load.
    pub hls: Vec<AtomicPtr<u8>>,
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
/// exactly one lane — the one its worker claimed for an epoch or a
/// real-time round, and at a barrier `Machine::with_lane`'s.
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
    /// lives on this lane and leave it in the outbox for the barrier to
    /// move into the target's inbox otherwise; in virtual time, as an
    /// event — through the reliable-delivery layer when the network is
    /// lossy.
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
        let rs = &mut self.lane.ranks[to];
        rs.messages_received += 1;
        match rs.matcher.arrive(msg) {
            Arrival::Posted(id, m) => self.complete_req(to, id, Some(m)),
            Arrival::Parked(m) => {
                rs.slot.message.set(Some(m));
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
        self.lane.ranks[r].status = RankStatus::Ready;
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
    /// in — reap the wait's outcomes, answer the wait and resume the
    /// rank. `owner` must live on this lane.
    fn complete_req(&mut self, owner: RankId, id: u64, msg: Option<RtsMessage>) {
        let (send, satisfied) = self.lane.ranks[owner].matcher.complete(id, msg);
        let req = &mut self.lane.out.tallies.req;
        if send {
            req.send_completes += 1;
        } else {
            req.recv_completes += 1;
        }
        self.trace(owner as u32, EventKind::ReqComplete { req: id, send });
        if satisfied {
            let (cont, outcomes) = self.lane.ranks[owner].matcher.take_wait();
            self.tally_continuations(owner, cont, &outcomes);
            self.lane.ranks[owner].slot.outcomes.set(Some(outcomes));
            self.wake(owner);
        }
    }

    /// Build rank `r`'s next outgoing message and count it (the rank's
    /// sends, the envelope pool, the communication matrix, the trace).
    /// `what` names the call in the error for a nonexistent destination.
    fn outgoing(
        &mut self,
        r: RankId,
        to: RankId,
        tag: u64,
        payload: bytes::Bytes,
        what: &str,
    ) -> Result<RtsMessage, RtsError> {
        if to >= self.shared.location.n_ranks() {
            return Err(RtsError::Protocol {
                rank: r,
                detail: format!("{what} to nonexistent rank {to}"),
            });
        }
        let msg = RtsMessage::new(r, to, tag, payload);
        self.lane.ranks[r].messages_sent += 1;
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
    /// an error, or the end of its body. The rank's calls that complete
    /// run inside the resume (the methods below). The rank must live on
    /// this lane.
    pub(crate) fn run_rank_slice(&mut self, r: RankId) -> Result<(), RtsError> {
        let pe = self.lane.pe;
        // Context switch: the trace context first (installing records
        // under it), the rank's registers, this PE's local-storage block.
        if self.shared.tracer.is_some() {
            pvr_trace::set_context(pe, r as u32, self.shared.now_ns(self.lane));
        }
        let rs = &mut self.lane.ranks[r];
        rs.instance.activate();
        let hls = self.shared.hls[pe].load(Ordering::Relaxed);
        if !hls.is_null() {
            pvr_privatize::regs::set_pe_base(hls);
        }
        let ctx_work = rs.instance.has_ctx_work();
        let mut ult = rs.ult.take().expect("rank ULT present");
        // the rank's calls re-derive its state: hold no borrow across them
        let slot = rs.slot.clone();
        let out = &mut self.lane.out;
        out.tallies.switches += 1;
        out.last_ran = Some(r);
        self.trace(r as u32, EventKind::CtxSwitchIn { ctx_work });

        // Only real-time runs measure load by the wall clock.
        let t0 = (self.shared.clock == ClockMode::RealTime).then(Instant::now);
        let (outcome, stop) = slot.resume(self, &mut ult);
        let rs = &mut self.lane.ranks[r];
        rs.ult = Some(ult);

        if let Some(t0) = t0 {
            let d: SimDuration = t0.elapsed().into();
            rs.load_since_lb += d;
            rs.total_load += d;
        }

        if let Some(guards) = &self.shared.guards {
            self.check_guards(guards, r)?;
        }

        let rs = &mut self.lane.ranks[r];
        match outcome {
            Ok(pvr_ult::UltState::Complete) => {
                rs.status = RankStatus::Done;
                // Leaked requests (never waited on, or completed but
                // never reaped) are cleaned up here so a finished
                // rank's table cannot pin messages or wake logic.
                self.lane.out.tallies.req.leaked += rs.matcher.clear_reqs() as u64;
                self.lane.out.done += 1;
                Ok(())
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
                    detail: "rank yielded outside a RankCtx call".into(),
                })
            }),
        }
    }

    // The calls rank `r`, the one this lane is running, makes **on its own
    // stack** (`RankCtx`, through `Slot::resume`'s pointer). Only `recv`,
    // `req_wait`, `yield_now` and `at_sync` park it. Each re-derives the
    // rank's state after a call on `self`: a send to itself reaches the
    // same rank inside `route`.

    pub(crate) fn send(
        &mut self,
        r: RankId,
        to: RankId,
        tag: u64,
        payload: bytes::Bytes,
    ) -> Result<(), RtsError> {
        let msg = self.outgoing(r, to, tag, payload, "send")?;
        self.route(msg);
        Ok(())
    }

    /// The oldest buffered message `spec` accepts. With `block`, having
    /// none parks the rank until `deposit` answers it.
    pub(crate) fn recv(&mut self, r: RankId, spec: MatchSpec, block: bool) -> Option<RtsMessage> {
        let rs = &mut self.lane.ranks[r];
        let m = rs.matcher.recv(spec, block);
        if m.is_none() && block {
            rs.status = RankStatus::Waiting;
            self.trace(r as u32, EventKind::Block);
        }
        m
    }

    /// Advance the PE's virtual clock by `d` of work; in real time the
    /// work physically happened and nothing is declared.
    pub(crate) fn compute(&mut self, r: RankId, d: SimDuration) {
        if self.shared.clock == ClockMode::Virtual {
            let lane = &mut *self.lane;
            lane.state.work(d);
            let rs = &mut lane.ranks[r];
            rs.load_since_lb += d;
            rs.total_load += d;
            if self.shared.tracer.is_some() {
                // the rank keeps running: its own emissions (`MpiCall`)
                // are stamped with the advanced clock
                pvr_trace::set_context(lane.pe, r as u32, lane.state.clock.nanos());
            }
        }
    }

    /// The rank stays ready and parks, to let other ranks run.
    pub(crate) fn yield_now(&mut self, r: RankId) {
        self.lane.state.ready.push_back(r);
    }

    /// The rank parks at the load-balancing barrier.
    pub(crate) fn at_sync(&mut self, r: RankId) {
        self.lane.ranks[r].status = RankStatus::AtSync;
        self.lane.out.at_sync += 1;
    }

    pub(crate) fn heap_alloc(
        &mut self,
        r: RankId,
        size: usize,
        align: usize,
    ) -> Result<*mut u8, RtsError> {
        let heap = self.lane.ranks[r].memory.heap();
        let ptr = heap.alloc(size, align).map_err(PrivatizeError::Alloc)?;
        Ok(ptr.ptr)
    }

    /// Return an allocation to the rank's heap. With the arena guard
    /// enabled, an invalid free (double free, foreign pointer) or a write
    /// through a stale pointer is a rank-attributed error, and the rank's
    /// corrupted heap does not run further.
    pub(crate) fn heap_free(&mut self, r: RankId, ptr: IsoPtr) -> Result<(), RtsError> {
        let Err(v) = self.lane.ranks[r].memory.heap().try_dealloc(ptr) else {
            return Ok(());
        };
        let kind = arena_trip_kind(&v);
        self.trace(r as u32, EventKind::ArenaGuardTrip { kind });
        self.lane.out.tallies.hardening.arena_guard_trips += 1;
        Err(RtsError::ArenaGuard {
            rank: r,
            detail: v.to_string(),
        })
    }

    pub(crate) fn req_post_send(
        &mut self,
        r: RankId,
        to: RankId,
        tag: u64,
        payload: bytes::Bytes,
    ) -> Result<u64, RtsError> {
        self.check_req_capacity(r, self.lane.ranks[r].matcher.open_reqs())?;
        let msg = self.outgoing(r, to, tag, payload, "isend")?;
        let id = self.lane.ranks[r].matcher.post_send();
        self.lane.out.tallies.req.send_posts += 1;
        self.trace(
            r as u32,
            EventKind::ReqPost {
                req: id,
                send: true,
            },
        );
        match (self.shared.clock, &self.shared.reliable) {
            (ClockMode::Virtual, Some(rel)) => {
                // completes when the payload's ack arrives back on this
                // (the sender's) lane
                let seq = self.send_reliable(rel, msg);
                self.lane.ranks[r].matcher.await_ack(to, seq, id);
            }
            _ => {
                // unconditional delivery: buffered-send semantics,
                // complete at post
                self.route(msg);
                self.complete_req(r, id, None);
            }
        }
        Ok(id)
    }

    pub(crate) fn req_post_recv(&mut self, r: RankId, spec: MatchSpec) -> Result<u64, RtsError> {
        self.check_req_capacity(r, self.lane.ranks[r].matcher.open_reqs())?;
        // An already-buffered match is claimed now, oldest first, which
        // preserves non-overtaking.
        let (id, claimed) = self.lane.ranks[r].matcher.post_recv(spec);
        self.lane.out.tallies.req.recv_posts += 1;
        self.trace(
            r as u32,
            EventKind::ReqPost {
                req: id,
                send: false,
            },
        );
        if let Some(m) = claimed {
            self.complete_req(r, id, Some(m));
        }
        Ok(id)
    }

    /// The outcomes of the wait on `ids`, if it is satisfied now; `None`
    /// parks the rank until `complete_req` answers it.
    pub(crate) fn req_wait(
        &mut self,
        r: RankId,
        ids: Vec<u64>,
        any: bool,
        cont: bool,
    ) -> Option<Outcomes> {
        match self.lane.ranks[r].matcher.wait(ids, any, cont) {
            Ok(outcomes) => {
                self.tally_continuations(r, cont, &outcomes);
                Some(outcomes)
            }
            Err(pending) => {
                self.lane.ranks[r].status = RankStatus::Waiting;
                self.lane.out.tallies.req.wait_blocks += 1;
                self.trace(r as u32, EventKind::Block);
                let waiting = pending as u32;
                self.trace(r as u32, EventKind::ReqWaitBlock { waiting });
                None
            }
        }
    }

    pub(crate) fn req_test(&mut self, r: RankId, ids: &[u64], cont: bool) -> Outcomes {
        let outcomes = self.lane.ranks[r].matcher.reap(ids, true);
        self.tally_continuations(r, cont, &outcomes);
        outcomes
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
                if let Some(id) = self.lane.ranks[from].matcher.acked(to, seq) {
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
        while let Some(r) = self.lane.state.ready.pop_front() {
            if self.runs_here(r) {
                return Some(r);
            }
        }
        None
    }

    /// Whether queued rank `r` still runs on this lane: it may have
    /// migrated while queued (its new PE owns it) or completed.
    fn runs_here(&self, r: RankId) -> bool {
        self.lane.ranks.get(r).is_some_and(|rs| !rs.is_done())
    }

    /// Drive this lane through its share of an epoch. In virtual time:
    /// pop the lane's queue in (time, stamp) order up to its bound. In
    /// real time, one round: deposit the inbox, then give one slice to
    /// each rank ready at that point — one woken or requeued by the
    /// round runs in the next — so that one PE's deep ready queue cannot
    /// starve the others. The first error stops this lane
    /// (class 0) but not its siblings; the barrier picks the canonical
    /// error across lanes.
    pub(crate) fn run_epoch(&mut self) {
        if let Err((t, e)) = match self.shared.clock {
            ClockMode::Virtual => self.run_events(),
            ClockMode::RealTime => self.run_round().map_err(|e| (SimTime::ZERO, e)),
        } {
            self.lane.out.error = Some((t, 0, e));
        }
    }

    fn run_events(&mut self) -> Result<(), (SimTime, RtsError)> {
        while let Some((t, stamp, ev)) = self.lane.queue.pop_before(self.lane.bound) {
            if stamp < UNSTAMPED {
                self.lane.stamped_now = t;
            }
            self.exec_event(t, ev).map_err(|e| (t, e))?;
        }
        Ok(())
    }

    fn run_round(&mut self) -> Result<(), RtsError> {
        let mut inbox = std::mem::take(&mut self.lane.inbox);
        for m in inbox.drain(..) {
            self.deposit(m);
        }
        self.lane.inbox = inbox;
        for _ in 0..self.lane.state.ready.len() {
            let Some(r) = self.lane.state.ready.pop_front() else {
                break;
            };
            if self.runs_here(r) {
                self.run_rank_slice(r)?;
            }
        }
        Ok(())
    }
}
