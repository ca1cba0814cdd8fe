//! Reliable delivery over a lossy network (a [`FaultPlan`] attached to
//! the network model; virtual clock only): per-pair sequence numbers,
//! integrity seals, acks, retransmit timers with a bounded budget, and
//! an in-order, exactly-once reorder buffer at the receiver.
//!
//! Each rank owns its side of every pair in its [`Transport`], beside
//! its matcher in `RankState`, and every step runs on the lane that owns
//! the rank it touches: a send, its retransmit timers and its acks on
//! the sender's (`Event::pe`), an arrival and the ack it answers
//! on the receiver's. Each pair's fault decisions are therefore made in
//! one lane's time order, and a migration carries the state with the
//! rank (`Machine::place`). The state is not rank memory: it rolls
//! forward across a checkpoint rollback, so replayed application sends
//! take fresh sequence numbers and both ends stay consistent.

use crate::event::Event;
use crate::machine::RtsError;
use crate::matching::FixedMap;
use crate::message::RtsMessage;
use crate::worker::ExecCtx;
use crate::RankId;
use pvr_des::{FaultPlan, FaultStream, NetworkModel, SimDuration, SimTime};
use pvr_trace::{EventKind, NO_RANK};
use std::collections::BTreeMap;

/// The layer's parameters, fixed for the run.
pub(crate) struct TransportParams {
    pub plan: FaultPlan,
    /// Base retransmission timeout added on top of the modeled path cost.
    pub base_rto: SimDuration,
    /// Total transmission attempts allowed per message (1 original +
    /// `max_attempts - 1` retransmits).
    pub max_attempts: u32,
}

/// One rank's reliable-delivery state, keyed by peer rank.
#[derive(Default)]
pub(crate) struct Transport {
    /// Last sequence number sent to each peer (assigned from 1).
    sent: FixedMap<RankId, u64>,
    /// This rank's sends not yet acknowledged, by (destination, seq).
    unacked: FixedMap<(RankId, u64), RtsMessage>,
    /// Receive state per source.
    recv: FixedMap<RankId, PairRecv>,
}

/// What a receiver keeps for one source: in-order exactly-once delivery
/// through a reorder buffer keyed by sequence number.
#[derive(Default)]
struct PairRecv {
    /// Last sequence number released to the application (0: none yet).
    released: u64,
    /// Out-of-order arrivals awaiting the gap to fill.
    pending: BTreeMap<u64, RtsMessage>,
    /// Acks sent for this source so far: keys their fault decisions.
    ack_seq: u64,
}

impl Transport {
    /// The send of `seq` to `to` was acknowledged.
    pub(crate) fn acked(&mut self, to: RankId, seq: u64) {
        self.unacked.remove(&(to, seq));
    }

    /// Whether this rank released `from`'s message `seq` to its matcher.
    pub(crate) fn released(&self, from: RankId, seq: u64) -> bool {
        self.recv.get(&from).is_some_and(|p| p.released >= seq)
    }

    /// Take `from`'s next in-order message, if it has arrived.
    fn next_in_order(&mut self, from: RankId) -> Option<RtsMessage> {
        let pair = self.recv.get_mut(&from)?;
        let m = pair.pending.remove(&(pair.released + 1))?;
        pair.released += 1;
        Some(m)
    }
}

/// Transmission `attempts` of `(from, to, seq)` was the last the budget
/// allows and no ack has come back. Judged on the sender's lane when the
/// receiver lives there too (its reorder state at `at` is final), else
/// at the barrier, once the receiver's lane has finished the epoch.
pub(crate) struct Exhausted {
    pub at: SimTime,
    pub from: RankId,
    pub to: RankId,
    pub seq: u64,
    pub attempts: u32,
}

impl Exhausted {
    /// The verdict, given the sender's state and whether the receiver
    /// released the message: if it did, or an ack came since, only acks
    /// were lost and the message is forgotten quietly; otherwise it is
    /// undeliverable.
    pub(crate) fn judge(&self, sender: &mut Transport, released: bool) -> Result<(), RtsError> {
        let &Exhausted {
            from,
            to,
            seq,
            attempts,
            ..
        } = self;
        if sender.unacked.remove(&(to, seq)).is_some() && !released {
            return Err(RtsError::DeliveryFailed {
                from,
                to,
                seq,
                attempts,
            });
        }
        Ok(())
    }
}

impl ExecCtx<'_> {
    /// Assign the pair's next sequence number, seal the message, keep it
    /// until acknowledged, and transmit attempt 0. Returns the sequence
    /// number so a nonblocking send can key its completion on the ack.
    /// Runs on the sender's lane.
    pub(crate) fn send_reliable(&mut self, rel: &TransportParams, mut msg: RtsMessage) -> u64 {
        let tr = &mut self.lane.ranks[msg.from].transport;
        let sent = tr.sent.entry(msg.to).or_insert(0);
        *sent += 1;
        msg.seq = *sent;
        msg.seal();
        tr.unacked.insert((msg.to, msg.seq), msg.clone());
        let seq = msg.seq;
        let t_send = self.lane.state.clock.max_of(self.lane.queue.now());
        self.transmit(rel, t_send, msg, 0);
        seq
    }

    /// Transmit one attempt of an unacknowledged message: apply the fault
    /// plan per copy (drop/duplicate/corrupt/jitter), schedule surviving
    /// copies for delivery, and arm the retransmit timer.
    fn transmit(&mut self, rel: &TransportParams, t_send: SimTime, msg: RtsMessage, attempt: u32) {
        let shared = self.shared;
        let (from, to, seq) = (msg.from, msg.to, msg.seq);
        let from_pe = shared.location.lookup(from);
        let dest_pe = shared.location.lookup(to);
        let class = NetworkModel::classify(&shared.topology, from_pe, dest_pe);
        let cost = shared
            .network
            .cost(&shared.topology, from_pe, dest_pe, msg.wire_bytes());
        let plan = rel.plan;

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
            self.emit(dest_pe, at, Event::deliver(copy, dest_pe));
        }

        // Retransmit timer: a generous multiple of the modeled round
        // trip plus the configured base, doubling per attempt.
        let rtt_estimate = SimDuration::from_nanos(cost.nanos().saturating_mul(4));
        let rto = SimDuration::from_nanos(
            (rel.base_rto.nanos() + rtt_estimate.nanos()) << attempt.min(20),
        );
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
    /// verdict — now, when the receiver lives on this lane, at the
    /// barrier when it lives elsewhere.
    pub(crate) fn retransmit(
        &mut self,
        rel: &TransportParams,
        t: SimTime,
        (from, to, seq): (RankId, RankId, u64),
        attempt: u32,
    ) -> Result<(), RtsError> {
        let next = attempt + 1;
        let ranks = &mut self.lane.ranks;
        let Some(msg) = ranks[from].transport.unacked.get(&(to, seq)) else {
            return Ok(()); // acked since the timer was armed
        };
        if next < rel.max_attempts {
            let msg = msg.clone();
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
            return Ok(());
        }
        let ex = Exhausted {
            at: t,
            from,
            to,
            seq,
            attempts: next,
        };
        if self.shared.location.lookup(to) != self.lane.pe {
            self.lane.out.exhausted.push(ex);
            return Ok(());
        }
        let released = ranks[to].transport.released(from, seq);
        ex.judge(&mut ranks[from].transport, released)
    }

    /// Receive one arriving copy: verify integrity, acknowledge,
    /// dedup/reorder, and deposit newly in-order messages to the
    /// application. Runs on the receiver's lane.
    pub(crate) fn receive_transport(&mut self, rel: &TransportParams, msg: RtsMessage, t: SimTime) {
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

        let pair = self.lane.ranks[to].transport.recv.entry(from).or_default();
        if seq <= pair.released || pair.pending.contains_key(&seq) {
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
        pair.pending.insert(seq, msg);
        while let Some(m) = self.lane.ranks[to].transport.next_in_order(from) {
            self.deposit(m);
        }
    }

    /// Send an acknowledgement back to the sender's PE, itself subject
    /// to the fault plan's drop and jitter on the reverse path. Its fault
    /// decision is keyed by the receiver's count of acks for the pair.
    fn send_ack(&mut self, rel: &TransportParams, from: RankId, to: RankId, seq: u64, t: SimTime) {
        let shared = self.shared;
        let recv_pe = self.lane.pe;
        let send_pe = shared.location.lookup(from);
        let class = NetworkModel::classify(&shared.topology, recv_pe, send_pe);
        let cost = shared.network.cost(&shared.topology, recv_pe, send_pe, 32);
        let pair = self.lane.ranks[to].transport.recv.entry(from).or_default();
        pair.ack_seq += 1;
        let instance = pair.ack_seq;
        let d = rel.plan.decide(
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
}
