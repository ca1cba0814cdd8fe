//! Virtual-time events: what a lane's queue holds, which lane each one
//! belongs to, and how same-time messages for one rank share one event.
//!
//! ## Runs
//!
//! A window of sends with no compute between them leaves at one virtual
//! time for one destination. A message joins the [`MsgRun`] of the
//! delivery this lane emitted last on the path it takes — the last entry
//! its own queue scheduled, or the last entry of its outbox — when that
//! delivery is for the same rank, on the same PE, at the same time.
//! Anything else the lane emits on that path closes the run. A run is
//! stamped once at the barrier, queued once, popped once, and its
//! messages are deposited in emission order.
//!
//! The schedule is that of one event per message. The barrier merge
//! stamps one lane's same-time events consecutively in emission order,
//! and a lane's queue numbers its own events consecutively, so the
//! messages of a run would have held adjacent keys: no event in any
//! queue has a key between them — a move cannot re-home one there
//! either — and they would have popped back to back. What a deposit
//! emits is unstamped or crosses a barrier, so it sorts after the run's
//! last message either way. A run therefore occupies exactly the queue
//! positions its messages held.
//!
//! The reliable-delivery layer (`transport.rs`) and a forwarded delivery
//! keep one message per event. A run whose rank moved is forwarded
//! message by message, in order, as its messages would have been.
//!
//! A run's buffer is recycled: the lane that drains it keeps it when the
//! run's first sender lives there and otherwise hands it to its outbox,
//! whose merge gives it to the lane that sender lives on.

use crate::location::LocationManager;
use crate::message::RtsMessage;
use crate::worker::ExecCtx;
use crate::{PeId, RankId};
use pvr_des::SimTime;

/// Virtual-mode events.
pub(crate) enum Event {
    /// A run of messages for `run.first.to`: same-time messages this lane
    /// emitted back to back on one path, closed by anything else it emits
    /// there. Its one key stands for the adjacent keys they would have
    /// held ("Runs" above). `dest_pe` is the PE the rank lived on when the
    /// run was emitted (stale after a move: the lane that pops it forwards
    /// it one more hop).
    Deliver {
        run: MsgRun,
        dest_pe: PeId,
        forwarded: bool,
    },
    PeWake {
        pe: PeId,
    },
    /// Reliable delivery: an acknowledgement for `(from, to, seq)`
    /// arrived back at the sender.
    Ack {
        from: RankId,
        to: RankId,
        seq: u64,
    },
    /// Reliable delivery: the retransmit timer armed at transmission
    /// `attempt` of `(from, to, seq)` fired.
    Retransmit {
        from: RankId,
        to: RankId,
        seq: u64,
        attempt: u32,
    },
}

impl Event {
    /// The delivery of `msg` alone, to `dest_pe`.
    pub(crate) fn deliver(msg: RtsMessage, dest_pe: PeId) -> Event {
        Event::Deliver {
            run: MsgRun::one(msg),
            dest_pe,
            forwarded: false,
        }
    }

    /// The lane this event belongs to. `Deliver` follows the target's
    /// *current* placement (stale `dest_pe` stamps still pay the forward
    /// hop); reliable-layer timers run on the sender's lane.
    pub(crate) fn pe(&self, location: &LocationManager) -> PeId {
        match self {
            Event::Deliver { run, .. } => location.lookup(run.first.to),
            Event::PeWake { pe } => *pe,
            Event::Ack { from, .. } | Event::Retransmit { from, .. } => location.lookup(*from),
        }
    }
}

/// The messages one delivery carries, in emission order: all for one
/// rank, emitted back to back by one lane at one virtual time.
pub(crate) struct MsgRun {
    first: RtsMessage,
    /// The messages after `first`: empty, holding no buffer, until a
    /// second one joins; then a recycled buffer.
    rest: Vec<RtsMessage>,
}

impl MsgRun {
    fn one(msg: RtsMessage) -> MsgRun {
        MsgRun {
            first: msg,
            rest: Vec::new(),
        }
    }
}

impl ExecCtx<'_> {
    /// Schedule `ev` at `at`: locally when it targets this lane's PE
    /// inside the current epoch, otherwise via the outbox for the
    /// barrier merge.
    pub(crate) fn emit(&mut self, target_pe: PeId, at: SimTime, ev: Event) {
        let lane = &mut *self.lane;
        if target_pe == lane.pe && at < lane.bound.0 {
            let at = at.max_of(lane.queue.now());
            lane.queue.schedule(at, ev);
        } else {
            lane.out.events.push((at, ev));
        }
    }

    /// Emit the delivery of `msg` to `dest_pe` at `at`: into the run of
    /// the event this lane emitted last on the same path when that
    /// delivers to the same rank on `dest_pe` at the same time, as an
    /// event of its own otherwise.
    pub(crate) fn emit_deliver(&mut self, dest_pe: PeId, at: SimTime, msg: RtsMessage) {
        let lane = &mut *self.lane;
        let tail = if dest_pe == lane.pe && at < lane.bound.0 {
            lane.queue.last_scheduled_mut(at.max_of(lane.queue.now()))
        } else {
            let last = lane.out.events.last_mut();
            last.filter(|(t, _)| *t == at).map(|(_, ev)| ev)
        };
        match tail {
            Some(Event::Deliver {
                run,
                dest_pe: pe,
                forwarded: false,
            }) if run.first.to == msg.to && *pe == dest_pe => {
                if run.rest.capacity() == 0 {
                    run.rest = lane.run_buffers.pop().unwrap_or_default();
                }
                run.rest.push(msg);
            }
            _ => self.emit(dest_pe, at, Event::deliver(msg, dest_pe)),
        }
    }

    /// Deliver `run`, popped at `t`: forward each message one more hop
    /// when its rank moved since the run was addressed to `dest_pe`, hand
    /// it to the reliable-delivery layer on a lossy network, and deposit
    /// each message otherwise.
    pub(crate) fn deliver(&mut self, t: SimTime, run: MsgRun, dest_pe: PeId, forwarded: bool) {
        let shared = self.shared;
        let MsgRun { first, mut rest } = run;
        let from = first.from;
        let actual_pe = shared.location.lookup(first.to);
        debug_assert_eq!(
            actual_pe, self.lane.pe,
            "Deliver events are partitioned to the target's lane"
        );
        if actual_pe != dest_pe && !forwarded {
            // stale location: forward one extra hop (the cost is charged
            // even though the lane partition already brought us to the
            // right PE)
            for msg in std::iter::once(first).chain(rest.drain(..)) {
                let cost =
                    shared
                        .network
                        .cost(&shared.topology, dest_pe, actual_pe, msg.wire_bytes());
                let ev = Event::Deliver {
                    run: MsgRun::one(msg),
                    dest_pe: actual_pe,
                    forwarded: true,
                };
                self.emit(actual_pe, t + cost, ev);
            }
        } else if let Some(rel) = &shared.reliable {
            debug_assert!(
                rest.is_empty(),
                "the reliable layer sends one message per event"
            );
            self.receive_transport(rel, first, t);
        } else {
            self.deposit(first);
            for msg in rest.drain(..) {
                self.deposit(msg);
            }
        }
        if rest.capacity() > 0 {
            let lane = &mut *self.lane;
            if shared.location.lookup(from) == lane.pe {
                lane.run_buffers.push(rest);
            } else {
                lane.out.spent_runs.push((from, rest));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{MatchSpec, RankCtx};
    use crate::machine::tests::builder;
    use bytes::Bytes;
    use pvr_des::Topology;
    use std::sync::Arc;

    fn msg(from: RankId, to: RankId, tag: u64) -> RtsMessage {
        RtsMessage::new(from, to, tag, Bytes::new())
    }

    /// The tags an event carries, in order; none for a wake.
    fn tags(ev: &Event) -> Vec<u64> {
        match ev {
            Event::Deliver { run, .. } => std::iter::once(&run.first)
                .chain(&run.rest)
                .map(|m| m.tag)
                .collect(),
            _ => Vec::new(),
        }
    }

    #[test]
    fn a_run_holds_same_time_messages_for_one_rank_until_another_event() {
        // ranks 0 and 1 on PE 0, 2 and 3 on PE 1; no rank body runs
        let mut m = builder()
            .topology(Topology::non_smp(2))
            .vp_ratio(2)
            .build(Arc::new(|_: RankCtx| {}))
            .unwrap();
        let (t, later) = (SimTime(10), SimTime(11));
        let lane = &mut m.driver.lanes[0];
        lane.bound = (SimTime(100), 0);
        let mut ctx = ExecCtx {
            shared: &m.shared,
            lane,
        };
        // PE 0's own queue
        for tag in 0..3 {
            ctx.emit_deliver(0, t, msg(0, 1, tag));
        }
        ctx.emit_deliver(0, t, msg(1, 0, 3)); // another rank closes it
        ctx.emit_deliver(0, t, msg(0, 1, 4));
        ctx.emit_deliver(0, later, msg(0, 1, 5)); // another time

        // the outbox, toward PE 1
        ctx.emit_deliver(1, t, msg(0, 2, 6));
        ctx.emit_deliver(1, t, msg(1, 2, 7)); // another sender joins
        ctx.emit(0, SimTime(200), Event::PeWake { pe: 0 }); // closes it
        ctx.emit_deliver(1, t, msg(0, 2, 8));
        let forwarded = Event::Deliver {
            run: MsgRun::one(msg(0, 2, 9)),
            dest_pe: 1,
            forwarded: true,
        };
        ctx.emit(1, t, forwarded);
        ctx.emit_deliver(1, t, msg(0, 2, 10)); // a forwarded one takes none
        ctx.emit_deliver(1, t, msg(0, 3, 11)); // another rank
        ctx.emit_deliver(1, later, msg(0, 3, 12)); // another time
        let outbox: Vec<_> = ctx.lane.out.events.iter().map(|(_, ev)| tags(ev)).collect();
        let want = [
            vec![6, 7],
            vec![],
            vec![8],
            vec![9],
            vec![10],
            vec![11],
            vec![12],
        ];
        assert_eq!(outbox, want);

        let mut queued = Vec::new();
        while let Some((at, ev)) = ctx.lane.queue.pop() {
            queued.push(tags(&ev));
            if let Event::Deliver { run, dest_pe, .. } = ev {
                ctx.deliver(at, run, dest_pe, false);
            }
        }
        assert_eq!(queued, [vec![0, 1, 2], vec![3], vec![4], vec![5]]);
        // deposited in emission order; the drained buffer stays on the
        // lane its sender lives on
        let got: Vec<u64> =
            std::iter::from_fn(|| ctx.lane.ranks[1].matcher.recv(MatchSpec::ANY, false))
                .map(|m| m.tag)
                .collect();
        assert_eq!(got, [0, 1, 2, 4, 5]);
        assert_eq!(ctx.lane.out.tallies.delivered, 6);
        assert_eq!(ctx.lane.run_buffers.len(), 1);
        assert!(ctx.lane.out.spent_runs.is_empty());
    }
}
