//! The driver: how a [`Machine`] runs its lanes between barriers, in
//! epochs — the lanes with work run on the worker pool, and the barrier
//! merges their outboxes straight into the target lanes. In virtual time
//! each lane holds its PE's future events and an epoch's bound comes
//! from the lane heads; in real time an epoch is a round, in which every
//! lane with mail or a ready rank runs, and the merge moves each
//! cross-PE message once into its target lane's inbox. [`Driver`] is
//! the state only this loop touches: the lanes — one per PE for the
//! whole run — the run-wide stamp counter and the engine's counters.
//! Like `barrier.rs`, the code is `impl Machine`: an epoch reads
//! `worker::Shared` and writes the lanes, a barrier writes both.
//!
//! Exactness rests on the stamps: every event that enters a lane from
//! outside its own epoch (the first wakes, the barrier merge, a barrier's
//! wakes, `with_lane`'s emissions) takes the next value of one counter,
//! in the order a single global queue would number it, and is clamped to
//! `now` — the latest time of an event already queued when its epoch
//! began — and to its lane's queue time. A move re-homes the moved
//! rank's events with their keys (`rehome_events`). Same-time messages
//! for one rank travel as one event (`event.rs`, "Runs"), which takes one
//! stamp.

use crate::config::Parallelism;
use crate::engine_parallel::{self, WorkerPool};
use crate::event::Event;
use crate::location::LocationManager;
use crate::machine::{ClockMode, Machine, RtsError};
use crate::message::RtsMessage;
use crate::rank::RankState;
use crate::stats::{EngineTallies, RunReport};
use crate::transport::Exhausted;
use crate::worker::{ExecCtx, Lane};
use crate::{PeId, RankId};
use pvr_des::{SimDuration, SimTime};
use pvr_privatize::Method;
use std::ops::Range;
use std::time::{Duration, Instant};

/// The event loop's state.
pub(crate) struct Driver {
    /// One lane per PE, for the whole run: the only home of its PE's
    /// future events.
    pub(crate) lanes: Vec<Lane>,
    /// The next stamp `Machine::schedule` gives.
    stamp: u64,
    /// The latest time of an event already queued when its epoch began:
    /// what barrier-time scheduling clamps to.
    now: SimTime,
    /// Recycled barrier-merge buffer: the outbox events keyed (time,
    /// source PE, emission index).
    merged: Vec<(SimTime, PeId, usize, Event)>,
    /// Recycled buffer of the events a move re-homes.
    rehome: Vec<(SimTime, u64, Event)>,
    /// Per-worker busy wall-clock of the last epoch.
    walls: Vec<Duration>,
    pub(crate) done_count: usize,
    pub(crate) at_sync_count: usize,
    /// Engine activity counters for the [`RunReport`].
    pub(crate) engine: EngineTallies,
    /// How `run` drives the PEs (serial, fixed thread count, or auto).
    pub(crate) parallelism: Parallelism,
}

impl Driver {
    /// The driver of a job of `n_pes` PEs placed by `location`: every
    /// rank lives in, and is ready on, its PE's lane. Queues are
    /// pre-sized from the run shape so scheduling never reallocates in
    /// the steady state.
    pub(crate) fn new(
        location: &LocationManager,
        n_pes: usize,
        ranks: Vec<RankState>,
        parallelism: Parallelism,
    ) -> Driver {
        let n_ranks = location.n_ranks();
        let cap = (n_ranks * 4 / n_pes.max(1)).max(16);
        let mut lanes: Vec<Lane> = (0..n_pes).map(|pe| Lane::new(pe, n_ranks, cap)).collect();
        for (r, state) in ranks.into_iter().enumerate() {
            let lane = &mut lanes[location.lookup(r)];
            lane.ranks.put(r, Some(Box::new(state)));
            lane.state.ready.push_back(r);
        }
        Driver {
            lanes,
            stamp: 0,
            now: SimTime::ZERO,
            merged: Vec::new(),
            rehome: Vec::new(),
            walls: Vec::new(),
            done_count: 0,
            at_sync_count: 0,
            engine: EngineTallies::default(),
            parallelism,
        }
    }
}

/// Epoch-window policy derived from the network model (see
/// [`Machine::lookahead`]).
#[derive(Debug, Clone, Copy)]
enum Lookahead {
    /// One PE (or no cross-PE pairs): a single epoch covers everything.
    Unbounded,
    /// Zero minimum cross-PE cost: one event per epoch.
    SingleEvent,
    /// Minimum cross-PE cost `L`: epochs are `[t0, t0 + L)` windows.
    Window(SimDuration),
}

impl Machine {
    /// Rank `r`'s state, in the lane the directory names (barrier side;
    /// a lane reaches its own ranks directly).
    pub(crate) fn rank(&self, r: RankId) -> &RankState {
        &self.driver.lanes[self.shared.location.lookup(r)].ranks[r]
    }

    pub(crate) fn rank_mut(&mut self, r: RankId) -> &mut RankState {
        let pe = self.shared.location.lookup(r);
        &mut self.driver.lanes[pe].ranks[r]
    }

    /// Run the job to completion.
    pub fn run(&mut self) -> Result<RunReport, RtsError> {
        let _scope = self.trace_scope();
        let threads = self.effective_threads();
        let Driver { engine, walls, .. } = &mut self.driver;
        engine.threads = threads;
        if engine.worker_wall.len() < threads {
            engine.worker_wall.resize(threads, Duration::ZERO);
        }
        walls.resize(threads, Duration::ZERO);
        let t0 = Instant::now();
        // The helpers live for this call: `pool` is dropped — and its
        // threads joined — on the `?` paths below as on the normal one.
        let pool = WorkerPool::new(threads);
        self.run_lanes(&pool)?;
        drop(pool);
        let real_elapsed = t0.elapsed();
        let pes = self.driver.lanes.iter().map(|l| &l.state);
        if let Some(t) = &self.shared.tracer {
            for (pe, p) in pes.clone().enumerate() {
                t.set_pe_clock(pe, p.busy.nanos(), p.idle.nanos());
            }
        }
        let sim_elapsed =
            pes.clone().map(|p| p.clock).max().unwrap_or(SimTime::ZERO) - SimTime::ZERO;
        let pe_busy_idle = pes.clone().map(|p| (p.busy, p.idle)).collect();
        let pe_clocks = pes.map(|p| p.clock).collect();
        self.tallies.cow = self.collect_cow_tallies();
        self.tallies.ckpt.chain_len = self.ckpt.chain_len();
        let t = self.tallies;
        Ok(RunReport {
            sim_elapsed,
            real_elapsed,
            pe_busy_idle,
            context_switches: t.switches,
            messages_delivered: t.delivered,
            lb_steps: self.lb_steps,
            migrations: self.migrations.clone(),
            pe_clocks,
            lb_history: self.lb_history.clone(),
            faults: t.faults,
            method_requested: self.method_requested,
            method_landed: self.method(),
            hardening: t.hardening,
            cow: t.cow,
            elastic: t.elastic,
            ckpt: t.ckpt,
            req: t.req,
            engine: EngineTallies {
                pool_hits: t.pool_hits,
                pool_misses: t.pool_misses,
                ..self.driver.engine.clone()
            },
        })
    }

    /// Worker threads `run` will actually use: the configured
    /// [`Parallelism`] (with `Auto` reading `PVR_THREADS`), clamped to
    /// the PE count, and forced to 1 when guards or an unprivatized
    /// method require the single-threaded engine.
    pub(crate) fn effective_threads(&self) -> usize {
        let requested = match self.driver.parallelism {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::env::var("PVR_THREADS")
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or(1),
        };
        let capped = requested.min(self.driver.lanes.len().max(1));
        if self.shared.guards.is_some() || self.method() == Method::Unprivatized {
            1
        } else {
            capped
        }
    }

    /// Hand a message to its target's matching engine at a barrier
    /// (harness injection), through the same lane code the engines run.
    pub(crate) fn deposit(&mut self, msg: RtsMessage) {
        let pe = self.shared.location.lookup(msg.to);
        let merged = self.with_lane(pe, |ctx| ctx.deposit(msg)).1;
        debug_assert!(merged.is_ok(), "a deposit raises no lane error");
    }

    /// Drive one rank until it blocks, parks, yields, or completes
    /// (harness/test entry point).
    pub(crate) fn run_rank_slice(&mut self, r: RankId) -> Result<(), RtsError> {
        let pe = self.shared.location.lookup(r);
        let (res, merged) = self.with_lane(pe, |ctx| ctx.run_rank_slice(r));
        res?;
        merged
    }

    /// Run `f` on `pe`'s lane at a barrier and merge the lane back.
    /// Bound zero: every emission crosses the barrier and is stamped
    /// there, like every other barrier-time event.
    fn with_lane<T>(
        &mut self,
        pe: PeId,
        f: impl FnOnce(&mut ExecCtx<'_>) -> T,
    ) -> (T, Result<(), RtsError>) {
        let lane = &mut self.driver.lanes[pe];
        lane.bound = (SimTime::ZERO, 0);
        let res = f(&mut ExecCtx {
            shared: &self.shared,
            lane,
        });
        (res, self.merge_lanes(pe..pe + 1))
    }

    /// Conservative lookahead for epoch formation: the minimum cost any
    /// cross-PE event can incur. Events popped within one window can
    /// only schedule onto *other* lanes at or beyond the horizon, which
    /// is what makes concurrent lane execution safe.
    /// Only *active* PE pairs count: dead and deactivated PEs source no
    /// events, so links touching them cannot constrain the window. The
    /// machine recomputes this whenever the active set changes
    /// (`Geometry::take_dirty`) — epoch partitioning does not affect merged
    /// results, so a mid-run window change preserves bit-identity.
    fn lookahead(&self) -> Lookahead {
        let shared = &self.shared;
        let active = shared.geometry.active();
        let mut min_cost: Option<SimDuration> = None;
        for &a in &active {
            for &b in &active {
                if a != b {
                    let c = shared.network.cost(&shared.topology, a, b, 0);
                    min_cost = Some(min_cost.map_or(c, |m| m.min(c)));
                }
            }
        }
        match min_cost {
            None => Lookahead::Unbounded,
            // An ideal network gives zero lookahead: fall back to
            // one-event epochs (still parallel-safe; rarely parallel-
            // profitable, which the dynamic engine choice handles).
            Some(c) if c.nanos() == 0 => Lookahead::SingleEvent,
            Some(c) => Lookahead::Window(c),
        }
    }

    /// Schedule `ev` onto its PE's lane from outside any epoch — the
    /// first wakes, the barrier merge, a barrier's wakes — with the next
    /// stamp, no earlier than `now` or the lane's queue time. (A lane's
    /// queue time can pass `now` when its epoch ran it ahead on its own
    /// events — timers, acks — past the latest event it was handed.)
    fn schedule(&mut self, at: SimTime, ev: Event) {
        let d = &mut self.driver;
        let lane = &mut d.lanes[ev.pe(&self.shared.location)];
        let at = at.max_of(d.now).max_of(lane.queue.now());
        lane.queue.schedule_stamped(at, d.stamp, ev);
        d.stamp += 1;
    }

    /// Put a ready `rank` on `pe`'s queue and, in virtual time, wake the PE.
    pub(crate) fn enqueue_ready(&mut self, rank: RankId, pe: PeId) {
        let state = &mut self.driver.lanes[pe].state;
        state.ready.push_back(rank);
        if self.shared.clock == ClockMode::Virtual {
            let at = state.clock;
            self.schedule(at, Event::PeWake { pe });
        }
    }

    /// A rank left `from` (`Machine::place`): move the events of `from`'s
    /// lane that now belong elsewhere — deliveries to the rank, acks and
    /// retransmit timers of its sends — to their lanes with their keys,
    /// clamped to the new lane's queue time.
    pub(crate) fn rehome_events(&mut self, from: PeId) {
        let Driver { lanes, rehome, .. } = &mut self.driver;
        let location = &self.shared.location;
        lanes[from]
            .queue
            .extract(|ev| ev.pe(location) != from, rehome);
        for (at, stamp, ev) in rehome.drain(..) {
            let queue = &mut lanes[ev.pe(location)].queue;
            queue.schedule_stamped(at.max_of(queue.now()), stamp, ev);
        }
    }

    /// Fold lanes `pes` into the machine at the barrier: absorb counter
    /// deltas in PE order, move every outbox event into its target lane
    /// in deterministic (time, source PE, emission index) order, move
    /// every real-time message into its target lane's inbox in (source
    /// PE, emission index) order, resolve deferred retransmit-exhaustion
    /// verdicts, give drained run buffers back to the lanes their
    /// senders live on, and surface the canonical (earliest) error if any
    /// lane failed. Every merged lane is left with an empty outbox; a
    /// lane that failed keeps the events it did not run.
    fn merge_lanes(&mut self, pes: Range<PeId>) -> Result<(), RtsError> {
        let mut merged = std::mem::take(&mut self.driver.merged);
        let mut exhausted: Vec<(PeId, Exhausted)> = Vec::new();
        let mut errors: Vec<(SimTime, PeId, u8, RtsError)> = Vec::new();
        for pe in pes.clone() {
            let lane = &mut self.driver.lanes[pe];
            self.driver.now = self.driver.now.max_of(lane.stamped_now);
            let out = &mut lane.out;
            self.tallies.absorb(&out.tallies);
            self.driver.done_count += out.done;
            self.driver.at_sync_count += out.at_sync;
            for (&(a, b), &v) in &out.comm_bytes {
                *self.comm_bytes.entry((a, b)).or_default() += v;
            }
            if let (Some(guards), Some(r)) = (&mut self.shared.guards, out.last_ran) {
                guards.last_ran = Some(r);
            }
            let events = out.events.drain(..).enumerate();
            merged.extend(events.map(|(i, (t, ev))| (t, pe, i, ev)));
            exhausted.extend(out.exhausted.drain(..).map(|ex| (pe, ex)));
            if let Some((t, class, e)) = out.error.take() {
                errors.push((t, pe, class, e));
            }
            let mut mail = std::mem::take(&mut out.unrouted);
            for msg in mail.drain(..) {
                let to = self.shared.location.lookup(msg.to);
                self.driver.lanes[to].inbox.push(msg);
            }
            let mut spent = std::mem::take(&mut self.driver.lanes[pe].out.spent_runs);
            for (from, buf) in spent.drain(..) {
                let home = self.shared.location.lookup(from);
                self.driver.lanes[home].run_buffers.push(buf);
            }
            let out = &mut self.driver.lanes[pe].out;
            (out.unrouted, out.spent_runs) = (mail, spent);
        }
        // Stamped in (time, source PE, emission index) order: the order
        // that decides ties, also among the events `now` clamps.
        merged.sort_unstable_by_key(|&(t, pe, i, _)| (t, pe, i));
        for (t, _, _, ev) in merged.drain(..) {
            self.schedule(t, ev);
        }
        self.driver.merged = merged;
        for pe in pes {
            self.driver.lanes[pe].out.reset();
        }
        // Deferred retransmit exhaustions, judged against post-epoch
        // receive state in deterministic (time, sender PE) order.
        exhausted.sort_by_key(|&(pe, ref ex)| (ex.at, pe));
        for (pe, ex) in exhausted {
            let released = self.rank(ex.to).transport.released(ex.from, ex.seq);
            if let Err(e) = ex.judge(&mut self.rank_mut(ex.from).transport, released) {
                errors.push((ex.at, pe, 1, e));
            }
        }
        errors.sort_by_key(|&(t, pe, class, _)| (t, pe, class));
        match errors.into_iter().next() {
            Some((_, _, _, e)) => Err(e),
            None => Ok(()),
        }
    }

    /// The next epoch's bound from the lane heads: `Window(L)` runs every
    /// event before `t0 + L`, where `t0` is the earliest head;
    /// `SingleEvent` only the `(time, stamp)`-smallest event; `Unbounded`
    /// everything. `None` when no lane has an event below it. In real
    /// time, unbounded whenever a lane has work.
    fn epoch_bound(&self, lookahead: Lookahead) -> Option<(SimTime, u64)> {
        let lanes = &self.driver.lanes;
        if self.shared.clock == ClockMode::RealTime {
            let work = lanes.iter().any(|l| l.has_work(&self.shared));
            return work.then_some((SimTime::MAX, 0));
        }
        let head = lanes.iter().filter_map(|l| l.queue.peek_key()).min()?;
        let bound = match lookahead {
            Lookahead::Unbounded => (SimTime::MAX, 0),
            Lookahead::SingleEvent => (head.0, head.1 + 1),
            Lookahead::Window(l) => (head.0.saturating_add(l), 0),
        };
        (head < bound).then_some(bound)
    }

    /// Execute one epoch: give every lane the bound, let the pool's
    /// workers claim the lanes with work, fold their wall-clocks into the
    /// engine tallies, and merge at the barrier. Every lane runs the same
    /// lane code whoever claims it, so neither the thread count nor the
    /// claim order can change results.
    fn run_epoch(&mut self, bound: (SimTime, u64), pool: &WorkerPool) -> Result<(), RtsError> {
        let Driver {
            lanes,
            walls,
            engine,
            ..
        } = &mut self.driver;
        engine.epochs += 1;
        for lane in lanes.iter_mut() {
            lane.bound = bound;
        }
        let active = lanes.iter().filter(|l| l.has_work(&self.shared)).count();
        let parallel_since = (pool.threads() > 1 && active > 1).then(Instant::now);
        engine_parallel::run_epoch_lanes(&self.shared, lanes, pool, active, walls);
        if let Some(t0) = parallel_since {
            engine.barriers += 1;
            engine.parallel_wall += t0.elapsed();
            engine.parallel_busy += walls.iter().sum::<Duration>();
        }
        for (total, w) in engine.worker_wall.iter_mut().zip(walls.iter()) {
            *total += *w;
        }
        self.merge_lanes(0..self.driver.lanes.len())
    }

    /// Run the LB barrier if every live rank is parked at it and no
    /// real-time mail waits in an inbox, and bring `lookahead` up to date
    /// if that changed the active set. Returns whether a barrier ran.
    fn barrier_if_due(&mut self, lookahead: &mut Lookahead) -> Result<bool, RtsError> {
        let live = self.n_ranks() - self.driver.done_count;
        let at_sync = self.driver.at_sync_count;
        let due = at_sync > 0
            && at_sync == live
            && self.driver.lanes.iter().all(|l| l.inbox.is_empty());
        if due {
            self.do_lb_step()?;
            if self.shared.geometry.take_dirty() {
                *lookahead = self.lookahead();
            }
        }
        Ok(due)
    }

    /// Nothing can run and no barrier is due: the job is finished, or
    /// its live ranks are blocked forever.
    fn finished_or_deadlocked(&self) -> Result<(), RtsError> {
        let waiting: Vec<RankId> = (0..self.n_ranks())
            .filter(|&r| !self.rank(r).is_done())
            .collect();
        if waiting.is_empty() {
            Ok(())
        } else {
            Err(RtsError::Deadlock { waiting })
        }
    }

    /// Run epochs — real-time rounds — until every rank is done, with an
    /// LB barrier whenever one is due.
    fn run_lanes(&mut self, pool: &WorkerPool) -> Result<(), RtsError> {
        if self.shared.clock == ClockMode::Virtual {
            // all PEs start at t=0
            for pe in 0..self.driver.lanes.len() {
                self.schedule(SimTime::ZERO, Event::PeWake { pe });
            }
        }
        let mut lookahead = self.lookahead();
        while self.driver.done_count < self.n_ranks() {
            let Some(bound) = self.epoch_bound(lookahead) else {
                if self.barrier_if_due(&mut lookahead)? {
                    continue;
                }
                return self.finished_or_deadlocked();
            };
            self.run_epoch(bound, pool)?;
            self.barrier_if_due(&mut lookahead)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{MatchSpec, RankCtx};
    use crate::config::MachineBuilder;
    use crate::lb::RotateLb;
    use crate::machine::tests::builder;
    use crate::rank::RankStatus;
    use bytes::Bytes;
    use pvr_des::Topology;
    use std::sync::Arc;

    /// The tag of the one message each rank sends that nobody receives.
    const STRAY: u64 = 99;

    /// 8 ranks on 4 PEs. Each sends its successor one message it never
    /// receives — it stays buffered wherever the successor goes — then
    /// three ring exchanges, each followed by a sync point.
    fn ring(configure: impl FnOnce(MachineBuilder) -> MachineBuilder) -> Machine {
        let b = builder()
            .method(Method::PieGlobals)
            .topology(Topology::non_smp(4))
            .vp_ratio(2);
        configure(b)
            .build(Arc::new(|ctx: RankCtx| {
                let (me, n) = (ctx.rank(), ctx.n_ranks());
                ctx.send((me + 1) % n, STRAY, Bytes::new());
                for step in 0..3 {
                    ctx.send((me + 1) % n, step, Bytes::new());
                    ctx.recv_match(MatchSpec {
                        src: Some((me + n - 1) % n),
                        tag_mask: u64::MAX,
                        tag_value: step,
                    });
                    ctx.at_sync();
                }
            }))
            .unwrap()
    }

    /// Every rank's state lives in exactly one lane, the one the
    /// directory names, and counts every move the machine recorded.
    fn assert_resident(m: &Machine) {
        for r in 0..m.n_ranks() {
            let lanes = &m.driver.lanes;
            let homes: Vec<PeId> = (0..lanes.len())
                .filter(|&pe| lanes[pe].ranks.get(r).is_some())
                .collect();
            assert_eq!(homes, [m.location_of(r)], "rank {r}");
            let moves = m.migrations.iter().filter(|rec| rec.rank == r).count();
            assert_eq!(m.rank(r).migrations as usize, moves, "rank {r}");
        }
    }

    /// What a move must carry: (migrations, messages_sent, buffered).
    fn counters(m: &Machine, r: RankId) -> (u32, u64, usize) {
        let state = m.rank(r);
        (state.migrations, state.messages_sent, state.matcher.buffered())
    }

    #[test]
    fn a_rank_lives_in_the_lane_the_directory_names() {
        // `migrate_now`, on a rank parked in a receive with a message
        // buffered: the state, not a copy of it, changes lanes.
        let mut m = ring(|b| b);
        m.run_rank_slice(0).unwrap();
        assert_eq!(m.rank(0).status, RankStatus::Waiting);
        m.deposit(RtsMessage::new(7, 0, STRAY, Bytes::new()));
        assert_eq!(counters(&m, 0), (0, 2, 1));
        m.migrate_now(0, 3).unwrap();
        assert_resident(&m);
        assert_eq!(counters(&m, 0), (1, 2, 1));
        m.run().unwrap();
        assert_resident(&m);
        assert_eq!(counters(&m, 0), (1, 4, 2), "rank 7's stray and the injected one");

        // An LB barrier that moves every rank, a shrink, a shrink and a
        // grow, and a PE failure with rollback: each rank ends where the
        // directory says, with every send and its stray message.
        let scenarios = [
            ("lb", ring(|b| b.balancer(Box::new(RotateLb)))),
            ("shrink", ring(|b| b.rescale_at_lb_step(1, 2))),
            (
                "shrink, grow",
                ring(|b| {
                    let b = b.rescale_at_lb_step(1, 2).rescale_at_lb_step(2, 4);
                    b.balancer(Box::new(RotateLb))
                }),
            ),
            (
                "pe failure",
                ring(|b| b.checkpoint_period(1).inject_pe_failure_at_lb_step(1, 3)),
            ),
        ];
        for (name, mut m) in scenarios {
            m.run().unwrap();
            assert_resident(&m);
            assert!(!m.migrations.is_empty(), "{name}: nothing moved");
            for r in 0..m.n_ranks() {
                let (_, sent, buffered) = counters(&m, r);
                assert_eq!((sent, buffered), (4, 1), "{name}: rank {r}");
            }
        }
    }
}
