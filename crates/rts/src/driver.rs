//! The driver: how a [`Machine`] runs its lanes between barriers. In
//! virtual time, lookahead-bounded epochs — each lane holds its PE's
//! future events, the epoch's bound comes from the lane heads, the lanes
//! with events below it run on the worker pool, and the barrier merges
//! their outboxes straight into the target lanes; in real time, bursts
//! of fair sweeps. [`Driver`] is the state only this loop touches: the
//! lanes — one per PE for the whole run — the run-wide stamp counter and
//! the engine's counters. Like `barrier.rs`, the code is `impl Machine`:
//! an epoch reads `worker::Shared` and writes the lanes, a barrier
//! writes both.
//!
//! Exactness rests on the stamps: every event that enters a lane from
//! outside its own epoch (the first wakes, the barrier merge, a barrier's
//! wakes, `with_lane`'s emissions) takes the next value of one counter,
//! in the order a single global queue would number it, and is clamped to
//! `now` — the latest time of an event already queued when its epoch
//! began — and to its lane's queue time. A move re-homes the moved
//! rank's events with their keys (`rehome_events`).

use crate::config::Parallelism;
use crate::engine_parallel::{self, WorkerPool};
use crate::location::LocationManager;
use crate::machine::{ClockMode, Event, Machine, RtsError};
use crate::message::RtsMessage;
use crate::stats::{EngineTallies, RunReport};
use crate::worker::{ExecCtx, Exhausted, Lane, StopReason};
use crate::{PeId, RankId};
use pvr_des::{EventQueue, SimDuration, SimTime};
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
    /// Recycled barrier-merge keys: (time, source PE, emission index).
    merge_keys: Vec<(SimTime, PeId, usize)>,
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
    /// rank ready on its PE. Queues are pre-sized from the run shape so
    /// scheduling never reallocates in the steady state.
    pub(crate) fn new(
        location: &LocationManager,
        n_pes: usize,
        parallelism: Parallelism,
    ) -> Driver {
        let n_ranks = location.n_ranks();
        let cap = (n_ranks * 4 / n_pes.max(1)).max(16);
        let mut lanes: Vec<Lane> = (0..n_pes).map(|pe| Lane::new(pe, cap)).collect();
        for r in 0..n_ranks {
            lanes[location.lookup(r)].state.ready.push_back(r);
        }
        Driver {
            lanes,
            stamp: 0,
            now: SimTime::ZERO,
            merge_keys: Vec::new(),
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
        match self.shared.clock {
            ClockMode::RealTime => self.run_real(&pool)?,
            ClockMode::Virtual => self.run_virtual(&pool)?,
        }
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

    /// Bench hook (`repro -- perf`, row `epoch_dispatch`): on a machine
    /// whose run is over, drive `epochs` epochs of two lanes holding one
    /// no-op `PeWake` each — all an epoch costs beyond its lanes' work —
    /// on the pool `run` would use, and return the wall-clock they took.
    /// Panics unless the machine has two PEs or more.
    #[doc(hidden)]
    pub fn bench_epoch_dispatch(&mut self, epochs: usize) -> Duration {
        let threads = self.effective_threads();
        let pool = WorkerPool::new(threads);
        self.driver.walls.resize(threads, Duration::ZERO);
        // Fresh lane queues: nothing the run left behind runs here.
        for lane in &mut self.driver.lanes {
            lane.queue = EventQueue::new();
        }
        let t0 = Instant::now();
        for _ in 0..epochs {
            for pe in 0..2 {
                self.schedule(SimTime::ZERO, Event::PeWake { pe });
            }
            self.run_epoch((SimTime::MAX, 0), &pool)
                .expect("an idle PE's wake raises nothing");
        }
        t0.elapsed()
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

    /// Hand a message to its target's matching engine — the barrier-time
    /// path (harness injection, real-time messages a failed burst left
    /// behind), through the same lane code the engines run.
    pub(crate) fn deposit(&mut self, msg: RtsMessage) {
        let pe = self.shared.location.lookup(msg.to);
        let merged = self.with_lane(pe, |ctx| ctx.deposit(msg)).1;
        debug_assert!(merged.is_ok(), "a deposit raises no lane error");
    }

    /// Drive one rank until it blocks, parks, yields, or completes
    /// (harness/test entry point).
    pub(crate) fn run_rank_slice(&mut self, r: RankId) -> Result<StopReason, RtsError> {
        let pe = self.shared.location.lookup(r);
        let (res, merged) = self.with_lane(pe, |ctx| ctx.run_rank_slice(r));
        let stop = res?;
        merged?;
        Ok(stop)
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
        let lane = &mut d.lanes[event_pe(&self.shared.location, &ev)];
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
            .extract(|ev| event_pe(location, ev) != from, rehome);
        for (at, stamp, ev) in rehome.drain(..) {
            let queue = &mut lanes[event_pe(location, &ev)].queue;
            queue.schedule_stamped(at.max_of(queue.now()), stamp, ev);
        }
    }

    /// Fold lanes `pes` into the machine at the barrier: absorb counter
    /// deltas in PE order, move every outbox event into its target lane
    /// in deterministic (time, source PE, emission index) order, deposit
    /// what a real-time burst left undelivered, resolve deferred
    /// retransmit-exhaustion verdicts, and surface the canonical
    /// (earliest) error if any lane failed. Every merged lane is left
    /// with an empty outbox; a lane that failed keeps the events it did
    /// not run.
    fn merge_lanes(&mut self, pes: Range<PeId>) -> Result<(), RtsError> {
        let mut keys = std::mem::take(&mut self.driver.merge_keys);
        let mut exhausted: Vec<(PeId, Exhausted)> = Vec::new();
        let mut errors: Vec<(SimTime, PeId, u8, RtsError)> = Vec::new();
        let mut unrouted: Vec<RtsMessage> = Vec::new();
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
            for _ in 0..out.forwards {
                self.shared.location.note_forward();
            }
            if let (Some(guards), Some(r)) = (&mut self.shared.guards, out.last_ran) {
                guards.last_ran = Some(r);
            }
            keys.extend(out.events.iter().enumerate().map(|(i, e)| {
                let (t, _) = e.as_ref().expect("an outbox event merges once");
                (*t, pe, i)
            }));
            exhausted.extend(out.exhausted.drain(..).map(|ex| (pe, ex)));
            if let Some((t, class, e)) = out.error.take() {
                errors.push((t, pe, class, e));
            }
            unrouted.append(&mut out.unrouted);
        }
        // Stamped in (time, source PE, emission index) order: the order
        // that decides ties, also among the events `now` clamps.
        keys.sort_unstable();
        for &(_, pe, i) in &keys {
            let (t, ev) = self.driver.lanes[pe].out.events[i]
                .take()
                .expect("an outbox event merges once");
            self.schedule(t, ev);
        }
        keys.clear();
        self.driver.merge_keys = keys;
        for pe in pes {
            self.driver.lanes[pe].out.reset();
        }
        for msg in unrouted {
            self.deposit(msg);
        }
        // Deferred retransmit exhaustions, judged against post-epoch
        // receive state in deterministic (time, sender PE) order.
        exhausted.sort_by_key(|&(pe, ref ex)| (ex.at, pe));
        if let Some(rel) = &mut self.shared.reliable {
            let rel = rel.get_mut();
            for (pe, ex) in exhausted {
                if let Err(e) = rel.give_up(ex.from, ex.to, ex.seq, ex.attempts) {
                    errors.push((ex.at, pe, 1, e));
                }
            }
        }
        errors.sort_by_key(|&(t, pe, class, _)| (t, pe, class));
        match errors.into_iter().next() {
            Some((_, _, _, e)) => Err(e),
            None => Ok(()),
        }
    }

    /// Fold one epoch's or burst's per-worker wall-clocks into the engine
    /// tallies. `parallel_since` is when it went to more than one worker
    /// (`None`: the driver ran it alone).
    fn record_walls(
        engine: &mut EngineTallies,
        parallel_since: Option<Instant>,
        walls: &[Duration],
    ) {
        if let Some(t0) = parallel_since {
            engine.barriers += 1;
            engine.parallel_wall += t0.elapsed();
            engine.parallel_busy += walls.iter().sum::<Duration>();
        }
        for (total, w) in engine.worker_wall.iter_mut().zip(walls) {
            *total += *w;
        }
    }

    /// The next epoch's bound from the lane heads: `Window(L)` runs every
    /// event before `t0 + L`, where `t0` is the earliest head;
    /// `SingleEvent` only the `(time, stamp)`-smallest event; `Unbounded`
    /// everything. `None` when no lane has an event below it.
    fn epoch_bound(&self, lookahead: Lookahead) -> Option<(SimTime, u64)> {
        let lanes = &self.driver.lanes;
        let head = lanes.iter().filter_map(|l| l.queue.peek_key()).min()?;
        let bound = match lookahead {
            Lookahead::Unbounded => (SimTime::MAX, 0),
            Lookahead::SingleEvent => (head.0, head.1 + 1),
            Lookahead::Window(l) => (head.0.saturating_add(l), 0),
        };
        (head < bound).then_some(bound)
    }

    /// Execute one epoch: give every lane the bound, let the pool's
    /// workers claim the lanes with events below it, and merge at the
    /// barrier. Every lane runs the same lane code whoever claims it, so
    /// neither the thread count nor the claim order can change results.
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
        let active = lanes.iter().filter(|l| l.has_work()).count();
        let t0 = (pool.threads() > 1 && active > 1).then(Instant::now);
        engine_parallel::run_epoch_lanes(&self.shared, lanes, pool, active, walls);
        Self::record_walls(engine, t0, walls);
        self.merge_lanes(0..self.driver.lanes.len())
    }

    /// One real-time scheduler burst: round-robin fair sweeps until no
    /// PE can make progress. Returns whether any slice ran.
    fn run_real_burst(&mut self, pool: &WorkerPool) -> Result<bool, RtsError> {
        self.driver.engine.epochs += 1;
        let t0 = (pool.threads() > 1).then(Instant::now);
        let (ran, walls) = engine_parallel::real_burst(&self.shared, &mut self.driver.lanes, pool);
        Self::record_walls(&mut self.driver.engine, t0, &walls);
        self.merge_lanes(0..self.driver.lanes.len())?;
        Ok(ran > 0)
    }

    /// Run the LB barrier if every live rank is parked at it, and bring
    /// `lookahead` up to date if that changed the active set. Returns
    /// whether a barrier ran.
    fn barrier_if_due(&mut self, lookahead: &mut Lookahead) -> Result<bool, RtsError> {
        let live = self.shared.ranks.len() - self.driver.done_count;
        let at_sync = self.driver.at_sync_count;
        let due = at_sync > 0 && at_sync == live;
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
        let ranks = &self.shared.ranks;
        let waiting: Vec<RankId> = (0..ranks.len()).filter(|&r| !ranks[r].is_done()).collect();
        if waiting.is_empty() {
            Ok(())
        } else {
            Err(RtsError::Deadlock { waiting })
        }
    }

    fn run_real(&mut self, pool: &WorkerPool) -> Result<(), RtsError> {
        // Real time forms no epochs; the barrier keeps this current anyway.
        let mut lookahead = Lookahead::Unbounded;
        while self.driver.done_count < self.shared.ranks.len() {
            let progressed = self.run_real_burst(pool)?;
            if !self.barrier_if_due(&mut lookahead)? && !progressed {
                return self.finished_or_deadlocked();
            }
        }
        Ok(())
    }

    fn run_virtual(&mut self, pool: &WorkerPool) -> Result<(), RtsError> {
        // all PEs start at t=0
        for pe in 0..self.driver.lanes.len() {
            self.schedule(SimTime::ZERO, Event::PeWake { pe });
        }
        let mut lookahead = self.lookahead();
        while self.driver.done_count < self.shared.ranks.len() {
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

/// Which lane an event belongs to. `Deliver` follows the target's
/// *current* placement (stale `dest_pe` stamps still pay the forward
/// hop); reliable-layer timers run on the sender's lane.
fn event_pe(location: &LocationManager, ev: &Event) -> PeId {
    match ev {
        Event::Deliver { msg, .. } => location.lookup(msg.to),
        Event::PeWake { pe } => *pe,
        Event::Ack { from, .. } | Event::Retransmit { from, .. } => location.lookup(*from),
    }
}
