//! The driver: how a [`Machine`] runs its lanes between barriers. In
//! virtual time, lookahead-bounded epochs — the global queue drained
//! into a window, the window's events scheduled into the lanes, the
//! lanes run on the worker pool and merged back at the barrier; in real
//! time, bursts of fair sweeps. [`Driver`] is the state only this loop
//! touches: the global queue, the lanes — one per PE for the whole run —
//! and the engine's counters. Like `barrier.rs`, the code is `impl
//! Machine`: an epoch reads `worker::Shared` and writes the lanes, a barrier
//! writes both.

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
    /// Events no lane may run before the epoch that contains them.
    pub(crate) queue: EventQueue<Event>,
    /// One lane per PE, for the whole run.
    pub(crate) lanes: Vec<Lane>,
    /// Recycled barrier-merge staging buffer.
    merge_buf: Vec<(SimTime, PeId, Event)>,
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
            // PeWakes per PE plus a few in-flight deliveries/acks/timers
            // per rank.
            queue: EventQueue::with_capacity((n_ranks * 8 + n_pes).max(64)),
            lanes,
            merge_buf: Vec::new(),
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
        let engine = &mut self.driver.engine;
        engine.threads = threads;
        if engine.worker_wall.len() < threads {
            engine.worker_wall.resize(threads, Duration::ZERO);
        }
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
        let pool = WorkerPool::new(self.effective_threads());
        // Fresh lane queues: theirs start at time zero, like the wakes.
        for lane in &mut self.driver.lanes {
            lane.queue = EventQueue::new();
        }
        let mut batch = Vec::new();
        let t0 = Instant::now();
        for _ in 0..epochs {
            batch.extend((0..2).map(|pe| (SimTime::ZERO, Event::PeWake { pe })));
            self.run_epoch(&mut batch, SimTime::MAX, &pool)
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
    /// Horizon ZERO: every emission crosses the barrier, exactly
    /// reproducing global-queue scheduling.
    fn with_lane<T>(
        &mut self,
        pe: PeId,
        f: impl FnOnce(&mut ExecCtx<'_>) -> T,
    ) -> (T, Result<(), RtsError>) {
        let lane = &mut self.driver.lanes[pe];
        lane.horizon = SimTime::ZERO;
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

    /// Which lane an event belongs to. `Deliver` follows the target's
    /// *current* placement (stale `dest_pe` stamps still pay the forward
    /// hop); reliable-layer timers run on the sender's lane.
    fn event_pe(&self, ev: &Event) -> PeId {
        let location = &self.shared.location;
        match ev {
            Event::Deliver { msg, .. } => location.lookup(msg.to),
            Event::PeWake { pe } => *pe,
            Event::Ack { from, .. } | Event::Retransmit { from, .. } => location.lookup(*from),
        }
    }

    /// Schedule an epoch's event batch into the lanes' queues and set
    /// every lane's horizon. Batch order (time, global seq) is preserved
    /// within each lane. Drains `batch` so the caller can reuse it.
    ///
    /// The lanes' queues persist across epochs, which is safe for their
    /// monotonic `now`: every event in the next epoch's batch is at or
    /// beyond the previous horizon, which bounds every lane's `now`.
    fn make_lanes(&mut self, batch: &mut Vec<(SimTime, Event)>, horizon: SimTime) {
        for lane in &mut self.driver.lanes {
            lane.horizon = horizon;
        }
        for (t, ev) in batch.drain(..) {
            let pe = self.event_pe(&ev);
            self.driver.lanes[pe].queue.schedule(t, ev);
        }
    }

    /// Fold lanes `pes` into the machine at the barrier: absorb counter
    /// deltas in PE order, merge cross-lane events into the global queue
    /// in deterministic (time, source PE, emission index) order, deposit
    /// what a real-time burst left undelivered, resolve deferred
    /// retransmit-exhaustion verdicts, and surface the canonical
    /// (earliest) error if any lane failed. Every merged lane is left
    /// with an empty queue and outbox.
    fn merge_lanes(&mut self, pes: Range<PeId>) -> Result<(), RtsError> {
        let mut merged = std::mem::take(&mut self.driver.merge_buf);
        let mut exhausted: Vec<(PeId, Exhausted)> = Vec::new();
        let mut errors: Vec<(SimTime, PeId, u8, RtsError)> = Vec::new();
        let mut unrouted: Vec<RtsMessage> = Vec::new();
        for pe in pes {
            let lane = &mut self.driver.lanes[pe];
            // A lane that errored stops mid-window; reinstate its
            // unprocessed events so machine state stays coherent.
            while let Some((t, ev)) = lane.queue.pop() {
                merged.push((t, pe, ev));
            }
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
            merged.extend(out.events.drain(..).map(|(t, ev)| (t, pe, ev)));
            exhausted.extend(out.exhausted.drain(..).map(|ex| (pe, ex)));
            if let Some((t, class, e)) = out.error.take() {
                errors.push((t, pe, class, e));
            }
            unrouted.append(&mut out.unrouted);
            out.reset();
        }
        // Stable sort on (time, source PE); the per-lane emission index
        // is the push order the sort preserves, and the global queue's
        // sequence number is the final tie-break.
        merged.sort_by_key(|e| (e.0, e.1));
        for (t, _, ev) in merged.drain(..) {
            let at = t.max_of(self.driver.queue.now());
            self.driver.queue.schedule(at, ev);
        }
        self.driver.merge_buf = merged;
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
    fn record_walls(&mut self, parallel_since: Option<Instant>, walls: Vec<Duration>) {
        let engine = &mut self.driver.engine;
        if let Some(t0) = parallel_since {
            engine.barriers += 1;
            engine.parallel_wall += t0.elapsed();
            engine.parallel_busy += walls.iter().sum::<Duration>();
        }
        for (total, w) in engine.worker_wall.iter_mut().zip(walls) {
            *total += w;
        }
    }

    /// Execute one epoch: schedule the batch into the lanes, let the
    /// pool's workers claim the ones with events, and merge at the
    /// barrier. Every lane runs the same lane code whoever claims it, so
    /// neither the thread count nor the claim order can change results.
    fn run_epoch(
        &mut self,
        batch: &mut Vec<(SimTime, Event)>,
        horizon: SimTime,
        pool: &WorkerPool,
    ) -> Result<(), RtsError> {
        self.driver.engine.epochs += 1;
        self.make_lanes(batch, horizon);
        let lanes = &mut self.driver.lanes;
        let active = lanes.iter().filter(|l| !l.queue.is_empty()).count();
        let t0 = (pool.threads() > 1 && active > 1).then(Instant::now);
        let walls = engine_parallel::run_epoch_lanes(&self.shared, lanes, pool, active);
        self.record_walls(t0, walls);
        self.merge_lanes(0..self.driver.lanes.len())
    }

    /// One real-time scheduler burst: round-robin fair sweeps until no
    /// PE can make progress. Returns whether any slice ran.
    fn run_real_burst(&mut self, pool: &WorkerPool) -> Result<bool, RtsError> {
        self.driver.engine.epochs += 1;
        let t0 = (pool.threads() > 1).then(Instant::now);
        let (ran, walls) = engine_parallel::real_burst(&self.shared, &mut self.driver.lanes, pool);
        self.record_walls(t0, walls);
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
            self.driver
                .queue
                .schedule(SimTime::ZERO, Event::PeWake { pe });
        }
        let mut lookahead = self.lookahead();
        // Reused across epochs: `drain_until` and `make_lanes` both
        // drain it, so one warm buffer serves the whole run.
        let mut batch: Vec<(SimTime, Event)> = Vec::new();
        while self.driver.done_count < self.shared.ranks.len() {
            debug_assert!(batch.is_empty());
            let queue = &mut self.driver.queue;
            match lookahead {
                Lookahead::Unbounded => queue.drain_until(SimTime::MAX, &mut batch),
                Lookahead::SingleEvent => batch.extend(queue.pop()),
                Lookahead::Window(l) => {
                    if let Some(t0) = queue.peek_time() {
                        queue.drain_until(t0.saturating_add(l), &mut batch);
                    }
                }
            }
            if batch.is_empty() {
                if self.barrier_if_due(&mut lookahead)? {
                    continue;
                }
                return self.finished_or_deadlocked();
            }
            let horizon = match lookahead {
                Lookahead::Unbounded => SimTime::MAX,
                // Horizon at the event's own time: every emission
                // crosses the barrier, replicating global-queue order.
                Lookahead::SingleEvent => batch[0].0,
                Lookahead::Window(l) => batch[0].0.saturating_add(l),
            };
            self.run_epoch(&mut batch, horizon, pool)?;
            self.barrier_if_due(&mut lookahead)?;
        }
        Ok(())
    }
}
