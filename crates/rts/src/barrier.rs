//! The load-balancing barrier — the paper's `AtSync` point (§2.1), the
//! one place where ranks are balanced, migrated, checkpointed, rolled
//! back and rescaled, because it is the one place where every live rank
//! is parked with a drained mailbox.
//!
//! [`Machine::do_lb_step`] is the list of phases, [`BarrierAction`] the
//! statement of their order, and the helpers the phases share — the
//! coordinated rollback and the charged migration — are written here
//! once. What a phase does to checkpoints lives in `checkpoint.rs`, what
//! it does to the PE set in `rescale.rs`.

use crate::lb::LbStats;
use crate::machine::{ClockMode, Machine, RtsError};
use crate::rank::RankStatus;
use crate::stats::LbRecord;
use crate::{PeId, RankId};
use pvr_des::{SimDuration, SimTime};
use pvr_trace::EventKind;
use std::time::Instant;

/// Something a barrier does at one chosen LB step besides balancing:
/// [`MachineConfig::barrier_script`](crate::MachineConfig::barrier_script)
/// is a list of `(lb_step, action)` pairs (steps are 1-based).
///
/// This is the one statement of what a barrier does and in which order.
/// At step `k`:
///
/// 1. **seal** — the previous barrier's delta capture has finished
///    streaming to the buddies; reaching this barrier seals it (the
///    consistent-cut marker).
/// 2. **guard audit** — on quiescent pre-checkpoint state, so a
///    checkpoint never captures corruption the guards would have caught.
/// 3. **periodic capture** — the checkpoint, if one is due at `k`.
/// 4. **script** — the actions scheduled for `k`, in the order the
///    variants are declared below, however the list was written; actions
///    of one kind run in the order given. Several [`FailPe`] cascade:
///    each runs its own rollback, so the second exercises the buddy
///    copies the first left behind.
/// 5. **rescale decision** — the last [`Rescale`] of the step (a
///    [`Machine::rescale`] request counts as one, given after the
///    scripted ones), else the rescale policy. If a live PE died at this
///    barrier the rescale is abandoned and counted, and recovery keeps
///    the shrunken pre-rescale geometry.
/// 6. **clock barrier** — the active PEs meet at their maximum clock.
/// 7. **balancer** — over the active PEs; both ends pay each migration.
/// 8. **release** — loads and the communication graph reset, every
///    parked rank becomes ready.
///
/// [`FailPe`]: BarrierAction::FailPe
/// [`Rescale`]: BarrierAction::Rescale
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierAction {
    /// Flip one payload byte (this index, wrapped) of the delta the step
    /// just captured. Its checksum was recorded before the flip, so a
    /// later restore through it must abort, failure-atomically. Needs
    /// `ckpt_incremental`.
    CorruptDelta { byte: usize },
    /// Soft memory fault: every rank's memory is lost, and recovered from
    /// the newest checkpoint before anything runs. Needs a checkpoint.
    SoftFault,
    /// Kill this PE for good: its ranks lose their memory, every rank
    /// rolls back, the survivors adopt the orphans. A spare that is not
    /// in the active set just becomes unusable. Needs a checkpoint, a
    /// migratable method and two PEs.
    FailPe(PeId),
    /// Restart on a different geometry: roll back, then re-place every
    /// rank in block order over this many active PEs (placement is free:
    /// the images were just restored), then re-replicate. Needs a
    /// checkpoint and a migratable method.
    RestoreGeometry(usize),
    /// Grow or shrink the active set to this many PEs (clamped to the
    /// usable ones). Needs a migratable method.
    Rescale(usize),
}

impl BarrierAction {
    /// Position among one step's actions: the declaration order.
    pub(crate) fn order(self) -> u8 {
        match self {
            BarrierAction::CorruptDelta { .. } => 0,
            BarrierAction::SoftFault => 1,
            BarrierAction::FailPe(_) => 2,
            BarrierAction::RestoreGeometry(_) => 3,
            BarrierAction::Rescale(_) => 4,
        }
    }
}

impl Machine {
    /// Run one LB step; [`BarrierAction`] states the order.
    pub(crate) fn do_lb_step(&mut self) -> Result<(), RtsError> {
        self.lb_steps += 1;
        let migrations_before = self.migrations.len();
        self.seal();
        self.audit()?;
        self.capture_if_due();
        let (rescale, pe_died) = self.run_script()?;
        self.rescale_if_asked(rescale, pe_died)?;
        self.equalize_clocks();
        self.balance()?;
        self.release(migrations_before);
        Ok(())
    }

    /// The periodic checkpoint, when this step is one of its steps and
    /// no rank has completed (a completed rank cannot be captured).
    fn capture_if_due(&mut self) {
        let period = self.ckpt.period;
        if period == 0 || self.driver.done_count > 0 || self.lb_steps % period != 1 % period {
            return;
        }
        // The capture *is* the application pause (the async buddy
        // stream is not): wall-clock it in both modes.
        let t0 = Instant::now();
        if self.ckpt.incremental {
            self.take_incremental_checkpoint();
        } else {
            self.take_checkpoint();
        }
        self.tallies.ckpt.pause_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Apply this step's scripted actions. Returns the rescale the script
    /// asks for, and whether a live PE died.
    fn run_script(&mut self) -> Result<(Option<usize>, bool), RtsError> {
        let (mut rescale, mut pe_died) = (None, false);
        let now = self.lb_steps;
        while let Some((_, action)) = self.barrier_script.pop_front_if(|(step, _)| *step == now) {
            match action {
                BarrierAction::CorruptDelta { byte } => self.ckpt.corrupt_newest_delta(byte),
                BarrierAction::SoftFault => {
                    let all: Vec<RankId> = (0..self.n_ranks()).collect();
                    self.rollback(&all)?;
                }
                BarrierAction::FailPe(pe) => pe_died |= self.fail_pe(pe)?,
                BarrierAction::RestoreGeometry(target) => self.do_geometry_restore(target)?,
                BarrierAction::Rescale(target) => rescale = Some(target),
            }
        }
        Ok((rescale, pe_died))
    }

    /// Commit the rescale the script or, failing that, the policy asks
    /// for — unless a PE died at this barrier: then it is abandoned.
    fn rescale_if_asked(&mut self, scripted: Option<usize>, pe_died: bool) -> Result<(), RtsError> {
        let asked = scripted
            .or_else(|| self.rescale_policy.as_ref()?.decide(&self.rescale_stats()));
        let Some(target) = asked else {
            return Ok(());
        };
        if !pe_died {
            return self.do_rescale(target);
        }
        self.tallies.elastic.rescales_aborted += 1;
        self.trace_job(EventKind::RescaleAborted {
            from_pes: self.active_pes() as u32,
            to_pes: target as u32,
        });
        Ok(())
    }

    /// Virtual mode: the sync point is a barrier — all active PEs meet
    /// at the max active clock.
    fn equalize_clocks(&mut self) {
        if self.shared.clock != ClockMode::Virtual {
            return;
        }
        let active = self.shared.geometry.active();
        let Some(max_clock) = active
            .iter()
            .map(|&p| self.driver.lanes[p].state.clock)
            .max()
        else {
            return;
        };
        for p in active {
            self.driver.lanes[p].state.advance_to(max_clock);
        }
    }

    /// Ask the balancer for a placement and migrate to it.
    fn balance(&mut self) -> Result<(), RtsError> {
        let Some(balancer) = self.balancer.take() else {
            return Ok(());
        };
        // Balancers see the *active* geometry: dead and deactivated
        // PEs are compacted out, so `n_pes` is the live count and
        // placements are dense indices into the active list. With
        // every PE alive this is the identity mapping; after a
        // failure or rescale it keeps strategies spreading load over
        // exactly the PEs that can run ranks.
        let (shared, n_pes) = (&self.shared, self.n_pes());
        let active = shared.geometry.active();
        let mut dense = vec![0usize; n_pes];
        for (i, &p) in active.iter().enumerate() {
            dense[p] = i;
        }
        let ranks = || (0..self.n_ranks()).map(|r| self.rank(r));
        let stats = LbStats {
            loads: ranks().map(|r| r.load_since_lb.as_secs_f64()).collect(),
            placement: shared
                .location
                .placements()
                .iter()
                .map(|&p| dense[p])
                .collect(),
            n_pes: active.len(),
            migration_bytes: ranks().map(|r| r.migration_bytes()).collect(),
            comm_bytes: self
                .comm_bytes
                .iter()
                .map(|(&(a, b), &v)| (a, b, v))
                .collect(),
        };
        let new_placement = balancer.rebalance(&stats);
        self.balancer = Some(balancer);
        assert_eq!(new_placement.len(), self.n_ranks());

        // LB database entry (in the dense active-PE view, matching
        // what the strategy was shown)
        self.lb_history.push(LbRecord {
            step: self.lb_steps,
            at: self
                .driver
                .lanes
                .iter()
                .map(|l| l.state.clock)
                .max()
                .unwrap_or(SimTime::ZERO),
            pe_loads_before: stats.pe_loads(&stats.placement),
            pe_loads_after: stats.pe_loads(&new_placement),
            migrations: stats.migration_count(&new_placement),
            comm_bytes: stats.comm_bytes.iter().map(|&(_, _, b)| b).sum(),
        });

        for (r, slot) in new_placement.into_iter().enumerate() {
            // Map the dense index back to a real PE. A buggy strategy
            // may return an out-of-range slot; repair it to an alive PE
            // instead of panicking — LB output is advisory.
            let new_pe = match active.get(slot) {
                Some(&pe) => pe,
                None => self.shared.geometry.first_alive_from(slot.min(n_pes - 1)),
            };
            let pe = self.shared.location.lookup(r);
            if self.rank(r).status != RankStatus::Done && new_pe != pe {
                self.migrate_charged(r, new_pe, true)?;
            }
        }
        Ok(())
    }

    /// Reset loads and the comm graph, and release everyone.
    fn release(&mut self, migrations_before: usize) {
        self.comm_bytes.clear();
        for r in 0..self.n_ranks() {
            let state = self.rank_mut(r);
            state.load_since_lb = SimDuration::ZERO;
            if state.status == RankStatus::AtSync {
                state.status = RankStatus::Ready;
                self.enqueue_ready(r, self.shared.location.lookup(r));
            }
        }
        self.driver.at_sync_count = 0;
        self.trace_job(EventKind::LbStep {
            step: self.lb_steps,
            migrations: (self.migrations.len() - migrations_before) as u32,
        });
    }

    /// A job-wide refusal (no one rank's fault).
    pub(crate) fn refuse<T>(detail: String) -> Result<T, RtsError> {
        Err(RtsError::Protocol {
            rank: usize::MAX,
            detail,
        })
    }

    /// `what` rolls ranks back, which a completed rank cannot do.
    pub(crate) fn no_rank_completed(&self, what: &str) -> Result<(), RtsError> {
        if self.driver.done_count == 0 {
            return Ok(());
        }
        let why = "is unsupported (completed ranks cannot roll back)";
        Self::refuse(format!("{what} after rank completion {why}"))
    }

    /// Coordinated rollback: the `lost` ranks' memory is gone, and every
    /// rank — survivors included — resumes from the last checkpoint and
    /// recomputes forward. Refuses before destroying anything when there
    /// is no checkpoint to recover from.
    pub(crate) fn rollback(&mut self, lost: &[RankId]) -> Result<(), RtsError> {
        let Some(ckpt) = self.ckpt.last.take() else {
            return Self::refuse("fault injected with no checkpoint available".into());
        };
        for &r in lost {
            self.scribble_rank(r);
        }
        if let Err(e) = self.restore_checkpoint(ckpt) {
            // The scribbled stacks can never be unwound safely; abandon
            // those ULTs so Machine teardown doesn't resume onto them.
            self.abandon_ranks(lost);
            return Err(e);
        }
        self.reseed_guards_after_restore();
        Ok(())
    }

    /// The fault model's "this rank's memory is gone": overwrite every
    /// byte an image of the rank carries — each region's live extent,
    /// heap chunks included — so any read of un-restored state is loud.
    /// What is not rank state is left alone: heap never handed out, dead
    /// stack, the stack guard's canaries at the stack's base.
    pub(crate) fn scribble_rank(&mut self, rank: RankId) {
        self.refresh_stack_extent(rank);
        let memory = &self.rank(rank).memory;
        for reg in memory.heap_ref().regions().chain(memory.regions()) {
            let live = reg.live();
            // SAFETY: `live` lies inside the pinned region (`set_live`
            // checks it), and the rank is suspended at a barrier.
            unsafe { std::ptr::write_bytes(reg.base_mut().add(live.start), 0xDE, live.len()) };
        }
    }

    /// Write off ranks whose memory was scribbled by an injected fault and
    /// could not be restored: their suspended stacks must never be resumed
    /// (not even for cancellation-unwind at drop), so the ULTs leak.
    pub(crate) fn abandon_ranks(&mut self, ranks: &[RankId]) {
        for &r in ranks {
            if let Some(ult) = self.rank_mut(r).ult.as_mut() {
                ult.abandon();
            }
        }
    }

    /// Migrate `rank` to `to` and, in virtual time, charge the transfer
    /// to the destination — and to the source, when it is still there to
    /// pay.
    pub(crate) fn migrate_charged(
        &mut self,
        rank: RankId,
        to: PeId,
        source_pays: bool,
    ) -> Result<(), RtsError> {
        let rec = self.migrate_now(rank, to)?;
        if self.shared.clock == ClockMode::Virtual {
            if source_pays {
                self.driver.lanes[rec.from_pe].state.work(rec.sim_cost);
            }
            self.driver.lanes[to].state.work(rec.sim_cost);
        }
        Ok(())
    }
}
