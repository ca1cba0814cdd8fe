//! The PE set and what changes it: the `Geometry` (which PEs are
//! active, which are dead for good), the barrier-time protocols that
//! move it — elastic rescale, PE failure, restore on a different
//! geometry, each followed by re-replication of the checkpoint — and the
//! policies that ask for a rescale.
//!
//! A [`RescalePolicy`] is consulted at every LB barrier (after failure
//! injection and before the balancer runs) with the machine's observed
//! per-PE utilization window. Returning `Some(n)` requests a rescale of
//! the active set to `n` PEs, committed at that same barrier through the
//! normal drain/re-replicate protocol; returning `None` keeps the
//! current geometry. Decisions must be pure functions of the offered
//! [`RescaleStats`] so `Serial` and `Threads(n)` runs rescale at the
//! same barriers to the same targets — the determinism bar.

use crate::barrier::BarrierAction;
use crate::machine::{Machine, RtsError};
use crate::rank::RankStatus;
use crate::{PeId, RankId};
use pvr_des::SimDuration;
use pvr_trace::{EventKind, NO_RANK};

/// What a policy sees at an LB barrier.
#[derive(Debug, Clone)]
pub struct RescaleStats {
    /// PEs currently in the active set.
    pub active_pes: usize,
    /// Build-time PE capacity (the hard upper bound for growth).
    pub capacity: usize,
    /// PEs that could be active: capacity minus permanently-failed PEs.
    pub usable_pes: usize,
    /// Per-active-PE load (seconds of virtual busy time) accumulated
    /// since the previous LB barrier, in active-PE order.
    pub pe_loads: Vec<f64>,
    /// 1-based LB step number of this barrier.
    pub step: u32,
}

impl RescaleStats {
    /// Mean per-active-PE load over the window (seconds).
    pub fn mean_load(&self) -> f64 {
        if self.pe_loads.is_empty() {
            0.0
        } else {
            self.pe_loads.iter().sum::<f64>() / self.pe_loads.len() as f64
        }
    }
}

/// Decides whether to change the active PE count at an LB barrier.
///
/// Implementations must be deterministic: the same [`RescaleStats`] must
/// always produce the same decision, with no wall-clock, RNG, or
/// environment input.
pub trait RescalePolicy: Send {
    fn name(&self) -> &'static str;

    /// `Some(target)` to rescale the active set to `target` PEs (clamped
    /// by the machine to `1..=usable_pes`), `None` to keep the current
    /// geometry.
    fn decide(&self, stats: &RescaleStats) -> Option<usize>;
}

/// Stock utilization-driven policy: grow by one PE when the mean
/// per-active-PE window load exceeds `grow_above` seconds, shrink by one
/// when it falls below `shrink_below`, within `[min_pes, max_pes]`.
///
/// Thresholds are on the *mean* load rather than the max so one
/// straggler (the balancer's job) doesn't masquerade as global pressure.
#[derive(Debug, Clone)]
pub struct UtilizationRescale {
    /// Grow when mean window load per active PE exceeds this (seconds).
    pub grow_above: f64,
    /// Shrink when mean window load per active PE falls below this
    /// (seconds).
    pub shrink_below: f64,
    /// Never shrink below this many active PEs.
    pub min_pes: usize,
    /// Never grow beyond this many active PEs (further clamped by the
    /// machine to the usable capacity).
    pub max_pes: usize,
}

impl RescalePolicy for UtilizationRescale {
    fn name(&self) -> &'static str {
        "utilization"
    }

    fn decide(&self, stats: &RescaleStats) -> Option<usize> {
        let mean = stats.mean_load();
        if mean > self.grow_above && stats.active_pes < self.max_pes.min(stats.usable_pes) {
            Some(stats.active_pes + 1)
        } else if mean < self.shrink_below && stats.active_pes > self.min_pes.max(1) {
            Some(stats.active_pes - 1)
        } else {
            None
        }
    }
}

/// Which PEs can run ranks. A PE leaves the active set by an elastic
/// shrink (a grow may bring it back) or by failing (for good): a failed
/// PE is never alive, and at least one PE always is.
pub(crate) struct Geometry {
    alive: Vec<bool>,
    failed: Vec<bool>,
    /// The active set changed since [`Self::take_dirty`] last looked.
    dirty: bool,
}

impl Geometry {
    /// `n_pes` of capacity, the first `n_active` of them active.
    pub(crate) fn new(n_pes: usize, n_active: usize) -> Geometry {
        Geometry {
            alive: (0..n_pes).map(|p| p < n_active).collect(),
            failed: vec![false; n_pes],
            dirty: false,
        }
    }

    /// Per PE: whether it is in the active set.
    pub(crate) fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Per PE: whether it failed (and so can never be active again).
    pub(crate) fn failed(&self) -> &[bool] {
        &self.failed
    }

    /// The active set, ascending.
    pub(crate) fn active(&self) -> Vec<PeId> {
        (0..self.alive.len()).filter(|&p| self.alive[p]).collect()
    }

    /// PEs that could be active: capacity minus the failed ones.
    pub(crate) fn usable(&self) -> usize {
        self.failed.iter().filter(|f| !**f).count()
    }

    /// The buddy PE that holds a second copy of `pe`'s checkpoint
    /// images: the next alive PE cyclically (or `pe` itself when it is
    /// the only survivor).
    pub(crate) fn buddy_of(&self, pe: PeId) -> PeId {
        let n = self.alive.len();
        (1..n).map(|off| (pe + off) % n).find(|&p| self.alive[p]).unwrap_or(pe)
    }

    /// First alive PE at or cyclically after `p` (placement repair).
    pub(crate) fn first_alive_from(&self, p: PeId) -> PeId {
        let n = self.alive.len();
        (0..n)
            .map(|off| (p + off) % n)
            .find(|&q| self.alive[q])
            .expect("at least one alive PE")
    }

    /// The canonical active set for `target` PEs: the lowest-indexed
    /// `target` non-failed PEs (`target` clamped to `1..=usable`).
    /// Canonicalizing makes a rescale's outcome a pure function of
    /// (failed set, target), independent of the rescale history — the
    /// determinism bar's foundation.
    pub(crate) fn canonical(&self, target: usize) -> Vec<PeId> {
        let usable = (0..self.failed.len()).filter(|&p| !self.failed[p]);
        usable.take(target.clamp(1, self.usable())).collect()
    }

    /// Make `active` (non-failed PEs) the active set. Returns exactly the
    /// PEs that flipped: `(activated, deactivated)`.
    pub(crate) fn set_active(&mut self, active: &[PeId]) -> (Vec<PeId>, Vec<PeId>) {
        let (mut activated, mut deactivated) = (Vec::new(), Vec::new());
        for p in 0..self.alive.len() {
            let now = active.contains(&p);
            debug_assert!(!(now && self.failed[p]), "a failed PE cannot be activated");
            if now != self.alive[p] {
                self.alive[p] = now;
                if now { &mut activated } else { &mut deactivated }.push(p);
            }
        }
        self.dirty |= !(activated.is_empty() && deactivated.is_empty());
        (activated, deactivated)
    }

    /// `pe` fails for good. Returns whether it was alive — whether a PE
    /// that could hold ranks and checkpoint copies died, rather than a
    /// deactivated spare.
    pub(crate) fn kill(&mut self, pe: PeId) -> bool {
        let was_alive = std::mem::replace(&mut self.alive[pe], false);
        debug_assert!(self.alive.contains(&true), "the last alive PE cannot die");
        self.failed[pe] = true;
        self.dirty |= was_alive;
        was_alive
    }

    /// Whether the active set changed since the last call.
    pub(crate) fn take_dirty(&mut self) -> bool {
        std::mem::take(&mut self.dirty)
    }
}

impl Machine {
    /// PEs currently in the active set.
    pub fn active_pes(&self) -> usize {
        self.shared.geometry.active().len()
    }

    /// Request an elastic rescale of the active set to `n` PEs, applied
    /// at the next LB barrier (clamped to `1..=usable` where usable
    /// excludes permanently-failed PEs) as that step's last
    /// [`BarrierAction::Rescale`]. The build-time PE count is the
    /// capacity: `n` beyond it is clamped down.
    pub fn rescale(&mut self, n: usize) {
        let step = self.lb_steps + 1;
        let behind = self.barrier_script.partition_point(|&(s, _)| s <= step);
        self.barrier_script.insert(behind, (step, BarrierAction::Rescale(n)));
    }

    /// The loads, since the last LB step, of the ranks resident on `pe`.
    fn window_loads(&self, pe: PeId) -> impl Iterator<Item = SimDuration> + '_ {
        self.shared
            .location
            .residents(pe)
            .map(|r| self.rank(r).load_since_lb)
    }

    /// The alive PE with the smallest window load, ties broken by PE id.
    fn least_loaded_alive_pe(&self) -> PeId {
        let load = |pe| self.window_loads(pe).fold(SimDuration::ZERO, |acc, d| acc + d);
        let active = self.shared.geometry.active().into_iter();
        active.min_by_key(|&p| (load(p), p)).expect("at least one alive PE")
    }

    /// What a [`RescalePolicy`] sees at this barrier: per-active-PE
    /// window loads, in active-PE order.
    pub(crate) fn rescale_stats(&self) -> RescaleStats {
        let active = self.shared.geometry.active();
        let load = |&pe: &PeId| self.window_loads(pe).map(|d| d.as_secs_f64()).sum();
        RescaleStats {
            active_pes: active.len(),
            capacity: self.driver.lanes.len(),
            usable_pes: self.shared.geometry.usable(),
            pe_loads: active.iter().map(load).collect(),
            step: self.lb_steps,
        }
    }

    /// Kill PE `pe`. A live PE's resident ranks lose their memory, the
    /// machine rolls every rank back to the last coordinated checkpoint,
    /// and the dead PE's ranks are adopted by the surviving PEs (buddy
    /// images make the rollback possible even though the primary copy
    /// died with the PE). A deactivated spare hosts no rank and, after
    /// re-replication, no copy: it is only marked unusable, so no grow
    /// brings it back. A PE that already failed cannot fail again.
    /// Returns whether a live PE died.
    pub(crate) fn fail_pe(&mut self, pe: PeId) -> Result<bool, RtsError> {
        if self.shared.geometry.failed()[pe] {
            return Ok(false);
        }
        let mut lost: Vec<RankId> = Vec::new();
        if self.shared.geometry.alive()[pe] {
            if self.active_pes() < 2 {
                return Self::refuse(format!("cannot fail PE {pe}: it is the last alive PE"));
            }
            self.no_rank_completed("PE failure")?;
            lost.extend(self.shared.location.residents(pe));
        }
        self.tallies.faults.pe_failures += 1;
        self.trace(
            pe,
            NO_RANK,
            EventKind::PeFail {
                pe: pe as u32,
                ranks_lost: lost.len() as u32,
            },
        );
        if !self.shared.geometry.kill(pe) {
            return Ok(false);
        }
        self.driver.lanes[pe].state.ready.clear();
        // The dead PE's rank images are gone; coordinated rollback of
        // every rank (survivors included).
        self.rollback(&lost)?;
        // Survivors adopt the dead PE's ranks (least-loaded first); the
        // dead PE pays nothing.
        for r in lost {
            self.migrate_charged(r, self.least_loaded_alive_pe(), false)?;
        }
        Ok(true)
    }

    /// Commit an elastic rescale at an LB barrier (every live rank is
    /// parked at `AtSync`, ready queues are empty). Grown PEs rejoin the
    /// active set (their lanes and event-queue slices already exist at
    /// capacity; the barrier's clock advance brings their stale clocks
    /// up). Shrunk PEs are drained by migrating their residents to the
    /// least-loaded surviving PEs. Afterwards the buddy checkpoints are
    /// re-replicated onto the new geometry so no rank has fewer than two
    /// live copies.
    pub(crate) fn do_rescale(&mut self, target: usize) -> Result<(), RtsError> {
        let new_active = self.shared.geometry.canonical(target);
        let old_count = self.active_pes();
        let (activated, deactivated) = self.shared.geometry.set_active(&new_active);
        if activated.is_empty() && deactivated.is_empty() {
            return Ok(());
        }
        // Drain the shrunk PEs: at the barrier their residents are all
        // AtSync (or Done, which never runs again and needs no move).
        let mut drained = 0u32;
        for &d in &deactivated {
            debug_assert!(
                self.driver.lanes[d].state.ready.is_empty(),
                "barrier ready queue not empty"
            );
            let residents: Vec<RankId> = self.shared.location.residents(d).collect();
            for r in residents {
                if self.rank(r).status != RankStatus::Done {
                    // both endpoints pay the transfer, as in LB moves
                    self.migrate_charged(r, self.least_loaded_alive_pe(), true)?;
                    drained += 1;
                }
            }
        }
        self.tallies.elastic.rescales += 1;
        self.tallies.elastic.pes_activated += activated.len() as u32;
        self.tallies.elastic.pes_deactivated += deactivated.len() as u32;
        self.tallies.elastic.ranks_drained += drained;
        self.trace_job(EventKind::Rescale {
            from_pes: old_count as u32,
            to_pes: new_active.len() as u32,
            moved_ranks: drained,
        });
        self.re_replicate();
        Ok(())
    }

    /// Re-replicate the checkpoint images onto the current geometry.
    ///
    /// Full mode: a fresh coordinated checkpoint whose primary/buddy
    /// assignment is computed over the new active set. Incremental mode
    /// with a live chain: any in-flight delta is sealed first, then the
    /// chain itself is re-homed ([`Machine::rehome_chain`]; no
    /// `CheckpointTaken` is emitted). Gated like the periodic checkpoint
    /// (completed ranks cannot be re-captured).
    fn re_replicate(&mut self) {
        if self.ckpt.period == 0 || self.driver.done_count > 0 {
            return;
        }
        self.seal();
        let bytes = self.rehome_chain().unwrap_or_else(|| {
            self.take_checkpoint();
            self.checkpoint_image_bytes().0 as u64
        });
        let ranks = self.n_ranks() as u32;
        self.tallies.elastic.re_replications += 1;
        self.trace_job(EventKind::ReReplicate { ranks, bytes });
    }

    /// Restore the last checkpoint onto a different geometry: coordinated
    /// rollback (holders selected on the *current* active set — the
    /// checkpoint predates the geometry change), then switch the active
    /// set to the canonical `target` PEs and re-place every live rank in
    /// block order across them, exactly as a restart at that geometry
    /// would. Placement is a directory update, not a migration: the rank
    /// images were just restored, so there is no memory to move and no
    /// transfer to charge. Finishes by re-replicating the checkpoint on
    /// the new geometry.
    pub(crate) fn do_geometry_restore(&mut self, target: usize) -> Result<(), RtsError> {
        self.no_rank_completed("geometry restore")?;
        self.rollback(&[])?;
        let new_active = self.shared.geometry.canonical(target);
        let (activated, deactivated) = self.shared.geometry.set_active(&new_active);
        self.tallies.elastic.pes_activated += activated.len() as u32;
        self.tallies.elastic.pes_deactivated += deactivated.len() as u32;
        // Restart-style block placement over the new active list — the
        // same mapping `LocationManager::new_block` would produce for a
        // fresh machine with this many PEs.
        let n_ranks = self.n_ranks();
        let ratio = n_ranks.div_ceil(new_active.len());
        for r in 0..n_ranks {
            self.place(r, new_active[(r / ratio).min(new_active.len() - 1)]);
        }
        self.tallies.elastic.geometry_restores += 1;
        self.trace_job(EventKind::GeometryRestore {
            ranks: n_ranks as u32,
            to_pes: new_active.len() as u32,
        });
        self.re_replicate();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(active: usize, usable: usize, loads: Vec<f64>) -> RescaleStats {
        RescaleStats { active_pes: active, capacity: usable, usable_pes: usable, pe_loads: loads, step: 1 }
    }

    #[test]
    fn grows_under_pressure_and_shrinks_when_idle() {
        let p = UtilizationRescale {
            grow_above: 0.010,
            shrink_below: 0.001,
            min_pes: 1,
            max_pes: 4,
        };
        assert_eq!(p.decide(&stats(2, 4, vec![0.020, 0.015])), Some(3));
        assert_eq!(p.decide(&stats(3, 4, vec![0.0, 0.0005, 0.0])), Some(2));
        assert_eq!(p.decide(&stats(2, 4, vec![0.005, 0.005])), None, "in-band load holds");
    }

    #[test]
    fn respects_bounds_and_usable_capacity() {
        let p = UtilizationRescale {
            grow_above: 0.010,
            shrink_below: 0.001,
            min_pes: 2,
            max_pes: 8,
        };
        // usable capacity (failed PEs excluded) caps growth below max_pes
        assert_eq!(p.decide(&stats(3, 3, vec![1.0, 1.0, 1.0])), None);
        // min_pes floors shrink even when fully idle
        assert_eq!(p.decide(&stats(2, 4, vec![0.0, 0.0])), None);
    }

    #[test]
    fn empty_window_means_idle() {
        let p = UtilizationRescale {
            grow_above: 0.010,
            shrink_below: 0.001,
            min_pes: 1,
            max_pes: 4,
        };
        assert_eq!(p.decide(&stats(2, 4, vec![])), Some(1));
    }

    #[test]
    fn canonical_is_a_function_of_the_failed_set_and_the_target() {
        // Two histories reach the same failed set {1, 4} of 6 PEs...
        let mut a = Geometry::new(6, 6);
        a.kill(4);
        a.set_active(&a.canonical(2));
        a.kill(1);
        let mut b = Geometry::new(6, 3);
        b.kill(1);
        b.set_active(&b.canonical(6));
        b.kill(4);
        // ...and now disagree about who is active, not about `canonical`.
        assert_eq!((a.active(), b.active()), (vec![0], vec![0, 2, 3, 5]));
        for target in 0..=7 {
            assert_eq!(a.canonical(target), b.canonical(target), "target {target}");
        }
        assert_eq!(a.canonical(0), [0], "clamped up to one PE");
        assert_eq!(a.canonical(3), [0, 2, 3], "the lowest usable PEs");
        assert_eq!(a.canonical(7), [0, 2, 3, 5], "clamped down to the usable ones");
        assert_eq!(a.usable(), 4);
    }

    #[test]
    fn buddy_is_the_next_alive_pe_and_a_lone_survivor_is_its_own() {
        let mut g = Geometry::new(4, 4);
        assert_eq!((0..4).map(|p| g.buddy_of(p)).collect::<Vec<_>>(), [1, 2, 3, 0]);
        g.kill(1);
        assert_eq!((g.buddy_of(0), g.buddy_of(3)), (2, 0), "the dead PE is skipped");
        assert_eq!(g.buddy_of(1), 2, "a dead PE's copies went to its old buddy");
        assert_eq!((g.first_alive_from(1), g.first_alive_from(3)), (2, 3));
        g.set_active(&[2]);
        assert_eq!(g.buddy_of(2), 2, "one survivor: the buddy is the primary");
        assert_eq!((0..4).map(|p| g.first_alive_from(p)).collect::<Vec<_>>(), [2, 2, 2, 2]);
    }

    #[test]
    fn set_active_returns_exactly_the_flipped_pes() {
        let mut g = Geometry::new(5, 3);
        assert!(!g.take_dirty());
        assert_eq!(g.set_active(&[0, 1, 2]), (vec![], vec![]), "nothing to flip");
        assert!(!g.take_dirty(), "an unchanged set is not a change");
        assert_eq!(g.set_active(&[0, 1, 2, 3, 4]), (vec![3, 4], vec![]));
        assert!(g.take_dirty() && !g.take_dirty(), "reported once");
        assert_eq!(g.set_active(&[0, 1]), (vec![], vec![2, 3, 4]));
        assert_eq!(g.set_active(&[1, 2]), (vec![2], vec![0]), "both ways at once");
        assert_eq!(g.active(), [1, 2]);
        assert_eq!(g.alive(), [false, true, true, false, false]);
    }

    #[test]
    fn a_killed_pe_is_failed_and_never_alive() {
        let mut g = Geometry::new(4, 3);
        assert!(g.kill(1), "a live PE died");
        assert!(g.take_dirty());
        assert!(!g.kill(3), "a spare died: no live PE did");
        assert!(!g.take_dirty(), "the active set did not change");
        assert!(!g.kill(1), "already dead");
        assert_eq!(g.failed(), [false, true, false, true]);
        assert_eq!(g.active(), [0, 2]);
        assert_eq!(g.canonical(4), [0, 2], "a grow cannot bring either back");
    }
}
