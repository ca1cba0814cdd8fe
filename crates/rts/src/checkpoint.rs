//! Coordinated, buddy-replicated checkpoints: the images a barrier
//! captures (whole, or as a bounded chain of dirty-page deltas), the
//! seal that marks a delta's asynchronous buddy stream complete, and the
//! chain-aware, failure-atomic restore a rollback reads them back with.
//! Only the barrier calls into this module; [`Checkpoints`] is the state
//! only this module touches.

use crate::machine::{Machine, RtsError};
use crate::{PeId, RankId};
use pvr_trace::EventKind;

/// One incremental checkpoint delta for one rank: the sparse patch that
/// turns the previous capture's image into this capture's image.
///
/// The primary copy (`patch`) exists as soon as the delta is captured;
/// the buddy copy (`buddy_patch`) appears only when the delta is
/// *sealed* at the next LB barrier — modeling the asynchronous stream to
/// the buddy PE completing between barriers. A restore that must fall
/// back to the buddy can therefore only use the sealed prefix of the
/// chain (the consistent cut).
struct RankDelta {
    /// Primary copy of the sparse patch (home PE).
    patch: pvr_isomalloc::ImageDelta,
    /// Buddy copy; `Some` once the async stream sealed at a barrier.
    buddy_patch: Option<pvr_isomalloc::ImageDelta>,
    /// Checksum of `patch` at capture time, verified before restore.
    checksum: u64,
    /// Suspended stack pointer observed together with this capture.
    sp: Option<usize>,
    /// Request-engine state observed together with this capture.
    req: crate::matching::ReqState,
    /// Dirty-epoch floor for the *next* delta capture of this rank's COW
    /// segment (0 when the rank has no COW segment).
    cow_since: u64,
}

impl RankDelta {
    /// The copy of this delta a restore reads — the home PE's, or the
    /// buddy's when the home PE is dead — if that holder has it yet.
    fn held(&self, from_buddy: bool) -> Option<&pvr_isomalloc::ImageDelta> {
        if from_buddy {
            self.buddy_patch.as_ref()
        } else {
            Some(&self.patch)
        }
    }
}

/// One rank's entry in a coordinated checkpoint. The base image is
/// immutable once packed and has two holders — the rank's home PE and
/// that PE's buddy — so a single PE failure cannot lose it. Both holders
/// are this one buffer: the simulation's PEs share an address space, the
/// copy to the buddy belongs to the asynchronous stream, not to the pause
/// the capture is timed by, and which holder a restore reads from is
/// decided by PE liveness alone. In incremental mode a bounded chain of
/// [`RankDelta`]s rides on top of the base; the newest captured image is
/// the base read through that chain and is never built.
struct CheckpointEntry {
    image: pvr_isomalloc::MigrationBuffer,
    /// Suspended stack pointer observed together with the image.
    sp: Option<usize>,
    /// Request-engine state observed together with the image, restored
    /// with it so rolled-back ranks see the barrier's request table.
    req: crate::matching::ReqState,
    /// Checksum of the image at pack time, verified before restore.
    checksum: u64,
    /// PE holding `image` and the unsealed tail of `deltas`.
    primary_pe: PeId,
    /// PE holding the second copy of `image` and the sealed deltas.
    buddy_pe: PeId,
    /// Incremental delta chain on top of `image`, oldest first.
    deltas: Vec<RankDelta>,
    /// Dirty-epoch floor for the first delta after the base capture.
    base_cow_since: u64,
}

/// A coordinated checkpoint: one entry per rank, taken at an LB barrier.
pub(crate) struct Checkpoint {
    entries: Vec<CheckpointEntry>,
    /// True while the most recent delta capture has not yet been sealed
    /// to the buddies (its async stream is still in flight). At most the
    /// last delta of each entry's chain can be unsealed.
    unsealed: bool,
}

impl Checkpoint {
    /// Maximum delta-chain length across the ranks.
    fn chain_len(&self) -> usize {
        self.entries.iter().map(|e| e.deltas.len()).max().unwrap_or(0)
    }
}

/// The checkpoint configuration and the checkpoint currently held.
pub(crate) struct Checkpoints {
    /// Capture at every `period`-th LB step (0 = never).
    pub(crate) period: u32,
    /// Periodic captures between base images take dirty-page deltas
    /// chained on the base.
    pub(crate) incremental: bool,
    /// Delta-chain length bound; a due capture at the bound compacts
    /// into a fresh base.
    pub(crate) max_chain: u32,
    /// Most recent coordinated checkpoint (buddy-replicated per rank).
    pub(crate) last: Option<Checkpoint>,
}

impl Checkpoints {
    /// Delta-chain length of the checkpoint held (0 without one).
    pub(crate) fn chain_len(&self) -> u32 {
        self.last.as_ref().map_or(0, |c| c.chain_len() as u32)
    }

    /// Fault injection: flip one payload byte of the newest delta of the
    /// first rank that has one with a payload.
    pub(crate) fn corrupt_newest_delta(&mut self, byte: usize) {
        let entries = self.last.iter_mut().flat_map(|c| &mut c.entries);
        for e in entries {
            if e.deltas.last_mut().is_some_and(|d| d.patch.corrupt_byte(byte)) {
                break;
            }
        }
    }
}

impl Machine {
    /// Seal the in-flight delta capture, if any: the asynchronous stream
    /// to each buddy PE completes, so every rank's latest delta gains its
    /// buddy copy and the chain's sealed prefix (what a buddy-side
    /// restore may use) extends to the full chain. The first phase of
    /// every LB barrier — the consistent-cut marker.
    pub(crate) fn seal(&mut self) {
        let Some(ckpt) = self.ckpt.last.as_mut().filter(|c| c.unsealed) else {
            return;
        };
        let mut bytes = 0u64;
        let newest = ckpt.entries.iter_mut().filter_map(|e| e.deltas.last_mut());
        for d in newest.filter(|d| d.buddy_patch.is_none()) {
            bytes += d.patch.bytes() as u64;
            d.buddy_patch = Some(d.patch.clone());
        }
        ckpt.unsealed = false;
        let epoch = ckpt.chain_len() as u32;
        self.tallies.ckpt.seals += 1;
        self.tallies.ckpt.async_drains += 1;
        self.tallies.ckpt.async_bytes += bytes;
        self.trace_job(EventKind::CkptAsyncDrain { bytes });
        self.trace_job(EventKind::CkptSeal {
            step: self.lb_steps,
            epoch,
        });
    }

    /// Whether the next incremental capture can append a delta to
    /// `ckpt`'s chain rather than start from a fresh base.
    fn chain_usable(&self, ckpt: &Checkpoint) -> bool {
        let alive = self.geometry.alive();
        ckpt.entries.len() == self.ranks.len()
            && (ckpt.chain_len() as u32) < self.ckpt.max_chain
            // A dead holder degrades the chain to (at most) one live
            // copy; re-establish two-copy redundancy with a fresh base,
            // exactly as full mode does each barrier.
            && ckpt.entries.iter().all(|e| alive[e.primary_pe] && alive[e.buddy_pe])
            && ckpt
                .entries
                .iter()
                .enumerate()
                .all(|(r, e)| self.ranks[r].memory.verify_layout(&e.image).is_ok())
    }

    /// Take one periodic capture in incremental mode: a fresh base when
    /// no usable chain exists (first capture, a rank's layout drifted
    /// from the previous image, or the chain hit `ckpt_max_chain` —
    /// compaction), otherwise a dirty-page delta appended to the chain.
    pub(crate) fn take_incremental_checkpoint(&mut self) {
        let prior_chain = self.ckpt.chain_len();
        let Some(mut ckpt) = self.ckpt.last.take().filter(|c| self.chain_usable(c)) else {
            self.take_checkpoint();
            if prior_chain > 0 {
                // The fresh base replaced a delta chain: compaction.
                let bytes = self.checkpoint_image_bytes().0 as u64;
                self.tallies.ckpt.compactions += 1;
                self.trace_job(EventKind::CkptCompact {
                    chain: prior_chain,
                    bytes,
                });
            }
            return;
        };

        let mut total_pages = 0u64;
        let mut total_bytes = 0u64;
        let mut dirty_ranks = 0u32;
        for (r, e) in ckpt.entries.iter_mut().enumerate() {
            let since = e
                .deltas
                .last()
                .map(|d| d.cow_since)
                .unwrap_or(e.base_cow_since);
            // COW segments hand over their epoch-stamped dirty pages
            // (read through the page table) and advance their epoch;
            // every other region is scanned against the previous image.
            let mut cow = self
                .privatizers
                .iter_mut()
                .find_map(|p| p.cow_delta_pages(r, since));
            // The previous capture is the base read through the chain.
            let chain: Vec<&pvr_isomalloc::ImageDelta> =
                e.deltas.iter().map(|d| &d.patch).collect();
            let sp = self.refresh_stack_extent(r);
            let patch = self.ranks[r].memory.diff_pages_against_chain(
                &e.image,
                &chain,
                pvr_progimage::DEFAULT_PAGE_SIZE,
                |reg| match &mut cow {
                    Some(c) if reg.base() as usize == c.seg_base => {
                        pvr_isomalloc::RegionDiffPlan::Pages {
                            page_size: c.page_size,
                            pages: std::mem::take(&mut c.pages),
                        }
                    }
                    _ => pvr_isomalloc::RegionDiffPlan::Scan,
                },
            );
            let Some(patch) = patch else {
                // Layout drifted between the verify above and the diff
                // (cannot happen at a quiescent barrier; defensive):
                // discard the partial delta pass and take a fresh base.
                self.take_checkpoint();
                return;
            };
            let cow_since = cow.map(|c| c.next_since).unwrap_or(0);
            if !patch.is_empty() {
                dirty_ranks += 1;
            }
            total_pages += patch.range_count() as u64;
            total_bytes += patch.bytes() as u64;
            let checksum = patch.checksum();
            e.deltas.push(RankDelta {
                patch,
                buddy_patch: None,
                checksum,
                sp,
                req: self.ranks[r].matcher.snapshot(),
                cow_since,
            });
        }
        ckpt.unsealed = true;
        let chain = ckpt.chain_len() as u32;
        self.ckpt.last = Some(ckpt);
        self.tallies.ckpt.deltas += 1;
        self.tallies.ckpt.pages_delta += total_pages;
        self.tallies.ckpt.delta_bytes += total_bytes;
        self.tallies.ckpt.max_in_flight_bytes =
            self.tallies.ckpt.max_in_flight_bytes.max(total_bytes);
        self.tallies.ckpt.max_chain_len = self.tallies.ckpt.max_chain_len.max(chain);
        self.trace_job(EventKind::CkptDelta {
            step: self.lb_steps,
            ranks: dirty_ranks,
            pages: total_pages,
            bytes: total_bytes,
        });
    }

    /// Take a coordinated checkpoint: pack every live rank's memory
    /// (valid at an LB barrier, where all live ranks are parked at
    /// `AtSync` with drained mailboxes). Each image is replicated to the
    /// home PE's buddy so one PE failure cannot lose it.
    pub(crate) fn take_checkpoint(&mut self) {
        let mut entries: Vec<CheckpointEntry> = Vec::with_capacity(self.ranks.len());
        for r in 0..self.ranks.len() {
            // COW methods supply a read-through view of their page table
            // (template bytes for shared pages, backing bytes for private
            // ones), so packing never materializes the backing store and
            // cross-rank page sharing survives every checkpoint.
            let mut image = pvr_isomalloc::MigrationBuffer::default();
            let sp = self.refresh_stack_extent(r);
            self.pack_rank_read_through(r, |_| true, &mut image);
            let checksum = image.checksum();
            let primary_pe = self.ranks[r].location;
            // Epoch floor for the first delta on top of this base: pages
            // dirtied from here on belong to the next capture.
            let base_cow_since = if self.ckpt.incremental {
                self.privatizers
                    .iter_mut()
                    .map(|p| p.cow_advance_epoch(r))
                    .find(|&e| e > 0)
                    .unwrap_or(0)
            } else {
                0
            };
            entries.push(CheckpointEntry {
                image,
                sp,
                req: self.ranks[r].matcher.snapshot(),
                checksum,
                primary_pe,
                buddy_pe: self.geometry.buddy_of(primary_pe),
                deltas: Vec::new(),
                base_cow_since,
            });
        }
        self.ckpt.last = Some(Checkpoint {
            entries,
            unsealed: false,
        });
        self.audit_buddies();
        self.tallies.faults.checkpoints += 1;
        self.trace_job(EventKind::CheckpointTaken {
            step: self.lb_steps,
            bytes: self.checkpoint_image_bytes().0 as u64,
        });
    }

    /// Degenerate-redundancy audit of the checkpoint held: with a single
    /// alive PE the buddy *is* the primary, so those images exist only
    /// once — warn loudly instead of silently halving the fault
    /// tolerance.
    fn audit_buddies(&mut self) {
        let entries = self.ckpt.last.iter().flat_map(|c| &c.entries);
        let mut degenerate = entries.filter(|e| e.buddy_pe == e.primary_pe);
        let Some(first) = degenerate.next() else {
            return;
        };
        let pe = first.primary_pe as u32;
        let ranks = 1 + degenerate.count() as u32;
        self.tallies.faults.degenerate_buddies += ranks;
        self.trace_job(EventKind::BuddyDegenerate { pe, ranks });
    }

    /// Incremental mode's re-replication: re-home the chain held onto the
    /// current geometry — every entry's primary and buddy move to the
    /// rank's current PE and its buddy — and return the traffic that
    /// takes: the base plus the sealed chain (not a flattened copy, and
    /// not a fresh capture). `None` without a chain to re-home.
    pub(crate) fn rehome_chain(&mut self) -> Option<u64> {
        let ckpt = self.ckpt.last.as_mut().filter(|_| self.ckpt.incremental)?;
        let mut bytes = 0u64;
        for (r, e) in ckpt.entries.iter_mut().enumerate() {
            e.primary_pe = self.ranks[r].location;
            e.buddy_pe = self.geometry.buddy_of(e.primary_pe);
            let sealed = e.deltas.iter().filter(|d| d.buddy_patch.is_some());
            bytes += e.image.len() as u64 + sealed.map(|d| d.patch.bytes() as u64).sum::<u64>();
        }
        self.audit_buddies();
        Some(bytes)
    }

    /// Restore every rank's memory from `ckpt`, the checkpoint held
    /// ([`Machine::rollback`] is the caller). Ranks resume from the sync
    /// point at which the checkpoint was taken and recompute forward —
    /// classic coordinated rollback.
    ///
    /// With a delta chain, the restored state is the *consistent cut*:
    /// the longest chain prefix available on a live holder for every
    /// rank. A rank whose primary PE is alive offers its whole chain; a
    /// rank falling back to its buddy offers only the sealed prefix (the
    /// async stream never delivered the unsealed tail). The minimum over
    /// all ranks is applied everywhere, so the job resumes from one
    /// coordinated barrier — possibly an earlier one than the latest
    /// delta capture.
    ///
    /// Failure-atomic: every base image and every chained delta up to
    /// the cut is selected (from a live holder), checksummed,
    /// layout/bounds-verified before any rank is mutated, so a restore
    /// that cannot succeed leaves all rank memory untouched. Either way
    /// the checkpoint stays in place.
    pub(crate) fn restore_checkpoint(&mut self, mut ckpt: Checkpoint) -> Result<(), RtsError> {
        // Phase 1: verify everything, mutating nothing.
        let verified = self.verify_checkpoint(&ckpt);
        // Phase 2: restore is two-phase per rank — the base unpacked
        // into the rank's regions and every delta up to the cut written
        // over it in place (no staging image), then the suspension point
        // (stack pointer) those bytes belong to. The chain is truncated
        // to the cut: deltas past it (an unsealed tail whose primary
        // died) are gone for every rank alike. Phase 1 proved every step
        // below can succeed; should one fail regardless, it is an error
        // the caller answers by abandoning the half-restored ranks.
        let restored = verified.and_then(|(cut, use_buddy)| {
            let mut entries = ckpt.entries.iter_mut().zip(use_buddy).enumerate();
            entries.try_for_each(|(rank, (e, buddy))| self.restore_rank(rank, e, cut, buddy))
        });
        ckpt.unsealed = ckpt
            .entries
            .iter()
            .any(|e| e.deltas.last().is_some_and(|d| d.buddy_patch.is_none()));
        let ranks = ckpt.entries.len() as u32;
        self.ckpt.last = Some(ckpt);
        restored?;
        self.tallies.faults.recoveries += 1;
        self.trace_job(EventKind::Recovery { ranks });
        Ok(())
    }

    /// Restore phase 1: pick a live holder per rank, find the consistent
    /// cut, and verify every image and delta inside it. Returns the cut
    /// and, per rank, whether its buddy is the holder.
    fn verify_checkpoint(&self, ckpt: &Checkpoint) -> Result<(usize, Vec<bool>), RtsError> {
        let alive = self.geometry.alive();
        // 1a: pick a live holder per rank and find the consistent
        // cut — the longest chain prefix every holder can supply.
        let mut cut = usize::MAX;
        let mut use_buddy = Vec::with_capacity(ckpt.entries.len());
        for (rank, e) in ckpt.entries.iter().enumerate() {
            let from_buddy = if alive[e.primary_pe] {
                false
            } else if alive[e.buddy_pe] {
                true
            } else {
                return Err(RtsError::CheckpointLost {
                    rank,
                    primary_pe: e.primary_pe,
                    buddy_pe: e.buddy_pe,
                });
            };
            let avail = e.deltas.iter().take_while(|d| d.held(from_buddy).is_some()).count();
            cut = cut.min(avail);
            use_buddy.push(from_buddy);
        }
        let cut = if ckpt.entries.is_empty() { 0 } else { cut };
        // 1b: verify base checksums, layouts, and every delta up to
        // the cut (checksum + range placement) for the chosen holders.
        for (rank, (e, &from_buddy)) in ckpt.entries.iter().zip(&use_buddy).enumerate() {
            if e.image.checksum() != e.checksum {
                return Err(RtsError::Protocol {
                    rank,
                    detail: "checkpoint image checksum mismatch".into(),
                });
            }
            let memory = &self.ranks[rank].memory;
            memory.verify_layout(&e.image).map_err(|e| unusable(rank, e))?;
            for d in &e.deltas[..cut] {
                let patch = d.held(from_buddy).ok_or_else(|| unsealed(rank))?;
                if patch.checksum() != d.checksum {
                    return Err(RtsError::Protocol {
                        rank,
                        detail: "checkpoint delta checksum mismatch".into(),
                    });
                }
                // Patches land in live regions, not a staging image:
                // every range must sit inside one region's body.
                memory.verify_delta(patch).map_err(|e| unusable(rank, e))?;
            }
        }
        Ok((cut, use_buddy))
    }

    /// Restore phase 2 for one rank: base, chain up to `cut`, request
    /// table, suspension point; the chain is truncated to the cut.
    fn restore_rank(
        &mut self,
        rank: RankId,
        e: &mut CheckpointEntry,
        cut: usize,
        from_buddy: bool,
    ) -> Result<(), RtsError> {
        let chain = &e.deltas[..cut];
        // The cut's barrier state: its suspension point decides which
        // stack bytes are state — the ones the restore writes, zeroing
        // what the base does not store — whatever `sp` is now.
        let sp = chain.iter().rev().find_map(|d| d.sp).or(e.sp);
        let req = chain.last().map_or(&e.req, |d| &d.req);
        let memory = &mut self.ranks[rank].memory;
        memory.set_stack_live(sp);
        memory.unpack_into(&e.image).map_err(|e| unusable(rank, e))?;
        for d in chain {
            let patch = d.held(from_buddy).ok_or_else(|| unsealed(rank))?;
            memory.apply_delta(patch).map_err(|e| unusable(rank, e))?;
        }
        #[cfg(test)]
        if crate::machine::tests::restore_skips_heap() {
            // seeded mutant: the heap stays as the fault left it
            for reg in memory.heap_ref().regions() {
                // SAFETY: as in `scribble_rank`.
                unsafe { std::ptr::write_bytes(reg.base_mut(), 0xDE, reg.live().end) };
            }
        }
        // The request table rolls back with the memory it belongs
        // to — the cut's barrier state.
        self.ranks[rank].matcher.restore(req);
        e.deltas.truncate(cut);
        if let (Some(sp), Some(ult)) = (sp, self.ranks[rank].ult.as_mut()) {
            // SAFETY: the stack bytes were just restored to exactly
            // the state observed together with this sp.
            unsafe { ult.restore_suspended_sp(sp) };
        }
        Ok(())
    }

    /// Size of the base images of the checkpoint currently held, summed
    /// over ranks: `(logical, stored)` — what the reports count and the
    /// network model is charged, and what the buffers hold. `(0, 0)`
    /// without a checkpoint.
    pub fn checkpoint_image_bytes(&self) -> (usize, usize) {
        self.ckpt.last.iter().flat_map(|c| &c.entries).fold((0, 0), |(l, s), e| {
            (l + e.image.len(), s + e.image.stored_len())
        })
    }

    /// Checkpoint/restart totals: (checkpoints taken, recoveries done).
    pub fn fault_tolerance_stats(&self) -> (u32, u32) {
        (self.tallies.faults.checkpoints, self.tallies.faults.recoveries)
    }
}

fn unusable(rank: RankId, e: pvr_isomalloc::rank_memory::UnpackError) -> RtsError {
    RtsError::Protocol {
        rank,
        detail: format!("checkpoint restore failed: {e}"),
    }
}

fn unsealed(rank: RankId) -> RtsError {
    RtsError::Protocol {
        rank,
        detail: "checkpoint delta inside the cut is not held by the buddy".into(),
    }
}
