//! COWglobals (§6 future work): PIEglobals' segment model made
//! page-granular and copy-on-write.
//!
//! PIEglobals eagerly copies O(ranks × segment) bytes at startup even
//! though most ranks never write most of their data segment. COWglobals
//! deduplicates that state:
//!
//! 1. startup is PIEglobals' own ([`PieCore`]): `dlopen` once per process,
//!    a `dl_iterate_phdr` diff, and the same memoized template (data
//!    snapshot + pointer-fixup plan); every per-rank step but the data
//!    segment's backing ([`DataCopy::Cow`]) is PIEglobals' code;
//! 2. the data snapshot is chopped into a shared, `Arc`'d
//!    [`PageTemplate`]; every rank maps it read-only through a
//!    [`CowSegment`] frame table whose backing store is a zero-filled
//!    Isomalloc data region (so private pages migrate with the rank);
//! 3. a rank's first write to a page takes a *simulated fault*: the fault
//!    handler copies that one template page into the rank's backing store,
//!    marks it private, and applies the write there
//!    ([`VarAccess::Cow`](crate::VarAccess::Cow));
//! 4. pages containing per-rank pointer fixups (the template's patch
//!    list) necessarily diverge, so they are privatized and patched at
//!    instantiation — a page never faulted is bit-identical across ranks
//!    by construction;
//! 5. when a rank's memory is packed (migration/checkpoint) the runtime
//!    asks [`Privatizer::cow_segment_snapshot`] for a *read-through*
//!    whole-segment view (template bytes for shared pages, backing bytes
//!    for private ones) and packs that in place of the backing region,
//!    so packed images are bit-exact with eager PIEglobals while COW
//!    page sharing — and the dedup audit built on it — survives
//!    checkpointing; incremental checkpoints pull epoch dirty pages via
//!    [`Privatizer::cow_delta_pages`] the same read-through way;
//! 6. per-rank dirty-page sets ([`pvr_progimage::DirtyTracker`]) feed the end-of-run
//!    dedup audit: pages that never diverged on *any* rank are reported
//!    as shared ([`pvr_trace::EventKind::DedupAudit`]).
//!
//! Code is never copied: ranks share the loaded image's code read-only
//! (it is immutable), and a zero ballast region of the code segment's
//! size keeps the rank's migratable memory layout — and therefore every
//! pack/unpack byte count — identical to PIEglobals'. The ballast's live
//! extent is empty, so an image counts it and stores nothing of it.

use super::pieglobals::{DataCopy, PieCore, ScanPolicy};
use crate::env::PrivatizeEnv;
use crate::rank::RankInstance;
use crate::{CowStats, Method, PrivatizeError, Privatizer};
use pvr_isomalloc::{RankMemory, Region, RegionKind};
use pvr_progimage::pages::{CowCell, CowSegment, PageTemplate, DEFAULT_PAGE_SIZE};
use std::sync::Arc;

/// One rank's COW state. The cell is boxed so the raw pointer embedded in
/// the rank's [`VarAccess::Cow`](crate::VarAccess::Cow) handles survives
/// `ranks` reallocation.
struct CowRank {
    rank: usize,
    cell: Box<CowCell>,
}

pub struct CowGlobals {
    core: PieCore,
    /// The shared read-only page table over the template's data snapshot.
    page_template: Option<Arc<PageTemplate>>,
    ranks: Vec<CowRank>,
}

impl CowGlobals {
    pub fn new(env: PrivatizeEnv, scan: ScanPolicy) -> Result<CowGlobals, PrivatizeError> {
        Ok(CowGlobals {
            core: PieCore::new(Method::CowGlobals, env, scan)?,
            page_template: None,
            ranks: Vec::new(),
        })
    }
}

impl Privatizer for CowGlobals {
    fn method(&self) -> Method {
        Method::CowGlobals
    }

    fn instantiate_rank(
        &mut self,
        rank: usize,
        mem: &mut RankMemory,
    ) -> Result<RankInstance, PrivatizeError> {
        let core = &mut self.core;
        let page_tpl = self
            .page_template
            .get_or_insert_with(|| {
                Arc::new(PageTemplate::new(&core.template().data, DEFAULT_PAGE_SIZE))
            })
            .clone();

        // PIEglobals' two regions, in its order and sizes. Code is shared
        // read-only: a zero ballast stands in for the copy, never written,
        // so images count its bytes and carry none of them. The backing
        // store starts zeroed; pages come from the template on first write.
        let code_len = core.common.base_image.code_region().len();
        let mut code_ballast = Region::new_zeroed(RegionKind::CodeSegment, code_len);
        code_ballast.set_live(0..0);
        let backing = Region::new_zeroed(RegionKind::DataSegment, page_tpl.len().max(1));
        let new_code = code_ballast.base() as usize;
        let backing_ptr = backing.base_mut();
        mem.add_region(code_ballast);
        mem.add_region(backing);

        // SAFETY: the backing region is rank-owned, spans the template's
        // length, and is only reached through this cell (region discipline).
        let cell = Box::new(CowCell::new(unsafe {
            CowSegment::new(page_tpl, backing_ptr)
        }));
        // Data-segment fixups hold per-rank pointers, so `DataCopy::Cow`
        // privatizes their pages through the fault handler now. This
        // keeps the dedup invariant exact — a page with zero faults is
        // bit-identical to the template on every rank.
        let data = DataCopy::Cow(&cell);
        let inst = core.instantiate(rank, Method::CowGlobals, mem, new_code, data)?;
        self.ranks.push(CowRank { rank, cell });
        Ok(inst)
    }

    fn supports_migration(&self) -> bool {
        // Private pages live in Isomalloc rank memory; packing reads the
        // rest through the page table (cow_segment_snapshot).
        true
    }

    fn parallel_startup_safe(&self) -> bool {
        // As PIEglobals: instantiation reads the shared immutable image
        // and this privatizer's own template; writes target fresh rank
        // memory.
        true
    }

    fn per_rank_copied_bytes(&self) -> usize {
        // Only the TLS block is copied eagerly; data pages are paid for
        // on first write.
        self.core.tls_block_size
    }

    fn rank_data_segment(&self, rank: usize) -> Option<(*const u8, usize)> {
        // The audit checksums raw memory, so hand it the materialized
        // whole-segment view (copy still-shared pages into the backing
        // store once; later audits see any external corruption).
        self.ranks.iter().find(|r| r.rank == rank).map(|r| {
            // SAFETY: audits run from runtime bookkeeping while the rank
            // is not executing (CowCell contract).
            let seg = unsafe { r.cell.segment() };
            seg.materialize();
            (seg.base() as *const u8, seg.len())
        })
    }

    fn cow_segment_snapshot(&self, rank: usize) -> Option<(usize, Vec<u8>)> {
        self.ranks.iter().find(|r| r.rank == rank).map(|r| {
            // SAFETY: pack runs from runtime bookkeeping while the rank
            // is not executing (CowCell contract).
            let seg = unsafe { r.cell.segment() };
            (seg.base() as usize, seg.snapshot())
        })
    }

    fn cow_delta_pages(&mut self, rank: usize, since: u64) -> Option<crate::CowDeltaPages> {
        self.ranks.iter().find(|r| r.rank == rank).map(|r| {
            // SAFETY: capture runs from runtime bookkeeping while the
            // rank is not executing (CowCell contract).
            let seg = unsafe { r.cell.segment() };
            let pages = seg.delta_pages_since(since);
            let next_since = seg.advance_epoch();
            crate::CowDeltaPages {
                seg_base: seg.base() as usize,
                page_size: seg.page_size(),
                pages,
                next_since,
            }
        })
    }

    fn cow_advance_epoch(&mut self, rank: usize) -> u64 {
        self.ranks
            .iter()
            .find(|r| r.rank == rank)
            // SAFETY: as above — runtime bookkeeping, rank not executing.
            .map(|r| unsafe { r.cell.segment() }.advance_epoch())
            .unwrap_or(0)
    }

    fn cow_stats(&self) -> Option<CowStats> {
        let total_pages = self
            .page_template
            .as_ref()
            .map(|t| t.n_pages())
            .unwrap_or(0);
        let mut stats = CowStats {
            ranks: self.ranks.len() as u64,
            total_pages: total_pages as u64,
            page_size: DEFAULT_PAGE_SIZE as u64,
            faulted_page_union: vec![0u64; total_pages.div_ceil(64)],
            ..CowStats::default()
        };
        for r in &self.ranks {
            // SAFETY: stats collection runs from runtime bookkeeping while
            // ranks are not executing (CowCell contract).
            let seg = unsafe { r.cell.segment() };
            stats.page_faults += seg.tracker().faults();
            stats.pages_privatized += seg.tracker().dirty_count() as u64;
            if seg.is_materialized() {
                stats.materialized_ranks += 1;
            }
            for page in seg.tracker().dirty_pages() {
                stats.faulted_page_union[page / 64] |= 1u64 << (page % 64);
            }
        }
        Some(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::pieglobals::PieGlobals;
    use crate::regs;
    use pvr_progimage::{link, CtorSpec, FunctionSpec, ImageSpec};

    /// The PIEglobals test fixture plus a multi-page array that no ctor
    /// touches — the read-mostly state COW should keep shared.
    fn bin() -> Arc<pvr_progimage::ProgramBinary> {
        link(
            ImageSpec::builder("app")
                .global("g", 8)
                .static_var("s", 8)
                .thread_local("t", 8)
                .global("vt", 8)
                .global("hp", 8)
                .global("lp", 8)
                .global("big", 4 * DEFAULT_PAGE_SIZE)
                .global("tail", 8)
                .function(
                    FunctionSpec::new("combine", 128).with_callable(Arc::new(|_i, _o| {})),
                )
                .ctor(
                    CtorSpec::new("init")
                        .alloc_into(64, "hp")
                        .fn_ptr_into("vt", "combine")
                        .data_ptr_into("lp", "g"),
                )
                .code_padding(4096)
                .build(),
        )
    }

    fn make() -> CowGlobals {
        CowGlobals::new(PrivatizeEnv::new(bin()), ScanPolicy::default()).unwrap()
    }

    #[test]
    fn ranks_are_isolated_and_reads_come_from_the_shared_template() {
        let mut p = make();
        let mut m0 = RankMemory::new();
        let mut m1 = RankMemory::new();
        let r0 = p.instantiate_rank(0, &mut m0).unwrap();
        let r1 = p.instantiate_rank(1, &mut m1).unwrap();

        let g0 = r0.access("g");
        let g1 = r1.access("g");
        g0.write_u64(111);
        g1.write_u64(222);
        assert_eq!(g0.read_u64(), 111);
        assert_eq!(g1.read_u64(), 222);

        // A variable neither rank wrote reads the same template bytes on
        // both ranks without faulting its page on either.
        assert_eq!(r0.access("big").read_bytes(64), r1.access("big").read_bytes(64));
        regs::clear();
    }

    #[test]
    fn ctor_fixups_are_patched_per_rank_on_faulted_pages() {
        let mut p = make();
        let mut m0 = RankMemory::new();
        let mut m1 = RankMemory::new();
        let r0 = p.instantiate_rank(0, &mut m0).unwrap();
        let r1 = p.instantiate_rank(1, &mut m1).unwrap();
        assert!(p.core.fixups_applied > 0);

        // vt holds a per-rank function pointer: decoding it against each
        // rank's code base recovers the same image-relative offset.
        let off = p.core.common.env.binary.fn_offset_of("combine").unwrap();
        assert_eq!(r0.fn_addr_to_offset(r0.access("vt").read_u64() as usize), off);
        assert_eq!(r1.fn_addr_to_offset(r1.access("vt").read_u64() as usize), off);
        assert_ne!(r0.access("vt").read_u64(), r1.access("vt").read_u64());

        // lp points at each rank's own `g` inside its COW backing store.
        let lp0 = r0.access("lp").read_u64() as usize;
        let lp1 = r1.access("lp").read_u64() as usize;
        assert_ne!(lp0, lp1);
        unsafe { (lp0 as *mut u64).write(7) };
        assert_eq!(r0.access("g").read_u64(), 7, "lp aliases rank 0's g");

        // hp points at each rank's private ctor heap clone.
        assert_ne!(r0.access("hp").read_u64(), r1.access("hp").read_u64());
        regs::clear();
    }

    #[test]
    fn fault_accounting_matches_writes_and_startup_patches() {
        let mut p = make();
        let mut m0 = RankMemory::new();
        let r0 = p.instantiate_rank(0, &mut m0).unwrap();

        let startup = p.cow_stats().unwrap();
        assert_eq!(startup.ranks, 1);
        assert!(startup.page_faults > 0, "patch pages fault at startup");
        assert_eq!(startup.page_faults, startup.pages_privatized);

        // Reads never fault.
        let _ = r0.access("big").read_bytes(4 * DEFAULT_PAGE_SIZE);
        assert_eq!(p.cow_stats().unwrap().page_faults, startup.page_faults);

        // A cold write faults exactly the covered page(s): `tail` sits
        // past the multi-page array, far from the startup patch pages.
        r0.access("tail").write_u64(9);
        let after = p.cow_stats().unwrap();
        assert_eq!(after.page_faults, startup.page_faults + 1);
        // Warm write: no new fault.
        r0.access("tail").write_u64(10);
        assert_eq!(p.cow_stats().unwrap().page_faults, after.page_faults);
        regs::clear();
    }

    #[test]
    fn dedup_union_reports_never_diverged_pages() {
        let mut p = make();
        let mut mems: Vec<RankMemory> = (0..3).map(|_| RankMemory::new()).collect();
        let insts: Vec<_> = mems
            .iter_mut()
            .enumerate()
            .map(|(i, m)| p.instantiate_rank(i, m).unwrap())
            .collect();
        for inst in &insts {
            inst.access("g").write_u64(inst.rank() as u64);
        }
        let stats = p.cow_stats().unwrap();
        let diverged: u64 = stats.faulted_page_union.iter().map(|w| w.count_ones() as u64).sum();
        assert!(
            diverged < stats.total_pages,
            "the untouched pages of `big` must stay shared: {diverged}/{}",
            stats.total_pages
        );
        // Every diverged page was faulted by someone; zero-fault pages are
        // exactly the shared ones.
        assert!(stats.page_faults >= diverged);
        regs::clear();
    }

    #[test]
    fn materialized_segment_is_bit_identical_to_eager_pieglobals() {
        let shared_bin = bin();
        let mut cow =
            CowGlobals::new(PrivatizeEnv::new(shared_bin.clone()), ScanPolicy::default()).unwrap();
        let mut pie =
            PieGlobals::new(PrivatizeEnv::new(shared_bin), ScanPolicy::default()).unwrap();
        let mut mc = RankMemory::new();
        let mut mp = RankMemory::new();
        let rc = cow.instantiate_rank(0, &mut mc).unwrap();
        let rp = pie.instantiate_rank(0, &mut mp).unwrap();

        // Layout parity: the same regions, in the same order and sizes,
        // and the same heap allocations — what makes migration and
        // checkpoint byte counts equal.
        let layout = |m: &RankMemory| -> Vec<(RegionKind, usize)> {
            m.regions().map(|r| (r.kind(), r.len())).collect()
        };
        assert_eq!(layout(&mc), layout(&mp), "rank regions must match");
        assert_eq!(
            mc.heap_ref().stats(),
            mp.heap_ref().stats(),
            "heap stats must match"
        );

        // Same writes through both methods' access paths.
        for inst in [&rc, &rp] {
            inst.access("g").write_u64(42);
            inst.access("big").write_bytes(&[7u8; 100]);
        }

        let (cb, cl) = cow.rank_data_segment(0).unwrap();
        let (pb, pl) = pie.rank_data_segment(0).unwrap();
        assert_eq!(cl, pl, "segment lengths must match");
        let cs = unsafe { std::slice::from_raw_parts(cb, cl) };
        let ps = unsafe { std::slice::from_raw_parts(pb, pl) };
        // Pointer-valued words differ by construction (they point into
        // each method's own rank memory); compare everything else.
        let patch_words: std::collections::HashSet<usize> = cow
            .core
            .template()
            .data_patches
            .iter()
            .map(|&(off, _)| off)
            .collect();
        for i in 0..cl {
            if patch_words.contains(&(i & !7)) {
                continue;
            }
            assert_eq!(cs[i], ps[i], "byte {i} diverges from eager PIEglobals");
        }
        regs::clear();
    }

    #[test]
    fn pack_snapshot_reads_through_without_materializing() {
        let mut p = make();
        let mut m = RankMemory::new();
        let r = p.instantiate_rank(0, &mut m).unwrap();
        r.access("g").write_u64(42);
        let (base, snap) = p.cow_segment_snapshot(0).unwrap();
        assert_eq!(
            p.cow_stats().unwrap().materialized_ranks,
            0,
            "snapshot must not materialize"
        );
        // The snapshot matches the audit's materialized view byte-for-byte.
        let (sb, sl) = p.rank_data_segment(0).unwrap();
        assert_eq!(sb as usize, base);
        let mat = unsafe { std::slice::from_raw_parts(sb, sl) };
        assert_eq!(&snap[..], mat);
        assert_eq!(
            p.cow_stats().unwrap().materialized_ranks,
            1,
            "the audit path still materializes"
        );
        regs::clear();
    }

    #[test]
    fn delta_pages_capture_epoch_dirty_pages_read_through() {
        let mut p = make();
        let mut m = RankMemory::new();
        let r = p.instantiate_rank(0, &mut m).unwrap();
        let d1 = p.cow_delta_pages(0, 1).unwrap();
        assert!(!d1.pages.is_empty(), "startup patch pages dirty in epoch 1");
        assert_eq!(d1.next_since, 2);
        // nothing written since: the next capture is empty
        let d2 = p.cow_delta_pages(0, d1.next_since).unwrap();
        assert!(d2.pages.is_empty());
        r.access("tail").write_u64(77);
        let d3 = p.cow_delta_pages(0, d2.next_since).unwrap();
        assert_eq!(d3.pages.len(), 1, "only tail's page is dirty this epoch");
        assert_eq!(d3.page_size, DEFAULT_PAGE_SIZE);
        assert_eq!(
            p.cow_stats().unwrap().materialized_ranks,
            0,
            "delta capture must not materialize"
        );
        regs::clear();
    }

    #[test]
    fn per_rank_copied_bytes_is_sublinear_in_segment_size() {
        let mut p = make();
        let mut m = RankMemory::new();
        let _ = p.instantiate_rank(0, &mut m).unwrap();
        assert!(
            p.per_rank_copied_bytes() < 4 * DEFAULT_PAGE_SIZE,
            "COW must not eagerly copy the data segment"
        );
        regs::clear();
    }
}
