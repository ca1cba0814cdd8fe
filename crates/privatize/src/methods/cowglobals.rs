//! COWglobals (§6 future work): PIEglobals' segment model made
//! page-granular and copy-on-write.
//!
//! PIEglobals eagerly copies O(ranks × segment) bytes at startup even
//! though most ranks never write most of their data segment. COWglobals
//! deduplicates that state:
//!
//! 1. startup discovers the binary's segments exactly like PIEglobals
//!    (`dlopen` once per process + `dl_iterate_phdr` diff) and memoizes
//!    the same [`StartupTemplate`] (data snapshot + pointer-fixup plan);
//! 2. the data snapshot is chopped into a shared, `Arc`'d
//!    [`PageTemplate`]; every rank maps it read-only through a
//!    [`CowSegment`] page table whose backing store is a zero-filled
//!    Isomalloc data region (so private pages migrate with the rank);
//! 3. a rank's first write to a page takes a *simulated fault*: the fault
//!    handler copies that one template page into the rank's backing store,
//!    marks it private, and applies the write there ([`VarAccess::Cow`]);
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
//! 6. per-rank dirty-page sets ([`DirtyTracker`]) feed the end-of-run
//!    dedup audit: pages that never diverged on *any* rank are reported
//!    as shared ([`pvr_trace::EventKind::DedupAudit`]).
//!
//! Code is never copied: ranks share the loaded image's code read-only
//! (it is immutable), and a zero ballast region of the code segment's
//! size keeps the rank's migratable memory layout — and therefore every
//! pack/unpack byte count — identical to PIEglobals'. The ballast's live
//! extent is empty, so an image counts it and stores nothing of it.

use super::pieglobals::{build_startup_template, dlopen_and_locate, PatchTarget, StartupTemplate};
use super::{Common, PieOptions};
use crate::access::{emit_faults, VarAccess};
use crate::env::PrivatizeEnv;
use crate::probe::prerequisites;
use crate::rank::{CtxAction, RankInstance};
use crate::{CowStats, Method, PrivatizeError, Privatizer};
use pvr_isomalloc::{RankMemory, Region, RegionKind};
use pvr_progimage::pages::{CowCell, CowSegment, PageTemplate, DEFAULT_PAGE_SIZE};
use pvr_progimage::spec::Callable;
use pvr_progimage::{SegmentAddrs, VarClass};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// One rank's COW state. The cell is boxed so the raw pointer embedded in
/// the rank's [`VarAccess::Cow`] handles survives `ranks` reallocation.
struct CowRank {
    rank: usize,
    cell: Box<CowCell>,
}

pub struct CowGlobals {
    common: Common,
    opts: PieOptions,
    /// Original segment addresses found by the phdr diff.
    orig: SegmentAddrs,
    tls_block_size: usize,
    /// Memoized fixup plan (PIEglobals' template, built lazily at the
    /// first instantiation).
    template: Option<StartupTemplate>,
    /// The shared read-only page table over the template's data snapshot.
    page_template: Option<Arc<PageTemplate>>,
    ranks: Vec<CowRank>,
    /// Pointer fixups applied (startup patch pages), for tests/reporting.
    pub fixups_applied: usize,
}

impl CowGlobals {
    pub fn new(env: PrivatizeEnv, opts: PieOptions) -> Result<CowGlobals, PrivatizeError> {
        prerequisites(Method::CowGlobals, &env)?;
        let mut env = env;
        let (image, orig) = dlopen_and_locate(&mut env)?;
        let tls_block_size = env.binary.layout.tls_size.max(8);
        let common = Common {
            env,
            base_image: image,
        };
        Ok(CowGlobals {
            common,
            opts,
            orig,
            tls_block_size,
            template: None,
            page_template: None,
            ranks: Vec::new(),
            fixups_applied: 0,
        })
    }

    fn ensure_template(&mut self) {
        if self.template.is_none() {
            let image = self.common.base_image.clone();
            let tpl = build_startup_template(&self.orig, self.opts.scan, &image);
            self.page_template = Some(Arc::new(PageTemplate::new(&tpl.data, DEFAULT_PAGE_SIZE)));
            self.template = Some(tpl);
        }
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
        let binary = self.common.env.binary.clone();
        let layout = &binary.layout;
        let image = self.common.base_image.clone();
        self.ensure_template();
        let tpl = self.template.take().expect("template just built");
        let page_tpl = self
            .page_template
            .clone()
            .expect("page template built with template");

        // Rank regions in PIEglobals' exact order and sizes, so migration
        // and checkpoint byte counts match the eager method bit-for-bit.
        // Code is shared read-only; the ballast preserves the layout.
        let mut code_ballast =
            Region::new_zeroed(RegionKind::CodeSegment, image.code_region().len());
        // never written: images count its bytes and carry none of them
        code_ballast.set_live(0..0);
        let backing = Region::new_zeroed(RegionKind::DataSegment, tpl.data.len().max(1));
        let new_code = code_ballast.base() as usize;
        let new_data = backing.base() as usize;
        let backing_ptr = backing.base_mut();
        mem.add_region(code_ballast);
        mem.add_region(backing);

        // SAFETY: the backing region is rank-owned, spans the template's
        // length, and is only reached through this cell (region discipline).
        let cell = Box::new(CowCell::new(unsafe {
            CowSegment::new(page_tpl, backing_ptr)
        }));

        // Ctor heap clones are eager private state, exactly as in
        // PIEglobals (same allocation sequence — heap layout parity).
        let mut clone_bases: Vec<usize> = Vec::with_capacity(tpl.ctor_data.len());
        for bytes in &tpl.ctor_data {
            let clone = mem.heap().alloc(bytes.len().max(1), 8)?;
            unsafe {
                std::ptr::copy_nonoverlapping(bytes.as_ptr(), clone.ptr, bytes.len());
            }
            clone_bases.push(clone.ptr as usize);
        }

        let resolve = |t: PatchTarget| -> u64 {
            match t {
                PatchTarget::Code { off } => (new_code + off) as u64,
                PatchTarget::Data { off } => (new_data + off) as u64,
                PatchTarget::CtorHeap { alloc, off } => (clone_bases[alloc] + off) as u64,
            }
        };

        // Data-segment fixups hold per-rank pointers, so their pages can
        // never be shared: privatize them through the fault handler now.
        // This keeps the dedup invariant exact — a page with zero faults
        // is bit-identical to the template on every rank.
        {
            // SAFETY: the cell was just created and is exclusively ours
            // until the rank's accesses are handed out.
            let seg = unsafe { cell.segment() };
            for &(off, t) in &tpl.data_patches {
                let (p, faulted) = seg.writable_ptr(off, 8);
                emit_faults(&faulted, seg.page_size());
                unsafe { (p as *mut u64).write_unaligned(resolve(t)) };
                self.fixups_applied += 1;
            }
        }
        for &(alloc, off, t) in &tpl.ctor_patches {
            let p = (clone_bases[alloc] + off) as *mut u64;
            unsafe { p.write_unaligned(resolve(t)) };
            self.fixups_applied += 1;
        }

        // Per-rank GOT, rebased like PIEglobals (data entries resolve to
        // the rank's backing store — a private or materialized page).
        let got_len = image.got().len().max(1);
        let got_alloc = mem.heap().alloc(got_len * 8, 8)?;
        {
            let got_slice =
                unsafe { std::slice::from_raw_parts_mut(got_alloc.ptr as *mut u64, got_len) };
            for (i, &entry) in image.got().iter().enumerate() {
                got_slice[i] = tpl.got_plan[i].map(&resolve).unwrap_or(entry);
            }
        }
        pvr_trace::emit(pvr_trace::EventKind::GotFixup {
            entries: got_len as u32,
        });
        self.template = Some(tpl);

        // Per-rank TLS block (the TLSglobals combination, as PIEglobals).
        let mut tls_block = Region::new_zeroed(RegionKind::TlsSegment, self.tls_block_size);
        let tls_tpl = image.tls_template();
        tls_block.as_mut_slice()[..tls_tpl.len()].copy_from_slice(tls_tpl);
        let tls_base = tls_block.base_mut();
        pvr_trace::emit(pvr_trace::EventKind::SegmentCopy {
            segment: pvr_trace::Segment::Tls,
            bytes: self.tls_block_size as u64,
        });
        mem.add_region(tls_block);

        // Accesses: data vars go through the COW page table; TLS vars ride
        // the TLS register exactly as under PIEglobals.
        let cell_ptr: *const CowCell = &*cell;
        let mut accesses: HashMap<String, VarAccess> = HashMap::new();
        for v in &binary.spec.vars {
            let acc = match v.class {
                VarClass::Global | VarClass::Static => {
                    let sym = &layout.data_syms[&v.name];
                    VarAccess::Cow {
                        cell: cell_ptr,
                        offset: sym.offset,
                        len: sym.size,
                    }
                }
                VarClass::ThreadLocal => VarAccess::Tls {
                    offset: layout.tls_syms[&v.name].offset,
                },
            };
            accesses.insert(v.name.clone(), acc);
        }

        self.ranks.push(CowRank { rank, cell });

        Ok(RankInstance::new(
            rank,
            Method::CowGlobals,
            accesses,
            CtxAction::SetTls(tls_base),
            new_code,
        ))
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

    fn simulated_startup_cost(&self) -> Duration {
        Duration::ZERO
    }

    fn fn_offset_of(&self, name: &str) -> Option<usize> {
        self.common.fn_offset_of(name)
    }

    fn callable_for_offset(&self, offset: usize) -> Option<Callable> {
        self.common.callable_for_offset(offset)
    }

    fn per_rank_copied_bytes(&self) -> usize {
        // Only the TLS block is copied eagerly; data pages are paid for
        // on first write.
        self.tls_block_size
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
        CowGlobals::new(PrivatizeEnv::new(bin()), PieOptions::default()).unwrap()
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
        assert!(p.fixups_applied > 0);

        // vt holds a per-rank function pointer: decoding it against each
        // rank's code base recovers the same image-relative offset.
        let off = p.fn_offset_of("combine").unwrap();
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
            CowGlobals::new(PrivatizeEnv::new(shared_bin.clone()), PieOptions::default()).unwrap();
        let mut pie =
            PieGlobals::new(PrivatizeEnv::new(shared_bin), PieOptions::default()).unwrap();
        let mut mc = RankMemory::new();
        let mut mp = RankMemory::new();
        let rc = cow.instantiate_rank(0, &mut mc).unwrap();
        let rp = pie.instantiate_rank(0, &mut mp).unwrap();

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
        let patch_words: std::collections::HashSet<usize> = {
            cow.ensure_template();
            cow.template
                .as_ref()
                .unwrap()
                .data_patches
                .iter()
                .map(|&(off, _)| off)
                .collect()
        };
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
