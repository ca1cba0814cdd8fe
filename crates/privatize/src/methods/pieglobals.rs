//! PIEglobals (§3.3): copy the PIE's code and data segments per rank
//! *through Isomalloc*, privatizing globals while keeping them migratable.
//!
//! The startup sequence mirrors the paper exactly:
//!
//! 1. after runtime init, `dlopen` the app's PIE shared object — **once
//!    per OS process** (opening per rank crashes glibc under pthreads in
//!    SMP mode, as the paper found);
//! 2. call the `dl_iterate_phdr` equivalent before and after the `dlopen`
//!    and diff the listings to locate the new binary's code and data
//!    segments;
//! 3. per rank: copy both segments into Isomalloc-managed rank memory;
//! 4. fix up everything that pointed into the original segments:
//!    * GOT entries (function and data addresses) are rebased;
//!    * pointers written into the data segment by C++ static
//!      constructors — including *function* pointers (vtables) and
//!      pointers to ctor *heap allocations*, which must themselves be
//!      replicated per rank and recursively fixed;
//!    * fixup strategy is selectable: [`ScanPolicy::ConservativeScan`]
//!      re-discovers pointers by scanning for values inside the original
//!      segment ranges (the shipping approach, vulnerable to false
//!      positives) or [`ScanPolicy::Relocations`] uses exact relocation
//!      records (the "more robust method" the paper plans);
//! 5. TLS variables are handled by combining with TLSglobals: a per-rank
//!    TLS block + TLS-pointer swap at context switch (hence PIEglobals'
//!    Fig. 6 context-switch cost matches TLSglobals');
//! 6. user function pointers are encoded as offsets from the image base
//!    so `MPI_Op`s survive rank heterogeneity and migration.
//!
//! `pieglobalsfind` (the debugger aid) is [`crate::Privatizer::find_original`].
//!
//! COWglobals runs the same steps: [`PieCore`] holds everything but how a
//! rank's data segment copy is backed ([`DataCopy`]).

use super::Common;
use crate::access::{emit_faults, VarAccess};
use crate::env::PrivatizeEnv;
use crate::probe::prerequisites;
use crate::rank::{CtxAction, RankInstance};
use crate::{FindResult, Method, PrivatizeError, Privatizer};
use pvr_isomalloc::{RankMemory, Region, RegionKind};
use pvr_progimage::pages::CowCell;
use pvr_progimage::{LoadedImage, SegmentAddrs, VarClass};
use pvr_trace::{EventKind, Segment};

/// How PIEglobals finds the pointers that need rebasing after the copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanPolicy {
    /// Scan the copied data segment for 8-byte values that fall inside
    /// the original code/data/ctor-heap ranges and rebase them. Fully
    /// automatic, but an integer that *happens* to equal such an address
    /// is corrupted — the false-positive hazard the paper acknowledges.
    #[default]
    ConservativeScan,
    /// Use exact relocation records (what a dynamic-binary-instrumentation
    /// pass would recover). No false positives.
    Relocations,
}

struct RankRanges {
    rank: usize,
    code_base: usize,
    code_len: usize,
    data_base: usize,
    data_len: usize,
}

/// Where one memoized fixup points, as an offset into a per-rank copy.
/// Resolving a target for a rank is one add — the expensive part
/// (scanning/classifying against the original segment ranges) happened
/// once, when the template was built.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PatchTarget {
    Code { off: usize },
    Data { off: usize },
    CtorHeap { alloc: usize, off: usize },
}

/// Memoized startup work, computed once per privatizer at the FIRST
/// `instantiate_rank` and replayed for every subsequent rank as
/// memcpy + patch list. COWglobals replays the same list, faulting the
/// page of each data-segment patch private.
///
/// Snapshotted at first instantiation — not at construction — because a
/// program (and our false-positive regression test) may write to the
/// original image between `dlopen` and privatization, and a per-rank
/// scan would see those writes.
pub(crate) struct StartupTemplate {
    /// Data-segment bytes to memcpy per rank.
    pub(crate) data: Vec<u8>,
    /// (byte offset into the data copy, target) for every pointer the
    /// scan policy would rebase.
    pub(crate) data_patches: Vec<(usize, PatchTarget)>,
    /// Ctor heap allocation bytes to replicate per rank.
    ctor_data: Vec<Vec<u8>>,
    /// (allocation index, byte offset, target) fixups inside the clones.
    ctor_patches: Vec<(usize, usize, PatchTarget)>,
    /// Per-GOT-entry rebase classification (`None` = keep the original
    /// value).
    got_plan: Vec<Option<PatchTarget>>,
}

/// Steps 1-2: `dlopen` the binary **once per OS process**, then locate
/// its code and data segments by diffing `dl_iterate_phdr` listings taken
/// before and after the open.
fn dlopen_and_locate(
    env: &mut PrivatizeEnv,
) -> Result<(std::sync::Arc<LoadedImage>, SegmentAddrs), PrivatizeError> {
    let before = env.loader.phdr_snapshot();
    let binary = env.binary.clone();
    let image = env.loader.dlopen(&binary)?;
    let after = env.loader.phdr_snapshot();
    let new_entries: Vec<_> = after.iter().filter(|e| !before.contains(e)).collect();
    let orig = if new_entries.is_empty() {
        // binary already loaded (e.g. a second privatizer in this
        // process) — find it in the listing instead.
        let mut found = None;
        env.loader.dl_iterate_phdr(|info| {
            if info.file_id == binary.file_id() {
                found = Some(info.segments);
            }
        });
        found.expect("loaded binary must appear in phdr iteration")
    } else {
        let mut found = None;
        env.loader.dl_iterate_phdr(|info| {
            if (info.file_id, info.namespace) == *new_entries[0] {
                found = Some(info.segments);
            }
        });
        found.expect("diffed entry must appear in phdr iteration")
    };
    debug_assert_eq!(orig, image.segment_addrs());
    Ok((image, orig))
}

/// Classify one scanned value against the ORIGINAL segment/ctor-heap
/// ranges — the memoizable half of pointer rebasing: ranges never change
/// across ranks, only the per-rank bases do.
fn classify_value(
    orig: &SegmentAddrs,
    v: u64,
    ctor_ranges: &[(usize, usize)],
) -> Option<PatchTarget> {
    let addr = v as usize;
    if orig.contains_code(addr) {
        return Some(PatchTarget::Code {
            off: addr - orig.code_base,
        });
    }
    if orig.contains_data(addr) {
        return Some(PatchTarget::Data {
            off: addr - orig.data_base,
        });
    }
    for (i, &(base, len)) in ctor_ranges.iter().enumerate() {
        if addr >= base && addr < base + len {
            return Some(PatchTarget::CtorHeap {
                alloc: i,
                off: addr - base,
            });
        }
    }
    None
}

/// Run the scan policy ONCE over a snapshot of the image and record every
/// fixup as (offset, target); replaying the list per rank (PIEglobals) or
/// per faulted page (CowGlobals) never rescans a single word.
fn build_startup_template(
    orig: &SegmentAddrs,
    scan: ScanPolicy,
    image: &LoadedImage,
) -> StartupTemplate {
    let data = image.data_region().as_slice().to_vec();
    let ctor_ranges: Vec<(usize, usize)> = image
        .ctor_heap()
        .iter()
        .map(|a| (a.base(), a.len()))
        .collect();
    let ctor_data: Vec<Vec<u8>> = image
        .ctor_heap()
        .iter()
        .map(|a| a.as_slice().to_vec())
        .collect();
    let mut data_patches = Vec::new();
    let mut ctor_patches = Vec::new();
    match scan {
        ScanPolicy::ConservativeScan => {
            for i in 0..data.len() / 8 {
                let v = u64::from_ne_bytes(data[i * 8..i * 8 + 8].try_into().unwrap());
                if v == 0 {
                    continue;
                }
                if let Some(t) = classify_value(orig, v, &ctor_ranges) {
                    data_patches.push((i * 8, t));
                }
            }
            for (ai, bytes) in ctor_data.iter().enumerate() {
                for i in 0..bytes.len() / 8 {
                    let v = u64::from_ne_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
                    if v == 0 {
                        continue;
                    }
                    if let Some(t) = classify_value(orig, v, &ctor_ranges) {
                        ctor_patches.push((ai, i * 8, t));
                    }
                }
            }
        }
        ScanPolicy::Relocations => {
            for r in image.relocs() {
                let t = match r.target {
                    pvr_progimage::RelocTarget::Code { offset } => PatchTarget::Code { off: offset },
                    pvr_progimage::RelocTarget::Data { offset } => PatchTarget::Data { off: offset },
                    pvr_progimage::RelocTarget::CtorHeap { alloc, offset } => {
                        PatchTarget::CtorHeap { alloc, off: offset }
                    }
                };
                data_patches.push((r.data_offset, t));
            }
        }
    }
    let got_plan = image
        .got()
        .iter()
        .map(|&e| classify_value(orig, e, &ctor_ranges))
        .collect();
    StartupTemplate {
        data,
        data_patches,
        ctor_data,
        ctor_patches,
        got_plan,
    }
}

/// Where a rank's data segment copy lives: how a fixup is written into
/// it and how a variable in it is reached. The one thing PIE- and
/// COWglobals do differently.
pub(crate) enum DataCopy<'a> {
    /// PIEglobals: an eager copy at this base; writes and accesses are
    /// direct.
    Eager(*mut u8),
    /// COWglobals: a page table over the shared template; a write faults
    /// its page private first, and accesses go through the table.
    Cow(&'a CowCell),
}

impl DataCopy<'_> {
    fn base(&self) -> usize {
        match *self {
            DataCopy::Eager(base) => base as usize,
            // SAFETY: instantiation owns the new rank's cell (CowCell
            // contract); nothing else reaches it yet.
            DataCopy::Cow(cell) => unsafe { cell.segment() }.base() as usize,
        }
    }

    /// Write a pointer-sized fixup at `off`, which the template's patch
    /// list places inside the segment.
    fn write_u64(&self, off: usize, v: u64) {
        let p = match *self {
            // SAFETY: the eager copy spans the whole template segment.
            DataCopy::Eager(base) => unsafe { base.add(off) },
            DataCopy::Cow(cell) => {
                // SAFETY: as in `base`.
                unsafe { cell.segment() }.writable_ptr(off, 8, emit_faults)
            }
        };
        // SAFETY: `p` addresses 8 writable bytes of the rank's copy.
        unsafe { (p as *mut u64).write_unaligned(v) };
    }

    /// The access path to the variable at `offset` spanning `len` bytes.
    fn access(&self, offset: usize, len: usize) -> VarAccess {
        match *self {
            // SAFETY: a linked symbol's offset lies inside the segment.
            DataCopy::Eager(base) => VarAccess::Direct(unsafe { base.add(offset) }),
            // SAFETY: the privatizer keeps the rank's cell as long as the
            // rank, whose accesses execute rank-exclusively (CowCell contract).
            DataCopy::Cow(cell) => VarAccess::Cow(unsafe { cell.var(offset, len) }),
        }
    }
}

/// What PIE- and COWglobals share: steps 1-2 at construction and every
/// per-rank step after the method has placed the rank's code and data
/// segments. One code path keeps the two methods' rank memory — region
/// order and sizes, heap allocation sequence — and trace events the same,
/// so migration and checkpoint byte counts match bit for bit.
pub(crate) struct PieCore {
    pub(crate) common: Common,
    scan: ScanPolicy,
    /// Original segment addresses found by the phdr diff.
    pub(crate) orig: SegmentAddrs,
    /// TLS layout: declared TLS vars only (data vars ride the segment copy).
    pub(crate) tls_block_size: usize,
    template: Option<StartupTemplate>,
    /// Pointer fixups applied, for tests.
    pub(crate) fixups_applied: usize,
}

impl PieCore {
    pub(crate) fn new(
        method: Method,
        mut env: PrivatizeEnv,
        scan: ScanPolicy,
    ) -> Result<PieCore, PrivatizeError> {
        prerequisites(method, &env)?;
        let (base_image, orig) = dlopen_and_locate(&mut env)?;
        let tls_block_size = env.binary.layout.tls_size.max(8);
        Ok(PieCore {
            common: Common { env, base_image },
            scan,
            orig,
            tls_block_size,
            template: None,
            fixups_applied: 0,
        })
    }

    /// The memoized startup template, built at the first call.
    pub(crate) fn template(&mut self) -> &StartupTemplate {
        let (orig, scan, image) = (&self.orig, self.scan, &self.common.base_image);
        self.template
            .get_or_insert_with(|| build_startup_template(orig, scan, image))
    }

    /// Steps 3-6 for a rank whose code (at `new_code`) and data segments
    /// the method has just added to `mem`, from [`Self::template`]:
    /// replicate the ctor heap, replay the patch list, rebase the GOT,
    /// then [`Self::finish`].
    pub(crate) fn instantiate(
        &mut self,
        rank: usize,
        method: Method,
        mem: &mut RankMemory,
        new_code: usize,
        data: DataCopy,
    ) -> Result<RankInstance, PrivatizeError> {
        let tpl = self.template.as_ref().expect("template placed");
        let image = &self.common.base_image;
        let mut clone_bases: Vec<usize> = Vec::with_capacity(tpl.ctor_data.len());
        for bytes in &tpl.ctor_data {
            let clone = mem.heap().alloc(bytes.len().max(1), 8)?;
            // SAFETY: the fresh allocation holds at least `bytes.len()`.
            unsafe { std::ptr::copy_nonoverlapping(bytes.as_ptr(), clone.ptr, bytes.len()) };
            clone_bases.push(clone.ptr as usize);
        }

        // Step 4: patch-list replay — no scanning, one add and one
        // write per recorded fixup.
        let new_data = data.base();
        let resolve = |t: PatchTarget| -> u64 {
            match t {
                PatchTarget::Code { off } => (new_code + off) as u64,
                PatchTarget::Data { off } => (new_data + off) as u64,
                PatchTarget::CtorHeap { alloc, off } => (clone_bases[alloc] + off) as u64,
            }
        };
        for &(off, t) in &tpl.data_patches {
            data.write_u64(off, resolve(t));
        }
        for &(alloc, off, t) in &tpl.ctor_patches {
            // SAFETY: the scan recorded `off` as a whole word of the clone.
            unsafe { ((clone_bases[alloc] + off) as *mut u64).write_unaligned(resolve(t)) };
        }
        self.fixups_applied += tpl.data_patches.len() + tpl.ctor_patches.len();

        // The rank's GOT from the memoized plan, in rank memory.
        let got_len = image.got().len().max(1);
        let got_alloc = mem.heap().alloc(got_len * 8, 8)?;
        // SAFETY: a fresh, 8-aligned allocation of `got_len` words.
        let got = unsafe { std::slice::from_raw_parts_mut(got_alloc.ptr as *mut u64, got_len) };
        for (i, &entry) in image.got().iter().enumerate() {
            got[i] = tpl.got_plan[i].map(&resolve).unwrap_or(entry);
        }
        pvr_trace::emit(EventKind::GotFixup {
            entries: got_len as u32,
        });
        Ok(self.finish(rank, method, mem, new_code, &data))
    }

    /// Steps 5-6: the rank's TLS block (the TLSglobals combination) and
    /// its accesses — data variables into its data copy, TLS variables
    /// through the TLS register.
    pub(crate) fn finish(
        &self,
        rank: usize,
        method: Method,
        mem: &mut RankMemory,
        new_code: usize,
        data: &DataCopy,
    ) -> RankInstance {
        let mut tls_block = Region::new_zeroed(RegionKind::TlsSegment, self.tls_block_size);
        let tpl = self.common.base_image.tls_template();
        tls_block.as_mut_slice()[..tpl.len()].copy_from_slice(tpl);
        let tls_base = tls_block.base_mut();
        pvr_trace::emit(EventKind::SegmentCopy {
            segment: Segment::Tls,
            bytes: self.tls_block_size as u64,
        });
        mem.add_region(tls_block);

        let binary = &self.common.env.binary;
        let accesses = binary
            .spec
            .vars
            .iter()
            .map(|v| {
                let acc = match v.class {
                    VarClass::Global | VarClass::Static => {
                        let sym = &binary.layout.data_syms[&v.name];
                        data.access(sym.offset, sym.size)
                    }
                    VarClass::ThreadLocal => VarAccess::Tls {
                        offset: binary.layout.tls_syms[&v.name].offset,
                    },
                };
                (v.name.clone(), acc)
            })
            .collect();
        let ctx = CtxAction::SetTls(tls_base);
        RankInstance::new(rank, method, accesses, ctx, new_code)
    }
}

pub struct PieGlobals {
    core: PieCore,
    ranks: Vec<RankRanges>,
}

impl PieGlobals {
    pub fn new(env: PrivatizeEnv, scan: ScanPolicy) -> Result<PieGlobals, PrivatizeError> {
        Ok(PieGlobals {
            core: PieCore::new(Method::PieGlobals, env, scan)?,
            ranks: Vec::new(),
        })
    }

    /// Step 3's second half: add the rank's code and data copies to `mem`
    /// (the order COWglobals keeps too) and trace both copies.
    fn place(rank: usize, mem: &mut RankMemory, code: Region, data: Region) -> RankRanges {
        let rr = RankRanges {
            rank,
            code_base: code.base() as usize,
            code_len: code.len(),
            data_base: data.base() as usize,
            data_len: data.len(),
        };
        for (segment, region) in [(Segment::Code, code), (Segment::Data, data)] {
            pvr_trace::emit(EventKind::SegmentCopy {
                segment,
                bytes: region.len() as u64,
            });
            mem.add_region(region);
        }
        rr
    }
}

impl Privatizer for PieGlobals {
    fn method(&self) -> Method {
        Method::PieGlobals
    }

    fn instantiate_rank(
        &mut self,
        rank: usize,
        mem: &mut RankMemory,
    ) -> Result<RankInstance, PrivatizeError> {
        // Step 3: code straight from the image, data from the template's
        // snapshot — both one memcpy.
        let image = self.core.common.base_image.clone();
        let code = Region::from_bytes(RegionKind::CodeSegment, image.code_region().as_slice());
        let data = Region::from_bytes(RegionKind::DataSegment, &self.core.template().data);
        let rr = Self::place(rank, mem, code, data);
        let data = DataCopy::Eager(rr.data_base as *mut u8);
        let inst = self
            .core
            .instantiate(rank, Method::PieGlobals, mem, rr.code_base, data)?;
        self.ranks.push(rr);
        Ok(inst)
    }

    fn supports_migration(&self) -> bool {
        // The whole point: segments were allocated via Isomalloc.
        true
    }

    fn parallel_startup_safe(&self) -> bool {
        // instantiate_rank only reads the (immutable once running) base
        // image and this privatizer's own template; all writes target
        // freshly allocated rank memory.
        true
    }

    /// `pieglobalsfind`: map a privatized address back to the original
    /// image (to recover debug symbols in GDB/LLDB).
    fn find_original(&self, addr: usize) -> Option<FindResult> {
        let binary = &self.core.common.env.binary;
        for rr in &self.ranks {
            if addr >= rr.code_base && addr < rr.code_base + rr.code_len {
                let offset = addr - rr.code_base;
                return Some(FindResult {
                    rank: rr.rank,
                    original_addr: self.core.orig.code_base + offset,
                    symbol: binary.fn_at(offset).map(|(n, off)| (n.to_string(), off)),
                    segment: "code",
                });
            }
            if addr >= rr.data_base && addr < rr.data_base + rr.data_len {
                let offset = addr - rr.data_base;
                let symbol = binary
                    .layout
                    .data_syms
                    .iter()
                    .find(|(_, s)| offset >= s.offset && offset < s.offset + s.size)
                    .map(|(n, s)| (n.clone(), offset - s.offset));
                return Some(FindResult {
                    rank: rr.rank,
                    original_addr: self.core.orig.data_base + offset,
                    symbol,
                    segment: "data",
                });
            }
        }
        None
    }

    fn per_rank_copied_bytes(&self) -> usize {
        self.core.orig.code_len + self.core.orig.data_len + self.core.tls_block_size
    }

    fn rank_data_segment(&self, rank: usize) -> Option<(*const u8, usize)> {
        self.ranks
            .iter()
            .find(|rr| rr.rank == rank)
            .map(|rr| (rr.data_base as *const u8, rr.data_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs;
    use pvr_progimage::{link, CtorSpec, FunctionSpec, ImageSpec};
    use std::sync::Arc;

    fn bin() -> Arc<pvr_progimage::ProgramBinary> {
        link(
            ImageSpec::builder("app")
                .global("g", 8)
                .static_var("s", 8)
                .thread_local("t", 8)
                .global("vt", 8)
                .global("hp", 8)
                .global("lp", 8)
                .function(
                    FunctionSpec::new("combine", 128)
                        .with_callable(Arc::new(|_i, _o| {})),
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

    fn make(scan: ScanPolicy) -> PieGlobals {
        PieGlobals::new(PrivatizeEnv::new(bin()), scan).unwrap()
    }

    /// Rebase one value if it points into the original segments or a ctor
    /// heap allocation (`(orig_base, len, clone_base)` each).
    fn rebase_value(
        orig: &SegmentAddrs,
        v: u64,
        new_code: usize,
        new_data: usize,
        ctor_clones: &[(usize, usize, usize)],
    ) -> Option<u64> {
        let addr = v as usize;
        if orig.contains_code(addr) {
            return Some((new_code + (addr - orig.code_base)) as u64);
        }
        if orig.contains_data(addr) {
            return Some((new_data + (addr - orig.data_base)) as u64);
        }
        for &(base, len, clone) in ctor_clones {
            if addr >= base && addr < base + len {
                return Some((clone + (addr - base)) as u64);
            }
        }
        None
    }

    /// `instantiate_rank` with steps 3-4 done by the oracle: the paper's
    /// full per-rank scan and fixup instead of the memoized template —
    /// kept verbatim as what the template path must match; do not
    /// optimize.
    fn instantiate_rank_by_scan(
        p: &mut PieGlobals,
        rank: usize,
        mem: &mut RankMemory,
    ) -> RankInstance {
        let image = p.core.common.base_image.clone();
        let orig = p.core.orig;
        // Step 3: copy segments into Isomalloc-managed rank memory.
        let code_copy = Region::from_bytes(RegionKind::CodeSegment, image.code_region().as_slice());
        let data_copy = Region::from_bytes(RegionKind::DataSegment, image.data_region().as_slice());
        let rr = PieGlobals::place(rank, mem, code_copy, data_copy);
        let (new_code, new_data, data_len) = (rr.code_base, rr.data_base, rr.data_len);
        let data_ptr = new_data as *mut u8;

        // Replicate ctor heap allocations into the rank's heap; their
        // contents are copied and will be pointer-fixed below.
        let mut ctor_clones: Vec<(usize, usize, usize)> = Vec::new();
        for alloc in image.ctor_heap() {
            let clone = mem.heap().alloc(alloc.len().max(1), 8).unwrap();
            unsafe {
                std::ptr::copy_nonoverlapping(alloc.as_slice().as_ptr(), clone.ptr, alloc.len());
            }
            ctor_clones.push((alloc.base(), alloc.len(), clone.ptr as usize));
        }

        // Step 4: pointer fixup.
        let mut fixups = 0;
        match p.core.scan {
            ScanPolicy::ConservativeScan => {
                // scan the data copy, 8-byte stride
                let words = data_len / 8;
                for i in 0..words {
                    let p = unsafe { (data_ptr as *mut u64).add(i) };
                    let v = unsafe { p.read_unaligned() };
                    if v == 0 {
                        continue;
                    }
                    if let Some(nv) = rebase_value(&orig, v, new_code, new_data, &ctor_clones) {
                        unsafe { p.write_unaligned(nv) };
                        fixups += 1;
                    }
                }
                // scan the replicated ctor allocations too (they may hold
                // pointers to globals or code)
                for &(_, len, clone) in &ctor_clones {
                    for i in 0..len / 8 {
                        let p = (clone + i * 8) as *mut u64;
                        let v = unsafe { p.read_unaligned() };
                        if v == 0 {
                            continue;
                        }
                        if let Some(nv) = rebase_value(&orig, v, new_code, new_data, &ctor_clones) {
                            unsafe { p.write_unaligned(nv) };
                            fixups += 1;
                        }
                    }
                }
            }
            ScanPolicy::Relocations => {
                for r in image.relocs() {
                    let p = unsafe { data_ptr.add(r.data_offset) } as *mut u64;
                    let nv = match r.target {
                        pvr_progimage::RelocTarget::Code { offset } => (new_code + offset) as u64,
                        pvr_progimage::RelocTarget::Data { offset } => (new_data + offset) as u64,
                        pvr_progimage::RelocTarget::CtorHeap { alloc, offset } => {
                            (ctor_clones[alloc].2 + offset) as u64
                        }
                    };
                    unsafe { p.write_unaligned(nv) };
                    fixups += 1;
                }
            }
        }
        p.core.fixups_applied += fixups;

        // Rebase the GOT for this rank's copies; lives in rank memory.
        let got_len = image.got().len().max(1);
        let got_alloc = mem.heap().alloc(got_len * 8, 8).unwrap();
        let got_slice =
            unsafe { std::slice::from_raw_parts_mut(got_alloc.ptr as *mut u64, got_len) };
        for (i, &entry) in image.got().iter().enumerate() {
            got_slice[i] =
                rebase_value(&orig, entry, new_code, new_data, &ctor_clones).unwrap_or(entry);
        }
        pvr_trace::emit(EventKind::GotFixup {
            entries: got_len as u32,
        });
        let data = DataCopy::Eager(data_ptr);
        let inst = p
            .core
            .finish(rank, Method::PieGlobals, mem, new_code, &data);
        p.ranks.push(rr);
        inst
    }

    #[test]
    fn all_var_classes_privatized() {
        let mut p = make(ScanPolicy::default());
        let mut m0 = RankMemory::new();
        let mut m1 = RankMemory::new();
        let r0 = p.instantiate_rank(0, &mut m0).unwrap();
        let r1 = p.instantiate_rank(1, &mut m1).unwrap();
        for (r, base) in [(&r0, 100u64), (&r1, 200u64)] {
            r.activate();
            r.access("g").write_u64(base);
            r.access("s").write_u64(base + 1);
            r.access("t").write_u64(base + 2);
        }
        r0.activate();
        assert_eq!(r0.access("g").read_u64(), 100);
        assert_eq!(r0.access("s").read_u64(), 101, "statics privatized");
        assert_eq!(r0.access("t").read_u64(), 102, "TLS privatized");
        r1.activate();
        assert_eq!(r1.access("t").read_u64(), 202);
        regs::clear();
    }

    #[test]
    fn segments_live_in_rank_memory() {
        let mut p = make(ScanPolicy::default());
        let mut m = RankMemory::new();
        let r = p.instantiate_rank(0, &mut m).unwrap();
        let stats = m.stats();
        assert!(stats.code_bytes >= 4096, "code copy migrates with the rank");
        assert!(stats.data_bytes > 0);
        assert!(stats.tls_bytes > 0);
        assert!(p.supports_migration());
        // data access points into rank-owned region
        let gaddr = r.access("g").ptr() as usize;
        assert!(m.regions().any(|reg| reg.contains(gaddr)));
    }

    #[test]
    fn ctor_pointers_fixed_up_conservative() {
        ctor_pointers_fixed_up(ScanPolicy::ConservativeScan);
    }

    #[test]
    fn ctor_pointers_fixed_up_relocations() {
        ctor_pointers_fixed_up(ScanPolicy::Relocations);
    }

    fn ctor_pointers_fixed_up(scan: ScanPolicy) {
        let mut p = make(scan);
        let mut m = RankMemory::new();
        let r = p.instantiate_rank(0, &mut m).unwrap();
        r.activate();
        // vtable slot must point into the RANK's code copy
        let vt = r.access("vt").read_u64() as usize;
        assert!(vt >= r.code_base(), "fn ptr must be rebased");
        let found = p.find_original(vt).expect("vt resolves");
        assert_eq!(found.segment, "code");
        assert_eq!(found.symbol.as_ref().unwrap().0, "combine");
        // heap pointer must point at the rank's clone, inside rank heap
        let hp = r.access("hp").read_u64() as usize;
        assert!(m.heap_ref().contains(hp), "ctor heap replicated per rank");
        // data-to-data pointer must point at the rank's own `g`
        let lp = r.access("lp").read_u64() as usize;
        assert_eq!(lp, r.access("g").ptr() as usize);
        assert!(p.core.fixups_applied >= 3);
        regs::clear();
    }

    #[test]
    fn conservative_scan_corrupts_false_positive_but_relocations_do_not() {
        // An integer that happens to equal an address inside the original
        // code segment — the paper's acknowledged hazard. Swept over the
        // template and the per-rank scan: the template snapshot happens
        // at the first instantiation, so it must see pre-privatization
        // writes to the image exactly like the reference scan does.
        for (scan, expect_corruption, template) in [
            (ScanPolicy::ConservativeScan, true, true),
            (ScanPolicy::ConservativeScan, true, false),
            (ScanPolicy::Relocations, false, true),
            (ScanPolicy::Relocations, false, false),
        ] {
            let mut p = make(scan);
            // Write the colliding integer into `g` of the ORIGINAL image
            // (as if computed at startup before privatization).
            let fake = (p.core.orig.code_base + 24) as u64;
            unsafe {
                (p.core.common.base_image.data_addr_of("g").unwrap() as *mut u64).write(fake);
            }
            let mut m = RankMemory::new();
            let r = if template {
                p.instantiate_rank(0, &mut m).unwrap()
            } else {
                instantiate_rank_by_scan(&mut p, 0, &mut m)
            };
            let got = r.access("g").read_u64();
            if expect_corruption {
                assert_ne!(got, fake, "conservative scan rebased the integer");
            } else {
                assert_eq!(got, fake, "relocation records leave the integer alone");
            }
        }
    }

    #[test]
    fn fast_template_path_matches_reference_scan() {
        for scan in [ScanPolicy::ConservativeScan, ScanPolicy::Relocations] {
            let mut fast = make(scan);
            let mut reference = make(scan);
            for rank in 0..3 {
                let mut mf = RankMemory::new();
                let mut mr = RankMemory::new();
                for (p, mem, template) in
                    [(&mut fast, &mut mf, true), (&mut reference, &mut mr, false)]
                {
                    let r = if template {
                        p.instantiate_rank(rank, mem).unwrap()
                    } else {
                        instantiate_rank_by_scan(p, rank, mem)
                    };
                    r.activate();
                    // vtable → rank's own code copy, resolving to the
                    // same symbol
                    let vt = r.access("vt").read_u64() as usize;
                    let found = p.find_original(vt).expect("vt resolves");
                    assert_eq!(found.symbol.as_ref().unwrap().0, "combine");
                    // ctor heap pointer → this rank's clone
                    let hp = r.access("hp").read_u64() as usize;
                    assert!(mem.heap_ref().contains(hp));
                    // data-to-data pointer → this rank's own `g`
                    let lp = r.access("lp").read_u64() as usize;
                    assert_eq!(lp, r.access("g").ptr() as usize);
                }
            }
            // identical fixup work per rank on both paths, template
            // reused across ranks (same count every rank)
            assert_eq!(
                fast.core.fixups_applied, reference.core.fixups_applied,
                "{scan:?}: fast path must apply exactly the reference fixups"
            );
            regs::clear();
        }
    }

    #[test]
    fn fn_offsets_resolve_on_any_rank() {
        let mut p = make(ScanPolicy::default());
        let binary = p.core.common.env.binary.clone();
        let off = binary.fn_offset_of("combine").unwrap();
        let mut m0 = RankMemory::new();
        let mut m1 = RankMemory::new();
        let r0 = p.instantiate_rank(0, &mut m0).unwrap();
        let r1 = p.instantiate_rank(1, &mut m1).unwrap();
        // each rank's code copy is distinct, offsets identical
        assert_ne!(r0.code_base(), r1.code_base());
        assert_eq!(r0.offset_to_fn_addr(off) - r0.code_base(), off);
        assert!(binary.callable_at(off).is_some());
        // address → offset roundtrip across ranks (the MPI_Op mechanism)
        let addr_on_r0 = r0.offset_to_fn_addr(off);
        let off_back = r0.fn_addr_to_offset(addr_on_r0);
        assert_eq!(off_back, off);
        assert_eq!(r1.offset_to_fn_addr(off_back) - r1.code_base(), off);
    }

    #[test]
    fn pieglobalsfind_translates_data_addresses() {
        let mut p = make(ScanPolicy::default());
        let mut m = RankMemory::new();
        let r = p.instantiate_rank(0, &mut m).unwrap();
        let gaddr = r.access("g").ptr() as usize;
        let f = p.find_original(gaddr).unwrap();
        assert_eq!(f.rank, 0);
        assert_eq!(f.segment, "data");
        assert_eq!(f.symbol, Some(("g".to_string(), 0)));
        assert_eq!(
            f.original_addr,
            p.core.common.base_image.data_addr_of("g").unwrap() as usize
        );
        // unknown addresses yield None
        assert!(p.find_original(0xdeadbeef).is_none());
    }

    #[test]
    fn rejected_without_glibc() {
        let env = PrivatizeEnv::new(bin()).with_toolchain(crate::env::Toolchain::macos());
        assert!(matches!(
            PieGlobals::new(env, ScanPolicy::default()),
            Err(PrivatizeError::Unsupported { .. })
        ));
    }
}
