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

use super::Common;
use crate::access::VarAccess;
use crate::env::PrivatizeEnv;
use crate::probe::prerequisites;
use crate::rank::{CtxAction, RankInstance};
use crate::{FindResult, Method, PrivatizeError, Privatizer};
use pvr_isomalloc::{RankMemory, Region, RegionKind};
use pvr_progimage::spec::Callable;
use pvr_progimage::{LoadedImage, Mutability, SegmentAddrs, VarClass};
use std::collections::HashMap;
use std::time::Duration;

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

/// PIEglobals knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct PieOptions {
    pub scan: ScanPolicy,
    /// Future-work memory optimization: read-only globals resolve to the
    /// shared image instead of the per-rank copy.
    pub dedup_readonly: bool,
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
/// memcpy + patch list. Shared with CowGlobals, whose page-granular
/// fault handler replays only the patches landing on a faulted page.
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
    pub(crate) ctor_data: Vec<Vec<u8>>,
    /// (allocation index, byte offset, target) fixups inside the clones.
    pub(crate) ctor_patches: Vec<(usize, usize, PatchTarget)>,
    /// Per-GOT-entry rebase classification (`None` = keep the original
    /// value).
    pub(crate) got_plan: Vec<Option<PatchTarget>>,
}

/// Steps 1-2, shared by every PIE-segment-copy method (PIE/COWglobals):
/// `dlopen` the binary **once per OS process**, then locate its code and
/// data segments by diffing `dl_iterate_phdr` listings taken before and
/// after the open.
pub(crate) fn dlopen_and_locate(
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
pub(crate) fn classify_value(
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
pub(crate) fn build_startup_template(
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

pub struct PieGlobals {
    common: Common,
    opts: PieOptions,
    /// Original segment addresses found by the phdr diff.
    orig: SegmentAddrs,
    /// TLS layout: declared TLS vars only (data vars ride the segment copy).
    tls_block_size: usize,
    ranks: Vec<RankRanges>,
    /// Bytes of fixups applied, by strategy, for reporting/tests.
    pub fixups_applied: usize,
    pub false_positive_candidates: usize,
    /// Memoized startup template (built lazily).
    template: Option<StartupTemplate>,
}

impl PieGlobals {
    pub fn new(env: PrivatizeEnv, opts: PieOptions) -> Result<PieGlobals, PrivatizeError> {
        prerequisites(Method::PieGlobals, &env)?;
        let mut env = env;
        let (image, orig) = dlopen_and_locate(&mut env)?;
        let tls_block_size = env.binary.layout.tls_size.max(8);
        let common = Common { env, base_image: image };
        Ok(PieGlobals {
            common,
            opts,
            orig,
            tls_block_size,
            ranks: Vec::new(),
            fixups_applied: 0,
            false_positive_candidates: 0,
            template: None,
        })
    }

    /// Rebase one value if it points into the original segments or a ctor
    /// heap allocation; returns the new value and what matched.
    #[cfg(test)]
    fn rebase_value(
        &self,
        v: u64,
        new_code: usize,
        new_data: usize,
        ctor_clones: &[(usize, usize, usize)], // (orig_base, len, clone_base)
    ) -> Option<u64> {
        let addr = v as usize;
        if self.orig.contains_code(addr) {
            return Some((new_code + (addr - self.orig.code_base)) as u64);
        }
        if self.orig.contains_data(addr) {
            return Some((new_data + (addr - self.orig.data_base)) as u64);
        }
        for &(base, len, clone) in ctor_clones {
            if addr >= base && addr < base + len {
                return Some((clone + (addr - base)) as u64);
            }
        }
        None
    }

    /// Steps 3-4: memcpy the memoized template into rank memory and
    /// apply the patch list. The unit tests hold its segments and fixup
    /// counts to those of the paper's literal per-rank scan
    /// (`instantiate_segments_reference`, compiled for tests only).
    fn instantiate_segments(
        &mut self,
        image: &LoadedImage,
        mem: &mut RankMemory,
    ) -> Result<(usize, usize, usize), PrivatizeError> {
        if self.template.is_none() {
            self.template = Some(build_startup_template(&self.orig, self.opts.scan, image));
        }
        let tpl = self.template.take().expect("template just built");
        let result = self.apply_template(&tpl, image, mem);
        self.template = Some(tpl);
        result
    }

    fn apply_template(
        &mut self,
        tpl: &StartupTemplate,
        image: &LoadedImage,
        mem: &mut RankMemory,
    ) -> Result<(usize, usize, usize), PrivatizeError> {
        // Step 3: code straight from the image, data from the
        // snapshot — both one memcpy.
        let code_copy = Region::from_bytes(RegionKind::CodeSegment, image.code_region().as_slice());
        let data_copy = Region::from_bytes(RegionKind::DataSegment, &tpl.data);
        let new_code = code_copy.base() as usize;
        let new_data = data_copy.base() as usize;
        let data_ptr = data_copy.base_mut();
        let data_len = data_copy.len();
        pvr_trace::emit(pvr_trace::EventKind::SegmentCopy {
            segment: pvr_trace::Segment::Code,
            bytes: code_copy.len() as u64,
        });
        pvr_trace::emit(pvr_trace::EventKind::SegmentCopy {
            segment: pvr_trace::Segment::Data,
            bytes: data_len as u64,
        });
        mem.add_region(code_copy);
        mem.add_region(data_copy);

        let mut clone_bases: Vec<usize> = Vec::with_capacity(tpl.ctor_data.len());
        for bytes in &tpl.ctor_data {
            let clone = mem.heap().alloc(bytes.len().max(1), 8)?;
            unsafe {
                std::ptr::copy_nonoverlapping(bytes.as_ptr(), clone.ptr, bytes.len());
            }
            clone_bases.push(clone.ptr as usize);
        }

        // Step 4: patch-list replay — no scanning, one add and one
        // write per recorded fixup.
        let resolve = |t: PatchTarget| -> u64 {
            match t {
                PatchTarget::Code { off } => (new_code + off) as u64,
                PatchTarget::Data { off } => (new_data + off) as u64,
                PatchTarget::CtorHeap { alloc, off } => (clone_bases[alloc] + off) as u64,
            }
        };
        for &(off, t) in &tpl.data_patches {
            unsafe { (data_ptr.add(off) as *mut u64).write_unaligned(resolve(t)) };
            self.fixups_applied += 1;
        }
        for &(alloc, off, t) in &tpl.ctor_patches {
            unsafe { ((clone_bases[alloc] + off) as *mut u64).write_unaligned(resolve(t)) };
            self.fixups_applied += 1;
        }

        // GOT from the memoized plan.
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
        Ok((new_code, new_data, data_len))
    }

    /// Steps 5-6 over a rank's copied and fixed-up segments (`(code
    /// base, data base, data length)`, from steps 3-4): the TLS block,
    /// the access table and the `pieglobalsfind` bookkeeping.
    fn finish_rank(
        &mut self,
        rank: usize,
        image: &LoadedImage,
        mem: &mut RankMemory,
        (new_code, new_data, data_len): (usize, usize, usize),
    ) -> Result<RankInstance, PrivatizeError> {
        let binary = self.common.env.binary.clone();
        let layout = &binary.layout;

        // Step 5: per-rank TLS block (TLSglobals combination).
        let mut tls_block = Region::new_zeroed(RegionKind::TlsSegment, self.tls_block_size);
        let tpl = image.tls_template();
        tls_block.as_mut_slice()[..tpl.len()].copy_from_slice(tpl);
        let tls_base = tls_block.base_mut();
        pvr_trace::emit(pvr_trace::EventKind::SegmentCopy {
            segment: pvr_trace::Segment::Tls,
            bytes: self.tls_block_size as u64,
        });
        mem.add_region(tls_block);

        // Resolve accesses: data vars → direct into the rank's data copy;
        // TLS vars → TLS register + offset.
        let mut accesses: HashMap<String, VarAccess> = HashMap::new();
        for v in &binary.spec.vars {
            let acc = match v.class {
                VarClass::Global | VarClass::Static => {
                    if self.opts.dedup_readonly && v.mutability == Mutability::ReadOnly {
                        VarAccess::Direct(image.data_addr_of(&v.name).unwrap())
                    } else {
                        let off = layout.data_syms[&v.name].offset;
                        VarAccess::Direct((new_data + off) as *mut u8)
                    }
                }
                VarClass::ThreadLocal => VarAccess::Tls {
                    offset: layout.tls_syms[&v.name].offset,
                },
            };
            accesses.insert(v.name.clone(), acc);
        }

        self.ranks.push(RankRanges {
            rank,
            code_base: new_code,
            code_len: image.code_region().len(),
            data_base: new_data,
            data_len,
        });

        Ok(RankInstance::new(
            rank,
            Method::PieGlobals,
            accesses,
            CtxAction::SetTls(tls_base),
            new_code,
        ))
    }

    /// Reference startup (steps 3-4): the paper's full per-rank scan and
    /// fixup — kept verbatim as the oracle the template path must match;
    /// do not optimize.
    #[cfg(test)]
    fn instantiate_segments_reference(
        &mut self,
        image: &LoadedImage,
        mem: &mut RankMemory,
    ) -> Result<(usize, usize, usize), PrivatizeError> {
        // Step 3: copy segments into Isomalloc-managed rank memory.
        let code_copy = Region::from_bytes(RegionKind::CodeSegment, image.code_region().as_slice());
        let data_copy = Region::from_bytes(RegionKind::DataSegment, image.data_region().as_slice());
        let new_code = code_copy.base() as usize;
        let new_data = data_copy.base() as usize;
        let data_ptr = data_copy.base_mut();
        let data_len = data_copy.len();
        pvr_trace::emit(pvr_trace::EventKind::SegmentCopy {
            segment: pvr_trace::Segment::Code,
            bytes: code_copy.len() as u64,
        });
        pvr_trace::emit(pvr_trace::EventKind::SegmentCopy {
            segment: pvr_trace::Segment::Data,
            bytes: data_len as u64,
        });
        mem.add_region(code_copy);
        mem.add_region(data_copy);

        // Replicate ctor heap allocations into the rank's heap; their
        // contents are copied and will be pointer-fixed below.
        let mut ctor_clones: Vec<(usize, usize, usize)> = Vec::new();
        for alloc in image.ctor_heap() {
            let clone = mem.heap().alloc(alloc.len().max(1), 8)?;
            unsafe {
                std::ptr::copy_nonoverlapping(
                    alloc.as_slice().as_ptr(),
                    clone.ptr,
                    alloc.len(),
                );
            }
            ctor_clones.push((alloc.base(), alloc.len(), clone.ptr as usize));
        }

        // Step 4: pointer fixup.
        match self.opts.scan {
            ScanPolicy::ConservativeScan => {
                // scan the data copy, 8-byte stride
                let words = data_len / 8;
                for i in 0..words {
                    let p = unsafe { (data_ptr as *mut u64).add(i) };
                    let v = unsafe { p.read_unaligned() };
                    if v == 0 {
                        continue;
                    }
                    if let Some(nv) = self.rebase_value(v, new_code, new_data, &ctor_clones) {
                        unsafe { p.write_unaligned(nv) };
                        self.fixups_applied += 1;
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
                        if let Some(nv) = self.rebase_value(v, new_code, new_data, &ctor_clones)
                        {
                            unsafe { p.write_unaligned(nv) };
                            self.fixups_applied += 1;
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
                    self.fixups_applied += 1;
                }
            }
        }

        // Rebase the GOT for this rank's copies; lives in rank memory.
        let got_len = image.got().len().max(1);
        let got_alloc = mem.heap().alloc(got_len * 8, 8)?;
        {
            let got_slice =
                unsafe { std::slice::from_raw_parts_mut(got_alloc.ptr as *mut u64, got_len) };
            for (i, &entry) in image.got().iter().enumerate() {
                got_slice[i] = self
                    .rebase_value(entry, new_code, new_data, &ctor_clones)
                    .unwrap_or(entry);
            }
        }
        pvr_trace::emit(pvr_trace::EventKind::GotFixup {
            entries: got_len as u32,
        });
        Ok((new_code, new_data, data_len))
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
        let image = self.common.base_image.clone();
        let segments = self.instantiate_segments(&image, mem)?;
        self.finish_rank(rank, &image, mem, segments)
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

    fn simulated_startup_cost(&self) -> Duration {
        Duration::ZERO
    }

    fn fn_offset_of(&self, name: &str) -> Option<usize> {
        self.common.fn_offset_of(name)
    }

    fn callable_for_offset(&self, offset: usize) -> Option<Callable> {
        self.common.callable_for_offset(offset)
    }

    /// `pieglobalsfind`: map a privatized address back to the original
    /// image (to recover debug symbols in GDB/LLDB).
    fn find_original(&self, addr: usize) -> Option<FindResult> {
        for rr in &self.ranks {
            if addr >= rr.code_base && addr < rr.code_base + rr.code_len {
                let orig_addr = self.orig.code_base + (addr - rr.code_base);
                let symbol = self
                    .common
                    .base_image
                    .fn_at_addr(orig_addr)
                    .map(|(n, off)| (n.to_string(), off));
                return Some(FindResult {
                    rank: rr.rank,
                    original_addr: orig_addr,
                    symbol,
                    segment: "code",
                });
            }
            if addr >= rr.data_base && addr < rr.data_base + rr.data_len {
                let offset = addr - rr.data_base;
                let orig_addr = self.orig.data_base + offset;
                let symbol = self
                    .common
                    .env
                    .binary
                    .layout
                    .data_syms
                    .iter()
                    .find(|(_, s)| offset >= s.offset && offset < s.offset + s.size)
                    .map(|(n, s)| (n.clone(), offset - s.offset));
                return Some(FindResult {
                    rank: rr.rank,
                    original_addr: orig_addr,
                    symbol,
                    segment: "data",
                });
            }
        }
        None
    }

    fn per_rank_copied_bytes(&self) -> usize {
        self.orig.code_len + self.orig.data_len + self.tls_block_size
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
    use pvr_progimage::{link, CtorSpec, FunctionSpec, GlobalSpec, ImageSpec};
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

    fn make(opts: PieOptions) -> PieGlobals {
        PieGlobals::new(PrivatizeEnv::new(bin()), opts).unwrap()
    }

    /// `instantiate_rank` with steps 3-4 done by the oracle: the paper's
    /// literal per-rank scan instead of the memoized template.
    fn instantiate_rank_by_scan(
        p: &mut PieGlobals,
        rank: usize,
        mem: &mut RankMemory,
    ) -> RankInstance {
        let image = p.common.base_image.clone();
        let segments = p.instantiate_segments_reference(&image, mem).unwrap();
        p.finish_rank(rank, &image, mem, segments).unwrap()
    }

    #[test]
    fn all_var_classes_privatized() {
        let mut p = make(PieOptions::default());
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
        let mut p = make(PieOptions::default());
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
        let mut p = make(PieOptions {
            scan,
            dedup_readonly: false,
        });
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
        assert!(p.fixups_applied >= 3);
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
            let mut p = make(PieOptions {
                scan,
                dedup_readonly: false,
            });
            // Write the colliding integer into `g` of the ORIGINAL image
            // (as if computed at startup before privatization).
            let fake = (p.orig.code_base + 24) as u64;
            unsafe {
                (p.common.base_image.data_addr_of("g").unwrap() as *mut u64).write(fake);
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
            let opts = PieOptions {
                scan,
                dedup_readonly: false,
            };
            let mut fast = make(opts);
            let mut reference = make(opts);
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
                fast.fixups_applied, reference.fixups_applied,
                "{scan:?}: fast path must apply exactly the reference fixups"
            );
            regs::clear();
        }
    }

    #[test]
    fn fn_offsets_resolve_on_any_rank() {
        let mut p = make(PieOptions::default());
        let off = p.fn_offset_of("combine").unwrap();
        let mut m0 = RankMemory::new();
        let mut m1 = RankMemory::new();
        let r0 = p.instantiate_rank(0, &mut m0).unwrap();
        let r1 = p.instantiate_rank(1, &mut m1).unwrap();
        // each rank's code copy is distinct, offsets identical
        assert_ne!(r0.code_base(), r1.code_base());
        assert_eq!(r0.offset_to_fn_addr(off) - r0.code_base(), off);
        assert!(p.callable_for_offset(off).is_some());
        // address → offset roundtrip across ranks (the MPI_Op mechanism)
        let addr_on_r0 = r0.offset_to_fn_addr(off);
        let off_back = r0.fn_addr_to_offset(addr_on_r0);
        assert_eq!(off_back, off);
        assert_eq!(r1.offset_to_fn_addr(off_back) - r1.code_base(), off);
    }

    #[test]
    fn pieglobalsfind_translates_data_addresses() {
        let mut p = make(PieOptions::default());
        let mut m = RankMemory::new();
        let r = p.instantiate_rank(0, &mut m).unwrap();
        let gaddr = r.access("g").ptr() as usize;
        let f = p.find_original(gaddr).unwrap();
        assert_eq!(f.rank, 0);
        assert_eq!(f.segment, "data");
        assert_eq!(f.symbol, Some(("g".to_string(), 0)));
        assert_eq!(
            f.original_addr,
            p.common.base_image.data_addr_of("g").unwrap() as usize
        );
        // unknown addresses yield None
        assert!(p.find_original(0xdeadbeef).is_none());
    }

    #[test]
    fn dedup_readonly_shares_ro_vars() {
        let b = link(
            ImageSpec::builder("app")
                .global("rw", 8)
                .var(GlobalSpec::new("ro", 8, VarClass::Global).read_only())
                .build(),
        );
        let mut p = PieGlobals::new(
            PrivatizeEnv::new(b),
            PieOptions {
                scan: ScanPolicy::default(),
                dedup_readonly: true,
            },
        )
        .unwrap();
        let mut m0 = RankMemory::new();
        let mut m1 = RankMemory::new();
        let r0 = p.instantiate_rank(0, &mut m0).unwrap();
        let r1 = p.instantiate_rank(1, &mut m1).unwrap();
        assert_eq!(r0.access("ro").ptr(), r1.access("ro").ptr());
        assert_ne!(r0.access("rw").ptr(), r1.access("rw").ptr());
    }

    #[test]
    fn rejected_without_glibc() {
        let env = PrivatizeEnv::new(bin()).with_toolchain(crate::env::Toolchain::macos());
        assert!(matches!(
            PieGlobals::new(env, PieOptions::default()),
            Err(PrivatizeError::Unsupported { .. })
        ));
    }
}
