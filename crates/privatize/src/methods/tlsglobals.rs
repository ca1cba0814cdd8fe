//! TLSglobals (§2.3.4) and `-fmpc-privatize` (§2.3.5).
//!
//! TLSglobals: the *user* tags each unsafe global/static `thread_local`
//! (`__thread` in C, `thread_local` in C++, OpenMP `threadprivate` in
//! Fortran); the runtime swaps the TLS segment pointer at each ULT
//! context switch. Tagged variables gain one indirection per access
//! (through the TLS register); untagged mutable variables remain shared —
//! the "Mediocre" automation rating in Table 1 is precisely the risk of
//! missing a tag.
//!
//! `-fmpc-privatize` (MPC's compiler support, also in patched GCC and the
//! Intel compiler): identical runtime shape, but the *compiler* tags every
//! global/static automatically. Full automation, but compiler-specific,
//! and — per Table 1 — migration is "Not implemented".
//!
//! Requirements enforced here: GCC or Clang ≥ 10 for TLSglobals
//! (`-mno-tls-direct-seg-refs`); MPC-patched GCC or Intel for
//! `-fmpc-privatize`.

use super::Common;
use crate::access::VarAccess;
use crate::env::PrivatizeEnv;
use crate::probe::prerequisites;
use crate::rank::{CtxAction, RankInstance};
use crate::{Method, PrivatizeError, Privatizer};
use pvr_isomalloc::{RankMemory, Region, RegionKind};
use pvr_progimage::{Mutability, VarClass};
use std::collections::{HashMap, HashSet};

/// MPC hierarchical-local-storage level for one variable
/// (Tchiboukdjian et al. \[21\], referenced in §2.3.5): how widely one
/// copy of the variable is shared. Coarser levels cut memory overhead
/// when per-rank privacy is not semantically required.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HlsLevel {
    /// One copy per OS process (write-once config data, lookup tables).
    Process,
    /// One copy per PE (scratch buffers reused by co-scheduled ranks).
    Pe,
    /// One copy per virtual rank — full privatization, the default.
    #[default]
    Rank,
}

/// Which mutable globals/statics the user tagged `thread_local`.
#[derive(Debug, Clone, Default)]
pub enum TagPolicy {
    /// Tag everything mutable — the correct (and tedious) full tagging.
    #[default]
    All,
    /// An explicit set of tagged names; anything omitted stays shared
    /// (how real codes break when a variable is missed).
    Set(HashSet<String>),
    /// Nothing tagged — privatizes only declared `ThreadLocal` variables.
    None,
}

impl TagPolicy {
    fn is_tagged(&self, name: &str) -> bool {
        match self {
            TagPolicy::All => true,
            TagPolicy::Set(s) => s.contains(name),
            TagPolicy::None => false,
        }
    }
}

/// One entry in the extended per-rank TLS block.
struct TlsEntry {
    name: String,
    offset: usize,
    size: usize,
    init: Vec<u8>,
}

pub struct TlsGlobals {
    common: Common,
    method: Method,
    entries: Vec<TlsEntry>,
    block_size: usize,
    mpc: bool,
    /// PE-level HLS entries: (name, offset-in-pe-block, size, init).
    pe_entries: Vec<TlsEntry>,
    /// One HLS block per PE in this process (pinned).
    pe_blocks: Vec<Box<[u8]>>,
    /// Fully initialized per-rank TLS block, prebuilt once: zeroes with
    /// every entry's init bytes laid in at its offset. Per-rank startup
    /// is then a single memcpy instead of a per-entry copy loop.
    block_template: Box<[u8]>,
}

impl TlsGlobals {
    pub fn new(
        env: PrivatizeEnv,
        tags: TagPolicy,
        mpc: bool,
    ) -> Result<TlsGlobals, PrivatizeError> {
        Self::with_hls(env, tags, mpc, HashMap::new())
    }

    /// Like [`TlsGlobals::new`], with hierarchical-local-storage level
    /// assignments per variable (unlisted variables default to
    /// [`HlsLevel::Rank`]).
    pub fn with_hls(
        env: PrivatizeEnv,
        tags: TagPolicy,
        mpc: bool,
        hls: HashMap<String, HlsLevel>,
    ) -> Result<TlsGlobals, PrivatizeError> {
        let method = if mpc {
            Method::MpcPrivatize
        } else {
            Method::TlsGlobals
        };
        prerequisites(method, &env)?;

        let pes = env.pes_per_process;
        let common = Common::new(env)?;
        let spec = common.env.binary.spec.clone();
        let layout = &common.env.binary.layout;

        // Extended TLS block: declared TLS vars at their linked offsets,
        // then tagged rank-level globals/statics appended. PE-level HLS
        // variables get slots in per-PE blocks; process-level ones and
        // untagged ones stay in the shared image.
        let mut entries = Vec::new();
        let mut pe_entries = Vec::new();
        let mut off = layout.tls_size;
        let mut pe_off = 0usize;
        for v in &spec.vars {
            match v.class {
                VarClass::ThreadLocal => {
                    entries.push(TlsEntry {
                        name: v.name.clone(),
                        offset: layout.tls_syms[&v.name].offset,
                        size: v.size,
                        init: v.init.clone(),
                    });
                }
                VarClass::Global | VarClass::Static => {
                    if v.mutability == Mutability::Mutable && tags.is_tagged(&v.name) {
                        match hls.get(&v.name).copied().unwrap_or_default() {
                            HlsLevel::Rank => {
                                off = (off + v.align - 1) & !(v.align - 1);
                                entries.push(TlsEntry {
                                    name: v.name.clone(),
                                    offset: off,
                                    size: v.size,
                                    init: v.init.clone(),
                                });
                                off += v.size;
                            }
                            HlsLevel::Pe => {
                                pe_off = (pe_off + v.align - 1) & !(v.align - 1);
                                pe_entries.push(TlsEntry {
                                    name: v.name.clone(),
                                    offset: pe_off,
                                    size: v.size,
                                    init: v.init.clone(),
                                });
                                pe_off += v.size;
                            }
                            HlsLevel::Process => {}
                        }
                    }
                }
            }
        }

        // one HLS block per PE in this process
        let pe_block_size = pe_off.max(8);
        let pe_blocks: Vec<Box<[u8]>> = (0..pes)
            .map(|_| {
                let mut b = vec![0u8; pe_block_size].into_boxed_slice();
                for e in &pe_entries {
                    let len = e.init.len().min(e.size);
                    b[e.offset..e.offset + len].copy_from_slice(&e.init[..len]);
                }
                b
            })
            .collect();

        let block_size = off.max(8);
        let mut block_template = vec![0u8; block_size].into_boxed_slice();
        for e in &entries {
            let len = e.init.len().min(e.size);
            block_template[e.offset..e.offset + len].copy_from_slice(&e.init[..len]);
        }

        Ok(TlsGlobals {
            common,
            method,
            entries,
            block_size,
            mpc,
            pe_entries,
            pe_blocks,
            block_template,
        })
    }
}

impl Privatizer for TlsGlobals {
    fn method(&self) -> Method {
        self.method
    }

    fn instantiate_rank(
        &mut self,
        rank: usize,
        mem: &mut RankMemory,
    ) -> Result<RankInstance, PrivatizeError> {
        // Per-rank TLS segment copy, in rank memory (migratable: Table 1
        // says TLSglobals supports migration; the per-rank TLS block is
        // exactly "the TLS segment copied once per virtual rank"): one
        // memcpy from the prebuilt template.
        let block = Region::from_bytes(RegionKind::TlsSegment, &self.block_template);
        let base = block.base_mut();
        pvr_trace::emit(pvr_trace::EventKind::SegmentCopy {
            segment: pvr_trace::Segment::Tls,
            bytes: self.block_size as u64,
        });
        mem.add_region(block);

        let mut accesses: HashMap<String, VarAccess> = HashMap::new();
        for e in &self.entries {
            accesses.insert(e.name.clone(), VarAccess::Tls { offset: e.offset });
        }
        // PE-level HLS variables resolve through the PE register
        for e in &self.pe_entries {
            accesses.insert(e.name.clone(), VarAccess::PeLevel { offset: e.offset });
        }
        // process-level HLS, untagged mutable, and read-only vars: shared
        // in the base image
        for v in &self.common.env.binary.spec.vars {
            if !accesses.contains_key(&v.name) {
                accesses.insert(
                    v.name.clone(),
                    VarAccess::Direct(self.common.base_image.data_addr_of(&v.name).unwrap()),
                );
            }
        }

        Ok(RankInstance::new(
            rank,
            self.method,
            accesses,
            CtxAction::SetTls(base),
            self.common.base_image.segment_addrs().code_base,
        ))
    }

    fn supports_migration(&self) -> bool {
        // Table 1: TLSglobals yes; -fmpc-privatize "Not implemented".
        !self.mpc
    }

    fn parallel_startup_safe(&self) -> bool {
        // instantiate_rank reads only this privatizer's prebuilt state
        // and the (immutable) base image; all writes go to fresh rank
        // memory.
        true
    }

    fn pe_block(&self, local_pe: usize) -> Option<*mut u8> {
        if self.pe_entries.is_empty() {
            None
        } else {
            self.pe_blocks
                .get(local_pe)
                .map(|b| b.as_ptr() as *mut u8)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Toolchain;
    use crate::regs;
    use pvr_progimage::{link, ImageSpec};
    use std::sync::Arc;

    fn bin() -> Arc<pvr_progimage::ProgramBinary> {
        link(
            ImageSpec::builder("app")
                .global("g", 8)
                .static_var("s", 8)
                .thread_local("t", 8)
                .build(),
        )
    }

    #[test]
    fn tagged_vars_privatized() {
        let mut p = TlsGlobals::new(PrivatizeEnv::new(bin()), TagPolicy::All, false).unwrap();
        let mut m0 = RankMemory::new();
        let mut m1 = RankMemory::new();
        let r0 = p.instantiate_rank(0, &mut m0).unwrap();
        let r1 = p.instantiate_rank(1, &mut m1).unwrap();
        for (r, v) in [(&r0, 10u64), (&r1, 20u64)] {
            r.activate();
            r.access("g").write_u64(v);
            r.access("s").write_u64(v + 1);
            r.access("t").write_u64(v + 2);
        }
        r0.activate();
        assert_eq!(r0.access("g").read_u64(), 10);
        assert_eq!(r0.access("s").read_u64(), 11); // statics work, unlike Swapglobals
        assert_eq!(r0.access("t").read_u64(), 12);
        r1.activate();
        assert_eq!(r1.access("g").read_u64(), 20);
        regs::clear();
    }

    #[test]
    fn missing_tag_leaves_var_shared() {
        let tags = TagPolicy::Set(HashSet::from(["g".to_string()]));
        let mut p = TlsGlobals::new(PrivatizeEnv::new(bin()), tags, false).unwrap();
        let mut m0 = RankMemory::new();
        let mut m1 = RankMemory::new();
        let r0 = p.instantiate_rank(0, &mut m0).unwrap();
        let r1 = p.instantiate_rank(1, &mut m1).unwrap();
        assert!(matches!(r0.access("g"), VarAccess::Tls { .. }));
        assert!(
            matches!(r0.access("s"), VarAccess::Direct(_)),
            "`s` is untagged"
        );
        r0.activate();
        r0.access("s").write_u64(1);
        r1.activate();
        r1.access("s").write_u64(2);
        r0.activate();
        assert_eq!(r0.access("s").read_u64(), 2, "untagged static is shared");
        regs::clear();
    }

    #[test]
    fn old_clang_rejected() {
        let mut t = Toolchain::macos();
        t.compiler.version = (9, 0);
        let env = PrivatizeEnv::new(bin()).with_toolchain(t);
        assert!(matches!(
            TlsGlobals::new(env, TagPolicy::All, false),
            Err(PrivatizeError::Unsupported { .. })
        ));
    }

    #[test]
    fn mpc_needs_special_compiler() {
        let env = PrivatizeEnv::new(bin()); // stock GCC
        assert!(matches!(
            TlsGlobals::new(env, TagPolicy::All, true),
            Err(PrivatizeError::Unsupported { .. })
        ));
        let mut t = Toolchain::bridges2();
        t.compiler.mpc_patched = true;
        let env = PrivatizeEnv::new(bin()).with_toolchain(t);
        let p = TlsGlobals::new(env, TagPolicy::All, true).unwrap();
        assert_eq!(p.method(), Method::MpcPrivatize);
        assert!(!p.supports_migration(), "Table 1: not implemented");
    }

    #[test]
    fn tls_block_is_rank_memory() {
        let mut p = TlsGlobals::new(PrivatizeEnv::new(bin()), TagPolicy::All, false).unwrap();
        let mut m0 = RankMemory::new();
        let r0 = p.instantiate_rank(0, &mut m0).unwrap();
        assert!(m0.stats().tls_bytes >= 24);
        assert!(p.supports_migration());
        r0.activate();
        let base = regs::tls_base() as usize;
        regs::clear();
        assert!(
            m0.regions().any(|r| r.contains(base)),
            "TLS block in rank memory"
        );
    }
}

#[cfg(test)]
mod hls_tests {
    use super::*;
    use crate::regs;
    use pvr_progimage::{link, ImageSpec};

    fn hls_bin() -> std::sync::Arc<pvr_progimage::ProgramBinary> {
        link(
            ImageSpec::builder("hls-app")
                .global("per_rank", 8)
                .global("per_pe_scratch", 64)
                .global("per_proc_table", 32)
                .build(),
        )
    }

    fn levels() -> HashMap<String, HlsLevel> {
        HashMap::from([
            ("per_pe_scratch".to_string(), HlsLevel::Pe),
            ("per_proc_table".to_string(), HlsLevel::Process),
        ])
    }

    fn make(pes: usize) -> TlsGlobals {
        let env = PrivatizeEnv::new(hls_bin()).with_pes(pes);
        TlsGlobals::with_hls(env, TagPolicy::All, false, levels()).unwrap()
    }

    #[test]
    fn levels_get_distinct_access_paths() {
        let mut p = make(2);
        let mut mem = RankMemory::new();
        let inst = p.instantiate_rank(0, &mut mem).unwrap();
        assert!(matches!(inst.access("per_rank"), VarAccess::Tls { .. }));
        assert!(matches!(
            inst.access("per_pe_scratch"),
            VarAccess::PeLevel { .. }
        ));
        assert!(matches!(
            inst.access("per_proc_table"),
            VarAccess::Direct(_)
        ));
    }

    #[test]
    fn pe_level_shared_within_pe_private_across_pes() {
        let mut p = make(2);
        let mut mems: Vec<RankMemory> = (0..4).map(|_| RankMemory::new()).collect();
        let insts: Vec<RankInstance> = (0..4)
            .map(|r| p.instantiate_rank(r, &mut mems[r]).unwrap())
            .collect();
        let block0 = p.pe_block(0).unwrap();
        let block1 = p.pe_block(1).unwrap();
        assert_ne!(block0, block1);

        // ranks 0,1 on PE 0: they share the PE-level scratch
        regs::set_pe_base(block0);
        insts[0].activate();
        insts[0].access("per_pe_scratch").write_u64(111);
        insts[1].activate();
        regs::set_pe_base(block0);
        assert_eq!(insts[1].access("per_pe_scratch").read_u64(), 111);
        // ...but NOT their rank-level variables
        insts[0].activate();
        regs::set_pe_base(block0);
        insts[0].access("per_rank").write_u64(7);
        insts[1].activate();
        regs::set_pe_base(block0);
        assert_ne!(insts[1].access("per_rank").read_u64(), 7);

        // PE 1 has its own scratch copy
        regs::set_pe_base(block1);
        insts[2].activate();
        regs::set_pe_base(block1);
        assert_eq!(insts[2].access("per_pe_scratch").read_u64(), 0);
        regs::clear();
    }

    #[test]
    fn process_level_shared_everywhere() {
        let mut p = make(2);
        let mut m0 = RankMemory::new();
        let mut m1 = RankMemory::new();
        let a = p.instantiate_rank(0, &mut m0).unwrap();
        let b = p.instantiate_rank(1, &mut m1).unwrap();
        assert_eq!(
            a.access("per_proc_table").ptr(),
            b.access("per_proc_table").ptr()
        );
    }

    #[test]
    fn hls_cuts_per_rank_memory() {
        // all-Rank assignment vs HLS assignment: per-rank footprint shrinks
        let env = PrivatizeEnv::new(hls_bin()).with_pes(2);
        let all_rank = TlsGlobals::with_hls(env, TagPolicy::All, false, HashMap::new()).unwrap();
        let with_hls = make(2);
        let rank_all = all_rank.block_size;
        let (rank_hls, pe_hls) = (with_hls.block_size, with_hls.pe_blocks[0].len());
        // the process-level variable stays in the shared image
        let spec = &with_hls.common.env.binary.spec;
        let proc_hls = spec.var("per_proc_table").unwrap().size;
        assert!(
            rank_hls + 8 <= rank_all,
            "per-rank bytes must shrink: {rank_hls} vs {rank_all}"
        );
        assert_eq!(pe_hls, 64);
        assert_eq!(proc_hls, 32);
        // with 16 ranks on 2 PEs: total(all-rank) = 16*rank_all;
        // total(hls) = 16*rank_hls + 2*64 + 32 — strictly less
        let total_all = 16 * rank_all;
        let total_hls = 16 * rank_hls + 2 * pe_hls + proc_hls;
        assert!(total_hls < total_all, "{total_hls} vs {total_all}");
    }
}
