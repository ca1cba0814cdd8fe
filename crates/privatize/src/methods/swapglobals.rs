//! Swapglobals (§2.3.3): privatize by swapping the ELF Global Offset
//! Table at each user-level thread context switch.
//!
//! Every extern-visible global is reached through a GOT slot, so giving
//! each rank its own GOT — whose slots point at per-rank variable copies —
//! privatizes those accesses with zero source changes. The documented
//! shortcomings, all reproduced here:
//!
//! * **Static variables are not in the GOT** and stay shared (wrong).
//! * Requires `ld` ≤ 2.23 or a patched newer `ld`, otherwise the linker
//!   optimizes the GOT reference out of each access (setup error here —
//!   and indeed the paper could not run Swapglobals on Bridges-2).
//! * **No SMP mode**: there is one active GOT per OS process, so only a
//!   single scheduler thread may run ranks (setup error when
//!   `pes_per_process > 1`).
//!
//! These led to Swapglobals being deprecated in AMPI.

use super::Common;
use crate::access::VarAccess;
use crate::env::PrivatizeEnv;
use crate::probe::prerequisites;
use crate::rank::{CtxAction, RankInstance};
use crate::{Method, PrivatizeError, Privatizer};
use pvr_isomalloc::RankMemory;
use pvr_progimage::{Mutability, VarClass};
use std::collections::HashMap;

pub struct Swapglobals {
    common: Common,
    process_tls: Box<[u8]>,
}

impl Swapglobals {
    pub fn new(env: PrivatizeEnv) -> Result<Swapglobals, PrivatizeError> {
        prerequisites(Method::Swapglobals, &env)?;
        let common = Common::new(env)?;
        let process_tls = super::process_tls_block(&common.base_image);
        Ok(Swapglobals {
            common,
            process_tls,
        })
    }
}

impl Privatizer for Swapglobals {
    fn method(&self) -> Method {
        Method::Swapglobals
    }

    fn instantiate_rank(
        &mut self,
        rank: usize,
        mem: &mut RankMemory,
    ) -> Result<RankInstance, PrivatizeError> {
        let spec = self.common.env.binary.spec.clone();
        let layout = &self.common.env.binary.layout;
        let image = &self.common.base_image;

        // Per-rank variable copies for everything reachable through the
        // GOT, allocated on the rank's migratable heap.
        let mut got = image.got().to_vec();
        let mut accesses: HashMap<String, VarAccess> = HashMap::new();
        for v in &spec.vars {
            match v.class {
                VarClass::Global => {
                    let slot = layout.got_slots[&v.name];
                    if v.mutability == Mutability::Mutable {
                        let copy = mem.heap().alloc(v.size, v.align.max(8))?;
                        unsafe {
                            std::ptr::write_bytes(copy.ptr, 0, v.size);
                            std::ptr::copy_nonoverlapping(
                                v.init.as_ptr(),
                                copy.ptr,
                                v.init.len().min(v.size),
                            );
                        }
                        got[slot] = copy.ptr as u64;
                    }
                    accesses.insert(v.name.clone(), VarAccess::Got { slot });
                }
                VarClass::Static => {
                    // NOT privatized: statics bypass the GOT. This is the
                    // method's defining correctness hole.
                    accesses.insert(
                        v.name.clone(),
                        VarAccess::Direct(image.data_addr_of(&v.name).unwrap()),
                    );
                }
                VarClass::ThreadLocal => {
                    // Swapglobals predates TLS handling; TLS vars stay
                    // per-process.
                    let off = image.tls_offset_of(&v.name).unwrap();
                    accesses.insert(
                        v.name.clone(),
                        VarAccess::Direct(unsafe {
                            (self.process_tls.as_ptr() as *mut u8).add(off)
                        }),
                    );
                }
            }
        }

        // The rank's GOT itself lives in rank memory so that migration
        // carries it (Table 1: Swapglobals does support migration). A
        // program with no GOT entries (statics/TLS only) still gets a
        // one-slot table so the register always points at valid memory.
        let got_bytes = mem.heap().alloc((got.len() * 8).max(8), 8)?;
        unsafe {
            std::ptr::copy_nonoverlapping(got.as_ptr() as *const u8, got_bytes.ptr, got.len() * 8);
        }

        Ok(RankInstance::new(
            rank,
            Method::Swapglobals,
            accesses,
            CtxAction::SetGot(got_bytes.ptr as *const u64),
            image.segment_addrs().code_base,
        ))
    }

    fn supports_migration(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Toolchain;
    use pvr_progimage::{link, ImageSpec};
    use std::sync::Arc;

    fn bin() -> Arc<pvr_progimage::ProgramBinary> {
        link(
            ImageSpec::builder("app")
                .global("g", 8)
                .static_var("s", 8)
                .build(),
        )
    }

    fn env() -> PrivatizeEnv {
        PrivatizeEnv::new(bin()).with_toolchain(Toolchain::legacy_ld())
    }

    #[test]
    fn modern_ld_rejected() {
        // The paper: "We were unable to get Swapglobals working on this
        // system" (Bridges-2's modern binutils).
        let e = PrivatizeEnv::new(bin()).with_toolchain(Toolchain::bridges2());
        assert!(matches!(
            Swapglobals::new(e),
            Err(PrivatizeError::Unsupported { .. })
        ));
    }

    #[test]
    fn smp_mode_rejected() {
        let e = env().with_pes(4);
        match Swapglobals::new(e) {
            Err(PrivatizeError::Unsupported { reason, .. }) => {
                assert!(reason.contains("SMP"))
            }
            other => panic!("expected SMP rejection, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn globals_privatized_via_got_swap() {
        let mut p = Swapglobals::new(env()).unwrap();
        let mut m0 = RankMemory::new();
        let mut m1 = RankMemory::new();
        let r0 = p.instantiate_rank(0, &mut m0).unwrap();
        let r1 = p.instantiate_rank(1, &mut m1).unwrap();
        r0.activate();
        r0.access("g").write_u64(100);
        r1.activate();
        r1.access("g").write_u64(200);
        r0.activate();
        assert_eq!(r0.access("g").read_u64(), 100);
        r1.activate();
        assert_eq!(r1.access("g").read_u64(), 200);
        crate::regs::clear();
    }

    #[test]
    fn statics_stay_shared_the_known_hole() {
        let mut p = Swapglobals::new(env()).unwrap();
        let mut m0 = RankMemory::new();
        let mut m1 = RankMemory::new();
        let r0 = p.instantiate_rank(0, &mut m0).unwrap();
        let r1 = p.instantiate_rank(1, &mut m1).unwrap();
        r0.activate();
        r0.access("s").write_u64(1);
        r1.activate();
        r1.access("s").write_u64(2);
        r0.activate();
        // the documented failure: rank 0 sees rank 1's static
        assert_eq!(r0.access("s").read_u64(), 2);
        crate::regs::clear();
    }

    #[test]
    fn per_rank_state_is_migratable() {
        let mut p = Swapglobals::new(env()).unwrap();
        let mut m0 = RankMemory::new();
        let r0 = p.instantiate_rank(0, &mut m0).unwrap();
        r0.activate();
        let gaddr = r0.access("g").ptr() as usize;
        assert!(m0.heap_ref().contains(gaddr));
        let g = crate::regs::got_base() as usize;
        crate::regs::clear();
        assert!(m0.heap_ref().contains(g), "GOT copy in rank memory");
    }
}
