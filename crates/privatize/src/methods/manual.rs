//! Manual code refactoring (§2.3.1) and Photran (§2.3.2).
//!
//! Both transform the *source*: every mutable global/static is moved into
//! a per-rank structure allocated on the rank's heap and threaded through
//! the call chain. At runtime the result is ideal — direct accesses into
//! rank-owned, Isomalloc-resident (hence migratable) memory, nothing to
//! do at context switches. The cost is programmer effort (manual) or
//! language restriction (Photran works only on Fortran).

use super::Common;
use crate::access::VarAccess;
use crate::env::PrivatizeEnv;
use crate::probe::prerequisites;
use crate::rank::{CtxAction, RankInstance};
use crate::{Method, PrivatizeError, Privatizer};
use pvr_isomalloc::RankMemory;
use pvr_progimage::{Mutability, VarClass};
use std::collections::HashMap;

pub struct ManualRefactor {
    common: Common,
    method: Method,
    /// (name, size, align, init, offset-in-struct) for each moved var.
    layout: Vec<(String, usize, Vec<u8>, usize)>,
    struct_size: usize,
}

impl ManualRefactor {
    pub fn new(env: PrivatizeEnv, method: Method) -> Result<ManualRefactor, PrivatizeError> {
        prerequisites(method, &env)?;
        let common = Common::new(env)?;
        // Build the "encapsulating structure": every mutable variable,
        // regardless of class, gets a slot.
        let mut layout = Vec::new();
        let mut off = 0usize;
        for v in &common.env.binary.spec.vars {
            if v.mutability != Mutability::Mutable {
                continue;
            }
            off = (off + v.align - 1) & !(v.align - 1);
            layout.push((v.name.clone(), v.size, v.init.clone(), off));
            off += v.size;
        }
        let struct_size = off.max(8);
        Ok(ManualRefactor {
            common,
            method,
            layout,
            struct_size,
        })
    }
}

impl Privatizer for ManualRefactor {
    fn method(&self) -> Method {
        self.method
    }

    fn instantiate_rank(
        &mut self,
        rank: usize,
        mem: &mut RankMemory,
    ) -> Result<RankInstance, PrivatizeError> {
        // allocate the per-rank state struct on the rank's migratable heap
        let block = mem.heap().alloc(self.struct_size, 16)?;
        let mut accesses: HashMap<String, VarAccess> = HashMap::new();
        for (name, size, init, off) in &self.layout {
            let p = unsafe { block.ptr.add(*off) };
            unsafe {
                std::ptr::write_bytes(p, 0, *size);
                std::ptr::copy_nonoverlapping(init.as_ptr(), p, init.len().min(*size));
            }
            accesses.insert(name.clone(), VarAccess::Direct(p));
        }
        // Read-only variables stay shared in the base image — safe, and
        // saves memory.
        for v in &self.common.env.binary.spec.vars {
            if v.mutability == Mutability::ReadOnly {
                let acc = match v.class {
                    VarClass::Global | VarClass::Static => VarAccess::Direct(
                        self.common.base_image.data_addr_of(&v.name).unwrap(),
                    ),
                    VarClass::ThreadLocal => {
                        // read-only TLS: template is never written; share it
                        let off = self.common.base_image.tls_offset_of(&v.name).unwrap();
                        VarAccess::Direct(unsafe {
                            self.common.base_image.tls_template().as_ptr().add(off) as *mut u8
                        })
                    }
                };
                accesses.insert(v.name.clone(), acc);
            }
        }
        Ok(RankInstance::new(
            rank,
            self.method,
            accesses,
            CtxAction::None,
            self.common.base_image.segment_addrs().code_base,
        ))
    }

    fn supports_migration(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvr_progimage::{link, GlobalSpec, ImageSpec, Language};

    fn bin() -> std::sync::Arc<pvr_progimage::ProgramBinary> {
        link(
            ImageSpec::builder("app")
                .global("my_rank", 8)
                .static_var("counter", 8)
                .var(GlobalSpec::new("tbl", 8, VarClass::Global).read_only())
                .build(),
        )
    }

    #[test]
    fn ranks_get_private_copies() {
        let mut p = ManualRefactor::new(PrivatizeEnv::new(bin()), Method::ManualRefactor).unwrap();
        let mut m0 = RankMemory::new();
        let mut m1 = RankMemory::new();
        let r0 = p.instantiate_rank(0, &mut m0).unwrap();
        let r1 = p.instantiate_rank(1, &mut m1).unwrap();
        r0.access("my_rank").write_u64(0);
        r1.access("my_rank").write_u64(1);
        assert_eq!(r0.access("my_rank").read_u64(), 0);
        assert_eq!(r1.access("my_rank").read_u64(), 1);
        // statics are privatized too (unlike Swapglobals)
        r0.access("counter").write_u64(10);
        r1.access("counter").write_u64(20);
        assert_eq!(r0.access("counter").read_u64(), 10);
    }

    #[test]
    fn readonly_vars_shared() {
        let mut p = ManualRefactor::new(PrivatizeEnv::new(bin()), Method::ManualRefactor).unwrap();
        let mut m0 = RankMemory::new();
        let mut m1 = RankMemory::new();
        let r0 = p.instantiate_rank(0, &mut m0).unwrap();
        let r1 = p.instantiate_rank(1, &mut m1).unwrap();
        assert_eq!(r0.access("tbl").ptr(), r1.access("tbl").ptr());
    }

    #[test]
    fn state_lives_in_rank_heap() {
        let mut p = ManualRefactor::new(PrivatizeEnv::new(bin()), Method::ManualRefactor).unwrap();
        let mut m0 = RankMemory::new();
        let r0 = p.instantiate_rank(0, &mut m0).unwrap();
        let addr = r0.access("my_rank").ptr() as usize;
        assert!(m0.heap_ref().contains(addr), "state must be migratable");
        assert!(p.supports_migration());
    }

    #[test]
    fn photran_rejects_c_programs() {
        match ManualRefactor::new(PrivatizeEnv::new(bin()), Method::Photran) {
            Err(PrivatizeError::Unsupported { method, .. }) => {
                assert_eq!(method, Method::Photran)
            }
            other => panic!("expected Unsupported, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn photran_accepts_fortran() {
        let bin = link(
            ImageSpec::builder("adcirc")
                .language(Language::Fortran)
                .global("eta", 8)
                .build(),
        );
        assert!(ManualRefactor::new(PrivatizeEnv::new(bin), Method::Photran).is_ok());
    }
}
