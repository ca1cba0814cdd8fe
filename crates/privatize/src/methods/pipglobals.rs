//! PIPglobals (§3.1): `dlmopen` the PIE binary into a fresh linker
//! namespace per virtual rank.
//!
//! Concepts borrowed from the Process-in-Process library, reimplemented
//! inside the runtime: the application is built as a PIE and linked
//! against a function-pointer shim (so the *runtime* is not privatized
//! along with it); at startup a loader calls `dlmopen` with a new
//! namespace per rank, `dlsym`s the entry point, and jumps in. Globals
//! appear privatized with **zero per-access and per-context-switch cost**
//! because PIE data is reached IP-relatively within each namespace's
//! segment copy.
//!
//! Reproduced limitations:
//! * at most 12 namespaces on stock glibc (→ [`DlError::NamespaceExhausted`]
//!   surfaces as a startup failure for high virtualization ratios, which
//!   particularly hobbles SMP mode);
//! * **no migration**: the segment copies are made by `ld-linux.so`'s own
//!   `mmap`s, which cannot be routed through Isomalloc;
//! * GNU/Linux only (`dlmopen` is not POSIX).

use super::{Common, ImageRanks};
use crate::env::PrivatizeEnv;
use crate::probe::prerequisites;
use crate::rank::RankInstance;
use crate::{Method, PrivatizeError, Privatizer};
use pvr_isomalloc::RankMemory;

pub struct PipGlobals {
    common: Common,
    /// One namespace image per rank — owned by the *process* (ld.so
    /// state), not by rank memory; this is exactly why migration is
    /// impossible.
    ranks: ImageRanks,
}

impl PipGlobals {
    pub fn new(env: PrivatizeEnv) -> Result<PipGlobals, PrivatizeError> {
        prerequisites(Method::PipGlobals, &env)?;
        let common = Common::new(env)?;
        let ranks = ImageRanks::new(&common);
        Ok(PipGlobals { common, ranks })
    }
}

impl Privatizer for PipGlobals {
    fn method(&self) -> Method {
        Method::PipGlobals
    }

    fn instantiate_rank(
        &mut self,
        rank: usize,
        _mem: &mut RankMemory,
    ) -> Result<RankInstance, PrivatizeError> {
        // dlmopen(LM_ID_NEWLM, app.so): duplicates code+data segments,
        // and the namespace has its own TLS image. NamespaceExhausted
        // propagates on stock glibc past 12 ranks.
        let binary = self.common.env.binary.clone();
        let img = self.common.env.loader.dlmopen_newlm(&binary)?;
        Ok(self.ranks.add(rank, Method::PipGlobals, img))
    }

    fn supports_migration(&self) -> bool {
        // "we cannot intercept the mmap calls that happen from inside
        // ld-linux.so in order to allocate them via Isomalloc"
        false
    }

    fn per_rank_copied_bytes(&self) -> usize {
        self.ranks.copied_bytes
    }

    fn rank_data_segment(&self, rank: usize) -> Option<(*const u8, usize)> {
        self.ranks.data_segment(rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Toolchain;
    use pvr_progimage::loader::GLIBC_USABLE_NAMESPACES;
    use pvr_progimage::{link, DlError, ImageSpec};
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
    fn everything_privatized_no_ctx_work() {
        let mut p = PipGlobals::new(PrivatizeEnv::new(bin())).unwrap();
        let mut mems: Vec<RankMemory> = (0..2).map(|_| RankMemory::new()).collect();
        let r0 = p.instantiate_rank(0, &mut mems[0]).unwrap();
        let r1 = p.instantiate_rank(1, &mut mems[1]).unwrap();
        assert!(!r0.has_ctx_work());
        for name in ["g", "s", "t"] {
            r0.access(name).write_u64(100);
            r1.access(name).write_u64(200);
            assert_eq!(r0.access(name).read_u64(), 100, "{name} must be private");
        }
    }

    #[test]
    fn namespace_limit_bites_without_patched_glibc() {
        let mut p = PipGlobals::new(PrivatizeEnv::new(bin())).unwrap();
        let mut ok = 0;
        for rank in 0..GLIBC_USABLE_NAMESPACES + 4 {
            let mut mem = RankMemory::new();
            match p.instantiate_rank(rank, &mut mem) {
                Ok(_) => ok += 1,
                Err(PrivatizeError::Dl(DlError::NamespaceExhausted { .. })) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(ok, GLIBC_USABLE_NAMESPACES);
    }

    #[test]
    fn patched_glibc_lifts_limit() {
        let env = PrivatizeEnv::new(bin()).with_toolchain(Toolchain::with_patched_glibc());
        let mut p = PipGlobals::new(env).unwrap();
        for rank in 0..32 {
            let mut mem = RankMemory::new();
            p.instantiate_rank(rank, &mut mem).unwrap();
        }
    }

    #[test]
    fn rejected_without_glibc() {
        let env = PrivatizeEnv::new(bin()).with_toolchain(Toolchain::macos());
        assert!(matches!(
            PipGlobals::new(env),
            Err(PrivatizeError::Unsupported { .. })
        ));
    }

    #[test]
    fn no_migration_support() {
        let p = PipGlobals::new(PrivatizeEnv::new(bin())).unwrap();
        assert!(!p.supports_migration());
        assert!(p.per_rank_copied_bytes() > 0);
    }
}
