//! The baseline: no privatization at all.
//!
//! Every rank in the process resolves every global to the *same* storage
//! in the single loaded image — which is exactly the Fig. 2/3 bug when
//! ranks write different values. It is also the performance baseline all
//! methods are compared against in §4.

use super::{image_accesses, process_tls_block, Common};
use crate::env::PrivatizeEnv;
use crate::probe::prerequisites;
use crate::rank::{CtxAction, RankInstance};
use crate::{Method, PrivatizeError, Privatizer};
use pvr_isomalloc::RankMemory;

pub struct Unprivatized {
    common: Common,
    process_tls: Box<[u8]>,
}

impl Unprivatized {
    pub fn new(env: PrivatizeEnv) -> Result<Unprivatized, PrivatizeError> {
        prerequisites(Method::Unprivatized, &env)?;
        let common = Common::new(env)?;
        let process_tls = process_tls_block(&common.base_image);
        Ok(Unprivatized {
            common,
            process_tls,
        })
    }
}

impl Privatizer for Unprivatized {
    fn method(&self) -> Method {
        Method::Unprivatized
    }

    fn instantiate_rank(
        &mut self,
        rank: usize,
        _mem: &mut RankMemory,
    ) -> Result<RankInstance, PrivatizeError> {
        let tls_ptr = self.process_tls.as_ptr() as *mut u8;
        let accesses = image_accesses(&self.common.base_image, tls_ptr);
        Ok(RankInstance::new(
            rank,
            Method::Unprivatized,
            accesses,
            CtxAction::None,
            self.common.base_image.segment_addrs().code_base,
        ))
    }

    fn supports_migration(&self) -> bool {
        // Isomalloc can migrate the stack/heap, but shared global state
        // makes virtualized execution incorrect in the first place.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvr_progimage::{link, ImageSpec};

    #[test]
    fn all_ranks_share_storage() {
        let bin = link(ImageSpec::builder("app").global("my_rank", 8).build());
        let env = PrivatizeEnv::new(bin);
        let mut p = Unprivatized::new(env).unwrap();
        let mut m0 = RankMemory::new();
        let mut m1 = RankMemory::new();
        let r0 = p.instantiate_rank(0, &mut m0).unwrap();
        let r1 = p.instantiate_rank(1, &mut m1).unwrap();
        // the bug: rank 1's write is visible to rank 0
        r0.access("my_rank").write_u64(0);
        r1.access("my_rank").write_u64(1);
        assert_eq!(r0.access("my_rank").read_u64(), 1);
        assert!(!r0.has_ctx_work());
    }
}
