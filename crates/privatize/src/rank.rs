//! Per-rank privatization state.
//!
//! A [`RankInstance`] is everything a virtual rank needs at runtime from
//! its privatization method: the resolved access path for every declared
//! variable, and the action (if any) the scheduler must perform when
//! context-switching into the rank — installing the rank's TLS block
//! (TLSglobals, `-fmpc-privatize`, PIEglobals) or its GOT (Swapglobals).
//! PIP/FS/PIEglobals data accesses need *no* context-switch action, which
//! is why their Fig. 6 switch times match the baseline.

use crate::access::VarAccess;
use crate::regs;
use crate::Method;
use std::collections::HashMap;

/// Work performed when the scheduler switches a PE to this rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtxAction {
    /// Nothing — globals are reached IP-relatively in a per-rank segment
    /// copy (baseline, manual refactor, PIP, FS) .
    None,
    /// Install the rank's private TLS block.
    SetTls(*mut u8),
    /// Install the rank's private GOT.
    SetGot(*const u64),
}

// SAFETY: the pointers are into rank-owned pinned memory; they are only
// dereferenced while the rank is active.
unsafe impl Send for CtxAction {}
unsafe impl Sync for CtxAction {}

/// The runtime face of one privatized rank.
pub struct RankInstance {
    rank: usize,
    method: Method,
    accesses: HashMap<String, VarAccess>,
    ctx: CtxAction,
    /// Base address used to resolve function-pointer *offsets* for this
    /// rank (its own code copy under PIEglobals; the shared image
    /// otherwise).
    code_base: usize,
}

// SAFETY: a RankInstance is immutable after construction; the raw
// pointers it hands out are capabilities into rank-owned pinned memory,
// exercised only while the owning rank is scheduled.
unsafe impl Send for RankInstance {}
unsafe impl Sync for RankInstance {}

impl RankInstance {
    pub fn new(
        rank: usize,
        method: Method,
        accesses: HashMap<String, VarAccess>,
        ctx: CtxAction,
        code_base: usize,
    ) -> RankInstance {
        RankInstance {
            rank,
            method,
            accesses,
            ctx,
            code_base,
        }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn method(&self) -> Method {
        self.method
    }

    /// Resolve a declared variable. Panics on unknown names — that is a
    /// "link error" in the model, not a runtime condition.
    pub fn access(&self, name: &str) -> VarAccess {
        *self
            .accesses
            .get(name)
            .unwrap_or_else(|| panic!("undefined global variable `{name}`"))
    }

    /// The scheduler's context-switch hook: install this rank's
    /// privatization registers on the current PE.
    #[inline]
    pub fn activate(&self) {
        match self.ctx {
            CtxAction::None => {}
            CtxAction::SetTls(p) => {
                regs::set_tls_base(p);
                pvr_trace::emit(pvr_trace::EventKind::PrivInstall {
                    reg: pvr_trace::PrivReg::Tls,
                });
            }
            CtxAction::SetGot(g) => {
                regs::set_got_base(g);
                pvr_trace::emit(pvr_trace::EventKind::PrivInstall {
                    reg: pvr_trace::PrivReg::Got,
                });
            }
        }
    }

    /// Whether activation performs register work (Fig. 6's differentiator).
    pub fn has_ctx_work(&self) -> bool {
        self.ctx != CtxAction::None
    }

    /// This rank's image base for function-pointer offset resolution.
    pub fn code_base(&self) -> usize {
        self.code_base
    }

    /// Encode a function address (in *this rank's* image) as an offset —
    /// the `MPI_Op` creation step under PIEglobals.
    pub fn fn_addr_to_offset(&self, addr: usize) -> usize {
        addr - self.code_base
    }

    /// Decode an offset against this rank's image base.
    pub fn offset_to_fn_addr(&self, offset: usize) -> usize {
        self.code_base + offset
    }
}

impl std::fmt::Debug for RankInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankInstance")
            .field("rank", &self.rank)
            .field("method", &self.method)
            .field("vars", &self.accesses.len())
            .field("ctx", &self.ctx)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activate_installs_tls() {
        let mut block = [0u8; 32];
        let inst = RankInstance::new(
            0,
            Method::TlsGlobals,
            HashMap::new(),
            CtxAction::SetTls(block.as_mut_ptr()),
            0,
        );
        inst.activate();
        assert_eq!(regs::tls_base(), block.as_mut_ptr());
        assert!(inst.has_ctx_work());
        regs::clear();
    }

    #[test]
    fn offsets_roundtrip() {
        let inst = RankInstance::new(3, Method::PieGlobals, HashMap::new(), CtxAction::None, 1000);
        let off = inst.fn_addr_to_offset(1456);
        assert_eq!(off, 456);
        assert_eq!(inst.offset_to_fn_addr(off), 1456);
    }

    #[test]
    #[should_panic(expected = "undefined global variable")]
    fn unknown_var_panics() {
        let inst = RankInstance::new(0, Method::Unprivatized, HashMap::new(), CtxAction::None, 0);
        let _ = inst.access("missing");
    }
}
