//! Variable access paths.
//!
//! Application code never touches Rust `static`s for program state; it
//! resolves each declared global once per rank into a [`VarAccess`] and
//! reads/writes through it. The variants reproduce the addressing modes
//! of the real methods:
//!
//! * [`VarAccess::Direct`] — IP-relative / absolute addressing: one load.
//!   Used by unprivatized code and by PIP/FS/PIEglobals (whose privatized
//!   data segments are reached directly — "the cost of accessing global
//!   data should be the same as in the unprivatized code").
//! * [`VarAccess::Tls`] — TLS-register + offset: one extra indirection
//!   (the `-mno-tls-direct-seg-refs` access path of TLSglobals).
//! * [`VarAccess::Got`] — load the GOT slot, then the variable: the
//!   Swapglobals path (and classic `-fPIC` global addressing).
//! * [`VarAccess::Cow`] — page-table indirection into a copy-on-write
//!   segment (CowGlobals): reads never fault (shared pages resolve to
//!   the template); the first write to a page takes a simulated fault
//!   that privatizes it into the rank's backing store.

use crate::regs;
use pvr_progimage::pages::CowCell;

/// A resolved access path for one variable, for one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarAccess {
    /// Direct pointer to the (possibly per-rank) storage.
    Direct(*mut u8),
    /// `tls_base() + offset`.
    Tls { offset: usize },
    /// `*(got_base() + slot)` yields the variable's address.
    Got { slot: usize },
    /// `pe_base() + offset` — hierarchical local storage at PE level
    /// (MPC's HLS \[21\]): one copy per scheduler core, shared by the
    /// ranks co-resident on it.
    PeLevel { offset: usize },
    /// `offset` into the owning rank's copy-on-write data segment
    /// (CowGlobals). `len` is the variable's extent, so taking a raw
    /// pointer can privatize every page the variable may touch.
    Cow {
        cell: *const CowCell,
        offset: usize,
        len: usize,
    },
}

// SAFETY: VarAccess is a capability handed to the rank that owns the
// storage; the scheduler guarantees a rank's accesses only execute while
// the rank is active on some PE with its registers installed.
unsafe impl Send for VarAccess {}
unsafe impl Sync for VarAccess {}

impl VarAccess {
    /// The variable's address under the *currently installed* registers.
    #[inline(always)]
    pub fn ptr(&self) -> *mut u8 {
        match *self {
            VarAccess::Direct(p) => p,
            VarAccess::Tls { offset } => {
                let base = regs::tls_base();
                debug_assert!(!base.is_null(), "TLS access with no TLS base installed");
                unsafe { base.add(offset) }
            }
            VarAccess::Got { slot } => {
                let got = regs::got_base();
                debug_assert!(!got.is_null(), "GOT access with no GOT installed");
                unsafe { *got.add(slot) as *mut u8 }
            }
            VarAccess::PeLevel { offset } => {
                let base = regs::pe_base();
                debug_assert!(!base.is_null(), "PE-level access with no PE base installed");
                unsafe { base.add(offset) }
            }
            VarAccess::Cow { cell, offset, len } => {
                // Handing out a raw pointer implies the caller may write
                // anywhere in the variable: privatize its whole extent.
                // SAFETY: rank-exclusive execution (CowCell contract).
                let seg = unsafe { (*cell).segment() };
                let (p, faulted) = seg.writable_ptr(offset, len);
                emit_faults(&faulted, seg.page_size());
                p
            }
        }
    }

    /// Copy-on-write fast read: shared pages resolve to the template
    /// without faulting. `None` for non-COW accesses.
    #[inline(always)]
    fn cow_read(&self, out: &mut [u8]) -> bool {
        if let VarAccess::Cow { cell, offset, .. } = *self {
            // SAFETY: rank-exclusive execution (CowCell contract).
            unsafe { (*cell).segment() }.read(offset, out);
            true
        } else {
            false
        }
    }

    /// Copy-on-write write through the simulated fault handler.
    #[inline(always)]
    fn cow_write(&self, bytes: &[u8]) -> bool {
        if let VarAccess::Cow { cell, offset, .. } = *self {
            // SAFETY: rank-exclusive execution (CowCell contract).
            let seg = unsafe { (*cell).segment() };
            let faulted = seg.write(offset, bytes);
            emit_faults(&faulted, seg.page_size());
            true
        } else {
            false
        }
    }

    #[inline(always)]
    pub fn read_u64(&self) -> u64 {
        let mut buf = [0u8; 8];
        if self.cow_read(&mut buf) {
            return u64::from_ne_bytes(buf);
        }
        unsafe { (self.ptr() as *const u64).read() }
    }

    #[inline(always)]
    pub fn write_u64(&self, v: u64) {
        if self.cow_write(&v.to_ne_bytes()) {
            return;
        }
        unsafe { (self.ptr() as *mut u64).write(v) }
    }

    #[inline(always)]
    pub fn read_i32(&self) -> i32 {
        let mut buf = [0u8; 4];
        if self.cow_read(&mut buf) {
            return i32::from_ne_bytes(buf);
        }
        unsafe { (self.ptr() as *const i32).read() }
    }

    #[inline(always)]
    pub fn write_i32(&self, v: i32) {
        if self.cow_write(&v.to_ne_bytes()) {
            return;
        }
        unsafe { (self.ptr() as *mut i32).write(v) }
    }

    #[inline(always)]
    pub fn read_f64(&self) -> f64 {
        let mut buf = [0u8; 8];
        if self.cow_read(&mut buf) {
            return f64::from_ne_bytes(buf);
        }
        unsafe { (self.ptr() as *const f64).read() }
    }

    #[inline(always)]
    pub fn write_f64(&self, v: f64) {
        if self.cow_write(&v.to_ne_bytes()) {
            return;
        }
        unsafe { (self.ptr() as *mut f64).write(v) }
    }

    /// Read `len` bytes starting at the variable.
    pub fn read_bytes(&self, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        if self.cow_read(&mut out) {
            return out;
        }
        unsafe { std::ptr::copy_nonoverlapping(self.ptr(), out.as_mut_ptr(), len) };
        out
    }

    pub fn write_bytes(&self, bytes: &[u8]) {
        if self.cow_write(bytes) {
            return;
        }
        unsafe { std::ptr::copy_nonoverlapping(bytes.as_ptr(), self.ptr(), bytes.len()) };
    }
}

/// Trace the simulated faults a COW write took: one `PageFault` (the
/// write trapped) plus one `PagePrivatized` (copy + patch of that page)
/// per newly diverged page.
#[inline]
pub(crate) fn emit_faults(faulted: &[u32], page_size: usize) {
    for &page in faulted {
        pvr_trace::emit(pvr_trace::EventKind::PageFault { page });
        pvr_trace::emit(pvr_trace::EventKind::PagePrivatized {
            page,
            bytes: page_size as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_reads_and_writes() {
        let mut v: u64 = 0;
        let a = VarAccess::Direct(&mut v as *mut u64 as *mut u8);
        a.write_u64(77);
        assert_eq!(a.read_u64(), 77);
        assert_eq!(v, 77);
    }

    #[test]
    fn tls_indirection_follows_register() {
        let mut block_a = [0u8; 64];
        let mut block_b = [0u8; 64];
        let a = VarAccess::Tls { offset: 8 };
        regs::set_tls_base(block_a.as_mut_ptr());
        a.write_u64(111);
        regs::set_tls_base(block_b.as_mut_ptr());
        a.write_u64(222);
        regs::set_tls_base(block_a.as_mut_ptr());
        assert_eq!(a.read_u64(), 111);
        regs::set_tls_base(block_b.as_mut_ptr());
        assert_eq!(a.read_u64(), 222);
        regs::clear();
    }

    #[test]
    fn got_indirection_follows_register() {
        let mut var_a: u64 = 0;
        let mut var_b: u64 = 0;
        let got_a = [&mut var_a as *mut u64 as u64];
        let got_b = [&mut var_b as *mut u64 as u64];
        let acc = VarAccess::Got { slot: 0 };
        regs::set_got_base(got_a.as_ptr());
        acc.write_u64(5);
        regs::set_got_base(got_b.as_ptr());
        acc.write_u64(6);
        assert_eq!(var_a, 5);
        assert_eq!(var_b, 6);
        regs::clear();
    }

    #[test]
    fn byte_level_access() {
        let mut buf = [0u8; 16];
        let a = VarAccess::Direct(buf.as_mut_ptr());
        a.write_bytes(&[1, 2, 3, 4]);
        assert_eq!(a.read_bytes(4), vec![1, 2, 3, 4]);
    }

    #[test]
    fn f64_and_i32_views() {
        let mut buf = [0u8; 8];
        let a = VarAccess::Direct(buf.as_mut_ptr());
        a.write_f64(2.5);
        assert_eq!(a.read_f64(), 2.5);
        a.write_i32(-7);
        assert_eq!(a.read_i32(), -7);
    }
}
