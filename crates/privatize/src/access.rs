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
//! * [`VarAccess::PeLevel`] — PE-register + offset, as `Tls`.
//! * [`VarAccess::Cow`] — frame-table indirection into a copy-on-write
//!   segment (CowGlobals): reads never fault (a shared page's frame is
//!   the template page); the first write to a page takes a simulated
//!   fault that privatizes it into the rank's backing store.
//!
//! Each mode's code is one [`Access`] impl. `VarAccess` picks the mode on
//! every call; [`VarAccess::with`] picks it once and runs code generic
//! over the mode, so a kernel's loop pays only the mode's own loads.

use crate::regs;
use pvr_progimage::pages::{CowVar, Word};

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
    /// A variable of the owning rank's copy-on-write data segment
    /// (CowGlobals), resolved to its frame-table entries. Its extent is
    /// kept, so taking a raw pointer can privatize every page the
    /// variable may touch.
    Cow(CowVar),
}

// SAFETY: VarAccess is a capability handed to the rank that owns the
// storage; the scheduler guarantees a rank's accesses only execute while
// the rank is active on some PE with its registers installed.
unsafe impl Send for VarAccess {}
unsafe impl Sync for VarAccess {}

/// One addressing mode with its mode decided: what a read or write of the
/// variable costs under it, and nothing more. Every per-access load is
/// volatile, so a loop pays it on every iteration, as compiled C code
/// that stores through other pointers must reload a global.
///
/// [`VarAccess`] is an `Access` too: it decides the mode on every call.
/// [`VarAccess::with`] decides it once for a whole block of code.
pub trait Access: Copy + sealed::Sealed {
    /// The variable's address under the currently installed registers.
    /// The caller may write through it: a COW variable has every page
    /// it spans privatized first.
    fn ptr(self) -> *mut u8;

    #[inline(always)]
    fn read<T: Word>(self) -> T {
        // SAFETY: `ptr` addresses the variable, laid out at its alignment.
        unsafe { (self.ptr() as *const T).read_volatile() }
    }

    #[inline(always)]
    fn write<T: Word>(self, v: T) {
        // SAFETY: as in `read`.
        unsafe { (self.ptr() as *mut T).write_volatile(v) }
    }

    /// Copy `out.len()` bytes starting at the variable.
    fn read_into(self, out: &mut [u8]) {
        // SAFETY: the caller reads within the variable's storage.
        unsafe { std::ptr::copy_nonoverlapping(self.ptr(), out.as_mut_ptr(), out.len()) };
    }

    /// Copy `bytes` to the variable.
    fn write_from(self, bytes: &[u8]) {
        // SAFETY: the caller writes within the variable's storage.
        unsafe { std::ptr::copy_nonoverlapping(bytes.as_ptr(), self.ptr(), bytes.len()) };
    }
}

mod sealed {
    pub trait Sealed {}
}

/// Code generic over the addressing mode, run by [`VarAccess::with`] with
/// the mode decided.
pub trait WithAccess {
    type Output;
    fn run<A: Access>(self, access: A) -> Self::Output;
}

/// IP-relative or absolute addressing: one load.
#[derive(Clone, Copy)]
struct Direct(*mut u8);

/// The TLS register plus an offset.
#[derive(Clone, Copy)]
struct Tls(usize);

/// The GOT register, then the slot holding the variable's address.
#[derive(Clone, Copy)]
struct Got(usize);

/// The PE-level storage register plus an offset.
#[derive(Clone, Copy)]
struct PeLevel(usize);

impl sealed::Sealed for Direct {}
impl sealed::Sealed for Tls {}
impl sealed::Sealed for Got {}
impl sealed::Sealed for PeLevel {}
impl sealed::Sealed for CowVar {}
impl sealed::Sealed for VarAccess {}

impl Access for Direct {
    #[inline(always)]
    fn ptr(self) -> *mut u8 {
        self.0
    }
}

impl Access for Tls {
    #[inline(always)]
    fn ptr(self) -> *mut u8 {
        let base = regs::tls_base();
        debug_assert!(!base.is_null(), "TLS access with no TLS base installed");
        base.wrapping_add(self.0)
    }
}

impl Access for Got {
    #[inline(always)]
    fn ptr(self) -> *mut u8 {
        let got = regs::got_base();
        debug_assert!(!got.is_null(), "GOT access with no GOT installed");
        // SAFETY: the installed GOT holds the slot (Swapglobals layout);
        // another rank's GOT may be installed between two reads.
        unsafe { got.add(self.0).read_volatile() as *mut u8 }
    }
}

impl Access for PeLevel {
    #[inline(always)]
    fn ptr(self) -> *mut u8 {
        let base = regs::pe_base();
        debug_assert!(!base.is_null(), "PE-level access with no PE base installed");
        base.wrapping_add(self.0)
    }
}

// A variable of the rank's copy-on-write segment: a frame-table load plus
// one load to read; a write to a page written this epoch adds a stamp
// check.
impl Access for CowVar {
    fn ptr(self) -> *mut u8 {
        self.writable_ptr(emit_faults)
    }

    #[inline(always)]
    fn read<T: Word>(self) -> T {
        self.load()
    }

    #[inline(always)]
    fn write<T: Word>(self, v: T) {
        self.store(v, emit_faults)
    }

    fn read_into(self, out: &mut [u8]) {
        self.read_bytes(out)
    }

    fn write_from(self, bytes: &[u8]) {
        self.write_bytes(bytes, emit_faults)
    }
}

/// `$body` with `$a` bound to `$v`'s mode: the one match on the mode.
macro_rules! with_mode {
    ($v:expr, $a:ident => $body:expr) => {
        match $v {
            VarAccess::Direct(p) => {
                let $a = Direct(p);
                $body
            }
            VarAccess::Tls { offset } => {
                let $a = Tls(offset);
                $body
            }
            VarAccess::Got { slot } => {
                let $a = Got(slot);
                $body
            }
            VarAccess::PeLevel { offset } => {
                let $a = PeLevel(offset);
                $body
            }
            VarAccess::Cow($a) => $body,
        }
    };
}

impl Access for VarAccess {
    #[inline(always)]
    fn ptr(self) -> *mut u8 {
        with_mode!(self, a => a.ptr())
    }

    #[inline(always)]
    fn read<T: Word>(self) -> T {
        with_mode!(self, a => a.read())
    }

    #[inline(always)]
    fn write<T: Word>(self, v: T) {
        with_mode!(self, a => a.write(v))
    }

    fn read_into(self, out: &mut [u8]) {
        with_mode!(self, a => a.read_into(out))
    }

    fn write_from(self, bytes: &[u8]) {
        with_mode!(self, a => a.write_from(bytes))
    }
}

impl VarAccess {
    /// Decide the addressing mode once and run `code` with it: a loop in
    /// `code` pays each access at its mode's cost, with no match on the
    /// mode per access.
    #[inline(always)]
    pub fn with<W: WithAccess>(self, code: W) -> W::Output {
        with_mode!(self, a => code.run(a))
    }

    /// The variable's address under the *currently installed* registers.
    #[inline(always)]
    pub fn ptr(&self) -> *mut u8 {
        Access::ptr(*self)
    }

    // The typed shorthands below are `Access::read`/`write` at one type,
    // callable without importing the trait; the benchmark's probes and
    // the applications use them.

    #[inline(always)]
    pub fn read_u64(&self) -> u64 {
        self.read()
    }

    #[inline(always)]
    pub fn write_u64(&self, v: u64) {
        self.write(v)
    }

    #[inline(always)]
    pub fn read_f64(&self) -> f64 {
        self.read()
    }

    #[inline(always)]
    pub fn write_f64(&self, v: f64) {
        self.write(v)
    }

    /// Read `len` bytes starting at the variable.
    pub fn read_bytes(&self, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.read_into(&mut out);
        out
    }

    pub fn write_bytes(&self, bytes: &[u8]) {
        self.write_from(bytes)
    }
}

/// The fault callback for a COW segment's writes: traces one `PageFault`
/// (the write trapped) plus one `PagePrivatized` (copy + patch of that
/// page) per newly diverged page.
pub(crate) fn emit_faults(page: u32, page_size: usize) {
    pvr_trace::emit(pvr_trace::EventKind::PageFault { page });
    pvr_trace::emit(pvr_trace::EventKind::PagePrivatized {
        page,
        bytes: page_size as u64,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvr_progimage::pages::{CowCell, CowSegment, PageTemplate};
    use std::sync::Arc;

    /// Two reads with the mode decided once, and the closure run between
    /// them.
    struct ReadTwice<F>(F);

    impl<F: FnOnce()> WithAccess for ReadTwice<F> {
        type Output = (f64, f64);
        fn run<A: Access>(self, a: A) -> (f64, f64) {
            let first = a.read();
            (self.0)();
            (first, a.read())
        }
    }

    /// `acc` read through `with`, with nothing between the two reads.
    fn with_read(acc: VarAccess) -> f64 {
        let (a, b) = acc.with(ReadTwice(|| ()));
        assert_eq!(a.to_bits(), b.to_bits());
        a
    }

    #[test]
    fn resolved_register_reads_follow_a_swap_between_reads() {
        let mut tls_a = [0.0f64, 1.5];
        let mut tls_b = [0.0f64, -2.5];
        let tls = VarAccess::Tls { offset: 8 };
        regs::set_tls_base(tls_a.as_mut_ptr() as *mut u8);
        let a = tls.read_f64();
        let pair = tls.with(ReadTwice(|| {
            regs::set_tls_base(tls_b.as_mut_ptr() as *mut u8)
        }));
        assert_eq!(pair, (a, tls.read_f64()));
        assert_eq!(pair, (1.5, -2.5));

        let (var_a, var_b) = (3.0f64, 4.0f64);
        let got_a = [&var_a as *const f64 as u64];
        let got_b = [&var_b as *const f64 as u64];
        let got = VarAccess::Got { slot: 0 };
        regs::set_got_base(got_a.as_ptr());
        let a = got.read_f64();
        let pair = got.with(ReadTwice(|| regs::set_got_base(got_b.as_ptr())));
        assert_eq!(pair, (a, got.read_f64()));
        assert_eq!(pair, (3.0, 4.0));

        let mut pe = [0.0f64, 0.0, 7.25];
        let pe_level = VarAccess::PeLevel { offset: 16 };
        regs::set_pe_base(pe.as_mut_ptr() as *mut u8);
        assert_eq!(with_read(pe_level), pe_level.read_f64());
        assert_eq!(with_read(pe_level), 7.25);
        regs::clear();
    }

    #[test]
    fn resolved_cow_reads_match_before_and_after_faults_and_across_pages() {
        const PS: usize = 64;
        let words: Vec<f64> = (0..32).map(|i| i as f64 + 0.5).collect();
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_ne_bytes()).collect();
        let tpl = Arc::new(PageTemplate::new(&bytes, PS));
        let mut backing = vec![0u64; bytes.len() / 8];
        // SAFETY: `backing` spans the template, is reached only through
        // the segment and outlives it.
        let cell = CowCell::new(unsafe { CowSegment::new(tpl, backing.as_mut_ptr() as *mut u8) });
        // SAFETY: `cell` outlives the handles; this thread alone uses it.
        let cow = |offset| VarAccess::Cow(unsafe { cell.var(offset, 8) });
        // SAFETY: nothing else holds the segment in this test.
        let faults = || unsafe { cell.segment() }.tracker().faults();

        let v = cow(8);
        assert_eq!((with_read(v), v.read_f64()), (1.5, 1.5), "shared page");
        assert_eq!(faults(), 0);
        v.write_f64(-1.0);
        assert_eq!((with_read(v), v.read_f64(), faults()), (-1.0, -1.0, 1));

        // a write between two reads faults page 1 and repoints its frame
        let w = cow(72);
        let pair = w.with(ReadTwice(|| w.write_f64(9.0)));
        assert_eq!((pair, w.read_f64(), faults()), ((9.5, 9.0), 9.0, 2));

        // 124..132 straddles pages 1 (private now) and 2 (shared)
        let s = cow(PS * 2 - 4);
        let mut want = [0u8; 8];
        want[..4].copy_from_slice(&bytes[124..128]);
        want[4..].copy_from_slice(&bytes[128..132]);
        assert_eq!(with_read(s).to_bits(), f64::from_ne_bytes(want).to_bits());
        assert_eq!(with_read(s).to_bits(), s.read_f64().to_bits());
        s.write_f64(0.25);
        assert_eq!((with_read(s), s.read_f64(), faults()), (0.25, 0.25, 3));
    }

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
        a.write(-7i32);
        assert_eq!(a.read::<i32>(), -7);
    }
}
