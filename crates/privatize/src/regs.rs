//! Per-PE "privatization registers".
//!
//! On real hardware, TLSglobals swaps the TLS segment register (`%fs` on
//! x86-64) at each ULT context switch, and Swapglobals swaps the active
//! GOT pointer. Each PE (scheduler OS thread) has exactly one of each in
//! flight at a time. We model both registers as thread-locals: reading
//! them costs one real indirection, exactly the overhead the paper's
//! Fig. 7 looks for in privatized variable accesses, and writing them at
//! context-switch time is the real work Fig. 6 measures for TLSglobals
//! and PIEglobals. A read is volatile: like a `%fs`-relative access, a
//! loop pays it on every iteration.

use std::cell::Cell;

thread_local! {
    static TLS_BASE: Cell<*mut u8> = const { Cell::new(std::ptr::null_mut()) };
    static GOT_BASE: Cell<*const u64> = const { Cell::new(std::ptr::null()) };
    static PE_BASE: Cell<*mut u8> = const { Cell::new(std::ptr::null_mut()) };
}

/// Install the current rank's TLS block (TLSglobals/PIEglobals context
/// switch work).
#[inline]
pub fn set_tls_base(p: *mut u8) {
    TLS_BASE.with(|c| c.set(p));
}

/// Read the active TLS base (the extra indirection on every TLS-privatized
/// variable access).
#[inline(always)]
pub fn tls_base() -> *mut u8 {
    // SAFETY: the cell is this thread's and no reference to its value exists.
    TLS_BASE.with(|c| unsafe { c.as_ptr().read_volatile() })
}

/// Install the current rank's GOT (Swapglobals context switch work).
#[inline]
pub fn set_got_base(p: *const u64) {
    GOT_BASE.with(|c| c.set(p));
}

/// Read the active GOT base.
#[inline(always)]
pub fn got_base() -> *const u64 {
    // SAFETY: as in `tls_base`.
    GOT_BASE.with(|c| unsafe { c.as_ptr().read_volatile() })
}

/// Install the current PE's hierarchical-local-storage block (MPC's
/// HLS, Tchiboukdjian et al. \[21\]: data privatized per *core* rather
/// than per ULT to cut memory overhead).
#[inline]
pub fn set_pe_base(p: *mut u8) {
    PE_BASE.with(|c| c.set(p));
}

/// Read the active PE-level storage base.
#[inline(always)]
pub fn pe_base() -> *mut u8 {
    // SAFETY: as in `tls_base`.
    PE_BASE.with(|c| unsafe { c.as_ptr().read_volatile() })
}

/// Clear all registers (PE going idle / tests).
pub fn clear() {
    set_tls_base(std::ptr::null_mut());
    set_got_base(std::ptr::null());
    set_pe_base(std::ptr::null_mut());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_are_per_thread() {
        let mut x: u8 = 0;
        set_tls_base(&mut x);
        let other = std::thread::spawn(|| tls_base() as usize).join().unwrap();
        assert_eq!(other, 0, "fresh thread sees null register");
        assert_eq!(tls_base(), &mut x as *mut u8);
        clear();
        assert!(tls_base().is_null());
    }
}
