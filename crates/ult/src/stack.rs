//! ULT stack memory.
//!
//! Stacks are plain heap allocations with a fixed base address for their
//! whole lifetime — the property Isomalloc guarantees across migrations
//! ("same virtual address on every node"). Because every simulated node in
//! `pvr` shares one OS address space, keeping the allocation pinned (the
//! buffer is never reallocated) preserves that invariant: a suspended
//! ULT's frame pointers remain valid after the ULT is handed to another
//! scheduler.

/// Value written into every red-zone word; chosen so that plain zeroed
/// or 0xDE-scribbled memory never looks intact by accident.
pub const STACK_CANARY: u64 = 0xC0DE_CAFE_DEAD_F00D;

/// Red-zone size in 8-byte words (at the *base* — the overflow target of
/// a downward-growing stack).
pub const RED_ZONE_WORDS: usize = 8;

/// Owned, pinned stack memory for one ULT.
pub struct StackMem {
    repr: Repr,
    /// True once a red zone has been installed at the base.
    guarded: bool,
}

enum Repr {
    /// Stack memory owned by this StackMem (pinned: the box never moves).
    Owned(Box<[u64]>),
    /// Stack memory borrowed from an external pinned region — in `pvr`
    /// this is Isomalloc-managed rank memory, so that a suspended ULT's
    /// stack bytes are packed and shipped on migration like any other
    /// rank-owned memory.
    Raw { ptr: *mut u8, size: usize },
}

// SAFETY: the Raw variant's pointee is required (by `from_raw`'s contract)
// to be valid for the StackMem's lifetime and exclusively used by it; the
// Owned variant is plain owned memory.
unsafe impl Send for StackMem {}

impl StackMem {
    /// Allocate a zeroed stack of at least `size` bytes (rounded up to a
    /// multiple of 8; a minimum of 4 KiB is enforced so the bootstrap
    /// frame and Rust prologue always fit).
    pub fn new(size: usize) -> StackMem {
        let size = size.max(4096);
        let words = size.div_ceil(8);
        StackMem {
            repr: Repr::Owned(vec![0u64; words].into_boxed_slice()),
            guarded: false,
        }
    }

    /// Wrap an externally owned pinned region as stack memory. The usable
    /// size is `size` rounded *down* to a multiple of 8 (the rounding is
    /// explicit here, once, so `size()` and `top()` always agree).
    ///
    /// # Safety
    ///
    /// * `ptr` must be valid for reads and writes of `size` bytes for the
    ///   entire lifetime of the returned `StackMem` (and of any `Ult` built
    ///   on it), must be 8-byte aligned, and must not be accessed by
    ///   anything else while the ULT can run.
    /// * `size` must be at least 4096.
    pub unsafe fn from_raw(ptr: *mut u8, size: usize) -> StackMem {
        assert!(size >= 4096, "stack region too small");
        assert_eq!(ptr as usize % 8, 0, "stack region must be 8-byte aligned");
        StackMem {
            repr: Repr::Raw {
                ptr,
                size: size & !7,
            },
            guarded: false,
        }
    }

    /// Highest address of the stack (stacks grow downward from here).
    pub fn top(&self) -> *mut u8 {
        unsafe { (self.base() as *mut u8).add(self.size()) }
    }

    /// Lowest address of the stack.
    pub fn base(&self) -> *const u8 {
        match &self.repr {
            Repr::Owned(buf) => buf.as_ptr() as *const u8,
            Repr::Raw { ptr, .. } => *ptr,
        }
    }

    /// Usable size in bytes.
    pub fn size(&self) -> usize {
        match &self.repr {
            Repr::Owned(buf) => buf.len() * 8,
            Repr::Raw { size, .. } => *size,
        }
    }

    /// Write canary words over the `RED_ZONE_WORDS` words at the stack
    /// base — the first memory a downward-growing stack overflows into.
    /// Idempotent; checked by [`red_zone_intact`](Self::red_zone_intact).
    pub fn install_red_zone(&mut self) {
        let base = self.base() as *mut u64;
        for i in 0..RED_ZONE_WORDS.min(self.size() / 8) {
            unsafe { base.add(i).write(STACK_CANARY) };
        }
        self.guarded = true;
    }

    /// Whether a red zone has been installed.
    pub fn is_guarded(&self) -> bool {
        self.guarded
    }

    /// True when every canary word is still in place (vacuously true on
    /// an unguarded stack). A clobbered canary means the ULT's frames
    /// reached the base of the stack: overflow.
    pub fn red_zone_intact(&self) -> bool {
        if !self.guarded {
            return true;
        }
        let base = self.base() as *const u64;
        (0..RED_ZONE_WORDS.min(self.size() / 8))
            .all(|i| unsafe { base.add(i).read() } == STACK_CANARY)
    }
}

impl std::fmt::Debug for StackMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StackMem")
            .field("size", &self.size())
            .field("base", &self.base())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes of `s` that have ever been written (non-zero high-water
    /// heuristic): scans from the low end for the first non-zero word,
    /// skipping the red zone when one is installed (canaries are guard
    /// metadata, not use).
    fn high_water_bytes(s: &StackMem) -> usize {
        let words = s.size() / 8;
        let first = if s.guarded { RED_ZONE_WORDS } else { 0 };
        let base = s.base() as *const u64;
        for i in first..words {
            if unsafe { base.add(i).read() } != 0 {
                return (words - i) * 8;
            }
        }
        0
    }

    #[test]
    fn minimum_size_enforced() {
        let s = StackMem::new(16);
        assert!(s.size() >= 4096);
    }

    #[test]
    fn top_is_base_plus_size() {
        let s = StackMem::new(8192);
        assert_eq!(s.top() as usize, s.base() as usize + s.size());
    }

    #[test]
    fn alignment() {
        let s = StackMem::new(8192);
        assert_eq!(s.base() as usize % 8, 0);
    }

    #[test]
    fn high_water_zero_when_untouched() {
        let s = StackMem::new(8192);
        assert_eq!(high_water_bytes(&s), 0);
    }

    #[test]
    fn from_raw_rounds_unaligned_sizes_down_consistently() {
        let mut buf = vec![0u64; 8192 / 8 + 1].into_boxed_slice();
        // 8195 is not a multiple of 8: usable size must round down to
        // 8192 and top() must agree with it.
        let s = unsafe { StackMem::from_raw(buf.as_mut_ptr() as *mut u8, 8195) };
        assert_eq!(s.size(), 8192);
        assert_eq!(s.top() as usize, s.base() as usize + 8192);
        assert_eq!(s.top() as usize % 8, 0);
    }

    #[test]
    fn red_zone_detects_overflow_scribble() {
        let mut s = StackMem::new(8192);
        assert!(!s.is_guarded());
        assert!(s.red_zone_intact(), "unguarded stack is vacuously intact");
        s.install_red_zone();
        assert!(s.is_guarded());
        assert!(s.red_zone_intact());
        // canaries are not "use": high-water must ignore them
        assert_eq!(high_water_bytes(&s), 0);
        // simulate a frame running past the base
        unsafe { (s.base() as *mut u64).add(2).write(0xDEAD) };
        assert!(!s.red_zone_intact());
    }

    #[test]
    fn raw_region_backs_a_stack() {
        let mut buf = vec![0u64; 8192 / 8].into_boxed_slice();
        let s = unsafe { StackMem::from_raw(buf.as_mut_ptr() as *mut u8, 8192) };
        assert_eq!(s.size(), 8192);
        assert_eq!(s.base() as usize, buf.as_ptr() as usize);
        // a ULT actually runs on it
        let mut u = crate::Ult::with_backend(crate::Backend::native(), s, || {
            crate::yield_now();
        });
        assert_eq!(u.resume(), crate::UltState::Suspended);
        assert_eq!(u.resume(), crate::UltState::Complete);
        // the region was really used as the execution stack
        let s2 = unsafe { StackMem::from_raw(buf.as_mut_ptr() as *mut u8, 8192) };
        assert!(high_water_bytes(&s2) > 0 || cfg!(not(target_arch = "x86_64")));
    }
}
