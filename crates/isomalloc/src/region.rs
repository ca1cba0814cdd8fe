//! Pinned, tagged memory regions — the unit of rank-owned memory.

use std::fmt;
use std::ops::Range;

/// Granularity at which a region's live extent is cut outward before it
/// is stored in an image or diffed: the checkpoint diff page.
pub(crate) const GRID: usize = 4096;

/// What a region holds; used by migration accounting and by the
/// privatization methods to decide what must travel with a rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// A chunk of the rank's user heap (managed by [`crate::Arena`]).
    HeapChunk,
    /// The rank's user-level thread stack.
    Stack,
    /// The rank's private TLS segment copy (TLSglobals / PIEglobals).
    TlsSegment,
    /// A private copy of the program's code segment (PIEglobals).
    CodeSegment,
    /// A private copy of the program's data segment (PIEglobals, and the
    /// namespace copies made by PIPglobals/FSglobals — those are *not*
    /// rank memory and hence not migratable; see `pvr-privatize`).
    DataSegment,
}

/// A pinned allocation: the base address is stable for the whole lifetime
/// of the `Region` (the backing `Box` is never reallocated), which is the
/// in-process equivalent of Isomalloc's reserved virtual-address ranges.
pub struct Region {
    buf: Box<[u8]>,
    kind: RegionKind,
    /// See [`Region::live`].
    live: (usize, usize),
}

impl Region {
    /// Allocate a zeroed pinned region.
    pub fn new_zeroed(kind: RegionKind, size: usize) -> Region {
        Region {
            buf: vec![0u8; size].into_boxed_slice(),
            kind,
            live: (0, size),
        }
    }

    /// Allocate a region initialized with a copy of `bytes` (used when a
    /// privatization method duplicates a program segment for a rank).
    pub fn from_bytes(kind: RegionKind, bytes: &[u8]) -> Region {
        Region {
            buf: bytes.to_vec().into_boxed_slice(),
            kind,
            live: (0, bytes.len()),
        }
    }

    pub fn kind(&self) -> RegionKind {
        self.kind
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The live extent: the byte range that may differ from a zeroed
    /// region's initial fill. Images store, diff and restore only this
    /// range (cut outward to the 4 KiB diff grid); everything outside it
    /// is zero by construction or is not rank state (dead stack). A new
    /// region is live as a whole; whoever knows better narrows it — the
    /// arena keeps a chunk's at its allocation high-water mark, the
    /// runtime a stack's at the suspended stack pointer.
    pub fn live(&self) -> Range<usize> {
        self.live.0..self.live.1
    }

    /// Declare the live extent (see [`Region::live`]).
    ///
    /// # Panics
    ///
    /// Panics unless `live.start <= live.end <= self.len()`.
    pub fn set_live(&mut self, live: Range<usize>) {
        assert!(
            live.start <= live.end && live.end <= self.len(),
            "live extent {live:?} outside a {}-byte region",
            self.len()
        );
        // one spelling of "nothing live", so no caller has to test for it
        self.live = if live.is_empty() { (0, 0) } else { (live.start, live.end) };
    }

    /// [`Region::live`] cut outward to [`GRID`] (clamped to the region):
    /// the range an image stores.
    pub(crate) fn stored(&self) -> Range<usize> {
        let (lo, hi) = self.live;
        let (lo, hi) = (lo / GRID * GRID, self.len().min(hi.div_ceil(GRID) * GRID));
        if mutant!(ExtentShortLo) {
            return (lo + GRID).min(hi)..hi;
        }
        if mutant!(ExtentShortHi) {
            return lo..hi.saturating_sub(GRID).max(lo);
        }
        lo..hi
    }

    /// Stable base address.
    pub fn base(&self) -> *const u8 {
        self.buf.as_ptr()
    }

    /// Stable mutable base address.
    ///
    /// Note: this takes `&self` and returns a raw pointer on purpose — the
    /// region is shared mutable state between a suspended ULT (whose stack
    /// frames live inside it) and the runtime; all real aliasing discipline
    /// is enforced by the scheduler (a rank's memory is only touched while
    /// the rank is not running).
    pub fn base_mut(&self) -> *mut u8 {
        self.buf.as_ptr() as *mut u8
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.buf
    }

    /// Whether `addr` points inside this region.
    pub fn contains(&self, addr: usize) -> bool {
        let base = self.base() as usize;
        addr >= base && addr < base + self.len()
    }
}

impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Region")
            .field("kind", &self.kind)
            .field("base", &self.base())
            .field("len", &self.len())
            .field("live", &self.live())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_is_stable_across_moves() {
        let r = Region::new_zeroed(RegionKind::HeapChunk, 4096);
        let base = r.base() as usize;
        let moved = r; // move the Region value
        assert_eq!(moved.base() as usize, base);
        let boxed = Box::new(moved);
        assert_eq!(boxed.base() as usize, base);
    }

    #[test]
    fn from_bytes_copies() {
        let src = vec![7u8; 128];
        let r = Region::from_bytes(RegionKind::CodeSegment, &src);
        assert_eq!(r.as_slice(), &src[..]);
        assert_ne!(r.base(), src.as_ptr());
    }

    #[test]
    fn live_extent_defaults_to_whole_and_is_cut_outward_to_the_grid() {
        let mut r = Region::new_zeroed(RegionKind::Stack, 3 * GRID + 100);
        assert_eq!((r.live(), r.stored()), (0..r.len(), 0..r.len()));
        r.set_live(GRID + 1..2 * GRID);
        assert_eq!(r.stored(), GRID..2 * GRID);
        r.set_live(GRID - 1..2 * GRID + 1);
        assert_eq!(r.stored(), 0..3 * GRID);
        r.set_live(3 * GRID + 5..3 * GRID + 6);
        assert_eq!(r.stored(), 3 * GRID..r.len(), "clamped to the region");
        r.set_live(700..700);
        assert_eq!((r.live(), r.stored()), (0..0, 0..0), "empty stays empty");
        let whole = Region::from_bytes(RegionKind::TlsSegment, &[1, 2, 3]);
        assert_eq!(whole.stored(), 0..3);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn live_extent_past_the_region_rejected() {
        Region::new_zeroed(RegionKind::Stack, 64).set_live(0..65);
    }

    #[test]
    fn contains_bounds() {
        let r = Region::new_zeroed(RegionKind::Stack, 64);
        let b = r.base() as usize;
        assert!(r.contains(b));
        assert!(r.contains(b + 63));
        assert!(!r.contains(b + 64));
        assert!(!r.contains(b.wrapping_sub(1)));
    }
}
