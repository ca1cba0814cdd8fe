//! First-fit arena allocator over pinned chunks.
//!
//! Each virtual rank's user heap is an `Arena`. Chunks are [`Region`]s
//! (pinned), so every pointer handed out stays valid for the rank's
//! lifetime — including across migration, because migration transfers the
//! chunks themselves (see [`crate::RankMemory`]).

use crate::region::{Region, RegionKind};
use std::fmt;

/// A pointer into arena-owned memory, with its allocation size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IsoPtr {
    pub ptr: *mut u8,
    pub size: usize,
}

impl IsoPtr {
    pub fn addr(&self) -> usize {
        self.ptr as usize
    }

    /// View the allocation as a byte slice.
    ///
    /// # Safety
    ///
    /// Caller must ensure no aliasing mutable access exists.
    pub unsafe fn as_slice<'a>(&self) -> &'a [u8] {
        std::slice::from_raw_parts(self.ptr, self.size)
    }

    /// View the allocation as a mutable byte slice.
    ///
    /// # Safety
    ///
    /// Caller must ensure exclusive access.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn as_mut_slice<'a>(&self) -> &'a mut [u8] {
        std::slice::from_raw_parts_mut(self.ptr, self.size)
    }
}

/// Why an allocation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// A configured capacity limit would be exceeded (failure-injection
    /// hook; real Isomalloc fails when its reserved VA slice is full).
    CapacityExceeded { requested: usize, limit: usize },
    /// Zero-size allocation.
    ZeroSize,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::CapacityExceeded { requested, limit } => write!(
                f,
                "isomalloc capacity exceeded: requested {requested} B, limit {limit} B"
            ),
            AllocError::ZeroSize => write!(f, "zero-size allocation"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Byte written over every freed allocation while the arena guard is on.
/// Chosen distinct from zeroed memory, the 0xDE fault-injection scribble,
/// and common small integers, so stale reads are loud.
pub const POISON: u8 = 0xF5;

/// A memory-safety violation detected by the arena guard (see
/// [`Arena::set_guard`]). Unlike the corresponding C bugs, these are
/// ordinary values a runtime can attribute to a rank and surface cleanly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuardViolation {
    /// The range being freed overlaps a block already on the free list.
    DoubleFree { addr: usize, size: usize },
    /// The pointer does not belong to any chunk of this arena.
    ForeignPointer { addr: usize },
    /// A poisoned (freed) byte was overwritten before the memory was
    /// ever reallocated: something wrote through a stale pointer.
    UseAfterFree {
        /// Base address of the freed allocation.
        addr: usize,
        /// Offset of the first clobbered byte within it.
        offset: usize,
    },
}

impl fmt::Display for GuardViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardViolation::DoubleFree { addr, size } => {
                write!(f, "double free of {size} B at {addr:#x}")
            }
            GuardViolation::ForeignPointer { addr } => {
                write!(f, "free of {addr:#x}, which does not belong to this arena")
            }
            GuardViolation::UseAfterFree { addr, offset } => write!(
                f,
                "use-after-free: freed allocation at {addr:#x} written at offset {offset}"
            ),
        }
    }
}

impl std::error::Error for GuardViolation {}

/// Allocation statistics for one arena.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Bytes currently handed out to live allocations.
    pub live_bytes: usize,
    /// Total bytes of backing chunks.
    pub capacity_bytes: usize,
    /// Number of live allocations.
    pub live_allocs: usize,
    /// Total allocations ever made.
    pub total_allocs: u64,
    /// Number of chunks.
    pub chunks: usize,
}

#[derive(Debug, Clone, Copy)]
struct FreeBlock {
    offset: usize,
    size: usize,
}

struct Chunk {
    region: Region,
    /// Sorted-by-offset free list; adjacent blocks are coalesced.
    free: Vec<FreeBlock>,
}

impl Chunk {
    fn new(size: usize) -> Chunk {
        let mut region = Region::new_zeroed(RegionKind::HeapChunk, size);
        // nothing handed out yet, nothing written: `try_alloc` raises the
        // live extent to the allocation high-water mark
        region.set_live(0..0);
        Chunk {
            region,
            free: vec![FreeBlock {
                offset: 0,
                size,
            }],
        }
    }

    fn try_alloc(&mut self, size: usize, align: usize) -> Option<*mut u8> {
        let base = self.region.base() as usize;
        for i in 0..self.free.len() {
            let blk = self.free[i];
            let start = base + blk.offset;
            let aligned = (start + align - 1) & !(align - 1);
            let pad = aligned - start;
            if blk.size >= pad + size {
                // carve [pad, pad+size) out of the block
                let remaining_front = pad;
                let remaining_back = blk.size - pad - size;
                let back_offset = blk.offset + pad + size;
                // replace block i
                if remaining_front > 0 && remaining_back > 0 {
                    self.free[i] = FreeBlock {
                        offset: blk.offset,
                        size: remaining_front,
                    };
                    self.free.insert(
                        i + 1,
                        FreeBlock {
                            offset: back_offset,
                            size: remaining_back,
                        },
                    );
                } else if remaining_front > 0 {
                    self.free[i] = FreeBlock {
                        offset: blk.offset,
                        size: remaining_front,
                    };
                } else if remaining_back > 0 {
                    self.free[i] = FreeBlock {
                        offset: back_offset,
                        size: remaining_back,
                    };
                } else {
                    self.free.remove(i);
                }
                // bytes past every allocation ever made are still the
                // zeros the chunk was born with: images leave them out
                if back_offset > self.region.live().end && !(mutant!(AlignedAllocNotRaised) && pad == 0) {
                    self.region.set_live(0..back_offset);
                }
                return Some(aligned as *mut u8);
            }
        }
        None
    }

    fn free(&mut self, offset: usize, size: usize) {
        // insert sorted and coalesce with neighbours
        let pos = self
            .free
            .partition_point(|b| b.offset < offset);
        self.free.insert(pos, FreeBlock { offset, size });
        // coalesce backwards
        if pos > 0 && self.free[pos - 1].offset + self.free[pos - 1].size == offset {
            self.free[pos - 1].size += size;
            self.free.remove(pos);
            self.coalesce_forward(pos - 1);
        } else {
            self.coalesce_forward(pos);
        }
    }

    fn coalesce_forward(&mut self, i: usize) {
        if i + 1 < self.free.len()
            && self.free[i].offset + self.free[i].size == self.free[i + 1].offset
        {
            self.free[i].size += self.free[i + 1].size;
            self.free.remove(i + 1);
        }
    }

    fn free_bytes(&self) -> usize {
        self.free.iter().map(|b| b.size).sum()
    }
}

/// Default chunk granularity: 1 MiB, like Isomalloc's slot granularity.
pub const DEFAULT_CHUNK_SIZE: usize = 1 << 20;

/// A growable heap arena built from pinned chunks.
pub struct Arena {
    chunks: Vec<Chunk>,
    chunk_size: usize,
    /// Optional total-capacity limit for failure injection.
    limit: Option<usize>,
    stats: ArenaStats,
    /// Poison-on-free + double-free/use-after-free detection.
    guard: bool,
    /// Freed-and-poisoned ranges `(addr, size)` not yet reallocated;
    /// audited for stale writes by [`Arena::audit_quarantine`].
    quarantine: Vec<(usize, usize)>,
}

impl Arena {
    pub fn new() -> Arena {
        Arena::with_chunk_size(DEFAULT_CHUNK_SIZE)
    }

    pub fn with_chunk_size(chunk_size: usize) -> Arena {
        assert!(chunk_size >= 4096, "chunk size too small");
        Arena {
            chunks: Vec::new(),
            chunk_size,
            limit: None,
            stats: ArenaStats::default(),
            guard: false,
            quarantine: Vec::new(),
        }
    }

    /// Impose a total-capacity limit (failure-injection hook used by the
    /// test suite; models exhaustion of the reserved VA slice).
    pub fn set_limit(&mut self, limit: Option<usize>) {
        self.limit = limit;
    }

    /// Enable the memory-safety guard: frees poison their bytes with
    /// [`POISON`] and enter a quarantine that detects use-after-free
    /// writes ([`Arena::audit_quarantine`]); double frees and foreign
    /// pointers come back as [`GuardViolation`]s from
    /// [`Arena::try_dealloc`] instead of silent free-list corruption.
    /// Costs one memset per free and one scan per audit.
    pub fn set_guard(&mut self, on: bool) {
        self.guard = on;
        if !on {
            self.quarantine.clear();
        }
    }

    pub fn guard_enabled(&self) -> bool {
        self.guard
    }

    /// Allocate `size` bytes with `align` alignment (power of two).
    pub fn alloc(&mut self, size: usize, align: usize) -> Result<IsoPtr, AllocError> {
        if size == 0 {
            return Err(AllocError::ZeroSize);
        }
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        for chunk in &mut self.chunks {
            if let Some(ptr) = chunk.try_alloc(size, align) {
                self.stats.live_bytes += size;
                self.stats.live_allocs += 1;
                self.stats.total_allocs += 1;
                self.release_from_quarantine(ptr as usize, size);
                return Ok(IsoPtr { ptr, size });
            }
        }
        // need a new chunk
        let new_chunk_size = self.chunk_size.max(size + align);
        if let Some(limit) = self.limit {
            if self.stats.capacity_bytes + new_chunk_size > limit {
                return Err(AllocError::CapacityExceeded {
                    requested: size,
                    limit,
                });
            }
        }
        let mut chunk = Chunk::new(new_chunk_size);
        let ptr = chunk
            .try_alloc(size, align)
            .expect("fresh chunk must satisfy its sizing allocation");
        self.stats.capacity_bytes += new_chunk_size;
        self.stats.live_bytes += size;
        self.stats.live_allocs += 1;
        self.stats.total_allocs += 1;
        self.chunks.push(chunk);
        Ok(IsoPtr { ptr, size })
    }

    /// Convenience: allocate a zeroed `[T]` slice and return a raw slice
    /// pointer into arena memory (valid until `dealloc` or arena drop).
    pub fn alloc_zeroed_slice<T: Copy + Default>(
        &mut self,
        len: usize,
    ) -> Result<*mut T, AllocError> {
        let p = self.alloc(len * std::mem::size_of::<T>(), std::mem::align_of::<T>())?;
        Ok(p.ptr as *mut T)
    }

    /// Return an allocation to the arena.
    ///
    /// # Panics
    ///
    /// Panics if `p` was not allocated from this arena or was already
    /// freed. Use [`Arena::try_dealloc`] to get the violation as a value
    /// instead (the rts guard path does, so it can name the rank).
    pub fn dealloc(&mut self, p: IsoPtr) {
        match self.try_dealloc(p) {
            Ok(()) => {}
            Err(GuardViolation::ForeignPointer { .. }) => {
                panic!("IsoPtr does not belong to this arena")
            }
            Err(GuardViolation::DoubleFree { .. }) => {
                panic!("double free or overlapping free in isomalloc arena")
            }
            Err(v) => panic!("{v}"),
        }
    }

    /// Return an allocation to the arena, reporting double frees and
    /// foreign pointers as values. With the guard on, the freed bytes
    /// are poisoned and quarantined for later stale-write audits.
    pub fn try_dealloc(&mut self, p: IsoPtr) -> Result<(), GuardViolation> {
        let addr = p.ptr as usize;
        for chunk in &mut self.chunks {
            let base = chunk.region.base() as usize;
            if addr >= base && addr + p.size <= base + chunk.region.len() {
                let offset = addr - base;
                for b in &chunk.free {
                    if offset + p.size > b.offset && offset < b.offset + b.size {
                        return Err(GuardViolation::DoubleFree { addr, size: p.size });
                    }
                }
                chunk.free(offset, p.size);
                self.stats.live_bytes -= p.size;
                self.stats.live_allocs -= 1;
                if self.guard {
                    unsafe { std::ptr::write_bytes(p.ptr, POISON, p.size) };
                    self.quarantine.push((addr, p.size));
                }
                return Ok(());
            }
        }
        Err(GuardViolation::ForeignPointer { addr })
    }

    /// Verify that no quarantined (freed, poisoned, never-reallocated)
    /// byte has been overwritten — i.e. nothing wrote through a stale
    /// pointer since the free. Cheap enough to run at barriers.
    pub fn audit_quarantine(&self) -> Result<(), GuardViolation> {
        for &(addr, size) in &self.quarantine {
            let bytes = unsafe { std::slice::from_raw_parts(addr as *const u8, size) };
            if let Some(offset) = bytes.iter().position(|&b| b != POISON) {
                return Err(GuardViolation::UseAfterFree { addr, offset });
            }
        }
        Ok(())
    }

    /// Quarantined ranges currently tracked (guard diagnostics).
    pub fn quarantine_len(&self) -> usize {
        self.quarantine.len()
    }

    /// An allocation reused space: drop the overlapping quarantine
    /// coverage and hand the bytes back zeroed (they hold poison, and
    /// callers are promised zeroed fresh memory).
    fn release_from_quarantine(&mut self, addr: usize, size: usize) {
        if !self.guard || self.quarantine.is_empty() {
            return;
        }
        let (a0, a1) = (addr, addr + size);
        let mut overlapped = false;
        let mut next = Vec::with_capacity(self.quarantine.len());
        for &(e_addr, e_size) in &self.quarantine {
            let (e0, e1) = (e_addr, e_addr + e_size);
            if e0 >= a1 || e1 <= a0 {
                next.push((e_addr, e_size));
                continue;
            }
            overlapped = true;
            if e0 < a0 {
                next.push((e0, a0 - e0));
            }
            if e1 > a1 {
                next.push((a1, e1 - a1));
            }
        }
        self.quarantine = next;
        if overlapped {
            unsafe { std::ptr::write_bytes(addr as *mut u8, 0, size) };
        }
    }

    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            chunks: self.chunks.len(),
            ..self.stats
        }
    }

    /// Iterate over the pinned chunk regions (used by migration packing).
    pub fn regions(&self) -> impl Iterator<Item = &Region> {
        self.chunks.iter().map(|c| &c.region)
    }

    /// Total free bytes across all chunks (for tests).
    pub fn free_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.free_bytes()).sum()
    }

    /// Whether `addr` lies in any chunk of this arena.
    pub fn contains(&self, addr: usize) -> bool {
        self.chunks.iter().any(|c| c.region.contains(addr))
    }
}

impl Default for Arena {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Arena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Arena").field("stats", &self.stats()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_write() {
        let mut a = Arena::with_chunk_size(4096);
        let p = a.alloc(128, 8).unwrap();
        unsafe {
            p.as_mut_slice().fill(0xAB);
            assert!(p.as_slice().iter().all(|&b| b == 0xAB));
        }
        assert_eq!(a.stats().live_bytes, 128);
    }

    #[test]
    fn zero_size_rejected() {
        let mut a = Arena::new();
        assert_eq!(a.alloc(0, 1), Err(AllocError::ZeroSize));
    }

    #[test]
    fn alignment_honored() {
        let mut a = Arena::with_chunk_size(4096);
        let _pad = a.alloc(3, 1).unwrap();
        for align in [1usize, 2, 4, 8, 16, 64, 256] {
            let p = a.alloc(10, align).unwrap();
            assert_eq!(p.addr() % align, 0, "align {align}");
        }
    }

    #[test]
    fn free_and_reuse() {
        let mut a = Arena::with_chunk_size(4096);
        let p1 = a.alloc(1024, 8).unwrap();
        let addr1 = p1.addr();
        a.dealloc(p1);
        let p2 = a.alloc(1024, 8).unwrap();
        assert_eq!(p2.addr(), addr1, "freed space must be reused");
        assert_eq!(a.stats().live_allocs, 1);
    }

    #[test]
    fn coalescing_allows_big_realloc() {
        let mut a = Arena::with_chunk_size(8192);
        let p1 = a.alloc(2048, 8).unwrap();
        let p2 = a.alloc(2048, 8).unwrap();
        let p3 = a.alloc(2048, 8).unwrap();
        a.dealloc(p2);
        a.dealloc(p1);
        a.dealloc(p3);
        // all three coalesced back: one chunk-sized allocation fits
        let big = a.alloc(8192, 8).unwrap();
        assert_eq!(a.stats().chunks, 1, "no new chunk needed");
        a.dealloc(big);
    }

    #[test]
    fn grows_with_new_chunks() {
        let mut a = Arena::with_chunk_size(4096);
        let mut ptrs = Vec::new();
        for _ in 0..10 {
            ptrs.push(a.alloc(3000, 8).unwrap());
        }
        assert!(a.stats().chunks >= 5);
        // no overlap between allocations
        let mut ranges: Vec<(usize, usize)> =
            ptrs.iter().map(|p| (p.addr(), p.addr() + p.size)).collect();
        ranges.sort();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "allocations overlap");
        }
    }

    #[test]
    fn capacity_limit_enforced() {
        let mut a = Arena::with_chunk_size(4096);
        a.set_limit(Some(8192));
        let _p1 = a.alloc(3000, 8).unwrap();
        let _p2 = a.alloc(3000, 8).unwrap();
        match a.alloc(3000, 8) {
            Err(AllocError::CapacityExceeded { .. }) => {}
            other => panic!("expected capacity error, got {other:?}"),
        }
    }

    #[test]
    fn live_extent_is_the_allocation_high_water_mark() {
        let mut a = Arena::with_chunk_size(1 << 16);
        let hwm = |a: &Arena| a.regions().next().map(|r| r.live());
        let p1 = a.alloc(1000, 8).unwrap();
        assert_eq!(hwm(&a), Some(0..1000));
        let p2 = a.alloc(24, 64).unwrap();
        let end2 = p2.addr() + 24 - p1.addr();
        assert_eq!(hwm(&a), Some(0..end2), "alignment padding is below the mark");
        // freeing never lowers it (the bytes were written), and reuse of
        // freed space below it does not move it
        a.dealloc(p1);
        let _p3 = a.alloc(512, 8).unwrap();
        assert_eq!(hwm(&a), Some(0..end2));
        // an allocation that fills the chunk to its last byte
        let rest = (1 << 16) - end2;
        let _p4 = a.alloc(rest, 1).unwrap();
        assert_eq!(hwm(&a), Some(0..1 << 16));
        // a second chunk starts empty-then-raised on its own
        let _p5 = a.alloc(2000, 8).unwrap();
        assert_eq!(a.regions().nth(1).map(|r| r.live()), Some(0..2000));
    }

    #[test]
    fn oversized_allocation_gets_own_chunk() {
        let mut a = Arena::with_chunk_size(4096);
        let p = a.alloc(1 << 20, 8).unwrap();
        assert_eq!(p.size, 1 << 20);
        unsafe { p.as_mut_slice()[1 << 19] = 1 };
    }

    #[test]
    fn guard_detects_double_free_as_value() {
        let mut a = Arena::with_chunk_size(4096);
        a.set_guard(true);
        let p = a.alloc(256, 8).unwrap();
        let addr = p.addr();
        assert!(a.try_dealloc(p).is_ok());
        match a.try_dealloc(p) {
            Err(GuardViolation::DoubleFree { addr: d, size }) => {
                assert_eq!((d, size), (addr, 256));
            }
            other => panic!("expected DoubleFree, got {other:?}"),
        }
        // arena stats untouched by the rejected free
        assert_eq!(a.stats().live_allocs, 0);
    }

    #[test]
    fn guard_poisons_freed_memory_and_audits_stale_writes() {
        let mut a = Arena::with_chunk_size(4096);
        a.set_guard(true);
        let p = a.alloc(64, 8).unwrap();
        let ptr = p.ptr;
        a.try_dealloc(p).unwrap();
        unsafe {
            assert!(p.as_slice().iter().all(|&b| b == POISON), "freed bytes poisoned");
        }
        assert!(a.audit_quarantine().is_ok());
        // a stale write through the dangling pointer
        unsafe { ptr.add(5).write(42) };
        match a.audit_quarantine() {
            Err(GuardViolation::UseAfterFree { offset, .. }) => assert_eq!(offset, 5),
            other => panic!("expected UseAfterFree, got {other:?}"),
        }
    }

    #[test]
    fn guarded_realloc_releases_quarantine_and_zeroes() {
        let mut a = Arena::with_chunk_size(4096);
        a.set_guard(true);
        let p = a.alloc(512, 8).unwrap();
        let addr = p.addr();
        a.try_dealloc(p).unwrap();
        assert_eq!(a.quarantine_len(), 1);
        let q = a.alloc(512, 8).unwrap();
        assert_eq!(q.addr(), addr, "freed space reused");
        assert_eq!(a.quarantine_len(), 0, "reused range left quarantine");
        unsafe {
            assert!(q.as_slice().iter().all(|&b| b == 0), "reused memory zeroed");
        }
        // auditing after reuse must not flag the recycled range
        assert!(a.audit_quarantine().is_ok());
    }

    #[test]
    fn guard_reports_foreign_pointer_as_value() {
        let mut a = Arena::new();
        a.set_guard(true);
        let mut x = [0u8; 16];
        match a.try_dealloc(IsoPtr {
            ptr: x.as_mut_ptr(),
            size: 16,
        }) {
            Err(GuardViolation::ForeignPointer { .. }) => {}
            other => panic!("expected ForeignPointer, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn foreign_pointer_rejected() {
        let mut a = Arena::new();
        let mut x = [0u8; 16];
        a.dealloc(IsoPtr {
            ptr: x.as_mut_ptr(),
            size: 16,
        });
    }
}
