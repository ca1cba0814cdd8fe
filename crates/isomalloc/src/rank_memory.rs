//! The complete migratable memory image of one virtual rank.
//!
//! A rank owns: its user heap (an [`Arena`] of pinned chunks), its ULT
//! stack, its private TLS segment copy (under TLSglobals/PIEglobals), and —
//! under PIEglobals — private copies of the program's code and data
//! segments. All of it lives in pinned [`Region`]s, so migration is:
//!
//! 1. [`RankMemory::pack`] — memcpy every region into one contiguous wire
//!    buffer (this is the real byte movement whose cost Fig. 8 measures),
//! 2. ship the buffer through the (simulated) network,
//! 3. [`RankMemory::unpack_into`] — memcpy the bytes back into the rank's
//!    regions at the destination.
//!
//! Because all simulated nodes share one OS address space, the regions'
//! base addresses are identical before and after — exactly the invariant
//! Isomalloc buys with its mirrored virtual-address reservations, which is
//! what makes interior pointers (stack frames, heap links) survive.

use crate::arena::Arena;
use crate::checksum::{checksum64, fold64};
use crate::region::{Region, RegionKind};
use bytes::{Buf, BufMut, BytesMut};
use std::fmt;

/// Identifies a non-heap region within a [`RankMemory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(usize);

/// Byte counts by kind for one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankMemoryStats {
    pub heap_bytes: usize,
    pub stack_bytes: usize,
    pub tls_bytes: usize,
    pub code_bytes: usize,
    pub data_bytes: usize,
}

impl RankMemoryStats {
    pub fn total(&self) -> usize {
        self.heap_bytes + self.stack_bytes + self.tls_bytes + self.code_bytes + self.data_bytes
    }
}

/// The packed wire form of a rank's memory.
///
/// A checkpoint's base image is immutable once packed; the migration
/// path instead keeps one buffer and refills it
/// ([`RankMemory::pack_with_sources_into`]).
#[derive(Clone, Default)]
pub struct MigrationBuffer {
    buf: BytesMut,
}

impl MigrationBuffer {
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// [`checksum64`] seal of the image. A checkpoint records it at pack
    /// time and a restore refuses any image whose seal no longer matches.
    pub fn checksum(&self) -> u64 {
        checksum64(&self.buf)
    }
}

/// How [`RankMemory::diff_pages_against`] should treat one region.
pub enum RegionDiffPlan {
    /// Page-chunk memcmp of the region's live bytes against the previous
    /// image — for regions with no dirty tracking (heap chunks, stacks,
    /// TLS, eager segment copies).
    Scan,
    /// The caller already knows which pages diverged (a COW page table's
    /// epoch dirty set): emit exactly these page payloads, still skipping
    /// any whose bytes equal the previous image.
    Pages {
        /// Page size the `pages` indices are expressed in.
        page_size: usize,
        /// `(page index, page bytes)`, ascending — the final page may be
        /// partial.
        pages: Vec<(u32, Vec<u8>)>,
    },
}

/// A sparse byte patch against a packed [`MigrationBuffer`] image — the
/// incremental-checkpoint delta. Offsets index the *packed image* (the
/// same coordinate space [`RankMemory::pack`] writes, headers included),
/// so a base image read through its delta chain, newest delta first, *is*
/// the newest full image, byte for byte.
#[derive(Debug, Clone, Default)]
pub struct ImageDelta {
    /// `(image offset, payload)` per dirty page-chunk, ascending and
    /// non-overlapping ([`RankMemory::diff_pages_against_chain`] builds
    /// them so; [`RankMemory::verify_delta`] re-checks before a restore).
    ranges: Vec<(u64, Vec<u8>)>,
}

impl ImageDelta {
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Number of dirty page-chunks carried.
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// Total payload bytes carried (what an async drain must ship).
    pub fn bytes(&self) -> usize {
        self.ranges.iter().map(|(_, b)| b.len()).sum()
    }

    /// Integrity seal for the delta's trip to the buddy PE and its stay
    /// there: the range count, then every range's offset and
    /// [`checksum64`] (which covers the payload's length) folded in order.
    pub fn checksum(&self) -> u64 {
        self.ranges
            .iter()
            .fold(self.ranges.len() as u64, |h, (off, bytes)| {
                fold64(fold64(h, *off), checksum64(bytes))
            })
    }

    /// Payload of the range starting at image offset `off`, if any.
    fn range_at(&self, off: usize) -> Option<&[u8]> {
        self.ranges
            .binary_search_by_key(&(off as u64), |(o, _)| *o)
            .ok()
            .map(|i| &self.ranges[i].1[..])
    }

    /// No range straddles an edge of the chunk `o..o + n`: this delta was
    /// cut on the grid that chunk belongs to.
    fn on_grid_at(&self, o: usize, n: usize) -> bool {
        let i = self.ranges.partition_point(|(s, _)| (*s as usize) < o);
        let clear_before = i == 0 || {
            let (s, b) = &self.ranges[i - 1];
            *s as usize + b.len() <= o
        };
        let next = self.ranges.get(i).map(|(s, _)| *s as usize);
        clear_before && next.is_none_or(|s| s == o || s >= o + n)
    }

    /// Fault-injection hook: flip one payload byte (index `at`, wrapped
    /// over the concatenated payloads). Returns `false` when the delta
    /// carries no bytes to corrupt.
    pub fn corrupt_byte(&mut self, at: usize) -> bool {
        let total = self.bytes();
        if total == 0 {
            return false;
        }
        let mut at = at % total;
        for (_, b) in &mut self.ranges {
            if at < b.len() {
                b[at] ^= 0xFF;
                return true;
            }
            at -= b.len();
        }
        false
    }
}

const MAGIC: u32 = 0x50_56_52_4D; // "PVRM"
/// Image header: magic (u32) + region count (u64).
const HEADER_LEN: usize = 12;
/// Per-region header: kind tag (u8) + body length (u64).
const REGION_HEADER_LEN: usize = 9;

/// Errors from unpacking a migration buffer or applying a delta to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnpackError {
    BadMagic,
    /// The buffer's region layout does not match this rank's regions —
    /// migration must land on a memory image with identical shape.
    LayoutMismatch { expected: usize, got: usize },
    Truncated,
    /// A delta range is out of ascending order, overlaps its predecessor,
    /// or does not lie wholly inside one region's body.
    BadDeltaRange { offset: u64 },
}

impl fmt::Display for UnpackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnpackError::BadMagic => write!(f, "migration buffer: bad magic"),
            UnpackError::LayoutMismatch { expected, got } => {
                write!(f, "migration buffer: layout mismatch ({expected} vs {got})")
            }
            UnpackError::Truncated => write!(f, "migration buffer: truncated"),
            UnpackError::BadDeltaRange { offset } => write!(
                f,
                "image delta: range at offset {offset} is out of order or not inside one region"
            ),
        }
    }
}

impl std::error::Error for UnpackError {}

/// Full migratable memory of one rank.
pub struct RankMemory {
    heap: Arena,
    regions: Vec<Region>,
}

impl RankMemory {
    pub fn new() -> RankMemory {
        RankMemory {
            heap: Arena::new(),
            regions: Vec::new(),
        }
    }

    pub fn with_heap(heap: Arena) -> RankMemory {
        RankMemory {
            heap,
            regions: Vec::new(),
        }
    }

    pub fn heap(&mut self) -> &mut Arena {
        &mut self.heap
    }

    pub fn heap_ref(&self) -> &Arena {
        &self.heap
    }

    /// Add a pinned region (stack, TLS segment, code/data segment copy).
    pub fn add_region(&mut self, region: Region) -> RegionId {
        self.regions.push(region);
        RegionId(self.regions.len() - 1)
    }

    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.0]
    }

    pub fn region_mut(&mut self, id: RegionId) -> &mut Region {
        &mut self.regions[id.0]
    }

    pub fn regions(&self) -> impl Iterator<Item = &Region> {
        self.regions.iter()
    }

    pub fn stats(&self) -> RankMemoryStats {
        let mut s = RankMemoryStats {
            heap_bytes: self.heap.stats().capacity_bytes,
            ..Default::default()
        };
        for r in &self.regions {
            match r.kind() {
                RegionKind::HeapChunk => s.heap_bytes += r.len(),
                RegionKind::Stack => s.stack_bytes += r.len(),
                RegionKind::TlsSegment => s.tls_bytes += r.len(),
                RegionKind::CodeSegment => s.code_bytes += r.len(),
                RegionKind::DataSegment => s.data_bytes += r.len(),
            }
        }
        s
    }

    /// Total bytes a migration of this rank must move.
    pub fn migration_bytes(&self) -> usize {
        self.stats().total()
    }

    /// Migration bytes when regions failing `include` are skipped.
    pub fn migration_bytes_with(&self, include: impl Fn(RegionKind) -> bool) -> usize {
        self.all_regions()
            .filter(|r| include(r.kind()))
            .map(|r| r.len())
            .sum()
    }

    /// Serialize all rank memory into a wire buffer (real memcpy).
    pub fn pack(&self) -> MigrationBuffer {
        self.pack_with(|_| true)
    }

    /// Serialize only the regions whose kind passes `include`.
    ///
    /// This is the paper's future-work optimization "changing Isomalloc
    /// to only migrate segments of code that differ across different
    /// ranks": under PIEglobals every rank's code copy is bitwise
    /// identical (fixups land in the data segment and GOT), so migration
    /// can skip `CodeSegment` regions and rebuild them from the local
    /// image at the destination.
    pub fn pack_with(&self, include: impl Fn(RegionKind) -> bool) -> MigrationBuffer {
        let mut out = MigrationBuffer::default();
        self.pack_with_sources_into(&mut out, include, |_| None);
        out
    }

    /// [`Self::pack_with`] into a buffer the caller keeps: `out` is
    /// cleared and refilled, so a buffer reused across migrations is
    /// allocated (and its pages faulted in) once, and every later pack is
    /// the memcpy alone.
    ///
    /// A region for which `source` returns `Some(bytes)` packs those
    /// bytes instead of its live memory (padded or truncated to the
    /// region's length). This lets a COW privatizer supply a
    /// *read-through* view of its page table — template bytes for shared
    /// pages, backing bytes for private ones — so packing never has to
    /// materialize the backing store.
    pub fn pack_with_sources_into(
        &self,
        out: &mut MigrationBuffer,
        include: impl Fn(RegionKind) -> bool,
        mut source: impl FnMut(&Region) -> Option<Vec<u8>>,
    ) {
        let n = self.all_regions().filter(|r| include(r.kind())).count();
        let buf = &mut out.buf;
        buf.clear();
        buf.reserve(HEADER_LEN + n * REGION_HEADER_LEN + self.migration_bytes_with(&include));
        buf.put_u32(MAGIC);
        buf.put_u64(n as u64);
        for r in self.all_regions().filter(|r| include(r.kind())) {
            buf.put_u8(kind_tag(r.kind()));
            buf.put_u64(r.len() as u64);
            match source(r) {
                Some(mut bytes) => {
                    bytes.resize(r.len(), 0);
                    buf.put_slice(&bytes);
                }
                None => buf.put_slice(r.as_slice()),
            }
        }
        pvr_trace::emit(pvr_trace::EventKind::RegionCopy {
            dir: pvr_trace::CopyDir::Pack,
            regions: n as u32,
            bytes: buf.len() as u64,
        });
    }

    /// [`Self::diff_pages_against_chain`] with an empty chain: `prev` is
    /// the whole previous image.
    pub fn diff_pages_against(
        &self,
        prev: &MigrationBuffer,
        page_size: usize,
        plan_for: impl FnMut(&Region) -> RegionDiffPlan,
    ) -> Option<ImageDelta> {
        self.diff_pages_against_chain(prev, &[], page_size, plan_for)
    }

    /// Diff this rank's live memory against the previous capture,
    /// producing the sparse [`ImageDelta`] that turns it into the image
    /// [`Self::pack`] would produce now.
    ///
    /// The previous capture is `base` read through `chain` (oldest delta
    /// first) and is never materialized: the previous bytes of the chunk
    /// at image offset `o` are the newest chained delta's range starting
    /// at `o`, else `base[o..]`. That lookup is exact because every delta
    /// of one chain is cut at the same offsets — `chain` must have been
    /// produced by this function against `base`, with the same
    /// `page_size` and the same kind of plan per region (a chunk whose
    /// length differs from its predecessor's compares unequal and is
    /// re-emitted). Debug builds assert it: no chained range may straddle
    /// an edge of a chunk being looked up.
    ///
    /// `plan_for` chooses per region: [`RegionDiffPlan::Scan`] memcmps
    /// the live bytes in `page_size` chunks; [`RegionDiffPlan::Pages`]
    /// supplies an explicit dirty-page list (with read-through payloads),
    /// so the region's live memory is never touched. Either way, chunks
    /// byte-equal to the previous capture are skipped — stale dirty
    /// stamps cost compare time, never delta bytes.
    ///
    /// Returns `None` when `base`'s layout no longer matches this rank's
    /// regions (the heap grew or shrank a chunk, a region resized), or a
    /// page list is not ascending and inside its region, or a page payload
    /// is longer than its page: the caller must fall back to a fresh base
    /// image.
    pub fn diff_pages_against_chain(
        &self,
        base: &MigrationBuffer,
        chain: &[&ImageDelta],
        page_size: usize,
        mut plan_for: impl FnMut(&Region) -> RegionDiffPlan,
    ) -> Option<ImageDelta> {
        assert!(page_size > 0, "diff page size must be positive");
        let b: &[u8] = &base.buf;
        self.check_layout(b, |_| true).ok()?;
        let prev = |o: usize, n: usize| -> &[u8] {
            debug_assert!(
                chain.iter().all(|d| d.on_grid_at(o, n)),
                "chain was cut on another offset grid than the chunk at {o}"
            );
            chain
                .iter()
                .rev()
                .find_map(|d| d.range_at(o))
                .unwrap_or(&b[o..o + n])
        };
        let mut ranges: Vec<(u64, Vec<u8>)> = Vec::new();
        for (body, r) in self.bodies(|_| true) {
            let len = r.len();
            match plan_for(r) {
                RegionDiffPlan::Scan => {
                    let cur = r.as_slice();
                    for p in (0..len).step_by(page_size) {
                        let chunk = &cur[p..len.min(p + page_size)];
                        if chunk != prev(body + p, chunk.len()) {
                            ranges.push(((body + p) as u64, chunk.to_vec()));
                        }
                    }
                }
                RegionDiffPlan::Pages { page_size: ps, pages } => {
                    let mut floor = 0usize;
                    for (page, bytes) in pages {
                        let p = (page as usize).checked_mul(ps)?;
                        let end = p.checked_add(bytes.len())?;
                        // a payload longer than its page would cover the
                        // next page's offset, which `prev` looks up alone
                        if p < floor || end > len || bytes.len() > ps {
                            return None;
                        }
                        floor = end;
                        if bytes[..] != *prev(body + p, bytes.len()) {
                            ranges.push(((body + p) as u64, bytes));
                        }
                    }
                }
            }
        }
        Some(ImageDelta { ranges })
    }

    /// Check that `buf` can be unpacked into this rank's regions
    /// **without mutating anything**: header magic, region count, and
    /// every region's kind/size/byte coverage are validated exactly as
    /// [`unpack_into`](RankMemory::unpack_into) would. A restore that
    /// verifies every rank first and only then unpacks is failure-atomic
    /// — verification failure leaves all memory untouched.
    pub fn verify_layout(&self, buf: &MigrationBuffer) -> Result<(), UnpackError> {
        self.check_layout(&buf.buf, |_| true).map(|_| ())
    }

    /// Check that [`Self::apply_delta`] would write only inside this
    /// rank's regions, **without mutating anything**: the ranges ascend
    /// without overlap and each lies wholly inside one region's body in
    /// the packed coordinate space (never across a region header).
    pub fn verify_delta(&self, delta: &ImageDelta) -> Result<(), UnpackError> {
        self.delta_targets(delta, |_, _| {})
    }

    /// Write every range of `delta` straight into the live region it
    /// falls in — what unpacking the patched image would leave there,
    /// without building that image. One walk: each range is checked as it
    /// is reached, so a bad range stops the walk with the ranges before
    /// it already written. Where a bad delta must change nothing, run
    /// [`Self::verify_delta`] first (restore phase 1 does).
    pub fn apply_delta(&mut self, delta: &ImageDelta) -> Result<(), UnpackError> {
        self.delta_targets(delta, |dst, src| {
            // SAFETY: `delta_targets` only yields destinations with
            // `src.len()` bytes inside one pinned region, which `&mut
            // self` owns exclusively; `src` is the delta's own buffer.
            unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), dst, src.len()) }
        })
    }

    /// Walk `delta` and the layout together, once: call `visit` with the
    /// live destination and payload of every range, or fail at the first
    /// range that is out of order or not inside one region's body.
    fn delta_targets(
        &self,
        delta: &ImageDelta,
        mut visit: impl FnMut(*mut u8, &[u8]),
    ) -> Result<(), UnpackError> {
        let mut bodies = self.bodies(|_| true).peekable();
        let mut floor = 0usize;
        for (offset, bytes) in &delta.ranges {
            let bad = || UnpackError::BadDeltaRange { offset: *offset };
            let off = usize::try_from(*offset).map_err(|_| bad())?;
            let end = off.checked_add(bytes.len()).ok_or_else(bad)?;
            if off < floor {
                return Err(bad());
            }
            floor = end;
            // ranges ascend, so a region ending at or before this range
            // is finished with
            while bodies.next_if(|(body, r)| body + r.len() <= off).is_some() {}
            match bodies.peek() {
                Some((body, r)) if *body <= off && end <= body + r.len() => {
                    // SAFETY: `off - body .. end - body` was just checked
                    // to lie inside the region's `len` bytes.
                    visit(unsafe { r.base_mut().add(off - body) }, bytes)
                }
                _ => return Err(bad()),
            }
        }
        Ok(())
    }

    /// Copy a packed buffer's bytes back into this rank's regions.
    ///
    /// The region layout (count, kinds, sizes, order) must match what was
    /// packed; migration in `pvr` always unpacks into the same logical
    /// memory image whose ownership travelled with the message.
    pub fn unpack_into(&mut self, buf: &MigrationBuffer) -> Result<(), UnpackError> {
        self.unpack_into_with(buf, |_| true)
    }

    /// Unpack a buffer produced by [`RankMemory::pack_with`] using the
    /// same `include` filter (skipped regions keep their current bytes).
    /// The whole layout is checked before the first byte is written.
    pub fn unpack_into_with(
        &mut self,
        buf: &MigrationBuffer,
        include: impl Fn(RegionKind) -> bool,
    ) -> Result<(), UnpackError> {
        let b: &[u8] = &buf.buf;
        let n = self.check_layout(b, &include)?;
        for (body, r) in self.bodies(&include) {
            // SAFETY: `check_layout` proved `b` holds `r.len()` bytes at
            // `body`; the region is pinned and `&mut self` owns it.
            unsafe { std::ptr::copy_nonoverlapping(b[body..].as_ptr(), r.base_mut(), r.len()) };
        }
        pvr_trace::emit(pvr_trace::EventKind::RegionCopy {
            dir: pvr_trace::CopyDir::Unpack,
            regions: n as u32,
            bytes: b.len() as u64,
        });
        Ok(())
    }

    /// Validate `b` against this rank's `include`d regions — magic,
    /// region count, every region's kind, size and byte coverage —
    /// mutating nothing. Returns the region count.
    fn check_layout(
        &self,
        b: &[u8],
        include: impl Fn(RegionKind) -> bool,
    ) -> Result<usize, UnpackError> {
        let mut hdr = b;
        if hdr.remaining() < HEADER_LEN {
            return Err(UnpackError::Truncated);
        }
        if hdr.get_u32() != MAGIC {
            return Err(UnpackError::BadMagic);
        }
        let expected = self.all_regions().filter(|r| include(r.kind())).count();
        let n = hdr.get_u64() as usize;
        if n != expected {
            return Err(UnpackError::LayoutMismatch { expected, got: n });
        }
        for (body, r) in self.bodies(&include) {
            let Some(mut rh) = b.get(body - REGION_HEADER_LEN..body) else {
                return Err(UnpackError::Truncated);
            };
            let got_tag = rh.get_u8();
            let got_len = rh.get_u64() as usize;
            if got_tag != kind_tag(r.kind()) || got_len != r.len() {
                return Err(UnpackError::LayoutMismatch {
                    expected: r.len(),
                    got: got_len,
                });
            }
            if b.len() < body + got_len {
                return Err(UnpackError::Truncated);
            }
        }
        Ok(n)
    }

    /// `(image offset of the region's body, region)` for every region
    /// passing `include`, in pack order — the packed coordinate space.
    fn bodies<'a>(
        &'a self,
        include: impl Fn(RegionKind) -> bool + 'a,
    ) -> impl Iterator<Item = (usize, &'a Region)> + 'a {
        let mut next = HEADER_LEN;
        self.all_regions()
            .filter(move |r| include(r.kind()))
            .map(move |r| {
                let body = next + REGION_HEADER_LEN;
                next = body + r.len();
                (body, r)
            })
    }

    fn all_regions(&self) -> impl Iterator<Item = &Region> {
        self.heap.regions().chain(self.regions.iter())
    }
}

impl Default for RankMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for RankMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RankMemory")
            .field("stats", &self.stats())
            .finish()
    }
}

fn kind_tag(k: RegionKind) -> u8 {
    match k {
        RegionKind::HeapChunk => 0,
        RegionKind::Stack => 1,
        RegionKind::TlsSegment => 2,
        RegionKind::CodeSegment => 3,
        RegionKind::DataSegment => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rank() -> RankMemory {
        let mut rm = RankMemory::new();
        let p = rm.heap().alloc(1000, 8).unwrap();
        unsafe { p.as_mut_slice().fill(0x5A) };
        let mut stack = Region::new_zeroed(RegionKind::Stack, 8192);
        stack.as_mut_slice()[100..200].fill(0xC3);
        rm.add_region(stack);
        rm.add_region(Region::from_bytes(RegionKind::TlsSegment, &[1, 2, 3, 4]));
        rm
    }

    /// `base` with `chain` patched over it, oldest first — the image a
    /// read-through of `base + chain` stands for.
    fn materialize(base: &MigrationBuffer, chain: &[&ImageDelta]) -> Vec<u8> {
        let mut img = base.as_slice().to_vec();
        for d in chain {
            for (off, bytes) in &d.ranges {
                let off = *off as usize;
                img[off..off + bytes.len()].copy_from_slice(bytes);
            }
        }
        img
    }

    /// Overwrite every region (heap chunks included) with `byte`.
    fn scribble(rm: &mut RankMemory, byte: u8) {
        for r in rm.all_regions() {
            // SAFETY: the region is pinned and `rm` is borrowed mutably.
            unsafe { std::ptr::write_bytes(r.base_mut(), byte, r.len()) };
        }
    }

    #[test]
    fn stats_by_kind() {
        let rm = sample_rank();
        let s = rm.stats();
        assert!(s.heap_bytes >= 1000);
        assert_eq!(s.stack_bytes, 8192);
        assert_eq!(s.tls_bytes, 4);
        assert_eq!(s.code_bytes, 0);
        assert_eq!(s.total(), rm.migration_bytes());
    }

    #[test]
    fn pack_unpack_roundtrip_preserves_bytes() {
        let mut rm = sample_rank();
        let before = rm.pack();
        let sum_before = before.checksum();
        // scribble over the memory (simulates the bytes being "elsewhere")
        let stack_id = RegionId(0);
        rm.region_mut(stack_id).as_mut_slice().fill(0);
        // restore from the packed image
        rm.unpack_into(&before).unwrap();
        let after = rm.pack();
        assert_eq!(after.checksum(), sum_before);
        assert_eq!(rm.region(stack_id).as_slice()[150], 0xC3);
    }

    #[test]
    fn addresses_stable_across_roundtrip() {
        let mut rm = sample_rank();
        let base_before = rm.region(RegionId(0)).base() as usize;
        let img = rm.pack();
        rm.unpack_into(&img).unwrap();
        assert_eq!(rm.region(RegionId(0)).base() as usize, base_before);
    }

    #[test]
    fn layout_mismatch_detected() {
        let rm1 = sample_rank();
        let img = rm1.pack();
        let mut rm2 = RankMemory::new();
        rm2.add_region(Region::new_zeroed(RegionKind::Stack, 8192));
        let err = rm2.unpack_into(&img).unwrap_err();
        assert!(matches!(err, UnpackError::LayoutMismatch { .. }));
    }

    #[test]
    fn truncated_detected() {
        let rm = sample_rank();
        let img = rm.pack();
        let cut = MigrationBuffer {
            buf: BytesMut::from(&img.as_slice()[..img.len() / 2]),
        };
        let mut rm = sample_rank();
        let err = rm.unpack_into(&cut).unwrap_err();
        assert!(matches!(
            err,
            UnpackError::Truncated | UnpackError::LayoutMismatch { .. }
        ));
    }

    #[test]
    fn bad_magic_detected() {
        let mut rm = sample_rank();
        let mut img = rm.pack();
        img.buf[0] ^= 0xFF;
        assert_eq!(rm.unpack_into(&img).unwrap_err(), UnpackError::BadMagic);
    }

    #[test]
    fn verify_layout_matches_unpack_judgement() {
        let mut rm = sample_rank();
        let img = rm.pack();
        assert_eq!(rm.verify_layout(&img), Ok(()));
        // verification does not consume or mutate anything
        assert_eq!(rm.verify_layout(&img), Ok(()));
        let cut = MigrationBuffer {
            buf: BytesMut::from(&img.as_slice()[..img.len() - 1]),
        };
        assert!(rm.verify_layout(&cut).is_err());
        let mut bad = img.clone();
        bad.buf[0] ^= 0xFF;
        assert_eq!(rm.verify_layout(&bad), Err(UnpackError::BadMagic));
        // a foreign layout is rejected without touching memory
        let other = RankMemory::new().pack();
        assert!(matches!(
            rm.verify_layout(&other),
            Err(UnpackError::LayoutMismatch { .. })
        ));
        // memory unchanged: unpack of the good image still succeeds
        rm.unpack_into(&img).unwrap();
    }

    #[test]
    fn cloned_buffer_is_identical() {
        let rm = sample_rank();
        let img = rm.pack();
        let copy = img.clone();
        assert_eq!(copy.len(), img.len());
        assert_eq!(copy.checksum(), img.checksum());
    }

    #[test]
    fn diff_apply_reconstructs_new_image_bit_identically() {
        let mut rm = sample_rank();
        let base = rm.pack();
        // mutate two spots: one in the stack region, one in the heap chunk
        rm.region_mut(RegionId(0)).as_mut_slice()[300] = 0x77;
        let heap_base = rm.heap_ref().regions().next().unwrap().base_mut();
        unsafe { heap_base.add(17).write(0x99) };
        let delta = rm
            .diff_pages_against(&base, 256, |_| RegionDiffPlan::Scan)
            .expect("layout unchanged");
        assert!(delta.range_count() >= 2, "both dirty chunks found");
        assert!(delta.bytes() < base.len(), "delta is sparse");
        assert_eq!(rm.verify_delta(&delta), Ok(()));
        let now = rm.pack();
        assert_eq!(materialize(&base, &[&delta]), now.as_slice(), "base + delta == fresh pack");
        // the restore path: base unpacked, delta written into live regions
        scribble(&mut rm, 0xDE);
        rm.unpack_into(&base).unwrap();
        rm.apply_delta(&delta).unwrap();
        assert_eq!(rm.pack().as_slice(), now.as_slice());
    }

    #[test]
    fn diff_of_unchanged_memory_is_empty() {
        let rm = sample_rank();
        let base = rm.pack();
        let delta = rm
            .diff_pages_against(&base, 128, |_| RegionDiffPlan::Scan)
            .unwrap();
        assert!(delta.is_empty());
        assert_eq!(delta.bytes(), 0);
    }

    #[test]
    fn diff_detects_layout_change() {
        let mut rm = sample_rank();
        let base = rm.pack();
        rm.add_region(Region::from_bytes(RegionKind::TlsSegment, &[9, 9]));
        assert!(
            rm.diff_pages_against(&base, 128, |_| RegionDiffPlan::Scan).is_none(),
            "grown layout must force a fresh base"
        );
    }

    #[test]
    fn diff_pages_plan_skips_byte_equal_pages() {
        let mut rm = sample_rank();
        let base = rm.pack();
        rm.region_mut(RegionId(0)).as_mut_slice()[0] = 0xEE;
        let stack_base = rm.region(RegionId(0)).base() as usize;
        let delta = rm
            .diff_pages_against(&base, 64, |r| {
                if r.base() as usize == stack_base {
                    // page 0 really changed; page 1 is listed but equal
                    let p0 = r.as_slice()[..64].to_vec();
                    let p1 = r.as_slice()[64..128].to_vec();
                    RegionDiffPlan::Pages { page_size: 64, pages: vec![(0, p0), (1, p1)] }
                } else {
                    RegionDiffPlan::Scan
                }
            })
            .unwrap();
        assert_eq!(delta.range_count(), 1, "byte-equal listed page skipped");
        assert_eq!(materialize(&base, &[&delta]), rm.pack().as_slice());
    }

    #[test]
    fn delta_checksum_and_corruption_hook() {
        let mut rm = sample_rank();
        let base = rm.pack();
        rm.region_mut(RegionId(0)).as_mut_slice()[10] = 0xAB;
        let mut delta = rm
            .diff_pages_against(&base, 256, |_| RegionDiffPlan::Scan)
            .unwrap();
        let sum = delta.checksum();
        assert!(delta.corrupt_byte(3));
        assert_ne!(delta.checksum(), sum, "one flipped byte must change the seal");
        let mut empty = ImageDelta::default();
        assert!(!empty.corrupt_byte(0), "nothing to corrupt in an empty delta");
        assert_eq!(rm.verify_delta(&empty), Ok(()));
        // offsets and range boundaries are sealed, not just payload bytes
        let moved = ImageDelta { ranges: vec![(delta.ranges[0].0 + 1, delta.ranges[0].1.clone())] };
        assert_ne!(moved.checksum(), delta.checksum());
        let (head, tail) = delta.ranges[0].1.split_at(8);
        let off = delta.ranges[0].0;
        let split = ImageDelta {
            ranges: vec![(off, head.to_vec()), (off + 8, tail.to_vec())],
        };
        assert_ne!(split.checksum(), delta.checksum());
    }

    #[test]
    fn bad_delta_ranges_rejected_with_memory_untouched() {
        let mut rm = sample_rank();
        let before = rm.pack();
        // packed coordinate space of sample_rank: heap chunk, then the
        // 8192-byte stack, then the 4-byte TLS segment
        let bodies: Vec<(usize, usize)> = rm.bodies(|_| true).map(|(b, r)| (b, r.len())).collect();
        let (stack, stack_len) = bodies[bodies.len() - 2];
        let (tls, tls_len) = bodies[bodies.len() - 1];
        assert_eq!((stack_len, tls_len), (8192, 4));
        assert_eq!(tls, stack + stack_len + REGION_HEADER_LEN);
        let delta = |ranges: &[(usize, usize)]| ImageDelta {
            ranges: ranges.iter().map(|&(o, n)| (o as u64, vec![0xEE; n])).collect(),
        };
        let good = delta(&[(stack, 16), (stack + 16, 16), (tls, 4)]);
        assert_eq!(rm.verify_delta(&good), Ok(()));
        let bad = [
            // runs from the stack's last bytes across the TLS header
            ("straddles a region header", delta(&[(stack + stack_len - 4, 4 + REGION_HEADER_LEN + 2)])),
            ("starts inside a region header", delta(&[(tls - 3, 2)])),
            ("inside the image header", delta(&[(4, 4)])),
            ("descending", delta(&[(stack + 64, 8), (stack, 8)])),
            ("overlapping", delta(&[(stack, 32), (stack + 16, 32)])),
            ("past the image", delta(&[(before.len(), 1)])),
            ("runs off the last region", delta(&[(tls + 2, 4)])),
            ("offset overflow", ImageDelta { ranges: vec![(u64::MAX, vec![1, 2])] }),
        ];
        for (what, d) in &bad {
            assert!(
                matches!(rm.verify_delta(d), Err(UnpackError::BadDeltaRange { .. })),
                "{what} must be rejected"
            );
            // ... and behind a valid first range just the same
            let mut with_prefix = delta(&[(bodies[0].0, 8)]);
            with_prefix.ranges.extend(d.ranges.iter().cloned());
            assert!(rm.verify_delta(&with_prefix).is_err(), "{what}");
            assert_eq!(rm.pack().as_slice(), before.as_slice(), "{what}: memory untouched");
        }
        // unverified, the walk still refuses to write outside a region:
        // it stops at the bad range, the valid prefix already in place
        let mut unverified = delta(&[(stack, 8)]);
        unverified.ranges.extend(bad[0].1.ranges.iter().cloned());
        assert!(rm.apply_delta(&unverified).is_err());
        assert_eq!(&rm.region(RegionId(0)).as_slice()[..9], &[0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0]);
        assert_eq!(rm.region(RegionId(1)).as_slice(), &[1, 2, 3, 4], "nothing past the header");
        rm.apply_delta(&good).unwrap();
        assert_eq!(rm.region(RegionId(1)).as_slice(), &[0xEE; 4]);
    }

    #[test]
    fn base_read_through_chain_equals_fresh_pack_over_random_writes() {
        use rand::{Rng, SeedableRng};
        for seed in 1..=8u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut rm = sample_rank();
            let base = rm.pack();
            let mut chain: Vec<ImageDelta> = Vec::new();
            for capture in 0..6 {
                // a few writes per capture, some to spots written before
                // (rewrites and reverts), some to fresh ones
                for _ in 0..rng.gen_range(0..6) {
                    let at = rng.gen_range(0..8192usize);
                    // small alphabet: reverts happen
                    rm.region_mut(RegionId(0)).as_mut_slice()[at] = rng.gen_range(0..3u8);
                }
                let refs: Vec<&ImageDelta> = chain.iter().collect();
                let delta = rm
                    .diff_pages_against_chain(&base, &refs, 128, |_| RegionDiffPlan::Scan)
                    .expect("layout unchanged");
                chain.push(delta);
                let refs: Vec<&ImageDelta> = chain.iter().collect();
                let now = rm.pack();
                assert_eq!(
                    materialize(&base, &refs),
                    now.as_slice(),
                    "seed {seed} capture {capture}: base + chain == fresh pack"
                );
                // and the staging-free restore agrees
                let mut twin = sample_rank();
                twin.unpack_into(&base).unwrap();
                for d in &chain {
                    twin.apply_delta(d).unwrap();
                }
                // heap chunks of two ranks hold the same bytes, so the
                // images are comparable
                assert_eq!(twin.pack().as_slice(), now.as_slice(), "seed {seed} capture {capture}");
            }
        }
    }

    #[test]
    fn reverted_chunk_is_re_emitted_once_then_absent() {
        let mut rm = sample_rank();
        let base = rm.pack();
        let original = rm.region(RegionId(0)).as_slice()[500];
        let diff = |rm: &RankMemory, chain: &[&ImageDelta]| {
            rm.diff_pages_against_chain(&base, chain, 256, |_| RegionDiffPlan::Scan)
                .unwrap()
        };
        // delta 1: dirty the chunk
        rm.region_mut(RegionId(0)).as_mut_slice()[500] = original ^ 0xFF;
        let d1 = diff(&rm, &[]);
        assert_eq!(d1.range_count(), 1);
        let at = d1.ranges[0].0;
        // delta 2: revert it — equal to the *base* again, but not to the
        // previous capture, so it must be carried
        rm.region_mut(RegionId(0)).as_mut_slice()[500] = original;
        let d2 = diff(&rm, &[&d1]);
        assert_eq!(d2.range_count(), 1, "revert differs from the previous capture");
        assert_eq!(d2.ranges[0].0, at);
        // delta 3: nothing changed since delta 2; the newest range at
        // that offset (delta 2's) is what the chunk is compared with
        let d3 = diff(&rm, &[&d1, &d2]);
        assert!(d3.is_empty(), "unchanged since the previous capture");
        // a diff against the bare base would have missed delta 1 entirely
        assert!(diff(&rm, &[]).is_empty());
        assert_eq!(materialize(&base, &[&d1, &d2, &d3]), rm.pack().as_slice());
    }

    #[test]
    fn unsorted_page_list_forces_a_fresh_base() {
        let rm = sample_rank();
        let base = rm.pack();
        let stack_base = rm.region(RegionId(0)).base() as usize;
        let plan = |pages: Vec<(u32, Vec<u8>)>| {
            rm.diff_pages_against(&base, 64, |r| {
                if r.base() as usize == stack_base {
                    RegionDiffPlan::Pages { page_size: 64, pages: pages.clone() }
                } else {
                    RegionDiffPlan::Scan
                }
            })
        };
        assert!(plan(vec![(1, vec![1; 64]), (2, vec![2; 64])]).is_some());
        assert!(plan(vec![(2, vec![2; 64]), (1, vec![1; 64])]).is_none(), "descending");
        assert!(plan(vec![(1, vec![1; 64]), (1, vec![2; 64])]).is_none(), "duplicate");
        assert!(plan(vec![(128, vec![1; 64])]).is_none(), "past the region");
        // page 1's payload would cover page 2's offset, where a later
        // capture's lookup would miss it and compare against stale base
        assert!(plan(vec![(1, vec![1; 65])]).is_none(), "oversized page payload");
        assert!(plan(vec![(127, vec![1; 63])]).is_some(), "partial page");
    }

    #[test]
    fn chain_grid_check_flags_straddling_ranges() {
        let d = ImageDelta { ranges: vec![(100, vec![0; 64]), (228, vec![0; 64])] };
        assert!(d.on_grid_at(100, 64) && d.on_grid_at(164, 64) && d.on_grid_at(228, 64));
        assert!(d.on_grid_at(36, 64), "ends where the first range starts");
        assert!(!d.on_grid_at(132, 64), "starts inside the first range");
        assert!(!d.on_grid_at(196, 64), "runs into the second range");
        assert!(ImageDelta::default().on_grid_at(0, 64));
    }

    #[test]
    fn pack_into_reuses_the_buffer() {
        let mut rm = sample_rank();
        let mut buf = MigrationBuffer::default();
        rm.pack_with_sources_into(&mut buf, |_| true, |_| None);
        assert_eq!(buf.as_slice(), rm.pack().as_slice());
        let (ptr, cap) = (buf.as_slice().as_ptr(), buf.buf.capacity());
        rm.region_mut(RegionId(0)).as_mut_slice()[0] = 0x42;
        rm.pack_with_sources_into(&mut buf, |_| true, |_| None);
        assert_eq!(buf.as_slice(), rm.pack().as_slice(), "cleared and refilled, not appended");
        assert_eq!((buf.as_slice().as_ptr(), buf.buf.capacity()), (ptr, cap), "no reallocation");
        // a filtered pack into the same buffer shrinks it
        rm.pack_with_sources_into(&mut buf, |k| k == RegionKind::TlsSegment, |_| None);
        assert_eq!(buf.len(), HEADER_LEN + REGION_HEADER_LEN + 4);
    }

    #[test]
    fn pack_with_sources_overrides_region_bytes() {
        let rm = sample_rank();
        let tls_base = rm.region(RegionId(1)).base() as usize;
        let mut packed = MigrationBuffer::default();
        rm.pack_with_sources_into(
            &mut packed,
            |_| true,
            |r| (r.base() as usize == tls_base).then(|| vec![0xFE]),
        );
        // override is padded to the region's length and lands in place of
        // the live bytes; everything else packs as usual
        let normal = rm.pack();
        assert_eq!(packed.len(), normal.len());
        assert_ne!(packed.checksum(), normal.checksum());
        let tail = &packed.as_slice()[packed.len() - 4..];
        assert_eq!(tail, &[0xFE, 0, 0, 0], "override padded with zeros");
    }

    #[test]
    fn migration_bytes_grow_with_heap() {
        let mut rm = RankMemory::new();
        let before = rm.migration_bytes();
        let _ = rm.heap().alloc(10 << 20, 8).unwrap();
        assert!(rm.migration_bytes() >= before + (10 << 20));
    }
}

#[cfg(test)]
mod filter_tests {
    use super::*;

    fn rank_with_code() -> RankMemory {
        let mut rm = RankMemory::new();
        let p = rm.heap().alloc(512, 8).unwrap();
        unsafe { p.as_mut_slice().fill(0x11) };
        rm.add_region(Region::from_bytes(RegionKind::Stack, &[0x22; 4096]));
        rm.add_region(Region::from_bytes(RegionKind::CodeSegment, &[0x33; 1 << 20]));
        rm.add_region(Region::from_bytes(RegionKind::DataSegment, &[0x44; 256]));
        rm
    }

    #[test]
    fn code_dedup_pack_is_smaller() {
        let rm = rank_with_code();
        let full = rm.pack();
        let no_code = rm.pack_with(|k| k != RegionKind::CodeSegment);
        assert!(full.len() >= no_code.len() + (1 << 20));
        assert_eq!(
            rm.migration_bytes_with(|k| k != RegionKind::CodeSegment) + (1 << 20),
            rm.migration_bytes()
        );
    }

    #[test]
    fn filtered_roundtrip_preserves_included_and_skips_excluded() {
        let mut rm = rank_with_code();
        let snapshot = rm.pack_with(|k| k != RegionKind::CodeSegment);
        // scribble over everything
        let ids: Vec<_> = (0..3).map(RegionId).collect();
        for id in &ids {
            rm.region_mut(*id).as_mut_slice().fill(0xFF);
        }
        rm.unpack_into_with(&snapshot, |k| k != RegionKind::CodeSegment)
            .unwrap();
        // stack and data restored; code untouched by the unpack
        assert_eq!(rm.region(RegionId(0)).as_slice()[0], 0x22);
        assert_eq!(rm.region(RegionId(2)).as_slice()[0], 0x44);
        assert_eq!(rm.region(RegionId(1)).as_slice()[0], 0xFF);
    }

    #[test]
    fn filter_mismatch_detected() {
        let mut rm = rank_with_code();
        let no_code = rm.pack_with(|k| k != RegionKind::CodeSegment);
        // unpacking with the full filter must notice the missing region
        assert!(matches!(
            rm.unpack_into(&no_code),
            Err(UnpackError::LayoutMismatch { .. })
        ));
    }
}
