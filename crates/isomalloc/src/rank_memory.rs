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
//! An image has two forms. Its *logical* form is a header, then every
//! region's header and whole body: [`MigrationBuffer::len`], every
//! [`ImageDelta`] offset and every byte count the runtime reports or
//! charges the network for are in that coordinate space. Its *stored*
//! form — the bytes the buffer holds — carries of each body only the
//! region's live extent ([`Region::live`], cut outward to the 4 KiB diff
//! grid): the rest is either the zero fill the region was born with or
//! dead stack, so it is neither copied, sealed, compared nor restored. A
//! region written end to end is simply the case "live extent = whole".
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
use std::ops::Range;

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
    /// The stored form.
    buf: BytesMut,
    /// Length of the logical image `buf` stands for.
    logical_len: usize,
}

impl MigrationBuffer {
    /// Length of the *logical* image — what a migration moves as far as
    /// the network model, the trace and every report are concerned, and
    /// the space [`ImageDelta`] offsets index.
    pub fn len(&self) -> usize {
        self.logical_len
    }

    /// Bytes the buffer actually holds: headers plus every region's live
    /// extent. Equal to [`Self::len`] plus 16 bytes per region when every
    /// region is live as a whole.
    pub fn stored_len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The stored form (not indexable by logical offset).
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// [`checksum64`] seal of the stored image. A checkpoint records it at
    /// pack time and a restore refuses any image whose seal no longer
    /// matches.
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
/// incremental-checkpoint delta. Offsets index the *logical image*
/// (headers included), so a base image read through its delta chain,
/// newest delta first, *is* the newest full image on every live byte.
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
/// Per-region header of the logical image: kind tag (u8) + body length
/// (u64).
const REGION_HEADER_LEN: usize = 9;
/// Per-region header as stored: the logical one, then the stored range
/// of the body (start u64, end u64). The body that follows is that range.
const STORED_HEADER_LEN: usize = REGION_HEADER_LEN + 16;
/// Bytes below a suspended stack pointer that still belong to the
/// thread (the x86-64 SysV red zone).
const RED_ZONE: usize = 128;

/// What the previous capture holds at one diff chunk.
enum Prev<'a> {
    Bytes(&'a [u8]),
    /// Outside the base's stored range and in no chained delta: the zero
    /// fill the region was born with.
    Zeros,
    /// Partly inside the base's stored range, partly outside — only a
    /// page size off the 4 KiB grid cuts such a chunk. There is no slice
    /// to compare with; the chunk is carried.
    Straddle,
}

impl<'a> Prev<'a> {
    /// The previous bytes of the `n`-byte chunk at logical offset `o`:
    /// the newest chained range starting there, else what the base
    /// stores — `kept`, starting at logical offset `at`.
    fn lookup(chain: &[&'a ImageDelta], o: usize, n: usize, (at, kept): (usize, &'a [u8])) -> Self {
        debug_assert!(
            chain.iter().all(|d| d.on_grid_at(o, n)),
            "chain was cut on another offset grid than the chunk at {o}"
        );
        if let Some(bytes) = chain.iter().rev().find_map(|d| d.range_at(o)) {
            Prev::Bytes(bytes)
        } else if at <= o && o + n <= at + kept.len() {
            Prev::Bytes(&kept[o - at..o - at + n])
        } else if o + n <= at || at + kept.len() <= o {
            Prev::Zeros
        } else {
            Prev::Straddle
        }
    }

    /// Whether `chunk[sub]` differs from the same bytes of the previous
    /// capture (a chunk of another length than its predecessor differs).
    fn differs(&self, chunk: &[u8], sub: Range<usize>) -> bool {
        match self {
            Prev::Bytes(old) => old.len() != chunk.len() || old[sub.clone()] != chunk[sub],
            Prev::Zeros => chunk[sub].iter().any(|&b| b != 0),
            Prev::Straddle => !mutant!(StraddleTakenAsEqual),
        }
    }
}

/// Errors from unpacking a migration buffer or applying a delta to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnpackError {
    BadMagic,
    /// The buffer's region layout does not match this rank's regions —
    /// migration must land on a memory image with identical shape.
    LayoutMismatch { expected: usize, got: usize },
    Truncated,
    /// A region's stored range does not lie inside the region.
    BadStoredRange { start: u64, end: u64 },
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
            UnpackError::BadStoredRange { start, end } => write!(
                f,
                "migration buffer: stored range {start}..{end} is not inside its region"
            ),
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

    /// Set every stack region's live extent from its thread's suspended
    /// stack pointer: `[sp − 128, top)`, the frames above `sp` and the
    /// red zone below it. What lies deeper is dead — whatever returned
    /// calls left there — and is not rank state. The whole region when
    /// `sp` is `None` (a thread that never ran or has finished, or whose
    /// context is kernel-side) or points outside it. The runtime calls
    /// this before each capture, migration, fault scribble and restore.
    pub fn set_stack_live(&mut self, sp: Option<usize>) {
        for r in self.regions.iter_mut().filter(|r| r.kind() == RegionKind::Stack) {
            let (base, len) = (r.base() as usize, r.len());
            let red_zone = if mutant!(RedZoneDropped) { 0 } else { RED_ZONE };
            let lo = match sp {
                Some(sp) if (base..=base + len).contains(&sp) => {
                    (sp - base).saturating_sub(red_zone)
                }
                _ => 0,
            };
            r.set_live(lo..len);
        }
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
    /// the memcpy alone. Of each region only the live extent, cut outward
    /// to the diff grid, is read and stored.
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
        let (mut n, mut logical, mut stored) = (0usize, HEADER_LEN, HEADER_LEN);
        for r in self.all_regions().filter(|r| include(r.kind())) {
            n += 1;
            logical += REGION_HEADER_LEN + r.len();
            stored += STORED_HEADER_LEN + r.stored().len();
        }
        let buf = &mut out.buf;
        buf.clear();
        buf.reserve(stored);
        buf.put_u32(MAGIC);
        buf.put_u64(n as u64);
        for r in self.all_regions().filter(|r| include(r.kind())) {
            let keep = r.stored();
            buf.put_u8(kind_tag(r.kind()));
            buf.put_u64(r.len() as u64);
            buf.put_u64(keep.start as u64);
            buf.put_u64(keep.end as u64);
            match source(r) {
                Some(mut bytes) => {
                    bytes.resize(r.len(), 0);
                    buf.put_slice(&bytes[keep]);
                }
                None => buf.put_slice(&r.as_slice()[keep]),
            }
        }
        out.logical_len = logical;
        pvr_trace::emit(pvr_trace::EventKind::RegionCopy {
            dir: pvr_trace::CopyDir::Pack,
            regions: n as u32,
            bytes: logical as u64,
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
    /// at `o`, else what `base` stores there, else (outside the base's
    /// stored range) zeros. That lookup is exact because every delta
    /// of one chain is cut at the same offsets — `chain` must have been
    /// produced by this function against `base`, with the same
    /// `page_size` and the same kind of plan per region (a chunk whose
    /// length differs from its predecessor's compares unequal and is
    /// re-emitted). Debug builds assert it: no chained range may straddle
    /// an edge of a chunk being looked up.
    ///
    /// `plan_for` chooses per region: [`RegionDiffPlan::Scan`] walks the
    /// `page_size` chunks that reach into the region's live extent and
    /// compares the live bytes of each — dead stack below the suspended
    /// `sp` is never read, so what a returned call left there cannot
    /// dirty a chunk; [`RegionDiffPlan::Pages`]
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
        // per region: (logical offset the stored bytes start at, the bytes)
        let mut kept: Vec<(usize, &[u8])> = Vec::new();
        self.walk(&base.buf, |_| true, |body, _, keep, bytes| {
            kept.push((body + keep.start, bytes))
        })
        .ok()?;
        let mut ranges: Vec<(u64, Vec<u8>)> = Vec::new();
        for ((body, r), kept) in self.bodies(|_| true).zip(kept) {
            let len = r.len();
            match plan_for(r) {
                RegionDiffPlan::Scan => {
                    let (cur, live) = (r.as_slice(), r.live());
                    let first = live.start / page_size * page_size;
                    for p in (first..live.end).step_by(page_size) {
                        let chunk = &cur[p..len.min(p + page_size)];
                        let sub = live.start.max(p) - p..live.end.min(p + chunk.len()) - p;
                        if Prev::lookup(chain, body + p, chunk.len(), kept).differs(chunk, sub) {
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
                        let prev = Prev::lookup(chain, body + p, bytes.len(), kept);
                        if prev.differs(&bytes, 0..bytes.len()) {
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
    /// every region's kind/size/stored range/byte coverage are validated
    /// exactly as [`unpack_into`](RankMemory::unpack_into) would. A restore
    /// that verifies every rank first and only then unpacks is
    /// failure-atomic — verification failure leaves all memory untouched.
    pub fn verify_layout(&self, buf: &MigrationBuffer) -> Result<(), UnpackError> {
        self.walk(&buf.buf, |_| true, |_, _, _, _| {}).map(|_| ())
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
    ///
    /// Each region receives its stored range; whatever else of its
    /// *current* live extent the image does not carry is zeroed — it was
    /// zero when the image was packed (heap allocated since) or is not
    /// state (stack), and zero is what unpacking a dense image wrote
    /// there. Bytes outside both are left alone.
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
        self.walk(b, &include, |_, _, _, _| {})?;
        let n = self.walk(b, &include, |_, r, keep, bytes| {
            // SAFETY: `walk` proved `keep.end <= r.len()` and handed over
            // exactly `keep.len()` bytes of `b`; the region is pinned and
            // `&mut self` owns it.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    bytes.as_ptr(),
                    r.base_mut().add(keep.start),
                    keep.len(),
                )
            };
            if mutant!(ZeroFillSkipped) {
                return;
            }
            let now = r.stored();
            for gap in [now.start..keep.start.min(now.end), keep.end.max(now.start)..now.end] {
                if !gap.is_empty() {
                    // SAFETY: `gap` lies inside `now`, which
                    // `Region::stored` clamps to `0..r.len()`.
                    unsafe { std::ptr::write_bytes(r.base_mut().add(gap.start), 0, gap.len()) };
                }
            }
        })?;
        pvr_trace::emit(pvr_trace::EventKind::RegionCopy {
            dir: pvr_trace::CopyDir::Unpack,
            regions: n as u32,
            bytes: buf.len() as u64,
        });
        Ok(())
    }

    /// Walk the stored image `b` against this rank's `include`d regions,
    /// mutating nothing: magic, region count, then per region its kind,
    /// size, stored range (inside the region) and byte coverage are
    /// validated, and `visit` gets the region's logical body offset, the
    /// region, the stored range and the stored bytes. Returns the region
    /// count. A caller that must not act on a bad image walks twice.
    fn walk<'b>(
        &self,
        b: &'b [u8],
        include: impl Fn(RegionKind) -> bool,
        mut visit: impl FnMut(usize, &Region, Range<usize>, &'b [u8]),
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
        let mut at = HEADER_LEN;
        for (body, r) in self.bodies(&include) {
            let Some(mut rh) = b.get(at..at + STORED_HEADER_LEN) else {
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
            let (start, end) = (rh.get_u64(), rh.get_u64());
            let keep = match (usize::try_from(start), usize::try_from(end)) {
                (Ok(lo), Ok(hi)) if lo <= hi && hi <= r.len() => lo..hi,
                _ => return Err(UnpackError::BadStoredRange { start, end }),
            };
            at += STORED_HEADER_LEN;
            let Some(bytes) = b.get(at..at + keep.len()) else {
                return Err(UnpackError::Truncated);
            };
            at += keep.len();
            visit(body, r, keep, bytes);
        }
        Ok(n)
    }

    /// `(image offset of the region's body, region)` for every region
    /// passing `include`, in pack order — the logical coordinate space.
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

    impl MigrationBuffer {
        /// The logical image this buffer stands for: every body at its
        /// full length, zeros where nothing is stored. Parsed from the
        /// stored bytes alone.
        pub(super) fn logical(&self) -> Vec<u8> {
            let mut b: &[u8] = &self.buf;
            let mut out = Vec::with_capacity(self.len());
            out.put_u32(b.get_u32());
            let n = b.get_u64();
            out.put_u64(n);
            for _ in 0..n {
                out.put_u8(b.get_u8());
                let len = b.get_u64() as usize;
                out.put_u64(len as u64);
                let (lo, hi) = (b.get_u64() as usize, b.get_u64() as usize);
                let body = out.len();
                out.resize(body + len, 0);
                out[body + lo..body + hi].copy_from_slice(&b[..hi - lo]);
                b.advance(hi - lo);
            }
            assert_eq!(out.len(), self.len(), "logical length is what len() reports");
            out
        }

        /// The stored form cut to its first `n` bytes.
        pub(super) fn cut(&self, n: usize) -> MigrationBuffer {
            MigrationBuffer {
                buf: BytesMut::from(&self.as_slice()[..n]),
                logical_len: self.logical_len,
            }
        }
    }

    /// The parent commit's packer, kept as the oracle: every region's
    /// whole body, in logical form.
    pub(super) fn dense_pack(rm: &RankMemory) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_u32(MAGIC);
        out.put_u64(rm.all_regions().count() as u64);
        for r in rm.all_regions() {
            out.put_u8(kind_tag(r.kind()));
            out.put_u64(r.len() as u64);
            out.put_slice(r.as_slice());
        }
        out
    }

    /// `base` with `chain` patched over it, oldest first — the logical
    /// image a read-through of `base + chain` stands for.
    fn materialize(base: &MigrationBuffer, chain: &[&ImageDelta]) -> Vec<u8> {
        let mut img = base.logical();
        for d in chain {
            for (off, bytes) in &d.ranges {
                let off = *off as usize;
                img[off..off + bytes.len()].copy_from_slice(bytes);
            }
        }
        img
    }

    /// Overwrite every region's stored range (heap chunks included) with
    /// `byte` — what a fault can lose; the rest is zero fill or dead.
    fn scribble(rm: &mut RankMemory, byte: u8) {
        for r in rm.all_regions() {
            let lost = r.stored();
            // SAFETY: inside the pinned region; `rm` is borrowed mutably.
            unsafe { std::ptr::write_bytes(r.base_mut().add(lost.start), byte, lost.len()) };
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
        assert_eq!(img.logical(), dense_pack(&rm), "nothing non-zero outside the live extents");
        let mut rm = sample_rank();
        let err = rm.unpack_into(&img.cut(img.stored_len() / 2)).unwrap_err();
        assert_eq!(err, UnpackError::Truncated);
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
        assert!(rm.verify_layout(&img.cut(img.stored_len() - 1)).is_err());
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
        assert_eq!(now.logical(), dense_pack(&rm));
        assert_eq!(materialize(&base, &[&delta]), now.logical(), "base + delta == fresh pack");
        // the restore path: base unpacked, delta written into live regions
        scribble(&mut rm, 0xDE);
        rm.unpack_into(&base).unwrap();
        rm.apply_delta(&delta).unwrap();
        assert_eq!(rm.pack().logical(), now.logical());
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
        assert_eq!(materialize(&base, &[&delta]), rm.pack().logical());
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
                    now.logical(),
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
        assert_eq!(materialize(&base, &[&d1, &d2, &d3]), rm.pack().logical());
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
        assert_eq!(buf.stored_len(), HEADER_LEN + STORED_HEADER_LEN + 4);
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
        let logical = packed.logical();
        assert_eq!(logical[packed.len() - 4..], [0xFE, 0, 0, 0], "override padded with zeros");
        assert_eq!(logical[..packed.len() - 4], normal.logical()[..packed.len() - 4]);
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

/// The live-extent differential: random alloc / free / write / call /
/// return scripts checked at every barrier against the dense oracle
/// (`tests::dense_pack`) and against an extent model kept by the test
/// itself, so a defect in how the crate keeps or uses extents cannot hide
/// behind the same defect in the expectation. Six seeded mutants
/// (`crate::mutant`) must each fail it.
#[cfg(test)]
mod extent_tests {
    use super::tests::dense_pack;
    use super::*;
    use crate::arena::IsoPtr;
    use crate::region::GRID;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const CHUNK: usize = 64 * 1024;
    const STACK: usize = 48 * 1024;
    const BALLAST: usize = 20_000;

    /// What the script knows to be live, from what it did — not from what
    /// the regions say.
    struct Model {
        /// Suspended stack pointer, as an offset into the stack region.
        sp: usize,
        allocs: Vec<IsoPtr>,
        /// `(chunk base address, highest allocation end)` per heap chunk.
        hwm: Vec<(usize, usize)>,
    }

    struct Rank {
        rm: RankMemory,
        stack: RegionId,
        model: Model,
    }

    fn grid(live: &Range<usize>, len: usize) -> Range<usize> {
        if live.is_empty() {
            return 0..0;
        }
        live.start / GRID * GRID..len.min(live.end.div_ceil(GRID) * GRID)
    }

    impl Rank {
        fn new() -> Rank {
            let mut rm = RankMemory::with_heap(Arena::with_chunk_size(CHUNK));
            let stack = rm.add_region(Region::new_zeroed(RegionKind::Stack, STACK));
            rm.add_region(Region::from_bytes(RegionKind::TlsSegment, &[7; 24]));
            // never written, declared so: COWglobals' code ballast
            let mut ballast = Region::new_zeroed(RegionKind::CodeSegment, BALLAST);
            ballast.set_live(0..0);
            rm.add_region(ballast);
            let model = Model { sp: STACK - 64, allocs: Vec::new(), hwm: Vec::new() };
            Rank { rm, stack, model }
        }

        /// Exact live range per region, in `all_regions` order.
        fn live(&self) -> Vec<Range<usize>> {
            self.rm
                .all_regions()
                .map(|r| match r.kind() {
                    RegionKind::HeapChunk => {
                        let base = r.base() as usize;
                        let hwm = self.model.hwm.iter().find(|(b, _)| *b == base);
                        0..hwm.map_or(0, |(_, h)| *h)
                    }
                    RegionKind::Stack => self.model.sp - RED_ZONE..STACK,
                    RegionKind::CodeSegment => 0..0,
                    _ => 0..r.len(),
                })
                .collect()
        }

        fn refresh_sp(&mut self) {
            let base = self.rm.region(self.stack).base() as usize;
            self.rm.set_stack_live(Some(base + self.model.sp));
        }

        fn alloc(&mut self, size: usize, align: usize) -> IsoPtr {
            let p = self.rm.heap().alloc(size, align).unwrap();
            let chunk = self.rm.heap_ref().regions().find(|r| r.contains(p.addr())).unwrap();
            let (base, end) = (chunk.base() as usize, p.addr() + size - chunk.base() as usize);
            match self.model.hwm.iter_mut().find(|(b, _)| *b == base) {
                Some((_, h)) => *h = (*h).max(end),
                None => self.model.hwm.push((base, end)),
            }
            self.model.allocs.push(p);
            p
        }

        fn stack_fill(&mut self, range: Range<usize>, rng: &mut StdRng) {
            for b in &mut self.rm.region_mut(self.stack).as_mut_slice()[range] {
                *b = rng.gen_range(1..=255u8);
            }
        }

        /// One random step of the rank's program.
        fn step(&mut self, rng: &mut StdRng) {
            match rng.gen_range(0..9u32) {
                // allocate; fill some, all or none of it
                0 | 1 => {
                    let size = match rng.gen_range(0..3u32) {
                        0 => rng.gen_range(1..200usize),
                        1 => rng.gen_range(200..6000usize),
                        _ => rng.gen_range(6000..20_000usize),
                    };
                    let p = self.alloc(size, 1 << rng.gen_range(0..7u32));
                    let filled = [0, size, size.min(17)][rng.gen_range(0..3usize)];
                    // SAFETY: a live allocation nobody else holds.
                    unsafe { p.as_mut_slice()[..filled].fill(rng.gen_range(1..=255u8)) };
                }
                2 => {
                    if !self.model.allocs.is_empty() {
                        let i = rng.gen_range(0..self.model.allocs.len());
                        self.rm.heap().dealloc(self.model.allocs.swap_remove(i));
                    }
                }
                3 | 4 => {
                    if !self.model.allocs.is_empty() {
                        let p = self.model.allocs[rng.gen_range(0..self.model.allocs.len())];
                        let at = rng.gen_range(0..p.size);
                        // small alphabet: rewrites and reverts (to zero, too) happen
                        // SAFETY: inside a live allocation.
                        unsafe { p.as_mut_slice()[at] = rng.gen_range(0..3u8) };
                    }
                }
                // call deep and write frames; return at once (leaving the
                // frames behind as dead bytes) or stay suspended down there
                5 | 6 => {
                    let depth = rng.gen_range(16..12_000usize).min(self.model.sp - 512);
                    let mut deep = self.model.sp - depth;
                    if rng.gen_bool(0.3) {
                        // just above a grid line: the red zone is the cell below
                        deep = (deep / GRID * GRID + rng.gen_range(0..RED_ZONE)).max(512);
                    }
                    self.stack_fill(deep - RED_ZONE..self.model.sp, rng);
                    if rng.gen_bool(0.6) {
                        self.model.sp = deep;
                    }
                }
                // return
                7 => {
                    let up = rng.gen_range(0..8000usize);
                    self.model.sp = (self.model.sp + up).min(STACK - 64);
                }
                // a leaf writes below `sp`, and a live frame above it
                _ => {
                    let sp = self.model.sp;
                    let at = rng.gen_range(sp - RED_ZONE..sp);
                    self.stack_fill(at..at + 1, rng);
                    let at = rng.gen_range(sp..STACK);
                    self.stack_fill(at..at + 1, rng);
                }
            }
        }

        /// (1): the stored image, expanded, is the dense image with
        /// everything outside the grid-cut live extents zeroed.
        fn check_pack_against_oracle(&self, img: &MigrationBuffer, what: &str) {
            let mut expect = dense_pack(&self.rm);
            for ((body, r), live) in self.rm.bodies(|_| true).zip(self.live()) {
                let keep = grid(&live, r.len());
                expect[body..body + keep.start].fill(0);
                expect[body + keep.end..body + r.len()].fill(0);
            }
            assert!(img.logical() == expect, "{what}: stored image != dense oracle on live bytes");
            let stored: usize = self.rm.bodies(|_| true).zip(self.live()).map(|((_, r), l)| grid(&l, r.len()).len()).sum();
            let n = self.rm.all_regions().count();
            assert_eq!(img.stored_len(), HEADER_LEN + n * STORED_HEADER_LEN + stored, "{what}");
        }
    }

    /// A capture as the runtime holds it, and the truth it must restore.
    struct Capture {
        base: MigrationBuffer,
        chain: Vec<ImageDelta>,
        sp: usize,
        /// `(live range, its bytes)` per region at the newest capture.
        truth: Vec<(Range<usize>, Vec<u8>)>,
    }

    /// One script: barriers with base or delta captures (chain bound
    /// `max_chain`, diff page `page`), and after each barrier a failure —
    /// at once or some steps later — rolled back to that barrier.
    fn run_script(seed: u64, page: usize, max_chain: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rank = Rank::new();
        let mut held: Option<Capture> = None;
        for barrier in 0..7 {
            let what = format!("seed {seed} page {page} chain {max_chain} barrier {barrier}");
            for _ in 0..rng.gen_range(1..10) {
                rank.step(&mut rng);
            }
            // the capture
            rank.refresh_sp();
            let delta = held.as_ref().filter(|c| c.chain.len() < max_chain).and_then(|c| {
                let refs: Vec<&ImageDelta> = c.chain.iter().collect();
                rank.rm.diff_pages_against_chain(&c.base, &refs, page, |_| RegionDiffPlan::Scan)
            });
            let fresh = rank.rm.pack();
            rank.check_pack_against_oracle(&fresh, &what);
            let truth = rank
                .rm
                .all_regions()
                .zip(rank.live())
                .map(|(r, live)| (live.clone(), r.as_slice()[live].to_vec()))
                .collect();
            let mut c = match (held.take(), delta) {
                (Some(mut c), Some(d)) => {
                    assert_eq!(rank.rm.verify_delta(&d), Ok(()), "{what}");
                    c.chain.push(d);
                    c
                }
                _ => Capture { base: fresh, chain: Vec::new(), sp: 0, truth: Vec::new() },
            };
            (c.sp, c.truth) = (rank.model.sp, truth);

            // the rank runs on — deeper, shallower, allocating — and fails
            for _ in 0..rng.gen_range(0..6) {
                rank.step(&mut rng);
            }
            if rank.rm.verify_layout(&c.base).is_err() {
                // the heap grew a chunk: no image of the old layout can be
                // restored (the runtime refuses, too) — next barrier rebases
                continue;
            }
            let at_failure = rank.live();
            for (r, live) in rank.rm.all_regions().zip(&at_failure) {
                // all of a stack may hold anything; elsewhere only what an
                // image can carry is lost (the rest is zero and stays so)
                let lost = if r.kind() == RegionKind::Stack { 0..r.len() } else { grid(live, r.len()) };
                // SAFETY: inside the pinned region; nothing else holds it.
                unsafe { std::ptr::write_bytes(r.base_mut().add(lost.start), 0xDE, lost.len()) };
            }

            // (2): roll back to the barrier; every byte live there is back
            rank.model.sp = c.sp;
            rank.refresh_sp();
            rank.rm.unpack_into(&c.base).unwrap();
            for d in &c.chain {
                rank.rm.apply_delta(d).unwrap();
            }
            for ((r, (live, bytes)), now) in rank.rm.all_regions().zip(&c.truth).zip(&at_failure) {
                assert!(
                    r.as_slice()[live.clone()] == bytes[..],
                    "{what}: {:?} not restored on its live bytes {live:?}",
                    r.kind()
                );
                // (3): heap handed out after the capture reads as fresh
                if r.kind() == RegionKind::HeapChunk {
                    let past = grid(live, r.len()).end..grid(now, r.len()).end;
                    assert!(
                        r.as_slice()[past.clone()].iter().all(|&b| b == 0),
                        "{what}: heap {past:?} allocated after the capture not zeroed"
                    );
                }
            }
            held = Some(c);
        }
    }

    fn differential() {
        for seed in 0..40u64 {
            // on the grid, finer than it, and off it (chunks straddle cells)
            for page in [GRID, 1024, 6144] {
                run_script(seed, page, if seed % 2 == 0 { 8 } else { 2 });
            }
        }
    }

    #[test]
    fn live_extent_images_agree_with_the_dense_oracle() {
        differential();
    }

    #[test]
    fn every_seeded_mutant_fails_the_differential() {
        for m in crate::mutant::ALL {
            let caught = std::panic::catch_unwind(|| crate::mutant::with(m, differential));
            assert!(caught.is_err(), "mutant {m:?} survived the differential");
        }
    }

    #[test]
    fn unpack_zero_fills_what_was_allocated_after_the_capture() {
        let mut rm = RankMemory::with_heap(Arena::with_chunk_size(CHUNK));
        let a = rm.heap().alloc(1000, 8).unwrap();
        unsafe { a.as_mut_slice().fill(0x5A) };
        let img = rm.pack();
        assert_eq!(img.stored_len(), HEADER_LEN + STORED_HEADER_LEN + GRID);
        assert_eq!(img.len(), HEADER_LEN + REGION_HEADER_LEN + CHUNK);
        let b = rm.heap().alloc(10_000, 8).unwrap();
        unsafe { b.as_mut_slice().fill(0x77) };
        unsafe { a.as_mut_slice().fill(0x11) };
        // not rank state by the arena's account: far past the mark
        let chunk = rm.heap_ref().regions().next().unwrap().base_mut();
        unsafe { chunk.add(50_000).write(0x99) };
        rm.unpack_into(&img).unwrap();
        let chunk = rm.heap_ref().regions().next().unwrap().as_slice();
        assert!(chunk[..1000].iter().all(|&x| x == 0x5A), "the captured bytes");
        assert!(chunk[1000..3 * GRID].iter().all(|&x| x == 0), "[image end, high-water) zeroed");
        assert_eq!(chunk[50_000], 0x99, "outside both extents: left alone");
    }

    #[test]
    fn bad_images_are_rejected_with_memory_untouched() {
        let mut rank = Rank::new();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..30 {
            rank.step(&mut rng);
        }
        rank.refresh_sp();
        let img = rank.rm.pack();
        let before = dense_pack(&rank.rm);
        let mut refuse = |bad: &MigrationBuffer, what: &str| -> UnpackError {
            let err = rank.rm.verify_layout(bad).expect_err(what);
            assert_eq!(rank.rm.unpack_into(bad), Err(err.clone()), "{what}");
            assert!(rank.rm.diff_pages_against(bad, GRID, |_| RegionDiffPlan::Scan).is_none(), "{what}");
            assert!(dense_pack(&rank.rm) == before, "{what}: memory touched");
            err
        };
        for n in (0..img.stored_len()).step_by(997) {
            assert_eq!(refuse(&img.cut(n), "truncated"), UnpackError::Truncated);
        }
        let mut bad = img.clone();
        bad.buf[0] ^= 0xFF;
        assert_eq!(refuse(&bad, "bad magic"), UnpackError::BadMagic);
        let foreign = RankMemory::new().pack();
        assert!(matches!(refuse(&foreign, "foreign layout"), UnpackError::LayoutMismatch { .. }));
        // the first region's stored range: bytes 9..25 of its header
        let range_at = HEADER_LEN + REGION_HEADER_LEN;
        for (start, end) in [(0u64, CHUNK as u64 + 1), (GRID as u64, 0), (0, u64::MAX), (u64::MAX, u64::MAX)] {
            let mut bad = img.clone();
            bad.buf[range_at..range_at + 8].copy_from_slice(&start.to_be_bytes());
            bad.buf[range_at + 8..range_at + 16].copy_from_slice(&end.to_be_bytes());
            assert_eq!(
                refuse(&bad, "stored range outside the region"),
                UnpackError::BadStoredRange { start, end }
            );
        }
        // a range inside the region but longer than the bytes that follow
        let mut bad = img.cut(range_at + 16 + 10);
        bad.buf[range_at + 8..range_at + 16].copy_from_slice(&(GRID as u64).to_be_bytes());
        assert_eq!(refuse(&bad, "stored range past the buffer"), UnpackError::Truncated);
        rank.rm.unpack_into(&img).unwrap();
    }
}
