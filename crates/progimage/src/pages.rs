//! Page-granular copy-on-write image model (the "COWglobals" substrate).
//!
//! The paper's §6 future work proposes deduplicating identical privatized
//! state across ranks instead of eagerly copying O(ranks × segment)
//! bytes. This module provides the mechanism:
//!
//! * [`PageTemplate`] — an immutable snapshot of a segment, chopped into
//!   fixed-size pages held behind `Arc`s. Every rank shares the same
//!   template read-only; a read of a never-written page costs one page
//!   table lookup and touches no per-rank memory.
//! * [`CowSegment`] — one rank's view of the template: a frame table
//!   pointing each page at either the shared template page or a private
//!   copy inside the rank's backing store (Isomalloc-managed, so private
//!   pages migrate and checkpoint with the rank). The first write to a
//!   shared page takes a *simulated fault*: the page is copied into the
//!   backing store, marked private, and the write applied there.
//! * [`DirtyTracker`] — the per-rank dirty-page set and fault counter,
//!   exposed as an API so incremental checkpointing (ROADMAP item 5) can
//!   pack only diverged pages, and so the dedup audit can report pages
//!   that never diverged on any rank.
//! * [`CowCell`] — an interior-mutable wrapper letting a rank's
//!   `VarAccess` handles fault pages through a shared reference; sound
//!   because a rank's accesses only execute while the rank is active on
//!   exactly one scheduler lane.
//!
//! The privatization method built on this model lives in
//! `pvr-privatize::methods::CowGlobals`; this module is pure mechanism.

use std::cell::UnsafeCell;
use std::mem::{align_of, size_of};
use std::sync::Arc;

/// Default simulated page size: the x86-64 base page.
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// The alignment of every page frame: template pages and backing slots
/// hold any [`Word`] at its natural alignment.
const FRAME_ALIGN: usize = 8;

/// An immutable segment snapshot as a table of `Arc`'d pages, shared
/// read-only by every rank. The final page is zero-padded to `page_size`
/// so page-wise copies never need a length special case.
#[derive(Debug, Clone)]
pub struct PageTemplate {
    page_size: usize,
    len: usize,
    pages: Vec<Arc<[u8]>>,
}

impl PageTemplate {
    /// Snapshot `bytes` into pages of `page_size` (a power of two, at
    /// least [`FRAME_ALIGN`]).
    pub fn new(bytes: &[u8], page_size: usize) -> PageTemplate {
        assert!(
            page_size.is_power_of_two() && page_size >= FRAME_ALIGN,
            "page size must be a power of two of at least {FRAME_ALIGN}"
        );
        let pages = bytes
            .chunks(page_size)
            .map(|chunk| {
                let mut page = vec![0u8; page_size];
                page[..chunk.len()].copy_from_slice(chunk);
                let page: Arc<[u8]> = Arc::from(page.into_boxed_slice());
                assert!(
                    (page.as_ptr() as usize).is_multiple_of(FRAME_ALIGN),
                    "frame alignment"
                );
                page
            })
            .collect();
        PageTemplate {
            page_size,
            len: bytes.len(),
            pages,
        }
    }

    /// Snapshot with the default page size.
    pub fn from_bytes(bytes: &[u8]) -> PageTemplate {
        PageTemplate::new(bytes, DEFAULT_PAGE_SIZE)
    }

    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Length of the snapshotted segment (excludes final-page padding).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn n_pages(&self) -> usize {
        self.pages.len()
    }

    /// One shared page, padded to `page_size`.
    pub fn page(&self, index: usize) -> &Arc<[u8]> {
        &self.pages[index]
    }

    /// Copy `out.len()` bytes starting at `offset`, walking pages.
    pub fn read(&self, mut offset: usize, out: &mut [u8]) {
        let mut done = 0;
        while done < out.len() {
            let page = &self.pages[offset / self.page_size];
            let in_page = offset % self.page_size;
            let n = (self.page_size - in_page).min(out.len() - done);
            out[done..done + n].copy_from_slice(&page[in_page..in_page + n]);
            done += n;
            offset += n;
        }
    }
}

/// A scalar a [`CowVar`] loads or stores in one access: no padding, and
/// every bit pattern is a value.
pub trait Word: Copy + Default + sealed::Sealed {}
impl Word for u64 {}
impl Word for i32 {}
impl Word for f64 {}

mod sealed {
    pub trait Sealed {}
    impl Sealed for u64 {}
    impl Sealed for i32 {}
    impl Sealed for f64 {}
}

/// The bytes of `v`, for a word that straddles two pages.
fn word_bytes<T: Word>(v: &mut T) -> &mut [u8] {
    // SAFETY: a `Word` has no padding and every byte pattern is a value.
    unsafe { std::slice::from_raw_parts_mut(v as *mut T as *mut u8, size_of::<T>()) }
}

/// Per-rank dirty-page set plus fault accounting — the substrate for
/// incremental checkpointing and the dedup audit.
///
/// The tracker stamps every written page with the *epoch* it was last
/// written in; a page is dirty (privatized) once it has a stamp.
/// Incremental checkpointing advances the epoch at each capture and asks
/// for [`Self::pages_dirty_since`] a floor epoch — pages written since the
/// last checkpoint, a strict subset of the ever-privatized set.
#[derive(Debug, Clone)]
pub struct DirtyTracker {
    faults: u64,
    /// Current write epoch. Starts at 1 so an epoch stamp of 0 always
    /// means "never written".
    epoch: u64,
    /// Epoch each page was last written in (0 = never, still shared).
    page_epoch: Vec<u64>,
}

impl DirtyTracker {
    fn new(n_pages: usize) -> DirtyTracker {
        DirtyTracker {
            faults: 0,
            epoch: 1,
            page_epoch: vec![0; n_pages],
        }
    }

    pub fn n_pages(&self) -> usize {
        self.page_epoch.len()
    }

    /// Whether page `index` has been privatized (written at least once).
    pub fn is_dirty(&self, index: usize) -> bool {
        self.page_epoch[index] > 0
    }

    /// Number of privatized pages.
    pub fn dirty_count(&self) -> usize {
        self.dirty_pages().count()
    }

    /// Indices of privatized pages, ascending.
    pub fn dirty_pages(&self) -> impl Iterator<Item = usize> + '_ {
        self.pages_dirty_since(1)
    }

    /// Total simulated page faults taken (equals [`Self::dirty_count`]
    /// in this model: one fault privatizes one page, forever).
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// The current write epoch (starts at 1).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Indices of pages written in epoch `since` or later, ascending —
    /// the incremental-checkpoint dirty set for a capture whose floor is
    /// `since`. Pages never written are excluded regardless of `since`.
    pub fn pages_dirty_since(&self, since: u64) -> impl Iterator<Item = usize> + '_ {
        self.page_epoch
            .iter()
            .enumerate()
            .filter(move |(_, &e)| e > 0 && e >= since)
            .map(|(i, _)| i)
    }
}

/// One rank's copy-on-write view of a [`PageTemplate`].
///
/// `base..base+len` is the rank-owned backing store (an Isomalloc data
/// region, zero-filled at creation). Each page has a *frame*: the shared
/// template page while the page is shared, its slot in the backing store
/// once a write faulted it private. A read is a frame-table load and an
/// add, whichever the page is. The backing store uses natural page
/// offsets, so a fully materialized segment is byte-identical to an eager
/// whole-segment copy.
#[derive(Debug)]
pub struct CowSegment {
    template: Arc<PageTemplate>,
    base: *mut u8,
    len: usize,
    /// Page → frame. Every entry addresses the page's bytes up to `len`:
    /// the template page (padded to the page size) or the backing slot.
    /// Never resized, so a [`CowVar`] may hold a pointer to an entry.
    frames: Vec<*const u8>,
    tracker: DirtyTracker,
    /// Whether the still-shared pages were copied into the backing store
    /// for an external whole-segment view (audit/pack). Sticky: the copy
    /// happens at most once so audit checksums stay stable.
    materialized: bool,
}

impl CowSegment {
    /// Wrap rank-owned backing memory of the template's length.
    ///
    /// # Safety
    /// `base` must point to at least `template.len()` writable bytes that
    /// outlive this segment and are not accessed through other aliases
    /// while the segment is live (the Isomalloc region discipline).
    pub unsafe fn new(template: Arc<PageTemplate>, base: *mut u8) -> CowSegment {
        assert!(
            (base as usize).is_multiple_of(FRAME_ALIGN),
            "backing store alignment"
        );
        let n_pages = template.n_pages();
        CowSegment {
            base,
            len: template.len(),
            frames: (0..n_pages).map(|i| template.page(i).as_ptr()).collect(),
            tracker: DirtyTracker::new(n_pages),
            materialized: false,
            template,
        }
    }

    pub fn template(&self) -> &Arc<PageTemplate> {
        &self.template
    }

    pub fn base(&self) -> *mut u8 {
        self.base
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn page_size(&self) -> usize {
        self.template.page_size()
    }

    pub fn tracker(&self) -> &DirtyTracker {
        &self.tracker
    }

    /// Usable length of page `index` (the final page may be partial).
    fn page_extent(&self, index: usize) -> usize {
        let start = index * self.page_size();
        (self.len - start).min(self.page_size())
    }

    /// Page `index`'s slot in the backing store.
    fn slot(&self, index: usize) -> *mut u8 {
        self.base.wrapping_add(index * self.page_size())
    }

    /// Stamp page `index`, private already, as written in the current
    /// epoch.
    fn stamp(&mut self, index: usize) {
        self.tracker.page_epoch[index] = self.tracker.epoch;
    }

    /// Take the simulated fault for page `index` if it is still shared:
    /// copy the template page into the backing slot, mark it private and
    /// point its frame at the slot. Returns `true` when this call
    /// privatized the page.
    pub fn privatize_page(&mut self, index: usize) -> bool {
        if self.tracker.is_dirty(index) {
            return false;
        }
        let n = self.page_extent(index);
        // SAFETY: the backing store spans `len` bytes (CowSegment::new
        // contract), this page slot lies inside it, and the template page
        // holds at least `n` bytes.
        unsafe {
            std::ptr::copy_nonoverlapping(self.template.page(index).as_ptr(), self.slot(index), n)
        };
        self.frames[index] = self.slot(index);
        self.tracker.faults += 1;
        self.stamp(index);
        true
    }

    /// Privatize and stamp every page covering `offset..offset+len`,
    /// handing each page this call privatized, and the page size, to
    /// `on_fault`.
    fn fault_range(&mut self, offset: usize, len: usize, mut on_fault: impl FnMut(u32, usize)) {
        assert!(offset + len <= self.len, "range past segment end");
        for page in offset / self.page_size()..=(offset + len.max(1) - 1) / self.page_size() {
            if self.privatize_page(page) {
                on_fault(page as u32, self.page_size());
            }
            // warm writes re-stamp too: the page is dirty again in the
            // current checkpoint epoch even though it faulted long ago
            self.stamp(page);
        }
    }

    /// Non-faulting read: each page through its frame.
    pub fn read(&self, offset: usize, out: &mut [u8]) {
        assert!(offset + out.len() <= self.len, "read past segment end");
        let ps = self.page_size();
        let mut done = 0;
        while done < out.len() {
            let at = offset + done;
            let in_page = at % ps;
            let n = (ps - in_page).min(out.len() - done);
            // SAFETY: `at..at+n` lies inside the segment (assert above)
            // and inside one page, whose frame holds it.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    self.frames[at / ps].add(in_page),
                    out[done..].as_mut_ptr(),
                    n,
                );
            }
            done += n;
        }
    }

    /// Write through the fault handler: every touched page that is still
    /// shared is privatized first, and each page that faulted goes to
    /// `on_fault` (nothing for a warm write), so the caller can emit
    /// trace events.
    pub fn write(&mut self, offset: usize, bytes: &[u8], on_fault: impl FnMut(u32, usize)) {
        self.fault_range(offset, bytes.len(), on_fault);
        // SAFETY: in-bounds (fault_range asserts it); all covered pages
        // are now private, so the backing store is authoritative.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), self.base.add(offset), bytes.len());
        }
    }

    /// Privatize every page covering `offset..offset+len` and return a
    /// raw pointer into the backing store — the escape hatch for code
    /// that needs a stable address (pointer identity, FFI-style access).
    /// Faulted pages go to `on_fault` as in [`Self::write`].
    pub fn writable_ptr(
        &mut self,
        offset: usize,
        len: usize,
        on_fault: impl FnMut(u32, usize),
    ) -> *mut u8 {
        // the caller holds a raw pointer it may write through later;
        // conservatively treat the whole range as written now
        self.fault_range(offset, len, on_fault);
        // SAFETY: offset is in-bounds (fault_range asserts it).
        unsafe { self.base.add(offset) }
    }

    /// Make the backing store a complete whole-segment view by copying
    /// every still-shared template page into its slot — *without* marking
    /// pages dirty or counting faults (materialization is bookkeeping,
    /// not divergence). Sticky: only the first call copies, so external
    /// mutations of the backing store (e.g. injected corruption that the
    /// segment-bleed audit must catch) are never papered over.
    pub fn materialize(&mut self) {
        if self.materialized {
            return;
        }
        for page in 0..self.template.n_pages() {
            if self.tracker.is_dirty(page) {
                continue;
            }
            let n = self.page_extent(page);
            // SAFETY: page slot is inside the backing store.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    self.template.page(page).as_ptr(),
                    self.slot(page),
                    n,
                );
            }
        }
        self.materialized = true;
    }

    /// Whether [`Self::materialize`] has run.
    pub fn is_materialized(&self) -> bool {
        self.materialized
    }

    /// A complete whole-segment byte view assembled *read-through*:
    /// private pages from the backing store, shared pages from the
    /// template — without materializing, so COW page sharing (and the
    /// dedup audit built on it) survives checkpoint packing.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len];
        if self.len > 0 {
            self.read(0, &mut out);
        }
        out
    }

    /// Read-through bytes of every page written in epoch `since` or
    /// later, as `(page index, page bytes)` pairs (the final page may be
    /// shorter than `page_size`). Mutates nothing — callers advance the
    /// epoch themselves once the capture is durable.
    pub fn delta_pages_since(&self, since: u64) -> Vec<(u32, Vec<u8>)> {
        self.tracker
            .pages_dirty_since(since)
            .map(|page| {
                let n = self.page_extent(page);
                let mut buf = vec![0u8; n];
                self.read(page * self.page_size(), &mut buf);
                (page as u32, buf)
            })
            .collect()
    }

    /// Close the current write epoch and open the next: pages written
    /// from now on stamp the new epoch. Returns the new current epoch.
    pub fn advance_epoch(&mut self) -> u64 {
        self.tracker.epoch += 1;
        self.tracker.epoch
    }
}

// SAFETY: a CowSegment is owned by one rank's privatizer; the scheduler
// guarantees the rank's accesses execute on exactly one lane at a time
// (the same discipline VarAccess already relies on).
unsafe impl Send for CowSegment {}

/// Interior-mutable cell around one rank's [`CowSegment`], so `Copy`able
/// access handles can fault pages through a shared pointer.
#[derive(Debug)]
pub struct CowCell(UnsafeCell<CowSegment>);

// SAFETY: see CowSegment — rank-exclusive execution means no concurrent
// access through the cell.
unsafe impl Send for CowCell {}
unsafe impl Sync for CowCell {}

impl CowCell {
    pub fn new(segment: CowSegment) -> CowCell {
        CowCell(UnsafeCell::new(segment))
    }

    /// The wrapped segment.
    ///
    /// # Safety
    /// Caller must guarantee rank-exclusive access: only the owning
    /// rank's lane (or single-threaded runtime bookkeeping like audits
    /// and checkpoint preparation) may hold the reference, and never two
    /// at once.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn segment(&self) -> &mut CowSegment {
        &mut *self.0.get()
    }

    /// The variable at `offset`, `len` bytes long, resolved once.
    ///
    /// # Safety
    /// The cell outlives every use of the handle, and the handle is used
    /// only under [`Self::segment`]'s contract.
    pub unsafe fn var(&self, offset: usize, len: usize) -> CowVar {
        let seg = self.segment();
        let page = offset / seg.page_size();
        let in_page = offset % seg.page_size();
        CowVar {
            cell: self,
            offset,
            len,
            frame: seg.frames.as_ptr().wrapping_add(page),
            page,
            in_page,
            room: (seg.page_size() - in_page).min(seg.len.saturating_sub(offset)),
        }
    }
}

/// One variable of a rank's [`CowSegment`] ([`CowCell::var`]): its place
/// and extent, and its first page and that page's frame-table entry. A
/// word that fits in the page is read with a frame-table load and one
/// load; the optimizer may hoist neither out of a loop, since a write
/// between two reads may repoint the entry. A write to a page already
/// written this epoch checks the page's stamp and stores through the
/// frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CowVar {
    cell: *const CowCell,
    offset: usize,
    len: usize,
    frame: *const *const u8,
    page: usize,
    /// Where the variable starts in its first page.
    in_page: usize,
    /// Bytes of that page, and of the segment, from the variable on.
    room: usize,
}

impl CowVar {
    #[inline(always)]
    fn segment(self) -> &'static mut CowSegment {
        // SAFETY: the cell outlives the handle and is used under its
        // contract (CowCell::var).
        unsafe { (*self.cell).segment() }
    }

    /// Whether a `T` at the variable lies in one page of the segment at
    /// its alignment (every frame is [`FRAME_ALIGN`]-aligned).
    #[inline(always)]
    fn fits<T: Word>(self) -> bool {
        size_of::<T>() <= self.room && self.in_page.is_multiple_of(align_of::<T>())
    }

    /// The word at the variable.
    #[inline(always)]
    pub fn load<T: Word>(self) -> T {
        if !self.fits::<T>() {
            let mut v = T::default();
            self.read_bytes(word_bytes(&mut v));
            return v;
        }
        // SAFETY: the word fits: it lies inside the segment, so `frame`
        // is its page's live entry (CowVar is built only by CowCell::var),
        // and inside that page, whose frame holds it at its alignment.
        unsafe {
            let frame = self.frame.read_volatile();
            (frame.add(self.in_page) as *const T).read_volatile()
        }
    }

    /// Store `v` at the variable: through the frame when its page was
    /// written this epoch, else through [`CowSegment::write`].
    #[inline(always)]
    pub fn store<T: Word>(self, mut v: T, on_fault: impl FnMut(u32, usize)) {
        let tracker = &self.segment().tracker;
        if self.fits::<T>() && tracker.page_epoch[self.page] == tracker.epoch {
            // SAFETY: a page stamped in the current epoch (>= 1) is
            // private, so its frame is its backing slot, which holds the
            // word (as in `load`).
            unsafe {
                let frame = self.frame.read_volatile() as *mut u8;
                return (frame.add(self.in_page) as *mut T).write_volatile(v);
            }
        }
        self.write_bytes(word_bytes(&mut v), on_fault)
    }

    /// [`CowSegment::read`] at the variable.
    #[inline(always)]
    pub fn read_bytes(self, out: &mut [u8]) {
        self.segment().read(self.offset, out)
    }

    /// [`CowSegment::write`] at the variable.
    #[inline(always)]
    pub fn write_bytes(self, bytes: &[u8], on_fault: impl FnMut(u32, usize)) {
        self.segment().write(self.offset, bytes, on_fault)
    }

    /// [`CowSegment::writable_ptr`] over the variable's extent.
    pub fn writable_ptr(self, on_fault: impl FnMut(u32, usize)) -> *mut u8 {
        self.segment().writable_ptr(self.offset, self.len, on_fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn template(len: usize, ps: usize) -> Arc<PageTemplate> {
        let bytes: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        Arc::new(PageTemplate::new(&bytes, ps))
    }

    struct Backing {
        buf: Box<[u8]>,
    }

    fn segment(tpl: &Arc<PageTemplate>) -> (CowSegment, Backing) {
        let mut backing = Backing {
            buf: vec![0u8; tpl.len().max(1)].into_boxed_slice(),
        };
        let seg = unsafe { CowSegment::new(tpl.clone(), backing.buf.as_mut_ptr()) };
        (seg, backing)
    }

    /// `seg.write`, returning the pages it faulted.
    fn write(seg: &mut CowSegment, offset: usize, bytes: &[u8]) -> Vec<u32> {
        let mut faulted = Vec::new();
        seg.write(offset, bytes, |p, _| faulted.push(p));
        faulted
    }

    /// `seg.writable_ptr`, with the pages it faulted.
    fn writable_ptr(seg: &mut CowSegment, offset: usize, len: usize) -> (*mut u8, Vec<u32>) {
        let mut faulted = Vec::new();
        let p = seg.writable_ptr(offset, len, |p, _| faulted.push(p));
        (p, faulted)
    }

    #[test]
    fn template_pads_final_page_and_reads_across_pages() {
        let tpl = template(100, 64);
        assert_eq!(tpl.n_pages(), 2);
        assert_eq!(tpl.len(), 100);
        assert_eq!(tpl.page(1).len(), 64, "pages padded to page_size");
        let mut out = vec![0u8; 40];
        tpl.read(50, &mut out); // spans the page boundary at 64
        let expect: Vec<u8> = (50..90).map(|i| (i % 251) as u8).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn reads_come_from_template_until_first_write() {
        let tpl = template(256, 64);
        let (seg, _b) = segment(&tpl);
        let mut out = vec![0u8; 256];
        seg.read(0, &mut out);
        let expect: Vec<u8> = (0..256).map(|i| (i % 251) as u8).collect();
        assert_eq!(out, expect);
        assert_eq!(seg.tracker().faults(), 0, "reads never fault");
        assert_eq!(seg.tracker().dirty_count(), 0, "nothing privatized");
    }

    #[test]
    fn first_write_faults_the_page_and_preserves_surrounding_bytes() {
        let tpl = template(256, 64);
        let (mut seg, _b) = segment(&tpl);
        let faulted = write(&mut seg, 70, &[0xAA, 0xBB]);
        assert_eq!(faulted, vec![1], "write inside page 1 privatizes it");
        assert_eq!(seg.tracker().faults(), 1);
        assert!(seg.tracker().is_dirty(1) && !seg.tracker().is_dirty(0));
        let mut out = vec![0u8; 4];
        seg.read(69, &mut out);
        // byte 69 from the copied template; 70/71 the written values; 72 template
        // bytes 69 and 72 hold the template pattern `i % 251` (= 69, 72 here)
        assert_eq!(out, vec![69u8, 0xAA, 0xBB, 72u8]);
    }

    #[test]
    fn warm_writes_do_not_refault() {
        let tpl = template(256, 64);
        let (mut seg, _b) = segment(&tpl);
        assert_eq!(write(&mut seg, 0, &[1]), vec![0]);
        assert_eq!(write(&mut seg, 1, &[2]), Vec::<u32>::new());
        assert_eq!(seg.tracker().faults(), 1);
    }

    #[test]
    fn spanning_write_faults_every_covered_page() {
        let tpl = template(256, 64);
        let (mut seg, _b) = segment(&tpl);
        let faulted = write(&mut seg, 60, &[7u8; 140]); // pages 0,1,2,3 partially
        assert_eq!(faulted, vec![0, 1, 2, 3]);
        let mut out = vec![0u8; 140];
        seg.read(60, &mut out);
        assert_eq!(out, vec![7u8; 140]);
    }

    #[test]
    fn writable_ptr_faults_covering_pages_and_is_stable() {
        let tpl = template(256, 64);
        let (mut seg, _b) = segment(&tpl);
        let (p, faulted) = writable_ptr(&mut seg, 100, 8);
        assert_eq!(faulted, vec![1]);
        unsafe { p.write(0xCD) };
        let mut out = [0u8; 1];
        seg.read(100, &mut out);
        assert_eq!(out[0], 0xCD);
        let (p2, faulted2) = writable_ptr(&mut seg, 100, 8);
        assert_eq!(p, p2);
        assert!(faulted2.is_empty());
    }

    #[test]
    fn materialize_is_sticky_and_matches_eager_copy() {
        let tpl = template(300, 64);
        let (mut seg, b) = segment(&tpl);
        write(&mut seg, 10, &[9, 9, 9]);
        seg.materialize();
        assert!(seg.is_materialized());
        // The backing store now equals an eager copy with the write applied.
        let mut eager: Vec<u8> = (0..300).map(|i| (i % 251) as u8).collect();
        eager[10..13].copy_from_slice(&[9, 9, 9]);
        assert_eq!(&b.buf[..300], &eager[..]);
        // Sticky: external mutation of a shared page survives a re-call.
        let corrupted = b.buf[200];
        unsafe { seg.base().add(200).write(corrupted.wrapping_add(1)) };
        seg.materialize();
        assert_eq!(b.buf[200], corrupted.wrapping_add(1));
        // Materialization is not divergence.
        assert_eq!(seg.tracker().dirty_count(), 1);
        assert_eq!(seg.tracker().faults(), 1);
    }

    #[test]
    fn epoch_stamps_track_writes_per_checkpoint_epoch() {
        let tpl = template(512, 64);
        let (mut seg, _b) = segment(&tpl);
        assert_eq!(seg.tracker().epoch(), 1);
        write(&mut seg, 0, &[1]); // page 0, epoch 1
        write(&mut seg, 130, &[1]); // page 2, epoch 1
        let e1: Vec<usize> = seg.tracker().pages_dirty_since(1).collect();
        assert_eq!(e1, vec![0, 2]);
        assert_eq!(seg.advance_epoch(), 2);
        // nothing written in epoch 2 yet
        assert_eq!(seg.tracker().pages_dirty_since(2).count(), 0);
        // a warm write to an already-private page re-stamps it
        write(&mut seg, 1, &[9]);
        let e2: Vec<usize> = seg.tracker().pages_dirty_since(2).collect();
        assert_eq!(e2, vec![0], "warm write must dirty the page in the new epoch");
        // the ever-dirty floor still sees both pages
        let all: Vec<usize> = seg.tracker().pages_dirty_since(1).collect();
        assert_eq!(all, vec![0, 2]);
        assert_eq!(seg.tracker().page_epoch[2], 1);
        assert_eq!(seg.tracker().page_epoch[0], 2);
        assert_eq!(seg.tracker().page_epoch[7], 0, "never-written page has epoch 0");
    }

    #[test]
    fn vars_load_through_the_frame_and_warm_stores_restamp_each_epoch() {
        let tpl = template(256, 64);
        let (seg, _b) = segment(&tpl);
        let cell = CowCell::new(seg);
        // SAFETY: `cell` outlives the handles; this thread alone uses it.
        let var = |offset| unsafe { cell.var(offset, 8) };
        // SAFETY: as above, and no other reference to the segment is live.
        let seg = || unsafe { cell.segment() };
        let word = |i: usize| u64::from_ne_bytes(std::array::from_fn(|b| ((i + b) % 251) as u8));
        let (a, b, across) = (var(8), var(16), var(60));
        assert_eq!(a.load::<u64>(), word(8), "a shared page reads the template");
        assert_eq!(across.load::<u64>(), word(60), "a word across pages 0 and 1");
        let mut faulted = Vec::new();
        a.store(5u64, |p, _| faulted.push(p));
        assert_eq!((faulted, a.load::<u64>()), (vec![0], 5), "a cold store faults");
        seg().advance_epoch();
        let no_fault = |_, _| panic!("a store to a private page must not fault");
        b.store(6u64, no_fault);
        let e2: Vec<usize> = seg().tracker().pages_dirty_since(2).collect();
        assert_eq!(e2, vec![0], "the first store in a new epoch stamps its page");
        a.store(7u64, no_fault); // stamped this epoch: stored through the frame
        let mut faulted = Vec::new();
        across.store(u64::MAX, |p, _| faulted.push(p));
        assert_eq!(faulted, vec![1], "a straddling store faults its second page");
        assert_eq!(across.load::<u64>(), u64::MAX);
        assert_eq!((a.load::<u64>(), b.load::<u64>()), (7, 6));
        assert_eq!(var(250).load::<i32>(), i32::from_ne_bytes([250, 0, 1, 2]), "misaligned");
        assert_eq!(var(252).load::<i32>(), i32::from_ne_bytes([1, 2, 3, 4]));
    }

    #[test]
    fn writable_ptr_stamps_covered_pages() {
        let tpl = template(256, 64);
        let (mut seg, _b) = segment(&tpl);
        write(&mut seg, 0, &[1]);
        seg.advance_epoch();
        let (_p, faulted) = writable_ptr(&mut seg, 0, 8);
        assert!(faulted.is_empty(), "warm pointer grant must not refault");
        let e2: Vec<usize> = seg.tracker().pages_dirty_since(2).collect();
        assert_eq!(e2, vec![0], "pointer grant conservatively re-stamps");
    }

    #[test]
    fn snapshot_reads_through_without_materializing() {
        let tpl = template(300, 64);
        let (mut seg, b) = segment(&tpl);
        write(&mut seg, 10, &[9, 9, 9]);
        let snap = seg.snapshot();
        let mut eager: Vec<u8> = (0..300).map(|i| (i % 251) as u8).collect();
        eager[10..13].copy_from_slice(&[9, 9, 9]);
        assert_eq!(snap, eager, "snapshot == eager copy with writes applied");
        assert!(!seg.is_materialized(), "snapshot must not materialize");
        // shared pages of the backing store stay untouched (still zero)
        assert_eq!(b.buf[128], 0, "shared page slots must stay untouched");
        assert_eq!(seg.tracker().dirty_count(), 1);
    }

    #[test]
    fn delta_pages_since_returns_read_through_page_bytes() {
        let tpl = template(300, 64); // 5 pages, last extent 44
        let (mut seg, _b) = segment(&tpl);
        write(&mut seg, 290, &[5, 5]); // page 4 (partial extent)
        seg.advance_epoch();
        write(&mut seg, 70, &[7]); // page 1, epoch 2
        let delta = seg.delta_pages_since(2);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].0, 1);
        assert_eq!(delta[0].1.len(), 64);
        assert_eq!(delta[0].1[6], 7);
        let full = seg.delta_pages_since(1);
        assert_eq!(full.len(), 2);
        assert_eq!(full[1].0, 4);
        assert_eq!(full[1].1.len(), 44, "final page trimmed to extent");
        assert_eq!(full[1].1[34..36], [5, 5]);
    }

    #[test]
    fn dirty_tracker_enumerates_pages() {
        let tpl = template(512, 64);
        let (mut seg, _b) = segment(&tpl);
        write(&mut seg, 0, &[1]);
        write(&mut seg, 130, &[1]);
        write(&mut seg, 500, &[1]);
        let dirty: Vec<usize> = seg.tracker().dirty_pages().collect();
        assert_eq!(dirty, vec![0, 2, 7]);
        assert_eq!(seg.tracker().dirty_count(), 3);
    }
}
