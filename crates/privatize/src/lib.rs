//! # pvr-privatize — automatic privatization of global program state
//!
//! A program that mutates global or static variables cannot be virtualized
//! as-is: every MPI rank running as a user-level thread in one OS process
//! would share the same variable (the Fig. 2/3 bug in the paper, where two
//! virtualized ranks both print the last writer's rank number).
//! *Privatization* gives each virtual rank its own copy of that state.
//!
//! This crate implements every method the paper surveys or contributes,
//! behind one [`Privatizer`] interface:
//!
//! | Method | Mechanism | Migration | SMP | Automation |
//! |---|---|---|---|---|
//! | [`Method::Unprivatized`] | nothing — exhibits the bug | — | — | — |
//! | [`Method::ManualRefactor`] | per-rank state struct | yes | yes | poor |
//! | [`Method::Photran`] | source-to-source (Fortran) | yes | yes | Fortran only |
//! | [`Method::Swapglobals`] | swap the GOT per context switch | yes | **no** | no statics |
//! | [`Method::TlsGlobals`] | tag vars `thread_local`, swap TLS pointer | yes | yes | user tags vars |
//! | [`Method::MpcPrivatize`] | compiler auto-tags everything TLS | **no** | yes | good |
//! | [`Method::PipGlobals`] | `dlmopen` the PIE per rank (namespaces) | **no** | limited | good |
//! | [`Method::FsGlobals`] | copy binary per rank on shared FS, `dlopen` | **no** | yes | good |
//! | [`Method::PieGlobals`] | copy segments via Isomalloc + pointer fixup | **yes** | yes | good |
//!
//! Variable accesses in application code go through [`VarAccess`] handles
//! whose addressing mode matches the method's real machine-level cost:
//! direct dereference (unprivatized, PIP/FS/PIE data), one extra
//! indirection through the per-PE TLS register ([`regs`]), or a GOT load
//! (Swapglobals). The Fig. 6/7 benchmarks measure these for real.

pub mod access;
pub mod env;
pub mod matrix;
pub mod methods;
pub mod probe;
pub mod rank;
pub mod regs;

pub use access::{Access, VarAccess, WithAccess};
pub use env::{Compiler, CompilerFamily, Linker, LinkerFamily, PrivatizeEnv, Toolchain};
pub use methods::create_privatizer;
pub use probe::{probe_method, Capability, RunShape};
pub use rank::{CtxAction, RankInstance};

use std::fmt;
use std::time::Duration;

/// All privatization methods discussed by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// No privatization: ranks share all globals (the baseline, and the
    /// source of the Fig. 2/3 correctness bug).
    Unprivatized,
    /// Manual code refactoring: all global state moved into a per-rank
    /// structure passed through the call chain (§2.3.1).
    ManualRefactor,
    /// Photran source-to-source refactoring — same runtime shape as
    /// manual refactoring, produced automatically for Fortran (§2.3.2).
    Photran,
    /// Swap the ELF Global Offset Table at each context switch (§2.3.3).
    Swapglobals,
    /// User-tagged `thread_local` variables + TLS-pointer swap at context
    /// switch (§2.3.4).
    TlsGlobals,
    /// MPC's `-fmpc-privatize`: the compiler treats every global/static
    /// as `thread_local` (§2.3.5).
    MpcPrivatize,
    /// `dlmopen` the PIE binary into a fresh linker namespace per rank
    /// (§3.1, first contribution).
    PipGlobals,
    /// Copy the PIE binary per rank onto a shared filesystem and `dlopen`
    /// each copy (§3.2, second contribution).
    FsGlobals,
    /// Copy the PIE code+data segments per rank through Isomalloc and fix
    /// up pointers; combined with TLSglobals for TLS variables (§3.3,
    /// third contribution — the production-worthy method).
    PieGlobals,
    /// PIEglobals' segment model made page-granular and copy-on-write
    /// (§6 future work): ranks share the template data segment read-only
    /// and a simulated fault handler privatizes a page into rank memory
    /// on first write, deduplicating never-written state across ranks.
    CowGlobals,
}

impl Method {
    /// The methods with runtime implementations in this crate (everything
    /// except the purely qualitative matrix rows).
    pub const ALL: &'static [Method] = &[
        Method::Unprivatized,
        Method::ManualRefactor,
        Method::Photran,
        Method::Swapglobals,
        Method::TlsGlobals,
        Method::MpcPrivatize,
        Method::PipGlobals,
        Method::FsGlobals,
        Method::PieGlobals,
        Method::CowGlobals,
    ];

    /// The methods compared in the paper's performance evaluation
    /// (§4: baseline, TLSglobals, and the three new runtime methods).
    pub const EVALUATED: &'static [Method] = &[
        Method::Unprivatized,
        Method::TlsGlobals,
        Method::PipGlobals,
        Method::FsGlobals,
        Method::PieGlobals,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Method::Unprivatized => "baseline",
            Method::ManualRefactor => "manual-refactor",
            Method::Photran => "photran",
            Method::Swapglobals => "swapglobals",
            Method::TlsGlobals => "tlsglobals",
            Method::MpcPrivatize => "-fmpc-privatize",
            Method::PipGlobals => "pipglobals",
            Method::FsGlobals => "fsglobals",
            Method::PieGlobals => "pieglobals",
            Method::CowGlobals => "cowglobals",
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors setting up or applying privatization.
#[derive(Debug)]
pub enum PrivatizeError {
    /// The method cannot be used in this environment (wrong compiler,
    /// linker, libc, missing shared FS, SMP-mode conflict, ...).
    Unsupported { method: Method, reason: String },
    /// Dynamic loader failure (namespace exhaustion, non-PIE binary...).
    Dl(pvr_progimage::DlError),
    /// Shared filesystem failure (out of space...).
    Fs(pvr_progimage::FsError),
    /// Rank memory allocation failure.
    Alloc(pvr_isomalloc::AllocError),
}

impl fmt::Display for PrivatizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrivatizeError::Unsupported { method, reason } => {
                write!(f, "{method} unsupported: {reason}")
            }
            PrivatizeError::Dl(e) => write!(f, "loader: {e}"),
            PrivatizeError::Fs(e) => write!(f, "shared fs: {e}"),
            PrivatizeError::Alloc(e) => write!(f, "isomalloc: {e}"),
        }
    }
}

impl std::error::Error for PrivatizeError {}

impl From<pvr_progimage::DlError> for PrivatizeError {
    fn from(e: pvr_progimage::DlError) -> Self {
        PrivatizeError::Dl(e)
    }
}

impl From<pvr_progimage::FsError> for PrivatizeError {
    fn from(e: pvr_progimage::FsError) -> Self {
        PrivatizeError::Fs(e)
    }
}

impl From<pvr_isomalloc::AllocError> for PrivatizeError {
    fn from(e: pvr_isomalloc::AllocError) -> Self {
        PrivatizeError::Alloc(e)
    }
}

/// Result of translating a privatized address back to its original
/// location (`pieglobalsfind`, §3.3's debugging aid).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FindResult {
    /// The rank whose private copy contains the queried address.
    pub rank: usize,
    /// The equivalent address in the originally loaded image.
    pub original_addr: usize,
    /// Symbol covering the address, if any, plus offset within it.
    pub symbol: Option<(String, usize)>,
    /// Which segment the address belongs to.
    pub segment: &'static str,
}

/// Copy-on-write accounting for one privatizer (one simulated OS
/// process), reported by [`Privatizer::cow_stats`]. The runtime sums
/// these across processes into its run-level tallies and dedup audit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CowStats {
    /// Ranks instantiated by this privatizer.
    pub ranks: u64,
    /// Pages per rank data segment (identical for every rank).
    pub total_pages: u64,
    /// Simulated page size in bytes.
    pub page_size: u64,
    /// Simulated page faults taken across this process's ranks.
    pub page_faults: u64,
    /// Privatized (diverged) pages across this process's ranks.
    pub pages_privatized: u64,
    /// Bitmask over page indices: bit `i` of word `i / 64` is set when
    /// *any* rank in this process faulted page `i`. Unioning the masks
    /// across processes yields the dedup audit's diverged-page set.
    pub faulted_page_union: Vec<u64>,
    /// Ranks whose COW backing store was materialized into a full
    /// segment copy. Materialization permanently defeats page sharing,
    /// so checkpoint packing must keep this at zero (it reads through
    /// the page table instead) — the dedup-audit regression guard.
    pub materialized_ranks: u64,
}

/// Read-through dirty-page extraction from one rank's COW page table,
/// returned by [`Privatizer::cow_delta_pages`]. The page payloads come
/// straight from the page table (backing store for private pages), so
/// collecting a delta never materializes the segment.
#[derive(Debug, Clone)]
pub struct CowDeltaPages {
    /// Base address of the rank's COW backing region — identifies which
    /// region of the rank's packed image these pages patch.
    pub seg_base: usize,
    /// Simulated page size the indices are expressed in.
    pub page_size: usize,
    /// `(page index, page bytes)` for every page written since the
    /// requested epoch floor; the final page may be partial.
    pub pages: Vec<(u32, Vec<u8>)>,
    /// The epoch floor the *next* delta capture over this rank should
    /// use (the epoch was advanced by this call).
    pub next_since: u64,
}

/// One privatization strategy instantiated for one (simulated) OS process.
///
/// A method decides where each rank's copy of the program's state lives;
/// symbol lookups do not depend on it. Every copy shares the binary's
/// layout, so function name → code offset → behaviour (how `MPI_Op`s
/// survive distinct code copies, §3.3) is asked of
/// [`pvr_progimage::ProgramBinary`] (`fn_offset_of`, `fn_at`,
/// `callable_at`), never of a privatizer.
///
/// `Sync` because the runtime lends its privatizers to every worker of an
/// epoch; the one caller that reaches them from a lane (the guards'
/// segment scan) runs on a single worker.
pub trait Privatizer: Send + Sync {
    fn method(&self) -> Method;

    /// Create the per-rank instance: allocate/duplicate whatever the
    /// method requires, into `mem` when the state should migrate with the
    /// rank. Called once per virtual rank at startup.
    fn instantiate_rank(
        &mut self,
        rank: usize,
        mem: &mut pvr_isomalloc::RankMemory,
    ) -> Result<RankInstance, PrivatizeError>;

    /// Whether ranks privatized by this method can migrate between
    /// address spaces (Table 3's "Migration Support" column).
    fn supports_migration(&self) -> bool;

    /// Whether [`Self::instantiate_rank`] touches only this privatizer's
    /// own state plus freshly allocated rank memory — no shared
    /// filesystem writes, no process-shared loader mutation — so
    /// *different processes'* startups may run concurrently. The runtime
    /// uses this to parallelize per-rank segment copies across simulated
    /// OS processes. Conservative default: `false`.
    fn parallel_startup_safe(&self) -> bool {
        false
    }

    /// Simulated I/O time accrued during startup (FSglobals); zero for
    /// in-memory methods. Real (measured) time is the caller's job.
    fn simulated_startup_cost(&self) -> Duration {
        Duration::ZERO
    }

    /// `pieglobalsfind`: translate a privatized address back to the
    /// original image for debugging. Only PIEglobals implements this.
    fn find_original(&self, _addr: usize) -> Option<FindResult> {
        None
    }

    /// Bytes of segment copies made per rank (startup accounting).
    fn per_rank_copied_bytes(&self) -> usize {
        0
    }

    /// Hierarchical-local-storage block for PE `local_pe` of this
    /// process, if the method maintains PE-level storage (MPC HLS \[21\]).
    /// The scheduler installs it alongside the rank's registers at each
    /// context switch.
    fn pe_block(&self, _local_pe: usize) -> Option<*mut u8> {
        None
    }

    /// The privatized data-segment copy backing `rank`'s globals, if the
    /// method duplicates whole segments (PIP/FS/PIEglobals). The runtime's
    /// segment-integrity audit checksums this range at barriers to detect
    /// cross-rank global bleed. `None` for methods without a per-rank
    /// segment copy (or an unknown rank).
    fn rank_data_segment(&self, _rank: usize) -> Option<(*const u8, usize)> {
        None
    }

    /// Copy-on-write accounting for the dedup audit and RunReport
    /// tallies. `None` for methods without a page-granular segment model.
    fn cow_stats(&self) -> Option<CowStats> {
        None
    }

    /// Read-through whole-segment view of `rank`'s COW data segment:
    /// `(backing region base address, segment bytes)` — template bytes
    /// for shared pages, backing bytes for private ones. The runtime
    /// packs these bytes *in place of* the backing region's live memory,
    /// so packing never materializes the segment. `None` for methods
    /// without a COW segment (pack live memory as usual).
    fn cow_segment_snapshot(&self, _rank: usize) -> Option<(usize, Vec<u8>)> {
        None
    }

    /// Extract `rank`'s COW pages written in epoch `since` or later and
    /// advance the write epoch (the extraction *is* the capture — the
    /// returned `next_since` floors the next one). `None` for methods
    /// without a COW segment: the runtime falls back to scanning.
    fn cow_delta_pages(&mut self, _rank: usize, _since: u64) -> Option<CowDeltaPages> {
        None
    }

    /// Advance `rank`'s COW write epoch without extracting pages — used
    /// when a *base* (full) checkpoint image captures everything anyway.
    /// Returns the new current epoch, or 0 when the method has no COW
    /// segment for `rank`.
    fn cow_advance_epoch(&mut self, _rank: usize) -> u64 {
        0
    }
}
