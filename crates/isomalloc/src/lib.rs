//! # pvr-isomalloc — migratable rank memory
//!
//! AMPI's *Isomalloc* allocator (inspired by the PM² thread-migration
//! scheme) is what makes rank migration fully automatic: every virtual
//! rank's stack and heap are allocated out of a slice of virtual address
//! space that is reserved *at the same addresses on every node*. Migrating
//! a rank is then a plain byte copy — every pointer into the rank's stack
//! or heap remains valid at the destination, with no user serialization
//! code.
//!
//! ## What is simulated, and why it is faithful
//!
//! In this reproduction all simulated "nodes" and "OS processes" live in
//! one real address space, so the Isomalloc invariant ("same VA range
//! before and after migration") holds trivially: rank memory is allocated
//! in *pinned* regions ([`Region`]) whose base address never changes for
//! their lifetime, and migration transfers *ownership* of those regions.
//! To keep the measured costs honest, migration still performs the real
//! byte movement the paper's Fig. 8 measures: [`RankMemory::pack`] copies
//! every live region into a contiguous wire buffer (a real memcpy of
//! heap + stack + TLS segment + — under PIEglobals — code/data segments),
//! and [`RankMemory::unpack_into`] copies it back out. The simulated
//! network then charges latency/bandwidth for the buffer's size.
//!
//! ## Contents
//!
//! * [`Region`] — a pinned, tagged allocation (heap chunk, ULT stack, TLS
//!   segment, code/data segment copy).
//! * [`Arena`] — a growable heap built from pinned chunks with a first-fit
//!   free list; per-rank user heap allocations come from here.
//! * [`RankMemory`] — the full migratable memory image of one rank.
//! * [`checksum64`] — the one integrity seal used for images, deltas,
//!   messages and segment audits.

#[macro_use]
mod mutant;

pub mod arena;
pub mod checksum;
pub mod rank_memory;
pub mod region;

pub use arena::{AllocError, Arena, ArenaStats, GuardViolation, IsoPtr, POISON};
pub use checksum::{checksum64, fold64};
pub use rank_memory::{ImageDelta, MigrationBuffer, RankMemory, RankMemoryStats, RegionDiffPlan};
pub use region::{Region, RegionKind};
