//! # pvr-progimage — simulated PIE program images and dynamic loading
//!
//! The three privatization methods contributed by the paper (PIPglobals,
//! FSglobals, PIEglobals) all work by building the application as a
//! **Position Independent Executable** and duplicating its code and data
//! segments once per virtual rank. The mechanisms they manipulate are ELF
//! and glibc artifacts: program headers, the Global Offset Table, TLS
//! templates, `dlopen`/`dlmopen`/`dl_iterate_phdr`, linker
//! namespaces, and the shared filesystem.
//!
//! Reproducing that literally requires glibc internals this sandbox (and
//! safe Rust) cannot reach, so this crate models the artifacts explicitly
//! — faithfully enough that every decision point the paper describes is
//! exercised by real code:
//!
//! * [`spec::ImageSpec`] — the "source program": its global variables,
//!   function-local statics, `thread_local` variables, functions, C++
//!   static constructors, and total code size. Apps in `pvr-apps` declare
//!   their globals here instead of as Rust `static`s.
//! * [`binary::ProgramBinary`] — the "linked binary on disk": a segment
//!   layout assigning every symbol an offset, plus the file's byte size
//!   (real ADCIRC is ~14 MB of code; Jacobi-3D ~3 MB — both used by the
//!   Fig. 5/8 experiments). Its symbol lookups (function name → code
//!   offset → covering function and its behaviour) are the one place any
//!   method or the MPI layer asks, since every copy shares the layout.
//! * [`image::LoadedImage`] — an in-memory instance produced by the
//!   loader: pinned code and data segment regions, a GOT of absolute
//!   addresses, an initialized TLS template, relocation records, and the
//!   heap allocations made by static constructors (the pointer-fixup
//!   hazard PIEglobals must handle).
//! * [`loader::DynLoader`] — `dlopen`/`dlmopen` with linker namespaces,
//!   including glibc's hard namespace cap that limits PIPglobals without a
//!   patched glibc, and a `dl_iterate_phdr` equivalent.
//! * [`sharedfs::SharedFs`] — a shared-filesystem model with a
//!   latency/bandwidth cost accounting used by FSglobals' startup.
//!
//! The privatization strategies themselves live in `pvr-privatize`; this
//! crate only provides the substrate they manipulate.

pub mod binary;
pub mod image;
pub mod loader;
pub mod pages;
pub mod sharedfs;
pub mod spec;

pub use binary::{link, ProgramBinary, SegmentLayout, SymbolOffset};
pub use image::{CtorHeapAlloc, LoadedImage, Reloc, RelocTarget, SegmentAddrs};
pub use loader::{DlError, DynLoader, Namespace, NamespaceId, PhdrInfo};
pub use pages::{CowCell, CowSegment, DirtyTracker, PageTemplate, DEFAULT_PAGE_SIZE};
pub use sharedfs::{FsError, FsCostModel, SharedFs};
pub use spec::{
    CtorSpec, FunctionSpec, GlobalSpec, ImageSpec, ImageSpecBuilder, Language, Mutability,
    VarClass,
};
