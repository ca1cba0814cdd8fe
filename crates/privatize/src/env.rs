//! The (simulated) build and execution environment a privatization method
//! must cope with — compilers, linkers, libc, shared filesystem, SMP mode.
//!
//! Portability across exactly these axes is the paper's central
//! evaluation criterion (Tables 1 and 3): TLSglobals needs
//! GCC-or-Clang≥10's `-mno-tls-direct-seg-refs`; Swapglobals needs
//! `ld` ≤ 2.23 (or a patched newer `ld`) and cannot run in SMP mode;
//! `-fmpc-privatize` needs a patched compiler; PIPglobals needs glibc's
//! non-POSIX `dlmopen` (patched for >12 namespaces); FSglobals needs a
//! shared filesystem; PIEglobals needs glibc extensions stable since 2005.

use parking_lot::Mutex;
use pvr_progimage::{DynLoader, ProgramBinary, SharedFs};
use std::sync::Arc;

/// Compiler families relevant to the methods' requirements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompilerFamily {
    Gcc,
    Clang,
    Intel,
    Other,
}

#[derive(Debug, Clone, Copy)]
pub struct Compiler {
    pub family: CompilerFamily,
    /// (major, minor)
    pub version: (u32, u32),
    /// Patched with MPC's `-fmpc-privatize` support.
    pub mpc_patched: bool,
}

impl Compiler {
    /// Whether `-mno-tls-direct-seg-refs` (the TLSglobals prerequisite)
    /// is available: GCC (any modern), or Clang ≥ 10.
    pub fn supports_no_tls_direct_seg_refs(&self) -> bool {
        match self.family {
            CompilerFamily::Gcc => true,
            CompilerFamily::Clang => self.version.0 >= 10,
            _ => false,
        }
    }

    /// Whether `-fmpc-privatize` is available: Intel compiler, or a
    /// patched GCC.
    pub fn supports_mpc_privatize(&self) -> bool {
        matches!(self.family, CompilerFamily::Intel)
            || (self.family == CompilerFamily::Gcc && self.mpc_patched)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkerFamily {
    GnuLd,
    Gold,
    Lld,
}

#[derive(Debug, Clone, Copy)]
pub struct Linker {
    pub family: LinkerFamily,
    pub version: (u32, u32),
    /// Patched to not optimize out GOT pointer references (the
    /// Swapglobals requirement for ld ≥ 2.24).
    pub got_patch: bool,
}

impl Linker {
    /// Whether Swapglobals' GOT-reference requirement holds.
    pub fn preserves_got_references(&self) -> bool {
        match self.family {
            LinkerFamily::GnuLd => {
                self.version < (2, 24) || self.got_patch
            }
            _ => false,
        }
    }
}

/// The toolchain and system a run is built for.
#[derive(Debug, Clone, Copy)]
pub struct Toolchain {
    pub compiler: Compiler,
    pub linker: Linker,
    /// GNU/Linux with glibc (dlmopen, dl_iterate_phdr available).
    pub has_glibc: bool,
    /// PiP's patched glibc installed (lifts the namespace limit).
    pub glibc_patched: bool,
}

impl Toolchain {
    /// The paper's evaluation platform: Bridges-2 with GCC 10.2.0 and a
    /// modern binutils `ld` — on which, notably, Swapglobals no longer
    /// works ("we were unable to get Swapglobals working on this
    /// system").
    pub fn bridges2() -> Toolchain {
        Toolchain {
            compiler: Compiler {
                family: CompilerFamily::Gcc,
                version: (10, 2),
                mpc_patched: false,
            },
            linker: Linker {
                family: LinkerFamily::GnuLd,
                version: (2, 30),
                got_patch: false,
            },
            has_glibc: true,
            glibc_patched: false,
        }
    }

    /// A legacy system where Swapglobals still works (old `ld`).
    pub fn legacy_ld() -> Toolchain {
        let mut t = Toolchain::bridges2();
        t.linker.version = (2, 23);
        t
    }

    /// Bridges-2 with PiP's patched glibc installed.
    pub fn with_patched_glibc() -> Toolchain {
        let mut t = Toolchain::bridges2();
        t.glibc_patched = true;
        t
    }

    /// A macOS-like system: clang, no glibc, no dlmopen.
    pub fn macos() -> Toolchain {
        Toolchain {
            compiler: Compiler {
                family: CompilerFamily::Clang,
                version: (14, 0),
                mpc_patched: false,
            },
            linker: Linker {
                family: LinkerFamily::Lld,
                version: (14, 0),
                got_patch: false,
            },
            has_glibc: false,
            glibc_patched: false,
        }
    }
}

impl Default for Toolchain {
    fn default() -> Self {
        Toolchain::bridges2()
    }
}

/// Everything a privatizer needs about its (simulated) OS process.
pub struct PrivatizeEnv {
    /// The application binary (already "compiled and linked").
    pub binary: Arc<ProgramBinary>,
    /// This process's dynamic loader.
    pub loader: DynLoader,
    /// The cluster's shared filesystem, if one is mounted.
    pub shared_fs: Option<Arc<Mutex<SharedFs>>>,
    pub toolchain: Toolchain,
    /// Scheduler threads in this OS process (SMP mode when > 1).
    pub pes_per_process: usize,
    /// Number of OS processes concurrently hammering the shared FS
    /// (affects FSglobals' contention cost).
    pub concurrent_processes: usize,
}

impl PrivatizeEnv {
    pub fn new(binary: Arc<ProgramBinary>) -> PrivatizeEnv {
        let toolchain = Toolchain::default();
        PrivatizeEnv {
            binary,
            loader: if toolchain.glibc_patched {
                DynLoader::with_patched_glibc()
            } else {
                DynLoader::new()
            },
            shared_fs: Some(Arc::new(Mutex::new(SharedFs::new()))),
            toolchain,
            pes_per_process: 1,
            concurrent_processes: 1,
        }
    }

    pub fn with_toolchain(mut self, t: Toolchain) -> Self {
        self.toolchain = t;
        self.loader = if t.glibc_patched {
            DynLoader::with_patched_glibc()
        } else {
            DynLoader::new()
        };
        self
    }

    pub fn with_pes(mut self, pes: usize) -> Self {
        self.pes_per_process = pes;
        self
    }

    pub fn with_shared_fs(mut self, fs: Option<Arc<Mutex<SharedFs>>>) -> Self {
        self.shared_fs = fs;
        self
    }

    pub fn with_concurrent_processes(mut self, n: usize) -> Self {
        self.concurrent_processes = n;
        self
    }

    /// SMP mode: multiple PEs (user-level schedulers) per OS process.
    pub fn smp_mode(&self) -> bool {
        self.pes_per_process > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bridges2_breaks_swapglobals() {
        let t = Toolchain::bridges2();
        assert!(!t.linker.preserves_got_references());
        assert!(t.compiler.supports_no_tls_direct_seg_refs());
        assert!(!t.compiler.supports_mpc_privatize());
        assert!(t.has_glibc);
    }

    #[test]
    fn legacy_ld_allows_swapglobals() {
        assert!(Toolchain::legacy_ld().linker.preserves_got_references());
    }

    #[test]
    fn got_patch_restores_swapglobals_on_new_ld() {
        let mut t = Toolchain::bridges2();
        t.linker.got_patch = true;
        assert!(t.linker.preserves_got_references());
    }

    #[test]
    fn old_clang_lacks_tls_flag() {
        let mut t = Toolchain::macos();
        t.compiler.version = (9, 0);
        assert!(!t.compiler.supports_no_tls_direct_seg_refs());
        t.compiler.version = (10, 0);
        assert!(t.compiler.supports_no_tls_direct_seg_refs());
    }

    #[test]
    fn intel_supports_mpc() {
        let c = Compiler {
            family: CompilerFamily::Intel,
            version: (19, 0),
            mpc_patched: false,
        };
        assert!(c.supports_mpc_privatize());
    }
}
