//! Capability probing: interrogate the environment *before any rank is
//! created* and predict, per method, whether a run of a given shape can
//! start at all.
//!
//! The paper's Tables 1/3 rate each method's portability qualitatively;
//! this module turns those rows into an executable check. The runtime
//! uses the verdicts twice:
//!
//! 1. at config-validation time, to reject a fallback chain that names a
//!    method the environment can *never* support ([`Capability::Unsupported`]);
//! 2. at startup, to skip methods whose *run-shape* prerequisites fail
//!    ([`Capability::ResourceLimited`]) — the namespace budget vs. the
//!    rank count, or filesystem capacity vs. binary size × rank count —
//!    and degrade to the next method in the chain.
//!
//! Probes are conservative predictions, not guarantees: a probe can pass
//! and rank N's `dlmopen`/`write_file` still fail (another job filled the
//! FS, say). The runtime therefore also degrades *mid-startup* when a
//! degradable error surfaces during rank instantiation.

use crate::env::{Compiler, PrivatizeEnv};
use crate::{Method, PrivatizeError};
use pvr_progimage::{DlError, Language};
use std::fmt;

/// Three-valued verdict from probing one method against one environment
/// and run shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Capability {
    /// All prerequisites hold for this run shape.
    Feasible,
    /// The environment supports the method, but this *run shape* exceeds
    /// a resource budget (namespaces, FS capacity). Degradation to the
    /// next method in the chain is the intended response.
    ResourceLimited { reason: String },
    /// The environment can never run this method: its prerequisites
    /// fail (no glibc, no shared FS, non-PIE binary, wrong language,
    /// compiler or linker, SMP conflict). Naming such a method in a
    /// fallback chain is a configuration error.
    Unsupported { reason: String },
}

impl Capability {
    pub fn is_feasible(&self) -> bool {
        matches!(self, Capability::Feasible)
    }

    pub fn is_unsupported(&self) -> bool {
        matches!(self, Capability::Unsupported { .. })
    }
}

impl fmt::Display for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Capability::Feasible => write!(f, "feasible"),
            Capability::ResourceLimited { reason } => {
                write!(f, "resource-limited: {reason}")
            }
            Capability::Unsupported { reason } => write!(f, "unsupported: {reason}"),
        }
    }
}

/// The shape of the run being probed — what the resource checks are
/// scaled against.
#[derive(Debug, Clone, Copy)]
pub struct RunShape {
    /// Virtual ranks that will be instantiated in ONE OS process (the
    /// namespace budget is per-process).
    pub ranks_per_process: usize,
    /// Virtual ranks across the whole job (the shared FS is job-wide).
    pub total_ranks: usize,
}

/// What `method` needs of `env` whatever the run's shape: the one
/// statement of each method's prerequisites. Every constructor calls it
/// before it loads anything, and [`probe_method`] rates a method whose
/// prerequisites fail [`Capability::Unsupported`].
pub(crate) fn prerequisites(method: Method, env: &PrivatizeEnv) -> Result<(), PrivatizeError> {
    let unsupported = |reason: String| Err(PrivatizeError::Unsupported { method, reason });
    let tc = &env.toolchain;
    let compiler = |c: &Compiler| format!("{:?} {}.{}", c.family, c.version.0, c.version.1);
    match method {
        Method::Unprivatized | Method::ManualRefactor => {}
        Method::Photran => {
            if env.binary.spec.language != Language::Fortran {
                return unsupported(format!(
                    "Photran refactors Fortran ASTs; {:?} programs are out of scope",
                    env.binary.spec.language
                ));
            }
        }
        Method::Swapglobals => {
            if !tc.linker.preserves_got_references() {
                return unsupported(format!(
                    "linker {:?} {}.{} optimizes out GOT pointer references \
                     (need GNU ld <= 2.23 or a patched ld >= 2.24)",
                    tc.linker.family, tc.linker.version.0, tc.linker.version.1
                ));
            }
            if env.smp_mode() {
                return unsupported(format!(
                    "only one GOT can be active per OS process, but SMP mode \
                     runs {} schedulers per process",
                    env.pes_per_process
                ));
            }
        }
        Method::TlsGlobals => {
            if !tc.compiler.supports_no_tls_direct_seg_refs() {
                return unsupported(format!(
                    "TLSglobals needs -mno-tls-direct-seg-refs (GCC, or Clang >= 10); have {}",
                    compiler(&tc.compiler)
                ));
            }
        }
        Method::MpcPrivatize => {
            if !tc.compiler.supports_mpc_privatize() {
                return unsupported(format!(
                    "-fmpc-privatize needs the Intel compiler or an MPC-patched GCC; have {}",
                    compiler(&tc.compiler)
                ));
            }
        }
        Method::PipGlobals => {
            if !tc.has_glibc {
                return unsupported("dlmopen is a glibc extension (GNU/Linux only)".to_string());
            }
        }
        Method::FsGlobals => {
            if env.shared_fs.is_none() {
                return unsupported("no shared filesystem mounted".to_string());
            }
            if env.binary.spec.uses_shared_objects {
                return unsupported(
                    "shared objects are not supported by FSglobals (each rank's \
                     dependency set would have to be copied and isolated)"
                        .to_string(),
                );
            }
        }
        Method::PieGlobals | Method::CowGlobals => {
            if !tc.has_glibc {
                return unsupported(
                    "requires glibc extensions (dl_iterate_phdr; stable since 2005)".to_string(),
                );
            }
        }
    }
    // Every method loads the binary, and the loader maps only a Position
    // Independent Executable.
    if !env.binary.spec.pie {
        return Err(PrivatizeError::Dl(DlError::NotPie {
            binary: env.binary.path.clone(),
        }));
    }
    Ok(())
}

/// Probe one method against an environment and run shape. Pure
/// prediction: nothing is loaded, copied, or allocated.
pub fn probe_method(method: Method, env: &PrivatizeEnv, shape: RunShape) -> Capability {
    match prerequisites(method, env) {
        Err(PrivatizeError::Unsupported { reason, .. }) => return Capability::Unsupported { reason },
        Err(e) => return Capability::Unsupported { reason: e.to_string() },
        Ok(()) => {}
    }
    let limited = |reason: String| Capability::ResourceLimited { reason };
    match method {
        Method::PipGlobals => {
            let budget = env.loader.namespaces_remaining();
            if shape.ranks_per_process > budget {
                return limited(format!(
                    "{} ranks per process exceed the {budget}-namespace dlmopen budget \
                     (stock glibc; a patched glibc lifts this)",
                    shape.ranks_per_process
                ));
            }
        }
        Method::FsGlobals => {
            let fs = env.shared_fs.as_ref().expect("prerequisites hold").lock();
            let file_size = env.binary.file_size();
            // One deployed original (unless already there) + one copy per
            // rank, job-wide.
            let deployed = format!("/scratch/{}", env.binary.spec.name);
            let mut needed = file_size.saturating_mul(shape.total_ranks);
            if !fs.exists(&deployed) {
                needed = needed.saturating_add(file_size);
            }
            let free = fs.bytes_free();
            if needed > free {
                return limited(format!(
                    "shared FS has {free} bytes free but {} ranks x {file_size}-byte \
                     binary needs {needed}",
                    shape.total_ranks
                ));
            }
        }
        // Segment copies (eager or page-granular) come from
        // Isomalloc-managed rank memory: no per-process cap to exhaust at
        // startup. The other methods have no shape-dependent budget.
        _ => {}
    }
    Capability::Feasible
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Toolchain;
    use parking_lot::Mutex;
    use pvr_progimage::{link, ImageSpec, SharedFs};
    use std::sync::Arc;

    fn bin() -> Arc<pvr_progimage::ProgramBinary> {
        link(
            ImageSpec::builder("probe-app")
                .global("g", 8)
                .code_padding(1 << 20)
                .build(),
        )
    }

    fn shape(per: usize, total: usize) -> RunShape {
        RunShape {
            ranks_per_process: per,
            total_ranks: total,
        }
    }

    #[test]
    fn pip_limited_by_namespace_budget_on_stock_glibc() {
        let env = PrivatizeEnv::new(bin());
        assert!(probe_method(Method::PipGlobals, &env, shape(12, 12)).is_feasible());
        assert!(matches!(
            probe_method(Method::PipGlobals, &env, shape(16, 16)),
            Capability::ResourceLimited { .. }
        ));
        let patched = PrivatizeEnv::new(bin()).with_toolchain(Toolchain::with_patched_glibc());
        assert!(probe_method(Method::PipGlobals, &patched, shape(64, 64)).is_feasible());
    }

    #[test]
    fn pip_unsupported_without_glibc() {
        let env = PrivatizeEnv::new(bin()).with_toolchain(Toolchain::macos());
        assert!(probe_method(Method::PipGlobals, &env, shape(2, 2)).is_unsupported());
    }

    #[test]
    fn fs_limited_by_capacity_and_unsupported_without_mount() {
        let b = bin();
        let file_size = b.file_size();
        // Room for the deploy + 4 copies only.
        let fs = Arc::new(Mutex::new(SharedFs::with_capacity(file_size * 5)));
        let env = PrivatizeEnv::new(b.clone()).with_shared_fs(Some(fs));
        assert!(probe_method(Method::FsGlobals, &env, shape(4, 4)).is_feasible());
        assert!(matches!(
            probe_method(Method::FsGlobals, &env, shape(8, 8)),
            Capability::ResourceLimited { .. }
        ));
        let unmounted = PrivatizeEnv::new(b).with_shared_fs(None);
        assert!(probe_method(Method::FsGlobals, &unmounted, shape(1, 1)).is_unsupported());
    }

    #[test]
    fn fs_probe_credits_an_existing_deploy() {
        let b = bin();
        let file_size = b.file_size();
        let fs = Arc::new(Mutex::new(SharedFs::with_capacity(file_size * 5)));
        fs.lock()
            .write_file("/scratch/probe-app", vec![0u8; file_size], 1)
            .unwrap();
        let env = PrivatizeEnv::new(b).with_shared_fs(Some(fs));
        // 4 copies still fit because the deploy is already paid for.
        assert!(probe_method(Method::FsGlobals, &env, shape(4, 4)).is_feasible());
    }

    #[test]
    fn non_pie_binary_sinks_all_runtime_methods() {
        let b = link(ImageSpec::builder("old").pie(false).global("g", 8).build());
        let env = PrivatizeEnv::new(b);
        for m in [Method::PipGlobals, Method::FsGlobals, Method::PieGlobals] {
            assert!(
                probe_method(m, &env, shape(2, 2)).is_unsupported(),
                "{m} must be unsupported for a non-PIE binary"
            );
        }
    }

    #[test]
    fn legacy_matrix_methods_probe_by_toolchain() {
        let env = PrivatizeEnv::new(bin());
        // bridges2: modern ld breaks Swapglobals, stock gcc lacks MPC.
        assert!(probe_method(Method::Swapglobals, &env, shape(2, 2)).is_unsupported());
        assert!(probe_method(Method::MpcPrivatize, &env, shape(2, 2)).is_unsupported());
        assert!(probe_method(Method::TlsGlobals, &env, shape(2, 2)).is_feasible());
        let smp = PrivatizeEnv::new(bin())
            .with_toolchain(Toolchain::legacy_ld())
            .with_pes(4);
        assert!(probe_method(Method::Swapglobals, &smp, shape(2, 2)).is_unsupported());
    }

    #[test]
    fn probe_rates_unsupported_exactly_what_the_constructors_refuse() {
        use crate::methods::{create_privatizer, Options};
        let spec = |name| ImageSpec::builder(name).global("g", 8);
        let binaries = [
            ("C", bin()),
            ("Fortran", link(spec("f").language(Language::Fortran).build())),
            ("C with shared objects", link(spec("so").uses_shared_objects(true).build())),
            ("non-PIE C", link(spec("old").pie(false).build())),
        ];
        let toolchains = [
            ("bridges2", Toolchain::bridges2()),
            ("macos", Toolchain::macos()),
            ("legacy_ld", Toolchain::legacy_ld()),
            ("with_patched_glibc", Toolchain::with_patched_glibc()),
        ];
        for &method in Method::ALL {
            for (lang, b) in &binaries {
                for (tc_name, tc) in &toolchains {
                    for (pes, mounted) in [(1, true), (1, false), (4, true), (4, false)] {
                        let env = || {
                            let fs = mounted.then(|| Arc::new(Mutex::new(SharedFs::new())));
                            PrivatizeEnv::new(b.clone())
                                .with_toolchain(*tc)
                                .with_pes(pes)
                                .with_shared_fs(fs)
                        };
                        let cap = probe_method(method, &env(), shape(pes, pes));
                        let refused = match create_privatizer(method, env(), Options::default()) {
                            Ok(_) => false,
                            Err(PrivatizeError::Unsupported { .. })
                            | Err(PrivatizeError::Dl(DlError::NotPie { .. })) => true,
                            Err(e) => panic!("{method} on {lang}/{tc_name}: {e}"),
                        };
                        assert_eq!(
                            cap.is_unsupported(),
                            refused,
                            "{method}, {lang} binary, {tc_name}, {pes} PEs/process, \
                             FS mounted {mounted}: probe says {cap}"
                        );
                    }
                }
            }
        }
    }
}
