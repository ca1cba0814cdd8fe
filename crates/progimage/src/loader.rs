//! Dynamic-loader simulator: `dlopen` / `dlmopen` / `dl_iterate_phdr`
//! with linker namespaces.
//!
//! glibc's `dlmopen(LM_ID_NEWLM, ...)` loads an object into a fresh linker
//! namespace, duplicating its code and data segments — the mechanism
//! Process-in-Process and PIPglobals rely on for privatization. glibc caps
//! the number of namespaces at a small compile-time constant (`DL_NNS` =
//! 16, several of which are unusable in practice), which is why PIP ships
//! a patched glibc and why PIPglobals "cannot support high degrees of
//! virtualization" without it. The default limit here is 12 usable
//! dlmopen namespaces; [`DynLoader::with_patched_glibc`] lifts it.

use crate::binary::ProgramBinary;
use crate::image::{LoadedImage, SegmentAddrs};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A linker namespace index (`Lmid_t`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NamespaceId(pub usize);

impl NamespaceId {
    /// `LM_ID_BASE` — the application's initial namespace.
    pub const BASE: NamespaceId = NamespaceId(0);
}

/// One linker namespace and the objects loaded into it.
#[derive(Debug, Default)]
pub struct Namespace {
    /// file_id → image (dlopen of an already-loaded file returns the
    /// existing image, like the real refcounted dlopen).
    images: HashMap<u64, Arc<LoadedImage>>,
}

/// Errors from the loader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DlError {
    /// `dlmopen` failed: all namespaces in use (unpatched glibc limit).
    NamespaceExhausted { limit: usize },
    /// The binary was not compiled as a Position Independent Executable;
    /// the runtime privatization methods cannot duplicate its segments.
    NotPie { binary: String },
}

impl fmt::Display for DlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DlError::NamespaceExhausted { limit } => write!(
                f,
                "dlmopen: maximum number of linker namespaces exhausted (limit {limit}; \
                 a patched glibc raises this)"
            ),
            DlError::NotPie { binary } => {
                write!(f, "{binary}: not compiled as a Position Independent Executable")
            }
        }
    }
}

impl std::error::Error for DlError {}

/// What `dl_iterate_phdr` reports per loaded object.
#[derive(Debug, Clone)]
pub struct PhdrInfo {
    pub file_id: u64,
    pub namespace: NamespaceId,
    pub segments: SegmentAddrs,
}

/// Namespaces usable by `dlmopen(LM_ID_NEWLM)` on an unpatched glibc —
/// the base namespace and internal uses consume the rest; the paper (and
/// the PiP project) report ~12 usable virtualized entities per process.
pub const GLIBC_USABLE_NAMESPACES: usize = 12;

/// The per-OS-process dynamic loader state.
pub struct DynLoader {
    namespaces: Vec<Namespace>,
    /// Max *additional* namespaces creatable via dlmopen.
    max_dlmopen_namespaces: usize,
    patched_glibc: bool,
}

impl DynLoader {
    /// A loader with stock-glibc limits.
    pub fn new() -> DynLoader {
        DynLoader {
            namespaces: vec![Namespace::default()], // LM_ID_BASE
            max_dlmopen_namespaces: GLIBC_USABLE_NAMESPACES,
            patched_glibc: false,
        }
    }

    /// A loader with PiP's patched glibc (effectively unbounded
    /// namespaces; PiP ships a glibc built with a large `DL_NNS`).
    pub fn with_patched_glibc() -> DynLoader {
        DynLoader {
            namespaces: vec![Namespace::default()],
            max_dlmopen_namespaces: 1 << 16,
            patched_glibc: true,
        }
    }

    /// Remaining `dlmopen` capacity.
    pub fn namespaces_remaining(&self) -> usize {
        self.max_dlmopen_namespaces - (self.namespaces.len() - 1)
    }

    /// `dlopen(path, RTLD_NOW)` into the base namespace. Re-opening the
    /// same file returns the already-loaded image (refcount semantics).
    pub fn dlopen(&mut self, binary: &Arc<ProgramBinary>) -> Result<Arc<LoadedImage>, DlError> {
        self.dlopen_in(binary, NamespaceId::BASE)
    }

    /// `dlopen` into a specific existing namespace.
    pub fn dlopen_in(
        &mut self,
        binary: &Arc<ProgramBinary>,
        ns: NamespaceId,
    ) -> Result<Arc<LoadedImage>, DlError> {
        if !binary.spec.pie {
            return Err(DlError::NotPie {
                binary: binary.path.clone(),
            });
        }
        let namespace = &mut self.namespaces[ns.0];
        if let Some(existing) = namespace.images.get(&binary.file_id()) {
            return Ok(existing.clone());
        }
        let img = Arc::new(LoadedImage::load(binary.clone(), ns));
        namespace.images.insert(binary.file_id(), img.clone());
        Ok(img)
    }

    /// `dlmopen(LM_ID_NEWLM, path, RTLD_NOW)`: load into a *fresh*
    /// namespace, duplicating all segments. Fails when the namespace
    /// budget is exhausted (unpatched glibc).
    pub fn dlmopen_newlm(
        &mut self,
        binary: &Arc<ProgramBinary>,
    ) -> Result<Arc<LoadedImage>, DlError> {
        if !binary.spec.pie {
            return Err(DlError::NotPie {
                binary: binary.path.clone(),
            });
        }
        if self.namespaces.len() > self.max_dlmopen_namespaces {
            return Err(DlError::NamespaceExhausted {
                limit: self.max_dlmopen_namespaces,
            });
        }
        let ns = NamespaceId(self.namespaces.len());
        self.namespaces.push(Namespace::default());
        self.dlopen_in(binary, ns)
    }

    /// `dl_iterate_phdr`: enumerate every loaded object's segments.
    /// PIEglobals calls this before and after its `dlopen` and diffs the
    /// two listings to find the new binary's code and data segments.
    pub fn dl_iterate_phdr(&self, mut f: impl FnMut(&PhdrInfo)) {
        for (ns_idx, ns) in self.namespaces.iter().enumerate() {
            for img in ns.images.values() {
                f(&PhdrInfo {
                    file_id: img.binary.file_id(),
                    namespace: NamespaceId(ns_idx),
                    segments: img.segment_addrs(),
                });
            }
        }
    }

    /// Snapshot of currently loaded (file_id, namespace) pairs — the
    /// "before" listing for PIEglobals' diffing.
    pub fn phdr_snapshot(&self) -> Vec<(u64, NamespaceId)> {
        let mut v = Vec::new();
        self.dl_iterate_phdr(|info| v.push((info.file_id, info.namespace)));
        v.sort();
        v
    }
}

impl Default for DynLoader {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for DynLoader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynLoader")
            .field("namespaces", &self.namespaces.len())
            .field("max_dlmopen", &self.max_dlmopen_namespaces)
            .field("patched_glibc", &self.patched_glibc)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::link;
    use crate::spec::ImageSpec;

    fn bin(name: &str) -> Arc<ProgramBinary> {
        link(ImageSpec::builder(name).global("g", 8).build())
    }

    #[test]
    fn dlopen_same_file_returns_same_image() {
        let mut ld = DynLoader::new();
        let b = bin("a");
        let i1 = ld.dlopen(&b).unwrap();
        let i2 = ld.dlopen(&b).unwrap();
        assert!(Arc::ptr_eq(&i1, &i2));
    }

    #[test]
    fn dlopen_distinct_copies_gives_distinct_images() {
        // The FSglobals mechanism: distinct file copies load separately.
        let mut ld = DynLoader::new();
        let b = bin("a");
        let c = b.copy_as("/fs/a.0");
        let i1 = ld.dlopen(&b).unwrap();
        let i2 = ld.dlopen(&c).unwrap();
        assert!(!Arc::ptr_eq(&i1, &i2));
        assert_ne!(
            i1.segment_addrs().data_base,
            i2.segment_addrs().data_base
        );
    }

    #[test]
    fn dlmopen_creates_namespaces_and_hits_glibc_limit() {
        let mut ld = DynLoader::new();
        let b = bin("a");
        let mut images = Vec::new();
        for _ in 0..GLIBC_USABLE_NAMESPACES {
            images.push(ld.dlmopen_newlm(&b).unwrap());
        }
        // every namespace got its own data segment
        let mut bases: Vec<usize> = images
            .iter()
            .map(|i| i.segment_addrs().data_base)
            .collect();
        bases.sort_unstable();
        bases.dedup();
        assert_eq!(bases.len(), GLIBC_USABLE_NAMESPACES);
        // the 13th fails on stock glibc
        match ld.dlmopen_newlm(&b) {
            Err(DlError::NamespaceExhausted { limit }) => {
                assert_eq!(limit, GLIBC_USABLE_NAMESPACES)
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn patched_glibc_lifts_the_limit() {
        let mut ld = DynLoader::with_patched_glibc();
        let b = bin("a");
        for _ in 0..100 {
            ld.dlmopen_newlm(&b).unwrap();
        }
        assert!(ld.namespaces_remaining() > 0);
    }

    #[test]
    fn non_pie_rejected() {
        let mut ld = DynLoader::new();
        let b = link(ImageSpec::builder("old").pie(false).global("g", 8).build());
        assert!(matches!(ld.dlopen(&b), Err(DlError::NotPie { .. })));
        assert!(matches!(ld.dlmopen_newlm(&b), Err(DlError::NotPie { .. })));
    }

    #[test]
    fn phdr_diff_identifies_new_load() {
        // PIEglobals' before/after diffing technique.
        let mut ld = DynLoader::new();
        let pre = ld.dlopen(&bin("runtime")).unwrap();
        let before = ld.phdr_snapshot();
        let app = bin("app");
        let img = ld.dlopen(&app).unwrap();
        let after = ld.phdr_snapshot();
        let new: Vec<_> = after
            .iter()
            .filter(|e| !before.contains(e))
            .collect();
        assert_eq!(new.len(), 1);
        assert_eq!(new[0].0, app.file_id());
        let _ = (pre, img);
    }
}
