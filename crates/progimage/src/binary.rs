//! "Linking": turning an [`ImageSpec`] into an on-disk program binary with
//! a concrete segment layout.
//!
//! PIE binaries access global data IP-relatively and place the data
//! segment immediately after the code segment — the property PIPglobals /
//! FSglobals / PIEglobals all exploit ("as soon as execution jumps into
//! the PIE binary, any global variables referenced within it appear
//! privatized"). The layout computed here fixes, once per program, the
//! offset of every symbol; every loaded instance of the binary places the
//! same symbol at `segment_base + offset`.

use crate::spec::{Callable, ImageSpec, VarClass};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Offset of a symbol within its segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymbolOffset {
    pub offset: usize,
    pub size: usize,
    pub class: VarClass,
    /// Index into `ImageSpec::vars` (or `functions` for function symbols).
    pub index: usize,
}

/// Concrete layout of the binary's segments.
#[derive(Debug, Clone)]
pub struct SegmentLayout {
    /// Data-segment offsets for Global and Static variables.
    pub data_syms: HashMap<String, SymbolOffset>,
    /// TLS-template offsets for ThreadLocal variables.
    pub tls_syms: HashMap<String, SymbolOffset>,
    /// Code-segment offsets for functions.
    pub fn_syms: HashMap<String, SymbolOffset>,
    pub data_size: usize,
    pub tls_size: usize,
    pub code_size: usize,
    /// GOT slot index for each Global (NOT Static — statics bypass the
    /// GOT, which is precisely why Swapglobals cannot privatize them).
    pub got_slots: HashMap<String, usize>,
    /// GOT slots for functions (indirect calls).
    pub got_fn_slots: HashMap<String, usize>,
    pub got_len: usize,
}

fn align_up(x: usize, a: usize) -> usize {
    (x + a - 1) & !(a - 1)
}

/// A linked program binary — the artifact `dlopen` operates on.
///
/// Identity matters: the loader refuses to load *the same file* twice into
/// one namespace (returning the existing handle, as `dlopen` does), which
/// is why FSglobals must create distinct file copies per rank.
pub struct ProgramBinary {
    pub spec: Arc<ImageSpec>,
    pub layout: SegmentLayout,
    /// Unique identity of this "file" (distinct copies ⇒ distinct ids).
    file_id: u64,
    /// Path-like label for diagnostics.
    pub path: String,
}

static NEXT_FILE_ID: AtomicU64 = AtomicU64::new(1);

impl ProgramBinary {
    pub fn file_id(&self) -> u64 {
        self.file_id
    }

    /// Size of the binary file on disk: code + initialized data + headers.
    /// (What FSglobals must copy per rank.)
    pub fn file_size(&self) -> usize {
        // ELF headers + symbol/reloc tables, coarsely.
        let headers = 4096 + 64 * (self.spec.vars.len() + self.spec.functions.len());
        self.layout.code_size + self.layout.data_size + self.layout.tls_size + headers
    }

    /// Code-segment offset of function `name`. Every loaded copy of the
    /// binary places it at its own code base plus this offset, which is
    /// how `MPI_Op` user functions stay meaningful across ranks whose code
    /// lives at different addresses (§3.3).
    pub fn fn_offset_of(&self, name: &str) -> Option<usize> {
        Some(self.layout.fn_syms.get(name)?.offset)
    }

    /// The function whose code covers `offset`, and `offset`'s distance
    /// into it.
    pub fn fn_at(&self, offset: usize) -> Option<(&str, usize)> {
        self.layout
            .fn_syms
            .iter()
            .find(|(_, s)| offset >= s.offset && offset < s.offset + s.size)
            .map(|(n, s)| (n.as_str(), offset - s.offset))
    }

    /// The behaviour registered for the function covering `offset`.
    pub fn callable_at(&self, offset: usize) -> Option<Callable> {
        self.spec.function(self.fn_at(offset)?.0)?.callable.clone()
    }

    /// Produce a copy of this binary with a new file identity (the
    /// FSglobals `cp` operation).
    pub fn copy_as(&self, path: &str) -> Arc<ProgramBinary> {
        Arc::new(ProgramBinary {
            spec: self.spec.clone(),
            layout: self.layout.clone(),
            file_id: NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed),
            path: path.to_string(),
        })
    }
}

impl std::fmt::Debug for ProgramBinary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgramBinary")
            .field("name", &self.spec.name)
            .field("path", &self.path)
            .field("file_id", &self.file_id)
            .field("code_size", &self.layout.code_size)
            .field("data_size", &self.layout.data_size)
            .finish()
    }
}

/// Link an [`ImageSpec`] into a [`ProgramBinary`].
pub fn link(spec: ImageSpec) -> Arc<ProgramBinary> {
    let spec = Arc::new(spec);
    let mut data_syms = HashMap::new();
    let mut tls_syms = HashMap::new();
    let mut fn_syms = HashMap::new();
    let mut got_slots = HashMap::new();
    let mut got_fn_slots = HashMap::new();

    let mut data_off = 0usize;
    let mut tls_off = 0usize;
    let mut got_len = 0usize;

    for (index, v) in spec.vars.iter().enumerate() {
        match v.class {
            VarClass::Global | VarClass::Static => {
                data_off = align_up(data_off, v.align);
                data_syms.insert(
                    v.name.clone(),
                    SymbolOffset {
                        offset: data_off,
                        size: v.size,
                        class: v.class,
                        index,
                    },
                );
                data_off += v.size;
                if v.class == VarClass::Global {
                    got_slots.insert(v.name.clone(), got_len);
                    got_len += 1;
                }
            }
            VarClass::ThreadLocal => {
                tls_off = align_up(tls_off, v.align);
                tls_syms.insert(
                    v.name.clone(),
                    SymbolOffset {
                        offset: tls_off,
                        size: v.size,
                        class: v.class,
                        index,
                    },
                );
                tls_off += v.size;
            }
        }
    }

    // Functions: laid out in declaration order, 16-byte aligned, then the
    // opaque code padding.
    let mut code_off = 0usize;
    for (index, f) in spec.functions.iter().enumerate() {
        code_off = align_up(code_off, 16);
        fn_syms.insert(
            f.name.clone(),
            SymbolOffset {
                offset: code_off,
                size: f.code_size,
                class: VarClass::Global,
                index,
            },
        );
        got_fn_slots.insert(f.name.clone(), got_len);
        got_len += 1;
        code_off += f.code_size;
    }
    code_off += spec.code_padding;

    let layout = SegmentLayout {
        data_syms,
        tls_syms,
        fn_syms,
        data_size: align_up(data_off.max(8), 8),
        tls_size: align_up(tls_off, 8),
        code_size: align_up(code_off.max(16), 16),
        got_slots,
        got_fn_slots,
        got_len,
    };

    let path = format!("/build/{}", spec.name);
    Arc::new(ProgramBinary {
        spec,
        layout,
        file_id: NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed),
        path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FunctionSpec, GlobalSpec, ImageSpec, VarClass};

    fn sample() -> Arc<ProgramBinary> {
        link(
            ImageSpec::builder("t")
                .global("a", 4)
                .global("b", 8)
                .static_var("s", 4)
                .thread_local("t1", 16)
                .function(FunctionSpec::new("f", 100))
                .function(FunctionSpec::new("g", 50))
                .code_padding(1000)
                .build(),
        )
    }

    #[test]
    fn symbols_do_not_overlap() {
        let b = sample();
        let mut spans: Vec<(usize, usize)> = b
            .layout
            .data_syms
            .values()
            .map(|s| (s.offset, s.offset + s.size))
            .collect();
        spans.sort();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0);
        }
        assert!(b.layout.data_size >= spans.last().unwrap().1);
    }

    #[test]
    fn alignment_honored() {
        let b = link(
            ImageSpec::builder("t")
                .var(GlobalSpec::new("c1", 1, VarClass::Global))
                .var(GlobalSpec::new("d8", 8, VarClass::Global))
                .build(),
        );
        let d8 = b.layout.data_syms["d8"];
        assert_eq!(d8.offset % 8, 0);
    }

    #[test]
    fn statics_have_no_got_slot() {
        let b = sample();
        assert!(b.layout.got_slots.contains_key("a"));
        assert!(b.layout.got_slots.contains_key("b"));
        assert!(!b.layout.got_slots.contains_key("s"));
        assert!(b.layout.got_fn_slots.contains_key("f"));
        assert_eq!(b.layout.got_len, 4); // a, b, f, g
    }

    #[test]
    fn tls_separate_from_data() {
        let b = sample();
        assert!(b.layout.tls_syms.contains_key("t1"));
        assert!(!b.layout.data_syms.contains_key("t1"));
        assert_eq!(b.layout.tls_size, 16);
    }

    #[test]
    fn functions_laid_out_and_padded() {
        let b = sample();
        let f = b.layout.fn_syms["f"];
        let g = b.layout.fn_syms["g"];
        assert_eq!(f.offset, 0);
        assert_eq!(g.offset % 16, 0);
        assert!(g.offset >= f.offset + f.size);
        assert!(b.layout.code_size >= g.offset + g.size + 1000);
    }

    #[test]
    fn copies_get_fresh_identity() {
        let b = sample();
        let c = b.copy_as("/fs/copy0");
        assert_ne!(b.file_id(), c.file_id());
        assert_eq!(b.layout.data_size, c.layout.data_size);
        assert_eq!(c.path, "/fs/copy0");
    }

    #[test]
    fn file_size_includes_code_and_data() {
        let b = sample();
        assert!(b.file_size() > b.layout.code_size + b.layout.data_size);
    }
}
