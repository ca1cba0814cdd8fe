//! A loaded instance of a program binary: segments in memory.
//!
//! Loading mirrors what `ld.so` does for a PIE shared object:
//!
//! 1. map the code segment (here: a pinned [`Region`] filled with a NOP
//!    pattern — the bytes are opaque, only addresses and sizes matter),
//! 2. map the data segment right after it conceptually, initialize
//!    `.data` from the binary and zero `.bss`,
//! 3. build the GOT: one absolute address per extern-visible global and
//!    per function,
//! 4. record the TLS initialization template,
//! 5. run C++ static constructors — which may heap-allocate and store
//!    data/function pointers into globals *before any privatization can
//!    intercept them* (the PIEglobals hazard of §3.3).
//!
//! Every pointer the loader or the ctors store is also recorded as a
//! [`Reloc`], which is the ground truth the `ScanPolicy::Relocations`
//! fixup strategy uses (the "more robust method unaffected by false
//! positives" the paper plans); the conservative memory scan strategy
//! deliberately ignores these records and re-discovers pointers by range
//! matching, exactly like the shipping implementation.

use crate::binary::ProgramBinary;
use crate::loader::NamespaceId;
use pvr_isomalloc::{Region, RegionKind};
use std::sync::Arc;

/// What `dl_iterate_phdr` reports for one loaded object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentAddrs {
    pub code_base: usize,
    pub code_len: usize,
    pub data_base: usize,
    pub data_len: usize,
}

impl SegmentAddrs {
    pub fn contains_code(&self, addr: usize) -> bool {
        addr >= self.code_base && addr < self.code_base + self.code_len
    }

    pub fn contains_data(&self, addr: usize) -> bool {
        addr >= self.data_base && addr < self.data_base + self.data_len
    }
}

/// A heap allocation made by a static constructor at load time.
pub struct CtorHeapAlloc {
    buf: Box<[u8]>,
}

impl CtorHeapAlloc {
    pub fn base(&self) -> usize {
        self.buf.as_ptr() as usize
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Where a stored pointer points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelocTarget {
    /// Into the code segment (function pointer / vtable slot).
    Code { offset: usize },
    /// Into the data segment (global-to-global pointer).
    Data { offset: usize },
    /// Into a constructor heap allocation.
    CtorHeap { alloc: usize, offset: usize },
}

/// Record of a pointer-sized value stored into the data segment whose
/// value is an address (i.e. would need rebasing if the segments move).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reloc {
    /// Byte offset within the data segment where the pointer lives.
    pub data_offset: usize,
    pub target: RelocTarget,
}

/// An in-memory instance of a program binary.
pub struct LoadedImage {
    pub binary: Arc<ProgramBinary>,
    code: Region,
    data: Region,
    /// The Global Offset Table: absolute addresses, one per GOT slot.
    got: Box<[u64]>,
    tls_template: Vec<u8>,
    ctor_heap: Vec<CtorHeapAlloc>,
    relocs: Vec<Reloc>,
    namespace: NamespaceId,
}

impl LoadedImage {
    /// Load `binary` into memory (the `dlopen` work).
    pub fn load(binary: Arc<ProgramBinary>, namespace: NamespaceId) -> LoadedImage {
        let layout = &binary.layout;

        // 1. code segment: opaque bytes; 0x90 = x86 NOP, a nod to realism.
        let code = Region::new_zeroed(RegionKind::CodeSegment, layout.code_size);
        unsafe {
            std::ptr::write_bytes(code.base_mut(), 0x90, layout.code_size);
        }

        // 2. data segment: .data inits + zeroed .bss.
        let mut data = Region::new_zeroed(RegionKind::DataSegment, layout.data_size);
        for (name, sym) in &layout.data_syms {
            let var = binary.spec.var(name).expect("layout/spec symbol mismatch");
            let init_len = var.init.len().min(sym.size);
            data.as_mut_slice()[sym.offset..sym.offset + init_len]
                .copy_from_slice(&var.init[..init_len]);
        }

        // 3. the GOT.
        let code_base = code.base() as u64;
        let data_base = data.base() as u64;
        let mut got = vec![0u64; layout.got_len].into_boxed_slice();
        for (name, &slot) in &layout.got_slots {
            got[slot] = data_base + layout.data_syms[name].offset as u64;
        }
        for (name, &slot) in &layout.got_fn_slots {
            got[slot] = code_base + layout.fn_syms[name].offset as u64;
        }

        // 4. TLS template.
        let mut tls_template = vec![0u8; layout.tls_size];
        for (name, sym) in &layout.tls_syms {
            let var = binary.spec.var(name).expect("layout/spec symbol mismatch");
            let init_len = var.init.len().min(sym.size);
            tls_template[sym.offset..sym.offset + init_len]
                .copy_from_slice(&var.init[..init_len]);
        }

        let mut img = LoadedImage {
            binary,
            code,
            data,
            got,
            tls_template,
            ctor_heap: Vec::new(),
            relocs: Vec::new(),
            namespace,
        };

        // 5. static constructors run as part of dlopen.
        img.run_ctors();
        img
    }

    fn run_ctors(&mut self) {
        let binary = self.binary.clone();
        let layout = &binary.layout;
        let code_base = self.code.base() as u64;
        let data_base = self.data.base() as u64;

        for ctor in &binary.spec.ctors {
            // heap allocations + pointers to them
            for (i, (&bytes, global)) in ctor
                .heap_allocs
                .iter()
                .zip(&ctor.store_ptr_into)
                .enumerate()
            {
                let fill = (self.ctor_heap.len() as u8).wrapping_add(i as u8);
                let buf = vec![fill; bytes].into_boxed_slice();
                let addr = buf.as_ptr() as u64;
                let alloc_index = self.ctor_heap.len();
                self.ctor_heap.push(CtorHeapAlloc { buf });
                let sym = layout
                    .data_syms
                    .get(global)
                    .unwrap_or_else(|| panic!("ctor target `{global}` not a data symbol"));
                assert!(sym.size >= 8, "pointer target must be >= 8 bytes");
                self.write_data_u64(sym.offset, addr);
                self.relocs.push(Reloc {
                    data_offset: sym.offset,
                    target: RelocTarget::CtorHeap {
                        alloc: alloc_index,
                        offset: 0,
                    },
                });
            }
            // function pointers (vtable-slot model)
            for (global, func) in &ctor.store_fn_ptr_into {
                let gsym = layout.data_syms[global.as_str()];
                let fsym = layout.fn_syms[func.as_str()];
                self.write_data_u64(gsym.offset, code_base + fsym.offset as u64);
                self.relocs.push(Reloc {
                    data_offset: gsym.offset,
                    target: RelocTarget::Code {
                        offset: fsym.offset,
                    },
                });
            }
            // data-to-data pointers
            for (dst, src) in &ctor.store_data_ptr_into {
                let dsym = layout.data_syms[dst.as_str()];
                let ssym = layout.data_syms[src.as_str()];
                self.write_data_u64(dsym.offset, data_base + ssym.offset as u64);
                self.relocs.push(Reloc {
                    data_offset: dsym.offset,
                    target: RelocTarget::Data {
                        offset: ssym.offset,
                    },
                });
            }
        }
    }

    fn write_data_u64(&mut self, offset: usize, v: u64) {
        self.data.as_mut_slice()[offset..offset + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Absolute address of a Global/Static variable in this image's data
    /// segment.
    pub fn data_addr_of(&self, name: &str) -> Option<*mut u8> {
        let sym = self.binary.layout.data_syms.get(name)?;
        Some(unsafe { self.data.base_mut().add(sym.offset) })
    }

    /// Offset of a ThreadLocal variable within the TLS block.
    pub fn tls_offset_of(&self, name: &str) -> Option<usize> {
        Some(self.binary.layout.tls_syms.get(name)?.offset)
    }

    pub fn segment_addrs(&self) -> SegmentAddrs {
        SegmentAddrs {
            code_base: self.code.base() as usize,
            code_len: self.code.len(),
            data_base: self.data.base() as usize,
            data_len: self.data.len(),
        }
    }

    pub fn code_region(&self) -> &Region {
        &self.code
    }

    pub fn data_region(&self) -> &Region {
        &self.data
    }

    pub fn got(&self) -> &[u64] {
        &self.got
    }

    pub fn tls_template(&self) -> &[u8] {
        &self.tls_template
    }

    pub fn relocs(&self) -> &[Reloc] {
        &self.relocs
    }

    pub fn ctor_heap(&self) -> &[CtorHeapAlloc] {
        &self.ctor_heap
    }
}

impl std::fmt::Debug for LoadedImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadedImage")
            .field("binary", &self.binary.path)
            .field("namespace", &self.namespace)
            .field("segments", &self.segment_addrs())
            .field("relocs", &self.relocs.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::link;
    use crate::spec::{CtorSpec, FunctionSpec, GlobalSpec, ImageSpec, VarClass};

    fn sample_image() -> LoadedImage {
        let spec = ImageSpec::builder("img")
            .var(GlobalSpec::new("counter", 8, VarClass::Global).with_init(&42u64.to_le_bytes()))
            .global("vtable_slot", 8)
            .global("heap_ptr", 8)
            .global("link_ptr", 8)
            .static_var("hidden", 8)
            .thread_local("scratch", 8)
            .function(FunctionSpec::new("combine", 256))
            .ctor(
                CtorSpec::new("init")
                    .alloc_into(128, "heap_ptr")
                    .fn_ptr_into("vtable_slot", "combine")
                    .data_ptr_into("link_ptr", "counter"),
            )
            .code_padding(4096)
            .build();
        LoadedImage::load(link(spec), NamespaceId::BASE)
    }

    /// The u64 stored in data variable `name`.
    fn read_u64(img: &LoadedImage, name: &str) -> u64 {
        unsafe { (img.data_addr_of(name).unwrap() as *const u64).read_unaligned() }
    }

    #[test]
    fn data_initialized() {
        let img = sample_image();
        assert_eq!(read_u64(&img, "counter"), 42);
        assert_eq!(read_u64(&img, "hidden"), 0);
    }

    #[test]
    fn got_points_into_segments() {
        let img = sample_image();
        let seg = img.segment_addrs();
        let slots = &img.binary.layout.got_slots;
        let slot = slots["counter"];
        let addr = img.got()[slot] as usize;
        assert!(seg.contains_data(addr));
        assert_eq!(addr, img.data_addr_of("counter").unwrap() as usize);
        // statics have no GOT slot
        assert!(!slots.contains_key("hidden"));
    }

    #[test]
    fn ctor_effects_recorded_as_relocs() {
        let img = sample_image();
        assert_eq!(img.relocs().len(), 3);
        let seg = img.segment_addrs();
        // vtable slot holds a code address
        let v = read_u64(&img, "vtable_slot") as usize;
        assert!(seg.contains_code(v));
        let combine = img.binary.fn_offset_of("combine").unwrap();
        assert_eq!(v, seg.code_base + combine);
        // heap_ptr holds a ctor-heap address
        let h = read_u64(&img, "heap_ptr") as usize;
        assert_eq!(h, img.ctor_heap()[0].base());
        assert_eq!(img.ctor_heap()[0].len(), 128);
        // link_ptr points at counter
        let l = read_u64(&img, "link_ptr") as usize;
        assert_eq!(l, img.data_addr_of("counter").unwrap() as usize);
    }

    #[test]
    fn two_loads_have_disjoint_segments() {
        let spec = ImageSpec::builder("x").global("g", 8).build();
        let bin = link(spec);
        let a = LoadedImage::load(bin.clone(), NamespaceId::BASE);
        let b = LoadedImage::load(bin, NamespaceId(1));
        let sa = a.segment_addrs();
        let sb = b.segment_addrs();
        assert!(!sa.contains_data(sb.data_base));
        assert!(!sa.contains_code(sb.code_base));
        // writing one does not affect the other
        unsafe {
            *(a.data_addr_of("g").unwrap() as *mut u64) = 7;
        }
        assert_eq!(read_u64(&b, "g"), 0);
        assert_eq!(read_u64(&a, "g"), 7);
    }

    #[test]
    fn fn_reverse_lookup() {
        // Reverse lookup runs on code offsets, which every loaded copy of
        // the binary shares.
        let img = sample_image();
        let off = img.binary.fn_offset_of("combine").unwrap();
        assert_eq!(img.binary.fn_at(off), Some(("combine", 0)));
        assert_eq!(img.binary.fn_at(off + 10), Some(("combine", 10)));
        assert_eq!(img.binary.fn_at(off + 50_000), None);
        assert!(img.binary.callable_at(off).is_none(), "none registered");
    }

    #[test]
    fn tls_template_has_inits() {
        let spec = ImageSpec::builder("tls")
            .var(
                GlobalSpec::new("tl", 8, VarClass::ThreadLocal)
                    .with_init(&99u64.to_le_bytes()),
            )
            .build();
        let img = LoadedImage::load(link(spec), NamespaceId::BASE);
        assert_eq!(img.tls_template().len(), 8);
        assert_eq!(
            u64::from_le_bytes(img.tls_template()[..8].try_into().unwrap()),
            99
        );
        assert_eq!(img.tls_offset_of("tl"), Some(0));
    }
}
