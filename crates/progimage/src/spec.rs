//! Program description: what the application's "source code" declares.
//!
//! Applications in this workspace do not use Rust `static`s for their
//! mutable program state — that would be privatized by the Rust compiler's
//! normal rules and nothing interesting would happen. Instead they declare
//! their globals in an [`ImageSpec`], and access them through the active
//! privatization method (see `pvr-privatize`). This mirrors how the paper
//! treats an application: a bag of global/static/TLS variables plus code.

use std::sync::Arc;

/// Whether a variable is written after initialization.
///
/// The paper notes that globals written only once to the same value on all
/// ranks are safe to share; `ReadOnly` models `const`/such write-once data
/// and lets methods skip privatizing it (manual refactoring, Swapglobals
/// and TLSglobals leave it in the shared image).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mutability {
    Mutable,
    ReadOnly,
}

/// Storage class of a variable — determines which mechanisms can privatize
/// it (e.g. Swapglobals covers globals but *not* function-local statics,
/// because those are not referenced through the GOT).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarClass {
    /// Extern-visible global: referenced through the GOT in non-PIE code.
    Global,
    /// Function-local `static` (or Fortran `save` variable): lives in the
    /// data segment but is addressed directly, bypassing the GOT.
    Static,
    /// Tagged `thread_local` / `__thread` / OpenMP `threadprivate`:
    /// lives in the TLS segment.
    ThreadLocal,
}

/// One declared variable.
#[derive(Debug, Clone)]
pub struct GlobalSpec {
    pub name: String,
    pub size: usize,
    pub align: usize,
    /// Initial bytes; zero-filled to `size` (i.e. `.data` vs `.bss`).
    pub init: Vec<u8>,
    pub class: VarClass,
    pub mutability: Mutability,
}

impl GlobalSpec {
    pub fn new(name: &str, size: usize, class: VarClass) -> GlobalSpec {
        GlobalSpec {
            name: name.to_string(),
            size,
            align: size.next_power_of_two().clamp(1, 16),
            init: Vec::new(),
            class,
            mutability: Mutability::Mutable,
        }
    }

    pub fn with_init(mut self, init: &[u8]) -> Self {
        assert!(init.len() <= self.size);
        self.init = init.to_vec();
        self
    }

    /// Kept for tests: input language.
    pub fn read_only(mut self) -> Self {
        self.mutability = Mutability::ReadOnly;
        self
    }
}

/// The behavior a function body can carry in the model. Real computation
/// in the apps is Rust code; what the *image* needs is (a) a size in bytes
/// for code-segment accounting and (b) an optional callable so function
/// *pointers* (reduction operators, callbacks) can be resolved through an
/// image base + offset, as PIEglobals requires.
pub type Callable = Arc<dyn Fn(&[u8], &mut [u8]) + Send + Sync>;

/// One declared function.
#[derive(Clone)]
pub struct FunctionSpec {
    pub name: String,
    /// Machine-code size this function contributes to the code segment.
    pub code_size: usize,
    /// Optional behavior reachable via a function pointer (e.g. an MPI_Op
    /// user combine function).
    pub callable: Option<Callable>,
}

impl std::fmt::Debug for FunctionSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FunctionSpec")
            .field("name", &self.name)
            .field("code_size", &self.code_size)
            .field("has_callable", &self.callable.is_some())
            .finish()
    }
}

impl FunctionSpec {
    pub fn new(name: &str, code_size: usize) -> FunctionSpec {
        FunctionSpec {
            name: name.to_string(),
            code_size,
            callable: None,
        }
    }

    /// Kept for tests: input language.
    pub fn with_callable(mut self, c: Callable) -> Self {
        self.callable = Some(c);
        self
    }
}

/// A C++ static constructor: runs at load time (when `dlopen` returns),
/// *before* any privatization can intercept it — the exact hazard §3.3
/// describes. It may heap-allocate and store pointers (data pointers and
/// function pointers, as in classes with vtables) into globals.
#[derive(Debug, Clone)]
pub struct CtorSpec {
    pub name: String,
    /// Heap allocations to make, in bytes; a pointer to allocation `i` is
    /// stored into the global named by `store_ptr_into[i]` (which must be
    /// a Global/Static of pointer size).
    pub heap_allocs: Vec<usize>,
    pub store_ptr_into: Vec<String>,
    /// Globals into which the ctor stores a *function pointer* (vtable
    /// slot model): (global name, function name).
    pub store_fn_ptr_into: Vec<(String, String)>,
    /// Globals into which the ctor stores a pointer to *another global*
    /// (intra-data-segment pointer): (dst global, src global).
    pub store_data_ptr_into: Vec<(String, String)>,
}

impl CtorSpec {
    pub fn new(name: &str) -> CtorSpec {
        CtorSpec {
            name: name.to_string(),
            heap_allocs: Vec::new(),
            store_ptr_into: Vec::new(),
            store_fn_ptr_into: Vec::new(),
            store_data_ptr_into: Vec::new(),
        }
    }

    /// Kept for tests: input language.
    pub fn alloc_into(mut self, bytes: usize, global: &str) -> Self {
        self.heap_allocs.push(bytes);
        self.store_ptr_into.push(global.to_string());
        self
    }

    /// Kept for tests: input language.
    pub fn fn_ptr_into(mut self, global: &str, function: &str) -> Self {
        self.store_fn_ptr_into
            .push((global.to_string(), function.to_string()));
        self
    }

    /// Kept for tests: input language.
    pub fn data_ptr_into(mut self, dst: &str, src: &str) -> Self {
        self.store_data_ptr_into
            .push((dst.to_string(), src.to_string()));
        self
    }
}

/// Source language — some methods are language-specific (Photran is a
/// Fortran refactoring tool).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Language {
    C,
    Cxx,
    Fortran,
}

/// Complete description of a program to be "compiled and linked".
#[derive(Debug, Clone)]
pub struct ImageSpec {
    pub name: String,
    pub vars: Vec<GlobalSpec>,
    pub functions: Vec<FunctionSpec>,
    pub ctors: Vec<CtorSpec>,
    /// Extra code bytes beyond declared functions — models the bulk of a
    /// real application (ADCIRC: ~14 MB; Jacobi-3D: ~3 MB).
    pub code_padding: usize,
    /// Whether the program is compiled as a Position Independent
    /// Executable. The runtime methods require `pie = true`.
    pub pie: bool,
    pub language: Language,
    /// Whether the program links shared objects beyond libc — FSglobals
    /// does not support these ("shared objects are currently not
    /// supported by FSglobals").
    pub uses_shared_objects: bool,
}

impl ImageSpec {
    pub fn builder(name: &str) -> ImageSpecBuilder {
        ImageSpecBuilder {
            spec: ImageSpec {
                name: name.to_string(),
                vars: Vec::new(),
                functions: Vec::new(),
                ctors: Vec::new(),
                code_padding: 0,
                pie: true,
                language: Language::C,
                uses_shared_objects: false,
            },
        }
    }

    pub fn var(&self, name: &str) -> Option<&GlobalSpec> {
        self.vars.iter().find(|v| v.name == name)
    }

    pub fn function(&self, name: &str) -> Option<&FunctionSpec> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Total code-segment size.
    pub fn code_size(&self) -> usize {
        self.functions.iter().map(|f| f.code_size).sum::<usize>() + self.code_padding
    }
}

/// Fluent builder for [`ImageSpec`].
pub struct ImageSpecBuilder {
    spec: ImageSpec,
}

impl ImageSpecBuilder {
    pub fn global(mut self, name: &str, size: usize) -> Self {
        self.spec.vars.push(GlobalSpec::new(name, size, VarClass::Global));
        self
    }

    pub fn static_var(mut self, name: &str, size: usize) -> Self {
        self.spec.vars.push(GlobalSpec::new(name, size, VarClass::Static));
        self
    }

    pub fn thread_local(mut self, name: &str, size: usize) -> Self {
        self.spec
            .vars
            .push(GlobalSpec::new(name, size, VarClass::ThreadLocal));
        self
    }

    pub fn var(mut self, v: GlobalSpec) -> Self {
        self.spec.vars.push(v);
        self
    }

    pub fn function(mut self, f: FunctionSpec) -> Self {
        self.spec.functions.push(f);
        self
    }

    pub fn ctor(mut self, c: CtorSpec) -> Self {
        self.spec.ctors.push(c);
        self
    }

    pub fn code_padding(mut self, bytes: usize) -> Self {
        self.spec.code_padding = bytes;
        self
    }

    pub fn pie(mut self, pie: bool) -> Self {
        self.spec.pie = pie;
        self
    }

    pub fn language(mut self, lang: Language) -> Self {
        self.spec.language = lang;
        self
    }

    /// Kept for tests: input language.
    pub fn uses_shared_objects(mut self, v: bool) -> Self {
        self.spec.uses_shared_objects = v;
        self
    }

    pub fn build(self) -> ImageSpec {
        // Duplicate names are a "link error".
        let mut names: Vec<&str> = self.spec.vars.iter().map(|v| v.name.as_str()).collect();
        names.sort_unstable();
        for w in names.windows(2) {
            assert_ne!(w[0], w[1], "duplicate variable name: {}", w[0]);
        }
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_spec() {
        let spec = ImageSpec::builder("app")
            .global("my_rank", 4)
            .static_var("counter", 8)
            .thread_local("scratch", 16)
            .function(FunctionSpec::new("kernel", 4096))
            .code_padding(1 << 20)
            .build();
        assert_eq!(spec.vars.len(), 3);
        assert_eq!(spec.code_size(), 4096 + (1 << 20));
        assert_eq!(spec.var("my_rank").unwrap().class, VarClass::Global);
        assert_eq!(spec.var("counter").unwrap().class, VarClass::Static);
        assert_eq!(spec.var("scratch").unwrap().class, VarClass::ThreadLocal);
        assert!(spec.var("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate variable name")]
    fn duplicate_names_rejected() {
        let _ = ImageSpec::builder("app").global("x", 4).global("x", 8).build();
    }

    #[test]
    fn init_data_capped_by_size() {
        let g = GlobalSpec::new("v", 8, VarClass::Global).with_init(&[1, 2, 3]);
        assert_eq!(g.init, vec![1, 2, 3]);
        assert_eq!(g.size, 8);
    }

    #[test]
    fn default_alignment_reasonable() {
        assert_eq!(GlobalSpec::new("a", 1, VarClass::Global).align, 1);
        assert_eq!(GlobalSpec::new("b", 4, VarClass::Global).align, 4);
        assert_eq!(GlobalSpec::new("c", 8, VarClass::Global).align, 8);
        assert_eq!(GlobalSpec::new("d", 1024, VarClass::Global).align, 16);
    }
}
