//! Fixtures shared by more than one integration test.

use pvr_progimage::{link, CtorSpec, FunctionSpec, GlobalSpec, ImageSpec, ProgramBinary, VarClass};
use std::sync::Arc;

/// The 1 MiB array of [`data_image`] that the workloads touch.
pub const BIG: &str = "big_state";
pub const BIG_LEN: usize = 1 << 20;

/// A data-heavy program image: a nonzero 1 MiB global (`big_state`), a
/// function pointer and two dozen constructor-built heap objects, over
/// 2 MiB of code. The COW residency and checkpoint-size counts are
/// pinned against this image.
pub fn data_image() -> Arc<ProgramBinary> {
    let big = vec![0x5Au8; BIG_LEN];
    let mut b = ImageSpec::builder("data_image")
        .var(GlobalSpec::new(BIG, big.len(), VarClass::Global).with_init(&big))
        .var(GlobalSpec::new("gp", 8, VarClass::Global))
        .static_var("counter", 8)
        .function(FunctionSpec::new("combine", 512))
        .code_padding(2 << 20);
    let mut ctor = CtorSpec::new("init").fn_ptr_into("gp", "combine");
    for i in 0..24 {
        let name = format!("h{i}");
        b = b.var(GlobalSpec::new(&name, 8, VarClass::Global));
        ctor = ctor.alloc_into(2048, &name);
    }
    link(b.ctor(ctor).build())
}
