//! Property tests for PIEglobals pointer fixup.
//!
//! For randomly generated program images (random globals, random ctor
//! pointer graphs), instantiating a rank must leave every recorded
//! relocation pointing into rank-owned memory, with the original value
//! recoverable by `pieglobalsfind` — for both fixup policies (the
//! conservative scan is a superset of the relocation records, so on
//! images without aliasing integers both agree).

use proptest::prelude::*;
use pvr_isomalloc::RankMemory;
use pvr_privatize::methods::{PieGlobals, ScanPolicy};
use pvr_privatize::{PrivatizeEnv, Privatizer};
use pvr_progimage::{link, CtorSpec, FunctionSpec, GlobalSpec, ImageSpec, VarClass};

#[derive(Debug, Clone)]
struct ImagePlan {
    n_plain: usize,
    fn_ptr_slots: Vec<bool>,  // per slot: store fn ptr?
    heap_allocs: Vec<usize>,  // sizes of ctor heap allocations
    data_links: Vec<(usize, usize)>, // (dst slot, src plain var)
}

fn plan_strategy() -> impl Strategy<Value = ImagePlan> {
    (
        1usize..6,
        proptest::collection::vec(any::<bool>(), 0..4),
        proptest::collection::vec(8usize..256, 0..3),
        proptest::collection::vec((0usize..4, 0usize..6), 0..3),
    )
        .prop_map(|(n_plain, fn_ptr_slots, heap_allocs, data_links)| ImagePlan {
            n_plain,
            fn_ptr_slots,
            heap_allocs,
            data_links,
        })
}

fn build_image(plan: &ImagePlan) -> std::sync::Arc<pvr_progimage::ProgramBinary> {
    let mut b = ImageSpec::builder("prop-image")
        .function(FunctionSpec::new("f0", 512))
        .function(FunctionSpec::new("f1", 256))
        .code_padding(16 * 1024);
    for i in 0..plan.n_plain {
        b = b.var(GlobalSpec::new(&format!("v{i}"), 8, VarClass::Global));
    }
    let mut ctor = CtorSpec::new("init");
    for (k, &want) in plan.fn_ptr_slots.iter().enumerate() {
        let name = format!("fp{k}");
        b = b.var(GlobalSpec::new(&name, 8, VarClass::Global));
        if want {
            ctor = ctor.fn_ptr_into(&name, if k % 2 == 0 { "f0" } else { "f1" });
        }
    }
    for (k, &size) in plan.heap_allocs.iter().enumerate() {
        let name = format!("hp{k}");
        b = b.var(GlobalSpec::new(&name, 8, VarClass::Global));
        ctor = ctor.alloc_into(size, &name);
    }
    for (k, &(_, src)) in plan.data_links.iter().enumerate() {
        let name = format!("lp{k}");
        b = b.var(GlobalSpec::new(&name, 8, VarClass::Global));
        let src_name = format!("v{}", src % plan.n_plain);
        ctor = ctor.data_ptr_into(&name, &src_name);
    }
    link(b.ctor(ctor).build())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fixups_land_in_rank_memory(plan in plan_strategy(), policy in prop_oneof![
        Just(ScanPolicy::ConservativeScan),
        Just(ScanPolicy::Relocations),
    ]) {
        let binary = build_image(&plan);
        let mut p = PieGlobals::new(
            PrivatizeEnv::new(binary.clone()),
            policy,
        ).unwrap();

        // rank memories must outlive the queries (as in the real runtime,
        // where RankState owns them for the whole job)
        let mut mems: Vec<RankMemory> = (0..3).map(|_| RankMemory::new()).collect();
        for (rank, mem) in mems.iter_mut().enumerate() {
            let inst = p.instantiate_rank(rank, mem).unwrap();

            // every ctor-written pointer must now point into rank memory
            for (k, &want) in plan.fn_ptr_slots.iter().enumerate() {
                if want {
                    let v = inst.access(&format!("fp{k}")).read_u64() as usize;
                    let found = p.find_original(v).expect("fn ptr resolvable");
                    prop_assert_eq!(found.rank, rank);
                    prop_assert_eq!(found.segment, "code");
                    let name = found.symbol.unwrap().0;
                    prop_assert_eq!(name, if k % 2 == 0 { "f0" } else { "f1" });
                }
            }
            for k in 0..plan.heap_allocs.len() {
                let v = inst.access(&format!("hp{k}")).read_u64() as usize;
                prop_assert!(
                    mem.heap_ref().contains(v),
                    "ctor heap clone must live in rank heap"
                );
            }
            for (k, _) in plan.data_links.iter().enumerate() {
                let v = inst.access(&format!("lp{k}")).read_u64() as usize;
                let found = p.find_original(v).expect("data ptr resolvable");
                prop_assert_eq!(found.rank, rank);
                prop_assert_eq!(found.segment, "data");
            }

            // plain globals are writable and private per rank
            for i in 0..plan.n_plain {
                let acc = inst.access(&format!("v{i}"));
                acc.write_u64((rank * 100 + i) as u64);
                prop_assert_eq!(acc.read_u64(), (rank * 100 + i) as u64);
            }
        }
    }

    #[test]
    fn both_policies_agree_on_clean_images(plan in plan_strategy()) {
        // On images whose data contains no aliasing integers, the
        // conservative scan must produce exactly the relocation-record
        // result for every ctor-written slot.
        let binary = build_image(&plan);
        let mut scan = PieGlobals::new(
            PrivatizeEnv::new(binary.clone()),
            ScanPolicy::ConservativeScan,
        ).unwrap();
        let mut relo = PieGlobals::new(
            PrivatizeEnv::new(binary),
            ScanPolicy::Relocations,
        ).unwrap();
        let mut m1 = RankMemory::new();
        let mut m2 = RankMemory::new();
        let i1 = scan.instantiate_rank(0, &mut m1).unwrap();
        let i2 = relo.instantiate_rank(0, &mut m2).unwrap();
        // compare each pointer slot modulo its own rank's base
        for (k, &want) in plan.fn_ptr_slots.iter().enumerate() {
            if want {
                let a = i1.access(&format!("fp{k}")).read_u64() as usize - i1.code_base();
                let b = i2.access(&format!("fp{k}")).read_u64() as usize - i2.code_base();
                prop_assert_eq!(a, b, "fn-ptr offsets must agree");
            }
        }
        for (k, _) in plan.data_links.iter().enumerate() {
            let a = pointee_symbol(&scan, &i1, &format!("lp{k}"));
            let b = pointee_symbol(&relo, &i2, &format!("lp{k}"));
            prop_assert_eq!(a, b, "data-ptr targets must agree");
        }
    }
}

/// Symbol (name, offset-within-symbol) the slot's pointer refers to.
fn pointee_symbol(
    p: &PieGlobals,
    inst: &pvr_privatize::RankInstance,
    slot: &str,
) -> (String, usize) {
    let v = inst.access(slot).read_u64() as usize;
    let f = p.find_original(v).expect("resolvable");
    f.symbol.expect("pointee covered by a symbol")
}
