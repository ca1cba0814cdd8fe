//! Property tests for COWglobals page-granular privatization.
//!
//! For randomly generated multi-page images and random per-rank write
//! patterns, the copy-on-write segment must be observationally
//! indistinguishable from PIEglobals' eager copy:
//!
//! 1. after applying the same writes through the `VarAccess` API, every
//!    rank's materialized COW data segment is byte-identical to the
//!    eager PIEglobals rank's segment;
//! 2. fault accounting is exact: the diverged-page set equals the pages
//!    actually covered by writes (the image has no pointer fixups, so
//!    no startup faults), and the dedup audit's never-diverged count is
//!    the complement — pages with zero faults on every rank.

use proptest::prelude::*;
use pvr_isomalloc::RankMemory;
use pvr_privatize::methods::{CowGlobals, PieGlobals, ScanPolicy};
use pvr_privatize::{regs, PrivatizeEnv, Privatizer};
use pvr_progimage::pages::DEFAULT_PAGE_SIZE;
use pvr_progimage::{link, GlobalSpec, ImageSpec, ProgramBinary, VarClass};
use std::sync::Arc;

const N_RANKS: usize = 3;

#[derive(Debug, Clone)]
struct WritePlan {
    /// Sizes of the image's global arrays (spanning several pages).
    var_sizes: Vec<usize>,
    /// (rank, var index, write length, fill byte) — each write covers
    /// `[0, len)` of the chosen variable on the chosen rank.
    writes: Vec<(usize, usize, usize, u8)>,
}

fn plan_strategy() -> impl Strategy<Value = WritePlan> {
    proptest::collection::vec(64usize..3 * DEFAULT_PAGE_SIZE, 1..5)
        .prop_flat_map(|var_sizes| {
            let n_vars = var_sizes.len();
            let max = var_sizes.clone();
            let writes = proptest::collection::vec(
                (0..N_RANKS, 0..n_vars, 1usize..3 * DEFAULT_PAGE_SIZE, any::<u8>()).prop_map(
                    move |(rank, var, len, fill)| (rank, var, len.min(max[var]).max(1), fill),
                ),
                0..8,
            );
            (Just(var_sizes), writes)
        })
        .prop_map(|(var_sizes, writes)| WritePlan { var_sizes, writes })
}

/// A fixup-free image: plain arrays only, no ctors, no function
/// pointers — so COW startup privatizes zero pages and every fault in
/// the accounting is attributable to a test write.
fn build_image(plan: &WritePlan) -> Arc<ProgramBinary> {
    let mut b = ImageSpec::builder("cow-prop");
    for (i, &size) in plan.var_sizes.iter().enumerate() {
        // Nonzero init so "unwritten byte" is distinguishable from the
        // zero-filled backing store a broken fault path would expose.
        let init: Vec<u8> = (0..size).map(|j| (i as u8).wrapping_add(j as u8) | 1).collect();
        b = b.var(GlobalSpec::new(&format!("a{i}"), size, VarClass::Global).with_init(&init));
    }
    link(b.build())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cow_matches_eager_pie_and_faults_match_writes(plan in plan_strategy()) {
        let binary = build_image(&plan);
        let mut cow = CowGlobals::new(
            PrivatizeEnv::new(binary.clone()),
            ScanPolicy::default(),
        ).unwrap();
        let mut pie = PieGlobals::new(
            PrivatizeEnv::new(binary.clone()),
            ScanPolicy::default(),
        ).unwrap();

        let mut cow_mems: Vec<RankMemory> = (0..N_RANKS).map(|_| RankMemory::new()).collect();
        let mut pie_mems: Vec<RankMemory> = (0..N_RANKS).map(|_| RankMemory::new()).collect();
        let cow_insts: Vec<_> = cow_mems
            .iter_mut()
            .enumerate()
            .map(|(r, m)| cow.instantiate_rank(r, m).unwrap())
            .collect();
        let pie_insts: Vec<_> = pie_mems
            .iter_mut()
            .enumerate()
            .map(|(r, m)| pie.instantiate_rank(r, m).unwrap())
            .collect();

        // No pointer fixups -> no startup faults: every page starts shared.
        let startup = cow.cow_stats().unwrap();
        prop_assert_eq!(startup.page_faults, 0);

        // Apply the identical write stream to both methods and track the
        // pages each write must diverge.
        let mut expected = vec![false; startup.total_pages as usize];
        for &(rank, var, len, fill) in &plan.writes {
            let name = format!("a{var}");
            let bytes = vec![fill; len];
            cow_insts[rank].access(&name).write_bytes(&bytes);
            pie_insts[rank].access(&name).write_bytes(&bytes);
            let off = binary.layout.data_syms[&name].offset;
            let (first, last) = (off / DEFAULT_PAGE_SIZE, (off + len - 1) / DEFAULT_PAGE_SIZE);
            for covered in &mut expected[first..=last] {
                *covered = true;
            }
        }

        // 2. Exact fault accounting: diverged == written, shared == the rest.
        let stats = cow.cow_stats().unwrap();
        prop_assert_eq!(stats.page_faults, stats.pages_privatized);
        let diverged: Vec<usize> = (0..stats.total_pages as usize)
            .filter(|&i| stats.faulted_page_union[i / 64] >> (i % 64) & 1 == 1)
            .collect();
        let want: Vec<usize> =
            (0..expected.len()).filter(|&i| expected[i]).collect();
        prop_assert_eq!(&diverged, &want, "diverged pages must be exactly the written pages");
        let never_diverged = stats.total_pages as usize - diverged.len();
        prop_assert_eq!(
            never_diverged,
            expected.iter().filter(|&&w| !w).count(),
            "dedup audit: never-diverged count must equal zero-fault pages"
        );

        // 1. Byte identity: each rank's materialized COW segment equals
        // the eager PIE copy.
        for rank in 0..N_RANKS {
            let (cb, cl) = cow.rank_data_segment(rank).unwrap();
            let (pb, pl) = pie.rank_data_segment(rank).unwrap();
            prop_assert_eq!(cl, pl, "segment lengths must agree");
            let cbytes = unsafe { std::slice::from_raw_parts(cb, cl) };
            let pbytes = unsafe { std::slice::from_raw_parts(pb, pl) };
            prop_assert_eq!(cbytes, pbytes, "rank {} segment bytes must match", rank);
        }

        drop(cow_insts);
        drop(pie_insts);
        regs::clear();
    }
}
