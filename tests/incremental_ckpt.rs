//! Acceptance: incremental, asynchronous buddy checkpointing.
//!
//! The protocol bar: incremental mode (base image + bounded delta chain,
//! deltas streamed to the buddy between barriers and sealed at the next
//! one) must be *observationally identical* to full per-barrier
//! checkpoints — same application residuals on clean runs, after soft
//! faults, under lossy networks, across cascading PE failures, and
//! through a restore onto a different PE geometry. It must also stay
//! bit-identical across `Serial`/`Threads(4)`, reconcile its
//! `CkptTallies` exactly with the trace events, and compact the chain
//! once it reaches `ckpt_max_chain`.

mod common;

use parking_lot::Mutex;
use pvr_ampi::Ampi;
use pvr_apps::jacobi3d::{self, JacobiConfig};
use pvr_des::{FaultParams, FaultPlan, HopClass, NetworkModel, SimDuration, Topology};
use pvr_privatize::Method;
use pvr_rts::{ClockMode, MachineBuilder, Parallelism, RankCtx, RunReport};
use pvr_trace::{TraceCounts, Tracer};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Jacobi harness (CowGlobals): exercises the COW dirty-page fast path
// for the data segment plus pack-time diffing for heap and stacks.
// ---------------------------------------------------------------------

const ROUNDS: usize = 3;

fn jacobi_cfg() -> JacobiConfig {
    JacobiConfig { nx: 8, ny: 8, nz: 4, iters: 4 }
}

type Residuals = Vec<(usize, Vec<f64>)>;

fn jacobi_body(out: Arc<Mutex<Residuals>>) -> Arc<dyn Fn(RankCtx) + Send + Sync> {
    Arc::new(move |ctx: RankCtx| {
        let mpi = Ampi::init(ctx);
        let mut history = Vec::with_capacity(ROUNDS);
        for _round in 0..ROUNDS {
            let stats = jacobi3d::run(&mpi, jacobi_cfg());
            history.push(stats.residual);
            mpi.migrate();
        }
        out.lock().push((mpi.rank(), history));
    })
}

fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).with_class(
        HopClass::InterNode,
        FaultParams {
            drop_p: 0.05,
            dup_p: 0.05,
            corrupt_p: 0.02,
            jitter_max: SimDuration::from_nanos(500),
        },
    )
}

struct Outcome {
    report: RunReport,
    residuals: Residuals,
    counts: TraceCounts,
}

fn jacobi_run(incremental: bool, par: Parallelism, faults: bool) -> Outcome {
    let out: Arc<Mutex<Residuals>> = Arc::new(Mutex::new(Vec::new()));
    let tracer = Tracer::new(3);
    tracer.enable();
    let mut network = NetworkModel::ideal();
    let mut b = MachineBuilder::new(jacobi3d::binary())
        .method(Method::CowGlobals)
        .clock(ClockMode::Virtual)
        .parallelism(par)
        .topology(Topology::non_smp(3))
        .vp_ratio(2)
        .stack_size(256 * 1024)
        .checkpoint_period(1)
        .ckpt_incremental(incremental)
        .tracer(tracer.clone());
    if faults {
        network = network.with_faults(lossy_plan(42));
        b = b.inject_pe_failure_at_lb_step(2, 2);
    }
    let mut m = b.network(network).build(jacobi_body(out.clone())).unwrap();
    let report = m.run().unwrap();
    let counts = tracer.counts();
    assert_reconciled(&report, &counts);
    let mut residuals = out.lock().clone();
    residuals.sort_by_key(|r| r.0);
    Outcome { report, residuals, counts }
}

/// Exact reconciliation (PR 1 convention), in every scenario of this
/// file: each tally with a row in `trace_rows` is bumped at the site that
/// emits its trace event, so the counts agree to the unit.
fn assert_reconciled(report: &RunReport, counts: &TraceCounts) {
    for (row, traced, reported) in report.trace_rows(counts) {
        assert_eq!(traced, reported, "{row}");
    }
}

/// Clean runs: incremental mode must leave the application's numerical
/// history untouched, while actually running the delta protocol (base at
/// step 1, deltas after, seals at the following barriers).
#[test]
fn incremental_clean_matches_full() {
    for par in [Parallelism::Serial, Parallelism::Threads(4)] {
        let full = jacobi_run(false, par, false);
        assert!(!full.residuals.is_empty(), "{par:?}: no results");
        assert!(
            full.report.ckpt.is_clean(),
            "{par:?}: full mode must report no incremental activity: {:?}",
            full.report.ckpt
        );
        let incr = jacobi_run(true, par, false);
        assert_eq!(
            incr.residuals, full.residuals,
            "{par:?}: incremental residuals diverged from full checkpoints"
        );
        let ck = &incr.report.ckpt;
        assert!(ck.deltas > 0, "{par:?}: no delta captures: {ck:?}");
        assert!(ck.seals > 0, "{par:?}: no consistent-cut seals: {ck:?}");
        assert_eq!(
            ck.async_drains, ck.seals,
            "{par:?}: every seal drains exactly one in-flight delta set"
        );
        // Incremental mode takes exactly one base (step 1); the rest of
        // the barriers produce deltas.
        assert_eq!(incr.report.faults.checkpoints, 1, "{par:?}: {:?}", incr.report.faults);
        assert!(
            ck.delta_bytes < full.report.faults.checkpoints as u64 * 1024 * 1024,
            "{par:?}: sparse deltas should be far smaller than full images"
        );
    }
}

/// Engine determinism: the incremental protocol — clean and under a
/// lossy network plus a PE failure — must be bit-identical between
/// `Serial` and `Threads(4)`: full digest, residuals, trace counts.
#[test]
fn incremental_engine_deterministic() {
    for faults in [false, true] {
        let serial = jacobi_run(true, Parallelism::Serial, faults);
        let threads = jacobi_run(true, Parallelism::Threads(4), faults);
        assert_eq!(
            serial.report.sim_digest(),
            threads.report.sim_digest(),
            "faults={faults}: Serial vs Threads(4) digest diverged"
        );
        assert_eq!(
            serial.residuals, threads.residuals,
            "faults={faults}: Serial vs Threads(4) residuals diverged"
        );
        assert_eq!(
            serial.counts, threads.counts,
            "faults={faults}: Serial vs Threads(4) trace counts diverged"
        );
        if faults {
            assert_eq!(serial.report.faults.pe_failures, 1);
            assert!(serial.report.faults.recoveries >= 1, "{:?}", serial.report.faults);
        }
    }
}

/// PE failure: restore reconstructs base + sealed deltas from the buddy.
/// Recovery replays deterministically, so the recovered run's residual
/// history must equal the clean run's — in both modes, even though the
/// incremental restore may cut to an earlier barrier (the buddy only
/// holds the sealed prefix of the chain).
#[test]
fn incremental_recovers_from_pe_failure_bit_identically() {
    let clean = jacobi_run(true, Parallelism::Serial, false);
    let faulty = jacobi_run(true, Parallelism::Serial, true);
    assert_eq!(
        faulty.residuals, clean.residuals,
        "recovered incremental run diverged from the clean run"
    );
    assert_eq!(faulty.report.faults.pe_failures, 1);
    assert!(faulty.report.faults.recoveries >= 1);
    // cross-mode: the full-checkpoint recovery lands on the same history
    let full_faulty = jacobi_run(false, Parallelism::Serial, true);
    assert_eq!(
        faulty.residuals, full_faulty.residuals,
        "incremental recovery diverged from full-checkpoint recovery"
    );
}

/// `jacobi_run` reconciled every row; on this run the checkpoint rows
/// are not vacuous, and `CheckpointTaken` counts bases only.
#[test]
fn ckpt_tallies_reconcile_with_trace_events() {
    let o = jacobi_run(true, Parallelism::Serial, false);
    let ck = &o.report.ckpt;
    let c = &o.counts;
    assert!(c.ckpt_deltas > 0 && c.ckpt_seals > 0 && c.ckpt_async_bytes > 0, "{c:?}");
    assert_eq!(c.checkpoints, 1, "one base, then deltas");
    assert!(ck.max_chain_len >= ck.chain_len, "{ck:?}");
    assert!(o.report.summary().contains("ckpt:"), "{}", o.report.summary());
}

// ---------------------------------------------------------------------
// Ring harness (PieGlobals, more barriers): chain compaction, soft
// faults, cascading failures, restore onto a different geometry.
// ---------------------------------------------------------------------

const STEPS: u64 = 6;

type RingResiduals = Vec<(usize, f64)>;

fn ring_body(out: Arc<Mutex<RingResiduals>>) -> Arc<dyn Fn(RankCtx) + Send + Sync> {
    Arc::new(move |ctx: RankCtx| {
        let data = ctx.heap_alloc_f64s(32);
        let mut acc = ctx.rank() as f64 + 1.0;
        for step in 0..STEPS {
            for v in data.iter_mut() {
                *v += acc * 0.5;
            }
            let partner = (ctx.rank() + 1) % ctx.n_ranks();
            ctx.send(partner, step, bytes::Bytes::copy_from_slice(&acc.to_le_bytes()));
            let m = ctx.recv();
            acc = acc * 1.25 + f64::from_le_bytes(m.payload[..8].try_into().unwrap());
            ctx.at_sync();
        }
        out.lock().push((ctx.rank(), acc + data.iter().sum::<f64>()));
    })
}

fn ring_base(pes: usize, vp: usize) -> MachineBuilder {
    MachineBuilder::new(pvr_apps::hello::binary())
        .method(Method::PieGlobals)
        .clock(ClockMode::Virtual)
        .topology(Topology::non_smp(pes))
        .vp_ratio(vp)
        .checkpoint_period(1)
        .ckpt_incremental(true)
}

fn ring_run(b: MachineBuilder) -> (RunReport, RingResiduals) {
    let out: Arc<Mutex<RingResiduals>> = Arc::new(Mutex::new(Vec::new()));
    let tracer = Tracer::new(4);
    tracer.enable();
    let mut m = b.tracer(tracer.clone()).build(ring_body(out.clone())).unwrap();
    let report = m.run().unwrap();
    assert_reconciled(&report, &tracer.counts());
    let mut v = out.lock().clone();
    v.sort_by_key(|r| r.0);
    (report, v)
}

/// Bounded chains: with `ckpt_max_chain = 2` and six barriers, the chain
/// must compact (fresh base) at least once and never exceed the bound.
#[test]
fn chain_compacts_at_max_length() {
    let (report, _) = ring_run(ring_base(4, 2).ckpt_max_chain(2));
    let ck = &report.ckpt;
    assert!(ck.compactions >= 1, "chain never compacted: {ck:?}");
    assert!(ck.max_chain_len <= 2, "chain exceeded ckpt_max_chain: {ck:?}");
    // bases = first capture + one per compaction
    assert_eq!(report.faults.checkpoints, 1 + ck.compactions, "{:?} / {ck:?}", report.faults);
    // a generous bound keeps every barrier checkpointed one way or the other
    assert_eq!(ck.deltas + report.faults.checkpoints, STEPS as u32, "{ck:?}");
}

/// Soft fault (all PEs alive): the full chain — including the unsealed
/// tail — is available, so the rollback must replay to the same results
/// as a clean run and as full-checkpoint recovery.
#[test]
fn soft_fault_rollback_matches_full_mode() {
    let (_, clean) = ring_run(ring_base(4, 2));
    let (report, faulty) = ring_run(ring_base(4, 2).inject_fault_at_lb_step(3));
    assert_eq!(faulty, clean, "incremental soft-fault rollback diverged");
    assert_eq!(report.faults.recoveries, 1);
    let (full_report, full_faulty) =
        ring_run(ring_base(4, 2).ckpt_incremental(false).inject_fault_at_lb_step(3));
    assert_eq!(faulty, full_faulty, "incremental vs full soft-fault recovery diverged");
    assert_eq!(full_report.faults.recoveries, 1);
}

/// Cascading PE failures at successive barriers: both recoveries must
/// succeed off the re-homed chain and land on the clean results.
#[test]
fn cascading_pe_failures_recover_incrementally() {
    let (_, clean) = ring_run(ring_base(4, 2));
    let (report, faulty) = ring_run(
        ring_base(4, 2)
            .inject_pe_failure_at_lb_step(2, 3)
            .inject_pe_failure_at_lb_step(4, 2),
    );
    assert_eq!(faulty, clean, "cascading incremental recovery diverged");
    assert_eq!(report.faults.pe_failures, 2);
    assert_eq!(report.faults.recoveries, 2);
}

/// Restore onto a different geometry: the chain (not a flattened copy)
/// is re-replicated onto the new buddy map, and the geometry-restored
/// run must match the clean fixed-size results in both directions.
#[test]
fn geometry_restore_replays_the_chain() {
    let (_, clean) = ring_run(ring_base(4, 2));
    for target in [3usize, 4] {
        let (report, restored) =
            ring_run(ring_base(4, 2).active_pes(3).restore_geometry_at_lb_step(2, target));
        assert_eq!(restored, clean, "restore at {target} PEs diverged");
        assert_eq!(report.elastic.geometry_restores, 1, "target {target}");
        assert_eq!(report.elastic.re_replications, 1, "target {target}");
        assert_eq!(report.faults.recoveries, 1, "target {target}");
        assert!(!report.ckpt.is_clean(), "target {target}: no incremental activity");
    }
}

/// A planned shrink re-replicates the chain without taking a fresh base:
/// the base-capture count must not grow at the rescale barrier.
#[test]
fn rescale_re_replicates_the_chain_not_a_flat_copy() {
    let (_, fixed) = ring_run(ring_base(2, 4));
    let (report, rescaled) = ring_run(ring_base(4, 2).rescale_at_lb_step(2, 2));
    assert_eq!(rescaled, fixed, "rescaled incremental run diverged from fixed 2-PE run");
    assert_eq!(report.elastic.rescales, 1);
    assert_eq!(report.elastic.re_replications, 1);
    // one base at step 1; re-replication moves base + sealed deltas and
    // must NOT count as a new coordinated checkpoint
    assert_eq!(report.faults.checkpoints, 1, "{:?}", report.faults);
    assert!(report.ckpt.deltas > 0, "{:?}", report.ckpt);
}

// ---------------------------------------------------------------------
// Scripted-write harness: the test decides which heap pages are dirtied,
// rewritten and reverted before which capture, how deep in calls each
// barrier is reached and what is allocated between captures, and what
// every rank must hold at the end follows from the script alone.
// Captures diff against the base read *through* the delta chain (no
// materialized previous image), and a restore writes base and deltas
// straight into live regions — so a chunk the chain misrepresents shows
// up as a wrong word.
// ---------------------------------------------------------------------

const PAGES: usize = 12;
const WORDS_PER_PAGE: usize = 4096 / 8;
/// Words of the array every frame of a deep call holds (3/4 KiB).
const FRAME_WORDS: usize = 96;
/// Words of the all-zero array a padded barrier is reached over (12 KiB:
/// whole diff chunks of zeros, which no delta carries).
const PAD_WORDS: usize = 1536;

/// What a rank does before barrier `s + 1` (`script[s]`).
#[derive(Clone, Default)]
struct Step {
    /// `(page, value)` writes into the array allocated up front.
    writes: Vec<(usize, f64)>,
    /// "Call deep, write, return": a call this many frames deep, each
    /// writing an array, that is back before the barrier — what it wrote
    /// stays behind as dead bytes below wherever the barrier is reached.
    scratch: usize,
    /// The barrier is reached from this many frames down, each holding an
    /// array it wrote before and reads back after — so the suspended `sp`
    /// moves from barrier to barrier.
    depth: usize,
    /// The deepest of those frames also holds a [`PAD_WORDS`] array of
    /// zeros across the barrier: live stack that no image stores.
    pad: bool,
    /// "Allocate after the capture": a fresh two-page block whose word
    /// gets this value added (fresh heap reads as zero).
    alloc: Option<f64>,
}

type Script = Vec<Step>;
type PageWords = Vec<(usize, Vec<f64>)>;

fn writes(script: Vec<Vec<(usize, f64)>>) -> Script {
    script.into_iter().map(|writes| Step { writes, ..Step::default() }).collect()
}

/// What frame `d` of the deep call before barrier `s + 1` keeps in its array.
fn frame_value(s: usize, d: usize) -> f64 {
    (s * 100 + d) as f64
}

/// Run `bottom` from `depth` frames down; every frame sums its array on
/// the way back up.
#[inline(never)]
fn call_deep(s: usize, depth: usize, bottom: &dyn Fn() -> f64) -> f64 {
    if depth == 0 {
        return bottom();
    }
    let mut frame = [frame_value(s, depth); FRAME_WORDS];
    std::hint::black_box(&mut frame);
    let below = call_deep(s, depth - 1, bottom);
    below + std::hint::black_box(&frame).iter().sum::<f64>()
}

/// The barrier, reached over an array of zeros that is summed after it.
#[inline(never)]
fn sync_over_zeros(ctx: &RankCtx) -> f64 {
    let mut pad = [0.0f64; PAD_WORDS];
    std::hint::black_box(&mut pad);
    ctx.at_sync();
    std::hint::black_box(&pad).iter().sum()
}

fn scripted_body(script: Arc<Script>, out: Arc<Mutex<PageWords>>) -> Arc<dyn Fn(RankCtx) + Send + Sync> {
    Arc::new(move |ctx: RankCtx| {
        let data = ctx.heap_alloc_f64s(PAGES * WORDS_PER_PAGE);
        // later blocks are found through this table: rank heap, so it
        // rolls back with the blocks it names
        let blocks = ctx.heap_alloc(script.len() * 8, 8) as *mut *mut f64;
        // one word per 4 KiB stride, so distinct pages are distinct chunks
        let word = |page: usize| page * WORDS_PER_PAGE + ctx.rank();
        let mut frames = 0.0;
        for (s, step) in script.iter().enumerate() {
            for &(page, value) in &step.writes {
                data[word(page)] = value;
            }
            if let Some(value) = step.alloc {
                let block = ctx.heap_alloc_f64s(2 * WORDS_PER_PAGE);
                block[word(1)] += value;
                // SAFETY: `blocks` has one slot per step.
                unsafe { *blocks.add(s) = block.as_mut_ptr() };
            }
            frames += call_deep(s, step.scratch, &|| 0.0);
            frames += call_deep(s, step.depth, &|| {
                if step.pad {
                    return sync_over_zeros(&ctx);
                }
                ctx.at_sync();
                0.0
            });
        }
        let mut words: Vec<f64> = (0..PAGES).map(|p| data[word(p)]).collect();
        words.push(frames);
        for s in 0..script.len() {
            // SAFETY: a slot is null or a block this rank allocated.
            let block = unsafe { *blocks.add(s) };
            words.push(if block.is_null() { 0.0 } else { unsafe { *block.add(word(1)) } });
        }
        out.lock().push((ctx.rank(), words));
    })
}

/// What the script leaves in every rank: the last write to a page wins,
/// an unwritten page keeps the allocator's zero; then what the deep
/// frames read back, then every later block's word.
fn scripted_expectation(script: &Script, ranks: usize) -> PageWords {
    let mut words = vec![0.0; PAGES];
    for &(page, value) in script.iter().flat_map(|step| &step.writes) {
        words[page] = value;
    }
    let frames = script.iter().enumerate().flat_map(|(s, step)| {
        (1..=step.scratch).chain(1..=step.depth).map(move |d| FRAME_WORDS as f64 * frame_value(s, d))
    });
    words.push(frames.sum());
    words.extend(script.iter().map(|step| step.alloc.unwrap_or(0.0)));
    (0..ranks).map(|r| (r, words.clone())).collect()
}

struct ScriptedRun {
    report: RunReport,
    words: PageWords,
    /// `(pages, bytes)` of every delta capture, in barrier order.
    deltas: Vec<(u64, u64)>,
}

fn scripted_run(script: &Script, configure: impl FnOnce(MachineBuilder) -> MachineBuilder) -> ScriptedRun {
    let out: Arc<Mutex<PageWords>> = Arc::new(Mutex::new(Vec::new()));
    let tracer = Tracer::new(2);
    tracer.enable();
    let b = MachineBuilder::new(pvr_apps::hello::binary())
        .method(Method::PieGlobals)
        .clock(ClockMode::Virtual)
        .topology(Topology::non_smp(2))
        .vp_ratio(2)
        .checkpoint_period(1)
        .ckpt_incremental(true)
        .tracer(tracer.clone());
    let mut m = configure(b)
        .build(scripted_body(Arc::new(script.clone()), out.clone()))
        .unwrap();
    let report = m.run().unwrap();
    let mut words = out.lock().clone();
    words.sort_by_key(|r| r.0);
    let deltas = tracer
        .snapshot()
        .events_sorted()
        .iter()
        .filter_map(|e| match e.kind {
            pvr_trace::EventKind::CkptDelta { pages, bytes, .. } => Some((pages, bytes)),
            _ => None,
        })
        .collect();
    ScriptedRun { report, words, deltas }
}

/// Deterministic pseudo-random stream for the write scripts.
fn lcg(state: &mut u64) -> usize {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    (*state >> 33) as usize
}

/// Random write sequences, a rollback at every barrier: whatever the
/// chain length K ≤ `ckpt_max_chain` at the rollback, base + chain must
/// be the memory of that barrier — every rank ends with exactly what the
/// script says, as in full mode. The three-value alphabet makes rewrites
/// of the same value and reverts to the base's zero common.
#[test]
fn random_write_sequences_restore_exactly_at_every_chain_length() {
    const BARRIERS: usize = 6;
    for seed in 1..=3u64 {
        let mut rng = seed;
        let script = writes(
            (0..BARRIERS)
                .map(|_| {
                    (0..lcg(&mut rng) % 5)
                        .map(|_| (lcg(&mut rng) % PAGES, (lcg(&mut rng) % 3) as f64))
                        .collect()
                })
                .collect(),
        );
        let expected = scripted_expectation(&script, 4);
        assert_eq!(scripted_run(&script, |b| b).words, expected, "seed {seed}: clean");
        for max_chain in [8u32, 2] {
            for fault_at in 2..=BARRIERS as u32 {
                let incr = scripted_run(&script, |b| {
                    b.ckpt_max_chain(max_chain).inject_fault_at_lb_step(fault_at)
                });
                assert_eq!(
                    incr.words, expected,
                    "seed {seed} max_chain {max_chain}: rollback at barrier {fault_at} restored wrong bytes"
                );
                assert_eq!(incr.report.faults.recoveries, 1);
                assert!(incr.report.ckpt.max_chain_len <= max_chain, "{:?}", incr.report.ckpt);
            }
        }
        let full = scripted_run(&script, |b| b.ckpt_incremental(false).inject_fault_at_lb_step(4));
        assert_eq!(full.words, expected, "seed {seed}: full mode");
    }
}

/// A chunk dirtied before capture 1 and reverted before capture 2 equals
/// the *base* again but not the previous capture: delta 2 must carry it,
/// delta 3 must not, and a rollback through all three must land on the
/// reverted value. (A diff against the bare base would drop it from
/// delta 2 and restore the stale dirty value.)
#[test]
fn reverted_chunk_is_re_emitted_by_the_next_delta_only() {
    // barrier 1 is the base; deltas are captured at barriers 2, 3, 4, 5
    let with_revert = writes(vec![vec![], vec![(3, 7.0)], vec![(3, 0.0)], vec![], vec![]]);
    let control = writes(vec![vec![]; 5]);
    let run = |s: &Script| scripted_run(s, |b| b.inject_fault_at_lb_step(5));
    let (a, c) = (run(&with_revert), run(&control));
    assert_eq!(a.words, scripted_expectation(&with_revert, 4), "reverted value must survive the rollback");
    assert_eq!(c.words, scripted_expectation(&control, 4));
    // Stacks and runtime words change alike in both runs; what the script
    // adds on top is one 4 KiB chunk per rank where it wrote.
    let extra: Vec<(u64, u64)> = a
        .deltas
        .iter()
        .zip(&c.deltas)
        .map(|(a, c)| (a.0 - c.0, a.1 - c.1))
        .collect();
    assert_eq!(a.deltas.len(), c.deltas.len());
    assert_eq!(
        &extra[..3],
        &[(4, 4 * 4096), (4, 4 * 4096), (0, 0)],
        "delta 1 carries the dirtied chunk, delta 2 the reverted one, delta 3 neither: {:?} vs {:?}",
        a.deltas,
        c.deltas
    );
}

/// A moving stack and a growing heap under rollback. Every barrier is
/// reached from another call depth (deeper at one barrier than at the
/// next, deeper at the failure than at the cut and the other way round),
/// over dead frames of calls that returned, and blocks are allocated
/// between captures. The first script is the one a restore that zeroed by
/// the *failure's* `sp` gets wrong: barrier 3 is captured deep over live
/// zeros no image stores, a deeper call then leaves frames there, and the
/// failure comes at a shallow barrier 4. With a capture at every
/// barrier the rollback lands on the failure's own barrier; with one at
/// every other barrier it lands one barrier back, on another `sp` and a
/// lower allocation mark. Chain bounds 8 and 2; every rank must end with
/// exactly what the script says, whichever engine, privatization method
/// and checkpoint mode ran it.
#[test]
fn moving_stack_and_growing_heap_restore_exactly() {
    const BARRIERS: usize = 6;
    for seed in 0..=2u64 {
        let mut rng = seed;
        let script: Script = if seed == 0 {
            vec![
                Step::default(),
                Step { depth: 3, alloc: Some(2.0), ..Step::default() },
                Step { depth: 6, pad: true, ..Step::default() },
                Step { scratch: 30, alloc: Some(5.0), ..Step::default() },
                Step { depth: 12, ..Step::default() },
                Step::default(),
            ]
        } else {
            (0..BARRIERS)
                .map(|_| Step {
                    writes: (0..lcg(&mut rng) % 3)
                        .map(|_| (lcg(&mut rng) % PAGES, (lcg(&mut rng) % 3) as f64))
                        .collect(),
                    scratch: [0, 30, 0, 16][lcg(&mut rng) % 4],
                    depth: [0, 24, 3, 0, 12, 30][lcg(&mut rng) % 6],
                    pad: lcg(&mut rng).is_multiple_of(3),
                    alloc: lcg(&mut rng).is_multiple_of(2).then(|| (1 + lcg(&mut rng) % 9) as f64),
                })
                .collect()
        };
        assert!(script.iter().any(|s| s.depth >= 12) && script.iter().any(|s| s.alloc.is_some()));
        let expected = scripted_expectation(&script, 4);
        let clean = scripted_run(&script, |b| b);
        assert_eq!(clean.words, expected, "seed {seed}: clean");
        for period in [1u32, 2] {
            for max_chain in [8u32, 2] {
                for fault_at in 2..=BARRIERS as u32 {
                    let what = format!("seed {seed} period {period} max_chain {max_chain} fault at {fault_at}");
                    let inject = |b: MachineBuilder| {
                        b.checkpoint_period(period).ckpt_max_chain(max_chain).inject_fault_at_lb_step(fault_at)
                    };
                    let incr = scripted_run(&script, inject);
                    assert_eq!(incr.words, expected, "{what}: wrong bytes after the rollback");
                    assert_eq!(incr.report.faults.recoveries, 1, "{what}");
                    let threads = scripted_run(&script, |b| inject(b).parallelism(Parallelism::Threads(4)));
                    assert_eq!(threads.words, expected, "{what}: Threads(4)");
                    assert_eq!(
                        (threads.report.sim_digest(), &threads.deltas),
                        (incr.report.sim_digest(), &incr.deltas),
                        "{what}: Serial vs Threads(4)"
                    );
                    if max_chain == 8 {
                        let cow = scripted_run(&script, |b| inject(b).method(Method::CowGlobals));
                        assert_eq!(cow.words, expected, "{what}: COWglobals");
                        let full = scripted_run(&script, |b| inject(b).ckpt_incremental(false));
                        assert_eq!(full.words, expected, "{what}: full mode");
                    }
                }
            }
        }
    }
}

/// A restore at a cut *shorter* than the primary's chain, then capturing
/// again on top of the truncated chain. PE 3 dies at barrier 3 right
/// after delta 2 was captured: its ranks fall back to the buddy, which
/// holds only the sealed delta 1, so every rank rolls back to barrier 2
/// and delta 2 is discarded. The geometry restore at the same barrier
/// re-homes the truncated chain instead of taking a fresh base, so the
/// replayed barrier diffs against base + delta 1 read through and
/// captures the discarded barrier's delta over again. A later soft fault
/// then rolls back through the re-captured deltas. Results must match
/// full mode under the same failures and the clean run.
#[test]
fn capture_after_a_shortened_restore_continues_the_chain() {
    let (clean_report, clean) = ring_run(ring_base(4, 2));
    let inject = |b: MachineBuilder| {
        b.inject_pe_failure_at_lb_step(3, 3)
            .restore_geometry_at_lb_step(3, 3)
            .inject_fault_at_lb_step(6)
    };
    let (report, faulty) = ring_run(inject(ring_base(4, 2)));
    assert_eq!(faulty, clean, "recovery through a shortened chain diverged");
    let (_, full_faulty) = ring_run(inject(ring_base(4, 2).ckpt_incremental(false)));
    assert_eq!(faulty, full_faulty, "incremental vs full mode diverged");
    // one failure rollback, one geometry rollback, one soft-fault rollback
    assert_eq!(report.faults.recoveries, 3, "{:?}", report.faults);
    assert_eq!(report.elastic.geometry_restores, 1);
    // the chain went on: no base but the first was ever taken
    assert_eq!(report.faults.checkpoints, 1, "{:?}", report.faults);
    // one barrier's work ran twice: one delta more than the clean run
    assert_eq!(report.ckpt.deltas, clean_report.ckpt.deltas + 1, "{:?}", report.ckpt);
    assert!(report.ckpt.delta_bytes > clean_report.ckpt.delta_bytes, "{:?}", report.ckpt);
}

/// A delta corrupted while unsealed never reaches the base: the base is
/// one buffer with two holders, the corruption hook owns only the delta's
/// primary payload. PE 3 dies at the barrier that captured (and
/// corrupted) delta 1, so the consistent cut is the bare base — held by
/// the primary for surviving ranks and by the buddy for PE 3's — and
/// every one must still pass its seal and restore the clean bytes. (With the delta inside the cut the same corruption
/// aborts the restore: `failure_injection.rs`.)
#[test]
fn corrupted_unsealed_delta_leaves_the_shared_base_intact() {
    let (_, clean) = ring_run(ring_base(4, 2));
    let (report, faulty) = ring_run(
        ring_base(4, 2)
            .corrupt_ckpt_delta_at(2, 5)
            .inject_pe_failure_at_lb_step(2, 3),
    );
    assert_eq!(faulty, clean, "base restored through either holder must be clean");
    assert_eq!(report.faults.pe_failures, 1);
    assert_eq!(report.faults.recoveries, 1);
}

// ---------------------------------------------------------------------
// Data-image harness (CowGlobals, 1 MiB of globals): what a delta saves
// where writes are page-local, in bytes shipped and in barrier pause.
// ---------------------------------------------------------------------

/// LB barriers per data-image run, each taking one periodic capture;
/// `ckpt_max_chain` matches, so the chain never compacts.
const IMAGE_STEPS: usize = 12;

struct ImageRun {
    report: RunReport,
    residuals: Vec<(usize, u64)>,
    /// Checkpoint bytes shipped: base images plus delta payloads.
    bytes: u64,
}

/// 2 PEs x 2 ranks on the data image. Each step rewrites one page of the
/// 1 MiB array (read-mostly) or all of it (write-heavy), then syncs; at
/// the end each rank hashes the array, so full and incremental modes can
/// be checked to leave the application's bytes identical.
fn image_run(write_heavy: bool, incremental: bool) -> ImageRun {
    let out: Arc<Mutex<Vec<(usize, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = out.clone();
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(move |ctx: RankCtx| {
        let big = ctx.instance().access(common::BIG);
        let rank = ctx.rank();
        let len = if write_heavy { common::BIG_LEN } else { 4096 };
        for step in 0..IMAGE_STEPS {
            big.write_bytes(&vec![(step as u8).wrapping_mul(31).wrapping_add(rank as u8); len]);
            ctx.at_sync();
        }
        let sum = big
            .read_bytes(common::BIG_LEN)
            .into_iter()
            .fold(0u64, |h, b| h.wrapping_mul(1099511628211).wrapping_add(b as u64));
        sink.lock().push((rank, sum));
    });
    let tracer = Tracer::new(2);
    tracer.enable();
    let mut m = MachineBuilder::new(common::data_image())
        .method(Method::CowGlobals)
        .clock(ClockMode::Virtual)
        .topology(Topology::non_smp(2))
        .vp_ratio(2)
        .checkpoint_period(1)
        .ckpt_incremental(incremental)
        .ckpt_max_chain(IMAGE_STEPS as u32)
        .tracer(tracer.clone())
        .build(body)
        .unwrap();
    let report = m.run().unwrap();
    let bytes = tracer.counts().checkpoint_bytes + report.ckpt.delta_bytes;
    let mut residuals = out.lock().clone();
    residuals.sort_by_key(|r| r.0);
    ImageRun { report, residuals, bytes }
}

/// Bytes shipped over the 12 barriers. Full mode repacks every rank's
/// whole image each time; incremental mode ships one base and then the
/// dirty pages, so where writes are page-local it ships far less, and
/// where every page is rewritten it still ships less than full images.
#[test]
fn image_deltas_ship_what_changed() {
    for (write_heavy, incremental_bytes) in [(false, 17_665_092), (true, 63_622_212)] {
        let full = image_run(write_heavy, false);
        let incr = image_run(write_heavy, true);
        assert_eq!(incr.residuals, full.residuals, "write_heavy={write_heavy}: modes diverged");
        assert!(full.report.ckpt.is_clean(), "{:?}", full.report.ckpt);
        assert!(incr.report.ckpt.deltas > 0, "{:?}", incr.report.ckpt);
        assert_eq!(full.bytes, 207_655_728, "write_heavy={write_heavy}: full mode");
        assert_eq!(incr.bytes, incremental_bytes, "write_heavy={write_heavy}: incremental mode");
    }
}

/// The barrier pause: at read-mostly locality an incremental barrier
/// captures one dirty page where a full one repacks the megabyte, so it
/// must pause for less. Wall clock: the best of three runs per mode, as
/// noise only ever shrinks the gap.
#[test]
fn read_mostly_incremental_pause_is_below_full() {
    let best = |incremental: bool| {
        (0..3).map(|_| image_run(false, incremental).report.ckpt.pause_ns).min().unwrap()
    };
    let (full, incr) = (best(false), best(true));
    assert!(incr < full, "incremental pause {incr} ns not below full {full} ns");
}
