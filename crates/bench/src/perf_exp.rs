//! `perf` — the engine measurements `benchmark/` does not have yet.
//!
//! Per-layer costs (message lifecycle, epoch extraction, startup per
//! method, datatype pack/unpack, ping-pong round trip) are `benchmark/`'s
//! per-layer metrics, measured on named workloads over a stated window.
//! What is left here until it moves there too:
//!
//! 1. **epoch dispatch**: a parallel epoch of two empty lanes on the
//!    worker pool vs the per-epoch scoped spawn + join the pool replaced,
//! 2. the **matching-depth sweep** ([`match_depth_ns`]): per-message
//!    cost of the posted and the unexpected queue from depth 1 to 4096,
//!    which a matching engine that scans grows linearly in and a hashed
//!    one is flat in,
//!
//! and the startup probe ([`startup_binary`], [`startup_ns_per_rank`])
//! the COW and checkpoint sweeps share. Results are rendered as tables
//! and written to `BENCH_perf.json`.

use crate::render_table;
use bytes::Bytes;
use pvr_ampi::{Ampi, RecvReq, COMM_WORLD};
use pvr_apps::jacobi3d;
use pvr_des::Topology;
use pvr_privatize::methods::Options;
use pvr_privatize::{create_privatizer, regs, Method, PrivatizeEnv};
use pvr_progimage::{link, CtorSpec, FunctionSpec, GlobalSpec, ImageSpec, ProgramBinary, VarClass};
use pvr_rts::{ClockMode, MachineBuilder, MachineConfig, Parallelism, RankCtx};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Best-of-`reps` wall time for `f`, in nanoseconds per `ops` operations.
fn best_ns_per_op(reps: usize, ops: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    best / ops.max(1) as f64
}

// ---------------------------------------------------------------------
// 1. Epoch dispatch: the worker pool vs a scoped spawn + join per epoch
// ---------------------------------------------------------------------

/// What a parallel epoch costs beyond its lanes' work, `(before,
/// after)`: ns per epoch of two lanes holding one no-op `PeWake` each on
/// the `Threads(2)` pool ("after"), against what the engine did per
/// epoch before it had a pool — a scoped spawn and join of two threads
/// ("before").
fn epoch_dispatch_ns(quick: bool) -> (f64, f64) {
    let epochs = if quick { 2_000 } else { 20_000 };
    let reps = if quick { 3 } else { 5 };
    let before = best_ns_per_op(reps, epochs, || {
        for _ in 0..epochs {
            std::thread::scope(|s| {
                for w in 0..2 {
                    s.spawn(move || std::hint::black_box(w));
                }
            });
        }
    });
    let mut m = MachineBuilder::new(jacobi3d::binary())
        .method(Method::TlsGlobals)
        .clock(ClockMode::Virtual)
        .topology(Topology::non_smp(2))
        .vp_ratio(1)
        .stack_size(256 * 1024)
        .parallelism(Parallelism::Threads(2))
        .build(Arc::new(|_ctx: RankCtx| {}))
        .unwrap();
    m.run().unwrap();
    let after = (0..reps)
        .map(|_| m.bench_epoch_dispatch(epochs).as_nanos() as f64 / epochs as f64)
        .fold(f64::INFINITY, f64::min);
    (before, after)
}

// ---------------------------------------------------------------------
// 2. Privatization startup probe (shared with `cow_exp`, `ckpt_exp`)
// ---------------------------------------------------------------------

/// A data-heavy program image, the shape where startup cost lives: the
/// PIEglobals conservative scan walks every (nonzero) data word per
/// rank, the FSglobals deploy copies the whole binary per rank, and the
/// TLS block carries a large initialized variable. The COW and the
/// checkpoint sweeps (`cow_exp`, `ckpt_exp`) measure against this image.
pub(crate) fn startup_binary() -> Arc<ProgramBinary> {
    let big = vec![0x5Au8; 1 << 20]; // nonzero: every word reaches classify()
    let mut b = ImageSpec::builder("perf_startup")
        .var(GlobalSpec::new("big_state", big.len(), VarClass::Global).with_init(&big))
        .var(GlobalSpec::new("gp", 8, VarClass::Global))
        .static_var("counter", 8)
        .function(FunctionSpec::new("combine", 512))
        .code_padding(2 << 20); // FS deploy copies code too; the hardlink doesn't
    // A constructor-built object graph: two dozen heap allocations whose
    // ranges the conservative scan must test every nonzero word against
    // — the cost the memoized patch list pays exactly once.
    let mut ctor = CtorSpec::new("init").fn_ptr_into("gp", "combine");
    for i in 0..24 {
        let name = format!("h{i}");
        b = b.var(GlobalSpec::new(&name, 8, VarClass::Global));
        ctor = ctor.alloc_into(2048, &name);
    }
    link(b.ctor(ctor).build())
}

/// Steady-state startup cost in **ns per rank, median over ranks
/// `1..n`**.
///
/// Two normalization bugs made the seed's ranks axis non-monotone
/// (BENCH_perf.json reported tlsglobals at 256 ranks *cheaper* than at
/// 64):
///
/// 1. Rank 0's one-time per-process work (dlopen + phdr diff, the
///    memoized template/patch-list build, the TLS block prototype) was
///    timed along with the per-rank work and divided by `n_ranks`, so
///    larger sweeps amortized the fixed cost over more ranks. Rank 0 is
///    now instantiated *outside* the timed window.
/// 2. The mean over the remaining ranks is skewed by allocator/page-
///    fault outliers concentrated in the first few ranks, which a large
///    sweep dilutes and a small one does not. The *median* per-rank
///    time is robust to those outliers, making the number comparable
///    across sweep sizes: for a method with constant marginal cost the
///    ranks axis is flat up to noise, never systematically decreasing.
pub(crate) fn startup_ns_per_rank(
    binary: &Arc<ProgramBinary>,
    method: Method,
    n_ranks: usize,
) -> f64 {
    assert!(n_ranks >= 2, "need at least one rank past the warmup rank");
    let env = PrivatizeEnv::new(binary.clone());
    let mut p = create_privatizer(method, env, Options::default()).unwrap();
    // Rank memory is pre-created (and dropped) outside the timed window:
    // the measurement is the privatizer's work, not arena setup.
    let mut mems: Vec<pvr_isomalloc::RankMemory> = (0..n_ranks)
        .map(|_| pvr_isomalloc::RankMemory::new())
        .collect();
    let warm = p.instantiate_rank(0, &mut mems[0]).unwrap();
    drop(warm);
    let mut per_rank: Vec<u128> = Vec::with_capacity(n_ranks - 1);
    for (r, mem) in mems.iter_mut().enumerate().skip(1) {
        let t0 = Instant::now();
        let inst = p.instantiate_rank(r, mem).unwrap();
        per_rank.push(t0.elapsed().as_nanos());
        drop(inst);
    }
    per_rank.sort_unstable();
    let ns = per_rank[per_rank.len() / 2] as f64;
    drop(mems);
    regs::clear();
    ns
}

// ---------------------------------------------------------------------
// 3. Matching depth: posted and unexpected queues, 1 -> 4096 deep
// ---------------------------------------------------------------------

/// Depths of the matching sweep; `max_outstanding_reqs` is raised to fit
/// the ones past its default.
const MATCH_DEPTHS: [usize; 7] = [1, 4, 16, 64, 256, 1024, 4096];

/// Wall-clock ns per message with `depth` receives outstanding, over
/// about `msgs` messages per phase: `(posted, unexpected)`.
///
/// *Posted*: rank 0 posts `depth` exact-tag `Irecv`s, rank 1 sends the
/// matching messages youngest receive first (a front-to-back scan of the
/// posted queue walks all of it), rank 0 waits for all. *Unexpected*:
/// rank 1 sends `depth` distinct tags before rank 0 asks for any, then
/// rank 0 receives them newest first with blocking `Recv`s. Both clocks
/// run in rank 0 around the whole phase, so they hold the sender's and
/// the engine's share of every message too, as `match_deep` does.
pub fn match_depth_ns(depth: usize, msgs: usize) -> (f64, f64) {
    const GO: u32 = u32::MAX;
    const DONE: u32 = u32::MAX - 1;
    let rounds = (msgs / depth).max(1);
    let spent = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    let sink = spent.clone();
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(move |ctx: RankCtx| {
        let mpi = Ampi::init(ctx);
        let tags = 0..depth as u32;
        let payload = Bytes::copy_from_slice(&[7u8; 32]);
        for _ in 0..rounds {
            if mpi.rank() == 0 {
                let t0 = Instant::now();
                let recvs: Vec<RecvReq> = tags
                    .clone()
                    .map(|t| mpi.irecv(COMM_WORLD, Some(1), Some(t)))
                    .collect();
                mpi.send_bytes(COMM_WORLD, 1, GO, Bytes::new());
                std::hint::black_box(mpi.waitall(recvs));
                sink[0].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);

                let t0 = Instant::now();
                mpi.send_bytes(COMM_WORLD, 1, GO, Bytes::new());
                mpi.recv_bytes(COMM_WORLD, Some(1), Some(DONE));
                for t in tags.clone().rev() {
                    std::hint::black_box(mpi.recv_bytes(COMM_WORLD, Some(1), Some(t)));
                }
                sink[1].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            } else {
                mpi.recv_bytes(COMM_WORLD, Some(0), Some(GO));
                for t in tags.clone().rev() {
                    mpi.send_bytes(COMM_WORLD, 0, t, payload.clone());
                }
                mpi.recv_bytes(COMM_WORLD, Some(0), Some(GO));
                for t in tags.clone() {
                    mpi.send_bytes(COMM_WORLD, 0, t, payload.clone());
                }
                mpi.send_bytes(COMM_WORLD, 0, DONE, Bytes::new());
            }
        }
    });
    let mut cfg = MachineConfig::new(jacobi3d::binary());
    cfg.method = Method::TlsGlobals;
    cfg.clock = ClockMode::Virtual;
    cfg.topology = Topology::non_smp(2);
    cfg.stack_size = 256 * 1024;
    cfg.max_outstanding_reqs = cfg.max_outstanding_reqs.max(depth);
    let mut m = cfg.build(body).unwrap();
    m.run().unwrap();
    let per_msg = |i: usize| spent[i].load(Ordering::Relaxed) as f64 / (rounds * depth) as f64;
    (per_msg(0), per_msg(1))
}

/// Best of `reps` runs of [`match_depth_ns`], per phase.
pub fn best_match_depth_ns(depth: usize, msgs: usize, reps: usize) -> (f64, f64) {
    (0..reps.max(1))
        .map(|_| match_depth_ns(depth, msgs))
        .fold((f64::INFINITY, f64::INFINITY), |best, run| {
            (best.0.min(run.0), best.1.min(run.1))
        })
}

/// The sweep as a table and as `match_depth` rows of `BENCH_perf.json`:
/// `before` is the phase's cost at depth 16, `after` at the row's depth,
/// so a flat engine reads ratio ~1 down the column.
fn match_depth_report(quick: bool) -> String {
    let msgs = if quick { 1 << 14 } else { 1 << 17 };
    let reps = if quick { 3 } else { 5 };
    let sweep: Vec<(usize, (f64, f64))> = MATCH_DEPTHS
        .iter()
        .map(|&d| (d, best_match_depth_ns(d, msgs, reps)))
        .collect();
    let base = sweep.iter().find(|(d, _)| *d == 16).expect("16 is swept").1;
    let mut json = Vec::new();
    let mut table = Vec::new();
    for &(depth, ns) in &sweep {
        for (name, at, at16) in [("posted", ns.0, base.0), ("unexpected", ns.1, base.1)] {
            json.push(crate::JsonRow {
                section: "match_depth",
                name: name.to_string(),
                ranks: depth,
                method: "depth-sweep".into(),
                unit: "ns/msg",
                quick,
                before: at16,
                after: at,
                ratio: at16 / at,
            });
        }
        table.push(vec![
            depth.to_string(),
            format!("{:.0}", ns.0),
            format!("{:.2}x", ns.0 / base.0),
            format!("{:.0}", ns.1),
            format!("{:.2}x", ns.1 / base.1),
        ]);
    }
    if let Err(e) = crate::merge_bench_json("BENCH_perf.json", "match_depth", &json) {
        eprintln!("[perf] warning: could not write BENCH_perf.json: {e}");
    }
    render_table(
        "Matching depth — ns per message with `depth` receives outstanding (2 ranks, \
         virtual time, exact tags); `vs 16` is the cost relative to depth 16",
        &["depth", "posted ns/msg", "vs 16", "unexpected ns/msg", "vs 16"],
        &table,
    )
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

/// Run both measurements, write `BENCH_perf.json`, render the tables.
pub fn report(quick: bool) -> String {
    eprintln!("[perf] epoch dispatch ...");
    let (before, after) = epoch_dispatch_ns(quick);
    let speedup = before / after.max(1e-9);
    let json_path = "BENCH_perf.json";
    let row = crate::JsonRow {
        section: "perf",
        name: "epoch_dispatch".into(),
        ranks: 2,
        method: "spawn+join -> pool".into(),
        unit: "ns/op",
        quick,
        before,
        after,
        ratio: speedup,
    };
    if let Err(e) = crate::merge_bench_json(json_path, "perf", &[row]) {
        eprintln!("[perf] warning: could not write {json_path}: {e}");
    }
    let dispatch = render_table(
        &format!(
            "Epoch dispatch — ns per parallel epoch of two empty lanes: a scoped spawn + \
             join of two threads (before) vs the worker pool (after); written to {json_path}"
        ),
        &[
            "bench",
            "lanes",
            "method",
            "before ns/op",
            "after ns/op",
            "speedup",
        ],
        &[vec![
            "epoch_dispatch".into(),
            "2".into(),
            "spawn+join -> pool".into(),
            format!("{before:.0}"),
            format!("{after:.0}"),
            format!("{speedup:.2}x"),
        ]],
    );
    eprintln!("[perf] matching-depth sweep ...");
    format!("{dispatch}\n{}", match_depth_report(quick))
}
