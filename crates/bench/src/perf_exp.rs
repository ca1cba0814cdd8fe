//! `perf` — hot-path microbenchmark baseline for the PR-5 fast paths.
//!
//! Every optimization behind `perf_fast_paths` keeps its reference
//! implementation alive as an oracle, which means the speedup is
//! directly measurable: run the same workload with the knob off
//! ("before") and on ("after"). This experiment benchmarks the three
//! hot paths the overhaul targeted —
//!
//! 1. **message round-trip**: the per-message wire lifecycle
//!    (construct, seal, retransmit-clone, verify) against the seed
//!    implementation it replaced, plus a 2-PE ping-pong through the
//!    full engine (outbox pooling, inline payloads, lane recycling),
//! 2. **epoch extraction**: `EventQueue::drain_until` vs the
//!    one-pop-per-event `pop_window` oracle, and **epoch dispatch**: a
//!    parallel epoch of two empty lanes on the worker pool vs the
//!    per-epoch scoped spawn + join the pool replaced,
//! 3. **privatization startup**: memoized template/patch-list (PIE),
//!    prebuilt TLS block template, and FS link-instead-of-copy, per
//!    method at 8/64/256 ranks,
//!
//! plus the datatype pack/unpack path as an ungated tracked baseline
//! and the **matching-depth sweep** ([`match_depth_ns`]): per-message
//! cost of the posted and the unexpected queue from depth 1 to 4096,
//! which a matching engine that scans grows linearly in and a hashed
//! one is flat in.
//! Results are rendered as a table and written to `BENCH_perf.json`
//! so CI can track the numbers over time.

use crate::render_table;
use bytes::Bytes;
use pvr_ampi::{Ampi, RecvReq, COMM_WORLD};
use pvr_apps::jacobi3d;
use pvr_des::{EventQueue, SimTime, Topology};
use pvr_privatize::methods::Options;
use pvr_privatize::{create_privatizer, regs, Method, PrivatizeEnv};
use pvr_progimage::{
    link, CtorSpec, FunctionSpec, GlobalSpec, ImageSpec, ProgramBinary, SharedFs, VarClass,
};
use pvr_rts::{ClockMode, MachineBuilder, Parallelism, RankCtx, RtsMessage};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One before/after measurement. `ranks` is the scale parameter of the
/// bench (message count scale, event count, or rank count — see `name`).
pub struct BenchRow {
    pub name: &'static str,
    pub ranks: usize,
    pub method: String,
    pub before_ns: f64,
    pub after_ns: f64,
}

impl BenchRow {
    pub fn speedup(&self) -> f64 {
        self.before_ns / self.after_ns.max(1e-9)
    }
}

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
// 1. Message round-trip through the full engine
// ---------------------------------------------------------------------

fn run_pingpong(n_msgs: usize, fast: bool) -> f64 {
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(move |ctx: RankCtx| {
        let mpi = Ampi::init(ctx);
        let payload = Bytes::copy_from_slice(&[7u8; 32]);
        if mpi.rank() == 0 {
            for _ in 0..n_msgs {
                mpi.send_bytes(COMM_WORLD, 1, 0, payload.clone());
                mpi.recv_bytes(COMM_WORLD, Some(1), Some(0));
            }
        } else {
            for _ in 0..n_msgs {
                mpi.recv_bytes(COMM_WORLD, Some(0), Some(0));
                mpi.send_bytes(COMM_WORLD, 0, 0, payload.clone());
            }
        }
    });
    // TLSglobals: cheapest startup of the migratable methods, so the
    // measurement is the message path, not privatization.
    let mut m = MachineBuilder::new(jacobi3d::binary())
        .method(Method::TlsGlobals)
        .clock(ClockMode::Virtual)
        .topology(Topology::non_smp(2))
        .vp_ratio(1)
        .stack_size(256 * 1024)
        .perf_fast_paths(fast)
        .build(body)
        .unwrap();
    let t0 = Instant::now();
    m.run().unwrap();
    t0.elapsed().as_nanos() as f64 / n_msgs as f64
}

fn bench_engine_pingpong(quick: bool) -> BenchRow {
    let n_msgs = if quick { 2000 } else { 20_000 };
    let reps = if quick { 3 } else { 5 };
    let mut before = f64::INFINITY;
    let mut after = f64::INFINITY;
    for _ in 0..reps {
        before = before.min(run_pingpong(n_msgs, false));
        after = after.min(run_pingpong(n_msgs, true));
    }
    BenchRow {
        name: "engine_pingpong",
        ranks: 2,
        method: "tlsglobals".into(),
        before_ns: before,
        after_ns: after,
    }
}

/// One message's fault-free wire lifecycle at the object level:
/// construct the payload from the sender's buffer, wrap it in an
/// [`RtsMessage`], clone it into the delivery event, fold over the
/// bytes at the receiver, drop everything. This is the per-message
/// work the engine does on the default (fault-free) path, where the
/// integrity seal is skipped entirely.
///
/// "Before" reproduces the seed `Bytes`, which was always
/// `Arc<[u8]>`-backed: every payload construction was a heap
/// allocation + copy, every delivery clone an atomic refcount bump,
/// every drop an atomic decrement with the last one freeing. "After"
/// is the shipping small-payload representation: ≤64-byte payloads
/// live inline in the message, so the whole lifecycle is two small
/// memcpys with no allocator or atomics traffic.
fn bench_msg_roundtrip(quick: bool) -> BenchRow {
    let iters = if quick { 400_000 } else { 4_000_000 };
    let reps = if quick { 3 } else { 5 };
    let data = [0x42u8; 32];

    let before = best_ns_per_op(reps, iters, || {
        let mut acc = 0u64;
        for i in 0..iters {
            let payload: Arc<[u8]> = Arc::from(&data[..]); // seed Bytes: always heap
            let tag = i as u64;
            let delivery = payload.clone(); // Arc refcount bump
            drop(payload); // sender's handle: atomic decrement
            let mut sum = tag;
            for &b in delivery.iter() {
                sum = sum.wrapping_add(b as u64); // receiver reads
            }
            acc ^= sum;
            // `delivery` drop: last refcount, frees the allocation
        }
        std::hint::black_box(acc);
    });
    let after = best_ns_per_op(reps, iters, || {
        let mut acc = 0u64;
        for i in 0..iters {
            let m = RtsMessage::new(0, 1, i as u64, Bytes::copy_from_slice(&data));
            let delivery = m.clone(); // inline payload: plain memcpy
            drop(m);
            let mut sum = delivery.tag;
            for &b in delivery.payload.as_ref() {
                sum = sum.wrapping_add(b as u64);
            }
            acc ^= sum;
        }
        std::hint::black_box(acc);
    });
    BenchRow {
        name: "msg_roundtrip",
        ranks: 2,
        method: "wire-lifecycle".into(),
        before_ns: before,
        after_ns: after,
    }
}

// ---------------------------------------------------------------------
// 2. Epoch extraction: drain_until vs the pop_window oracle
// ---------------------------------------------------------------------

fn fill_queue(n: usize) -> EventQueue<u64> {
    let mut q = EventQueue::with_capacity(n);
    // Deterministic pseudo-random arrival times (LCG), so the heap sees
    // realistic disorder rather than presorted input.
    let mut x = 0x9e3779b97f4a7c15u64;
    for i in 0..n {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        q.schedule(SimTime(x % (n as u64 * 8)), i as u64);
    }
    q
}

fn bench_epoch_extract(quick: bool) -> BenchRow {
    let n = if quick { 40_000 } else { 400_000 };
    let reps = if quick { 3 } else { 5 };
    // The engine's dominant regime: the lookahead window swallows every
    // pending event, so one epoch drains the whole queue. The fill is
    // identical for both paths and excluded from the timing.
    let mut before = f64::INFINITY;
    let mut after = f64::INFINITY;
    for _ in 0..reps {
        let mut q = fill_queue(n);
        let t0 = Instant::now();
        let got = q.pop_window(SimTime::MAX).len();
        before = before.min(t0.elapsed().as_nanos() as f64 / n as f64);
        assert_eq!(got, n);

        let mut q = fill_queue(n);
        let mut scratch: Vec<(SimTime, u64)> = Vec::new();
        let t0 = Instant::now();
        q.drain_until(SimTime::MAX, &mut scratch);
        after = after.min(t0.elapsed().as_nanos() as f64 / n as f64);
        assert_eq!(scratch.len(), n);
    }
    BenchRow {
        name: "epoch_extract",
        ranks: n,
        method: "event-queue".into(),
        before_ns: before,
        after_ns: after,
    }
}

/// What a parallel epoch costs beyond its lanes' work: ns per epoch of
/// two lanes holding one no-op `PeWake` each on the `Threads(2)` pool
/// ("after"), against what the engine did per epoch before it had a
/// pool — a scoped spawn and join of two threads ("before").
fn bench_epoch_dispatch(quick: bool) -> BenchRow {
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
    BenchRow {
        name: "epoch_dispatch",
        ranks: 2,
        method: "spawn+join -> pool".into(),
        before_ns: before,
        after_ns: after,
    }
}

// ---------------------------------------------------------------------
// 3. Privatization startup, per method and rank count
// ---------------------------------------------------------------------

/// A data-heavy program image, the shape where startup cost lives: the
/// PIEglobals conservative scan walks every (nonzero) data word per
/// rank, the FSglobals deploy copies the whole binary per rank, and the
/// TLS block carries a large initialized variable. Shared with the COW
/// sweep (`cow_exp`) so its before/after is against the same image.
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
    fast: bool,
) -> f64 {
    assert!(n_ranks >= 2, "need at least one rank past the warmup rank");
    let mut env = PrivatizeEnv::new(binary.clone()).with_perf_fast(fast);
    if method == Method::FsGlobals {
        env = env.with_shared_fs(Some(Arc::new(parking_lot::Mutex::new(SharedFs::new()))));
    }
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

fn bench_startup(quick: bool) -> Vec<BenchRow> {
    let rank_counts: &[usize] = if quick { &[8, 64] } else { &[8, 64, 256] };
    let methods = [Method::TlsGlobals, Method::FsGlobals, Method::PieGlobals];
    let reps = if quick { 2 } else { 3 };
    let binary = startup_binary();
    let mut rows = Vec::new();
    for &n in rank_counts {
        for method in methods {
            let mut before = f64::INFINITY;
            let mut after = f64::INFINITY;
            for _ in 0..reps {
                before = before.min(startup_ns_per_rank(&binary, method, n, false));
                after = after.min(startup_ns_per_rank(&binary, method, n, true));
            }
            rows.push(BenchRow {
                name: "startup",
                ranks: n,
                method: method.name().into(),
                before_ns: before,
                after_ns: after,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------
// 4. Datatype pack/unpack (ungated tracked baseline)
// ---------------------------------------------------------------------

fn bench_pack_unpack(quick: bool) -> BenchRow {
    use pvr_ampi::Datatype;
    let iters = if quick { 20_000 } else { 200_000 };
    let reps = if quick { 2 } else { 3 };
    let dt = Datatype::vector(32, 4, 8); // 128 elements, strided
    let src: Vec<f64> = (0..256).map(|i| i as f64).collect();
    let mut dst = vec![0.0f64; 256];
    let mut measure = || {
        best_ns_per_op(reps, iters, || {
            for _ in 0..iters {
                let wire = dt.pack(&src);
                dt.unpack(&wire, &mut dst);
            }
        })
    };
    // Not gated by `perf_fast_paths`: measured twice as a stable
    // baseline; the JSON tracks drift, not a speedup.
    let before = measure();
    let after = measure();
    BenchRow {
        name: "pack_unpack",
        ranks: 128,
        method: "vector-datatype".into(),
        before_ns: before,
        after_ns: after,
    }
}

// ---------------------------------------------------------------------
// 5. Matching depth: posted and unexpected queues, 1 -> 4096 deep
// ---------------------------------------------------------------------

/// Depths of the matching sweep; `max_outstanding_reqs` is raised to fit.
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
    let mut m = MachineBuilder::new(jacobi3d::binary())
        .method(Method::TlsGlobals)
        .clock(ClockMode::Virtual)
        .topology(Topology::non_smp(2))
        .vp_ratio(1)
        .stack_size(256 * 1024)
        .max_outstanding_reqs(depth)
        .build(body)
        .unwrap();
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

fn write_json(path: &str, quick: bool, rows: &[BenchRow]) -> std::io::Result<()> {
    let json: Vec<crate::JsonRow> = rows
        .iter()
        .map(|r| crate::JsonRow {
            section: "perf",
            name: r.name.to_string(),
            ranks: r.ranks,
            method: r.method.clone(),
            // Startup rows report the median marginal rank cost (see
            // `startup_ns_per_rank`); the rest are best-of-reps ns/op.
            unit: if r.name == "startup" { "ns/rank (median)" } else { "ns/op" },
            quick,
            before: r.before_ns,
            after: r.after_ns,
            ratio: r.speedup(),
        })
        .collect();
    crate::merge_bench_json(path, "perf", &json)
}

/// Run the full suite, write `BENCH_perf.json`, render the table.
pub fn report(quick: bool) -> String {
    let mut rows = Vec::new();
    eprintln!("[perf] message round-trip ...");
    rows.push(bench_msg_roundtrip(quick));
    eprintln!("[perf] engine ping-pong ...");
    rows.push(bench_engine_pingpong(quick));
    eprintln!("[perf] epoch extraction ...");
    rows.push(bench_epoch_extract(quick));
    eprintln!("[perf] epoch dispatch ...");
    rows.push(bench_epoch_dispatch(quick));
    eprintln!("[perf] startup sweep ...");
    rows.extend(bench_startup(quick));
    eprintln!("[perf] pack/unpack ...");
    rows.push(bench_pack_unpack(quick));

    let json_path = "BENCH_perf.json";
    if let Err(e) = write_json(json_path, quick, &rows) {
        eprintln!("[perf] warning: could not write {json_path}: {e}");
    }

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.ranks.to_string(),
                r.method.clone(),
                format!("{:.0}", r.before_ns),
                format!("{:.0}", r.after_ns),
                format!("{:.2}x", r.speedup()),
            ]
        })
        .collect();
    let baseline = render_table(
        &format!(
            "Hot-path baseline — reference (perf_fast_paths=off) vs fast \
             (on); written to {json_path}"
        ),
        &["bench", "scale", "method", "before ns/op", "after ns/op", "speedup"],
        &table_rows,
    );
    eprintln!("[perf] matching-depth sweep ...");
    format!("{baseline}\n{}", match_depth_report(quick))
}
