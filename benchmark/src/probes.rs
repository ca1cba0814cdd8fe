//! Per-layer probes: the benchmark times calls into each layer's public
//! functions on inputs shaped like the workloads. Every probe reports the
//! median of at least ten samples taken after one warm-up sample.
//!
//! Which end-to-end metric each probe should move, on which workload, is
//! tabulated in README.md.

use crate::rng::SplitMix64;
use crate::stats::median;
use bytes::Bytes;
use pvr_ampi::{util, Datatype};
use pvr_apps::jacobi3d;
use pvr_des::{EventQueue, FaultPlan, HopClass, NetworkModel, SimTime, Topology};
use pvr_isomalloc::{RankMemory, Region, RegionDiffPlan, RegionKind};
use pvr_privatize::methods::Options;
use pvr_privatize::{create_privatizer, regs, Method, PrivatizeEnv, Privatizer, RankInstance};
use pvr_progimage::{link, CowSegment, PageTemplate, SharedFs};
use pvr_rts::lb::{GreedyRefineLb, LbStats, LoadBalancer};
use pvr_rts::{MachineBuilder, RankCtx, RtsMessage};
use pvr_trace::{EventKind, Tracer};
use pvr_ult::Ult;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const SAMPLES: usize = 11;
const MIB: usize = 1 << 20;

/// Median over `SAMPLES` timed calls of `f` (after one untimed call), in
/// ns per operation, where one call performs `ops` operations.
fn median_ns_per_op(ops: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// Like [`median_ns_per_op`] for probes whose input must be rebuilt
/// untimed before every sample: `f` returns the ns it measured itself.
fn median_of(mut f: impl FnMut() -> f64) -> f64 {
    f();
    let samples: Vec<f64> = (0..SAMPLES).map(|_| f()).collect();
    median(&samples)
}

// ---------------------------------------------------------------------
// ult
// ---------------------------------------------------------------------

fn ult(out: &mut Vec<(&'static str, f64)>) {
    const ROUNDS: usize = 2000;
    // Two ULTs ping-pong through the resumer: each resume is a switch in,
    // each yield a switch out.
    let switch = median_ns_per_op(4 * ROUNDS, || {
        let mk = || {
            Ult::new(256 * 1024, || {
                for _ in 0..ROUNDS {
                    pvr_ult::yield_now();
                }
            })
        };
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..ROUNDS {
            a.resume();
            b.resume();
        }
        a.resume();
        b.resume();
    });
    out.push(("ult.switch_ns", switch));
    let create = median_ns_per_op(20, || {
        for _ in 0..20 {
            let mut u = Ult::new(256 * 1024, || {
                black_box(0u8);
            });
            u.resume();
        }
    });
    out.push(("ult.create_ns", create));
}

// ---------------------------------------------------------------------
// privatize
// ---------------------------------------------------------------------

/// Ranks instantiated by [`startup`], with the privatizer that owns what
/// they point into (dropped after them: fields drop in order).
struct Started {
    /// Median marginal rank cost in ns (rank 0, which pays the
    /// per-process work, is untimed).
    ns_per_rank: f64,
    ranks: Vec<(RankInstance, RankMemory)>,
    _privatizer: Box<dyn Privatizer>,
}

/// Instantiate 32 ranks of the Jacobi binary under `method`, keeping two
/// of them alive for the activate and access probes.
fn startup(method: Method) -> Started {
    const RANKS: usize = 32;
    let mut env = PrivatizeEnv::new(jacobi3d::binary());
    if method == Method::FsGlobals {
        env = env.with_shared_fs(Some(Arc::new(parking_lot::Mutex::new(SharedFs::new()))));
    }
    let mut p = create_privatizer(method, env, Options::default()).expect("privatizer builds");
    let mut ranks = Vec::new();
    let mut per_rank = Vec::with_capacity(RANKS - 1);
    for r in 0..RANKS {
        let mut mem = RankMemory::new();
        let t = Instant::now();
        let inst = p.instantiate_rank(r, &mut mem).expect("rank instantiates");
        if r > 0 {
            per_rank.push(t.elapsed().as_nanos() as f64);
        }
        if (1..=2).contains(&r) {
            ranks.push((inst, mem));
        }
    }
    Started {
        ns_per_rank: median(&per_rank),
        ranks,
        _privatizer: p,
    }
}

fn privatize(out: &mut Vec<(&'static str, f64)>) {
    for (method, startup_name, activate_name, access_name) in [
        (
            Method::TlsGlobals,
            "privatize.startup_ns_per_rank.tlsglobals",
            "privatize.activate_ns.tlsglobals",
            "privatize.access_ns.tlsglobals",
        ),
        (
            Method::PieGlobals,
            "privatize.startup_ns_per_rank.pieglobals",
            "privatize.activate_ns.pieglobals",
            "privatize.access_ns.pieglobals",
        ),
        (
            Method::CowGlobals,
            "privatize.startup_ns_per_rank.cowglobals",
            "privatize.activate_ns.cowglobals",
            "privatize.access_ns.cowglobals",
        ),
    ] {
        let started = startup(method);
        out.push((startup_name, started.ns_per_rank));
        let (a, b) = (&started.ranks[0].0, &started.ranks[1].0);
        const N: usize = 20_000;
        out.push((
            activate_name,
            median_ns_per_op(2 * N, || {
                for _ in 0..N {
                    a.activate();
                    b.activate();
                }
            }),
        ));
        // the Jacobi sweep's own pattern: a privatized f64 read per grid
        // point, a privatized u64 write per iteration
        a.activate();
        let omega = a.access("j_omega");
        let iter = a.access("j_iter");
        out.push((
            access_name,
            median_ns_per_op(2 * N, || {
                let mut acc = 0.0f64;
                for i in 0..N {
                    acc += omega.read_f64();
                    iter.write_u64(i as u64);
                }
                black_box(acc);
            }),
        ));
        regs::clear();
    }
    out.push((
        "privatize.startup_ns_per_rank.fsglobals",
        startup(Method::FsGlobals).ns_per_rank,
    ));
    regs::clear();
}

// ---------------------------------------------------------------------
// progimage
// ---------------------------------------------------------------------

fn progimage(out: &mut Vec<(&'static str, f64)>) {
    out.push((
        "progimage.link_ns",
        median_ns_per_op(1, || {
            black_box(link(jacobi3d::image_spec()));
        }),
    ));
    // First touch of every page of a 1 MiB copy-on-write segment.
    let template = Arc::new(PageTemplate::from_bytes(&vec![0x5Au8; MIB]));
    let pages = template.n_pages();
    out.push((
        "progimage.cow_fault_ns",
        median_of(|| {
            let mut backing = vec![0u8; MIB];
            // SAFETY: `backing` holds `template.len()` writable bytes, is
            // touched only through `seg`, and outlives it (dropped after).
            let mut seg = unsafe { CowSegment::new(template.clone(), backing.as_mut_ptr()) };
            let t = Instant::now();
            for i in 0..pages {
                black_box(seg.privatize_page(i));
            }
            let ns = t.elapsed().as_nanos() as f64 / pages as f64;
            drop(seg);
            black_box(&backing);
            ns
        }),
    ));
}

// ---------------------------------------------------------------------
// isomalloc
// ---------------------------------------------------------------------

fn isomalloc(out: &mut Vec<(&'static str, f64)>) {
    // 4 MiB of heap plus a stack region: a surge rank's shape.
    let mut mem = RankMemory::new();
    let heap = mem.heap().alloc(4 * MIB, 8).expect("heap allocates");
    // SAFETY: `heap` is a live 4 MiB allocation owned by `mem`.
    unsafe { std::ptr::write_bytes(heap.addr() as *mut u8, 0xA5, 4 * MIB) };
    mem.add_region(Region::new_zeroed(RegionKind::Stack, 256 * 1024));
    let mb = mem.migration_bytes() as f64 / 1e6;
    let image = mem.pack();
    out.push((
        "isomalloc.pack_ns_per_mb",
        median_ns_per_op(1, || {
            black_box(mem.pack());
        }) / mb,
    ));
    out.push((
        "isomalloc.unpack_ns_per_mb",
        median_ns_per_op(1, || {
            mem.unpack_into(&image).expect("same layout unpacks");
        }) / mb,
    ));
    // dirty 1 % of the 4 KiB pages, then diff against the packed image
    let pages = 4 * MIB / 4096;
    for p in (0..pages).step_by(100) {
        // SAFETY: inside the 4 MiB allocation above.
        unsafe { *((heap.addr() + p * 4096) as *mut u8) ^= 0xFF };
    }
    out.push((
        "isomalloc.diff_ns_per_mb",
        median_ns_per_op(1, || {
            let delta = mem
                .diff_pages_against(&image, 4096, |_| RegionDiffPlan::Scan)
                .expect("layout unchanged");
            assert!(delta.range_count() >= pages / 100);
            black_box(delta);
        }) / mb,
    ));
    for (name, size) in [
        ("isomalloc.alloc_free_ns.64b", 64usize),
        ("isomalloc.alloc_free_ns.32k", 32 * 1024),
    ] {
        let mut arena = pvr_isomalloc::Arena::new();
        const N: usize = 2000;
        out.push((
            name,
            median_ns_per_op(N, || {
                for _ in 0..N {
                    let p = arena.alloc(size, 8).expect("arena allocates");
                    arena.dealloc(black_box(p));
                }
            }),
        ));
    }
}

// ---------------------------------------------------------------------
// des
// ---------------------------------------------------------------------

fn des(out: &mut Vec<(&'static str, f64)>) {
    const BULK: usize = 400_000;
    let fill = |n: usize| {
        let mut q: EventQueue<u64> = EventQueue::with_capacity(n);
        let mut x = SplitMix64::new(1);
        for i in 0..n {
            q.schedule(SimTime(x.next_u64() % (n as u64 * 8)), i as u64);
        }
        q
    };
    out.push((
        "des.schedule_ns",
        median_ns_per_op(50_000, || {
            black_box(fill(50_000));
        }),
    ));
    // The message workloads' regime: a shallow queue refilled and drained
    // sixteen events at a time. Times the schedule and the drain together.
    out.push((
        "des.drain_small_ns_per_event",
        median_ns_per_op(16 * 2000, || {
            let mut q: EventQueue<u64> = EventQueue::with_capacity(64);
            let mut scratch: Vec<(SimTime, u64)> = Vec::with_capacity(64);
            let mut x = SplitMix64::new(2);
            for epoch in 0..2000u64 {
                for i in 0..16 {
                    q.schedule(SimTime(epoch * 1000 + x.next_u64() % 1000), i);
                }
                scratch.clear();
                q.drain_until(SimTime((epoch + 1) * 1000), &mut scratch);
                assert_eq!(scratch.len(), 16);
            }
        }),
    ));
    out.push((
        "des.drain_bulk_ns_per_event",
        median_of(|| {
            let mut q = fill(BULK);
            let mut scratch: Vec<(SimTime, u64)> = Vec::with_capacity(BULK);
            let t = Instant::now();
            q.drain_until(SimTime::MAX, &mut scratch);
            let ns = t.elapsed().as_nanos() as f64 / BULK as f64;
            assert_eq!(scratch.len(), BULK);
            ns
        }),
    ));
    let plan = FaultPlan::lossy_internode(7, 0.05, 0.05);
    out.push((
        "des.fault_decide_ns",
        median_ns_per_op(100_000, || {
            let mut drops = 0u32;
            for key in 0..100_000u64 {
                drops += plan.decide(HopClass::InterNode, black_box(key)).drop as u32;
            }
            black_box(drops);
        }),
    ));
    let net = NetworkModel::infiniband();
    let topo = Topology::non_smp(4);
    out.push((
        "des.net_cost_ns",
        median_ns_per_op(100_000, || {
            let mut total = 0u64;
            for i in 0..100_000usize {
                total += net.cost(&topo, i & 3, (i >> 2) & 3, black_box(32)).nanos();
            }
            black_box(total);
        }),
    ));
}

// ---------------------------------------------------------------------
// rts
// ---------------------------------------------------------------------

/// A machine whose rank 0 holds a 4 MiB heap and is parked in `recv`.
fn migrate_ns_per_mb(method: Method) -> f64 {
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(|ctx: RankCtx| {
        if ctx.rank() == 0 {
            let buf = ctx.heap_alloc(4 * MIB, 8);
            // SAFETY: a fresh 4 MiB allocation owned by this rank.
            unsafe { std::ptr::write_bytes(buf, 0xA5, 4 * MIB) };
            let _ = ctx.recv();
        }
    });
    let mut machine = MachineBuilder::new(jacobi3d::binary())
        .method(method)
        .topology(Topology::non_smp(2))
        .vp_ratio(1)
        .build(body)
        .expect("machine builds");
    machine.drive_rank(0).expect("rank parks in recv");
    let mut per_mb = Vec::with_capacity(SAMPLES + 1);
    for k in 0..=SAMPLES {
        let rec = machine
            .migrate_now(0, (k + 1) % 2)
            .expect("migration allowed");
        per_mb.push(rec.real_time.as_nanos() as f64 / (rec.bytes as f64 / 1e6));
    }
    // unpark and finish so the machine tears down cleanly
    machine.inject_message(RtsMessage::new(1, 0, 0, Bytes::new()));
    machine.run().expect("drain");
    median(&per_mb[1..])
}

fn rts(out: &mut Vec<(&'static str, f64)>) {
    let data = [0x42u8; 32];
    out.push((
        "rts.msg_lifecycle_ns",
        median_ns_per_op(100_000, || {
            let mut acc = 0u64;
            for i in 0..100_000u64 {
                let m = RtsMessage::new(0, 1, i, Bytes::copy_from_slice(&data));
                let delivery = m.clone();
                drop(m);
                acc ^= delivery.tag + delivery.payload.as_ref()[0] as u64;
            }
            black_box(acc);
        }),
    ));
    let big = Bytes::from(vec![0x17u8; 32 * 1024]);
    out.push((
        "rts.msg_seal_ns_per_kb",
        median_ns_per_op(200 * 32, || {
            for i in 0..200u64 {
                let mut m = RtsMessage::new(0, 1, i, big.clone());
                m.seal();
                assert!(m.intact());
            }
        }),
    ));
    // 32 ranks on 8 PEs, loads skewed the way the surge front skews them
    let stats = LbStats {
        loads: (0..32).map(|r| 1.0 + (r % 8) as f64 * 0.35).collect(),
        placement: (0..32).map(|r| r / 4).collect(),
        n_pes: 8,
        migration_bytes: vec![MIB; 32],
        comm_bytes: Vec::new(),
    };
    let lb = GreedyRefineLb::default();
    out.push((
        "rts.lb_rebalance_us",
        median_ns_per_op(100, || {
            for _ in 0..100 {
                black_box(lb.rebalance(black_box(&stats)));
            }
        }) / 1e3,
    ));
    out.push((
        "rts.migrate_ns_per_mb.tlsglobals",
        migrate_ns_per_mb(Method::TlsGlobals),
    ));
    out.push((
        "rts.migrate_ns_per_mb.cowglobals",
        migrate_ns_per_mb(Method::CowGlobals),
    ));
}

// ---------------------------------------------------------------------
// ampi, trace, apps
// ---------------------------------------------------------------------

fn ampi(out: &mut Vec<(&'static str, f64)>) {
    // one Jacobi halo plane: 64 x 64 doubles = 32 KiB
    let plane: Vec<f64> = (0..4096).map(|i| i as f64).collect();
    out.push((
        "ampi.f64_codec_ns_per_kb",
        median_ns_per_op(200 * 32, || {
            for _ in 0..200 {
                let wire = util::f64s_to_bytes(black_box(&plane));
                black_box(util::bytes_to_f64s(&wire));
            }
        }),
    ));
    let dt = Datatype::vector(32, 4, 8);
    let src: Vec<f64> = (0..256).map(|i| i as f64).collect();
    let mut dst = vec![0.0f64; 256];
    let wire = dt.pack(&src);
    out.push((
        "ampi.pack_ns",
        median_ns_per_op(5000, || {
            for _ in 0..5000 {
                black_box(dt.pack(black_box(&src)));
            }
        }),
    ));
    out.push((
        "ampi.unpack_ns",
        median_ns_per_op(5000, || {
            for _ in 0..5000 {
                dt.unpack(black_box(&wire), &mut dst);
            }
        }),
    ));
}

fn trace(out: &mut Vec<(&'static str, f64)>) {
    const N: usize = 200_000;
    let tracer = Tracer::new(2);
    let record = || {
        median_ns_per_op(N, || {
            for i in 0..N as u64 {
                tracer.record(
                    (i & 1) as usize,
                    0,
                    i,
                    black_box(EventKind::CtxSwitchIn { ctx_work: false }),
                );
            }
        })
    };
    out.push(("trace.record_off_ns", record()));
    tracer.enable();
    out.push(("trace.record_on_ns", record()));
}

fn apps(out: &mut Vec<(&'static str, f64)>) {
    // The plain single-threaded baseline of the Jacobi problem: the same
    // global grid, fewer iterations (the cost per point does not depend on
    // the iteration count).
    let (nx, ny, nz, iters) = (64usize, 64usize, 256usize, 4usize);
    let points = (nx * ny * nz * iters) as f64;
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            black_box(jacobi3d::serial_reference(nx, ny, nz, iters));
            t.elapsed().as_nanos() as f64 / points
        })
        .collect();
    out.push(("apps.jacobi_ns_per_point", median(&samples[1..])));
}

/// Run every probe; `(metric name, value)` in a fixed order.
pub fn run_all() -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    ult(&mut out);
    privatize(&mut out);
    progimage(&mut out);
    isomalloc(&mut out);
    des(&mut out);
    rts(&mut out);
    ampi(&mut out);
    trace(&mut out);
    apps(&mut out);
    out
}
