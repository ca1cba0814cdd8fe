//! Pinned event order: every virtual-time configuration below must
//! reproduce the exact `sim_digest` recorded in [`PINNED`], under
//! `Serial` and under `Threads(2)`.
//!
//! The determinism suite compares two engines of one build with each
//! other, so a change to how same-time events on different PEs are
//! ordered would pass it as long as both engines changed alike. This
//! test compares against literals instead: a change to the event loop
//! must leave every line unchanged. The matrix covers the three epoch
//! shapes (zero-cost network: one event per epoch; latency: lookahead
//! windows; one live PE after a failure: unbounded), migration, load
//! balancing, lossy delivery with retransmission, checkpoint rollback,
//! a wildcard receive whose match order depends on cross-PE ties, and
//! `msg_window`'s ring of 64-message windows, whose same-time sends to
//! one rank are the longest runs of ties the runtime sees.
//!
//! On a mismatch the failure message prints the whole table as
//! computed, in the form of [`PINNED`].

use parking_lot::Mutex;
use pvr_ampi::p2p::Status;
use pvr_ampi::{Ampi, COMM_WORLD};
use pvr_apps::jacobi3d::{self, JacobiConfig};
use pvr_apps::surge::{self, SurgeConfig};
use pvr_des::{FaultParams, FaultPlan, HopClass, NetworkModel, SimDuration, Topology};
use pvr_privatize::Method;
use pvr_rts::lb::GreedyRefineLb;
use pvr_rts::{ClockMode, MachineBuilder, Parallelism, RankCtx};
use std::fmt::Write as _;
use std::sync::Arc;

/// `(configuration, value)`: a run's `sim_digest`, or for a line ending
/// in `order`, the hash of the arrival order its ranks saw. Every `jacobi`,
/// `surge_ft` and `race` line was recorded with one global event queue,
/// except those marked "new: barrier clamp": runs in which a lane ran its
/// own timers and acks past the time of an event a barrier then scheduled
/// onto it, which stopped with "cannot schedule into the past" until such
/// events were clamped to their lane's queue time. The `window` lines were
/// recorded with one event per message, before same-time messages for one
/// rank shared a delivery event.
///
/// A `surge_ft` line holds for one build profile: its incremental
/// checkpoints diff the ranks' stacks, whose frames the optimizer shapes.
const PINNED: &[(&str, u64)] = &[
    ("jacobi ideal 2pe serial", 0xe621f91026a98c58),
    ("jacobi ideal 2pe lb serial", 0xb3eb80c9bac3fae7),
    ("jacobi ideal 2pe faults serial", 0x975fe7195236a082),
    ("jacobi ideal 2pe faults lb serial", 0x605f10d422768537), // new: barrier clamp
    ("jacobi ideal 3pe serial", 0xe940d6e93af83a3b),
    ("jacobi ideal 3pe lb serial", 0xacb9b0047354de8a),
    ("jacobi ideal 3pe faults serial", 0x43730bb210cc8de2),
    ("jacobi ideal 3pe faults lb serial", 0xa503a60d79d8a37c),
    ("jacobi ideal 4pe serial", 0x087020ae640974a5),
    ("jacobi ideal 4pe lb serial", 0x65307a6391888a3a),
    ("jacobi ideal 4pe faults serial", 0x25fa3de8c938c5d4),
    ("jacobi ideal 4pe faults lb serial", 0xa4f43d9d45c5366a),
    ("jacobi ib 2pe serial", 0x16f95343c70a4fac),
    ("jacobi ib 2pe lb serial", 0x9bb09120f391736c),
    ("jacobi ib 2pe faults serial", 0x0d425c532adc86c9), // new: barrier clamp
    ("jacobi ib 2pe faults lb serial", 0x922e3be259aa2440), // new: barrier clamp
    ("jacobi ib 3pe serial", 0xd15f2f803ae34ce0),
    ("jacobi ib 3pe lb serial", 0x5387fc6447cb6899),
    ("jacobi ib 3pe faults serial", 0x44740dd486196b02),
    ("jacobi ib 3pe faults lb serial", 0x5d6cf37b11911311), // new: barrier clamp
    ("jacobi ib 4pe serial", 0x97db4303585dd486),
    ("jacobi ib 4pe lb serial", 0x9f5ee496cbec4f09),
    ("jacobi ib 4pe faults serial", 0x628c5cffdee6ddc6),
    ("jacobi ib 4pe faults lb serial", 0xd75bb8a516c3f505),
    ("surge_ft 4pe serial release", 0x7512e8df5097272b),
    ("surge_ft 4pe serial debug", 0x8d0154a4183a8320),
    ("race ideal 4pe serial", 0xbe80844191220b89),
    ("race ideal 4pe serial order", 0x44ab491b01b09825),
    ("race ib 4pe serial", 0x0bce49f88ad3c5fa),
    ("race ib 4pe serial order", 0x72037fd2594bff25),
    ("window ideal 4pe serial", 0x140d6fb8c538f6fc),
    ("window ideal 4pe serial order", 0xcafd49757174b7d9),
    ("window ib 4pe serial", 0xe512e06dc721fa1c),
    ("window ib 4pe serial order", 0x6553ba692ee2cbd0),
    ("window lossy 4pe serial", 0x1bfbef6fee70a7f6),
    ("window lossy 4pe serial order", 0xd737972ae1262c06),
    ("window ib 4pe lb serial", 0xf614d49e4369cf3b),
    ("window ib 4pe lb serial order", 0x62ff5ee774bc69b6),
    ("jacobi ideal 2pe threads2", 0xe621f91026a98c58),
    ("jacobi ideal 2pe lb threads2", 0xb3eb80c9bac3fae7),
    ("jacobi ideal 2pe faults threads2", 0x975fe7195236a082),
    ("jacobi ideal 2pe faults lb threads2", 0x605f10d422768537), // new: barrier clamp
    ("jacobi ideal 3pe threads2", 0xe940d6e93af83a3b),
    ("jacobi ideal 3pe lb threads2", 0xacb9b0047354de8a),
    ("jacobi ideal 3pe faults threads2", 0x43730bb210cc8de2),
    ("jacobi ideal 3pe faults lb threads2", 0xa503a60d79d8a37c),
    ("jacobi ideal 4pe threads2", 0x087020ae640974a5),
    ("jacobi ideal 4pe lb threads2", 0x65307a6391888a3a),
    ("jacobi ideal 4pe faults threads2", 0x25fa3de8c938c5d4),
    ("jacobi ideal 4pe faults lb threads2", 0xa4f43d9d45c5366a),
    ("jacobi ib 2pe threads2", 0x16f95343c70a4fac),
    ("jacobi ib 2pe lb threads2", 0x9bb09120f391736c),
    ("jacobi ib 2pe faults threads2", 0x0d425c532adc86c9), // new: barrier clamp
    ("jacobi ib 2pe faults lb threads2", 0x922e3be259aa2440), // new: barrier clamp
    ("jacobi ib 3pe threads2", 0xd15f2f803ae34ce0),
    ("jacobi ib 3pe lb threads2", 0x5387fc6447cb6899),
    ("jacobi ib 3pe faults threads2", 0x44740dd486196b02),
    ("jacobi ib 3pe faults lb threads2", 0x5d6cf37b11911311), // new: barrier clamp
    ("jacobi ib 4pe threads2", 0x97db4303585dd486),
    ("jacobi ib 4pe lb threads2", 0x9f5ee496cbec4f09),
    ("jacobi ib 4pe faults threads2", 0x628c5cffdee6ddc6),
    ("jacobi ib 4pe faults lb threads2", 0xd75bb8a516c3f505),
    ("surge_ft 4pe threads2 release", 0x7512e8df5097272b),
    ("surge_ft 4pe threads2 debug", 0x8d0154a4183a8320),
    ("race ideal 4pe threads2", 0xbe80844191220b89),
    ("race ideal 4pe threads2 order", 0x44ab491b01b09825),
    ("race ib 4pe threads2", 0x0bce49f88ad3c5fa),
    ("race ib 4pe threads2 order", 0x72037fd2594bff25),
    ("window ideal 4pe threads2", 0x140d6fb8c538f6fc),
    ("window ideal 4pe threads2 order", 0xcafd49757174b7d9),
    ("window ib 4pe threads2", 0xe512e06dc721fa1c),
    ("window ib 4pe threads2 order", 0x6553ba692ee2cbd0),
    ("window lossy 4pe threads2", 0x1bfbef6fee70a7f6),
    ("window lossy 4pe threads2 order", 0xd737972ae1262c06),
    ("window ib 4pe lb threads2", 0xf614d49e4369cf3b),
    ("window ib 4pe lb threads2 order", 0x62ff5ee774bc69b6),
];

const PROFILE: &str = if cfg!(debug_assertions) {
    "debug"
} else {
    "release"
};

const ENGINES: [(&str, Parallelism); 2] = [
    ("serial", Parallelism::Serial),
    ("threads2", Parallelism::Threads(2)),
];

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

fn network(latency: bool) -> NetworkModel {
    if latency {
        NetworkModel::infiniband()
    } else {
        NetworkModel::ideal()
    }
}

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Jacobi 8x8x4, 4 iterations x 3 rounds, `migrate()` after each round,
/// PIEglobals, `non_smp(pes)` x vp 2. With `faults`: the lossy plan,
/// a checkpoint at every LB step, and the last PE failing at the second.
fn jacobi(pes: usize, latency: bool, faults: bool, lb: bool, par: Parallelism) -> u64 {
    let body = Arc::new(move |ctx: RankCtx| {
        let mpi = Ampi::init(ctx);
        for _round in 0..3 {
            let cfg = JacobiConfig {
                nx: 8,
                ny: 8,
                nz: 4,
                iters: 4,
            };
            jacobi3d::run(&mpi, cfg);
            mpi.migrate();
        }
    });
    let mut net = network(latency);
    let mut b = MachineBuilder::new(jacobi3d::binary())
        .method(Method::PieGlobals)
        .clock(ClockMode::Virtual)
        .parallelism(par)
        .topology(Topology::non_smp(pes))
        .vp_ratio(2)
        .stack_size(256 * 1024);
    if faults {
        net = net.with_faults(lossy_plan(42));
        b = b
            .checkpoint_period(1)
            .inject_pe_failure_at_lb_step(2, pes - 1);
    }
    if lb {
        b = b.balancer(Box::new(GreedyRefineLb::default()));
    }
    let report = b.network(net).build(body).unwrap().run().unwrap();
    report.sim_digest()
}

/// `surge_ft`'s shape on 4 PEs: GreedyRefine LB every 4 steps,
/// incremental checkpoints, PE 3 failing at the second LB step.
fn surge_ft(par: Parallelism) -> u64 {
    let cfg = SurgeConfig {
        nx: 24,
        ny: 48,
        steps: 16,
        lb_period: 4,
        storm_speed: 1.5,
        flops_per_wet_cell: 200.0,
    };
    let body = Arc::new(move |ctx: RankCtx| {
        let mpi = Ampi::init(ctx);
        surge::run(&mpi, cfg);
    });
    MachineBuilder::new(surge::binary_with_code(64 * 1024))
        .method(Method::CowGlobals)
        .clock(ClockMode::Virtual)
        .parallelism(par)
        .topology(Topology::non_smp(4))
        .vp_ratio(2)
        .stack_size(192 * 1024)
        .balancer(Box::new(GreedyRefineLb::default()))
        .checkpoint_period(1)
        .ckpt_incremental(true)
        .inject_pe_failure_at_lb_step(2, 3)
        .build(body)
        .unwrap()
        .run()
        .unwrap()
        .sim_digest()
}

/// Every rank but 0 sends three tagged messages per round to rank 0,
/// which takes them with `recv_bytes(None, None)`: which message matches
/// first is decided by arrival order alone, and ranks whose sends leave
/// at the same virtual time (equal compute, different PEs) tie. Returns
/// the digest and a hash of the (source, tag) order rank 0 saw.
fn race(latency: bool, par: Parallelism) -> (u64, u64) {
    const ROUNDS: u32 = 4;
    let order = Arc::new(Mutex::new(FNV_OFFSET));
    let seen = order.clone();
    let body = Arc::new(move |ctx: RankCtx| {
        let mpi = Ampi::init(ctx);
        let (me, n) = (mpi.rank(), mpi.size());
        for round in 0..ROUNDS {
            if me == 0 {
                for _ in 0..3 * (n - 1) {
                    let (_, status) = mpi.recv_bytes(COMM_WORLD, None, None);
                    let mut h = seen.lock();
                    fnv(&mut h, status.source as u64);
                    fnv(&mut h, status.tag as u64);
                }
                for r in 1..n {
                    mpi.send_bytes(COMM_WORLD, r, 99, bytes::Bytes::new());
                }
            } else {
                mpi.compute(SimDuration::from_nanos(1_000 * (me as u64 % 3)));
                for k in 0..3 {
                    let tag = round * 3 + k;
                    mpi.send_bytes(COMM_WORLD, 0, tag, bytes::Bytes::from(vec![me as u8]));
                }
                mpi.recv_bytes(COMM_WORLD, Some(0), Some(99));
            }
        }
    });
    let report = MachineBuilder::new(jacobi3d::binary())
        .method(Method::TlsGlobals)
        .clock(ClockMode::Virtual)
        .parallelism(par)
        .topology(Topology::non_smp(4))
        .vp_ratio(2)
        .network(network(latency))
        .build(body)
        .unwrap()
        .run()
        .unwrap();
    let h = *order.lock();
    (report.sim_digest(), h)
}

/// Messages per window and per tail in [`window`].
const WINDOW: u32 = 64;

/// `msg_window`'s ring on 4 PEs x 2 ranks, so that the hop from an even
/// rank to its successor stays on its PE. Each of three rounds, every
/// rank posts 64 wildcard-source receives, sends 64 messages to its
/// successor back to back and waits for all of them; then it takes the
/// previous round's tail, computes (the ranks of PEs 0 and 1 four times
/// longer), sends a tail of 64 more to its successor and reaches a sync
/// point with that tail in flight — where `lb` lets GreedyRefine move
/// ranks, so a tail can reach a rank that moved. `net` is `ideal`, `ib`
/// or `lossy` (the IB network with the lossy plan: reliable delivery).
/// Returns the digest and a hash of, rank by rank, the virtual time each
/// window completed at and the (source, tag, payload) of every message
/// in the order it was received.
fn window(net: &str, lb: bool, par: Parallelism) -> (u64, u64) {
    const ROUNDS: u32 = 3;
    let seen = Arc::new(Mutex::new(vec![FNV_OFFSET; 8]));
    let order = seen.clone();
    let body = Arc::new(move |ctx: RankCtx| {
        let mpi = Ampi::init(ctx);
        let (me, n) = (mpi.rank(), mpi.size());
        let succ = (me + 1) % n;
        let mut h = FNV_OFFSET;
        fn hash(h: &mut u64, (data, status): &(bytes::Bytes, Status)) {
            fnv(h, status.source as u64);
            fnv(h, status.tag as u64);
            fnv(h, data[0] as u64);
        }
        fn tail(mpi: &Ampi, h: &mut u64) {
            for _ in 0..WINDOW {
                hash(h, &mpi.recv_bytes(COMM_WORLD, None, Some(1)));
            }
        }
        for round in 0..ROUNDS {
            let recvs: Vec<_> = (0..WINDOW)
                .map(|_| mpi.irecv(COMM_WORLD, None, Some(0)))
                .collect();
            let sends: Vec<_> = (0..WINDOW)
                .map(|k| mpi.isend_bytes(COMM_WORLD, succ, 0, bytes::Bytes::from(vec![k as u8])))
                .collect();
            let got = mpi.waitall(recvs);
            mpi.waitall_sends(sends);
            fnv(&mut h, mpi.wtime().to_bits());
            for m in &got {
                hash(&mut h, m);
            }
            if round > 0 {
                tail(&mpi, &mut h);
            }
            let heavy = if me < 4 { 4 } else { 1 };
            mpi.compute(SimDuration::from_nanos(500 * heavy));
            for k in 0..WINDOW {
                mpi.send_bytes(COMM_WORLD, succ, 1, bytes::Bytes::from(vec![k as u8]));
            }
            mpi.migrate();
        }
        tail(&mpi, &mut h);
        seen.lock()[me] = h;
    });
    let mut b = MachineBuilder::new(jacobi3d::binary())
        .method(Method::TlsGlobals)
        .clock(ClockMode::Virtual)
        .parallelism(par)
        .topology(Topology::non_smp(4))
        .vp_ratio(2)
        .network(match net {
            "ideal" => NetworkModel::ideal(),
            "ib" => NetworkModel::infiniband(),
            _ => NetworkModel::infiniband().with_faults(lossy_plan(7)),
        });
    if lb {
        b = b.balancer(Box::new(GreedyRefineLb::default()));
    }
    let report = b.build(body).unwrap().run().unwrap();
    let mut h = FNV_OFFSET;
    for &r in order.lock().iter() {
        fnv(&mut h, r);
    }
    (report.sim_digest(), h)
}

/// Every line of the matrix, as computed by this build.
fn computed() -> Vec<(String, u64)> {
    let mut lines = Vec::new();
    for (engine, par) in ENGINES {
        for latency in [false, true] {
            let net = if latency { "ib" } else { "ideal" };
            for pes in [2, 3, 4] {
                for faults in [false, true] {
                    for lb in [false, true] {
                        let digest = jacobi(pes, latency, faults, lb, par);
                        let name = format!(
                            "jacobi {net} {pes}pe{}{} {engine}",
                            if faults { " faults" } else { "" },
                            if lb { " lb" } else { "" },
                        );
                        lines.push((name, digest));
                    }
                }
            }
        }
        lines.push((format!("surge_ft 4pe {engine} {PROFILE}"), surge_ft(par)));
        for latency in [false, true] {
            let net = if latency { "ib" } else { "ideal" };
            let (digest, order) = race(latency, par);
            lines.push((format!("race {net} 4pe {engine}"), digest));
            lines.push((format!("race {net} 4pe {engine} order"), order));
        }
        for (net, lb) in [
            ("ideal", false),
            ("ib", false),
            ("lossy", false),
            ("ib", true),
        ] {
            let name = format!("window {net} 4pe{} {engine}", if lb { " lb" } else { "" });
            let (digest, order) = window(net, lb, par);
            lines.push((name.clone(), digest));
            lines.push((format!("{name} order"), order));
        }
    }
    lines
}

#[test]
fn event_order_is_pinned() {
    let got = computed();
    let other_profile = if cfg!(debug_assertions) {
        " release"
    } else {
        " debug"
    };
    let want: Vec<(String, u64)> = PINNED
        .iter()
        .filter(|(n, _)| !n.ends_with(other_profile))
        .map(|&(n, v)| (n.to_string(), v))
        .collect();
    if got != want {
        let mut table = String::new();
        for (name, v) in &got {
            writeln!(table, "    (\"{name}\", {v:#018x}),").unwrap();
        }
        panic!("event order moved; this build computes:\n{table}");
    }
}

/// A parked rank's stack holds no address of the worker thread that ran
/// it, so the incremental deltas of `surge_ft`, which diff those stacks,
/// do not depend on which worker ran which rank. In an unoptimized build
/// a worker address spilled into `RankCtx::call`'s frame, live while the
/// rank is parked, once made one delta page come and go from run to run.
#[test]
fn surge_ft_deltas_do_not_depend_on_the_worker() {
    let serial = surge_ft(Parallelism::Serial);
    for run in 0..12 {
        assert_eq!(surge_ft(Parallelism::Threads(2)), serial, "Threads(2) run {run}");
    }
}
