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
//! and a wildcard receive whose match order depends on cross-PE ties.
//!
//! On a mismatch the failure message prints the whole table as
//! computed, in the form of [`PINNED`].

use parking_lot::Mutex;
use pvr_ampi::{Ampi, COMM_WORLD};
use pvr_apps::jacobi3d::{self, JacobiConfig};
use pvr_apps::surge::{self, SurgeConfig};
use pvr_des::{FaultParams, FaultPlan, HopClass, NetworkModel, SimDuration, Topology};
use pvr_privatize::Method;
use pvr_rts::lb::GreedyRefineLb;
use pvr_rts::{ClockMode, MachineBuilder, Parallelism, RankCtx};
use std::fmt::Write as _;
use std::sync::Arc;

/// `(configuration, value)`: a run's `sim_digest`, or for a `race` line
/// ending in `order`, the hash of the arrival order rank 0 saw. Every
/// line was recorded with one global event queue, except those marked
/// "new: barrier clamp": runs in which a lane ran its own timers and
/// acks past the time of an event a barrier then scheduled onto it,
/// which stopped with "cannot schedule into the past" until such events
/// were clamped to their lane's queue time.
///
/// A `surge_ft` line holds for one build profile: its incremental
/// checkpoints diff the ranks' stacks, whose frames the optimizer shapes.
/// There is no debug line for `Threads(2)`: in an unoptimized build one
/// stack page of its deltas changes or not with the worker thread that
/// ran the rank (95 or 96 delta pages from run to run, with one global
/// queue as with per-lane queues), so that digest is not a function of
/// the event order.
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
    ("surge_ft 4pe serial debug", 0x4de271b2efefdcb0),
    ("race ideal 4pe serial", 0xbe80844191220b89),
    ("race ideal 4pe serial order", 0x44ab491b01b09825),
    ("race ib 4pe serial", 0x0bce49f88ad3c5fa),
    ("race ib 4pe serial order", 0x72037fd2594bff25),
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
    ("race ideal 4pe threads2", 0xbe80844191220b89),
    ("race ideal 4pe threads2 order", 0x44ab491b01b09825),
    ("race ib 4pe threads2", 0x0bce49f88ad3c5fa),
    ("race ib 4pe threads2 order", 0x72037fd2594bff25),
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
        if engine == "serial" || PROFILE == "release" {
            lines.push((format!("surge_ft 4pe {engine} {PROFILE}"), surge_ft(par)));
        }
        for latency in [false, true] {
            let net = if latency { "ib" } else { "ideal" };
            let (digest, order) = race(latency, par);
            lines.push((format!("race {net} 4pe {engine}"), digest));
            lines.push((format!("race {net} 4pe {engine} order"), order));
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
