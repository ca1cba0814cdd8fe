//! The six workloads: inputs, machine configuration, rank bodies and the
//! checks on their outputs. Sizes are frozen here; see README.md for why
//! each workload exists and which layer it loads.

use crate::matcher::{feasible_order, reference_match};
use crate::rng::{permutation, SplitMix64};
use crate::span::{Acc, Recorder, SpanId, HARNESS_TRACK, NO_SPAN};
use bytes::Bytes;
use pvr_ampi::{Ampi, ANY_TAG, COMM_WORLD};
use pvr_apps::jacobi3d::{self, JacobiConfig};
use pvr_apps::surge::{self, SurgeConfig};
use pvr_privatize::Method;
use pvr_rts::lb::GreedyRefineLb;
use pvr_rts::{ClockMode, MachineBuilder, Parallelism, RankCtx, RunReport, Topology};
use pvr_trace::Tracer;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Jacobi3d,
    Jacobi3dMt,
    MsgWindow,
    MatchDeep,
    SurgeFt,
    RtRing,
}

// ---------------------------------------------------------------------
// Frozen sizes. The issue's probe sizes gave 0.8-2 s repetitions; the
// driver's time cap (136 runs in 57 minutes) leaves eighteen seconds of
// measuring per run, so every size below is the probe size with its
// iteration count cut about fivefold: a repetition takes 0.2-0.9 s and a
// run pools 20-70 of them.
// ---------------------------------------------------------------------

pub const JACOBI: JacobiConfig = JacobiConfig {
    nx: 64,
    ny: 64,
    nz: 16,
    iters: 60,
};
const JACOBI_PES: usize = 4;
const JACOBI_VP: usize = 4;

/// Outstanding receives and sends per rank per round.
pub const WINDOW: usize = 64;
pub const WINDOW_ROUNDS: usize = 400;
const RING_PES: usize = 4;
const RING_VP: usize = 2;
pub const RING_RANKS: usize = RING_PES * RING_VP;
pub const PAYLOAD: usize = 32;

/// Posted receives per round; under the default `max_outstanding_reqs`.
pub const DEPTH: usize = 1000;
pub const DEEP_ROUNDS: usize = 50;
const TAG_GO: u32 = 9000;
const TAG_GO2: u32 = 9001;
const TAG_DONE: u32 = 9002;
/// Tags of the messages that feed wildcard receives start here; no exact
/// receive accepts them.
const TAG_WILD_BASE: u32 = 2000;
/// Tags of the unexpected phase start here.
const TAG_UNEXP_BASE: u32 = 4000;

pub const SURGE: SurgeConfig = SurgeConfig {
    nx: 128,
    ny: 512,
    steps: 32,
    lb_period: 8,
    storm_speed: 2.5,
    flops_per_wet_cell: 400.0,
};
const SURGE_PES: usize = 8;
const SURGE_VP: usize = 4;
const SURGE_CODE_BYTES: usize = 1 << 20;
/// LB step and PE of the injected failure.
const SURGE_FAIL: (u32, usize) = (2, 3);

/// Round trips of the window-1 regime measured after the main run.
pub const PINGPONG_TRIPS: usize = 8_000;

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Jacobi3d,
        Workload::Jacobi3dMt,
        Workload::MsgWindow,
        Workload::MatchDeep,
        Workload::SurgeFt,
        Workload::RtRing,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Jacobi3d => "jacobi3d",
            Workload::Jacobi3dMt => "jacobi3d_mt",
            Workload::MsgWindow => "msg_window",
            Workload::MatchDeep => "match_deep",
            Workload::SurgeFt => "surge_ft",
            Workload::RtRing => "rt_ring",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn topology(self) -> (usize, usize) {
        match self {
            Workload::Jacobi3d | Workload::Jacobi3dMt => (JACOBI_PES, JACOBI_VP),
            Workload::MsgWindow | Workload::RtRing => (RING_PES, RING_VP),
            Workload::MatchDeep => (2, 1),
            Workload::SurgeFt => (SURGE_PES, SURGE_VP),
        }
    }

    pub fn n_pes(self) -> usize {
        self.topology().0
    }

    pub fn n_ranks(self) -> usize {
        let (pes, vp) = self.topology();
        pes * vp
    }

    pub fn method(self) -> Method {
        match self {
            Workload::Jacobi3d | Workload::Jacobi3dMt => Method::PieGlobals,
            Workload::SurgeFt => Method::CowGlobals,
            _ => Method::TlsGlobals,
        }
    }

    pub fn virtual_time(self) -> bool {
        self != Workload::RtRing
    }

    /// The engine the timed repetitions run on.
    pub fn parallelism(self) -> Parallelism {
        match self {
            Workload::Jacobi3dMt | Workload::RtRing => Parallelism::Threads(2),
            _ => Parallelism::Serial,
        }
    }

    /// The other engine, for the Serial <-> Threads(2) digest check.
    pub fn other_engine(self) -> Parallelism {
        match self.parallelism() {
            Parallelism::Serial => Parallelism::Threads(2),
            _ => Parallelism::Serial,
        }
    }

    /// Messages one repetition must deliver, where the count follows from
    /// the inputs alone (`None`: checked against the first repetition).
    pub fn expected_messages(self) -> Option<u64> {
        match self {
            Workload::MsgWindow | Workload::RtRing => {
                Some((RING_RANKS * WINDOW * WINDOW_ROUNDS) as u64)
            }
            // per round: DEPTH posted + DEPTH unexpected + GO, GO2, DONE
            Workload::MatchDeep => Some((DEEP_ROUNDS * (2 * DEPTH + 3)) as u64),
            _ => None,
        }
    }

    /// Grid-point updates of one repetition (stencil workloads only).
    pub fn point_updates(self) -> u64 {
        match self {
            Workload::Jacobi3d | Workload::Jacobi3dMt => {
                (JACOBI.nx * JACOBI.ny * JACOBI.nz * JACOBI.iters * self.n_ranks()) as u64
            }
            _ => 0,
        }
    }

    /// KiB of halo planes one repetition encodes and decodes.
    pub fn halo_kib(self, messages: u64) -> f64 {
        match self {
            Workload::Jacobi3d | Workload::Jacobi3dMt => {
                // two planes per interior boundary per iteration; the rest
                // of the messages are 8-byte allreduce traffic
                let halo_msgs = (2 * (self.n_ranks() - 1) * JACOBI.iters) as u64;
                halo_msgs.min(messages) as f64 * (JACOBI.nx * JACOBI.ny * 8) as f64 / 1024.0
            }
            _ => 0.0,
        }
    }
}

/// Everything generated from `--seed`, handed to the program as plain
/// inputs. The stencil and surge workloads have inputs fixed by the
/// paper; the seed is recorded and unused there.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// `ring[i]` is the rank at ring position `i`.
    pub ring: Vec<usize>,
    /// Posted receives of `match_deep` in post order (`None` = `ANY_TAG`).
    pub posts: Vec<Option<u32>>,
    /// Tags of the posted phase in the order the sender sends them.
    pub arrivals: Vec<u32>,
    /// For receive `i`, the position in `arrivals` of the message that the
    /// reference matcher says completes it.
    pub expected_arrival: Vec<u32>,
    /// Tag order in which the receiver drains the unexpected queue.
    pub drain: Vec<u32>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = SplitMix64::new(seed);
        let ring = seeded_ring(rng.next_u64());

        // every 8th receive on average is a wildcard, at seeded positions
        let mut posts: Vec<Option<u32>> = (0..DEPTH as u32).map(Some).collect();
        for &i in permutation(&mut rng, DEPTH).iter().take(DEPTH / 8) {
            posts[i] = None;
        }
        // message i carries tag i for an exact receive, and a tag nothing
        // exact accepts for a wildcard receive
        let msg_tags: Vec<u32> = posts
            .iter()
            .enumerate()
            .map(|(i, p)| p.unwrap_or(TAG_WILD_BASE + i as u32))
            .collect();
        let order = feasible_order(&posts, &msg_tags, &permutation(&mut rng, DEPTH));
        let arrivals: Vec<u32> = order.iter().map(|&m| msg_tags[m]).collect();
        let mut expected_arrival = vec![u32::MAX; DEPTH];
        for (k, hit) in reference_match(&posts, &arrivals).into_iter().enumerate() {
            let recv = hit.expect("feasible order: every message finds a posted receive");
            expected_arrival[recv] = k as u32;
        }
        let drain = permutation(&mut rng, DEPTH)
            .into_iter()
            .map(|t| TAG_UNEXP_BASE + t as u32)
            .collect();
        Inputs {
            ring,
            posts,
            arrivals,
            expected_arrival,
            drain,
        }
    }
}

/// The ring every seed's ring is a relabelling of: rank at each ring
/// position, ranks `2p` and `2p + 1` being on PE `p` and, under
/// `Threads(2)`, PEs `2t` and `2t + 1` on worker `t`. Of its eight hops two
/// stay on a PE, two cross PEs on one worker and four cross workers.
const BASE_RING: [usize; RING_RANKS] = [0, 1, 4, 6, 2, 3, 5, 7];

/// `BASE_RING` under a symmetry of the machine chosen by `bits`: the two
/// workers swapped or not, the two PEs of each worker, the two ranks of
/// each PE, the direction, the starting position. A uniformly shuffled
/// ring has anything from zero to eight hops across workers, and a
/// `rt_ring` repetition then costs a tenth more on one seed than on
/// another; these 128 rings all ask the same work of the machine.
fn seeded_ring(bits: u64) -> Vec<usize> {
    let bit = |i: usize| (bits >> i) as usize & 1;
    let relabel = |rank: usize| {
        let (worker, pe) = (rank >> 2, rank >> 1);
        rank ^ (bit(0) << 2) ^ (bit(1 + worker) << 1) ^ bit(3 + pe)
    };
    let mut ring: Vec<usize> = BASE_RING.iter().map(|&r| relabel(r)).collect();
    if bit(7) == 1 {
        ring.reverse();
    }
    ring.rotate_left((bits >> 8) as usize % RING_RANKS);
    ring
}

/// What the rank bodies hand back to the harness.
#[derive(Default)]
pub struct Sink {
    /// Body-side check failures (sequence numbers, matching, payloads).
    pub errors: AtomicU64,
    /// Messages the bodies sent and received (conservation check).
    pub sent: AtomicU64,
    pub received: AtomicU64,
    /// `(rank, value)`: Jacobi residual or surge `max_eta` per rank.
    pub values: Mutex<Vec<(usize, f64)>>,
    /// Blocking round-trip times of the ping-pong phase, in ns.
    pub rtt_ns: Mutex<Vec<u64>>,
}

type Body = Arc<dyn Fn(RankCtx) + Send + Sync>;

/// How one repetition is to be run.
#[derive(Clone)]
pub struct RunOpts {
    pub parallelism: Parallelism,
    pub tracer: Option<Arc<Tracer>>,
    pub recorder: Option<Arc<Recorder>>,
    /// `surge_ft` only: the no-failure, no-checkpoint reference run.
    pub plain_surge: bool,
}

impl RunOpts {
    pub fn timed(w: Workload) -> RunOpts {
        RunOpts {
            parallelism: w.parallelism(),
            tracer: None,
            recorder: None,
            plain_surge: false,
        }
    }
}

/// One repetition's measurements and outputs.
pub struct Rep {
    pub build: Duration,
    pub run: Duration,
    pub report: RunReport,
    pub sink: Arc<Sink>,
}

fn payload(seq: u64, tag: u32) -> Bytes {
    let mut b = [0u8; PAYLOAD];
    b[..8].copy_from_slice(&seq.to_le_bytes());
    b[8..12].copy_from_slice(&tag.to_le_bytes());
    Bytes::copy_from_slice(&b)
}

fn payload_seq(b: &[u8]) -> u64 {
    u64::from_le_bytes(
        b[..8]
            .try_into()
            .expect("payload carries a sequence number"),
    )
}

/// The machine configuration of `w`, without a body.
fn builder(w: Workload, opts: &RunOpts) -> MachineBuilder {
    let (pes, vp) = w.topology();
    let bin = match w {
        Workload::SurgeFt => surge::binary_with_code(SURGE_CODE_BYTES),
        _ => jacobi3d::binary(),
    };
    let mut b = MachineBuilder::new(bin)
        .method(w.method())
        .topology(Topology::non_smp(pes))
        .vp_ratio(vp)
        .clock(if w.virtual_time() {
            ClockMode::Virtual
        } else {
            ClockMode::RealTime
        })
        .parallelism(opts.parallelism)
        .stack_size(256 * 1024);
    if w == Workload::SurgeFt && !opts.plain_surge {
        b = b
            .balancer(Box::new(GreedyRefineLb::default()))
            .checkpoint_period(1)
            .ckpt_incremental(true)
            .inject_pe_failure_at_lb_step(SURGE_FAIL.0, SURGE_FAIL.1);
    }
    if let Some(t) = &opts.tracer {
        b = b.tracer(t.clone());
    }
    b
}

/// Run `f` under a span of the optional recorder; `f` gets the span's id
/// (`NO_SPAN` without a recorder).
fn spanned<T>(
    rec: Option<&Recorder>,
    name: &'static str,
    parent: SpanId,
    track: u32,
    f: impl FnOnce(SpanId) -> T,
) -> T {
    match rec {
        Some(r) => r.span(name, parent, track, f),
        None => f(NO_SPAN),
    }
}

/// An application run as the body of rank `mpi.rank()`, under an
/// `apps.run` span on that rank's track.
fn app_run<T>(rec: Option<&Recorder>, mpi: &Ampi, f: impl FnOnce() -> T) -> T {
    let parent = rec.map_or(NO_SPAN, Recorder::scope);
    spanned(rec, "apps.run", parent, mpi.rank() as u32 + 1, |_| f())
}

fn jacobi_body(sink: Arc<Sink>, rec: Option<Arc<Recorder>>) -> Body {
    Arc::new(move |ctx: RankCtx| {
        let mpi = Ampi::init(ctx);
        let stats = app_run(rec.as_deref(), &mpi, || jacobi3d::run(&mpi, JACOBI));
        sink.values
            .lock()
            .expect("sink lock")
            .push((mpi.rank(), stats.residual));
        mpi.finalize();
    })
}

fn surge_body(sink: Arc<Sink>, cfg: SurgeConfig, rec: Option<Arc<Recorder>>) -> Body {
    Arc::new(move |ctx: RankCtx| {
        let mpi = Ampi::init(ctx);
        let stats = app_run(rec.as_deref(), &mpi, || surge::run(&mpi, cfg));
        // A rank body re-executes after a rollback; keep its last answer.
        let mut v = sink.values.lock().expect("sink lock");
        v.retain(|(r, _)| *r != mpi.rank());
        v.push((mpi.rank(), stats.max_eta));
        mpi.finalize();
    })
}

/// The window regime: every rank keeps `WINDOW` receives and `WINDOW`
/// sends outstanding around a ring, then waits for all of them.
fn window_body(sink: Arc<Sink>, ring: Vec<usize>, rec: Option<Arc<Recorder>>) -> Body {
    Arc::new(move |ctx: RankCtx| {
        let mpi = Ampi::init(ctx);
        let me = mpi.rank();
        let pos = ring
            .iter()
            .position(|&r| r == me)
            .expect("ring is a permutation of the ranks");
        let succ = ring[(pos + 1) % ring.len()];
        let pred = ring[(pos + ring.len() - 1) % ring.len()];
        let mut errors = 0u64;
        for round in 0..WINDOW_ROUNDS {
            let base = (round * WINDOW) as u64;
            let post = || {
                let recvs: Vec<_> = (0..WINDOW)
                    .map(|_| mpi.irecv(COMM_WORLD, Some(pred), Some(7)))
                    .collect();
                let sends: Vec<_> = (0..WINDOW as u64)
                    .map(|k| mpi.isend_bytes(COMM_WORLD, succ, 7, payload(base + k, 7)))
                    .collect();
                (recvs, sends)
            };
            let wait = |(recvs, sends)| {
                let got = mpi.waitall(recvs);
                mpi.waitall_sends(sends);
                got
            };
            let got = match &rec {
                None => wait(post()),
                Some(r) => {
                    let t = Instant::now();
                    let reqs = post();
                    let posted = t.elapsed();
                    let got = wait(reqs);
                    let waited = t.elapsed() - posted;
                    r.acc(me, Acc::Post, 2 * WINDOW as u64, posted.as_nanos() as u64);
                    r.acc(me, Acc::Wait, WINDOW as u64, waited.as_nanos() as u64);
                    got
                }
            };
            // non-overtaking: the k-th receive posted gets the k-th message sent
            for (k, (data, status)) in got.iter().enumerate() {
                if payload_seq(data) != base + k as u64 || status.source != pred {
                    errors += 1;
                }
            }
        }
        let n = (WINDOW * WINDOW_ROUNDS) as u64;
        sink.sent.fetch_add(n, Ordering::Relaxed);
        sink.received.fetch_add(n, Ordering::Relaxed);
        sink.errors.fetch_add(errors, Ordering::Relaxed);
        mpi.finalize();
    })
}

/// Deep queues: rank 0 receives, rank 1 sends; see README.md for the
/// protocol of a round.
fn deep_body(sink: Arc<Sink>, inp: Arc<Inputs>, rec: Option<Arc<Recorder>>) -> Body {
    Arc::new(move |ctx: RankCtx| {
        let mpi = Ampi::init(ctx);
        let me = mpi.rank();
        let mut errors = 0u64;
        if me == 0 {
            for _round in 0..DEEP_ROUNDS {
                // posted phase
                let t = Instant::now();
                let recvs: Vec<_> = inp
                    .posts
                    .iter()
                    .map(|&tag| mpi.irecv(COMM_WORLD, Some(1), tag.or(ANY_TAG)))
                    .collect();
                mpi.send_bytes(COMM_WORLD, 1, TAG_GO, Bytes::new());
                let got = mpi.waitall(recvs);
                if let Some(r) = &rec {
                    r.acc(
                        me,
                        Acc::RecvPosted,
                        DEPTH as u64,
                        t.elapsed().as_nanos() as u64,
                    );
                }
                // which message completed which receive, against the
                // reference matcher
                for (i, (data, status)) in got.iter().enumerate() {
                    let k = inp.expected_arrival[i];
                    if payload_seq(data) != k as u64 || status.tag != inp.arrivals[k as usize] {
                        errors += 1;
                    }
                }
                mpi.send_bytes(COMM_WORLD, 1, TAG_GO2, Bytes::new());
                // unexpected phase: everything has arrived once DONE has
                let _ = mpi.recv_bytes(COMM_WORLD, Some(1), Some(TAG_DONE));
                let t = Instant::now();
                for &tag in &inp.drain {
                    let (data, status) = mpi.recv_bytes(COMM_WORLD, Some(1), Some(tag));
                    if payload_seq(&data) != (tag - TAG_UNEXP_BASE) as u64 || status.tag != tag {
                        errors += 1;
                    }
                }
                if let Some(r) = &rec {
                    r.acc(
                        me,
                        Acc::RecvUnexpected,
                        DEPTH as u64,
                        t.elapsed().as_nanos() as u64,
                    );
                }
            }
            sink.sent
                .fetch_add(2 * DEEP_ROUNDS as u64, Ordering::Relaxed);
            sink.received
                .fetch_add((DEEP_ROUNDS * (2 * DEPTH + 1)) as u64, Ordering::Relaxed);
        } else {
            for _round in 0..DEEP_ROUNDS {
                let _ = mpi.recv_bytes(COMM_WORLD, Some(0), Some(TAG_GO));
                for (k, &tag) in inp.arrivals.iter().enumerate() {
                    mpi.send_bytes(COMM_WORLD, 0, tag, payload(k as u64, tag));
                }
                let _ = mpi.recv_bytes(COMM_WORLD, Some(0), Some(TAG_GO2));
                for j in 0..DEPTH as u32 {
                    let tag = TAG_UNEXP_BASE + j;
                    mpi.send_bytes(COMM_WORLD, 0, tag, payload(j as u64, tag));
                }
                mpi.send_bytes(COMM_WORLD, 0, TAG_DONE, Bytes::new());
            }
            sink.sent
                .fetch_add((DEEP_ROUNDS * (2 * DEPTH + 1)) as u64, Ordering::Relaxed);
            sink.received
                .fetch_add(2 * DEEP_ROUNDS as u64, Ordering::Relaxed);
        }
        sink.errors.fetch_add(errors, Ordering::Relaxed);
        mpi.finalize();
    })
}

/// Window 1: blocking round trips between rank 0 and the first rank of
/// the next PE, each timed in the rank body.
fn pingpong_body(sink: Arc<Sink>, peer: usize, trips: usize) -> Body {
    Arc::new(move |ctx: RankCtx| {
        let mpi = Ampi::init(ctx);
        let me = mpi.rank();
        if me == 0 {
            let mut rtt = Vec::with_capacity(trips);
            let mut errors = 0u64;
            for k in 0..trips as u64 {
                let t = Instant::now();
                mpi.send_bytes(COMM_WORLD, peer, 3, payload(k, 3));
                let (data, _) = mpi.recv_bytes(COMM_WORLD, Some(peer), Some(3));
                rtt.push(t.elapsed().as_nanos() as u64);
                if payload_seq(&data) != k {
                    errors += 1;
                }
            }
            sink.errors.fetch_add(errors, Ordering::Relaxed);
            *sink.rtt_ns.lock().expect("sink lock") = rtt;
        } else if me == peer {
            for _ in 0..trips {
                let (data, _) = mpi.recv_bytes(COMM_WORLD, Some(0), Some(3));
                mpi.send_bytes(COMM_WORLD, 0, 3, data);
            }
        }
        mpi.finalize();
    })
}

/// Build and run one repetition of `w`. `Err` carries the reason the
/// operation failed (`build` or `run` returned an error).
pub fn repetition(w: Workload, inp: &Arc<Inputs>, opts: &RunOpts) -> Result<Rep, String> {
    let sink = Arc::new(Sink::default());
    let rec = opts.recorder.clone();
    let body: Body = match w {
        Workload::Jacobi3d | Workload::Jacobi3dMt => jacobi_body(sink.clone(), rec.clone()),
        Workload::MsgWindow | Workload::RtRing => {
            window_body(sink.clone(), inp.ring.clone(), rec.clone())
        }
        Workload::MatchDeep => deep_body(sink.clone(), inp.clone(), rec.clone()),
        Workload::SurgeFt => {
            let cfg = SurgeConfig {
                lb_period: if opts.plain_surge { 0 } else { SURGE.lb_period },
                ..SURGE
            };
            surge_body(sink.clone(), cfg, rec.clone())
        }
    };
    let rec = rec.as_deref();
    let parent = rec.map_or(NO_SPAN, Recorder::scope);

    let (machine, build) = spanned(rec, "rts.build", parent, HARNESS_TRACK, |_| {
        let t = Instant::now();
        let machine = builder(w, opts).build(body);
        (machine, t.elapsed())
    });
    let mut machine = machine.map_err(|e| format!("build: {e}"))?;

    let (report, run) = spanned(rec, "rts.run", parent, HARNESS_TRACK, |span| {
        // rank-body spans hang under the run span while it is open
        if let Some(r) = rec {
            r.set_scope(span);
        }
        let t = Instant::now();
        let report = machine.run();
        let run = t.elapsed();
        if let Some(r) = rec {
            r.set_scope(parent);
        }
        (report, run)
    });
    let report = report.map_err(|e| format!("run: {e}"))?;
    Ok(Rep {
        build,
        run,
        report,
        sink,
    })
}

/// Wall time of one `MachineBuilder::build` of `w`'s machine (the body
/// never runs; the machine is dropped unstarted).
pub fn build_only(w: Workload) -> Result<Duration, String> {
    let body: Body = Arc::new(|_ctx: RankCtx| {});
    let b = builder(w, &RunOpts::timed(w));
    let t = Instant::now();
    let machine = b.build(body);
    let d = t.elapsed();
    machine.map(|_| d).map_err(|e| format!("build: {e}"))
}

/// The ping-pong phase on `w`'s machine configuration: returns the
/// round-trip samples in ns.
pub fn pingpong(w: Workload, trips: usize) -> Result<Vec<u64>, String> {
    let sink = Arc::new(Sink::default());
    let (_, vp) = w.topology();
    let body = pingpong_body(sink.clone(), vp, trips);
    let mut machine = builder(w, &RunOpts::timed(w))
        .build(body)
        .map_err(|e| format!("pingpong build: {e}"))?;
    let report = machine.run().map_err(|e| format!("pingpong run: {e}"))?;
    if sink.errors.load(Ordering::Relaxed) != 0 {
        return Err("pingpong: payload sequence mismatch".into());
    }
    if report.messages_delivered != 2 * trips as u64 {
        return Err(format!(
            "pingpong: delivered {} of {} messages",
            report.messages_delivered,
            2 * trips
        ));
    }
    let rtt = std::mem::take(&mut *sink.rtt_ns.lock().expect("sink lock"));
    Ok(rtt)
}

/// What the first repetition of a process produced; the later ones must
/// reproduce it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    pub digest: u64,
    /// Bits of the application's answer (Jacobi residual, surge
    /// `max_eta`); 0 for the message workloads.
    pub answer_bits: u64,
}

impl Reference {
    pub fn of(rep: &Rep) -> Reference {
        Reference {
            digest: rep.report.sim_digest(),
            answer_bits: answer(rep).map_or(0, f64::to_bits),
        }
    }
}

/// The answer all ranks of a repetition agreed on, if any reported one.
pub fn answer(rep: &Rep) -> Option<f64> {
    rep.sink
        .values
        .lock()
        .expect("sink lock")
        .first()
        .map(|v| v.1)
}

/// The output checks of one repetition, beyond `build`/`run` succeeding.
/// `first` is what the first repetition of this process produced.
pub fn check(w: Workload, rep: &Rep, first: Option<Reference>) -> Vec<String> {
    let mut fails = Vec::new();
    let errors = rep.sink.errors.load(Ordering::Relaxed);
    if errors != 0 {
        fails.push(format!(
            "{errors} payload/matching check(s) failed in rank bodies"
        ));
    }
    if let Some(first) = first {
        // a real-time run's digest holds wall-clock-dependent fields
        if w.virtual_time() && rep.report.sim_digest() != first.digest {
            fails.push("sim_digest differs from the first repetition".into());
        }
        if answer(rep).map_or(0, f64::to_bits) != first.answer_bits {
            fails.push("the application's answer differs from the first repetition".into());
        }
    }
    if let Some(expected) = w.expected_messages() {
        let sent = rep.sink.sent.load(Ordering::Relaxed);
        let received = rep.sink.received.load(Ordering::Relaxed);
        let delivered = rep.report.messages_delivered;
        if sent != expected || received != expected || delivered != expected {
            fails.push(format!(
                "conservation: sent {sent}, received {received}, delivered {delivered}, expected {expected}"
            ));
        }
    }
    if rep.report.req.leaked != 0 {
        fails.push(format!("{} leaked requests", rep.report.req.leaked));
    }
    let values = rep.sink.values.lock().expect("sink lock");
    let agreed = values.len() == w.n_ranks() && values.windows(2).all(|p| p[0].1 == p[1].1);
    match w {
        Workload::Jacobi3d | Workload::Jacobi3dMt => {
            // The allreduce sums the ranks' partial residuals in another
            // order than the serial sweep does, so the two agree to
            // rounding, not bit for bit; ranks and repetitions agree with
            // each other exactly.
            let reference = jacobi_reference();
            if !agreed || (values[0].1 - reference).abs() > 1e-9 * reference.abs() {
                fails.push(format!(
                    "jacobi residual differs from serial_reference {reference:e} on some rank"
                ));
            }
        }
        Workload::SurgeFt if !agreed => {
            fails.push("surge max_eta missing or not agreed by all ranks".into());
        }
        _ => {}
    }
    fails
}

/// `serial_reference` of the Jacobi problem, computed once per process.
pub fn jacobi_reference() -> f64 {
    use std::sync::OnceLock;
    static R: OnceLock<f64> = OnceLock::new();
    *R.get_or_init(|| {
        jacobi3d::serial_reference(
            JACOBI.nx,
            JACOBI.ny,
            JACOBI.nz * JACOBI_PES * JACOBI_VP,
            JACOBI.iters,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hops of `ring` that stay on a PE, cross PEs on one worker, cross
    /// workers.
    fn hop_profile(ring: &[usize]) -> (usize, usize, usize) {
        let mut profile = (0, 0, 0);
        for (i, &a) in ring.iter().enumerate() {
            let b = ring[(i + 1) % ring.len()];
            if a / RING_VP == b / RING_VP {
                profile.0 += 1;
            } else if a / (2 * RING_VP) == b / (2 * RING_VP) {
                profile.1 += 1;
            } else {
                profile.2 += 1;
            }
        }
        profile
    }

    #[test]
    fn every_seed_rings_the_same_mix_of_hops() {
        let mut rings = std::collections::BTreeSet::new();
        for seed in 0..64 {
            let ring = Inputs::generate(seed).ring;
            assert_eq!(ring, Inputs::generate(seed).ring);
            let mut sorted = ring.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..RING_RANKS).collect::<Vec<_>>());
            assert_eq!(hop_profile(&ring), (2, 2, 4), "seed {seed}: {ring:?}");
            rings.insert(ring);
        }
        assert!(rings.len() > 32, "{} distinct rings of 64", rings.len());
    }
}
