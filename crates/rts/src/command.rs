//! The rank-side API ([`RankCtx`]) and the slot a rank shares with its
//! lane.
//!
//! A virtual rank is a ULT. Every effectful operation (send, matched
//! receive, posting and waiting on nonblocking requests, declaring
//! computed work, heap allocation, reaching a load-balancing sync point)
//! is a call of the lane's scheduler code ([`ExecCtx`]) made **on the
//! rank's own stack**: one that completes returns to the rank without a
//! context switch. Only a call that must wait (`recv_match`, `req_wait`,
//! `yield_now`, `at_sync`) suspends the ULT, and the scheduler may switch
//! to another ready rank. This is the shape of AMPI: blocking MPI calls
//! that cannot complete trap into the scheduler, posting a nonblocking
//! operation never does. Every receive, blocking or posted, carries a
//! [`MatchSpec`] for the rank's matching engine ([`crate::matching`]).

use crate::machine::RtsError;
use crate::matching::Outcomes;
use crate::message::RtsMessage;
use crate::worker::ExecCtx;
use crate::{PeId, RankId};
use bytes::Bytes;
use pvr_des::SimDuration;
use pvr_isomalloc::IsoPtr;
use pvr_privatize::RankInstance;
use pvr_ult::{ResumeError, Ult, UltState};
use std::cell::Cell;
use std::ptr::NonNull;
use std::sync::Arc;

/// Matching predicate of a receive, blocking or posted.
///
/// The runtime stays MPI-agnostic: `pvr-ampi` encodes its envelope
/// (communicator, message kind, MPI tag) into the rts-level `tag` word,
/// and a receive matches a message when the masked tag bits agree and
/// the source filter (if any) matches. `src: None` is a wildcard source;
/// masking out the low tag bits is a wildcard tag. A spec that names the
/// source and masks every tag bit (`u64::MAX`) is matched through the
/// unexpected queue's index instead of a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchSpec {
    /// Required sender, or `None` for any source.
    pub src: Option<RankId>,
    /// Which bits of the rts tag participate in matching.
    pub tag_mask: u64,
    /// Required value of the masked bits.
    pub tag_value: u64,
}

impl MatchSpec {
    /// Accepts every message.
    pub const ANY: MatchSpec = MatchSpec {
        src: None,
        tag_mask: 0,
        tag_value: 0,
    };

    /// Does `msg` satisfy this predicate?
    pub fn matches(&self, msg: &RtsMessage) -> bool {
        self.src.is_none_or(|s| s == msg.from) && (msg.tag & self.tag_mask) == self.tag_value
    }
}

/// The cell one rank and its scheduler share.
///
/// # Ownership contract
///
/// The lane that holds the rank drives it (`worker::Residents`). Rank
/// and scheduler never run concurrently — the scheduler touches the slot
/// only while the rank's ULT is suspended, the rank only while it is
/// resumed — and every hand-off is ordered: one OS thread switching
/// stacks (asm backend), `Backend::Thread`'s mutex, the worker pool's
/// epoch edges. So the fields are plain cells.
///
/// `exec` is the lane's `ExecCtx`, lifetime erased, set exactly while
/// [`Slot::resume`] is inside `try_resume`: the scheduler frame that
/// owns the `ExecCtx` is suspended there, so the rank may use it
/// exclusively. [`RankCtx`] is `Clone + Send`, so `RankCtx::on_lane`
/// checks before it dereferences — it must be in a ULT and `exec` must
/// be set — and a handle that escaped to a foreign OS thread or outlived
/// `Machine::run` panics instead of racing. A handle used from *another
/// rank's* body while its own rank runs on a different worker is not
/// detected: that is the caller's side of the contract.
#[derive(Default)]
pub struct Slot {
    exec: Cell<Option<NonNull<()>>>,
    /// Why the rank left its stack: `Ok` when a call parked it, the
    /// error when one failed. Set by the rank before it yields, taken by
    /// `run_rank_slice` after the resume returns.
    stop: Cell<Option<Result<(), RtsError>>>,
    /// The answer to the blocking receive the rank is parked in.
    pub(crate) message: Cell<Option<RtsMessage>>,
    /// The answer to the wait the rank is parked in.
    pub(crate) outcomes: Cell<Option<Outcomes>>,
}

// SAFETY: the ownership contract above — each cell is only accessed by
// whichever of rank and scheduler currently runs, and every change of
// hands is a synchronising edge.
unsafe impl Send for Slot {}
unsafe impl Sync for Slot {}

impl Slot {
    /// Resume `ult` with `exec` published to it for exactly that span,
    /// and say why it came back, if it said (`try_resume` catches the
    /// body's panics, so no unwind skips the reset).
    pub(crate) fn resume(
        &self,
        exec: &mut ExecCtx<'_>,
        ult: &mut Ult,
    ) -> (Result<UltState, ResumeError>, Option<Result<(), RtsError>>) {
        self.exec.set(Some(NonNull::from(exec).cast()));
        let outcome = ult.try_resume();
        self.exec.set(None);
        (outcome, self.stop.take())
    }
}

/// Floating-point rate of the modelled core, flop/s (about one EPYC-7742
/// core).
const FLOPS_PER_SEC: f64 = 3.0e9;
/// Memory bandwidth of the modelled core, bytes/s.
const MEM_BYTES_PER_SEC: f64 = 20e9;

/// Virtual time of a kernel doing `flops` floating-point operations over
/// `bytes` of memory traffic: the larger of its compute and memory
/// roofline terms. Apps declare it with [`RankCtx::compute`] after
/// running the real kernel.
pub fn kernel_cost(flops: f64, bytes: f64) -> SimDuration {
    let t = (flops / FLOPS_PER_SEC).max(bytes / MEM_BYTES_PER_SEC);
    SimDuration::from_secs_f64(t.max(0.0))
}

/// The rank-side handle: everything a rank body may do.
///
/// Cloneable so an app can hand it to helper layers (`pvr-ampi` wraps it).
///
/// # Locking hazard
///
/// Ranks are cooperatively scheduled on one OS thread. Never hold a
/// process-wide lock (e.g. a `Mutex` shared with other ranks) across a
/// call that can suspend the rank ([`RankCtx::recv`],
/// [`RankCtx::req_wait`], [`RankCtx::yield_now`], [`RankCtx::at_sync`],
/// any collective): the scheduler will switch to another rank on the
/// same thread, and if that rank takes the same lock the whole process
/// deadlocks — the moral equivalent of calling a blocking MPI function
/// inside a critical section. Calls that cannot suspend (sends, posts,
/// tests, `compute`, heap calls) never leave the rank's stack.
///
/// A handle is valid only inside its own rank's body: a call from
/// another OS thread, or after `Machine::run` returned, panics ([`Slot`]).
#[derive(Clone)]
pub struct RankCtx {
    pub(crate) rank: RankId,
    pub(crate) n_ranks: usize,
    pub(crate) slot: Arc<Slot>,
    pub(crate) instance: Arc<RankInstance>,
    pub(crate) virtual_mode: bool,
    pub(crate) binary: std::sync::Arc<pvr_progimage::ProgramBinary>,
}

impl RankCtx {
    /// This rank's global index.
    pub fn rank(&self) -> RankId {
        self.rank
    }

    /// Total virtual ranks in the job.
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// The PE the rank is currently scheduled on (changes after
    /// migration — ranks need never be aware of their placement, but the
    /// test suite and demos like to observe it).
    pub fn my_pe(&self) -> PeId {
        self.on_lane(|x, _| x.lane.pe)
    }

    /// Current time in seconds, read from the PE's clock at the call
    /// (virtual in virtual mode, wall time since the build otherwise).
    pub fn wtime(&self) -> f64 {
        self.on_lane(|x, _| x.shared.now_ns(x.lane)) as f64 / 1e9
    }

    /// Access to this rank's privatized globals.
    pub fn instance(&self) -> &RankInstance {
        &self.instance
    }

    pub fn is_virtual_time(&self) -> bool {
        self.virtual_mode
    }

    /// The program binary this job runs — layout queries (function
    /// offsets, callables) for `MPI_Op` resolution.
    pub fn binary(&self) -> &std::sync::Arc<pvr_progimage::ProgramBinary> {
        &self.binary
    }

    /// Run `f` on this stack against the lane running the rank. The
    /// `&mut ExecCtx` is an address on the worker thread's stack; it
    /// lives only in this frame, which has returned before any call
    /// parks, so no frame left on a parked rank's stack holds it. An
    /// unoptimized build spills locals to the stack, and a spilled worker
    /// address would make a checkpoint delta of that stack depend on
    /// which worker ran the rank.
    #[inline(never)]
    fn on_lane<T>(&self, f: impl FnOnce(&mut ExecCtx<'_>, RankId) -> T) -> T {
        assert!(pvr_ult::in_ult(), "RankCtx used outside a rank's ULT");
        let Some(exec) = self.slot.exec.get() else {
            panic!("RankCtx of rank {} used while it is not running", self.rank)
        };
        // SAFETY: `exec` is set only for the span of this rank's resume,
        // when the rank is the `ExecCtx`'s only user (`Slot`'s contract);
        // the checks above turn away a foreign OS thread and a handle
        // whose rank is suspended or finished.
        let exec = unsafe { exec.cast::<ExecCtx<'_>>().as_mut() };
        debug_assert_eq!(exec.lane.out.last_ran, Some(self.rank));
        f(exec, self.rank)
    }

    /// [`RankCtx::on_lane`] for a call that can fail: an error ends the
    /// run.
    fn call<T>(&self, f: impl FnOnce(&mut ExecCtx<'_>, RankId) -> Result<T, RtsError>) -> T {
        self.on_lane(f).unwrap_or_else(|e| self.fail(e))
    }

    /// Leave the stack until the lane resumes the rank: the call it is
    /// in has parked it.
    fn park(&self) {
        self.slot.stop.set(Some(Ok(())));
        pvr_ult::yield_now();
    }

    /// Leave the stack for good: the run ends with `e`. A rank that
    /// raised an error is not resumed.
    fn fail(&self, e: RtsError) -> ! {
        self.slot.stop.set(Some(Err(e)));
        pvr_ult::yield_now();
        self.protocol("resumed after it raised an error")
    }

    /// End the run with [`RtsError::Protocol`]: rank and lane code
    /// disagree about a call.
    fn protocol(&self, detail: &str) -> ! {
        self.fail(RtsError::Protocol {
            rank: self.rank,
            detail: detail.into(),
        })
    }

    /// Post a message to another rank (buffered; returns immediately).
    pub fn send(&self, to: RankId, tag: u64, payload: Bytes) {
        self.call(|x, r| x.send(r, to, tag, payload))
    }

    /// Block until any message arrives (oldest first).
    pub fn recv(&self) -> RtsMessage {
        self.recv_match(MatchSpec::ANY)
    }

    /// Block until a message `spec` accepts is available and take the
    /// oldest such. Arrivals `spec` rejects stay buffered, in order, and
    /// do not resume the rank. Not a request: no table entry, no `req.*`
    /// tally.
    pub fn recv_match(&self, spec: MatchSpec) -> RtsMessage {
        if let Some(m) = self.on_lane(|x, r| x.recv(r, spec, true)) {
            return m;
        }
        self.park();
        let m = self.slot.message.take();
        m.unwrap_or_else(|| self.protocol("recv_match resumed without a message"))
    }

    /// The oldest buffered message `spec` accepts, if any; never blocks.
    pub fn try_recv_match(&self, spec: MatchSpec) -> Option<RtsMessage> {
        self.on_lane(|x, r| x.recv(r, spec, false))
    }

    /// Declare computed work (virtual mode; free no-op in real time).
    pub fn compute(&self, work: SimDuration) {
        self.on_lane(|x, r| x.compute(r, work))
    }

    /// Cooperatively yield to other ranks on this PE.
    pub fn yield_now(&self) {
        self.on_lane(|x, r| x.yield_now(r));
        self.park();
    }

    /// Load-balancing sync point (AMPI's `MPI_Migrate`): blocks until
    /// every rank arrives, then the configured balancer may migrate ranks
    /// before all resume.
    pub fn at_sync(&self) {
        self.on_lane(|x, r| x.at_sync(r));
        self.park();
    }

    /// Allocate zeroed memory from this rank's migratable (Isomalloc)
    /// heap, so it migrates with the rank. Freed only when the rank is
    /// torn down — matching how the apps use per-rank grids for the
    /// lifetime of a run.
    pub fn heap_alloc(&self, size: usize, align: usize) -> *mut u8 {
        self.call(|x, r| x.heap_alloc(r, size, align))
    }

    /// Allocate a zeroed `f64` slice on the rank's migratable heap. The
    /// returned slice lives until rank teardown; it stays valid across
    /// migrations (Isomalloc invariant).
    pub fn heap_alloc_f64s(&self, len: usize) -> &'static mut [f64] {
        let p = self.heap_alloc(len * 8, 8) as *mut f64;
        unsafe { std::slice::from_raw_parts_mut(p, len) }
    }

    /// Post a nonblocking send. Returns the request id; completion is
    /// observed via [`RankCtx::req_wait`] / [`RankCtx::req_test`]. Under
    /// reliable delivery the request completes when the payload's ack
    /// arrives; otherwise it completes at post (buffered semantics).
    pub fn req_post_send(&self, to: RankId, tag: u64, payload: Bytes) -> u64 {
        self.call(|x, r| x.req_post_send(r, to, tag, payload))
    }

    /// Post a nonblocking receive matched at delivery time by `spec`. A
    /// matching message already buffered is claimed now; otherwise the
    /// *deposit path* completes the request when one arrives — not when
    /// the rank later waits.
    pub fn req_post_recv(&self, spec: MatchSpec) -> u64 {
        self.call(|x, r| x.req_post_recv(r, spec))
    }

    /// Block until the identified requests complete (all, or any one if
    /// `any`), reaping and returning the completed subset: in the order
    /// of `ids` when waiting for all, in completion order for `any`.
    /// `cont` tags the completions as continuation-delivered for the
    /// tallies.
    pub fn req_wait(&self, ids: Vec<u64>, any: bool, cont: bool) -> Outcomes {
        if let Some(done) = self.on_lane(|x, r| x.req_wait(r, ids, any, cont)) {
            return done;
        }
        self.park();
        let done = self.slot.outcomes.take();
        done.unwrap_or_else(|| self.protocol("req_wait resumed without its outcomes"))
    }

    /// Reap whichever of the identified requests have already completed;
    /// never blocks.
    pub fn req_test(&self, ids: Vec<u64>, cont: bool) -> Outcomes {
        self.on_lane(|x, r| x.req_test(r, &ids, cont))
    }

    /// Free a previous [`RankCtx::heap_alloc`] (`size` must match the
    /// allocation). With `MachineBuilder::guards(true)` the freed range
    /// is poisoned and audited: a double free or a later write through
    /// the stale pointer ends the run with a clean error naming this
    /// rank rather than corrupting another rank's memory.
    /// Kept for tests: fault hook (an invalid free trips the arena guard).
    pub fn heap_free(&self, ptr: *mut u8, size: usize) {
        self.call(|x, r| x.heap_free(r, IsoPtr { ptr, size }))
    }
}

#[cfg(test)]
/// Machine-level handler and `RankCtx` tests. Written beside what
/// they test, they expand inside `machine::tests`, whose helpers they
/// share and under whose path the suite lists them.
macro_rules! handler_tests {
    () => {
        /// A call that fails on the rank's stack ends the run exactly as
        /// one that failed in the scheduler did: the rank is not resumed, and
        /// both engines pick the same error among the lanes that raised one
        /// (both at the first event, so the lower PE's).
        #[test]
        fn handler_error_mid_slice_stops_the_rank_and_both_engines_pick_the_same_error() {
            let mut picked = Vec::new();
            for par in [Parallelism::Serial, Parallelism::Threads(2)] {
                let reached = Arc::new([const { AtomicUsize::new(0) }; 2]);
                let resumed = Arc::new(AtomicUsize::new(0));
                let (at, after) = (reached.clone(), resumed.clone());
                let mut m = builder()
                    .clock(ClockMode::Virtual)
                    .topology(Topology::non_smp(2))
                    .parallelism(par)
                    .build(Arc::new(move |ctx: RankCtx| {
                        ctx.compute(SimDuration::from_micros(5));
                        at[ctx.rank()].store(1, Ordering::Relaxed);
                        if ctx.rank() == 0 {
                            // default cap 1024: the 1 025th open request
                            for _ in 0..=1024 {
                                ctx.req_post_recv(MatchSpec::ANY);
                            }
                        } else {
                            let mut not_from_the_heap = 0u64;
                            ctx.heap_free(&mut not_from_the_heap as *mut u64 as *mut u8, 8);
                        }
                        after.fetch_add(1, Ordering::Relaxed);
                    }))
                    .unwrap();
                let err = m.run().map(|_| ()).unwrap_err();
                assert!(
                    matches!(
                        err,
                        RtsError::RequestOverflow {
                            rank: 0,
                            outstanding: 1024,
                            limit: 1024
                        }
                    ),
                    "{par:?}: {err:?}"
                );
                assert_eq!(m.tallies.req.recv_posts, 1024, "{par:?}");
                assert_eq!(m.hardening_stats().arena_guard_trips, 1, "{par:?}");
                for r in 0..2 {
                    assert_eq!(reached[r].load(Ordering::Relaxed), 1, "{par:?}: rank {r} ran");
                }
                drop(m); // cancels the two suspended ULTs
                assert_eq!(resumed.load(Ordering::Relaxed), 0, "{par:?}");
                picked.push(format!("{err:?}"));
            }
            assert_eq!(picked[0], picked[1]);
        }

        /// Roughly the caller's stack pointer: the address of a local one
        /// small frame below it.
        #[inline(never)]
        fn sp_here() -> usize {
            let here = 0u8;
            std::hint::black_box(&here) as *const u8 as usize
        }

        /// Handlers run on the rank's stack, so the deepest of them must fit
        /// the smallest stack a configuration may ask for and leave the rank
        /// its own frames. The deepest are the reliable sends: a `send` or
        /// `isend` to self under a lossy plan with tracing on (seal, fault
        /// decisions, duplicate copy, retransmit timer, trace records).
        /// `MachineBuilder::stack_size` quotes the figures this prints.
        #[test]
        fn deepest_handler_fits_the_smallest_stack() {
            use crate::config::MIN_STACK_SIZE;
            use pvr_des::{FaultParams, FaultPlan, HopClass};
            let caller_sp = Arc::new(AtomicUsize::new(0));
            let sp = caller_sp.clone();
            let t = Tracer::new(1);
            t.enable();
            let plan = FaultPlan::new(3).with_class(
                HopClass::IntraProcess,
                FaultParams {
                    drop_p: 0.2,
                    dup_p: 0.5,
                    corrupt_p: 0.2,
                    jitter_max: SimDuration::from_nanos(500),
                },
            );
            let mut m = builder()
                .clock(ClockMode::Virtual)
                .network(NetworkModel::ideal().with_faults(plan))
                .tracer(t)
                .stack_size(MIN_STACK_SIZE)
                .build(Arc::new(move |ctx: RankCtx| {
                    sp.store(sp_here(), Ordering::Relaxed);
                    for tag in 0..32 {
                        let r = ctx.req_post_recv(MatchSpec::ANY);
                        let s = ctx.req_post_send(0, tag, Bytes::from(vec![7u8; 256]));
                        ctx.send(0, tag, Bytes::from(vec![7u8; 256]));
                        ctx.req_test(vec![r, s], false);
                        ctx.try_recv_match(MatchSpec::ANY);
                        ctx.compute(SimDuration::from_nanos(10));
                        let p = ctx.heap_alloc(64, 8);
                        ctx.heap_free(p, 64);
                        ctx.req_wait(vec![r], false, false);
                    }
                }))
                .unwrap();
            let (base, len) = stack_region(&m, 0);
            m.run().unwrap();
            // the region starts zeroed: the lowest word ever written is how
            // deep the calls below the body reached
            let words = unsafe { std::slice::from_raw_parts(base as *const u64, len / 8) };
            let lowest = base + 8 * words.iter().position(|&w| w != 0).unwrap();
            let depth = caller_sp.load(Ordering::Relaxed) - lowest;
            eprintln!("deepest handler: {depth} bytes below its caller");
            assert!(
                depth <= MIN_STACK_SIZE / 2,
                "handlers reach {depth} bytes below their caller: over half the {MIN_STACK_SIZE}-byte floor"
            );
        }

        /// What used to be `expect`s and `panic!`s between rank and scheduler
        /// is the one typed error: a parked receive resumed with no message,
        /// a parked wait resumed without its outcomes, and a body that
        /// yields behind the runtime's back.
        #[test]
        fn rank_and_scheduler_disagreeing_is_a_protocol_error_not_a_panic() {
            let mut m = builder()
                .vp_ratio(3)
                .build(Arc::new(|ctx: RankCtx| match ctx.rank() {
                    0 => drop(ctx.recv()),
                    1 => drop(ctx.req_wait(vec![ctx.req_post_recv(MatchSpec::ANY)], false, false)),
                    _ => pvr_ult::yield_now(),
                }))
                .unwrap();
            for rank in [0, 1] {
                m.run_rank_slice(rank).unwrap();
                assert_eq!(m.rank(rank).status, RankStatus::Waiting);
            }
            for (rank, what) in [(0, "recv_match"), (1, "req_wait"), (2, "outside a RankCtx call")] {
                match m.run_rank_slice(rank) {
                    Err(RtsError::Protocol { rank: r, detail }) => {
                        assert_eq!(r, rank);
                        assert!(detail.contains(what), "{detail}");
                    }
                    other => panic!("expected Protocol, got {other:?}"),
                }
            }
        }

        /// In real time `wtime` reads the wall clock at the call, so a body
        /// can time its own kernel inside one slice.
        #[test]
        fn real_time_wtime_moves_inside_a_slice() {
            let elapsed = Arc::new(Mutex::new(0.0));
            let seen = elapsed.clone();
            let mut m = builder()
                .clock(ClockMode::RealTime)
                .build(Arc::new(move |ctx: RankCtx| {
                    let (t0, start) = (ctx.wtime(), std::time::Instant::now());
                    while start.elapsed() < std::time::Duration::from_millis(1) {
                        std::hint::spin_loop();
                    }
                    *seen.lock() = ctx.wtime() - t0;
                }))
                .unwrap();
            m.run().unwrap();
            let elapsed = *elapsed.lock();
            assert!(elapsed >= 0.001, "wtime moved {elapsed} s over 1 ms of work");
        }

        #[test]
        fn rank_ctx_on_a_foreign_thread_panics_instead_of_racing() {
            let mut m = builder()
                .build(Arc::new(|ctx: RankCtx| {
                    let stray = ctx.clone();
                    let sent = std::thread::spawn(move || stray.send(0, 0, Bytes::new())).join();
                    if let Err(p) = sent {
                        std::panic::resume_unwind(p);
                    }
                }))
                .unwrap();
            match m.run() {
                Err(RtsError::RankPanicked { rank: 0, message }) => {
                    assert!(message.contains("outside a rank's ULT"), "{message}")
                }
                other => panic!("expected RankPanicked, got {:?}", other.map(|_| ())),
            }
        }

        #[test]
        fn rank_ctx_used_after_the_run_panics_cleanly() {
            let kept = Arc::new(Mutex::new(None));
            let k = kept.clone();
            let mut m = builder()
                .build(Arc::new(move |ctx: RankCtx| *k.lock() = Some(ctx)))
                .unwrap();
            m.run().unwrap();
            let ctx = kept.lock().take().unwrap();
            // from a plain thread: not in a ULT
            let stale = ctx.clone();
            let plain = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                stale.compute(SimDuration::from_nanos(1))
            }));
            assert!(plain.is_err());
            // from some other ULT: in a ULT, but its rank is not running
            let mut other = pvr_ult::Ult::new(64 * 1024, move || ctx.send(0, 0, Bytes::new()));
            match other.try_resume() {
                Err(pvr_ult::ResumeError::Panicked(p)) => {
                    let message = p.downcast_ref::<String>().cloned().unwrap_or_default();
                    assert!(message.contains("not running"), "{message}");
                }
                _ => panic!("a stale RankCtx must panic, not run"),
            }
        }
    };
}
#[cfg(test)]
pub(crate) use handler_tests;
