//! The rank ⇄ scheduler protocol and the rank-side API ([`RankCtx`]).
//!
//! A virtual rank is a ULT. Every effectful operation (send, matched
//! receive, posting and waiting on nonblocking requests, declaring
//! computed work, heap allocation, reaching a load-balancing sync point)
//! is a [`Command`] the lane's scheduler code (`ExecCtx::handle`)
//! executes **on the rank's own stack**; one that completes returns its
//! [`Response`] without a context switch. Only a call that must wait
//! suspends the ULT, and the scheduler may switch to another ready rank.
//! This is the shape of AMPI: blocking MPI calls that cannot complete
//! trap into the scheduler, posting a nonblocking operation never does.
//! Every receive, blocking or posted, carries a [`MatchSpec`] for the
//! rank's matching engine ([`crate::matching`]).

use crate::machine::RtsError;
use crate::matching::Outcomes;
use crate::message::RtsMessage;
use crate::worker::{ExecCtx, Handled, StopReason};
use crate::{PeId, RankId};
use bytes::Bytes;
use pvr_des::SimDuration;
use pvr_privatize::RankInstance;
use pvr_ult::{ResumeError, Ult, UltState};
use std::cell::Cell;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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

/// What a rank asks of its scheduler. Only `RecvMatch`, `ReqWait`,
/// `Yield` and `AtSync` can suspend the rank; every other command is
/// answered on the rank's stack.
#[derive(Debug)]
pub enum Command {
    /// Post a message; completes immediately (buffered send).
    Send {
        to: RankId,
        tag: u64,
        payload: Bytes,
    },
    /// Blocking receive: the oldest buffered message `spec` accepts, or
    /// suspend until one arrives. Not a request — no table entry, no
    /// `req.*` tally; arrivals the spec rejects do not resume the rank.
    RecvMatch { spec: MatchSpec },
    /// Non-suspending [`Command::RecvMatch`].
    TryRecvMatch { spec: MatchSpec },
    /// Declare `work` of computation (advances the PE's virtual clock;
    /// no-op in real-time mode where the work physically happened).
    Compute(SimDuration),
    /// Cooperative yield: stay ready, let other ranks run.
    Yield,
    /// Load-balancing sync point (AMPI's `MPI_Migrate`): blocks until all
    /// ranks arrive, then the runtime may migrate ranks.
    AtSync,
    /// Allocate from the rank's Isomalloc heap (so the memory migrates
    /// with the rank).
    AllocHeap { size: usize, align: usize },
    /// Return an allocation to the rank's Isomalloc heap. With the arena
    /// guard enabled, an invalid free (double free, foreign pointer) or a
    /// write through a stale pointer surfaces as a clean rank-attributed
    /// runtime error instead of undefined behavior.
    FreeHeap { addr: usize, size: usize },
    /// Post a nonblocking send into the rank's request table; returns a
    /// request id immediately. Under reliable delivery the request
    /// completes when the payload's ack arrives; otherwise it completes
    /// at post (buffered semantics).
    ReqPostSend {
        to: RankId,
        tag: u64,
        payload: Bytes,
    },
    /// Post a nonblocking receive with a delivery-time matching
    /// predicate. If a matching message is already buffered in the
    /// rank's unexpected queue it is claimed now; otherwise the request
    /// stays pending and the *deposit path* completes it when a matching
    /// message arrives — not when the rank later waits.
    ReqPostRecv { spec: MatchSpec },
    /// Wait until the identified requests complete: all of them
    /// (`any == false`) or at least one (`any == true`). Completed
    /// requests are reaped from the table and returned. `cont` marks a
    /// continuation-style wait — the scheduler tallies completions
    /// delivered this way as continuations rather than suspensions.
    ReqWait {
        ids: Vec<u64>,
        any: bool,
        cont: bool,
    },
    /// Nonblocking completion probe: reap and return whichever of the
    /// identified requests have completed; never suspends.
    ReqTest { ids: Vec<u64>, cont: bool },
}

/// The scheduler's reply. A rank-side method that needs a value back
/// checks the kind it got ([`RtsError::Protocol`] otherwise).
#[derive(Debug)]
pub enum Response {
    /// Nothing to carry back; also what a yield or sync point resumes with.
    Ack,
    Message(RtsMessage),
    NoMessage,
    /// Address of a fresh heap allocation.
    Addr(usize),
    /// Id of a freshly posted nonblocking request.
    ReqId(u64),
    /// Completed requests reaped by `ReqWait`/`ReqTest`: `(id, message)`
    /// pairs — in the order the call named them for a wait on all of
    /// them, in completion order for a wait on any and for a test. Send
    /// completions carry `None`.
    ReqOutcomes(Outcomes),
}

/// The cell one rank and its scheduler share.
///
/// # Ownership contract
///
/// Extends [`RankTable`](crate::worker::RankTable)'s. Rank and scheduler
/// never run concurrently — the scheduler touches the slot only while
/// the rank's ULT is suspended, the rank only while it is resumed — and
/// every hand-off is ordered: one OS thread switching stacks (asm
/// backend), `Backend::Thread`'s mutex, the worker pool's epoch edges.
/// So the fields are plain cells.
///
/// `exec` is the lane's `ExecCtx`, lifetime erased, set exactly while
/// [`Slot::resume`] is inside `try_resume`: the scheduler frame that
/// owns the `ExecCtx` is suspended there, so the rank may use it
/// exclusively. [`RankCtx`] is `Clone + Send`, so `RankCtx::call` checks
/// before it dereferences — it must be in a ULT and `exec` must be set —
/// and a handle that escaped to a foreign OS thread or outlived
/// `Machine::run` panics instead of racing. A handle used from *another
/// rank's* body while its own rank runs on a different worker is not
/// detected: like `resident_mut`'s partition, that is the caller's side
/// of the contract.
#[derive(Default)]
pub struct Slot {
    exec: Cell<Option<NonNull<()>>>,
    /// Why the rank left its stack: set by the rank before it yields,
    /// taken by `run_rank_slice` after the resume returns.
    stop: Cell<Option<Result<StopReason, RtsError>>>,
    /// The answer to the receive or wait the rank is parked in.
    resp: Cell<Option<Response>>,
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
    ) -> (Result<UltState, ResumeError>, Option<Result<StopReason, RtsError>>) {
        self.exec.set(Some(NonNull::from(exec).cast()));
        let outcome = ult.try_resume();
        self.exec.set(None);
        (outcome, self.stop.take())
    }

    /// Answer the call the rank is parked in (scheduler side).
    pub(crate) fn answer(&self, resp: Response) {
        self.resp.set(Some(resp));
    }
}

/// Live, lock-free-readable facts about a rank that change as it runs.
pub struct RankShared {
    /// Where the rank currently lives (updated on migration).
    pub current_pe: AtomicUsize,
    /// The rank's view of "now", nanoseconds (virtual clock in virtual
    /// mode; updated before each resume and by `compute`).
    pub now_ns: AtomicU64,
}

/// Converts application work (flops, bytes touched) into virtual time.
///
/// Used by apps to declare `compute()` durations that reflect the real
/// kernels they just executed; defaults approximate one EPYC-7742 core.
#[derive(Debug, Clone, Copy)]
pub struct WorkModel {
    pub flops_per_sec: f64,
    pub mem_bytes_per_sec: f64,
}

impl Default for WorkModel {
    fn default() -> Self {
        WorkModel {
            flops_per_sec: 3.0e9,
            mem_bytes_per_sec: 20e9,
        }
    }
}

impl WorkModel {
    /// Cost of a kernel doing `flops` floating-point ops over `bytes` of
    /// memory traffic: max of the compute and memory roofline terms.
    pub fn kernel_cost(&self, flops: f64, bytes: f64) -> SimDuration {
        let t = (flops / self.flops_per_sec).max(bytes / self.mem_bytes_per_sec);
        SimDuration::from_secs_f64(t.max(0.0))
    }
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
    pub(crate) shared: Arc<RankShared>,
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
        self.shared.current_pe.load(Ordering::Relaxed)
    }

    /// Current time in seconds (virtual in virtual mode).
    pub fn wtime(&self) -> f64 {
        self.shared.now_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Access to this rank's privatized globals.
    pub fn instance(&self) -> &RankInstance {
        &self.instance
    }

    /// The work model for converting kernel op counts into virtual time.
    pub fn work_model(&self) -> WorkModel {
        WorkModel::default()
    }

    pub fn is_virtual_time(&self) -> bool {
        self.virtual_mode
    }

    /// The program binary this job runs — layout queries (function
    /// offsets, callables) for `MPI_Op` resolution.
    pub fn binary(&self) -> &std::sync::Arc<pvr_progimage::ProgramBinary> {
        &self.binary
    }

    /// Execute `cmd` on this stack through the lane's `ExecCtx`; leave
    /// the stack only if it must wait (or failed).
    fn call(&self, cmd: Command) -> Response {
        assert!(pvr_ult::in_ult(), "RankCtx used outside a rank's ULT");
        let Some(exec) = self.slot.exec.get() else {
            panic!("RankCtx of rank {} used while it is not running", self.rank)
        };
        // SAFETY: `exec` is set only for the span of this rank's resume,
        // when the rank is the `ExecCtx`'s only user (`Slot`'s contract);
        // the checks above turn away a foreign OS thread and a handle
        // whose rank is suspended or finished.
        let exec = unsafe { exec.cast::<ExecCtx<'_>>().as_mut() };
        let stop = match exec.handle(self.rank, cmd) {
            Ok(Handled::Done(resp)) => return resp,
            Ok(Handled::Park(why)) => Ok(why),
            Err(e) => Err(e),
        };
        self.slot.stop.set(Some(stop));
        pvr_ult::yield_now();
        self.slot.resp.take().unwrap_or(Response::Ack)
    }

    /// End the run with [`RtsError::Protocol`]: rank and lane code
    /// disagree about a call. A rank that raised an error is not resumed.
    fn protocol(&self, detail: &str) -> ! {
        loop {
            self.slot.stop.set(Some(Err(RtsError::Protocol {
                rank: self.rank,
                detail: detail.into(),
            })));
            pvr_ult::yield_now();
        }
    }

    /// Post a message to another rank (buffered; returns immediately).
    pub fn send(&self, to: RankId, tag: u64, payload: Bytes) {
        self.call(Command::Send { to, tag, payload });
    }

    /// Block until any message arrives (oldest first).
    pub fn recv(&self) -> RtsMessage {
        self.recv_match(MatchSpec::ANY)
    }

    /// Non-blocking receive of any message.
    pub fn try_recv(&self) -> Option<RtsMessage> {
        self.try_recv_match(MatchSpec::ANY)
    }

    /// Block until a message `spec` accepts is available and take the
    /// oldest such. Arrivals `spec` rejects stay buffered, in order, and
    /// do not resume the rank.
    pub fn recv_match(&self, spec: MatchSpec) -> RtsMessage {
        let Response::Message(m) = self.call(Command::RecvMatch { spec }) else {
            self.protocol("unexpected response to RecvMatch")
        };
        m
    }

    /// The oldest buffered message `spec` accepts, if any; never blocks.
    pub fn try_recv_match(&self, spec: MatchSpec) -> Option<RtsMessage> {
        match self.call(Command::TryRecvMatch { spec }) {
            Response::Message(m) => Some(m),
            Response::NoMessage => None,
            _ => self.protocol("unexpected response to TryRecvMatch"),
        }
    }

    /// Declare computed work (virtual mode; free no-op in real time).
    pub fn compute(&self, work: SimDuration) {
        self.call(Command::Compute(work));
    }

    /// Cooperatively yield to other ranks on this PE.
    pub fn yield_now(&self) {
        self.call(Command::Yield);
    }

    /// Load-balancing sync point: blocks until every rank arrives, then
    /// the configured balancer may migrate ranks before all resume.
    pub fn at_sync(&self) {
        self.call(Command::AtSync);
    }

    /// Allocate zeroed memory from this rank's migratable (Isomalloc)
    /// heap. Freed only when the rank is torn down — matching how the
    /// apps use per-rank grids for the lifetime of a run.
    pub fn heap_alloc(&self, size: usize, align: usize) -> *mut u8 {
        let Response::Addr(a) = self.call(Command::AllocHeap { size, align }) else {
            self.protocol("unexpected response to AllocHeap")
        };
        a as *mut u8
    }

    /// Allocate a zeroed `f64` slice on the rank's migratable heap. The
    /// returned slice lives until rank teardown; it stays valid across
    /// migrations (Isomalloc invariant).
    pub fn heap_alloc_f64s(&self, len: usize) -> &'static mut [f64] {
        let p = self.heap_alloc(len * 8, 8) as *mut f64;
        unsafe { std::slice::from_raw_parts_mut(p, len) }
    }

    /// Post a nonblocking send. Returns the request id; completion is
    /// observed via [`RankCtx::req_wait`] / [`RankCtx::req_test`].
    pub fn req_post_send(&self, to: RankId, tag: u64, payload: Bytes) -> u64 {
        let Response::ReqId(id) = self.call(Command::ReqPostSend { to, tag, payload }) else {
            self.protocol("unexpected response to ReqPostSend")
        };
        id
    }

    /// Post a nonblocking receive matched at delivery time by `spec`.
    pub fn req_post_recv(&self, spec: MatchSpec) -> u64 {
        let Response::ReqId(id) = self.call(Command::ReqPostRecv { spec }) else {
            self.protocol("unexpected response to ReqPostRecv")
        };
        id
    }

    /// Block until the identified requests complete (all, or any one if
    /// `any`), reaping and returning the completed subset: in the order
    /// of `ids` when waiting for all, in completion order for `any`.
    /// `cont` tags the completions as continuation-delivered for the
    /// tallies.
    pub fn req_wait(&self, ids: Vec<u64>, any: bool, cont: bool) -> Outcomes {
        let Response::ReqOutcomes(v) = self.call(Command::ReqWait { ids, any, cont }) else {
            self.protocol("unexpected response to ReqWait")
        };
        v
    }

    /// Reap whichever of the identified requests have already completed;
    /// never blocks.
    pub fn req_test(&self, ids: Vec<u64>, cont: bool) -> Outcomes {
        let Response::ReqOutcomes(v) = self.call(Command::ReqTest { ids, cont }) else {
            self.protocol("unexpected response to ReqTest")
        };
        v
    }

    /// Free a previous [`RankCtx::heap_alloc`] (`size` must match the
    /// allocation). With `MachineBuilder::guards(true)` the freed range
    /// is poisoned and audited: a double free or a later write through
    /// the stale pointer ends the run with a clean error naming this
    /// rank rather than corrupting another rank's memory.
    pub fn heap_free(&self, ptr: *mut u8, size: usize) {
        self.call(Command::FreeHeap {
            addr: ptr as usize,
            size,
        });
    }
}
