//! The rank ⇄ scheduler protocol and the rank-side API ([`RankCtx`]).
//!
//! A virtual rank is a ULT. Every effectful operation (send, matched
//! receive, posting and waiting on nonblocking requests, declaring
//! computed work, heap allocation, reaching a load-balancing sync point)
//! is performed by writing a [`Command`] into the rank's slot and
//! yielding; the PE scheduler handles it and resumes the rank with a
//! [`Response`]. This is exactly the shape of AMPI: blocking MPI calls
//! trap into the scheduler, which may context-switch to another ready
//! rank. Every receive, blocking or posted, carries a [`MatchSpec`] for
//! the rank's matching engine ([`crate::matching`]).

use crate::matching::Outcomes;
use crate::message::RtsMessage;
use crate::{PeId, RankId};
use bytes::Bytes;
use parking_lot::Mutex;
use pvr_des::SimDuration;
use pvr_privatize::RankInstance;
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

/// What a rank asks of its scheduler.
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

/// The scheduler's reply.
#[derive(Debug)]
pub enum Response {
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

/// Mailbox-sized shared cell between one rank and the scheduler. The two
/// never run concurrently (cooperative, single OS thread), but the mutex
/// keeps the types honest and is uncontended.
#[derive(Default)]
pub struct Slot {
    pub cmd: Option<Command>,
    pub resp: Option<Response>,
}

/// Live, lock-free-readable facts about a rank that change as it runs.
pub struct RankShared {
    /// Where the rank currently lives (updated on migration).
    pub current_pe: AtomicUsize,
    /// The rank's view of "now", nanoseconds (virtual clock in virtual
    /// mode; updated before each resume).
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
/// blocking call ([`RankCtx::recv`], [`RankCtx::at_sync`], any
/// collective): the scheduler will switch to another rank on the same
/// thread, and if that rank takes the same lock the whole process
/// deadlocks — the moral equivalent of calling a blocking MPI function
/// inside a critical section.
#[derive(Clone)]
pub struct RankCtx {
    pub(crate) rank: RankId,
    pub(crate) n_ranks: usize,
    pub(crate) slot: Arc<Mutex<Slot>>,
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

    fn call(&self, cmd: Command) -> Response {
        {
            let mut s = self.slot.lock();
            debug_assert!(s.cmd.is_none(), "re-entrant rank command");
            s.cmd = Some(cmd);
        }
        pvr_ult::yield_now();
        self.slot
            .lock()
            .resp
            .take()
            .expect("scheduler must respond before resuming a rank")
    }

    /// Post a message to another rank (buffered; returns immediately).
    pub fn send(&self, to: RankId, tag: u64, payload: Bytes) {
        match self.call(Command::Send { to, tag, payload }) {
            Response::Ack => {}
            r => panic!("unexpected response to Send: {r:?}"),
        }
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
        match self.call(Command::RecvMatch { spec }) {
            Response::Message(m) => m,
            r => panic!("unexpected response to RecvMatch: {r:?}"),
        }
    }

    /// The oldest buffered message `spec` accepts, if any; never blocks.
    pub fn try_recv_match(&self, spec: MatchSpec) -> Option<RtsMessage> {
        match self.call(Command::TryRecvMatch { spec }) {
            Response::Message(m) => Some(m),
            Response::NoMessage => None,
            r => panic!("unexpected response to TryRecvMatch: {r:?}"),
        }
    }

    /// Declare computed work (virtual mode; free no-op in real time).
    pub fn compute(&self, work: SimDuration) {
        match self.call(Command::Compute(work)) {
            Response::Ack => {}
            r => panic!("unexpected response to Compute: {r:?}"),
        }
    }

    /// Cooperatively yield to other ranks on this PE.
    pub fn yield_now(&self) {
        match self.call(Command::Yield) {
            Response::Ack => {}
            r => panic!("unexpected response to Yield: {r:?}"),
        }
    }

    /// Load-balancing sync point: blocks until every rank arrives, then
    /// the configured balancer may migrate ranks before all resume.
    pub fn at_sync(&self) {
        match self.call(Command::AtSync) {
            Response::Ack => {}
            r => panic!("unexpected response to AtSync: {r:?}"),
        }
    }

    /// Allocate zeroed memory from this rank's migratable (Isomalloc)
    /// heap. Freed only when the rank is torn down — matching how the
    /// apps use per-rank grids for the lifetime of a run.
    pub fn heap_alloc(&self, size: usize, align: usize) -> *mut u8 {
        match self.call(Command::AllocHeap { size, align }) {
            Response::Addr(a) => a as *mut u8,
            r => panic!("unexpected response to AllocHeap: {r:?}"),
        }
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
        match self.call(Command::ReqPostSend { to, tag, payload }) {
            Response::ReqId(id) => id,
            r => panic!("unexpected response to ReqPostSend: {r:?}"),
        }
    }

    /// Post a nonblocking receive matched at delivery time by `spec`.
    pub fn req_post_recv(&self, spec: MatchSpec) -> u64 {
        match self.call(Command::ReqPostRecv { spec }) {
            Response::ReqId(id) => id,
            r => panic!("unexpected response to ReqPostRecv: {r:?}"),
        }
    }

    /// Block until the identified requests complete (all, or any one if
    /// `any`), reaping and returning the completed subset: in the order
    /// of `ids` when waiting for all, in completion order for `any`.
    /// `cont` tags the completions as continuation-delivered for the
    /// tallies.
    pub fn req_wait(&self, ids: Vec<u64>, any: bool, cont: bool) -> Outcomes {
        match self.call(Command::ReqWait { ids, any, cont }) {
            Response::ReqOutcomes(v) => v,
            r => panic!("unexpected response to ReqWait: {r:?}"),
        }
    }

    /// Reap whichever of the identified requests have already completed;
    /// never blocks.
    pub fn req_test(&self, ids: Vec<u64>, cont: bool) -> Outcomes {
        match self.call(Command::ReqTest { ids, cont }) {
            Response::ReqOutcomes(v) => v,
            r => panic!("unexpected response to ReqTest: {r:?}"),
        }
    }

    /// Free a previous [`RankCtx::heap_alloc`] (`size` must match the
    /// allocation). With `MachineBuilder::guards(true)` the freed range
    /// is poisoned and audited: a double free or a later write through
    /// the stale pointer ends the run with a clean error naming this
    /// rank rather than corrupting another rank's memory.
    pub fn heap_free(&self, ptr: *mut u8, size: usize) {
        match self.call(Command::FreeHeap {
            addr: ptr as usize,
            size,
        }) {
            Response::Ack => {}
            r => panic!("unexpected response to FreeHeap: {r:?}"),
        }
    }
}
