//! The engine, at every thread count: one long-lived [`WorkerPool`] per
//! [`Machine::run`](crate::machine::Machine::run), and the two jobs the
//! machine broadcasts on it. `Parallelism::Serial` is a pool of one —
//! the driver with no helper — running the same jobs as any other.
//!
//! ## The pool
//!
//! `threads - 1` helper OS threads plus the driving thread (the one
//! inside `Machine::run`) as worker 0. The pool is created once per run
//! and joined when it is dropped, on the `Ok`, `Err` and unwinding paths
//! alike. It has one primitive, [`WorkerPool::broadcast`]: publish a
//! *borrowed* closure, wake some helpers, run the closure on the driver
//! too, and return only when every woken helper has finished it. Helpers
//! wait for work by polling for [`POLL`] and then parking; when the pool
//! is larger than the host (`available_parallelism`) they park at once.
//! Every wait in the pool — a polling helper's, the driver's for its
//! helpers — is a `yield_now` loop, never a bare spin: a waiter that
//! shares a core with the thread it waits for must let that thread run.
//!
//! A panic inside the job — on a helper or on the driver — is caught
//! where it happens, every woken helper still finishes, and `broadcast`
//! re-raises it on the driving thread; the pool refuses further jobs.
//!
//! ## Virtual mode: claimed lanes
//!
//! An epoch is one `broadcast` ([`run_epoch_lanes`]) in which workers
//! *claim* the next lane with an event below the epoch's bound from a
//! shared iterator and drive it through its own [`ExecCtx`] — one
//! context, one lane, as at a barrier (`Machine::with_lane`). A
//! virtual-mode lane touches only its own queue, PE state and outbox
//! and the ranks resident on its PE, so which
//! worker drives it (and in which order) cannot change what it produces;
//! the machine merges outboxes in PE order afterwards. Lane → worker
//! assignment is therefore timing-dependent while results stay
//! bit-identical to serial runs. At most `active lanes - 1` helpers are
//! woken (none on a pool of one), and an epoch the driver drains before a
//! helper arrives simply finds that helper nothing to claim.
//!
//! ## Real-time mode: contiguous chunks
//!
//! A burst is one `broadcast` ([`real_burst`]) of [`worker_loop`]: each
//! worker takes one contiguous chunk of lanes and sweeps it, one context
//! per lane and one rank slice per PE per sweep. What a slice sends to a
//! sibling lane of the same chunk is handed straight to that lane's
//! `deposit` before the sweep moves on; only what it sends to another
//! worker's lane crosses the hub — sharded per-worker inboxes
//! ([`RealHub`]), so a sender locks only its target's shard, and two
//! workers exchanging messages with two *other* workers never contend. A
//! lock-free pending counter (incremented before the shard push,
//! decremented after the take) plus per-worker idle flags give the
//! classic all-idle-and-nothing-pending termination detector; the one
//! remaining mutex+condvar pair exists purely to park idle workers (with
//! a timeout backstop against lost wakeups). On a pool of one the single
//! chunk is every lane, and the burst ends at the first sweep that runs
//! nothing. Real-time parallel runs are *not* deterministic — wall-clock
//! scheduling never is — which is why the determinism suite pins virtual
//! mode only.

use crate::message::RtsMessage;
use crate::worker::{ExecCtx, Lane, Shared};
use parking_lot::{Condvar, Mutex};
use pvr_des::SimTime;
use pvr_trace::ThreadScope;
use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// What one `broadcast` runs on every participating worker, called with
/// the worker's index (0 = the driving thread).
type Job<'a> = &'a (dyn Fn(usize) + Sync);

/// How long an idle helper polls for the next job before it parks: long
/// enough to bridge the serial stretch between two parallel epochs (a
/// merge and a one-lane epoch or two), short enough that an LB step or a
/// checkpoint leaves the core free.
const POLL: Duration = Duration::from_micros(200);

/// Generation value that tells a helper to exit.
const SHUTDOWN: u64 = u64::MAX;

/// State shared between the driver and the helpers.
struct PoolShared {
    /// The job of the generation in flight (`None` between broadcasts).
    job: Mutex<Option<Job<'static>>>,
    /// Per helper: the generation it should run next. The driver's
    /// `Release` store publishes the job and everything the job borrows;
    /// the helper's `Acquire` load receives them.
    gens: Vec<AtomicU64>,
    /// Woken helpers that have not finished the job in flight. A
    /// helper's `Release` decrement publishes what it wrote (its lanes)
    /// to the driver's `Acquire` load in `broadcast`.
    pending: AtomicUsize,
    /// First panic payload caught on a helper during the job in flight.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Whether idle helpers poll before they park: true while the pool
    /// fits the host.
    poll: bool,
}

/// A pool of `threads - 1` helper threads plus the calling thread; see
/// the module docs.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    helpers: Vec<JoinHandle<()>>,
    /// Generation of the last job broadcast.
    gen: Cell<u64>,
    /// Set once a job has panicked: helper state is intact, but the
    /// caller's is not, so the pool takes no further jobs.
    poisoned: Cell<bool>,
}

impl WorkerPool {
    /// Start `threads - 1` helpers (none for `threads <= 1`).
    pub(crate) fn new(threads: usize) -> WorkerPool {
        let host = thread::available_parallelism().map_or(1, |n| n.get());
        let shared = Arc::new(PoolShared {
            job: Mutex::new(None),
            gens: (1..threads).map(|_| AtomicU64::new(0)).collect(),
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            poll: threads <= host,
        });
        let helpers = (1..threads)
            .map(|w| {
                let shared = shared.clone();
                thread::Builder::new()
                    .name(format!("pvr-worker-{w}"))
                    .spawn(move || helper_loop(&shared, w))
                    .expect("spawn engine worker")
            })
            .collect();
        WorkerPool {
            shared,
            helpers,
            gen: Cell::new(0),
            poisoned: Cell::new(false),
        }
    }

    /// Workers in the pool, the driving thread included.
    pub(crate) fn threads(&self) -> usize {
        self.helpers.len() + 1
    }

    /// Run `job(w)` on the driving thread (`w = 0`) and on `helpers`
    /// helper threads (`w = 1..=helpers`, clamped to the pool), and
    /// return when all of them have returned from it. A panic in any of
    /// them is re-raised here after the rest have finished.
    pub(crate) fn broadcast(&self, helpers: usize, job: Job<'_>) {
        assert!(!self.poisoned.get(), "worker pool reused after a panic");
        let shared = &*self.shared;
        let helpers = helpers.min(self.helpers.len());
        // SAFETY: only the lifetime changes. The `'static` is a promise
        // this function keeps: the erased reference lives in `shared.job`
        // only until the end of this call, helpers read it only between
        // receiving their generation and decrementing `pending`, and
        // this function neither returns nor unwinds before `pending` is
        // back to zero (the driver's own call runs under `catch_unwind`,
        // and nothing else in between can panic). So every use of the
        // reference happens while the caller's borrow is live.
        let erased: Job<'static> = unsafe { std::mem::transmute::<Job<'_>, Job<'static>>(job) };
        *shared.job.lock() = Some(erased);
        let gen = self.gen.get() + 1;
        self.gen.set(gen);
        shared.pending.store(helpers, Relaxed);
        for (slot, handle) in shared.gens.iter().zip(&self.helpers).take(helpers) {
            slot.store(gen, Release);
            handle.thread().unpark();
        }
        let mine = panic::catch_unwind(AssertUnwindSafe(|| job(0)));
        // The kernel may have queued a woken helper behind this very
        // thread: it runs only if we let go.
        while shared.pending.load(Acquire) != 0 {
            thread::yield_now();
        }
        *shared.job.lock() = None;
        let theirs = shared.panic.lock().take();
        if let Some(payload) = mine.err().or(theirs) {
            self.poisoned.set(true);
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for (slot, handle) in self.shared.gens.iter().zip(&self.helpers) {
            slot.store(SHUTDOWN, Release);
            handle.thread().unpark();
        }
        for handle in self.helpers.drain(..) {
            // Helpers catch job panics themselves; a join error would be
            // a bug in `helper_loop`, and `Drop` must not panic over it.
            let _ = handle.join();
        }
    }
}

/// A helper's life: wait for the next generation, run its job, report.
fn helper_loop(shared: &PoolShared, w: usize) {
    let slot = &shared.gens[w - 1];
    let mut seen = 0u64;
    loop {
        let poll_until = shared.poll.then(|| Instant::now() + POLL);
        loop {
            match slot.load(Acquire) {
                SHUTDOWN => return,
                gen if gen != seen => {
                    seen = gen;
                    break;
                }
                // `unpark` before `park` makes the park return at once,
                // so a wake between the load above and this park is
                // never lost; a spurious return just loops.
                _ if poll_until.is_some_and(|t| Instant::now() < t) => thread::yield_now(),
                _ => thread::park(),
            }
        }
        let job = shared
            .job
            .lock()
            .expect("job published before its generation");
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| job(w))) {
            shared.panic.lock().get_or_insert(payload);
        }
        // Last use of `job` is above: after this decrement `broadcast`
        // may return and the borrow behind the reference may end.
        shared.pending.fetch_sub(1, Release);
    }
}

/// A worker's trace scope for one job. The driver already runs inside
/// the run's scope: a job it runs alone keeps that scope, so attribution
/// carries from slice to slice as it would with no pool at all; a job
/// shared with helpers starts every worker, the driver too, from a fresh
/// one, so what a worker attributes cannot depend on which lanes it
/// happened to drive before.
fn job_scope(shared: &Shared, helpers: bool) -> Option<ThreadScope> {
    let tracer = shared.tracer.as_ref().filter(|_| helpers)?;
    Some(ThreadScope::install(tracer.clone()))
}

/// Drive one epoch's lanes with work on the pool, each worker claiming
/// the next lane when it finishes one. `active` is the number of lanes
/// with work. Writes per-worker busy wall-clock into `busy`, one entry
/// per pool worker.
pub(crate) fn run_epoch_lanes(
    shared: &Shared,
    lanes: &mut [Lane],
    pool: &WorkerPool,
    active: usize,
    busy: &mut [Duration],
) {
    let helpers = active.saturating_sub(1).min(pool.threads() - 1);
    busy.fill(Duration::ZERO);
    let busy = Mutex::new(busy);
    let unclaimed = Mutex::new(lanes.iter_mut());
    pool.broadcast(helpers, &|w| {
        let _scope = job_scope(shared, helpers > 0);
        let t0 = Instant::now();
        loop {
            // The claim: the lock is held for the `find` only, and the
            // `&mut Lane` it hands out is this worker's alone.
            let Some(lane) = unclaimed.lock().find(|l| l.has_work()) else {
                break;
            };
            ExecCtx { shared, lane }.run_epoch();
        }
        busy.lock()[w] = t0.elapsed();
    });
}

/// How long a parked worker sleeps before re-checking on its own — the
/// backstop that turns any lost-wakeup race into bounded latency
/// instead of a hang.
const PARK_BACKSTOP: Duration = Duration::from_millis(1);

/// Sharded message hub and termination detector for parallel real-time
/// bursts. Delivery state is per-worker; only idle parking takes the
/// shared lock.
struct RealHub {
    /// Per-worker inbox shards. A sender locks exactly one — its
    /// target's — so disjoint worker pairs never serialize on the hub.
    shards: Vec<Mutex<Vec<RtsMessage>>>,
    /// Messages posted but not yet collected by their target worker.
    /// Incremented *before* the shard push and decremented *after* the
    /// take, so `pending == 0` proves no message is in flight.
    pending: AtomicUsize,
    /// Which workers are parked with nothing to run.
    idle: Vec<AtomicBool>,
    /// Burst termination flag (quiescence detected, or a worker erred).
    over: AtomicBool,
    /// Total rank slices run this burst.
    ran_total: AtomicU64,
    /// Idle parking lot: the mutex guards nothing but the park itself;
    /// senders grab it momentarily when notifying so a wakeup cannot
    /// slip between a parker's re-check and its wait.
    park: Mutex<()>,
    cv: Condvar,
}

impl RealHub {
    /// Wake every parked worker (new messages, or termination).
    fn notify(&self) {
        let _guard = self.park.lock();
        self.cv.notify_all();
    }

    /// End the burst and release every parked worker.
    fn finish(&self) {
        self.over.store(true, SeqCst);
        self.notify();
    }
}

/// Ends the burst if the worker holding it unwinds: its siblings would
/// otherwise wait for an all-idle state that can no longer come, and
/// `broadcast` for them.
struct EndBurstOnUnwind<'h>(&'h RealHub);

impl Drop for EndBurstOnUnwind<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.finish();
        }
    }
}

/// One parallel real-time burst: every worker of the burst runs
/// [`worker_loop`] on its own contiguous chunk of lanes until global
/// quiescence. Returns (slices run, per-worker wall).
pub(crate) fn real_burst(
    shared: &Shared,
    lanes: &mut [Lane],
    pool: &WorkerPool,
) -> (u64, Vec<Duration>) {
    let chunk = lanes.len().div_ceil(pool.threads());
    let n_workers = lanes.len().div_ceil(chunk);
    let hub = RealHub {
        shards: (0..n_workers).map(|_| Mutex::new(Vec::new())).collect(),
        pending: AtomicUsize::new(0),
        idle: (0..n_workers).map(|_| AtomicBool::new(false)).collect(),
        over: AtomicBool::new(false),
        ran_total: AtomicU64::new(0),
        park: Mutex::new(()),
        cv: Condvar::new(),
    };
    let walls = Mutex::new(vec![Duration::ZERO; n_workers]);
    let chunks = Mutex::new(lanes.chunks_mut(chunk).enumerate());
    // Termination needs every chunk driven concurrently, which holds
    // because exactly `n_workers` threads run the job and each takes one
    // chunk. `c` (the hub index) is the chunk's, not the pool worker's.
    pool.broadcast(n_workers - 1, &|_| {
        let _scope = job_scope(shared, n_workers > 1);
        let _end_burst = EndBurstOnUnwind(&hub);
        let (c, slice) = chunks.lock().next().expect("one chunk per worker");
        let wall = worker_loop(shared, slice, c, chunk, &hub);
        walls.lock()[c] = wall;
    });
    (hub.ran_total.load(SeqCst), walls.into_inner())
}

/// One worker's life for a real-time burst: drain own shard, sweep own
/// lanes fairly — handing what a slice sends to a sibling lane straight
/// to it — push cross-worker sends into their targets' shards, park when
/// idle; terminate on global quiescence (every worker idle, nothing in
/// flight).
fn worker_loop(
    shared: &Shared,
    slice: &mut [Lane],
    w: usize,
    chunk: usize,
    hub: &RealHub,
) -> Duration {
    let t0 = Instant::now();
    let first = slice[0].pe;
    // Reused across sweeps: one lane's sends, and the sends for other
    // workers' lanes collected over a sweep.
    let mut mail: Vec<RtsMessage> = Vec::new();
    let mut outbound: Vec<RtsMessage> = Vec::new();
    loop {
        if hub.over.load(SeqCst) {
            break;
        }
        let inbound: Vec<RtsMessage> = std::mem::take(&mut *hub.shards[w].lock());
        hub.pending.fetch_sub(inbound.len(), SeqCst);
        for m in inbound {
            let lane = &mut slice[shared.location.lookup(m.to) - first];
            ExecCtx { shared, lane }.deposit(m);
        }
        let mut ran = 0u64;
        for li in 0..slice.len() {
            match (ExecCtx {
                shared,
                lane: &mut slice[li],
            })
            .real_slice()
            {
                Ok(slice_ran) => ran += slice_ran as u64,
                Err(e) => {
                    // Unsent mail stays with the lane: the barrier
                    // delivers it.
                    slice[li].out.unrouted.append(&mut outbound);
                    slice[li].out.error = Some((SimTime::ZERO, 0, e));
                    hub.finish();
                    return t0.elapsed();
                }
            }
            mail.append(&mut slice[li].out.unrouted);
            for m in mail.drain(..) {
                let pe = shared.location.lookup(m.to);
                match pe.checked_sub(first).and_then(|i| slice.get_mut(i)) {
                    Some(lane) => ExecCtx { shared, lane }.deposit(m),
                    None => outbound.push(m),
                }
            }
        }
        hub.ran_total.fetch_add(ran, SeqCst);
        let posted = outbound.len();
        for m in outbound.drain(..) {
            let dest_w = shared.location.lookup(m.to) / chunk;
            // Count the message in flight before it becomes visible, so
            // a `pending == 0` read can never miss a published message.
            hub.pending.fetch_add(1, SeqCst);
            hub.shards[dest_w].lock().push(m);
        }
        if posted > 0 {
            hub.notify();
        }
        if ran > 0 || !hub.shards[w].lock().is_empty() {
            continue;
        }
        // Publish idleness, then re-check the shard: a sender that
        // pushed after the emptiness check above will either see the
        // idle flag (and notify) or be caught by this re-check.
        hub.idle[w].store(true, SeqCst);
        let mut done = false;
        {
            let mut guard = hub.park.lock();
            loop {
                if hub.over.load(SeqCst) {
                    done = true;
                    break;
                }
                if !hub.shards[w].lock().is_empty() {
                    hub.idle[w].store(false, SeqCst);
                    break;
                }
                if hub.pending.load(SeqCst) == 0 && hub.idle.iter().all(|i| i.load(SeqCst)) {
                    // Global quiescence: no runnable rank anywhere and
                    // no message in flight — the burst is over. (Any
                    // collected-but-unprocessed message belongs to a
                    // worker that has not declared idle, so all-idle
                    // plus pending == 0 really is quiescence.)
                    hub.over.store(true, SeqCst);
                    hub.cv.notify_all();
                    done = true;
                    break;
                }
                hub.cv.wait_for(&mut guard, PARK_BACKSTOP);
            }
        }
        if done {
            break;
        }
    }
    t0.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn panic_message(payload: Box<dyn Any + Send>) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn broadcast_runs_a_borrowed_job_on_every_woken_worker() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        for round in 1..=100u64 {
            // Borrowed from this stack frame and gone at the end of the
            // iteration: sound only because `broadcast` returns after
            // every worker is done with the closure.
            let hits: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
            pool.broadcast(3, &|w| {
                hits[w].fetch_add(round, SeqCst);
            });
            let hits: Vec<u64> = hits.into_iter().map(AtomicU64::into_inner).collect();
            assert_eq!(hits, [round; 4]);
        }
    }

    #[test]
    fn broadcast_wakes_no_more_helpers_than_asked_or_owned() {
        let pool = WorkerPool::new(3);
        let ran = Mutex::new(Vec::new());
        pool.broadcast(0, &|w| ran.lock().push(w));
        assert_eq!(*ran.lock(), [0], "no helper asked for: the driver alone");
        ran.lock().clear();
        pool.broadcast(1, &|w| ran.lock().push(w));
        ran.lock().sort_unstable();
        assert_eq!(*ran.lock(), [0, 1]);
        ran.lock().clear();
        pool.broadcast(7, &|w| ran.lock().push(w));
        ran.lock().sort_unstable();
        assert_eq!(*ran.lock(), [0, 1, 2], "clamped to the pool");
    }

    #[test]
    fn a_pool_of_one_runs_every_job_on_the_caller_and_keeps_the_panic_rule() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        assert!(pool.helpers.is_empty(), "a pool of one starts no thread");
        let caller = thread::current().id();
        let ran = Mutex::new(Vec::new());
        pool.broadcast(5, &|w| ran.lock().push((w, thread::current().id())));
        assert_eq!(
            *ran.lock(),
            [(0, caller)],
            "no helper to wake: the caller alone"
        );
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(0, &|_| panic!("lane blew up on the caller"))
        }))
        .expect_err("the job's panic must reach the caller");
        assert_eq!(panic_message(err), "lane blew up on the caller");
        let err = panic::catch_unwind(AssertUnwindSafe(|| pool.broadcast(0, &|_| {})))
            .expect_err("a pool that saw a panic takes no further jobs");
        assert!(panic_message(err).contains("reused after a panic"));
    }

    #[test]
    fn a_helper_sleeps_through_jobs_it_is_not_woken_for() {
        // Helper 2 misses generations 1..=5 and must still take the 6th.
        let pool = WorkerPool::new(3);
        let sum = AtomicUsize::new(0);
        for _ in 0..5 {
            pool.broadcast(1, &|w| {
                sum.fetch_add(w, SeqCst);
            });
        }
        assert_eq!(sum.load(SeqCst), 5);
        pool.broadcast(2, &|w| {
            sum.fetch_add(10 * w, SeqCst);
        });
        assert_eq!(sum.load(SeqCst), 5 + 10 + 20);
    }

    #[test]
    fn a_panic_on_a_helper_surfaces_on_the_caller_and_retires_the_pool() {
        let pool = WorkerPool::new(2);
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(1, &|w| {
                if w == 1 {
                    panic!("lane blew up on worker 1");
                }
            });
        }))
        .expect_err("the helper's panic must reach the caller");
        assert_eq!(panic_message(err), "lane blew up on worker 1");
        let err = panic::catch_unwind(AssertUnwindSafe(|| pool.broadcast(1, &|_| {})))
            .expect_err("a pool that saw a panic takes no further jobs");
        assert!(panic_message(err).contains("reused after a panic"));
        // Dropping the pool here joins a helper that is alive and idle;
        // a hang would show as a test timeout.
    }

    #[test]
    fn a_panic_on_the_driver_waits_for_the_helpers_before_unwinding() {
        let pool = WorkerPool::new(2);
        // The helper cannot finish until the main thread says so, and the
        // main thread says so only once the driver's call has panicked:
        // if `broadcast` unwound without waiting, `finished` would still
        // be false when the unwind is caught.
        let (release, gate) = mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        let finished = AtomicBool::new(false);
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(1, &|w| {
                if w == 0 {
                    release.send(()).expect("helper is listening");
                    panic!("driver blew up");
                }
                gate.lock().recv().expect("driver sends before it panics");
                // Widen the window a premature unwind would have to win.
                thread::sleep(Duration::from_millis(20));
                finished.store(true, SeqCst);
            });
        }))
        .expect_err("the driver's panic must continue");
        assert_eq!(panic_message(err), "driver blew up");
        assert!(
            finished.load(SeqCst),
            "broadcast unwound while a helper still held the borrowed job"
        );
    }

    #[test]
    fn dropping_the_pool_joins_its_helpers() {
        // A thread-local's destructor runs when its thread exits, and a
        // join returns only after that: both notes must have arrived by
        // the time `drop` is back.
        struct ExitNote(mpsc::Sender<()>);
        impl Drop for ExitNote {
            fn drop(&mut self) {
                let _ = self.0.send(());
            }
        }
        thread_local! {
            static NOTE: std::cell::RefCell<Option<ExitNote>> = const { std::cell::RefCell::new(None) };
        }
        let (tx, rx) = mpsc::channel();
        let tx = Mutex::new(tx);
        let pool = WorkerPool::new(3);
        pool.broadcast(2, &|w| {
            if w > 0 {
                NOTE.with(|n| *n.borrow_mut() = Some(ExitNote(tx.lock().clone())));
            }
        });
        assert!(rx.try_recv().is_err(), "helpers outlive the job");
        drop(pool);
        assert_eq!(
            rx.try_iter().count(),
            2,
            "drop returned before the helpers exited"
        );
    }
}
