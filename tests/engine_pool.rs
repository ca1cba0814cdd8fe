//! Acceptance: the engine's worker pool lives exactly as long as one
//! `Machine::run`, and a pool of one is the driving thread alone.
//!
//! One test function on purpose: it reads this process's thread count,
//! and a sibling test running beside it in the same binary would move
//! that count under it.

#![cfg(target_os = "linux")]

use bytes::Bytes;
use pvr_apps::hello;
use pvr_rts::{ClockMode, MachineBuilder, Parallelism, RankCtx, RtsError, Topology};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The `Threads:` line of `/proc/self/status`.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line");
    line.trim().parse().expect("thread count")
}

/// [`os_threads`] once it reads `want`, or whatever it reads after two
/// seconds of not doing so. `join` returns when the thread's exit wakes
/// it, which is a moment before the kernel drops the task from the
/// count; a leaked helper never exits, so a leak still reads high at the
/// deadline.
fn settled_threads(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let n = os_threads();
        if n == want || Instant::now() >= deadline {
            return n;
        }
        std::thread::yield_now();
    }
}

/// Every rank passes a token once around the ring: each PE has events in
/// the same windows, so virtual runs go through parallel epochs.
fn ring_body() -> Arc<dyn Fn(RankCtx) + Send + Sync> {
    Arc::new(|ctx: RankCtx| {
        let n = ctx.n_ranks();
        ctx.send((ctx.rank() + 1) % n, 7, Bytes::copy_from_slice(b"token"));
        ctx.recv();
    })
}

fn builder(clock: ClockMode) -> MachineBuilder {
    MachineBuilder::new(hello::binary())
        .clock(clock)
        .topology(Topology::non_smp(4))
        .vp_ratio(2)
        .stack_size(128 * 1024)
        .parallelism(Parallelism::Threads(2))
}

#[test]
fn runs_leave_no_thread_behind() {
    let before = os_threads();
    for clock in [ClockMode::Virtual, ClockMode::RealTime] {
        for i in 0..50 {
            let mut m = builder(clock).build(ring_body()).unwrap();
            let report = m.run().unwrap();
            assert_eq!(report.engine.threads, 2);
            assert!(
                report.engine.barriers > 0,
                "{clock:?}: the pool was never used"
            );
            // The machine is still alive here: the helpers belong to the
            // run, not to the machine.
            assert_eq!(
                settled_threads(before),
                before,
                "{clock:?} run {i} left a thread"
            );
        }
    }

    // A run that ends in `Err` joins its helpers on the way out.
    let stuck: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(|ctx: RankCtx| {
        if ctx.rank() == 0 {
            ctx.recv(); // nobody sends
        }
    });
    for clock in [ClockMode::Virtual, ClockMode::RealTime] {
        let mut m = builder(clock).build(stuck.clone()).unwrap();
        match m.run() {
            Err(RtsError::Deadlock { waiting }) => assert_eq!(waiting, vec![0]),
            other => panic!("expected deadlock, got {other:?}"),
        }
        drop(m);
        assert_eq!(
            settled_threads(before),
            before,
            "{clock:?}: an Err run left a thread"
        );
    }

    // `Serial` is a pool of one, and so is every guarded run: not even
    // for the span of the run does a thread start.
    let most = Arc::new(AtomicUsize::new(0));
    let m2 = most.clone();
    let counting: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(move |ctx: RankCtx| {
        m2.fetch_max(os_threads(), Relaxed);
        ring_body()(ctx);
    });
    for clock in [ClockMode::Virtual, ClockMode::RealTime] {
        for pool_of_one in [
            builder(clock).parallelism(Parallelism::Serial),
            builder(clock).parallelism(Parallelism::Auto).guards(true),
        ] {
            let report = pool_of_one.build(counting.clone()).unwrap().run().unwrap();
            assert_eq!((report.engine.threads, report.engine.barriers), (1, 0));
            assert_eq!(
                most.swap(0, Relaxed),
                before,
                "{clock:?}: a pool of one started a thread"
            );
        }
    }
}
