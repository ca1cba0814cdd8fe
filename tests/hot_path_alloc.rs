//! A steady-state epoch and message allocate nothing.
//!
//! A counting global allocator watches a blocking 32-byte ping-pong
//! between two PEs in virtual time: after a warm-up, 100 and then 1000
//! further round trips — each a send, a delivery, a wake and a few
//! epochs and barrier merges — must not allocate at all, under `Serial`
//! and under `Threads(2)`.
//!
//! One `#[test]` only: the allocator counts every thread of the process,
//! so no other test may run beside it.

use parking_lot::Mutex;
use pvr_ampi::{Ampi, COMM_WORLD};
use pvr_privatize::Method;
use pvr_rts::{ClockMode, MachineBuilder, Parallelism, RankCtx, Topology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded to `System` unchanged; the counter is
// all this adds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARM_UP: usize = 50;
/// Round trips after which rank 0 reads the counter: the end of the
/// warm-up, then 100 and 1000 trips later.
const MARKS: [usize; 3] = [WARM_UP, WARM_UP + 100, WARM_UP + 100 + 1000];

/// Allocations over the 100 and over the 1000 round trips.
fn ping_pong(par: Parallelism) -> [u64; 2] {
    let marks = Arc::new(Mutex::new([0u64; 3]));
    let seen = marks.clone();
    let body = Arc::new(move |ctx: RankCtx| {
        let mpi = Ampi::init(ctx);
        let trips = MARKS[2];
        if mpi.rank() == 0 {
            let mut at = [0u64; 3];
            let mut next = 0;
            for k in 0..=trips {
                if k == MARKS[next] {
                    at[next] = ALLOCS.load(Relaxed);
                    next += 1;
                    if next == MARKS.len() {
                        break;
                    }
                }
                mpi.send_bytes(COMM_WORLD, 1, 3, bytes::Bytes::copy_from_slice(&[7u8; 32]));
                mpi.recv_bytes(COMM_WORLD, Some(1), Some(3));
            }
            *seen.lock() = at;
        } else {
            for _ in 0..trips {
                let (data, _) = mpi.recv_bytes(COMM_WORLD, Some(0), Some(3));
                mpi.send_bytes(COMM_WORLD, 0, 3, data);
            }
        }
    });
    MachineBuilder::new(pvr_apps::jacobi3d::binary())
        .method(Method::TlsGlobals)
        .clock(ClockMode::Virtual)
        .parallelism(par)
        .topology(Topology::non_smp(2))
        .vp_ratio(1)
        .build(body)
        .unwrap()
        .run()
        .unwrap();
    let at = *marks.lock();
    [at[1] - at[0], at[2] - at[1]]
}

#[test]
fn steady_state_ping_pong_allocates_nothing() {
    for par in [Parallelism::Serial, Parallelism::Threads(2)] {
        let [hundred, thousand] = ping_pong(par);
        assert_eq!(
            (hundred, thousand),
            (0, 0),
            "{par:?}: allocations over 100 and over 1000 round trips"
        );
    }
}
