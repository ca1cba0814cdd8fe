//! Portable fallback backend: each ULT is a parked OS thread.
//!
//! Functionally identical to the asm backend, but a "context switch" is a
//! park/unpark handshake through a mutex+condvar — microseconds instead of
//! nanoseconds. This is what MPI-ranks-as-pthreads would cost, and it is
//! the ablation baseline for the Fig. 6 context-switch benchmark (the
//! pthread row of `repro -- fig6`).

use crate::stack::StackMem;
use crate::RawOutcome;
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::cell::Cell;
use std::sync::Arc;

/// Whose turn it is to run, plus terminal states.
#[derive(Debug)]
enum Phase {
    /// Parent owns control; child is parked (or not yet started).
    Parent(Option<Outcome>),
    /// Child owns control and is running.
    Child,
    /// Parent asked the child to unwind and exit.
    Cancel,
}

#[derive(Debug)]
enum Outcome {
    Yielded,
    Finished,
    Panicked(Box<dyn Any + Send + 'static>),
}

struct Sync {
    phase: Mutex<Phase>,
    cv: Condvar,
}

struct CancelToken;

thread_local! {
    static CURRENT: Cell<*const Sync> = const { Cell::new(std::ptr::null()) };
}

pub(crate) fn in_thread_ult() -> bool {
    CURRENT.with(|c| !c.get().is_null())
}

pub(crate) fn yield_current() {
    let sync_ptr = CURRENT.with(|c| c.get());
    assert!(
        !sync_ptr.is_null(),
        "thread_backend::yield_current outside of ULT"
    );
    let sync = unsafe { &*sync_ptr };
    let mut phase = sync.phase.lock();
    *phase = Phase::Parent(Some(Outcome::Yielded));
    sync.cv.notify_all();
    loop {
        match &*phase {
            Phase::Child => return,
            Phase::Cancel => {
                drop(phase);
                // hook-silent unwind: teardown, not an error
                std::panic::resume_unwind(Box::new(CancelToken));
            }
            Phase::Parent(_) => sync.cv.wait(&mut phase),
        }
    }
}

pub(crate) struct ThreadUlt {
    sync: Arc<Sync>,
    handle: Option<std::thread::JoinHandle<()>>,
    finished: bool,
    stack_size: usize,
    /// Not used for execution (the OS manages the carrier thread's
    /// stack), but retained so stack-guard checks observe the same
    /// region the asm backend would run on.
    stack: StackMem,
}

impl ThreadUlt {
    pub(crate) fn new(stack: StackMem, closure: Box<dyn FnOnce() + Send + 'static>) -> ThreadUlt {
        let stack_size = stack.size();
        let sync = Arc::new(Sync {
            phase: Mutex::new(Phase::Parent(None)),
            cv: Condvar::new(),
        });
        let child_sync = sync.clone();
        // The OS thread gets a real stack of the requested size; the
        // StackMem itself is not used for execution in this backend (the
        // OS manages thread stacks), only its size is honored.
        let handle = std::thread::Builder::new()
            .stack_size(stack_size.max(64 * 1024))
            .name("pvr-ult".into())
            .spawn(move || {
                // Wait for first resume.
                {
                    let mut phase = child_sync.phase.lock();
                    loop {
                        match &*phase {
                            Phase::Child => break,
                            Phase::Cancel => return,
                            Phase::Parent(_) => child_sync.cv.wait(&mut phase),
                        }
                    }
                }
                CURRENT.with(|c| c.set(&*child_sync as *const Sync));
                let result =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(closure));
                CURRENT.with(|c| c.set(std::ptr::null()));
                let outcome = match result {
                    Ok(()) => Outcome::Finished,
                    Err(p) if p.is::<CancelToken>() => Outcome::Finished,
                    Err(p) => Outcome::Panicked(p),
                };
                let mut phase = child_sync.phase.lock();
                *phase = Phase::Parent(Some(outcome));
                child_sync.cv.notify_all();
            })
            .expect("failed to spawn ULT carrier thread");
        ThreadUlt {
            sync,
            handle: Some(handle),
            finished: false,
            stack_size,
            stack,
        }
    }

    pub(crate) fn resume(&mut self) -> RawOutcome {
        {
            let mut phase = self.sync.phase.lock();
            *phase = Phase::Child;
            self.sync.cv.notify_all();
            loop {
                match &mut *phase {
                    Phase::Parent(outcome @ Some(_)) => {
                        let outcome = outcome.take().unwrap();
                        match outcome {
                            Outcome::Yielded => return RawOutcome::Yielded,
                            Outcome::Finished => {
                                self.finished = true;
                                break;
                            }
                            Outcome::Panicked(p) => {
                                self.finished = true;
                                drop(phase);
                                self.join();
                                return RawOutcome::Panicked(p);
                            }
                        }
                    }
                    _ => self.sync.cv.wait(&mut phase),
                }
            }
        }
        self.join();
        RawOutcome::Finished
    }

    pub(crate) fn abandon(&mut self) {
        // Detach without the cancel handshake: unwinding would run
        // destructors that may chase pointers into corrupted rank memory.
        // The carrier thread stays parked until process exit.
        self.finished = true;
        drop(self.handle.take());
    }

    fn join(&mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }

    pub(crate) fn stack_size(&self) -> usize {
        self.stack_size
    }

    pub(crate) fn stack(&self) -> &StackMem {
        &self.stack
    }

    pub(crate) fn stack_mut(&mut self) -> &mut StackMem {
        &mut self.stack
    }
}

impl Drop for ThreadUlt {
    fn drop(&mut self) {
        if !self.finished {
            {
                let mut phase = self.sync.phase.lock();
                *phase = Phase::Cancel;
                self.sync.cv.notify_all();
            }
            self.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn drop_suspended_cancels_cleanly() {
        struct SetOnDrop(Arc<AtomicBool>);
        impl Drop for SetOnDrop {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let dropped = Arc::new(AtomicBool::new(false));
        let d = dropped.clone();
        let mut u = ThreadUlt::new(
            StackMem::new(64 * 1024),
            Box::new(move || {
                let _g = SetOnDrop(d);
                crate::yield_now();
                unreachable!();
            }),
        );
        assert!(matches!(u.resume(), RawOutcome::Yielded));
        drop(u);
        assert!(dropped.load(Ordering::SeqCst));
    }

    #[test]
    fn drop_unstarted_does_not_hang() {
        let u = ThreadUlt::new(StackMem::new(32 * 1024), Box::new(|| {}));
        drop(u);
    }
}
