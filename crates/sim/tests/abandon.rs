//! A pool dropped with live fibers takes them with it: no thread outlives it
//! and none reports a panic. Alone in its test binary, so that no other
//! test's threads come and go while it counts, and the panic hook is its own.
#![cfg(target_os = "linux")]

use shasta_sim::FiberPool;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn tasks() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

/// How many abandoned fibers have unwound so far.
#[derive(Default)]
struct Unwound {
    count: Mutex<usize>,
    changed: Condvar,
}

/// A local of a fiber that will be abandoned in `call`: its drop is the
/// evidence, for the fibers still computing, that the pool is being dropped.
struct Witness(Arc<Unwound>);

impl Drop for Witness {
    fn drop(&mut self) {
        *self.0.count.lock().unwrap() += 1;
        self.0.changed.notify_all();
    }
}

/// What fiber 8 leaves with. `resume_unwind` runs no hook, on the fiber's
/// thread or on the engine's, so the hook count below is the pool's alone.
struct Stop;

#[test]
fn dropping_a_pool_joins_its_fibers_and_runs_no_panic_hook() {
    static HOOK_RAN: AtomicUsize = AtomicUsize::new(0);
    panic::set_hook(Box::new(|_| {
        HOOK_RAN.fetch_add(1, SeqCst);
    }));
    let before = tasks();
    let unwound = Arc::new(Unwound::default());

    // Fibers 0..8 park in their first `call`. Fiber 8 unwinds before its
    // first request, which takes `spawn` (waiting on the fibers in order)
    // down with it: the pool is dropped while fibers 9..16 are still
    // computing — they wait to see all eight parked fibers unwind — and only
    // then reach their own first `call` (odd ones) or return (even ones).
    // Every one of the fifteen holds posted operations nobody will take.
    let fibers = Arc::clone(&unwound);
    let spawned = panic::catch_unwind(AssertUnwindSafe(|| {
        FiberPool::<u32, u32>::spawn(16, move |pid, mut api| match pid {
            0..=7 => {
                let _witness = Witness(Arc::clone(&fibers));
                api.post(pid);
                api.call(pid);
            }
            8 => panic::resume_unwind(Box::new(Stop)),
            _ => {
                let Unwound { count, changed } = &*fibers;
                (0..pid).for_each(|i| api.post(i));
                drop(changed.wait_while(count.lock().unwrap(), |n| *n < 8).unwrap());
                if pid % 2 == 1 {
                    api.call(pid);
                }
            }
        })
    }));

    assert!(spawned.err().is_some_and(|payload| payload.is::<Stop>()), "fiber 8 stops `spawn`");
    assert_eq!(*unwound.count.lock().unwrap(), 8, "every parked fiber unwound");
    assert_eq!(HOOK_RAN.load(SeqCst), 0, "an abandoned fiber is not a panic");
    // A joined thread's entry can outlive the join by the moment its task
    // takes to be reaped after it signalled its exit.
    let reaped_by = Instant::now() + Duration::from_secs(5);
    while tasks() != before && Instant::now() < reaped_by {
        std::thread::yield_now();
    }
    assert_eq!(tasks(), before, "a fiber thread outlived its pool");
}
