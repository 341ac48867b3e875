//! A pool dropped with live fibers takes them with it: no thread outlives it
//! and none reports a panic — whether they park on the blocking path or for
//! a reply another fiber's engine run owes them. Alone in its test binary, so
//! that no other test's threads come and go while it counts, and the panic
//! hook is its own.
#![cfg(target_os = "linux")]

use shasta_sim::{Engine, FiberPool, Stop};
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
struct Halt;

/// The request [`Stingy`] takes and never answers.
const NEVER: u32 = 99;

/// An installed engine answering `req + 1` to everything but [`NEVER`].
struct Stingy(FiberPool<u32, u32>);

impl Engine<u32, u32> for Stingy {
    fn pool(&mut self) -> &mut FiberPool<u32, u32> {
        &mut self.0
    }

    fn run(&mut self) -> Stop<u32> {
        for p in 0..self.0.len() as u32 {
            while let Some(req) = self.0.take_request(p).filter(|&r| r != NEVER) {
                if let Some(resp) = self.0.reply(p, req + 1) {
                    return Stop::Resume(p, resp);
                }
            }
        }
        Stop::Idle
    }
}

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
            8 => panic::resume_unwind(Box::new(Halt)),
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

    assert!(spawned.err().is_some_and(|payload| payload.is::<Halt>()), "fiber 8 stops `spawn`");
    assert_eq!(*unwound.count.lock().unwrap(), 8, "every parked fiber unwound");
    assert_eq!(HOOK_RAN.load(SeqCst), 0, "an abandoned fiber is not a panic");
    // A joined thread's entry can outlive the join by the moment its task
    // takes to be reaped after it signalled its exit.
    let reaped_by = Instant::now() + Duration::from_secs(5);
    while tasks() != before && Instant::now() < reaped_by {
        std::thread::yield_now();
    }
    assert_eq!(tasks(), before, "a fiber thread outlived its pool");

    // Fiber 0 runs the engine for its second call: the engine takes it, owes
    // it for good and answers fiber 1, so fiber 0 parks for a reply that was
    // handed off. Fiber 1 returns and runs the loop to its end.
    let unwound = Arc::new(Unwound::default());
    let fibers = Arc::clone(&unwound);
    let pool = FiberPool::<u32, u32>::spawn(2, move |pid, mut api| {
        if pid == 0 {
            let _witness = Witness(Arc::clone(&fibers));
            assert_eq!(api.call(1), 2);
            api.call(NEVER);
        } else {
            assert_eq!(api.call(5), 6);
        }
    });
    let (Stingy(pool), ended) = Stingy(pool).drive();
    assert!(ended.is_ok(), "the loop went idle");
    assert_eq!((pool.live_count(), pool.is_finished(1)), (1, true));
    drop(pool);
    assert_eq!(*unwound.count.lock().unwrap(), 1, "the fiber owed a reply unwound");
    assert_eq!(HOOK_RAN.load(SeqCst), 0, "an abandoned fiber is not a panic");
    let reaped_by = Instant::now() + Duration::from_secs(5);
    while tasks() != before && Instant::now() < reaped_by {
        std::thread::yield_now();
    }
    assert_eq!(tasks(), before, "a fiber thread outlived its pool");
}
