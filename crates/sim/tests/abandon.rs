//! A pool dropped with live fibers takes them with it: each suspended fiber
//! unwinds on its own stack and drops its locals, none runs the panic hook,
//! and a fiber that never started has its body dropped unrun. Alone in its
//! test binary, because the panic hook is its own.

use shasta_sim::{FiberBody, FiberPool};
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

/// Counts its own drop.
struct Witness(Rc<Cell<usize>>);

impl Drop for Witness {
    fn drop(&mut self) {
        self.0.set(self.0.get() + 1);
    }
}

fn counter() -> Rc<Cell<usize>> {
    Rc::default()
}

/// What fiber 8 leaves with. `resume_unwind` runs no hook, so the hook
/// count below is the pool's alone.
struct Halt;

#[test]
fn dropping_a_pool_unwinds_its_fibers_and_runs_no_panic_hook() {
    static HOOK_RAN: AtomicUsize = AtomicUsize::new(0);
    panic::set_hook(Box::new(|_| {
        HOOK_RAN.fetch_add(1, SeqCst);
    }));

    // Fibers 0..8 suspend in their first `call`, with a posted operation
    // nobody will take. Fiber 8 unwinds before its first request, which takes
    // `spawn` (running the fibers in order) down with it: 0..8 unwind, and
    // 9..16 never start. Every body captures a witness; a running one moves
    // it into a local.
    let (started, locals, captured) = (counter(), counter(), counter());
    let bodies = (0..16u32).map(|p| {
        let (started, locals) = (Rc::clone(&started), Rc::clone(&locals));
        let witness = Witness(Rc::clone(&captured));
        Box::new(move |mut api: shasta_sim::FiberApi<u32, u32>| {
            started.set(started.get() + 1);
            let _captured = witness;
            match p {
                0..=7 => {
                    let _local = Witness(locals);
                    api.post(p);
                    api.call(p);
                }
                _ => panic::resume_unwind(Box::new(Halt)),
            }
        }) as FiberBody<u32, u32>
    });
    let spawned = panic::catch_unwind(AssertUnwindSafe(|| FiberPool::spawn_each(bodies.collect())));

    assert!(spawned.err().is_some_and(|payload| payload.is::<Halt>()), "fiber 8 stops `spawn`");
    assert_eq!(started.get(), 9, "fibers 9..16 never ran");
    assert_eq!(locals.get(), 8, "every suspended fiber unwound");
    assert_eq!(captured.get(), 16, "the unstarted bodies were dropped");
    assert_eq!(HOOK_RAN.load(SeqCst), 0, "an abandoned fiber is not a panic");

    // A pool driven part-way: fiber 1 finishes, fiber 0 is owed the reply to
    // its second call when the pool drops. It catches the unwinding, and
    // its next `call` unwinds again without suspending.
    let locals = counter();
    let fiber_locals = Rc::clone(&locals);
    let mut pool = FiberPool::<u32, u32>::spawn(2, move |pid, mut api| {
        if pid == 1 {
            assert_eq!(api.call(5), 6);
            return;
        }
        let _local = Witness(Rc::clone(&fiber_locals));
        assert_eq!(api.call(1), 2);
        api.post(7);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| api.call(99)));
        assert!(caught.is_err(), "the dropped pool unwinds `call`");
        api.call(100);
        unreachable!("a call of a dropped pool returned");
    });
    for p in [0, 1] {
        let req = pool.take_request(p).unwrap();
        pool.resume(p, req + 1);
    }
    assert_eq!(pool.take_request(0), Some(7));
    pool.resume(0, 0);
    assert_eq!(pool.take_request(0), Some(99));
    assert_eq!((pool.live_count(), pool.is_finished(1)), (1, true));
    drop(pool);
    assert_eq!(locals.get(), 1, "the fiber owed a reply unwound");
    assert_eq!(HOOK_RAN.load(SeqCst), 0, "an abandoned fiber is not a panic");
}

/// A pool dropped with its fibers suspended gives their stacks back once
/// they unwind: the next pool on the thread runs to completion on them,
/// each fiber using a frame of its stack the first pool's fibers wrote.
#[test]
fn the_next_pool_runs_on_the_stacks_of_an_abandoned_one() {
    let run = |abandon: bool| {
        let answered = counter();
        let count = Rc::clone(&answered);
        let mut pool = FiberPool::<u32, u32>::spawn(16, move |p, mut api| {
            let mut frame = [0u8; 64 << 10];
            frame.fill(p as u8);
            std::hint::black_box(&mut frame);
            for i in 0..3 {
                assert_eq!(api.call(p + i), p + i + 1);
                count.set(count.get() + 1);
            }
            assert!(std::hint::black_box(&frame).iter().all(|&b| b == p as u8));
        });
        for p in 0..16 {
            let req = pool.take_request(p).unwrap();
            pool.resume(p, req + 1);
        }
        if abandon {
            // Every fiber is suspended in its second call.
            drop(pool);
            return answered.get();
        }
        while pool.live_count() > 0 {
            for p in 0..16 {
                if let Some(req) = pool.take_request(p) {
                    pool.resume(p, req + 1);
                }
            }
        }
        pool.join();
        answered.get()
    };
    assert_eq!(run(true), 16, "each fiber was answered once before the drop");
    assert_eq!(run(false), 48, "the next pool ran to completion");
}
