//! The fiber rendezvous: application threads that suspend at every
//! operation whose reply they read.
//!
//! Each simulated processor is an OS thread running ordinary Rust code. A DSM
//! operation is a [`FiberApi::post`] or a [`FiberApi::call`]. `post` appends
//! the request to a fiber-local batch and returns; `call` appends, hands the
//! whole batch to the engine thread and blocks until the engine replies to the
//! last request in it. The engine holds every live fiber's *pending requests*
//! in program order ([`FiberPool::peek_request`] is the next one), so it can
//! always pick the globally earliest action; between a fiber's operations only
//! its private data is touched, so host-parallel application code cannot
//! introduce nondeterminism. It must never block on anything except `call`.
//!
//! Engine and fiber meet in one mutex-guarded *exchange cell* per fiber,
//! handed over with `thread::park`/`unpark`. Its five states:
//! * `Idle` — the fiber is computing, or the engine owes it a reply;
//! * `Request(batch)` — stored by `call`: the posted requests, then the
//!   called one; the engine takes the buffer as its queue (`Idle`);
//! * `Reply(resp, buffer)` — stored by the `resume` that answers the batch's
//!   last request, with the same buffer, now empty; `call` takes both (`Idle`),
//!   so a steady-state exchange allocates nothing on either side;
//! * `Finished(tail)` — stored when the fiber's `FiberApi` drops, so a return
//!   and an unwind look the same. `tail` is what was posted and never
//!   exchanged: the engine queues it, and joins the thread (re-raising a
//!   panic) in the `resume` of its last request;
//! * `Closed` — the pool was dropped with the fiber live; never overwritten.
//!   `call` on it, now or later, unwinds with a private payload that skips
//!   the panic hook, and the pool's `Drop` joins the thread.
//!
//! Three rules. *The waiter is registered at wait time*: the engine stores
//! `thread::current()` in the cell each time it is about to park, never at
//! spawn, because the sharded engine spawns a pool on one thread and drives
//! it from another. *Both sides re-check the cell in a loop around `park`*, so
//! a stale unpark token or a spurious wake-up costs one turn and no more.
//! *A posted operation is one whose reply the fiber does not read*: the fiber
//! runs on past it in host time, through simulated barriers and lock acquires
//! too, so application code may communicate through the simulated operations
//! and nothing else.

use std::mem;
use std::panic::resume_unwind;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle, Thread};

/// A boxed fiber body, used by [`FiberPool::spawn_each`].
pub type FiberBody<Req, Resp> = Box<dyn FnOnce(FiberApi<Req, Resp>) + Send>;

/// Posted operations a fiber may hold before `post` exchanges them itself, so
/// that a phase of nothing but posts buffers a bounded amount.
const MAX_DEFERRED: usize = 64;

#[derive(Debug)]
enum Cell<Req, Resp> {
    Idle,
    Request(Vec<Req>),
    Reply(Resp, Vec<Req>),
    Finished(Vec<Req>),
    Closed,
}

#[derive(Debug)]
struct Exchange<Req, Resp> {
    cell: Cell<Req, Resp>,
    /// The engine thread that is (about to be) parked on this cell.
    waiter: Option<Thread>,
}

type Shared<Req, Resp> = Arc<Mutex<Exchange<Req, Resp>>>;

/// Every update stores a whole [`Cell`], so a poisoned lock guards a valid one.
fn lock<Req, Resp>(shared: &Mutex<Exchange<Req, Resp>>) -> MutexGuard<'_, Exchange<Req, Resp>> {
    shared.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Fiber side: stores `next` and wakes the engine if it is waiting. A closed
/// cell stays closed; returns whether `next` was stored.
fn hand_over<Req, Resp>(shared: &Mutex<Exchange<Req, Resp>>, next: Cell<Req, Resp>) -> bool {
    let mut ex = lock(shared);
    if matches!(ex.cell, Cell::Closed) {
        return false;
    }
    ex.cell = next;
    let waiter = ex.waiter.take();
    drop(ex);
    if let Some(engine) = waiter {
        engine.unpark();
    }
    true
}

/// What a fiber of a dropped pool unwinds with.
struct Abandoned;

/// Handle given to application code for issuing simulated operations.
#[derive(Debug)]
pub struct FiberApi<Req, Resp> {
    shared: Shared<Req, Resp>,
    /// Posted and not yet exchanged, in program order.
    batch: Vec<Req>,
}

impl<Req, Resp> FiberApi<Req, Resp> {
    /// Submits `req` without waiting: the engine sees it, in program order,
    /// at this fiber's next [`FiberApi::call`] or when its body ends,
    /// whichever is first, and the reply is discarded.
    pub fn post(&mut self, req: Req) {
        self.batch.push(req);
        if self.batch.len() >= MAX_DEFERRED {
            self.exchange();
        }
    }

    /// Submits `req`, after everything posted before it, and blocks until the
    /// engine replies to it. If the pool is dropped first, unwinds the fiber
    /// without running the panic hook — again each time it is reached, should
    /// the caller catch that.
    pub fn call(&mut self, req: Req) -> Resp {
        self.batch.push(req);
        self.exchange()
    }

    /// Hands the batch over and parks for the reply to its last request.
    fn exchange(&mut self) -> Resp {
        let mut closed = !hand_over(&self.shared, Cell::Request(mem::take(&mut self.batch)));
        while !closed {
            thread::park();
            let mut ex = lock(&self.shared);
            match mem::replace(&mut ex.cell, Cell::Idle) {
                Cell::Reply(resp, buffer) => {
                    self.batch = buffer;
                    return resp;
                }
                other => {
                    closed = matches!(other, Cell::Closed);
                    ex.cell = other;
                }
            }
        }
        resume_unwind(Box::new(Abandoned))
    }
}

/// The fiber body owns its `FiberApi`, so this runs when it returns or unwinds.
impl<Req, Resp> Drop for FiberApi<Req, Resp> {
    fn drop(&mut self) {
        hand_over(&self.shared, Cell::Finished(mem::take(&mut self.batch)));
    }
}

/// Result of resuming a fiber with a response.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Resumed {
    /// The fiber issued another request (now pending in the pool).
    HasRequest,
    /// The fiber's closure returned; the processor is done.
    Finished,
}

#[derive(Debug)]
struct Slot<Req, Resp> {
    shared: Shared<Req, Resp>,
    /// Requests handed over and not yet taken, the next one last: the
    /// fiber's own batch buffer reversed, and handed back once it is empty.
    pending: Vec<Req>,
    /// Whether a request was taken and its `resume` is still to come.
    owed: bool,
    /// The live fiber's thread: `None` once joined, and for a placeholder.
    handle: Option<JoinHandle<()>>,
}

/// A pool of suspended application fibers, one per simulated processor.
///
/// Every live fiber has its next request pending here or is owed a reply, so
/// the engine blocks only inside [`FiberPool::resume`], for a finite amount of
/// application compute. Dropping the pool closes every live fiber's cell and
/// joins its thread: a fiber parked in `call` unwinds at once, one that is
/// computing at its next exchange (or it returns first).
#[derive(Debug)]
pub struct FiberPool<Req, Resp> {
    slots: Vec<Slot<Req, Resp>>,
}

impl<Req: Send + 'static, Resp: Send + 'static> FiberPool<Req, Resp> {
    /// Spawns `n` fibers all running `f(proc_id, api)`; see [`FiberPool::spawn_selected`].
    pub fn spawn<F: Fn(u32, FiberApi<Req, Resp>) + Send + Sync + 'static>(n: u32, f: F) -> Self {
        let f = Arc::new(f);
        let body = |p| {
            let f = Arc::clone(&f);
            Box::new(move |api: FiberApi<Req, Resp>| f(p, api)) as FiberBody<Req, Resp>
        };
        Self::spawn_each((0..n).map(body).collect())
    }

    /// Spawns one fiber per closure; see [`FiberPool::spawn_selected`].
    pub fn spawn_each(bodies: Vec<FiberBody<Req, Resp>>) -> Self {
        Self::spawn_selected(bodies.into_iter().map(Some).collect())
    }

    /// Spawns a fiber per `Some` body; a `None` slot is a permanently
    /// finished placeholder with no thread, which keeps processor ids global
    /// when a caller drives a subset of them (the sharded engine spawns each
    /// physical node's fibers in its own pool). Blocks until every spawned
    /// fiber has either handed over its first request or finished.
    pub fn spawn_selected(bodies: Vec<Option<FiberBody<Req, Resp>>>) -> Self {
        // The pool owns each thread as soon as it exists, so unwinding out of
        // here (a fiber panicked before its first request) joins the others.
        let mut pool = FiberPool { slots: Vec::with_capacity(bodies.len()) };
        for (p, body) in bodies.into_iter().enumerate() {
            let shared = Arc::new(Mutex::new(Exchange { cell: Cell::Idle, waiter: None }));
            let handle = body.map(|body| {
                let api = FiberApi { shared: Arc::clone(&shared), batch: Vec::new() };
                thread::Builder::new()
                    .name(format!("fiber-{p}"))
                    .spawn(move || body(api))
                    .expect("failed to spawn fiber thread")
            });
            pool.slots.push(Slot { shared, pending: Vec::new(), owed: false, handle });
        }
        for p in 0..pool.slots.len() as u32 {
            pool.wait(p);
        }
        pool
    }

    /// Parks until live fiber `p` has a request pending, or has finished with
    /// none left and been joined.
    fn wait(&mut self, p: u32) {
        let slot = &mut self.slots[p as usize];
        while slot.handle.is_some() && slot.pending.is_empty() {
            let mut ex = lock(&slot.shared);
            match mem::replace(&mut ex.cell, Cell::Idle) {
                Cell::Request(mut batch) => {
                    batch.reverse();
                    slot.pending = batch;
                }
                // The fiber stays live until its tail has been answered.
                Cell::Finished(mut tail) if !tail.is_empty() => {
                    tail.reverse();
                    slot.pending = tail;
                    ex.cell = Cell::Finished(Vec::new());
                }
                Cell::Finished(_) => {
                    drop(ex);
                    if let Some(Err(panic)) = slot.handle.take().map(JoinHandle::join) {
                        resume_unwind(panic);
                    }
                }
                other => {
                    ex.cell = other;
                    ex.waiter = Some(thread::current());
                    drop(ex);
                    thread::park();
                }
            }
        }
    }

    /// Number of fibers in the pool (live or finished).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the pool has no fibers at all.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of fibers that have not yet finished.
    pub fn live_count(&self) -> usize {
        self.slots.iter().filter(|s| s.handle.is_some()).count()
    }

    /// Whether fiber `p` has finished.
    pub fn is_finished(&self, p: u32) -> bool {
        self.slots[p as usize].handle.is_none()
    }

    /// Fiber `p`'s next pending request, if it has one.
    pub fn peek_request(&self, p: u32) -> Option<&Req> {
        self.slots[p as usize].pending.last()
    }

    /// Takes fiber `p`'s next pending request, if it has one; the engine then owes it a reply.
    pub fn take_request(&mut self, p: u32) -> Option<Req> {
        let slot = &mut self.slots[p as usize];
        let req = slot.pending.pop();
        slot.owed |= req.is_some();
        req
    }

    /// Replies to fiber `p`'s taken request (panics if there is none). If that was the
    /// last one pending, blocks until the fiber hands over its next request or finishes,
    /// and propagates the fiber's own panic; `resp` reaches the fiber only if it `call`ed.
    pub fn resume(&mut self, p: u32, resp: Resp) -> Resumed {
        let slot = &mut self.slots[p as usize];
        let owed = mem::take(&mut slot.owed);
        let fiber = slot.handle.as_ref().filter(|_| owed);
        let fiber = fiber.unwrap_or_else(|| panic!("fiber {p} resumed without a taken request"));
        if slot.pending.is_empty() {
            let mut ex = lock(&slot.shared);
            // A fiber whose tail this answers has finished: `wait` joins it.
            if !matches!(ex.cell, Cell::Finished(_)) {
                ex.cell = Cell::Reply(resp, mem::take(&mut slot.pending));
            }
            drop(ex);
            fiber.thread().unpark();
            self.wait(p);
        }
        if self.is_finished(p) {
            Resumed::Finished
        } else {
            Resumed::HasRequest
        }
    }

    /// Consumes a drained pool, its threads all joined; panics if some fiber is still live.
    pub fn join(self) {
        for p in 0..self.slots.len() as u32 {
            assert!(self.is_finished(p), "join() called while fiber {p} is still live");
        }
    }
}

impl<Req, Resp> Drop for FiberPool<Req, Resp> {
    fn drop(&mut self) {
        // Close every live cell first, so the fibers unwind side by side.
        for slot in &self.slots {
            if let Some(fiber) = &slot.handle {
                lock(&slot.shared).cell = Cell::Closed;
                fiber.thread().unpark();
            }
        }
        for slot in &mut self.slots {
            // An `Err` is `Abandoned`, or a panic of the fiber's own that its
            // thread already put through the hook; `Drop` must not panic.
            let _ = slot.handle.take().map(JoinHandle::join);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};

    /// Engine that services all fibers round-robin until done, each `resume`
    /// with a stale unpark token pending: its first `park` returns at once.
    fn drain(mut pool: FiberPool<u64, u64>, f: impl Fn(u64) -> u64) {
        while pool.live_count() > 0 {
            for p in 0..pool.len() as u32 {
                if let Some(req) = pool.take_request(p) {
                    thread::current().unpark();
                    pool.resume(p, f(req));
                }
            }
        }
        pool.join();
    }

    #[test]
    fn echo_engine_round_trips() {
        let pool = FiberPool::<u64, u64>::spawn(4, |pid, mut api| {
            for i in 0..10u64 {
                assert_eq!(api.call(pid as u64 * 100 + i), (pid as u64 * 100 + i) + 1);
            }
        });
        drain(pool, |x| x + 1);
    }

    #[test]
    fn fibers_may_finish_without_calling() {
        let pool = FiberPool::<u64, u64>::spawn(3, |pid, mut api| {
            if pid != 1 {
                api.call(0); // fiber 1 finishes immediately
            }
        });
        assert!(pool.is_finished(1));
        assert_eq!(pool.live_count(), 2);
        drain(pool, |x| x);
    }

    #[test]
    fn deferred_reply_models_a_stall() {
        // Fiber 0 issues a request whose reply is withheld until fiber 1 has
        // advanced — the shape of a remote miss serviced by another proc.
        let mut pool = FiberPool::<u64, u64>::spawn(2, |pid, mut api| {
            if pid == 0 {
                assert_eq!(api.call(7), 99);
            } else {
                assert_eq!(api.call(1), 2);
            }
        });
        assert_eq!(pool.take_request(0), Some(7));
        let r1 = pool.take_request(1).unwrap(); // service fiber 1 first
        assert_eq!(pool.resume(1, r1 + 1), Resumed::Finished);
        assert_eq!(pool.resume(0, 99), Resumed::Finished); // now release fiber 0
        pool.join();
    }

    #[test]
    fn spawn_each_with_distinct_state() {
        let bodies = (0..3u64).map(|seed| -> FiberBody<u64, u64> {
            Box::new(move |mut api: FiberApi<u64, u64>| assert_eq!(api.call(seed), seed * 2))
        });
        let mut pool = FiberPool::spawn_each(bodies.collect());
        for p in 0..3 {
            let req = pool.take_request(p).unwrap();
            pool.resume(p, req * 2);
        }
        pool.join();
    }

    #[test]
    fn spawn_selected_placeholders_stay_finished() {
        let odd = |p: u64| -> FiberBody<u64, u64> {
            Box::new(move |mut api: FiberApi<u64, u64>| assert_eq!(api.call(p), p + 1))
        };
        let bodies = (0..4u64).map(|p| (p % 2 == 1).then(|| odd(p)));
        let mut pool = FiberPool::spawn_selected(bodies.collect());
        assert_eq!(pool.len(), 4);
        assert_eq!(pool.live_count(), 2);
        assert!(pool.is_finished(0) && pool.is_finished(2));
        assert_eq!(pool.peek_request(0), None);
        assert_eq!(pool.take_request(2), None);
        for p in [1u32, 3] {
            let req = pool.take_request(p).unwrap();
            assert_eq!(pool.resume(p, req + 1), Resumed::Finished);
        }
        pool.join();
    }

    #[test]
    fn peek_does_not_consume() {
        let mut pool = FiberPool::<u64, u64>::spawn(1, |_, mut api| assert_eq!(api.call(5), 0));
        assert_eq!(pool.peek_request(0), Some(&5));
        assert_eq!(pool.peek_request(0), Some(&5));
        assert_eq!(pool.take_request(0), Some(5));
        assert_eq!(pool.peek_request(0), None);
        pool.resume(0, 0);
        pool.join();
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn fiber_panic_propagates_to_engine() {
        let mut pool = FiberPool::<u64, u64>::spawn(1, |_, mut api| {
            api.call(1);
            panic!("boom");
        });
        let req = pool.take_request(0).unwrap();
        pool.resume(0, req); // its wait joins the thread and re-raises
    }

    #[test]
    #[should_panic(expected = "still live")]
    fn join_rejects_live_fibers() {
        let pool = FiberPool::<u64, u64>::spawn(1, |_, mut api| {
            api.call(1);
        });
        pool.join();
    }

    #[test]
    fn drop_unblocks_live_fibers_without_hanging() {
        let pool = FiberPool::<u64, u64>::spawn(2, |_, mut api| {
            api.call(1);
            api.call(2); // never replied-to; drop must unblock us
        });
        drop(pool); // must not hang or abort
    }

    #[test]
    fn pool_spawned_here_is_driven_and_joined_on_another_thread() {
        // The sharded engine's shape: the waiter `spawn` registered is this thread.
        let pool = FiberPool::<u64, u64>::spawn(4, |pid, mut api| {
            for i in u64::from(pid)..50 {
                assert_eq!(api.call(i), i + 1);
            }
        });
        thread::spawn(move || drain(pool, |x| x + 1)).join().unwrap();
    }

    #[test]
    #[should_panic(expected = "early")]
    fn fiber_panic_before_its_first_request_leaves_spawn() {
        // The unwinding out of `spawn` closes and joins fiber 0, parked in `call`.
        FiberPool::<u64, u64>::spawn(2, |pid, mut api| {
            assert!(pid == 0, "early");
            api.call(0);
        });
    }

    /// Engine side of one operation: takes `want`, then answers it with `resp`.
    fn serve(pool: &mut FiberPool<u64, u64>, want: u64, resp: u64) -> Resumed {
        assert_eq!(pool.peek_request(0), Some(&want));
        assert_eq!(pool.take_request(0), Some(want));
        pool.resume(0, resp)
    }

    #[test]
    fn posts_arrive_in_program_order_ahead_of_the_call_that_carried_them() {
        let posted = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&posted);
        let mut pool = FiberPool::<u64, u64>::spawn(1, move |_, mut api| {
            (1..=3).for_each(|i| api.post(i));
            flag.store(true, SeqCst);
            assert_eq!(api.call(4), 40);
        });
        assert!(posted.load(SeqCst), "`post` returned to the fiber before any hand-over");
        // The fiber is parked for the reply to 4, so a `resume` that parked
        // for its next request instead would never return.
        for i in 1..=3 {
            assert_eq!(serve(&mut pool, i, 0), Resumed::HasRequest);
        }
        assert_eq!(serve(&mut pool, 4, 40), Resumed::Finished);
        pool.join();
    }

    #[test]
    fn a_body_that_posts_and_returns_is_live_until_its_tail_is_answered() {
        let mut pool = FiberPool::<u64, u64>::spawn(2, |pid, mut api| {
            if pid == 0 {
                assert_eq!(api.call(1), 10);
            }
            api.post(2);
            api.post(3);
        });
        assert_eq!(
            pool.take_request(1),
            Some(2),
            "a tail and nothing else, handed over by `spawn`"
        );
        assert_eq!(pool.resume(1, 0), Resumed::HasRequest);
        assert_eq!(serve(&mut pool, 1, 10), Resumed::HasRequest);
        assert_eq!(serve(&mut pool, 2, 0), Resumed::HasRequest);
        assert!(!pool.is_finished(0) && pool.live_count() == 2);
        assert_eq!(serve(&mut pool, 3, 0), Resumed::Finished);
        assert_eq!(pool.take_request(1), Some(3));
        assert_eq!(pool.resume(1, 0), Resumed::Finished);
        pool.join();
    }

    #[test]
    fn a_panic_after_posts_is_raised_by_the_resume_of_the_last_one() {
        let mut pool = FiberPool::<u64, u64>::spawn(1, |_, mut api| {
            api.post(1);
            api.post(2);
            panic!("after two posts");
        });
        assert_eq!(serve(&mut pool, 1, 0), Resumed::HasRequest);
        assert_eq!(pool.take_request(0), Some(2));
        let raised = catch_unwind(AssertUnwindSafe(|| pool.resume(0, 0))).unwrap_err();
        assert_eq!(raised.downcast_ref::<&str>(), Some(&"after two posts"));
        assert!(pool.is_finished(0));
    }

    #[test]
    fn the_deferred_bound_forces_an_exchange() {
        let bound = MAX_DEFERRED as u64;
        let past_it = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&past_it);
        let mut pool = FiberPool::<u64, u64>::spawn(1, move |_, mut api| {
            (1..=bound + 5).for_each(|i| api.post(i));
            flag.store(true, SeqCst);
        });
        // Parked in the post that filled the batch, until that one is answered.
        assert!(!past_it.load(SeqCst));
        for i in 1..bound {
            assert_eq!(serve(&mut pool, i, 0), Resumed::HasRequest);
            assert!(!past_it.load(SeqCst));
        }
        assert_eq!(serve(&mut pool, bound, 0), Resumed::HasRequest);
        assert!(past_it.load(SeqCst), "the other five came as the tail");
        for i in bound + 1..bound + 5 {
            assert_eq!(serve(&mut pool, i, 0), Resumed::HasRequest);
        }
        assert_eq!(serve(&mut pool, bound + 5, 0), Resumed::Finished);
        pool.join();
    }

    /// Needs no clock: the engine thread gives up the CPU about once per
    /// exchange, so posting shows as a count. An upper bound, so it holds
    /// whether or not fiber and engine share a CPU.
    #[cfg(target_os = "linux")]
    #[test]
    fn posted_operations_cost_the_engine_no_context_switch() {
        fn voluntary_switches() -> u64 {
            let status = std::fs::read_to_string("/proc/thread-self/status").expect("procfs");
            let line = status.lines().find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"));
            line.expect("a voluntary_ctxt_switches line").trim().parse().expect("a count")
        }
        let pool = FiberPool::<u64, u64>::spawn(1, |_, mut api| {
            for round in 0..200 {
                (0..9).for_each(|i| api.post(i));
                assert_eq!(api.call(round), round + 1);
            }
        });
        let before = voluntary_switches();
        drain(pool, |x| x + 1);
        let switches = voluntary_switches() - before;
        assert!(switches <= 450, "2 000 operations in 200 exchanges cost {switches} switches");
    }

    struct Counted(Arc<AtomicUsize>);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, SeqCst);
        }
    }

    #[test]
    fn every_request_and_reply_is_dropped_exactly_once() {
        let drops = Arc::new(AtomicUsize::new(0));
        let (fiber_drops, new) = (Arc::clone(&drops), || Counted(Arc::clone(&drops)));
        let mut pool = FiberPool::<Counted, Counted>::spawn(2, move |_, mut api| {
            drop(api.call(Counted(Arc::clone(&fiber_drops)))); // answered
            api.call(Counted(Arc::clone(&fiber_drops))); // never answered
        });
        for p in 0..2 {
            drop(pool.take_request(p));
            pool.resume(p, new());
        }
        assert_eq!(drops.load(SeqCst), 4, "two requests, two replies");
        // Fiber 0: request taken, and a reply it never collects left in its
        // cell. Fiber 1: request still pending in the pool.
        drop(pool.take_request(0));
        lock(&pool.slots[0].shared).cell = Cell::Reply(new(), Vec::new());
        drop(pool);
        assert_eq!(drops.load(SeqCst), 7, "a request, the closed cell's reply, a pending request");
    }
}
