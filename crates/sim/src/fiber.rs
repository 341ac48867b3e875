//! The fiber rendezvous: application threads that suspend at every
//! operation whose reply they read, and that run the event loop themselves.
//!
//! Each simulated processor is an OS thread running ordinary Rust code. A DSM
//! operation is a [`FiberApi::post`] or a [`FiberApi::call`]. `post` appends
//! the request to a fiber-local batch and returns; `call` appends, hands the
//! whole batch over and blocks until the reply to the last request in it
//! comes back. The engine holds every live fiber's *pending requests* in
//! program order ([`FiberPool::peek_request`] is the next one), so it can
//! always pick the globally earliest action; between a fiber's operations only
//! its private data is touched, so host-parallel application code cannot
//! introduce nondeterminism. It must never block on anything except `call`.
//!
//! **Who runs the loop.** A pool is driven in one of two ways. Blocking: an
//! engine thread calls [`FiberPool::take_request`] and [`FiberPool::resume`],
//! and parks in `resume` while the fiber computes (the sharded engine's
//! workers, and the pool's own tests, drive it so). With the *baton*: the
//! pool's creator wraps the loop and the pool in an [`Engine`] and calls
//! [`Engine::drive`], and from then on whichever thread holds the baton runs
//! the loop. A fiber's `call` (and a `post` that fills the batch) puts its
//! batch in its own slot and runs [`Engine::run`] itself; when the loop
//! answers that fiber's own request the call returns without a thread switch,
//! and otherwise the fiber hands the reply to the fiber the loop must resume
//! and parks. The caller of `drive` runs the loop first and then parks until
//! the run is over. First requests still go through the cells: `spawn`
//! returns once every fiber has handed one over, before any engine exists.
//!
//! Every reply travels through one mutex-guarded *exchange cell* per fiber,
//! handed over with `thread::park`/`unpark`. Its five states:
//! * `Idle` — the fiber is computing, or it is owed a reply;
//! * `Request(batch)` — stored by `call` on the blocking path: the posted
//!   requests, then the called one; the engine takes the buffer as its queue;
//! * `Reply(resp, buffer)` — stored by whoever answered the batch's last
//!   request (the engine thread in `resume`, or the fiber holding the baton),
//!   with the same buffer, now empty; `call` takes both (`Idle`), so a
//!   steady-state exchange allocates nothing on either side;
//! * `Finished(tail)` — stored when the fiber's `FiberApi` drops on the
//!   blocking path, so a return and an unwind look the same. `tail` is what
//!   was posted and never exchanged: the engine queues it, and joins the
//!   thread (re-raising a panic) in the answer to its last request;
//! * `Closed` — the pool was dropped with the fiber live; never overwritten.
//!   `call` on it, now or later, unwinds with a private payload that skips
//!   the panic hook, and the pool's `Drop` joins the thread.
//!
//! Three rules. *The waiter is registered at wait time*: the engine thread
//! stores `thread::current()` in the cell each time it is about to park,
//! never at spawn, because the sharded engine spawns a pool on one thread and
//! drives it from another; a baton holder wakes the fiber it answers, or the
//! caller of `drive`, only *after* releasing the engine's lock. *Both sides
//! re-check the cell in a loop around `park`*, and a fiber parked for a
//! handed-off reply waits in the very loop `call` waits in, so a stale unpark
//! token or a spurious wake-up costs one turn and no more. *A posted operation
//! is one whose reply the fiber does not read*: the fiber runs on past it in
//! host time, through simulated barriers and lock acquires too, so
//! application code may communicate through the simulated operations and
//! nothing else.
//!
//! Panics leave on the caller of `drive`. A panic inside the loop is caught
//! around it on the holder's thread and handed to the caller, whose `drive`
//! returns it; the holder then parks until the pool drops and unwinds like
//! any abandoned fiber. A body's own panic never runs the loop: its
//! `FiberApi` hands the tail to the caller, which runs the loop from there,
//! and the panic is re-raised at the answer to the tail's last request.

use std::any::Any;
use std::fmt;
use std::mem;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
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

/// Every update stores a whole value, so a poisoned lock guards a valid one.
fn lock<T>(shared: &Mutex<T>) -> MutexGuard<'_, T> {
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

/// Where an installed engine's event loop stopped.
#[derive(Debug)]
pub enum Stop<Resp> {
    /// It answered the last request fiber `p` handed over, and `p` is parked
    /// for this reply: what [`FiberPool::reply`] returned.
    Resume(u32, Resp),
    /// No event is left to run.
    Idle,
}

/// An event loop that a pool's fibers run themselves, holding the baton in
/// turn (see the module docs).
pub trait Engine<Req: 'static, Resp: 'static>: Any + Send {
    /// The pool whose fibers this engine serves.
    fn pool(&mut self) -> &mut FiberPool<Req, Resp>;

    /// Runs events until one answers a parked fiber or none is left.
    fn run(&mut self) -> Stop<Resp>;

    /// Installs this engine in its pool and runs it to the end: this thread
    /// runs the loop first and then parks while the fibers pass the baton
    /// among themselves, until the loop is idle or raises a panic. Returns
    /// the engine either way, with the panic's payload as `Err` (the fibers
    /// are left parked: dropping the pool unwinds them).
    fn drive(mut self) -> (Self, thread::Result<()>)
    where
        Self: Sized,
    {
        let shared = Arc::clone(&self.pool().baton);
        let mut baton = lock(&shared);
        baton.engine = Some(Box::new(self));
        baton.caller = Some(thread::current());
        // This thread holds the baton first, and again whenever a body unwinds.
        let mut unwound: Option<(u32, Vec<Req>)> = None;
        loop {
            hold(baton, None, |pool| {
                if let Some((p, tail)) = unwound.take() {
                    pool.end(p, tail);
                }
            });
            baton = lock(&shared);
            let turn = loop {
                match baton.turn.take() {
                    Some(turn) => break turn,
                    None => {
                        drop(baton);
                        thread::park();
                        baton = lock(&shared);
                    }
                }
            };
            match turn {
                Turn::Unwound(p, tail) => unwound = Some((p, tail)),
                Turn::Over(over) => {
                    baton.caller = None;
                    let engine: Box<dyn Any> = baton.engine.take().expect("the installed engine");
                    drop(baton);
                    return (*engine.downcast::<Self>().expect("the installed engine"), over);
                }
            }
        }
    }
}

/// Why the caller of [`Engine::drive`] is woken.
enum Turn<Req> {
    /// Fiber `p`'s body unwound with `tail` posted: the caller runs the loop
    /// from there.
    Unwound(u32, Vec<Req>),
    /// The loop went idle (`Ok`) or raised a panic.
    Over(thread::Result<()>),
}

/// The engine a pool's fibers share while [`Engine::drive`] runs it.
struct Baton<Req, Resp> {
    /// Locked by whoever runs the loop; `None` outside `drive`, when the pool
    /// is driven through the blocking API.
    engine: Option<Box<dyn Engine<Req, Resp>>>,
    /// The thread in `drive`, parked while `turn` is `None`.
    caller: Option<Thread>,
    turn: Option<Turn<Req>>,
}

impl<Req, Resp> Baton<Req, Resp> {
    /// Leaves `turn` for the caller of [`Engine::drive`]; returns its thread,
    /// to wake once the lock is released, unless that is this one.
    fn leave_for_caller(&mut self, turn: Turn<Req>) -> Option<Thread> {
        self.turn = Some(turn);
        let caller = self.caller.clone().expect("a driving caller");
        Some(caller).filter(|c| c.id() != thread::current().id())
    }
}

impl<Req, Resp> fmt::Debug for Baton<Req, Resp> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Baton").field("installed", &self.engine.is_some()).finish_non_exhaustive()
    }
}

type SharedBaton<Req, Resp> = Arc<Mutex<Baton<Req, Resp>>>;

/// Runs the installed engine on this thread — `start` first, then the loop,
/// with a panic in either caught — and passes the baton on. Returns the reply
/// and the batch buffer when the loop answered `me`; otherwise the reply goes
/// to the fiber the loop answered, or the end of the run to the caller of
/// [`Engine::drive`], and that thread is woken once the engine is released.
fn hold<Req: 'static, Resp: 'static>(
    mut baton: MutexGuard<'_, Baton<Req, Resp>>,
    me: Option<u32>,
    start: impl FnOnce(&mut FiberPool<Req, Resp>),
) -> Option<(Resp, Vec<Req>)> {
    let engine = baton.engine.as_mut().expect("an installed engine");
    let stopped = catch_unwind(AssertUnwindSafe(|| {
        start(engine.pool());
        engine.run()
    }));
    let next = match stopped {
        Ok(Stop::Resume(p, resp)) => {
            let pool = engine.pool();
            if me == Some(p) {
                return Some((resp, pool.settle(p)));
            }
            Some(pool.deliver(p, resp))
        }
        over => baton.leave_for_caller(Turn::Over(over.map(|_| ()))),
    };
    drop(baton);
    if let Some(thread) = next {
        thread.unpark();
    }
    None
}

/// Handle given to application code for issuing simulated operations.
#[derive(Debug)]
pub struct FiberApi<Req: 'static, Resp: 'static> {
    shared: Shared<Req, Resp>,
    baton: SharedBaton<Req, Resp>,
    /// This fiber's index in its pool.
    id: u32,
    /// Posted and not yet exchanged, in program order.
    batch: Vec<Req>,
}

impl<Req: 'static, Resp: 'static> FiberApi<Req, Resp> {
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

    /// Hands the batch over — to the installed engine, which this thread then
    /// runs, or to the engine thread — and parks for the reply to its last
    /// request unless the loop answered it here.
    fn exchange(&mut self) -> Resp {
        let batch = mem::take(&mut self.batch);
        let baton = lock(&self.baton);
        // After a hand-off, or at the end of the run (the pool drops next,
        // which closes the cell), this fiber parks like any other.
        let mut closed = if baton.engine.is_some() && baton.turn.is_none() {
            let me = self.id;
            if let Some((resp, buffer)) = hold(baton, Some(me), |pool| pool.hand_in(me, batch)) {
                self.batch = buffer;
                return resp;
            }
            false
        } else {
            drop(baton);
            !hand_over(&self.shared, Cell::Request(batch))
        };
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

/// The fiber body owns its `FiberApi`, so this runs when it returns or
/// unwinds. While an engine is installed a return runs the loop with the tail
/// queued (and the thread exits at the next hand-off), and an unwind hands the
/// tail to the caller of [`Engine::drive`].
impl<Req: 'static, Resp: 'static> Drop for FiberApi<Req, Resp> {
    fn drop(&mut self) {
        let tail = mem::take(&mut self.batch);
        let mut baton = lock(&self.baton);
        if baton.engine.is_none() || baton.turn.is_some() {
            drop(baton);
            hand_over(&self.shared, Cell::Finished(tail));
            return;
        }
        let me = self.id;
        if thread::panicking() {
            let caller = baton.leave_for_caller(Turn::Unwound(me, tail));
            drop(baton);
            if let Some(caller) = caller {
                caller.unpark();
            }
        } else {
            hold(baton, None, |pool| pool.end(me, tail));
        }
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
    /// Whether a request was taken and its answer is still to come.
    owed: bool,
    /// Whether the body has returned or unwound: `pending` is its tail.
    ended: bool,
    /// Whether the fiber is live: false once its tail has been answered, and
    /// for a placeholder.
    live: bool,
    /// The fiber's thread, until it is joined: when its tail is answered on
    /// another thread, else by the pool's `Drop`.
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
    /// The engine its fibers run while [`Engine::drive`] has one installed.
    baton: SharedBaton<Req, Resp>,
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
        let baton = Arc::new(Mutex::new(Baton { engine: None, caller: None, turn: None }));
        let mut pool = FiberPool { slots: Vec::with_capacity(bodies.len()), baton };
        for (p, body) in bodies.into_iter().enumerate() {
            let shared = Arc::new(Mutex::new(Exchange { cell: Cell::Idle, waiter: None }));
            let handle = body.map(|body| {
                let api = FiberApi {
                    shared: Arc::clone(&shared),
                    baton: Arc::clone(&pool.baton),
                    id: p as u32,
                    batch: Vec::new(),
                };
                thread::Builder::new()
                    .name(format!("fiber-{p}"))
                    .spawn(move || body(api))
                    .expect("failed to spawn fiber thread")
            });
            let live = handle.is_some();
            let slot =
                Slot { shared, pending: Vec::new(), owed: false, ended: !live, live, handle };
            pool.slots.push(slot);
        }
        for p in 0..pool.slots.len() as u32 {
            pool.wait(p);
        }
        pool
    }
}

impl<Req, Resp> FiberPool<Req, Resp> {
    /// Parks until live fiber `p` has a request pending, or has finished with
    /// none left and been joined.
    fn wait(&mut self, p: u32) {
        loop {
            let slot = &self.slots[p as usize];
            if !slot.live || slot.ended || !slot.pending.is_empty() {
                return;
            }
            let mut ex = lock(&slot.shared);
            match mem::replace(&mut ex.cell, Cell::Idle) {
                Cell::Request(batch) => {
                    drop(ex);
                    self.hand_in(p, batch);
                }
                Cell::Finished(tail) => {
                    drop(ex);
                    self.end(p, tail);
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

    /// Queues the batch fiber `p` handed over.
    fn hand_in(&mut self, p: u32, mut batch: Vec<Req>) {
        batch.reverse();
        self.slots[p as usize].pending = batch;
    }

    /// Queues the tail fiber `p` left when its body ended; the fiber stays
    /// live until that has been answered.
    fn end(&mut self, p: u32, tail: Vec<Req>) {
        self.hand_in(p, tail);
        let slot = &mut self.slots[p as usize];
        slot.ended = true;
        if slot.pending.is_empty() {
            self.finish(p);
        }
    }

    /// Marks fiber `p` finished and joins its thread, re-raising its panic —
    /// unless that is this thread, answering its own tail: the pool joins it.
    fn finish(&mut self, p: u32) {
        let slot = &mut self.slots[p as usize];
        slot.live = false;
        let here = thread::current().id();
        if slot.handle.as_ref().is_some_and(|h| h.thread().id() != here) {
            if let Some(Err(panic)) = slot.handle.take().map(JoinHandle::join) {
                resume_unwind(panic);
            }
        }
    }

    /// Clears what fiber `p` is owed and takes back its batch buffer, empty.
    fn settle(&mut self, p: u32) -> Vec<Req> {
        let slot = &mut self.slots[p as usize];
        slot.owed = false;
        mem::take(&mut slot.pending)
    }

    /// Stores `resp` in parked fiber `p`'s cell; returns the thread to wake.
    fn deliver(&mut self, p: u32, resp: Resp) -> Thread {
        let buffer = self.settle(p);
        let slot = &self.slots[p as usize];
        lock(&slot.shared).cell = Cell::Reply(resp, buffer);
        slot.handle.as_ref().expect("a live fiber").thread().clone()
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
        self.slots.iter().filter(|s| s.live).count()
    }

    /// Whether fiber `p` has finished.
    pub fn is_finished(&self, p: u32) -> bool {
        !self.slots[p as usize].live
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

    /// Answers fiber `p`'s taken request without blocking (panics if there is
    /// none). Returns `resp`, the request still owed, when it was the last
    /// one `p` handed over and `p` is parked for it: [`FiberPool::resume`]
    /// delivers it, an [`Engine`] returns it as [`Stop::Resume`]. Otherwise
    /// `resp` is dropped — the reply to a posted request, or to the last of a
    /// finished fiber's tail, whose thread is then joined (re-raising its
    /// panic) unless it is this one.
    pub fn reply(&mut self, p: u32, resp: Resp) -> Option<Resp> {
        let slot = &mut self.slots[p as usize];
        assert!(slot.live && slot.owed, "fiber {p} resumed without a taken request");
        if !slot.pending.is_empty() {
            slot.owed = false;
            return None;
        }
        if !slot.ended {
            return Some(resp);
        }
        slot.owed = false;
        self.finish(p);
        None
    }

    /// Replies to fiber `p`'s taken request (panics if there is none). If that was the
    /// last one pending, blocks until the fiber hands over its next request or finishes,
    /// and propagates the fiber's own panic; `resp` reaches the fiber only if it `call`ed.
    pub fn resume(&mut self, p: u32, resp: Resp) -> Resumed {
        if let Some(resp) = self.reply(p, resp) {
            self.deliver(p, resp).unpark();
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
            if let Some(fiber) = slot.handle.as_ref().filter(|_| slot.live) {
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

    /// What [`Echo`] panics at when asked.
    const ENGINE_PANIC: u64 = 666;

    /// An installed engine answering each request with `req + 1`, taking the
    /// fibers round-robin so that most answers are hand-offs.
    struct Echo {
        pool: FiberPool<u64, u64>,
        next: u32,
    }

    impl Engine<u64, u64> for Echo {
        fn pool(&mut self) -> &mut FiberPool<u64, u64> {
            &mut self.pool
        }

        fn run(&mut self) -> Stop<u64> {
            let n = self.pool.len() as u32;
            loop {
                let mut turns = (0..n).map(|i| (self.next + i) % n);
                let Some(p) = turns.find(|&p| self.pool.peek_request(p).is_some()) else {
                    return Stop::Idle;
                };
                self.next = (p + 1) % n;
                let req = self.pool.take_request(p).unwrap();
                assert_ne!(req, ENGINE_PANIC, "the engine's own panic");
                if let Some(resp) = self.pool.reply(p, req + 1) {
                    return Stop::Resume(p, resp);
                }
            }
        }
    }

    /// Drives `pool` with [`Echo`]; joins it after a clean run.
    fn drive_echo(pool: FiberPool<u64, u64>) -> thread::Result<()> {
        let (Echo { pool, .. }, ended) = Echo { pool, next: 0 }.drive();
        if ended.is_ok() {
            pool.join();
        }
        ended
    }

    #[test]
    fn fibers_run_an_installed_engine_to_the_end() {
        let answered = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&answered);
        let pool = FiberPool::<u64, u64>::spawn(4, move |pid, mut api| {
            for i in 0..50 {
                let x = u64::from(pid) * 1_000 + i;
                (0..i % 3).for_each(|j| api.post(j));
                assert_eq!(api.call(x), x + 1);
                count.fetch_add(1, SeqCst);
            }
            (0..5).for_each(|j| api.post(j)); // the tail
        });
        assert!(drive_echo(pool).is_ok());
        assert_eq!(answered.load(SeqCst), 200);
    }

    #[test]
    fn a_full_batch_runs_the_engine_too() {
        let pool = FiberPool::<u64, u64>::spawn(2, |_, mut api| {
            (0..3 * MAX_DEFERRED as u64).for_each(|i| api.post(i));
        });
        assert!(drive_echo(pool).is_ok());
    }

    #[test]
    fn an_engine_panic_on_a_fiber_leaves_through_drive() {
        let pool = FiberPool::<u64, u64>::spawn(3, |pid, mut api| {
            for i in 0..10 {
                api.call(i);
            }
            if pid == 2 {
                api.post(ENGINE_PANIC);
                api.call(1);
            }
            api.call(2);
        });
        let raised = drive_echo(pool).unwrap_err();
        let msg = raised.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.contains("the engine's own panic"), "{msg}");
    }

    #[test]
    fn a_body_panic_is_raised_at_the_answer_to_its_tail() {
        for tail in [0, 2] {
            let pool = FiberPool::<u64, u64>::spawn(3, move |pid, mut api| {
                api.call(0);
                if pid == 1 {
                    (0..tail).for_each(|i| api.post(i));
                    panic!("the body's own panic");
                }
                api.call(1);
            });
            let raised = drive_echo(pool).unwrap_err();
            assert_eq!(raised.downcast_ref::<&str>(), Some(&"the body's own panic"), "tail {tail}");
        }
    }
}
