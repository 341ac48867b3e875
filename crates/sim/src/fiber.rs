//! The fiber rendezvous: application bodies that suspend at every operation
//! whose reply they read, each on a stack of its own on the engine's thread.
//!
//! Each simulated processor runs ordinary Rust code on a 2 MiB stack with a
//! guard page (`stack.rs`). Stacks are recycled per thread: a fiber that ends
//! gives its stack back to a list of at most 64 that the thread's next
//! fibers take from, so a thread maps stacks only for its first machine of a
//! given size. A DSM operation is a [`FiberApi::post`] or a
//! [`FiberApi::call`]. `post` appends the request to a fiber-local batch and
//! returns; `call` appends and exchanges the whole batch for the reply to
//! its last request. The engine holds every live fiber's *pending requests*
//! in program order ([`FiberPool::peek_request`] is the next one), so it can
//! always pick the globally earliest action.
//!
//! An exchange costs two stack switches or none:
//! * [`FiberPool::resume`] is "store the reply, switch to the fiber's stack,
//!   return when it hands over its next batch or ends". No other thread is
//!   involved, so a hand-off between processors costs two stack switches
//!   and no system call.
//! * Under [`FiberPool::drive`], which runs a [`Driver`]'s event loop, a
//!   `call` first offers its batch to [`Driver::serve`] on the calling
//!   fiber's own stack (`drive.rs`), if the driver said at the resume that
//!   it may serve it ([`Driver::serves`]). A driver that already knows this
//!   fiber runs next (the engine's run-ahead) answers it there, and the
//!   answer costs no switch at all. A driver that declines leaves the rest
//!   of the batch, in program order, to go over with the switch as before.
//!
//! A fiber is in one of four states:
//! * *unstarted* — [`FiberPool::spawn_each`] runs the fibers to their
//!   first request in index order; should one of them panic before it, the
//!   ones after it are dropped with their bodies unrun;
//! * *suspended* in `call`, its batch pending in the pool, or owed the reply
//!   to its last request;
//! * *ended with a tail* — the body returned or unwound, and what it posted
//!   and never handed over is still pending; it stays live (and its stack is
//!   already given back) until that is answered;
//! * *finished*.
//!
//! Rules for bodies:
//! * They share the thread that drives the pool, and its thread-locals.
//! * A body that blocks on a host primitive (a lock, a channel, a condition
//!   variable) waiting for another body deadlocks the run: nothing else runs
//!   until it suspends. Bodies communicate through the simulated operations
//!   and nothing else.
//! * *A posted operation is one whose reply the fiber does not read*: the
//!   fiber runs on past it in host time, through simulated barriers and lock
//!   acquires too.
//!
//! Panics:
//! * A body's panic unwinds on its own stack to a `catch_unwind` at its
//!   base. Its `FiberApi` records the tail as it drops and never switches (a
//!   switch mid-unwind would leave the thread's panic count raised under the
//!   engine). The engine queues the tail and re-raises the payload at the
//!   answer to the tail's last request.
//! * An engine panic unwinds out of whatever drives the pool; dropping the
//!   pool resumes each suspended fiber with `Closed`, so it unwinds on its
//!   own stack with a private payload that skips the panic hook, and `call`
//!   unwinds the same way whenever it is reached again. A panic in
//!   [`Driver::serve`] is caught where it was raised, on the fiber's stack;
//!   the fiber unwinds the same way, and `drive` re-raises the payload once
//!   the fiber has switched back.

#[allow(unsafe_code)]
mod drive;
#[allow(unsafe_code)]
mod stack;

use std::any::Any;
use std::mem;
use std::panic::resume_unwind;
use std::rc::Rc;

pub use drive::Driver;
use stack::{Fiber, Switched, Yielder};

/// A boxed fiber body, used by [`FiberPool::spawn_each`].
pub type FiberBody<Req, Resp> = Box<dyn FnOnce(FiberApi<Req, Resp>)>;

/// Posted operations a fiber may hold before `post` exchanges them itself, so
/// that a phase of nothing but posts buffers a bounded amount.
const MAX_DEFERRED: usize = 64;

/// What the engine hands a suspended fiber, which hands back batches.
enum Answer<Req, Resp> {
    /// The reply to the last request of its batch, with the batch's buffer,
    /// now empty: a steady-state exchange allocates nothing.
    Reply(Resp, Vec<Req>),
    /// The pool is being dropped.
    Closed,
}

/// How an offer of a batch on the fiber's own stack ended.
enum Offer<Resp> {
    /// The driver answered the batch's last request.
    Answered(Resp),
    /// Nothing serves it, or the driver left the rest of it pending: the
    /// fiber switches with the rest.
    Declined,
    /// The driver panicked; `drive` re-raises its payload.
    Failed,
}

/// What a fiber of a dropped pool, or of a driver that panicked, unwinds
/// with.
struct Abandoned;

/// Where an event loop stopped.
#[derive(Debug)]
pub enum Stop<Resp> {
    /// It answered the last request fiber `p` handed over, and `p` is
    /// suspended for this reply: what [`FiberPool::reply`] returned, for
    /// [`FiberPool::drive`] to deliver.
    Resume(u32, Resp),
    /// No event is left to run.
    Idle,
}

/// Handle given to application code for issuing simulated operations.
pub struct FiberApi<Req: 'static, Resp: 'static> {
    yielder: Yielder<Answer<Req, Resp>, Vec<Req>>,
    /// Posted and not yet exchanged, in program order.
    batch: Vec<Req>,
    /// Whether the pool was dropped or its driver panicked: every exchange
    /// unwinds.
    closed: bool,
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

    /// Submits `req`, after everything posted before it, and suspends until
    /// the engine replies to it. If the pool is dropped first, unwinds the
    /// fiber without running the panic hook — again each time it is
    /// reached, should the caller catch that.
    pub fn call(&mut self, req: Req) -> Resp {
        self.batch.push(req);
        self.exchange()
    }

    /// Exchanges the batch for the reply to its last request: offered to the
    /// pool's driver on this stack first, and switched to the engine with
    /// whatever the driver left.
    fn exchange(&mut self) -> Resp {
        if !self.closed {
            match drive::offer(self.yielder.id(), &mut self.batch) {
                Offer::Answered(resp) => return resp,
                Offer::Declined => match self.yielder.suspend(mem::take(&mut self.batch)) {
                    Answer::Reply(resp, buffer) => {
                        self.batch = buffer;
                        return resp;
                    }
                    Answer::Closed => self.closed = true,
                },
                Offer::Failed => self.closed = true,
            }
        }
        resume_unwind(Box::new(Abandoned))
    }
}

/// The body owns its `FiberApi`, so this runs when it returns or unwinds:
/// the tail goes back with the fiber's end.
impl<Req: 'static, Resp: 'static> Drop for FiberApi<Req, Resp> {
    fn drop(&mut self) {
        self.yielder.leave(mem::take(&mut self.batch));
    }
}

impl<Req: 'static, Resp: 'static> std::fmt::Debug for FiberApi<Req, Resp> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let posted = self.batch.len();
        f.debug_struct("FiberApi").field("posted", &posted).finish_non_exhaustive()
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

struct Slot<Req, Resp> {
    /// The fiber, while it is unstarted or suspended. A drive takes it out
    /// while it runs, and it is gone once its body ended.
    fiber: Option<Fiber<Answer<Req, Resp>, Vec<Req>>>,
    /// Requests handed over and not yet taken, the next one last: the
    /// fiber's own batch buffer reversed, and handed back once it is empty.
    pending: Vec<Req>,
    /// Whether a request was taken and its answer is still to come.
    owed: bool,
    /// Whether the body has returned or unwound: from then on, `pending` is
    /// its tail.
    ended: bool,
    /// Whether the fiber is live: false once its tail has been answered.
    live: bool,
    /// The body's panic, re-raised at the answer to its tail's last request.
    panic: Option<Box<dyn Any + Send>>,
}

/// A pool of suspended application fibers, one per simulated processor.
///
/// Every live fiber has its next request pending here or is owed a reply;
/// a fiber runs only inside [`FiberPool::resume`] or [`FiberPool::drive`],
/// until it hands over its next batch. Dropping the pool unwinds every
/// suspended fiber on its own stack (see the module docs) and drops unstarted
/// bodies unrun.
///
/// Every fiber takes its stack from the driving thread's spare list and
/// gives it back when it ends or drops unstarted, so pools spawned one after
/// another on a thread reuse the same mapped (and already faulted-in)
/// stacks; a thread keeps at most 64 and unmaps them when it exits.
pub struct FiberPool<Req, Resp> {
    slots: Vec<Slot<Req, Resp>>,
    /// How many slots are live (an event loop asks after every event).
    live: usize,
    /// Switches from a fiber back to its driver: hand-overs and ends.
    switches: u64,
    /// Exchanges a driver answered on the calling fiber's stack.
    served: u64,
    /// A driver's panic caught on a fiber's stack, re-raised by `drive`.
    failed: Option<Box<dyn Any + Send>>,
}

impl<Req: 'static, Resp: 'static> FiberPool<Req, Resp> {
    /// Spawns `n` fibers all running `f(proc_id, api)`; see [`FiberPool::spawn_each`].
    pub fn spawn<F: Fn(u32, FiberApi<Req, Resp>) + 'static>(n: u32, f: F) -> Self {
        let f = Rc::new(f);
        let body = |p| {
            let f = Rc::clone(&f);
            Box::new(move |api: FiberApi<Req, Resp>| f(p, api)) as FiberBody<Req, Resp>
        };
        Self::spawn_each((0..n).map(body).collect())
    }

    /// Spawns one fiber per closure and runs each, in index order, until it
    /// has handed over its first request or ended; a panic before that is
    /// re-raised here, once the tail it posted is empty.
    pub fn spawn_each(bodies: Vec<FiberBody<Req, Resp>>) -> Self {
        let slot = |body: FiberBody<Req, Resp>| {
            let fiber = Fiber::new(move |yielder| {
                body(FiberApi { yielder, batch: Vec::new(), closed: false });
            });
            Slot {
                fiber: Some(fiber),
                pending: Vec::new(),
                owed: false,
                ended: false,
                live: true,
                panic: None,
            }
        };
        // The pool owns every fiber before the first one runs, so unwinding
        // out of here unwinds the started ones and drops the rest unrun.
        let slots: Vec<_> = bodies.into_iter().map(slot).collect();
        let live = slots.len();
        let mut pool = FiberPool { slots, live, switches: 0, served: 0, failed: None };
        for p in 0..pool.slots.len() as u32 {
            let step = pool.slots[p as usize].fiber.as_mut().expect("an unstarted fiber").start();
            pool.switched(p, step);
        }
        pool
    }
}

impl<Req, Resp> FiberPool<Req, Resp> {
    /// Takes in what fiber `p` left the CPU with: a batch, or its end.
    fn switched(&mut self, p: u32, step: Switched<Vec<Req>>) {
        self.switches += 1;
        match step {
            Switched::Suspended(batch) => self.hand_in(p, batch),
            Switched::Ended(tail, ended) => {
                let slot = &mut self.slots[p as usize];
                // Gives the stack back.
                slot.fiber = None;
                slot.ended = true;
                slot.panic = ended.err();
                self.end(p, tail.unwrap_or_default());
            }
        }
    }

    /// Queues the batch fiber `p` handed over.
    #[inline]
    fn hand_in(&mut self, p: u32, mut batch: Vec<Req>) {
        batch.reverse();
        self.slots[p as usize].pending = batch;
    }

    /// Takes back what is left of the batch fiber `p` handed in, in program
    /// order, for it to hand over again with its switch.
    #[inline]
    fn hand_back(&mut self, p: u32) -> Vec<Req> {
        let mut rest = mem::take(&mut self.slots[p as usize].pending);
        rest.reverse();
        rest
    }

    /// Settles the answer fiber `p` is suspended for (panics unless it is
    /// owed the reply to the last request it handed over), returning its
    /// batch's buffer.
    #[inline]
    fn answered(&mut self, p: u32) -> Vec<Req> {
        let slot = &mut self.slots[p as usize];
        assert!(
            slot.owed && slot.pending.is_empty() && !slot.ended,
            "fiber {p} answered without waiting on its last request"
        );
        slot.owed = false;
        mem::take(&mut slot.pending)
    }

    /// Queues the tail fiber `p` left when its body ended; the fiber stays
    /// live until that has been answered.
    fn end(&mut self, p: u32, tail: Vec<Req>) {
        self.hand_in(p, tail);
        if self.slots[p as usize].pending.is_empty() {
            self.finish(p);
        }
    }

    /// Marks fiber `p` finished, re-raising its body's panic.
    fn finish(&mut self, p: u32) {
        let slot = &mut self.slots[p as usize];
        slot.live = false;
        self.live -= 1;
        if let Some(panic) = slot.panic.take() {
            resume_unwind(panic);
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
        self.live
    }

    /// Whether fiber `p` has finished.
    #[inline]
    pub fn is_finished(&self, p: u32) -> bool {
        !self.slots[p as usize].live
    }

    /// How many times a fiber has switched back to whoever runs the pool:
    /// once per batch handed over by a switch, and once per end.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// How many exchanges a [`Driver`] answered on the calling fiber's own
    /// stack, each one a pair of switches saved.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Fiber `p`'s next pending request, if it has one.
    #[inline]
    pub fn peek_request(&self, p: u32) -> Option<&Req> {
        self.slots[p as usize].pending.last()
    }

    /// Takes fiber `p`'s next pending request, if it has one; the engine then owes it a reply.
    #[inline]
    pub fn take_request(&mut self, p: u32) -> Option<Req> {
        let slot = &mut self.slots[p as usize];
        let req = slot.pending.pop();
        slot.owed |= req.is_some();
        req
    }

    /// Answers fiber `p`'s taken request without running it (panics if
    /// there is none). Returns `resp`, the request still owed, when it was
    /// the last one `p` handed over and `p` is suspended for it:
    /// [`FiberPool::resume`] delivers it, an event loop returns it as
    /// [`Stop::Resume`], and [`Driver::serve`] as its answer. Otherwise
    /// `resp` is dropped — the reply to a posted request, or to the last of
    /// a finished fiber's tail, which finishes it (re-raising its body's
    /// panic).
    #[inline]
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
    /// last one pending, runs the fiber until it hands over its next request or ends,
    /// and propagates its body's panic; `resp` reaches the fiber only if it `call`ed.
    pub fn resume(&mut self, p: u32, resp: Resp) -> Resumed {
        if let Some(resp) = self.reply(p, resp) {
            let buffer = self.answered(p);
            let fiber = self.slots[p as usize].fiber.as_mut().expect("a suspended fiber");
            let step = fiber.resume(Answer::Reply(resp, buffer));
            self.switched(p, step);
        }
        if self.is_finished(p) {
            Resumed::Finished
        } else {
            Resumed::HasRequest
        }
    }

    /// Consumes a drained pool; panics if some fiber is still live.
    pub fn join(self) {
        for p in 0..self.slots.len() as u32 {
            assert!(self.is_finished(p), "join() called while fiber {p} is still live");
        }
    }
}

impl<Req, Resp> Drop for FiberPool<Req, Resp> {
    fn drop(&mut self) {
        for slot in &mut self.slots {
            if let Some(mut fiber) = slot.fiber.take() {
                if fiber.is_suspended() {
                    // It unwinds with `Abandoned` and ends; the payload is
                    // dropped here, as is an unstarted fiber's body.
                    drop(fiber.resume(Answer::Closed));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::hint::black_box;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::thread;

    /// Engine that services all fibers round-robin until done.
    fn drain(mut pool: FiberPool<u64, u64>, f: impl Fn(u64) -> u64) {
        while pool.live_count() > 0 {
            for p in 0..pool.len() as u32 {
                if let Some(req) = pool.take_request(p) {
                    pool.resume(p, f(req));
                }
            }
        }
        pool.join();
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
    #[should_panic(expected = "still live")]
    fn join_rejects_live_fibers() {
        let pool = FiberPool::<u64, u64>::spawn(1, |_, mut api| {
            api.call(1);
        });
        pool.join();
    }

    #[test]
    fn a_body_may_use_a_megabyte_of_stack() {
        fn deep(api: &mut FiberApi<u64, u64>, depth: u64) -> u64 {
            let mut frame = [0u8; 64 << 10];
            frame[depth as usize] = depth as u8;
            black_box(&mut frame);
            // Each level suspends with all the frames above it live.
            let below = if depth == 0 { 0 } else { deep(api, depth - 1) };
            api.call(depth) + below + u64::from(frame[depth as usize])
        }
        let total = Rc::new(Cell::new(0));
        let out = Rc::clone(&total);
        let pool = FiberPool::<u64, u64>::spawn(2, move |_, mut api| {
            // Read `out` only after `deep`, which suspends: the other fiber adds meanwhile.
            let sum = deep(&mut api, 20);
            out.set(out.get() + sum);
        });
        drain(pool, |x| x);
        // 21 levels of 64 KiB each, and each adds its depth twice.
        assert_eq!(total.get(), 2 * 2 * (0..=20).sum::<u64>());
    }

    /// Engine side of one operation: takes `want`, then answers it with `resp`.
    fn serve(pool: &mut FiberPool<u64, u64>, want: u64, resp: u64) -> Resumed {
        assert_eq!(pool.peek_request(0), Some(&want));
        assert_eq!(pool.take_request(0), Some(want));
        pool.resume(0, resp)
    }

    #[test]
    fn posts_arrive_in_program_order_ahead_of_the_call_that_carried_them() {
        let posted = Rc::new(Cell::new(false));
        let flag = Rc::clone(&posted);
        let mut pool = FiberPool::<u64, u64>::spawn(1, move |_, mut api| {
            (1..=3).for_each(|i| api.post(i));
            flag.set(true);
            assert_eq!(api.call(4), 40);
        });
        assert!(posted.get(), "`post` returned to the fiber before any hand-over");
        // The fiber is suspended for the reply to 4, so a `resume` that ran
        // it for a posted request instead would find it waiting on a reply.
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
        let past_it = Rc::new(Cell::new(false));
        let flag = Rc::clone(&past_it);
        let mut pool = FiberPool::<u64, u64>::spawn(1, move |_, mut api| {
            (1..=bound + 5).for_each(|i| api.post(i));
            flag.set(true);
        });
        // Suspended in the post that filled the batch, until that one is answered.
        assert!(!past_it.get());
        for i in 1..bound {
            assert_eq!(serve(&mut pool, i, 0), Resumed::HasRequest);
            assert!(!past_it.get());
        }
        assert_eq!(serve(&mut pool, bound, 0), Resumed::HasRequest);
        assert!(past_it.get(), "the other five came as the tail");
        for i in bound + 1..bound + 5 {
            assert_eq!(serve(&mut pool, i, 0), Resumed::HasRequest);
        }
        assert_eq!(serve(&mut pool, bound + 5, 0), Resumed::Finished);
        pool.join();
    }

    struct Counted(Rc<Cell<usize>>);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn every_request_and_reply_is_dropped_exactly_once() {
        let drops = Rc::new(Cell::new(0));
        let (fiber_drops, new) = (Rc::clone(&drops), || Counted(Rc::clone(&drops)));
        let mut pool = FiberPool::<Counted, Counted>::spawn(2, move |_, mut api| {
            drop(api.call(Counted(Rc::clone(&fiber_drops)))); // answered
            api.post(Counted(Rc::clone(&fiber_drops))); // never taken
            api.call(Counted(Rc::clone(&fiber_drops))); // never answered
        });
        for p in 0..2 {
            drop(pool.take_request(p));
            pool.resume(p, new());
        }
        assert_eq!(drops.get(), 4, "two requests, two replies");
        // Fiber 0: its post answered, its call taken and owed. Fiber 1: both
        // still pending in the pool.
        drop(pool.take_request(0));
        assert_eq!(pool.resume(0, new()), Resumed::HasRequest);
        drop(pool.take_request(0));
        drop(pool);
        assert_eq!(drops.get(), 9, "fiber 0's post, its reply and its call; fiber 1's two");
    }

    /// What [`run_echo`] panics at when asked.
    const ENGINE_PANIC: u64 = 666;

    /// An event loop answering each request with `req + 1`, taking the
    /// fibers round-robin so that most answers are hand-offs, and delivering
    /// each answer a fiber is suspended for with `resume`.
    fn run_echo(mut pool: FiberPool<u64, u64>) -> thread::Result<()> {
        catch_unwind(AssertUnwindSafe(move || {
            let n = pool.len() as u32;
            let mut next = 0;
            loop {
                let mut turns = (0..n).map(|i| (next + i) % n);
                let Some(p) = turns.find(|&p| pool.peek_request(p).is_some()) else { break };
                next = (p + 1) % n;
                let req = pool.take_request(p).unwrap();
                assert_ne!(req, ENGINE_PANIC, "the engine's own panic");
                if let Some(resp) = pool.reply(p, req + 1) {
                    pool.resume(p, resp);
                }
            }
            pool.join();
        }))
    }

    #[test]
    fn fibers_run_by_an_event_loop_to_the_end() {
        let answered = Rc::new(Cell::new(0));
        let count = Rc::clone(&answered);
        let pool = FiberPool::<u64, u64>::spawn(4, move |pid, mut api| {
            for i in 0..50 {
                let x = u64::from(pid) * 1_000 + i;
                (0..i % 3).for_each(|j| api.post(j));
                assert_eq!(api.call(x), x + 1);
                count.set(count.get() + 1);
            }
            (0..5).for_each(|j| api.post(j)); // the tail
        });
        assert!(run_echo(pool).is_ok());
        assert_eq!(answered.get(), 200);
    }

    #[test]
    fn an_engine_panic_unwinds_the_suspended_fibers() {
        let unwound = Rc::new(Cell::new(0));
        let witness = Rc::clone(&unwound);
        let pool = FiberPool::<u64, u64>::spawn(3, move |pid, mut api| {
            let _local = Counted(Rc::clone(&witness));
            for i in 0..20 {
                if (pid, i) == (2, 10) {
                    api.post(ENGINE_PANIC);
                }
                api.call(i);
            }
        });
        let raised = run_echo(pool).unwrap_err();
        let msg = raised.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.contains("the engine's own panic"), "{msg}");
        assert_eq!(unwound.get(), 3, "every suspended body's locals dropped");
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
            let raised = run_echo(pool).unwrap_err();
            assert_eq!(raised.downcast_ref::<&str>(), Some(&"the body's own panic"), "tail {tail}");
        }
    }

    /// A driver answering each request with `req + 1`: its loop takes the
    /// fibers round-robin, and it serves at most `per_offer` requests of each
    /// batch offered on a fiber's stack, recording every request it takes
    /// in `seen`. A request of [`ENGINE_PANIC`] panics where it is taken.
    struct Echo {
        next: u32,
        per_offer: usize,
        seen: Vec<u64>,
    }

    impl Echo {
        fn new(per_offer: usize) -> Self {
            Echo { next: 0, per_offer, seen: Vec::new() }
        }

        fn take(&mut self, pool: &mut FiberPool<u64, u64>, p: u32) -> Option<u64> {
            let req = pool.take_request(p)?;
            assert_ne!(req, ENGINE_PANIC, "the engine's own panic");
            self.seen.push(req);
            pool.reply(p, req + 1)
        }
    }

    impl Driver<u64, u64> for Echo {
        fn serves(&self) -> bool {
            true
        }

        fn next(&mut self, pool: &mut FiberPool<u64, u64>) -> Stop<u64> {
            let n = pool.len() as u32;
            loop {
                let mut turns = (0..n).map(|i| (self.next + i) % n);
                let Some(p) = turns.find(|&p| pool.peek_request(p).is_some()) else {
                    return Stop::Idle;
                };
                self.next = (p + 1) % n;
                if let Some(resp) = self.take(pool, p) {
                    return Stop::Resume(p, resp);
                }
            }
        }

        fn serve(&mut self, pool: &mut FiberPool<u64, u64>, p: u32) -> Option<u64> {
            for _ in 0..self.per_offer {
                if let Some(resp) = self.take(pool, p) {
                    return Some(resp);
                }
            }
            None
        }
    }

    #[test]
    fn a_call_the_driver_answers_does_not_switch() {
        let mut pool = FiberPool::<u64, u64>::spawn(1, |_, mut api| {
            for i in 0..100 {
                assert_eq!(api.call(i), i + 1);
            }
        });
        let spawned = pool.switches();
        pool.drive(&mut Echo::new(usize::MAX));
        // The loop answered the first call, and the fiber's stack the other 99.
        assert_eq!(pool.served(), 99);
        assert_eq!(pool.switches() - spawned, 1, "only the end switched back");
        pool.join();
    }

    #[test]
    fn a_declined_serve_hands_the_rest_back_in_program_order() {
        let mut pool = FiberPool::<u64, u64>::spawn(2, |pid, mut api| {
            for i in 0..10 {
                let base = u64::from(pid) * 1_000 + i * 10;
                (1..4).for_each(|j| api.post(base + j));
                assert_eq!(api.call(base + 4), base + 5);
            }
        });
        // Each offer of four has two taken on the fiber's stack; the loop
        // takes the other two after the switch.
        let mut echo = Echo::new(2);
        let spawned = pool.switches();
        pool.drive(&mut echo);
        assert_eq!(pool.served(), 0);
        assert_eq!(pool.switches() - spawned, 20, "every batch went over with a switch");
        for pid in 0..2 {
            let mine: Vec<u64> = echo.seen.iter().copied().filter(|r| r / 1_000 == pid).collect();
            let program: Vec<u64> =
                (0..10).flat_map(|i| (1..=4).map(move |j| pid * 1_000 + i * 10 + j)).collect();
            assert_eq!(mine, program, "P{pid}'s requests out of program order");
        }
        pool.join();
    }

    #[test]
    fn the_deferred_bound_still_forces_an_exchange_under_a_drive() {
        let bound = MAX_DEFERRED as u64;
        let mut pool = FiberPool::<u64, u64>::spawn(1, move |_, mut api| {
            api.call(0);
            (1..=3 * bound).for_each(|i| api.post(i));
        });
        let mut echo = Echo::new(usize::MAX);
        pool.drive(&mut echo);
        // Three forced exchanges after the loop's answer, all served, and
        // an empty tail.
        assert_eq!(pool.served(), 3);
        assert_eq!(echo.seen, (0..=3 * bound).collect::<Vec<_>>());
        pool.join();
    }

    #[test]
    fn a_panic_while_serving_leaves_the_drive_with_its_payload() {
        let unwound = Rc::new(Cell::new(0));
        let witness = Rc::clone(&unwound);
        let mut pool = FiberPool::<u64, u64>::spawn(3, move |pid, mut api| {
            let _local = Counted(Rc::clone(&witness));
            for i in 0..20 {
                if (pid, i) == (1, 10) {
                    api.post(ENGINE_PANIC);
                }
                api.call(i);
            }
        });
        let mut echo = Echo::new(usize::MAX);
        let raised = catch_unwind(AssertUnwindSafe(|| pool.drive(&mut echo))).unwrap_err();
        let msg = raised.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.contains("the engine's own panic"), "{msg}");
        // Served on its own stack throughout, P0 ran to its end before P1.
        assert_eq!(unwound.get(), 2, "P0 ended and the serving fiber unwound");
        drop(pool);
        assert_eq!(unwound.get(), 3, "dropping the pool unwinds the others");
    }

    #[test]
    fn dropping_a_driven_pool_unwinds_every_suspended_body() {
        let unwound = Rc::new(Cell::new(0));
        let witness = Rc::clone(&unwound);
        let mut pool = FiberPool::<u64, u64>::spawn(4, move |_, mut api| {
            let _local = Counted(Rc::clone(&witness));
            for i in 0..10 {
                api.call(i);
            }
            api.call(ENGINE_PANIC);
        });
        // Nothing is served, so the loop panics at the first fiber's last
        // call with every fiber suspended.
        let mut echo = Echo::new(0);
        assert!(catch_unwind(AssertUnwindSafe(|| pool.drive(&mut echo))).is_err());
        assert_eq!(unwound.get(), 0);
        drop(pool);
        assert_eq!(unwound.get(), 4, "every suspended body's locals dropped");
    }
}
