//! Driving a pool from an event loop, and serving a fiber's batch on the
//! fiber's own stack.
//!
//! [`FiberPool::drive`] runs a [`Driver`]'s event loop and switches to each
//! fiber it answers. While a fiber runs there, and if [`Driver::serves`]
//! said so at its resume, its next exchange (a `call`, or `post`'s forced
//! one) first offers the batch to [`Driver::serve`] without leaving the
//! fiber's stack: the offer reaches the pool and the driver through the
//! thread-local [`SERVING`], which `resume_driven` sets for exactly the
//! span of its switch into that one fiber. A driver that
//! answers the batch's last request saves the switch to the engine and the
//! switch back.
//!
//! Soundness rests on three rules. `resume_driven` derives its pointers to
//! the pool and the driver from `drive`'s exclusive borrows, for one resume,
//! and uses neither until the fiber has switched back. It moves the fiber
//! out of its slot first, so no reference into the pool is live on the
//! engine's stack across the switch. And an offer dereferences the pointers
//! only on the fiber `SERVING` names, which is running (it was switched
//! into and has not switched back), so the pool it names is the fiber's own
//! and its types are the offering `FiberApi`'s.

use std::cell::Cell;
use std::mem;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr;

use super::{Answer, FiberPool, Offer, Stop};

/// An event loop over a [`FiberPool`], run by [`FiberPool::drive`].
pub trait Driver<Req, Resp> {
    /// Whether [`Driver::serve`] may answer the next batch of the fiber the
    /// last [`Stop::Resume`] answered: read at each resume. When it is false,
    /// that fiber's next exchange switches to the engine without an offer,
    /// as under [`FiberPool::resume`].
    fn serves(&self) -> bool;

    /// Runs events until one answers the last request a suspended fiber
    /// handed over ([`Stop::Resume`], with what [`FiberPool::reply`]
    /// returned), or until none is left ([`Stop::Idle`]). Called again once
    /// that fiber has handed over its next batch or ended.
    fn next(&mut self, pool: &mut FiberPool<Req, Resp>) -> Stop<Resp>;

    /// Offered fiber `p`'s batch, now pending in `pool`, on `p`'s own stack:
    /// `p` is the fiber the last [`Stop::Resume`] answered, and it has not
    /// switched back since. Returns what [`FiberPool::reply`] returned for
    /// the batch's last request, if the driver answered it here without any
    /// other fiber running; `None` leaves whatever it did not take pending,
    /// and `p` switches back with it. A panic here leaves the drive with
    /// its payload, after `p` has unwound.
    fn serve(&mut self, pool: &mut FiberPool<Req, Resp>, p: u32) -> Option<Resp>;
}

/// The fiber a drive is running, and how to serve its offers.
#[derive(Clone, Copy)]
struct Serving {
    /// The running fiber's identity (`Fiber::id`); null while no driven
    /// fiber runs.
    fiber: *const (),
    /// Its index in the pool.
    p: u32,
    /// The `FiberPool<Req, Resp>` and the `D` of `serve::<Req, Resp, D>`.
    pool: *mut (),
    driver: *mut (),
    serve: unsafe fn(&Serving, *mut (), *mut ()),
}

/// Serves nothing: what `Serving::NONE` calls, which no offer reaches.
unsafe fn serve_none(_: &Serving, _: *mut (), _: *mut ()) {}

impl Serving {
    const NONE: Serving = Serving {
        fiber: ptr::null(),
        p: 0,
        pool: ptr::null_mut(),
        driver: ptr::null_mut(),
        serve: serve_none,
    };
}

thread_local! {
    /// The fiber the innermost drive on this thread has switched into.
    static SERVING: Cell<Serving> = const { Cell::new(Serving::NONE) };
}

/// Restores the outer [`SERVING`] when a switch into a driven fiber returns
/// or unwinds.
struct Scope(Serving);

impl Scope {
    fn enter(serving: Serving) -> Scope {
        Scope(SERVING.replace(serving))
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        SERVING.set(self.0);
    }
}

impl<Req: 'static, Resp: 'static> FiberPool<Req, Resp> {
    /// Runs `driver`'s event loop over the pool until it is idle. Each
    /// [`Stop::Resume`] runs its fiber until the fiber hands over a batch
    /// the driver does not serve on the fiber's stack, or ends; a body's
    /// panic is re-raised as under [`FiberPool::resume`], and a panic in
    /// [`Driver::serve`] with its own payload once the fiber has unwound.
    pub fn drive<D: Driver<Req, Resp>>(&mut self, driver: &mut D) {
        while let Stop::Resume(p, resp) = driver.next(self) {
            let serves = driver.serves();
            // SAFETY: both pointers are fresh from this frame's exclusive
            // borrows, which it does not use again until the call returns.
            unsafe { resume_driven(self, driver, p, resp, serves) };
        }
    }
}

/// Delivers `resp`, the answer fiber `p` is suspended for, and runs `p` until
/// it switches back; while it runs, its offers reach `driver` if `serves`.
///
/// # Safety
///
/// `pool` and `driver` are valid, and nothing uses either but through them
/// until this returns.
unsafe fn resume_driven<Req: 'static, Resp: 'static, D: Driver<Req, Resp>>(
    pool: *mut FiberPool<Req, Resp>,
    driver: *mut D,
    p: u32,
    resp: Resp,
    serves: bool,
) {
    let (mut fiber, buffer) = {
        // SAFETY: the caller's contract; this borrow ends before the switch.
        let pool = unsafe { &mut *pool };
        let buffer = pool.answered(p);
        (pool.slots[p as usize].fiber.take().expect("a suspended fiber"), buffer)
    };
    let scope = serves.then(|| {
        Scope::enter(Serving {
            fiber: fiber.id(),
            p,
            pool: pool.cast(),
            driver: driver.cast(),
            serve: serve::<Req, Resp, D>,
        })
    });
    let step = fiber.resume(Answer::Reply(resp, buffer));
    drop(scope);
    // SAFETY: the caller's contract; the fiber has switched back, so no
    // offer holds a borrow of the pool or the driver now.
    let pool = unsafe { &mut *pool };
    pool.slots[p as usize].fiber = Some(fiber);
    if let Some(payload) = pool.failed.take() {
        resume_unwind(payload);
    }
    pool.switched(p, step);
}

/// Offers the calling fiber's `batch` to the driver running it, if one
/// serves it; see [`Driver::serve`].
pub(super) fn offer<Req, Resp>(fiber: *const (), batch: &mut Vec<Req>) -> Offer<Resp> {
    let serving = SERVING.get();
    let mut out = Offer::Declined;
    if serving.fiber == fiber {
        // SAFETY: `serving` names the calling fiber, so `resume_driven` set
        // it for `serve::<Req, Resp, _>`, with the pool this fiber belongs
        // to, and is inside its switch into the fiber; the other two
        // pointers are this frame's own.
        unsafe {
            (serving.serve)(&serving, ptr::from_mut(batch).cast(), ptr::from_mut(&mut out).cast());
        }
    }
    out
}

/// An offer on a driven fiber's stack: hands `batch` (a `Vec<Req>`) in,
/// lets the driver serve it, and writes the outcome to `out` (an
/// `Offer<Resp>`), handing the batch's buffer, or what is left of it, back.
///
/// # Safety
///
/// As [`offer`] calls it: `serving` is the running fiber's, set by
/// `resume_driven::<Req, Resp, D>`.
unsafe fn serve<Req, Resp, D: Driver<Req, Resp>>(serving: &Serving, batch: *mut (), out: *mut ()) {
    // SAFETY: `resume_driven` made `serving.pool` and `serving.driver` from
    // exclusive borrows that nothing uses until this fiber switches back
    // (see the module docs), and the caller passes its own batch and slot.
    let (pool, driver, batch, out) = unsafe {
        (
            &mut *serving.pool.cast::<FiberPool<Req, Resp>>(),
            &mut *serving.driver.cast::<D>(),
            &mut *batch.cast::<Vec<Req>>(),
            &mut *out.cast::<Offer<Resp>>(),
        )
    };
    let p = serving.p;
    pool.hand_in(p, mem::take(batch));
    let served = catch_unwind(AssertUnwindSafe(|| {
        let answer = driver.serve(pool, p);
        let buffer = if answer.is_some() { pool.answered(p) } else { pool.hand_back(p) };
        (answer, buffer)
    }));
    *out = match served {
        Ok((Some(resp), buffer)) => {
            pool.served += 1;
            *batch = buffer;
            Offer::Answered(resp)
        }
        Ok((None, rest)) => {
            *batch = rest;
            Offer::Declined
        }
        Err(payload) => {
            pool.failed = Some(payload);
            Offer::Failed
        }
    };
}
