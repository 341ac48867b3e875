//! A fiber's stack and the switch into and out of it, for x86_64 Linux
//! (System V ABI): with `drive.rs`, the only `unsafe` code in `shasta-sim`.
//!
//! A [`Fiber`] runs on one [`Stack`]: an anonymous mapping of
//! [`STACK_BYTES`] above a `PROT_NONE` guard page. Stacks are recycled: a
//! fiber takes the lowest-addressed one from its thread's spare list
//! ([`SPARE`]) and maps a new one only when the list is empty, and a fiber
//! that ended, or never started, gives its stack back. The list keeps at most [`MAX_SPARE`]
//! stacks, unmaps the rest, and unmaps its own when the thread exits, so a
//! thread's second machine maps nothing and its stacks' pages are already
//! faulted in. Starting or resuming a fiber saves the caller's callee-saved
//! registers, MXCSR and x87 control word on the caller's stack and loads
//! the fiber's; [`Yielder::suspend`] does the reverse. One value crosses
//! each switch, in cells that only the running side touches. The body runs
//! under `catch_unwind` in [`entry`], whose caller [`trampoline`] is marked
//! as having none, so unwinding and backtraces end at the fiber.
//!
//! Soundness rests on four checks: a fiber runs only inside a call that
//! holds `&mut Fiber` (a driven pool moves the fiber out of its slot first,
//! see `drive.rs`); `suspend` and `leave` act only on the innermost
//! running fiber (the thread-local `CURRENT`); the stack of a suspended
//! fiber, whose frames have not been dropped, is never unmapped nor listed;
//! and a listed stack has one owner, the list, and no live frame, since only
//! a fiber that ended or never ran gives its stack back, and a stack leaves
//! the list only to be moved into one new fiber, which overwrites its top
//! with a fresh initial frame.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "fiber stacks are implemented for x86_64 Linux (System V ABI) only: port \
     crates/sim/src/fiber/stack.rs (its register switch and mapping) to this target"
);

use std::cell::{Cell, RefCell};
use std::io;
use std::mem;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr;
use std::rc::Rc;
use std::thread;

/// Usable bytes of a fiber's stack: what a spawned OS thread gets by default.
const STACK_BYTES: usize = 2 << 20;

/// The `PROT_NONE` page below the stack.
const GUARD_BYTES: usize = 4 << 10;

const MAP_BYTES: usize = GUARD_BYTES + STACK_BYTES;

/// Stacks a thread keeps for reuse: the engine's processor limit, so a
/// machine of any size, built after one of that size, maps nothing.
const MAX_SPARE: usize = 64;

/// Linux x86_64's values for the calls that map a stack.
mod sys {
    pub const PROT_NONE: i32 = 0;
    pub const PROT_READ: i32 = 1;
    pub const PROT_WRITE: i32 = 2;
    pub const MAP_PRIVATE: i32 = 0x02;
    pub const MAP_ANONYMOUS: i32 = 0x20;
    pub const MAP_NORESERVE: i32 = 0x4000;
    pub const MAP_STACK: i32 = 0x2_0000;

    extern "C" {
        pub fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
            -> *mut u8;
        pub fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
        pub fn munmap(addr: *mut u8, len: usize) -> i32;
    }
}

thread_local! {
    /// The fiber running innermost on this thread, by its `Shared` address.
    static CURRENT: Cell<*const ()> = const { Cell::new(ptr::null()) };
    /// Mapped, guarded stacks that no fiber uses; unmapped when the thread
    /// exits.
    static SPARE: RefCell<Spare> =
        const { RefCell::new(Spare { stacks: [const { None }; MAX_SPARE], len: 0 }) };
}

/// A thread's spare stacks, the first `len` slots. Held inline in the
/// thread-local, so keeping them takes nothing from the heap.
struct Spare {
    stacks: [Option<Stack>; MAX_SPARE],
    len: usize,
}

impl Spare {
    /// Takes the lowest-addressed spare stack. Fibers spawned in the same
    /// order as an earlier pool's then get the same stacks back, so a
    /// stack's faulted-in pages are what its own fiber uses, not the
    /// deepest of every fiber that ever ran on it.
    fn pop(&mut self) -> Option<Stack> {
        let listed = &mut self.stacks[..self.len];
        let lowest = (0..listed.len()).min_by_key(|&i| listed[i].as_ref().map(|s| s.base))?;
        listed.swap(lowest, self.len - 1);
        self.len -= 1;
        self.stacks[self.len].take()
    }

    /// Lists `stack`, or unmaps it if the list is full.
    fn push(&mut self, stack: Stack) {
        if self.len < MAX_SPARE {
            self.stacks[self.len] = Some(stack);
            self.len += 1;
        }
    }
}

/// One mapping, [`GUARD_BYTES`] of `PROT_NONE` guard lowest, then
/// [`STACK_BYTES`] of stack; unmapped when dropped.
struct Stack {
    base: *mut u8,
}

impl Stack {
    /// A spare stack of this thread, or a new one.
    fn take() -> Stack {
        SPARE.with_borrow_mut(Spare::pop).unwrap_or_else(Stack::map)
    }

    fn map() -> Stack {
        let prot = sys::PROT_READ | sys::PROT_WRITE;
        let flags = sys::MAP_PRIVATE | sys::MAP_ANONYMOUS | sys::MAP_NORESERVE | sys::MAP_STACK;
        // SAFETY: a new anonymous mapping, where the kernel picks, aliases
        // no memory the program uses.
        let base = unsafe { sys::mmap(ptr::null_mut(), MAP_BYTES, prot, flags, -1, 0) };
        assert!(base as isize != -1, "cannot map a fiber stack: {}", io::Error::last_os_error());
        // Owned from here on, so a failed guard unmaps it before the panic.
        let stack = Stack { base };
        // SAFETY: the guard is the lowest page of the new mapping, which
        // nothing uses.
        let guarded = unsafe { sys::mprotect(base, GUARD_BYTES, sys::PROT_NONE) };
        assert!(guarded == 0, "cannot guard a fiber stack: {}", io::Error::last_os_error());
        stack
    }

    /// One past the stack's highest byte.
    fn top(&self) -> *mut u8 {
        self.base.wrapping_add(MAP_BYTES)
    }

    /// Lists the stack for the thread's next fiber, or unmaps it if the
    /// list is full (or, while the thread exits, gone).
    fn give_back(self) {
        let _ = SPARE.try_with(|spare| spare.borrow_mut().push(self));
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping is this stack's own, and no frame lives on it:
        // a fiber's stack is dropped only once the fiber ended or never ran.
        unsafe { sys::munmap(self.base, MAP_BYTES) };
    }
}

/// What `entry` runs: the body, and the yielder it is given.
type Start<In, Out> = (Box<dyn FnOnce(Yielder<In, Out>)>, Yielder<In, Out>);

/// What a fiber's two sides share, at an address that does not move.
struct Shared<In, Out> {
    /// The fiber's saved stack pointer while it is suspended; before it
    /// starts, its initial frame.
    fiber_sp: Cell<*mut u8>,
    /// The resumer's saved stack pointer while the fiber runs.
    caller_sp: Cell<*mut u8>,
    input: Cell<Option<In>>,
    output: Cell<Option<Out>>,
    /// Set once the body has returned or unwound.
    ended: Cell<Option<thread::Result<()>>>,
    /// Until `entry` takes it (or the fiber drops unstarted).
    start: Cell<Option<Start<In, Out>>>,
}

/// How a fiber left the CPU.
pub(super) enum Switched<Out> {
    /// It suspended with this value and waits for [`Fiber::resume`].
    Suspended(Out),
    /// Its body returned (`Ok`) or unwound, after leaving the value it gave
    /// [`Yielder::leave`], if any.
    Ended(Option<Out>, thread::Result<()>),
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Unstarted,
    Suspended,
    Ended,
}

/// A body with its own stack, run on the thread that starts or resumes it.
pub(super) struct Fiber<In, Out> {
    shared: Rc<Shared<In, Out>>,
    /// Taken only by `drop`.
    stack: Option<Stack>,
    state: State,
}

impl<In: 'static, Out: 'static> Fiber<In, Out> {
    /// A fiber that will run `body` on a stack of its own from its first
    /// [`Fiber::start`]. Dropped unstarted, it drops `body` unrun.
    pub(super) fn new(body: impl FnOnce(Yielder<In, Out>) + 'static) -> Self {
        let stack = Stack::take();
        let shared = Rc::new(Shared {
            fiber_sp: Cell::new(ptr::null_mut()),
            caller_sp: Cell::new(ptr::null_mut()),
            input: Cell::new(None),
            output: Cell::new(None),
            ended: Cell::new(None),
            start: Cell::new(None),
        });
        shared.fiber_sp.set(initial_frame(stack.top(), Rc::as_ptr(&shared)));
        let yielder = Yielder { shared: Rc::clone(&shared) };
        shared.start.set(Some((Box::new(body), yielder)));
        Fiber { shared, stack: Some(stack), state: State::Unstarted }
    }
}

impl<In, Out> Fiber<In, Out> {
    /// Runs the body from its beginning until it suspends or ends.
    pub(super) fn start(&mut self) -> Switched<Out> {
        assert!(self.state == State::Unstarted, "a fiber starts once");
        self.switch_in()
    }

    /// Hands `input` to the suspended fiber and runs it until it suspends
    /// again or ends.
    pub(super) fn resume(&mut self, input: In) -> Switched<Out> {
        assert!(self.is_suspended(), "only a suspended fiber is resumed");
        self.shared.input.set(Some(input));
        self.switch_in()
    }

    /// Whether the fiber has started and not ended.
    pub(super) fn is_suspended(&self) -> bool {
        self.state == State::Suspended
    }

    /// The fiber's identity, which its [`Yielder::id`] shares.
    pub(super) fn id(&self) -> *const () {
        Rc::as_ptr(&self.shared).cast()
    }

    fn switch_in(&mut self) -> Switched<Out> {
        let shared = &*self.shared;
        let outer = CURRENT.replace(Rc::as_ptr(&self.shared).cast());
        // SAFETY: `fiber_sp` is the fiber's saved context on its own mapped
        // stack — its initial frame, or what its last `suspend` saved — and
        // the fiber is not running, since this holds `&mut self`. This side's
        // context goes to `caller_sp`, where the fiber switches back.
        unsafe { switch(shared.caller_sp.as_ptr(), shared.fiber_sp.get()) };
        CURRENT.set(outer);
        if let Some(ended) = shared.ended.take() {
            self.state = State::Ended;
            return Switched::Ended(shared.output.take(), ended);
        }
        self.state = State::Suspended;
        Switched::Suspended(shared.output.take().expect("a suspension's value"))
    }
}

impl<In, Out> Drop for Fiber<In, Out> {
    fn drop(&mut self) {
        // A suspended fiber's frames have not been dropped, and one may own
        // memory that something else points into (a pinned local): its stack
        // stays mapped.
        let Some(stack) = self.stack.take() else { return };
        if self.state == State::Suspended {
            mem::forget(stack);
        } else {
            // An unstarted body, and the yielder that holds `shared`.
            drop(self.shared.start.take());
            // No frame lives on it: the fiber never ran, or it has ended.
            stack.give_back();
        }
    }
}

/// The fiber's side of the switch, given to its body.
pub(super) struct Yielder<In, Out> {
    shared: Rc<Shared<In, Out>>,
}

impl<In, Out> Yielder<In, Out> {
    /// The identity of this yielder's fiber: its [`Fiber::id`].
    pub(super) fn id(&self) -> *const () {
        Rc::as_ptr(&self.shared).cast()
    }

    /// Whether the caller runs on this yielder's fiber, innermost. A fiber
    /// never leaves the thread that made it: `Rc` keeps it `!Send`.
    fn running_here(&self) -> bool {
        CURRENT.get() == self.id()
    }

    /// Switches back to the fiber's resumer with `out`, and returns what the
    /// next [`Fiber::resume`] hands in. Panics unless called on the fiber
    /// itself, innermost.
    pub(super) fn suspend(&self, out: Out) -> In {
        assert!(self.running_here(), "a fiber suspends only from its own stack");
        let shared = &*self.shared;
        shared.output.set(Some(out));
        // SAFETY: this runs on the fiber's stack, innermost, so its resumer
        // is inside `switch_in` with its context saved in `caller_sp`. This
        // side's context goes to `fiber_sp`, where the next resume loads it.
        unsafe { switch(shared.fiber_sp.as_ptr(), shared.caller_sp.get()) };
        shared.input.take().expect("a resumed fiber's input")
    }

    /// Leaves `out` to be returned with the fiber's end, without switching;
    /// drops it unless called on the fiber itself, innermost.
    pub(super) fn leave(&self, out: Out) {
        if self.running_here() {
            self.shared.output.set(Some(out));
        }
    }
}

/// The first code a fiber runs, called by [`trampoline`] with its `Shared`
/// address. Its last act is the switch away from the ended fiber.
extern "sysv64" fn entry<In, Out>(shared: *const Shared<In, Out>) -> ! {
    // SAFETY: `trampoline` passes the `Rc` pointer `Fiber::new` stored, and
    // that `Fiber` outlives this stack's frames: it is mutably borrowed by
    // the `start` or `resume` running them, and never unmaps a suspended one.
    let shared = unsafe { &*shared };
    let (body, yielder) = shared.start.take().expect("a started fiber's body");
    let ended = catch_unwind(AssertUnwindSafe(move || body(yielder)));
    shared.ended.set(Some(ended));
    // SAFETY: as in `Yielder::suspend`; nothing left on this stack needs
    // dropping, and with `ended` set it is never switched to again.
    unsafe { switch(shared.fiber_sp.as_ptr(), shared.caller_sp.get()) };
    unreachable!("an ended fiber was resumed")
}

/// The MXCSR and x87 control word a fiber starts with: the ABI's defaults.
const MXCSR_DEFAULT: u64 = 0x1f80;
const FCW_DEFAULT: u64 = 0x037f;

/// Writes the frame [`switch`] pops on entering a new fiber, just below the
/// stack's `top`: the default control words, zeroed callee-saved registers
/// except `r12` = `entry` and `rbx` = its argument, and [`trampoline`] as
/// the return address. Returns the frame's address.
fn initial_frame<In, Out>(top: *mut u8, shared: *const Shared<In, Out>) -> *mut u8 {
    let frame: [u64; 8] = [
        MXCSR_DEFAULT | FCW_DEFAULT << 32,
        0,                                    // r15
        0,                                    // r14
        0,                                    // r13
        entry::<In, Out> as *const () as u64, // r12
        shared as u64,                        // rbx
        0,                                    // rbp
        trampoline as *const () as u64,       // return address
    ];
    let sp = top.wrapping_sub(mem::size_of_val(&frame));
    // SAFETY: `top` ends a writable, page-aligned stack that no frame uses
    // (new, or given back by a fiber that ended or never ran), so the 64
    // bytes below it are in bounds, aligned and unused.
    unsafe { sp.cast::<[u64; 8]>().write(frame) };
    sp
}

/// Saves the callee-saved registers, MXCSR and the x87 control word on the
/// current stack, stores its pointer at `save`, and restores the same from
/// the stack at `load`, returning to whoever saved that one.
///
/// The frame, from the stack pointer up: MXCSR (4 bytes), x87 control word
/// (2, padded to 8), `r15`, `r14`, `r13`, `r12`, `rbx`, `rbp`, return address.
/// With the return address at 8 mod 16 on entry, the saved pointer is
/// 16-byte aligned, and [`initial_frame`] builds the same shape.
// SAFETY: the body is the whole function and returns only through `ret`
// with every callee-saved register restored from the frame at `load`.
#[unsafe(naked)]
unsafe extern "sysv64" fn switch(save: *mut *mut u8, load: *mut u8) {
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// Where a new fiber's first switch returns: calls `entry` (`r12`) with its
/// argument (`rbx`) on a stack 16-byte aligned at the call. Marked as having
/// no caller, so an unwinder or a backtrace stops here.
// SAFETY: reached only by `switch` returning into an `initial_frame`, which
// set both registers; `entry` never returns.
#[unsafe(naked)]
unsafe extern "sysv64" fn trampoline() -> ! {
    std::arch::naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, rbx",
        "call r12",
        "ud2",
        ".cfi_endproc",
    )
}
