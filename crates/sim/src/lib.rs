#![warn(missing_docs)]
#![deny(unsafe_code, unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

//! Deterministic direct-execution simulation engine.
//!
//! See `docs/ARCHITECTURE.md` for where this crate sits in the workspace.
//!
//! The Shasta reproduction simulates a 16-processor SMP cluster by *direct
//! execution*: each simulated processor runs real Rust application code on
//! a stack of its own (a *fiber*), but every protocol-visible action
//! (shared-memory access, synchronization, polling) goes through a single
//! engine that owns all protocol state and global simulated time. The engine
//! and the fibers share one thread, which switches stacks at each hand-over;
//! the engine always resumes the processor whose next action has the minimum
//! `(time, processor-id)`, so runs are bit-reproducible.
//!
//! This crate provides the protocol-agnostic machinery:
//!
//! * [`Time`] — simulated time in processor cycles,
//! * [`FiberPool`] — the suspend/resume rendezvous between application
//!   fibers and the engine (x86_64 Linux only: `fiber/stack.rs`, the crate's
//!   one module with `unsafe` code, switches the stacks),
//! * [`Scheduler`] — the [`SchedulePolicy`] that breaks `(time, processor)`
//!   ties and jitters message latency, deterministically per seed,
//! * [`SplitMix64`] — a tiny deterministic RNG for workload generation.
//!
//! What a run did is recorded by `shasta-obs`, not here.
//!
//! The DSM protocol engine built on top lives in `shasta-core`.
//!
//! # Example
//!
//! ```
//! use shasta_sim::{FiberPool, Resumed};
//!
//! // A "protocol" where fibers submit numbers and the engine doubles them.
//! let mut pool = FiberPool::<u64, u64>::spawn(2, |proc_id, mut api| {
//!     let doubled = api.call(proc_id as u64 + 1);
//!     assert_eq!(doubled, 2 * (proc_id as u64 + 1));
//! });
//! for p in 0..2 {
//!     while let Some(req) = pool.take_request(p) {
//!         if pool.resume(p, req * 2) == Resumed::Finished {
//!             break;
//!         }
//!     }
//! }
//! pool.join();
//! ```

pub mod fiber;
pub mod rng;
pub mod sched;
pub mod time;

pub use fiber::{FiberApi, FiberBody, FiberPool, Resumed, Stop};
pub use rng::SplitMix64;
pub use sched::{SchedulePolicy, Scheduler};
pub use time::Time;
