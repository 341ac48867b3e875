#![warn(missing_docs)]

//! Deterministic direct-execution simulation engine.
//!
//! See `docs/ARCHITECTURE.md` for where this crate sits in the workspace.
//!
//! The Shasta reproduction simulates a 16-processor SMP cluster by *direct
//! execution*: each simulated processor runs real Rust application code on
//! its own OS thread, but every protocol-visible action (shared-memory
//! access, synchronization, polling) goes through a single engine that owns
//! all protocol state and global simulated time — run by an engine thread,
//! or by whichever fiber holds the baton. The engine always resumes the
//! processor whose next action has the minimum `(time, processor-id)`, so
//! runs are bit-reproducible regardless of host scheduling.
//!
//! This crate provides the protocol-agnostic machinery:
//!
//! * [`Time`] — simulated time in processor cycles,
//! * [`FiberPool`] — the suspend/resume rendezvous between application
//!   threads ("fibers") and the engine, and [`Engine`], the event loop the
//!   fibers run themselves,
//! * [`SplitMix64`] — a tiny deterministic RNG for workload generation,
//! * [`trace`] — an optional bounded event trace for debugging.
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
pub mod trace;

pub use fiber::{Engine, FiberApi, FiberBody, FiberPool, Resumed, Stop};
pub use rng::SplitMix64;
pub use sched::{SchedulePolicy, Scheduler};
pub use time::Time;
pub use trace::{Trace, TraceEvent};
