#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # shasta-core — fine-grain software distributed shared memory
//!
//! See `docs/ARCHITECTURE.md` for where this crate sits in the workspace.
//!
//! A full reimplementation of the Shasta and SMP-Shasta protocols from
//! Scales, Gharachorloo & Aggarwal, *Fine-Grain Software Distributed Shared
//! Memory on SMP Clusters* (WRL 97/3 / HPCA 1998), running over a
//! deterministic, cycle-cost-calibrated cluster simulator.
//!
//! The pieces:
//!
//! * [`space`] — the shared address space: lines, variable-granularity
//!   blocks, pages, and the coherence-hinted allocator;
//! * [`state`] — line states, per-node shared state tables, per-processor
//!   private state tables, and the invalid-flag mechanism;
//! * [`check`] — the inline miss-check cost/function model (Base and SMP
//!   flavours);
//! * [`directory`] — the line-indexed owner/sharer directory with
//!   transaction queuing;
//! * [`misstable`] — non-blocking-store miss entries, merging, and the
//!   epoch tracker for eager release consistency;
//! * [`protocol`] — the Base-Shasta / SMP-Shasta / hardware engines and the
//!   downgrade machinery;
//! * [`oracle`] — coherence oracles (shadow memory, exclusivity,
//!   private-state ceilings) for the schedule-exploration checker;
//! * [`api`] — the application-facing [`api::Dsm`] handle.
//!
//! # Quickstart
//!
//! ```
//! use shasta_cluster::{CostModel, Topology};
//! use shasta_core::protocol::{Machine, ProtocolConfig};
//! use shasta_core::space::{BlockHint, HomeHint};
//!
//! // Four processors on one SMP node, sharing memory through SMP-Shasta.
//! let topo = Topology::new(4, 4, 4)?;
//! let mut m = Machine::new(topo, CostModel::alpha_4100(), ProtocolConfig::smp(), 1 << 20);
//! let counters = m.setup(|s| s.malloc(4 * 8, BlockHint::Line, HomeHint::Explicit(0)));
//!
//! // Every processor increments its own shared counter 100 times.
//! let stats = m.run(
//!     (0..4)
//!         .map(|p| {
//!             move |mut dsm: shasta_core::api::Dsm| {
//!                 let addr = counters + 8 * p as u64;
//!                 for _ in 0..100 {
//!                     let v = dsm.load_u64(addr);
//!                     dsm.store_u64(addr, v + 1);
//!                     dsm.compute(50);
//!                 }
//!                 dsm.barrier(0);
//!             }
//!         })
//!         .collect(),
//! );
//! assert!(stats.elapsed_cycles > 0);
//! # Ok::<(), shasta_cluster::TopologyError>(())
//! ```

pub mod api;
pub mod check;
pub mod directory;
pub mod misstable;
pub mod oracle;
pub mod protocol;
pub mod space;
pub mod state;

pub use api::Dsm;
pub use protocol::{BugInjection, Machine, Mode, ProtocolConfig, SetupCtx};
// Fault-injection and heterogeneous-topology surface, re-exported so the
// checker and benches need no direct dependency on the fabric crates.
pub use shasta_cluster::NetProfile;
pub use shasta_memchan::{FaultCounts, FaultPlan};

/// Whether this build records per-transition `block-state` events (the
/// `obs-block-state` feature). Only the Chrome timeline exporter consumes
/// them — no streaming aggregate does — so they default to off.
pub const OBS_BLOCK_STATE: bool = cfg!(feature = "obs-block-state");
