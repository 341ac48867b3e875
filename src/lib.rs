#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # shasta — fine-grain software distributed shared memory on SMP clusters
//!
//! A comprehensive Rust reproduction of Scales, Gharachorloo & Aggarwal,
//! *Fine-Grain Software Distributed Shared Memory on SMP Clusters* (WRL
//! Research Report 97/3; HPCA 1998) — the **Shasta / SMP-Shasta** system.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`core`](mod@core) — the Base-Shasta and SMP-Shasta coherence
//!   protocols (inline checks, invalid flags, variable-granularity blocks,
//!   private state tables, downgrade messages, request merging, eager
//!   release consistency) over a deterministic cluster simulator;
//! * [`sim`](mod@sim) — the direct-execution engine (fibers, simulated
//!   time, deterministic RNG);
//! * [`cluster`](mod@cluster) — topology and the Alpha 4100 / Memory
//!   Channel cost model;
//! * [`memchan`](mod@memchan) — the messaging substrate;
//! * [`apps`](mod@apps) — nine SPLASH-2-style kernels with sequential
//!   references;
//! * [`stats`](mod@stats) — the metrics behind every table and figure;
//! * [`transport`](mod@transport) — the real loopback TCP / Unix-socket
//!   transport speaking the versioned wire protocol of
//!   `docs/TRANSPORT.md`, differentially tested against the simulator;
//! * [`fgdsm`](mod@fgdsm) — the downgrade protocol implemented with real
//!   OS threads and `Relaxed` atomics, including the losing strawman it
//!   replaces.
//!
//! `docs/ARCHITECTURE.md` draws the crate map and dependency graph.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for paper-vs-measured results. The `examples/`
//! directory has runnable entry points, starting with
//! `examples/quickstart.rs`.

/// Doctests the README's code examples.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;

pub use shasta_apps as apps;
pub use shasta_cluster as cluster;
pub use shasta_core as core;
pub use shasta_fgdsm as fgdsm;
pub use shasta_memchan as memchan;
pub use shasta_sim as sim;
pub use shasta_stats as stats;
pub use shasta_transport as transport;
