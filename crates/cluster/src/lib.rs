#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Cluster topology and cost model for the Shasta / SMP-Shasta reproduction.
//!
//! See `docs/ARCHITECTURE.md` for where this crate sits in the workspace.
//!
//! The paper's prototype cluster is four AlphaServer 4100s (each with four
//! 300 MHz Alpha 21164 processors) connected by Digital's Memory Channel.
//! This crate models that machine as pure data: [`Topology`] describes how
//! simulated processors are placed onto physical SMP nodes and grouped into
//! *virtual* nodes (the paper's "clustering" degree), and [`CostModel`]
//! carries every latency and occupancy constant, in units of 300 MHz
//! processor cycles, calibrated against the numbers reported in §4.1 of the
//! paper (4 µs one-way Memory Channel latency, 20 µs remote 64-byte fetch,
//! 11 µs intra-node fetch, ~35 MB/s effective remote bandwidth).
//!
//! # Example
//!
//! ```
//! use shasta_cluster::{Topology, CostModel};
//!
//! // The paper's machine: 16 processors, 4 per SMP node, protocol
//! // clustering of 4 (every processor shares memory with its node mates).
//! let topo = Topology::new(16, 4, 4).unwrap();
//! assert_eq!(topo.phys_node_of(5).0, 1);
//! assert!(topo.same_virtual_node(4, 7));
//! assert!(!topo.same_virtual_node(3, 4));
//!
//! let cost = CostModel::alpha_4100();
//! assert_eq!(cost.us_to_cycles(4.0), cost.mc_oneway_cycles);
//! ```

pub mod cost;
pub mod profile;
pub mod topology;

pub use cost::CostModel;
pub use profile::NetProfile;
pub use topology::{NodeId, ProcId, Topology, TopologyError};
