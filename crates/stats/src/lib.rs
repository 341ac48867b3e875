#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! Metrics and reporting for the Shasta / SMP-Shasta reproduction.
//!
//! See `docs/ARCHITECTURE.md` for where this crate sits in the workspace.
//!
//! The paper's evaluation reports four families of data, each of which has a
//! dedicated type here:
//!
//! * **Execution-time breakdowns** (Figures 4 and 5): per-processor cycles
//!   split into task / read / write / synchronization / message / other —
//!   [`Breakdown`].
//! * **Miss statistics** (Figure 6): software misses classified by request
//!   type (read, write, upgrade) × hop count (2-hop, 3-hop) — [`MissStats`].
//! * **Message statistics** (Figure 7): protocol messages classified as
//!   remote, local, or downgrade — [`MsgStats`].
//! * **Downgrade distributions** (Figure 8): how many downgrade messages each
//!   block downgrade had to send — [`DowngradeHist`].
//!
//! [`RunStats`] aggregates all of these for one simulated run, and
//! [`report`] renders paper-style text tables.

pub mod counters;
pub mod expo;
pub mod report;

pub use counters::{
    Breakdown, CheckStats, DowngradeHist, Hops, MissKind, MissStats, MsgClass, MsgStats, RunStats,
    TimeCat,
};
pub use expo::{MetricEntry, MetricValue, Snapshot};
pub use report::{advisor_table, critical_path_report, AdvisorRow, CritReport, Table};
