//! The Shasta protocol engines: Base-Shasta, SMP-Shasta, and the
//! hardware-coherent baseline, unified over one directory-based
//! invalidation protocol.
//!
//! * **Base-Shasta** is the protocol of §2: every processor is its own
//!   node, all sharing is through explicit messages.
//! * **SMP-Shasta** (§3) groups processors into virtual nodes that share
//!   memory, the shared state table, and the miss table; inline checks read
//!   per-processor private state tables; intra-node **downgrade messages**
//!   remove the races of Figure 2 without synchronizing the inline checks.
//! * **Hardware** models the ANL-macro runs of §4.3 (single SMP, hardware
//!   coherence) used to gauge checking overhead.
//!
//! Build a [`Machine`], initialize data with [`Machine::setup`], and execute
//! one program per processor with `Machine::run`.

mod candidates;
pub mod config;
pub mod engine;
pub mod handlers;
pub mod machine;
pub mod msg;
mod rows;

pub use config::{BugInjection, Mode, ProtocolConfig};
pub use machine::{HostCounts, Machine, SetupCtx};
pub use msg::{DirUpdate, DowngradeTo, ProtoMsg};
pub use rows::{DowngradeEntry, LingeringAcks, Row};
