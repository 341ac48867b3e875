//! Protocol configuration: mode selection and ablation switches.

use serde::{Deserialize, Serialize};

use crate::check::{CheckFlavor, CheckModel};

/// Which coherence machinery executes the run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum Mode {
    /// Base-Shasta: every processor is its own protocol node (clustering 1),
    /// all sharing goes through explicit messages. Use with a topology whose
    /// `clustering == 1`.
    #[default]
    Base,
    /// SMP-Shasta: processors in a virtual node share memory, the shared
    /// state table, and the miss table; intra-node downgrades via messages;
    /// protocol operations pay line-lock costs.
    Smp,
    /// Hardware cache coherence (the ANL-macro baseline of §4.3): a single
    /// sharing group, zero-cost coherence, only synchronization costs time.
    Hardware,
}

/// Deliberate protocol defects, used to validate that the checker's oracles
/// actually catch real coherence bugs (they are never enabled in
/// measurement runs; every preset sets [`BugInjection::None`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum BugInjection {
    /// The correct protocol.
    #[default]
    None,
    /// The deferred action of a downgrade reads the block data when the
    /// downgrade *starts* instead of waiting until every local processor
    /// has handled its downgrade message (§3.4.3 violation): stores that
    /// are legally serviced during the downgrade window are missing from
    /// the reply, so the requesting node receives — and applications then
    /// read — a copy with those stores lost.
    SkipDowngradeWait,
    /// Processors ignore the private-state lowering in downgrade messages
    /// (§3.3 violation): their inline checks keep passing after the node
    /// lost the access right, so they read or write coherence-stale copies.
    DropPrivDowngrade,
}

/// Full protocol configuration for a run.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// Protocol machinery to use.
    pub mode: Mode,
    /// Inline-check model (costs and flag/table behaviour).
    pub check: CheckModel,
    /// Per-processor limit on outstanding store misses; beyond it the
    /// processor stalls (the paper's "protocol limitations on the
    /// distribution and number of outstanding stores").
    pub max_outstanding_stores: u32,
    /// D1: consult private state tables to send downgrades only to
    /// processors that accessed the block (`true`, the paper's design) or
    /// broadcast to all node mates (`false`, SoftFLASH-style shootdown).
    pub selective_downgrades: bool,
    /// D4: merge same-block requests from node mates into one outstanding
    /// request (`true`, §3.4.2) or count the duplicate as a stall-only miss.
    pub merge_requests: bool,
    /// D6: non-blocking stores with miss-entry merging (`true`, §2.1) or
    /// blocking stores.
    pub nonblocking_stores: bool,
    /// D7: the home serves read requests directly when its node has a copy
    /// (`true`) or always forwards to the owner (`false`).
    pub home_serves_reads: bool,
    /// Future-work extension (§3.1/§5 of the paper): share directory state
    /// among the processors of a node, so a requester colocated with the
    /// home looks up and modifies the directory itself instead of sending an
    /// intra-node message. Off by default, as in the paper's implementation.
    pub share_directory: bool,
    /// Future-work extension (§3.1/§5): share each node's incoming request
    /// queue so *any* processor on the home's node may service a request
    /// (load balancing). Requires — and implies — `share_directory`, as the
    /// paper notes ("servicing a request to the home by any processor on a
    /// node further requires sharing the directory state"). Off by default.
    pub load_balance_incoming: bool,
    /// Deliberate defect for checker validation; [`BugInjection::None`] in
    /// every measurement configuration.
    pub bug: BugInjection,
}

impl ProtocolConfig {
    /// Base-Shasta with its check flavour and paper defaults.
    pub fn base() -> Self {
        ProtocolConfig {
            mode: Mode::Base,
            check: CheckModel::enabled(CheckFlavor::Base),
            max_outstanding_stores: 8,
            selective_downgrades: true,
            merge_requests: true,
            nonblocking_stores: true,
            home_serves_reads: true,
            share_directory: false,
            load_balance_incoming: false,
            bug: BugInjection::None,
        }
    }

    /// SMP-Shasta with its check flavour and paper defaults.
    pub fn smp() -> Self {
        ProtocolConfig {
            mode: Mode::Smp,
            check: CheckModel::enabled(CheckFlavor::Smp),
            ..Self::base()
        }
    }

    /// Hardware-coherent baseline: no instrumentation at all.
    pub fn hardware() -> Self {
        ProtocolConfig { mode: Mode::Hardware, check: CheckModel::disabled(), ..Self::base() }
    }

    /// The uninstrumented sequential baseline (hardware mode is used with a
    /// single processor): the denominator of every speedup in the paper.
    pub fn sequential() -> Self {
        Self::hardware()
    }

    /// What taking a block's line lock costs: SMP-Shasta only, since
    /// Base-Shasta has no node mates to lock against.
    pub(crate) fn smp_lock_cycles(&self, cost: &shasta_cluster::CostModel) -> u64 {
        if self.mode == Mode::Smp {
            cost.smp_lock_cycles
        } else {
            0
        }
    }
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig::base()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_select_matching_check_flavours() {
        assert_eq!(ProtocolConfig::base().check.flavor, CheckFlavor::Base);
        assert!(ProtocolConfig::base().check.enabled);
        assert_eq!(ProtocolConfig::smp().check.flavor, CheckFlavor::Smp);
        assert!(!ProtocolConfig::hardware().check.enabled);
    }

    #[test]
    fn paper_defaults_enable_all_optimizations() {
        let c = ProtocolConfig::smp();
        assert!(c.selective_downgrades);
        assert!(c.merge_requests);
        assert!(c.nonblocking_stores);
        assert!(c.home_serves_reads);
        assert!(
            !c.share_directory,
            "directory sharing is the future-work extension, off by default"
        );
        assert!(c.max_outstanding_stores > 0);
    }
}
