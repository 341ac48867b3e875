//! Placement of simulated processors onto physical SMP nodes and protocol
//! ("virtual") nodes.
//!
//! The paper distinguishes two groupings:
//!
//! * **Physical nodes** determine message *cost*: a message between two
//!   processors on the same AlphaServer travels through a shared-memory
//!   segment (cheap), while a message between different AlphaServers crosses
//!   the Memory Channel (expensive).
//! * **Virtual nodes** (the "clustering" degree of §4.3) determine protocol
//!   *sharing*: processors in the same virtual node share application memory,
//!   the shared state table, and the miss table. Base-Shasta is clustering 1;
//!   SMP-Shasta with clustering 4 shares among all four node mates.
//!
//! The paper always chooses the clustering to divide the physical node size,
//! so a virtual node never spans physical nodes; [`Topology::new`] enforces
//! this.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a simulated processor, dense in `0..topology.procs()`.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct ProcId(pub u32);

/// Identifier of a node (physical or virtual depending on context), dense in
/// `0..count`.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub u32);

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

impl From<ProcId> for usize {
    fn from(p: ProcId) -> usize {
        p.0 as usize
    }
}

impl From<NodeId> for usize {
    fn from(n: NodeId) -> usize {
        n.0 as usize
    }
}

/// Error produced when a [`Topology`] is malformed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TopologyError {
    /// The processor count was zero.
    NoProcessors,
    /// `procs_per_node` was zero or does not divide the processor count.
    BadPhysicalGrouping {
        /// Total processor count requested.
        procs: u32,
        /// Processors per physical node requested.
        procs_per_node: u32,
    },
    /// The clustering degree was zero, does not divide the processor count,
    /// or does not divide the physical node size (a virtual node would span
    /// physical nodes).
    BadClustering {
        /// Physical node size.
        procs_per_node: u32,
        /// Requested virtual-node (clustering) size.
        clustering: u32,
    },
    /// More processors than the directory's sharer bit-vector can express.
    TooManyProcessors {
        /// Requested processor count.
        procs: u32,
        /// Supported maximum ([`MAX_PROCS`]).
        max: u32,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TopologyError::NoProcessors => write!(f, "topology must have at least one processor"),
            TopologyError::BadPhysicalGrouping { procs, procs_per_node } => write!(
                f,
                "{procs_per_node} processors per node does not evenly divide {procs} processors"
            ),
            TopologyError::BadClustering { procs_per_node, clustering } => write!(
                f,
                "clustering {clustering} must be nonzero and divide the physical node size {procs_per_node}"
            ),
            TopologyError::TooManyProcessors { procs, max } => {
                write!(f, "{procs} processors exceeds the supported maximum of {max}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Maximum number of simulated processors, bounded by the directory's
/// full-bit-vector sharer representation (`u64`).
pub const MAX_PROCS: u32 = 64;

/// Placement of processors on physical SMP nodes and protocol virtual nodes.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Topology {
    procs: u32,
    procs_per_node: u32,
    clustering: u32,
}

impl Topology {
    /// Creates a topology of `procs` processors placed `procs_per_node` to a
    /// physical SMP node, with protocol virtual nodes of `clustering`
    /// processors each.
    ///
    /// Processor `p` lives on physical node `p / procs_per_node` and virtual
    /// node `p / clustering`, mirroring the consecutive placement the paper
    /// uses ("two- and four-processor runs always execute entirely on a
    /// single node").
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] if any divisibility constraint fails or if
    /// `procs` exceeds [`MAX_PROCS`].
    pub fn new(procs: u32, procs_per_node: u32, clustering: u32) -> Result<Self, TopologyError> {
        if procs == 0 {
            return Err(TopologyError::NoProcessors);
        }
        if procs > MAX_PROCS {
            return Err(TopologyError::TooManyProcessors { procs, max: MAX_PROCS });
        }
        if procs_per_node == 0 || !procs.is_multiple_of(procs_per_node) {
            return Err(TopologyError::BadPhysicalGrouping { procs, procs_per_node });
        }
        if clustering == 0 || !procs_per_node.is_multiple_of(clustering) {
            return Err(TopologyError::BadClustering { procs_per_node, clustering });
        }
        Ok(Topology { procs, procs_per_node, clustering })
    }

    /// The paper's placement for a run of `procs` total processors: runs of
    /// up to four processors fit on one AlphaServer, larger runs use four
    /// processors per node. Clustering (virtual-node size) is given
    /// separately, as in §4.3.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Topology::new`].
    pub fn paper_placement(procs: u32, clustering: u32) -> Result<Self, TopologyError> {
        let per_node = procs.min(4);
        Topology::new(procs, per_node, clustering)
    }

    /// Total number of simulated processors.
    pub fn procs(&self) -> u32 {
        self.procs
    }

    /// Number of processors per physical SMP node.
    pub fn procs_per_node(&self) -> u32 {
        self.procs_per_node
    }

    /// The protocol clustering degree (virtual-node size).
    pub fn clustering(&self) -> u32 {
        self.clustering
    }

    /// Number of physical SMP nodes.
    pub fn phys_nodes(&self) -> u32 {
        self.procs / self.procs_per_node
    }

    /// Number of protocol virtual nodes.
    pub fn virt_nodes(&self) -> u32 {
        self.procs / self.clustering
    }

    /// Physical node hosting processor `p`.
    pub fn phys_node_of(&self, p: u32) -> NodeId {
        debug_assert!(p < self.procs);
        NodeId(p / self.procs_per_node)
    }

    /// Virtual (protocol) node of processor `p`.
    #[inline]
    pub fn virt_node_of(&self, p: u32) -> NodeId {
        debug_assert!(p < self.procs);
        NodeId(p / self.clustering)
    }

    /// Whether two processors are on the same physical SMP node (messages
    /// between them use the shared-memory segment, not the Memory Channel).
    #[inline]
    pub fn same_phys_node(&self, a: u32, b: u32) -> bool {
        self.phys_node_of(a) == self.phys_node_of(b)
    }

    /// Whether two processors share application memory under the protocol
    /// (same virtual node).
    pub fn same_virtual_node(&self, a: u32, b: u32) -> bool {
        self.virt_node_of(a) == self.virt_node_of(b)
    }

    /// Iterator over the processors of virtual node `n`.
    #[inline]
    pub fn virt_node_procs(&self, n: NodeId) -> impl Iterator<Item = ProcId> + use<> {
        let lo = n.0 * self.clustering;
        let hi = lo + self.clustering;
        (lo..hi).map(ProcId)
    }

    /// Iterator over the processors of physical node `n`.
    pub fn phys_node_procs(&self, n: NodeId) -> impl Iterator<Item = ProcId> + use<> {
        let lo = n.0 * self.procs_per_node;
        let hi = lo + self.procs_per_node;
        (lo..hi).map(ProcId)
    }

    /// Iterator over all processor ids.
    pub fn all_procs(&self) -> impl Iterator<Item = ProcId> + use<> {
        (0..self.procs).map(ProcId)
    }
}

impl Default for Topology {
    /// A single uniprocessor "cluster": one processor, one node, clustering 1.
    fn default() -> Self {
        Topology { procs: 1, procs_per_node: 1, clustering: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_placement() {
        let t = Topology::new(16, 4, 4).unwrap();
        assert_eq!(t.phys_nodes(), 4);
        assert_eq!(t.virt_nodes(), 4);
        assert_eq!(t.phys_node_of(0), NodeId(0));
        assert_eq!(t.phys_node_of(3), NodeId(0));
        assert_eq!(t.phys_node_of(4), NodeId(1));
        assert_eq!(t.phys_node_of(15), NodeId(3));
        assert!(t.same_phys_node(12, 15));
        assert!(!t.same_phys_node(3, 4));
    }

    #[test]
    fn clustering_splits_physical_nodes() {
        // Clustering of 2 on 4-proc physical nodes: virtual nodes {0,1},{2,3},...
        let t = Topology::new(16, 4, 2).unwrap();
        assert_eq!(t.virt_nodes(), 8);
        assert!(t.same_virtual_node(0, 1));
        assert!(!t.same_virtual_node(1, 2));
        // Procs 1 and 2 are distinct virtual nodes yet the same physical node:
        // their protocol messages are "local" in Figure 7's terms.
        assert!(t.same_phys_node(1, 2));
    }

    #[test]
    fn base_shasta_is_clustering_one() {
        let t = Topology::new(8, 4, 1).unwrap();
        assert_eq!(t.virt_nodes(), 8);
        for p in 0..8 {
            assert_eq!(t.virt_node_of(p), NodeId(p));
        }
    }

    #[test]
    fn virtual_node_never_spans_physical_nodes() {
        assert_eq!(
            Topology::new(16, 2, 4).unwrap_err(),
            TopologyError::BadClustering { procs_per_node: 2, clustering: 4 }
        );
    }

    #[test]
    fn rejects_bad_shapes() {
        assert_eq!(Topology::new(0, 1, 1).unwrap_err(), TopologyError::NoProcessors);
        assert_eq!(
            Topology::new(6, 4, 1).unwrap_err(),
            TopologyError::BadPhysicalGrouping { procs: 6, procs_per_node: 4 }
        );
        assert_eq!(
            Topology::new(128, 4, 4).unwrap_err(),
            TopologyError::TooManyProcessors { procs: 128, max: MAX_PROCS }
        );
        assert!(Topology::new(4, 4, 0).is_err());
    }

    #[test]
    fn paper_placement_small_runs_on_one_node() {
        let t = Topology::paper_placement(2, 2).unwrap();
        assert_eq!(t.phys_nodes(), 1);
        let t = Topology::paper_placement(4, 4).unwrap();
        assert_eq!(t.phys_nodes(), 1);
        let t = Topology::paper_placement(8, 4).unwrap();
        assert_eq!(t.phys_nodes(), 2);
        let t = Topology::paper_placement(16, 4).unwrap();
        assert_eq!(t.phys_nodes(), 4);
    }

    #[test]
    fn node_proc_iterators() {
        let t = Topology::new(8, 4, 2).unwrap();
        let v: Vec<_> = t.virt_node_procs(NodeId(1)).map(|p| p.0).collect();
        assert_eq!(v, vec![2, 3]);
        let p: Vec<_> = t.phys_node_procs(NodeId(1)).map(|p| p.0).collect();
        assert_eq!(p, vec![4, 5, 6, 7]);
        assert_eq!(t.all_procs().count(), 8);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ProcId(3).to_string(), "P3");
        assert_eq!(NodeId(2).to_string(), "N2");
    }
}
