//! Heterogeneous inter-node network profiles.
//!
//! The paper's cluster is *uniform*: every Memory Channel link has the same
//! one-way latency and per-byte occupancy (§2, §4.1). Disaggregated and
//! heterogeneous-machine clusters break that assumption — per-node link
//! bandwidth and per-pair latency differ — and the checker sweeps such
//! topologies to see where the protocol's timing assumptions matter.
//!
//! A [`NetProfile`] generalizes the two Memory Channel constants of
//! [`CostModel`] into per-node and per-node-pair values. The arithmetic a
//! profile-carrying network performs is *identical* to the uniform path, so
//! [`NetProfile::uniform`] reproduces the unprofiled network bit-exactly —
//! the negative control that keeps heterogeneity plumbing out of the
//! calibrated baseline results.

use serde::{Deserialize, Serialize};

use crate::cost::CostModel;

/// Per-node / per-node-pair Memory Channel parameters for a heterogeneous
/// cluster. Intra-node (shared-memory segment) costs stay uniform: the
/// heterogeneity of interest is between boxes, not inside one.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct NetProfile {
    /// Per-byte MC occupancy of each *sending* node's link, in cycles
    /// (indexed by physical node id). Generalizes
    /// [`CostModel::mc_per_byte_cycles`].
    pub per_byte: Vec<u64>,
    /// One-way latency from node `src` to node `dst`, in cycles
    /// (`oneway[src][dst]`). Generalizes [`CostModel::mc_oneway_cycles`];
    /// need not be symmetric.
    pub oneway: Vec<Vec<u64>>,
}

impl NetProfile {
    /// A profile for `nodes` physical nodes whose values all equal the cost
    /// model's uniform constants. A network carrying this profile computes
    /// bit-identical arrival times to one carrying no profile at all.
    pub fn uniform(nodes: u32, cost: &CostModel) -> Self {
        let n = nodes as usize;
        NetProfile {
            per_byte: vec![cost.mc_per_byte_cycles; n],
            oneway: vec![vec![cost.mc_oneway_cycles; n]; n],
        }
    }

    /// Number of physical nodes this profile describes.
    pub fn nodes(&self) -> usize {
        self.per_byte.len()
    }

    /// Multiplies the per-byte occupancy of `node`'s outgoing link by
    /// `factor` (a slower / narrower link).
    #[must_use]
    pub fn scale_link_bandwidth(mut self, node: u32, factor: u64) -> Self {
        self.per_byte[node as usize] *= factor;
        self
    }

    /// Multiplies the one-way latency of every path into *and* out of
    /// `node` by `factor` (a distant or congested box).
    #[must_use]
    pub fn scale_node_latency(mut self, node: u32, factor: u64) -> Self {
        let n = self.nodes();
        let k = node as usize;
        for j in 0..n {
            if j != k {
                self.oneway[k][j] *= factor;
                self.oneway[j][k] *= factor;
            }
        }
        self
    }

    /// Whether the profile is shape-consistent for `nodes` physical nodes:
    /// one per-byte entry per node and a full `nodes × nodes` latency
    /// matrix.
    pub fn is_valid_for(&self, nodes: u32) -> bool {
        let n = nodes as usize;
        self.per_byte.len() == n
            && self.oneway.len() == n
            && self.oneway.iter().all(|row| row.len() == n)
    }

    /// Whether every entry equals the cost model's uniform constants (the
    /// profile is a no-op relabeling of the homogeneous cluster).
    pub fn is_uniform(&self, cost: &CostModel) -> bool {
        self.per_byte.iter().all(|&b| b == cost.mc_per_byte_cycles)
            && self.oneway.iter().flatten().all(|&l| l == cost.mc_oneway_cycles)
    }

    /// Enumerates every link parameter as a `(metric name, value)` pair —
    /// `cluster.link.per_byte.n{src}` for each sending node's per-byte
    /// occupancy and `cluster.link.oneway.n{src}.n{dst}` for each directed
    /// latency (self entries skipped) — so a metrics registry can publish
    /// the effective topology as gauges without this crate depending on
    /// one. Deterministic order: per-byte by node, then latencies row by
    /// row.
    pub fn link_metrics(&self) -> Vec<(String, u64)> {
        let mut out = Vec::with_capacity(self.nodes() * (self.nodes() + 1));
        for (n, &b) in self.per_byte.iter().enumerate() {
            out.push((format!("cluster.link.per_byte.n{n}"), b));
        }
        for (s, row) in self.oneway.iter().enumerate() {
            for (d, &l) in row.iter().enumerate() {
                if s != d {
                    out.push((format!("cluster.link.oneway.n{s}.n{d}"), l));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_profile_matches_cost_constants() {
        let c = CostModel::alpha_4100();
        let p = NetProfile::uniform(3, &c);
        assert!(p.is_valid_for(3));
        assert!(p.is_uniform(&c));
        assert_eq!(p.per_byte, vec![c.mc_per_byte_cycles; 3]);
        assert_eq!(p.oneway[2][0], c.mc_oneway_cycles);
    }

    #[test]
    fn scaling_breaks_uniformity_exactly_where_asked() {
        let c = CostModel::alpha_4100();
        let p = NetProfile::uniform(2, &c).scale_link_bandwidth(0, 4).scale_node_latency(1, 2);
        assert!(!p.is_uniform(&c));
        assert_eq!(p.per_byte[0], 4 * c.mc_per_byte_cycles);
        assert_eq!(p.per_byte[1], c.mc_per_byte_cycles);
        assert_eq!(p.oneway[0][1], 2 * c.mc_oneway_cycles);
        assert_eq!(p.oneway[1][0], 2 * c.mc_oneway_cycles);
        assert_eq!(p.oneway[0][0], c.mc_oneway_cycles, "self entries untouched");
    }

    #[test]
    fn link_metrics_enumerate_every_directed_link() {
        let c = CostModel::alpha_4100();
        let p = NetProfile::uniform(2, &c).scale_link_bandwidth(1, 4).scale_node_latency(1, 3);
        let m = p.link_metrics();
        let names: Vec<&str> = m.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "cluster.link.per_byte.n0",
                "cluster.link.per_byte.n1",
                "cluster.link.oneway.n0.n1",
                "cluster.link.oneway.n1.n0",
            ]
        );
        assert_eq!(m[1].1, 4 * c.mc_per_byte_cycles);
        assert_eq!(m[2].1, 3 * c.mc_oneway_cycles);
    }
}
