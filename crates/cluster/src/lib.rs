//! # edison-cluster
//!
//! The cluster substrate: a [`node::Node`] couples a hardware spec from
//! `edison-hw` with live resource state — a processor-sharing CPU, a disk
//! queue, memory / connection accounting, an accept-rate token bucket and a
//! power integrator. A [`Cluster`] is an indexed set of nodes with
//! aggregate energy and utilisation metrics, which is exactly what the
//! paper's figures report (cluster power lines in Figures 4/6, the
//! utilisation timelines of Figures 12–17, the energy columns of Table 8).

pub mod node;

pub use node::{Node, NodeId};

use edison_hw::ServerSpec;
use edison_simcore::time::SimTime;

/// An indexed set of nodes plus aggregate metrics.
#[derive(Debug)]
pub struct Cluster {
    nodes: Vec<Node>,
}

impl Cluster {
    /// Build a homogeneous cluster of `n` nodes from one spec.
    pub fn homogeneous(spec: &ServerSpec, n: usize) -> Self {
        let nodes = (0..n).map(|i| Node::new(NodeId(i), spec.clone())).collect();
        Cluster { nodes }
    }

    /// Empty cluster; nodes added via [`Cluster::push`].
    pub fn new() -> Self {
        Cluster { nodes: Vec::new() }
    }

    /// Append a node built from `spec`, returning its id.
    pub fn push(&mut self, spec: &ServerSpec) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node::new(id, spec.clone()));
        id
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Shared access to a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Exclusive access to a node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0]
    }

    /// Iterate nodes in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// Iterate nodes mutably in id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Node> {
        self.nodes.iter_mut()
    }

    /// Instantaneous cluster power draw, watts.
    pub fn power_now(&self) -> f64 {
        self.nodes.iter().map(|n| n.power_now()).sum()
    }

    /// Total energy consumed through `now`, joules.
    pub fn energy_joules(&self, now: SimTime) -> f64 {
        self.nodes.iter().map(|n| n.energy_joules(now)).sum()
    }

    /// Start recording per-node power steps on every node (telemetry
    /// timelines). Idempotent.
    pub fn enable_power_trace(&mut self) {
        for n in &mut self.nodes {
            n.enable_power_trace();
        }
    }

    /// Mean CPU utilisation across nodes (instantaneous).
    pub fn mean_cpu_utilization(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes.iter().map(|n| n.cpu_utilization()).sum::<f64>() / self.nodes.len() as f64
    }

    /// Mean memory utilisation across nodes (instantaneous).
    pub fn mean_mem_utilization(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes.iter().map(|n| n.mem_utilization()).sum::<f64>() / self.nodes.len() as f64
    }
}

impl Default for Cluster {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edison_hw::presets;

    #[test]
    fn homogeneous_cluster_has_table3_idle_power() {
        let c = Cluster::homogeneous(&presets::edison(), 35);
        assert_eq!(c.len(), 35);
        // 35 idle Edison nodes: 49.0 W (Table 3)
        assert!((c.power_now() - 49.0).abs() < 0.01);
    }

    #[test]
    fn dell_cluster_idle_power() {
        let c = Cluster::homogeneous(&presets::dell_r620(), 3);
        assert!((c.power_now() - 156.0).abs() < 0.01);
    }

    #[test]
    fn idle_energy_integrates() {
        let c = Cluster::homogeneous(&presets::edison(), 35);
        let e = c.energy_joules(SimTime::from_secs(100));
        assert!((e - 4900.0).abs() < 1.0);
    }

    #[test]
    fn mixed_cluster_via_push() {
        let mut c = Cluster::new();
        let a = c.push(&presets::edison());
        let b = c.push(&presets::dell_r620());
        assert_eq!(a, NodeId(0));
        assert_eq!(b, NodeId(1));
        assert!((c.power_now() - (1.40 + 52.0)).abs() < 1e-9);
    }
}
