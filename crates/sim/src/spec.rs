//! Cluster hardware descriptions.
//!
//! A [`ClusterSpec`] captures everything the kernel needs to know about the
//! simulated datacenter: the compute nodes (cores, memory, disk and NIC
//! bandwidth), an optional shared-switch aggregate capacity (the paper's
//! local 24-node cluster hangs off a single 1 GbE switch, which is exactly
//! the bottleneck Figure 4 exercises), and external data services such as
//! Amazon S3 (the staging source in the Table 2 weak-scaling experiment) or
//! a network-attached EBS volume (the Galaxy CloudMan baseline of Figure 8).

/// Identifier of a simulated compute node (index into [`ClusterSpec::nodes`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of an external data service (index into [`ClusterSpec::externals`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ExternalId(pub u32);

impl ExternalId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Hardware profile of one compute node.
#[derive(Clone, Debug)]
pub struct NodeSpec {
    /// Human-readable name, e.g. `worker-3`.
    pub name: String,
    /// Number of (virtual) processor cores.
    pub cores: u32,
    /// Main memory in megabytes. Enforced by the YARN layer, not the kernel.
    pub memory_mb: u64,
    /// Local disk read bandwidth in bytes/second.
    pub disk_read_bps: f64,
    /// Local disk write bandwidth in bytes/second.
    pub disk_write_bps: f64,
    /// NIC bandwidth in bytes/second (full duplex: the cap applies to each
    /// direction independently).
    pub nic_bps: f64,
    /// Relative CPU speed factor; 1.0 is the reference machine. CPU work is
    /// expressed in reference CPU-seconds, so a node with `speed` 0.5 takes
    /// twice as long. Used to model heterogeneous infrastructures.
    pub speed: f64,
}

impl NodeSpec {
    /// A convenience profile resembling an EC2 m3.large instance
    /// (2 vCPUs, 7.5 GB RAM, local SSD), used throughout the paper's
    /// scalability and scheduling experiments.
    pub fn m3_large(name: impl Into<String>) -> NodeSpec {
        NodeSpec {
            name: name.into(),
            cores: 2,
            memory_mb: 7_500,
            disk_read_bps: 220.0e6,
            disk_write_bps: 180.0e6,
            nic_bps: 87.5e6, // ~700 Mbit/s "moderate" EC2 networking
            speed: 1.0,
        }
    }

    /// EC2 c3.2xlarge (8 vCPUs, 15 GB RAM, 160 GB local SSD) — the node
    /// type of the RNA-seq experiment in Section 4.2.
    pub fn c3_2xlarge(name: impl Into<String>) -> NodeSpec {
        NodeSpec {
            name: name.into(),
            cores: 8,
            memory_mb: 15_000,
            disk_read_bps: 350.0e6,
            disk_write_bps: 300.0e6,
            nic_bps: 125.0e6, // ~1 Gbit/s
            speed: 1.15,
        }
    }

    /// The paper's local cluster node: two Xeon E5-2620 processors exposing
    /// 24 virtual cores and 24 GB of memory, on a shared 1 GbE switch.
    pub fn xeon_e5_2620(name: impl Into<String>) -> NodeSpec {
        NodeSpec {
            name: name.into(),
            cores: 24,
            memory_mb: 24_000,
            disk_read_bps: 150.0e6,
            disk_write_bps: 120.0e6,
            nic_bps: 125.0e6, // 1 Gbit/s NIC
            speed: 1.0,
        }
    }
}

/// An external data service reachable over the network (S3, EBS, a remote
/// repository). Flows to/from an external endpoint are constrained by the
/// service's aggregate capacity and optionally by a per-flow cap, in
/// addition to the node NIC on the cluster side.
#[derive(Clone, Debug)]
pub struct ExternalSpec {
    pub name: String,
    /// Total bandwidth across all concurrent flows, bytes/second.
    /// `f64::INFINITY` models an effectively unlimited service such as S3.
    pub aggregate_bps: f64,
    /// Optional per-flow cap in bytes/second (e.g. EBS volume throughput).
    pub per_flow_bps: Option<f64>,
    /// Whether traffic to this service traverses the cluster switch and
    /// therefore counts against [`ClusterSpec::switch_bps`]. WAN services
    /// (S3) leave through a border router and do not; a SAN volume does.
    pub via_switch: bool,
}

impl ExternalSpec {
    /// Amazon-S3-like blob store: effectively unlimited aggregate capacity,
    /// ~80 MB/s per connection, not constrained by the cluster switch.
    pub fn s3() -> ExternalSpec {
        ExternalSpec {
            name: "s3".to_string(),
            aggregate_bps: f64::INFINITY,
            per_flow_bps: Some(80.0e6),
            via_switch: false,
        }
    }

    /// EBS-like network-attached volume shared by the whole cluster:
    /// limited aggregate throughput, traffic crosses the shared fabric.
    pub fn ebs_shared() -> ExternalSpec {
        ExternalSpec {
            name: "ebs".to_string(),
            aggregate_bps: 250.0e6,
            per_flow_bps: Some(62.5e6),
            via_switch: true,
        }
    }
}

/// Full description of a simulated cluster.
#[derive(Clone, Debug, Default)]
pub struct ClusterSpec {
    pub nodes: Vec<NodeSpec>,
    /// Aggregate switch capacity in bytes/second for all node-to-node
    /// traffic (plus external traffic flagged `via_switch`). `None` models
    /// a non-blocking fabric, appropriate for EC2 experiments.
    pub switch_bps: Option<f64>,
    pub externals: Vec<ExternalSpec>,
}

impl ClusterSpec {
    /// Builds a homogeneous cluster of `n` copies of `proto`, named
    /// `{prefix}-{i}`.
    pub fn homogeneous(n: usize, prefix: &str, proto: &NodeSpec) -> ClusterSpec {
        let nodes = (0..n)
            .map(|i| NodeSpec {
                name: format!("{prefix}-{i}"),
                ..proto.clone()
            })
            .collect();
        ClusterSpec {
            nodes,
            switch_bps: None,
            externals: Vec::new(),
        }
    }

    /// Adds an external service, returning its id.
    pub fn add_external(&mut self, ext: ExternalSpec) -> ExternalId {
        self.externals.push(ext);
        ExternalId(self.externals.len() as u32 - 1)
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, node: NodeSpec) -> NodeId {
        self.nodes.push(node);
        NodeId(self.nodes.len() as u32 - 1)
    }

    pub fn node(&self, id: NodeId) -> &NodeSpec {
        &self.nodes[id.index()]
    }

    pub fn external(&self, id: ExternalId) -> &ExternalSpec {
        &self.externals[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_builder_names_nodes() {
        let c = ClusterSpec::homogeneous(3, "w", &NodeSpec::m3_large("proto"));
        assert_eq!(c.nodes.len(), 3);
        assert_eq!(c.nodes[0].name, "w-0");
        assert_eq!(c.nodes[2].name, "w-2");
        assert!(c.switch_bps.is_none());
    }

    #[test]
    fn add_external_assigns_sequential_ids() {
        let mut c = ClusterSpec::default();
        let s3 = c.add_external(ExternalSpec::s3());
        let ebs = c.add_external(ExternalSpec::ebs_shared());
        assert_eq!(s3, ExternalId(0));
        assert_eq!(ebs, ExternalId(1));
        assert_eq!(c.external(ebs).name, "ebs");
        assert!(c.external(s3).aggregate_bps.is_infinite());
    }

    #[test]
    fn node_profiles_are_sane() {
        let m3 = NodeSpec::m3_large("a");
        assert_eq!(m3.cores, 2);
        let xeon = NodeSpec::xeon_e5_2620("b");
        assert_eq!(xeon.cores, 24);
        assert!(xeon.nic_bps <= 125.0e6);
    }
}
