//! The paper's computational infrastructures.
//!
//! Three setups appear in the evaluation:
//!
//! 1. **Local cluster** (§4.1, first experiment / Figure 4): 24 nodes,
//!    each with two Xeon E5-2620 processors (24 virtual cores) and 24 GB
//!    of memory, "connected via a one gigabit switch" — the switch is the
//!    scarce resource the data-aware scheduler economizes.
//! 2. **EC2 m3.large virtual clusters** (§4.1 second experiment, §4.3):
//!    1–128 workers plus two dedicated master nodes (Hadoop masters and
//!    the Hi-WAY AM), input streamed from S3.
//! 3. **EC2 c3.2xlarge clusters** (§4.2): 1–6 workers, one task per node.

use hiway_core::cluster::Cluster;
use hiway_core::driver::{MasterOverhead, Runtime};
use hiway_hdfs::HdfsConfig;
use hiway_sim::{ClusterSpec, ExternalId, ExternalSpec, NodeId, NodeSpec};
use hiway_yarn::Resource;

/// A built infrastructure, ready for workflow submission.
pub struct Deployment {
    pub runtime: Runtime,
    /// Index of the first worker node (masters precede workers).
    pub first_worker: usize,
    pub workers: usize,
    pub s3: Option<ExternalId>,
    pub ebs: Option<ExternalId>,
}

impl Deployment {
    pub fn worker_ids(&self) -> Vec<NodeId> {
        (self.first_worker..self.first_worker + self.workers)
            .map(|i| NodeId(i as u32))
            .collect()
    }
}

/// The 24-node local Xeon cluster behind one 1 GbE switch (Figure 4).
/// No dedicated masters: the paper ran Hadoop alongside the workers, and
/// every node is a DataNode.
pub fn local_cluster(nodes: usize, seed: u64) -> Deployment {
    let mut spec = ClusterSpec::homogeneous(nodes, "xeon", &NodeSpec::xeon_e5_2620("proto"));
    // One gigabit *switch*: the aggregate backplane is the constraint the
    // paper observed ("scalability beyond 96 containers was limited by
    // network bandwidth"). 1 Gbit/s ≈ 125 MB/s of shared core capacity.
    spec.switch_bps = Some(125.0e6);
    // Bulky pipeline intermediates are kept at replication 2, a common
    // Hadoop tuning on small clusters with constrained fabrics.
    let hdfs = HdfsConfig {
        replication: 3,
        ..HdfsConfig::default()
    };
    let cluster = Cluster::with_hdfs_config(spec, hdfs, seed);
    let runtime = Runtime::new(cluster);
    Deployment {
        runtime,
        first_worker: 0,
        workers: nodes,
        s3: None,
        ebs: None,
    }
}

/// An EC2 virtual cluster in the paper's §4.1/§4.3 layout: node 0 hosts
/// the Hadoop masters (NameNode + ResourceManager; never runs containers,
/// not a DataNode), node 1 is dedicated to the Hi-WAY AM container, and
/// nodes 2.. are workers. S3 is attached for streaming input.
/// EC2 instances of one type don't perform identically (noisy
/// neighbours, CPU steal) — the paper attributes its runtime variance to
/// such "external factors". A seeded ±3 % speed jitter per VM reproduces
/// that run-to-run noise.
fn speed_jitter(seed: u64, i: u64) -> f64 {
    let mut h = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 31;
    0.97 + 0.06 * ((h % 10_000) as f64 / 10_000.0)
}

pub fn ec2_cluster(workers: usize, node_type: &NodeSpec, seed: u64) -> Deployment {
    let mut spec = ClusterSpec::default();
    spec.add_node(NodeSpec {
        name: "hadoop-master".into(),
        ..node_type.clone()
    });
    spec.add_node(NodeSpec {
        name: "am-master".into(),
        ..node_type.clone()
    });
    for i in 0..workers {
        spec.add_node(NodeSpec {
            name: format!("worker-{i}"),
            speed: node_type.speed * speed_jitter(seed, i as u64),
            ..node_type.clone()
        });
    }
    let s3 = spec.add_external(ExternalSpec::s3());
    let mut cluster = Cluster::new(spec, seed);

    // The Hadoop master is not a DataNode and takes no containers.
    cluster.hdfs.fail_node(NodeId(0)).expect("node exists");
    cluster.rm.set_capacity(NodeId(0), Resource::ZERO);
    // The AM node is not a DataNode and only fits the AM container.
    cluster.hdfs.fail_node(NodeId(1)).expect("node exists");
    cluster.rm.set_capacity(NodeId(1), Resource::new(1, 2048));

    let mut runtime = Runtime::new(cluster);
    runtime.master_overhead = Some(MasterOverhead {
        hadoop_master: NodeId(0),
        am_master: NodeId(1),
    });
    Deployment {
        runtime,
        first_worker: 2,
        workers,
        s3: Some(s3),
        ebs: None,
    }
}

/// The CloudMan-style cluster for the Figure 8 baseline: same worker
/// nodes, but all storage on a shared network-attached EBS volume.
pub fn cloudman_cluster(workers: usize, node_type: &NodeSpec, seed: u64) -> (Cluster, ExternalId) {
    let mut spec = ClusterSpec::default();
    for i in 0..workers {
        spec.add_node(NodeSpec {
            name: format!("worker-{i}"),
            speed: node_type.speed * speed_jitter(seed, i as u64),
            ..node_type.clone()
        });
    }
    let ebs = spec.add_external(ExternalSpec::ebs_shared());
    (Cluster::new(spec, seed), ebs)
}

/// Whole-node container configuration matching a node profile, as used in
/// the weak-scaling and RNA-seq experiments ("only allow execution of a
/// single task per worker node at any time").
pub fn whole_node_config(node_type: &NodeSpec) -> hiway_core::HiwayConfig {
    hiway_core::HiwayConfig::whole_node(node_type.cores, node_type.memory_mb.saturating_sub(500))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_cluster_has_switch_limit() {
        let d = local_cluster(24, 1);
        assert_eq!(d.runtime.cluster.node_count(), 24);
        assert_eq!(d.runtime.cluster.engine.spec().switch_bps, Some(125.0e6));
        assert_eq!(d.worker_ids().len(), 24);
    }

    #[test]
    fn ec2_cluster_reserves_masters() {
        let d = ec2_cluster(4, &NodeSpec::m3_large("p"), 2);
        let c = &d.runtime.cluster;
        assert_eq!(c.node_count(), 6);
        // Masters are not DataNodes.
        assert!(!c.hdfs.is_alive(NodeId(0)));
        assert!(!c.hdfs.is_alive(NodeId(1)));
        assert!(c.hdfs.is_alive(NodeId(2)));
        // Hadoop master accepts no containers; AM master only a small one.
        assert_eq!(c.rm.total(NodeId(0)), Resource::ZERO);
        assert_eq!(c.rm.total(NodeId(1)), Resource::new(1, 2048));
        assert_eq!(
            d.worker_ids(),
            vec![NodeId(2), NodeId(3), NodeId(4), NodeId(5)]
        );
        assert!(d.runtime.master_overhead.is_some());
    }

    #[test]
    fn cloudman_cluster_has_shared_ebs() {
        let (c, ebs) = cloudman_cluster(3, &NodeSpec::c3_2xlarge("p"), 3);
        assert_eq!(c.node_count(), 3);
        let ext = c.engine.spec().external(ebs);
        assert!(ext.via_switch);
        assert!(ext.aggregate_bps.is_finite());
    }
}
