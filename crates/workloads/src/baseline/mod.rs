//! Baseline systems the paper compares against, both run by
//! [`run_dag`]; a [`Baseline`] variant picks the system.
//!
//! * **Tez** (§4.1, Figure 4): "an application master for YARN that
//!   enables the execution of DAGs comprising map, reduce, and custom
//!   tasks". Our model: a DAG engine on the same simulated cluster and
//!   HDFS, with greedy slot scheduling that is *placement-agnostic* (no
//!   data-aware task selection) and container reuse (lower per-task
//!   startup cost than Hi-WAY's fresh containers). The missing data
//!   awareness is exactly the differentiator Figure 4 probes behind a
//!   shared 1 GbE switch.
//! * **Galaxy CloudMan** (§4.2, Figure 8): Galaxy with a Slurm resource
//!   manager on EC2, all storage on a network-attached EBS volume shared
//!   by the whole cluster. Our model: one task per node (the paper's
//!   memory-driven configuration) and every stage-in/stage-out crossing
//!   the shared EBS service instead of node-local disks — the mechanism
//!   the paper credits for Hi-WAY's ≥25 % advantage.

pub mod runner;

pub use runner::{run_dag, Baseline, BaselineReport};

use hiway_core::cluster::Cluster;
use hiway_lang::StaticWorkflow;
use hiway_sim::ExternalId;

/// Galaxy CloudMan "only supports the automated setup of virtual
/// clusters of up to 20 nodes" (paper §4.2) — the baseline refuses to
/// scale past it, exactly as the real system's launcher does.
pub const CLOUDMAN_MAX_NODES: usize = 20;

/// Runs a workflow the way Galaxy CloudMan (Slurm + shared EBS) would.
pub fn run_cloudman(
    cluster: &mut Cluster,
    workflow: StaticWorkflow,
    ebs: ExternalId,
) -> Result<BaselineReport, String> {
    if cluster.node_count() > CLOUDMAN_MAX_NODES {
        return Err(format!(
            "Galaxy CloudMan supports clusters of up to {CLOUDMAN_MAX_NODES} nodes, got {}",
            cluster.node_count()
        ));
    }
    run_dag(cluster, workflow, Baseline::CloudMan { volume: ebs })
}
