//! Figure 4: SNV-calling runtime vs. number of containers, Hi-WAY vs Tez.
//!
//! The paper's first scalability experiment: the variant-calling workflow
//! on a 24-node local cluster behind a single 1 GbE switch, run with 72,
//! 144, 288, and 576 one-core containers. "Scalability beyond 96
//! containers was limited by network bandwidth. … Hi-WAY performs
//! comparably to Tez while network resources are sufficient, yet scales
//! favorably in light of limited network resources due to its data-aware
//! scheduling policy."
//!
//! Container counts are realized exactly as in a YARN deployment: each
//! NodeManager advertises `containers/24` one-core slots.

use hiway_core::driver::Runtime;
use hiway_core::{HiwayConfig, SchedulerPolicy};
use hiway_lang::cuneiform::CuneiformWorkflow;
use hiway_obs::profile::{self, Section};
use hiway_provdb::ProvDb;
use hiway_sim::NodeId;
use hiway_workloads::baseline::{run_dag, Baseline};
use hiway_workloads::profiles;
use hiway_workloads::snv::SnvParams;
use hiway_yarn::Resource;

use crate::experiments::common::{self, materialize, run_one};
use crate::stats::Summary;

/// One point of the figure.
#[derive(Clone, Debug)]
pub struct Fig4Point {
    pub containers: u32,
    pub hiway_mins: Summary,
    pub tez_mins: Summary,
}

/// Experiment parameters (defaults follow the paper; shrink for tests).
#[derive(Clone, Debug)]
pub struct Fig4Params {
    pub nodes: usize,
    pub container_counts: Vec<u32>,
    pub samples: usize,
    pub runs: usize,
    /// Uniform scale on all CPU costs (1.0 = paper scale). Shrunk
    /// instances use <1 to preserve the compute-to-network ratio.
    pub cpu_scale: f64,
}

impl Default for Fig4Params {
    fn default() -> Fig4Params {
        Fig4Params {
            nodes: 24,
            container_counts: vec![72, 144, 288, 576],
            samples: 72, // 72 samples × 8 read files = 576 align tasks
            runs: 3,
            cpu_scale: 1.0,
        }
    }
}

/// Runs the sweep. Every (container count, repetition) cell is seeded
/// independently, so the cells fan out across threads; results are merged
/// back in sweep order and the rendered table is identical to a
/// sequential run.
pub fn run(params: &Fig4Params) -> Result<Vec<Fig4Point>, String> {
    let snv = SnvParams::fig4(params.samples).scaled(params.cpu_scale);
    let mut jobs = Vec::new();
    for &containers in &params.container_counts {
        for run_idx in 0..params.runs {
            jobs.push((containers, run_idx));
        }
    }
    let cells = common::par_map(jobs, |(containers, run_idx)| {
        let per_node = (containers as usize / params.nodes).max(1) as u32;
        let seed = 1000 * containers as u64 + run_idx as u64;
        let (_, h) = run_hiway(params, &snv, per_node, seed, &[])?;
        let (_, t) = run_tez_baseline(params, &snv, per_node, seed, &[])?;
        Ok::<(f64, f64), String>((h / 60.0, t / 60.0))
    });
    let mut points = Vec::new();
    let mut cells = cells.into_iter();
    for &containers in &params.container_counts {
        let mut hiway = Vec::new();
        let mut tez = Vec::new();
        for _ in 0..params.runs {
            let (h, t) = cells.next().expect("one cell per (count, run)")?;
            hiway.push(h);
            tez.push(t);
        }
        points.push(Fig4Point {
            containers,
            hiway_mins: Summary::of(&hiway),
            tez_mins: Summary::of(&tez),
        });
    }
    Ok(points)
}

/// One Hi-WAY run: the runtime and the makespan in seconds, with usage
/// accounted on the `watch` nodes.
fn run_hiway(
    params: &Fig4Params,
    snv: &SnvParams,
    containers_per_node: u32,
    seed: u64,
    watch: &[NodeId],
) -> Result<(Runtime, f64), String> {
    let mut deployment = profiles::local_cluster(params.nodes, seed);
    for &node in watch {
        deployment.runtime.cluster.engine.watch_usage(node);
    }
    for node in 0..params.nodes {
        deployment.runtime.cluster.rm.set_capacity(
            NodeId(node as u32),
            Resource::new(containers_per_node, containers_per_node as u64 * 1024),
        );
    }
    for (path, size) in snv.input_files() {
        deployment.runtime.cluster.prestage(&path, size);
    }
    let source = CuneiformWorkflow::parse("snv-fig4", &snv.cuneiform_source(), seed)
        .map_err(|e| e.to_string())?;
    let config = HiwayConfig {
        container_resource: Resource::new(1, 1024),
        scheduler: SchedulerPolicy::DataAware,
        seed,
        write_trace: false, // not measured; avoids huge trace strings
        ..HiwayConfig::default()
    };
    let secs = run_one(
        &mut deployment.runtime,
        Box::new(source),
        config,
        ProvDb::new(),
    )?;
    Ok((deployment.runtime, secs))
}

/// One Tez baseline run: the runtime and the makespan in seconds, with
/// usage accounted on the `watch` nodes.
fn run_tez_baseline(
    params: &Fig4Params,
    snv: &SnvParams,
    containers_per_node: u32,
    seed: u64,
    watch: &[NodeId],
) -> Result<(Runtime, f64), String> {
    let mut deployment = profiles::local_cluster(params.nodes, seed);
    for &node in watch {
        deployment.runtime.cluster.engine.watch_usage(node);
    }
    for (path, size) in snv.input_files() {
        deployment.runtime.cluster.prestage(&path, size);
    }
    let source = CuneiformWorkflow::parse("snv-fig4", &snv.cuneiform_source(), seed)
        .map_err(|e| e.to_string())?;
    let workflow = materialize(Box::new(source))?;
    let _p = profile::section(Section::BaselineRun);
    let report = run_dag(
        &mut deployment.runtime.cluster,
        workflow,
        Baseline::Tez {
            slots_per_node: containers_per_node,
            seed,
        },
    )?;
    Ok((deployment.runtime, report.runtime_secs))
}

/// Diagnostic single-point probe returning `(hiway_secs, hiway_net_gb,
/// tez_secs, tez_net_gb)` — network volume measured at the NICs, so both
/// runs watch every node. Both runs use the probe seed.
pub fn run_probe(params: &Fig4Params, containers: u32) -> Result<(f64, f64, f64, f64), String> {
    let snv = SnvParams::fig4(params.samples).scaled(params.cpu_scale);
    let per_node = (containers as usize / params.nodes).max(1) as u32;
    let seed = 123;
    let all: Vec<NodeId> = (0..params.nodes as u32).map(NodeId).collect();
    let (mut hiway, h) = run_hiway(params, &snv, per_node, seed, &all)?;
    let (mut tez, t) = run_tez_baseline(params, &snv, per_node, seed, &all)?;
    Ok((h, net_gb(&mut hiway), t, net_gb(&mut tez)))
}

/// Bytes sent by all nodes, in GB; every node must be watched.
fn net_gb(runtime: &mut Runtime) -> f64 {
    let n = runtime.cluster.node_count();
    (0..n)
        .map(|i| {
            runtime
                .cluster
                .engine
                .take_usage(NodeId(i as u32))
                .net_out_bytes
        })
        .sum::<f64>()
        / 1.0e9
}

/// Renders the figure as a text table.
pub fn render(points: &[Fig4Point]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.containers.to_string(),
                format!("{:.1}", p.hiway_mins.mean),
                format!("{:.1}", p.tez_mins.mean),
                format!("{:.2}x", p.tez_mins.mean / p.hiway_mins.mean),
            ]
        })
        .collect();
    crate::experiments::common::render_table(
        &["containers", "Hi-WAY (min)", "Tez (min)", "Tez/Hi-WAY"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shrunk instance that still exhibits the crossover: at low
    /// container counts the two engines are comparable; at high counts
    /// the shared switch penalizes Tez's placement-agnostic reads.
    #[test]
    fn data_awareness_wins_when_network_bound() {
        let params = Fig4Params {
            nodes: 6,
            container_counts: vec![6, 24],
            samples: 6,
            runs: 1,
            // Shrinking the cluster shrinks the network volume; scale the
            // CPU down with it to keep the full experiment's
            // compute-to-network balance.
            cpu_scale: 0.05,
        };
        let points = run(&params).unwrap();
        assert_eq!(points.len(), 2);
        let low = &points[0];
        let high = &points[1];
        // More containers must speed both systems up.
        assert!(high.hiway_mins.mean < low.hiway_mins.mean);
        assert!(high.tez_mins.mean < low.tez_mins.mean);
        // At saturation, Hi-WAY holds an advantage.
        assert!(
            high.tez_mins.mean > high.hiway_mins.mean * 1.05,
            "hi-way {:.2} vs tez {:.2}",
            high.hiway_mins.mean,
            high.tez_mins.mean
        );
    }
}
