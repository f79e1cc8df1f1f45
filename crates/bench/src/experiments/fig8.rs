//! Figure 8: TRAPLINE RNA-seq on Hi-WAY vs Galaxy CloudMan.
//!
//! The paper runs the TRAPLINE Galaxy workflow on 1–6 c3.2xlarge nodes,
//! one task per node, five repetitions per size, and finds that "across
//! all of the tested cluster sizes… Hi-WAY outperformed Galaxy CloudMan
//! by at least 25 %", attributing the difference to Hi-WAY using the
//! workers' transient local SSDs (HDFS + container scratch) while
//! CloudMan stores everything on a shared network-attached EBS volume.

use hiway_core::SchedulerPolicy;
use hiway_lang::galaxy::parse_galaxy;
use hiway_obs::profile::{self, Section};
use hiway_provdb::ProvDb;
use hiway_sim::NodeSpec;
use hiway_workloads::baseline::run_cloudman;
use hiway_workloads::profiles;
use hiway_workloads::rnaseq::RnaseqParams;

use crate::experiments::common::{self, run_one};
use crate::stats::Summary;

/// One cluster size.
#[derive(Clone, Debug)]
pub struct Fig8Point {
    pub nodes: usize,
    pub hiway_mins: Summary,
    pub cloudman_mins: Summary,
}

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Fig8Params {
    pub node_counts: Vec<usize>,
    pub runs: usize,
}

impl Default for Fig8Params {
    fn default() -> Fig8Params {
        Fig8Params {
            node_counts: vec![1, 2, 3, 4, 5, 6],
            runs: 5,
        }
    }
}

/// Runs the comparison. Each (cluster size, repetition) cell is seeded
/// independently and runs on its own thread; results merge in sweep order.
pub fn run(params: &Fig8Params) -> Result<Vec<Fig8Point>, String> {
    let rnaseq = RnaseqParams::default();
    let mut jobs = Vec::new();
    for &nodes in &params.node_counts {
        for r in 0..params.runs {
            jobs.push((nodes, r));
        }
    }
    let cells = common::par_map(jobs, |(nodes, r)| {
        let seed = nodes as u64 * 1000 + r as u64;
        let h = run_hiway(&rnaseq, nodes, seed)? / 60.0;
        let c = run_cloudman_baseline(&rnaseq, nodes, seed)? / 60.0;
        Ok::<(f64, f64), String>((h, c))
    });
    let mut points = Vec::new();
    let mut cells = cells.into_iter();
    for &nodes in &params.node_counts {
        let mut hiway = Vec::new();
        let mut cloudman = Vec::new();
        for _ in 0..params.runs {
            let (h, c) = cells.next().expect("one cell per (size, run)")?;
            hiway.push(h);
            cloudman.push(c);
        }
        points.push(Fig8Point {
            nodes,
            hiway_mins: Summary::of(&hiway),
            cloudman_mins: Summary::of(&cloudman),
        });
    }
    Ok(points)
}

fn run_hiway(rnaseq: &RnaseqParams, nodes: usize, seed: u64) -> Result<f64, String> {
    let mut deployment = profiles::ec2_cluster(nodes, &NodeSpec::c3_2xlarge("proto"), seed);
    for (path, size) in rnaseq.input_files() {
        deployment.runtime.cluster.prestage(&path, size);
    }
    let source = parse_galaxy(
        &rnaseq.galaxy_json(),
        &rnaseq.input_bindings(),
        &rnaseq.tool_profiles(),
    )
    .map_err(|e| e.to_string())?;
    // One task per node: the paper configured both systems this way
    // because several TRAPLINE tools need most of the node's memory.
    let mut config = profiles::whole_node_config(&NodeSpec::c3_2xlarge("proto"));
    config.scheduler = SchedulerPolicy::DataAware;
    config.seed = seed;
    config.write_trace = false;
    run_one(
        &mut deployment.runtime,
        Box::new(source),
        config,
        ProvDb::new(),
    )
}

fn run_cloudman_baseline(rnaseq: &RnaseqParams, nodes: usize, seed: u64) -> Result<f64, String> {
    let (mut cluster, ebs) =
        profiles::cloudman_cluster(nodes, &NodeSpec::c3_2xlarge("proto"), seed);
    // CloudMan keeps workflow data on the shared volume.
    for (path, size) in rnaseq.input_files() {
        cluster.register_external_file(&path, ebs, size);
    }
    let workflow = parse_galaxy(
        &rnaseq.galaxy_json(),
        &rnaseq.input_bindings(),
        &rnaseq.tool_profiles(),
    )
    .map_err(|e| e.to_string())?;
    let _p = profile::section(Section::BaselineRun);
    let report = run_cloudman(&mut cluster, workflow, ebs)?;
    Ok(report.runtime_secs)
}

/// Renders the figure as a text table.
pub fn render(points: &[Fig8Point]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.nodes.to_string(),
                format!("{:.2}", p.hiway_mins.mean),
                format!("{:.2}", p.cloudman_mins.mean),
                format!(
                    "{:.0}%",
                    (p.cloudman_mins.mean / p.hiway_mins.mean - 1.0) * 100.0
                ),
            ]
        })
        .collect();
    crate::experiments::common::render_table(
        &[
            "nodes",
            "Hi-WAY (min)",
            "CloudMan (min)",
            "CloudMan overhead",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hiway_beats_cloudman_by_25_percent() {
        let params = Fig8Params {
            node_counts: vec![1, 6],
            runs: 1,
        };
        let points = run(&params).unwrap();
        for p in &points {
            assert!(
                p.cloudman_mins.mean >= p.hiway_mins.mean * 1.25,
                "{} nodes: hi-way {:.1} vs cloudman {:.1}",
                p.nodes,
                p.hiway_mins.mean,
                p.cloudman_mins.mean
            );
        }
        // Both systems speed up with more nodes (parallelism 6).
        assert!(points[1].hiway_mins.mean < points[0].hiway_mins.mean / 2.0);
        assert!(points[1].cloudman_mins.mean < points[0].cloudman_mins.mean / 2.0);
        // Single-node Hi-WAY lands in the paper's ballpark (232 min).
        assert!(
            (170.0..300.0).contains(&points[0].hiway_mins.mean),
            "{:.1} min",
            points[0].hiway_mins.mean
        );
    }
}
