//! Table 2 / Figure 5: weak scaling of the SNV workflow on EC2.
//!
//! "The workflow was first run using a single worker node, processing a
//! single genomic sample comprising eight files, each about one gigabyte
//! in size… In subsequent runs, we then repeatedly doubled the number of
//! worker nodes and volume of input data", up to 128 workers and more
//! than a terabyte, with reads obtained from S3 *during* execution and
//! CRAM-compressed intermediates. The paper observes near-linear weak
//! scaling: runtime stays in the 340–380 minute band throughout, and cost
//! per gigabyte falls from $0.31 to ~$0.10.

use hiway_core::SchedulerPolicy;
use hiway_lang::cuneiform::CuneiformWorkflow;
use hiway_provdb::ProvDb;
use hiway_sim::{NodeId, NodeSpec};
use hiway_workloads::profiles;
use hiway_workloads::snv::SnvParams;

use crate::experiments::common::{self, run_one};
use crate::stats::Summary;

/// Hourly price of an m3.large instance in EU West at the time of
/// writing of the paper (its cost rows divide out to this rate).
pub const M3_LARGE_USD_PER_HOUR: f64 = 0.146;

/// One rung of the weak-scaling ladder.
#[derive(Clone, Debug)]
pub struct Table2Row {
    pub workers: usize,
    pub masters: usize,
    pub data_bytes: u64,
    pub runtime_mins: Summary,
    pub avg_cost_per_run_usd: f64,
    pub avg_cost_per_gb_usd: f64,
}

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Table2Params {
    pub worker_counts: Vec<usize>,
    pub runs: usize,
}

impl Default for Table2Params {
    fn default() -> Table2Params {
        Table2Params {
            worker_counts: vec![1, 2, 4, 8, 16, 32, 64, 128],
            runs: 3,
        }
    }
}

/// Runs one rung once and returns the runtime in seconds. Usage is
/// accounted on the `watch` nodes only (see `Engine::watch_usage`), so the
/// Figure 6 harness reuses it to sample its three nodes' utilization and
/// Table 2 passes none.
pub fn run_rung(
    workers: usize,
    seed: u64,
    watch: &[NodeId],
) -> Result<(hiway_core::driver::Runtime, f64), String> {
    let snv = SnvParams::table2(workers); // one sample per worker
    let mut deployment = profiles::ec2_cluster(workers, &NodeSpec::m3_large("proto"), seed);
    for &node in watch {
        deployment.runtime.cluster.engine.watch_usage(node);
    }
    let s3 = deployment.s3.expect("ec2 cluster has S3");
    for (path, size) in snv.input_files() {
        deployment
            .runtime
            .cluster
            .register_external_file(&path, s3, size);
    }
    let source = CuneiformWorkflow::parse("snv-weak-scaling", &snv.cuneiform_source(), seed)
        .map_err(|e| e.to_string())?;
    let mut config = profiles::whole_node_config(&NodeSpec::m3_large("proto"));
    config.scheduler = SchedulerPolicy::Fcfs; // as configured in the paper
    config.seed = seed;
    config.write_trace = false;
    let secs = run_one(
        &mut deployment.runtime,
        Box::new(source),
        config,
        ProvDb::new(),
    )?;
    Ok((deployment.runtime, secs))
}

/// Runs the whole ladder. Each (rung, repetition) cell is independently
/// seeded and fans out across threads; rows merge in ladder order.
pub fn run(params: &Table2Params) -> Result<Vec<Table2Row>, String> {
    let mut jobs = Vec::new();
    for &workers in &params.worker_counts {
        for r in 0..params.runs {
            jobs.push((workers, r));
        }
    }
    let cells = common::par_map(jobs, |(workers, r)| {
        let seed = workers as u64 * 100 + r as u64;
        let (_, secs) = run_rung(workers, seed, &[])?;
        Ok::<f64, String>(secs / 60.0)
    });
    let mut cells = cells.into_iter();
    let mut rows = Vec::new();
    for &workers in &params.worker_counts {
        let snv = SnvParams::table2(workers);
        let mut runtimes = Vec::new();
        for _ in 0..params.runs {
            runtimes.push(cells.next().expect("one cell per (rung, run)")?);
        }
        let summary = Summary::of(&runtimes);
        let masters = 2;
        let vms = workers + masters;
        let cost_per_run = vms as f64 * (summary.mean / 60.0) * M3_LARGE_USD_PER_HOUR;
        let gb = snv.total_input_bytes() as f64 / 1.0e9;
        rows.push(Table2Row {
            workers,
            masters,
            data_bytes: snv.total_input_bytes(),
            runtime_mins: summary,
            avg_cost_per_run_usd: cost_per_run,
            avg_cost_per_gb_usd: cost_per_run / gb,
        });
    }
    Ok(rows)
}

/// Renders the table (and the Figure 5 series, which is the same data).
pub fn render(rows: &[Table2Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workers.to_string(),
                r.masters.to_string(),
                format!("{:.2} GB", r.data_bytes as f64 / 1.0e9),
                format!("{:.2}", r.runtime_mins.mean),
                format!("{:.2}", r.runtime_mins.std_dev),
                format!("${:.2}", r.avg_cost_per_run_usd),
                format!("${:.2}", r.avg_cost_per_gb_usd),
            ]
        })
        .collect();
    crate::experiments::common::render_table(
        &[
            "workers",
            "masters",
            "data volume",
            "avg runtime (min)",
            "std dev",
            "cost/run",
            "cost/GB",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weak_scaling_holds_over_two_doublings() {
        let params = Table2Params {
            worker_counts: vec![1, 2, 4],
            runs: 1,
        };
        let rows = run(&params).unwrap();
        assert_eq!(rows.len(), 3);
        let base = rows[0].runtime_mins.mean;
        // Paper band: 340–380 minutes. Allow a loose 300–420 here.
        assert!(
            (300.0..420.0).contains(&base),
            "single-worker runtime {base:.1} min"
        );
        for row in &rows {
            let drift = row.runtime_mins.mean / base;
            assert!(
                (0.9..1.15).contains(&drift),
                "weak scaling broke at {} workers: {:.1} min",
                row.workers,
                row.runtime_mins.mean
            );
        }
        // Cost per GB decreases as masters amortize.
        assert!(rows[2].avg_cost_per_gb_usd < rows[0].avg_cost_per_gb_usd);
        // Data volume doubles with workers (up to per-file size jitter).
        let ratio = rows[1].data_bytes as f64 / rows[0].data_bytes as f64;
        assert!((1.8..2.2).contains(&ratio), "ratio {ratio}");
    }
}
