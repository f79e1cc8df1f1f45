//! Figure 6: resource utilization of the potential bottleneck nodes.
//!
//! During the weak-scaling runs, the paper monitors CPU load (`uptime`),
//! I/O device utilization (`iostat`), and network throughput (`ifstat`)
//! on the Hadoop-master VM, the Hi-WAY-AM VM, and one worker. Findings to
//! reproduce: "a steady increase in load across all resources for the
//! Hadoop and Hi-WAY master nodes when repeatedly doubling the workload…
//! all resources are still utilized less than 5 % even when processing
//! one terabyte of data across 128 worker nodes", while "CPU utilization
//! stays close to the maximum of 2.0 on the worker nodes".

use hiway_sim::{NodeId, UsageSample};

use crate::experiments::table2::run_rung;

/// Utilization of the three monitored roles at one cluster size.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    pub workers: usize,
    pub hadoop_master: UsageSample,
    pub hiway_am: UsageSample,
    pub worker: UsageSample,
}

/// Parameters (cluster sizes to sample).
#[derive(Clone, Debug)]
pub struct Fig6Params {
    pub worker_counts: Vec<usize>,
}

impl Default for Fig6Params {
    fn default() -> Fig6Params {
        Fig6Params {
            worker_counts: vec![1, 2, 4, 8, 16, 32, 64, 128],
        }
    }
}

/// Runs the sweep, sampling each node's whole-run average utilization.
pub fn run(params: &Fig6Params) -> Result<Vec<Fig6Row>, String> {
    let mut rows = Vec::new();
    for &workers in &params.worker_counts {
        let (hadoop, am, wrk) = (NodeId(0), NodeId(1), NodeId(2));
        let (mut runtime, _secs) = run_rung(workers, workers as u64, &[hadoop, am, wrk])?;
        let engine = &mut runtime.cluster.engine;
        let hadoop_master = engine.take_usage(hadoop).sample();
        let hiway_am = engine.take_usage(am).sample();
        let worker = engine.take_usage(wrk).sample();
        rows.push(Fig6Row {
            workers,
            hadoop_master,
            hiway_am,
            worker,
        });
    }
    Ok(rows)
}

/// Renders the three panels as one table.
pub fn render(rows: &[Fig6Row]) -> String {
    let fmt = |s: &UsageSample| {
        vec![
            format!("{:.3}", s.cpu_load),
            format!("{:.3}", s.io_util),
            format!("{:.2}", s.net_bps() / 1.0e6),
        ]
    };
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.workers.to_string()];
            row.extend(fmt(&r.hadoop_master));
            row.extend(fmt(&r.hiway_am));
            row.extend(fmt(&r.worker));
            row
        })
        .collect();
    crate::experiments::common::render_table(
        &[
            "workers", "hdp cpu", "hdp io", "hdp MB/s", "am cpu", "am io", "am MB/s", "wrk cpu",
            "wrk io", "wrk MB/s",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masters_stay_idle_while_workers_saturate() {
        let params = Fig6Params {
            worker_counts: vec![1, 4],
        };
        let rows = run(&params).unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            // Master CPU load stays below 5% of the node's 2 cores.
            assert!(
                row.hadoop_master.cpu_load < 0.1,
                "hadoop master load {}",
                row.hadoop_master.cpu_load
            );
            assert!(
                row.hiway_am.cpu_load < 0.2,
                "am load {}",
                row.hiway_am.cpu_load
            );
            // Workers are CPU-bound: close to the 2-core ceiling.
            assert!(
                row.worker.cpu_load > 1.5,
                "worker load {}",
                row.worker.cpu_load
            );
            assert!(row.worker.cpu_load <= 2.0 + 1e-9);
        }
        // Master load grows with the cluster.
        assert!(rows[1].hadoop_master.cpu_load >= rows[0].hadoop_master.cpu_load);
    }
}
