//! A minimal DAG executor used by both baseline models.
//!
//! Deliberately simpler than the Hi-WAY AM: greedy slot scheduling in task
//! id order, no provenance, no retries, no data-aware selection. Each task
//! walks one countdown through its phases (startup, stage-in, compute,
//! scratch, stage-out), skipping any phase that starts no activity; the
//! [`Baseline`] decides where the bytes of each phase go.

use std::collections::HashMap;

use hiway_core::cluster::{Cluster, Tag};
use hiway_core::ReadyTracker;
use hiway_lang::ir::WorkflowSource;
use hiway_lang::{StaticWorkflow, TaskId, TaskSpec};
use hiway_sim::{Activity, Endpoint, ExternalId, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The system a baseline run models; each variant fixes every knob.
#[derive(Clone, Copy, Debug)]
pub enum Baseline {
    /// Apache Tez (Figure 4): data in HDFS on the local disks,
    /// `slots_per_node` one-core containers per node, reused containers
    /// (0.2 s startup), and map/reduce-style *shuffle edges*: intermediate
    /// data crosses the network from a random (`seed`ed) upstream node
    /// regardless of where replicas sit. This is what wrapping file-based
    /// black-box tools into a Tez DAG costs — "external tools consuming
    /// and producing file-based data need to be wrapped in order to be
    /// used in Tez" (paper §2.2) — and the traffic the data-aware
    /// scheduler avoids in Figure 4.
    Tez { slots_per_node: u32, seed: u64 },
    /// Galaxy CloudMan (Figure 8): every file and every working directory
    /// on the shared `volume`, one task per node using all of its cores,
    /// 1 s startup.
    CloudMan { volume: ExternalId },
}

/// Result of a baseline run.
#[derive(Clone, Debug)]
pub struct BaselineReport {
    pub runtime_secs: f64,
    /// Node that executed each task.
    pub placements: Vec<(TaskId, NodeId)>,
}

/// A task's phases, in order.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Phase {
    Startup,
    StageIn,
    Compute,
    Scratch,
    StageOut,
    Done,
}

impl Phase {
    fn next(self) -> Phase {
        match self {
            Phase::Startup => Phase::StageIn,
            Phase::StageIn => Phase::Compute,
            Phase::Compute => Phase::Scratch,
            Phase::Scratch => Phase::StageOut,
            Phase::StageOut | Phase::Done => Phase::Done,
        }
    }
}

struct Run {
    spec: TaskSpec,
    /// Index of the executing node in the runner's node list.
    node_idx: usize,
    phase: Phase,
    /// Activities (or the startup timer) of `phase` still running.
    remaining: usize,
}

/// Executes `workflow` to completion on `cluster`. Inputs must already be
/// present: pre-staged in HDFS for Tez, registered as external files on
/// the volume for CloudMan.
pub fn run_dag(
    cluster: &mut Cluster,
    mut workflow: StaticWorkflow,
    baseline: Baseline,
) -> Result<BaselineReport, String> {
    let t0 = cluster.engine.now();
    let mut tasks: HashMap<TaskId, Run> = workflow
        .initial_tasks()
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|spec| {
            let run = Run {
                spec,
                node_idx: 0,
                phase: Phase::Startup,
                remaining: 0,
            };
            (run.spec.id, run)
        })
        .collect();
    let nodes: Vec<NodeId> = cluster.rm.alive_nodes();
    if nodes.is_empty() {
        return Err("no alive nodes".to_string());
    }
    let (slots_per_node, startup_secs, seed) = match baseline {
        Baseline::Tez {
            slots_per_node,
            seed,
        } => (slots_per_node, 0.2, seed),
        // One task per node, as configured in §4.2.
        Baseline::CloudMan { .. } => (1, 1.0, 0),
    };
    let mut free_slots = vec![slots_per_node; nodes.len()];
    let mut placements = Vec::new();
    let mut rr = 0usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut waiting = ReadyTracker::default();
    for run in tasks.values() {
        waiting.add(run.spec.id, &run.spec.inputs, |p| {
            cluster.input_available(p)
        });
    }

    loop {
        // Greedy dispatch of runnable tasks, lowest id first, onto the next
        // node with a free slot, round-robin and placement-agnostic.
        while let Some(node_idx) = (rr..rr + nodes.len())
            .map(|k| k % nodes.len())
            .find(|&k| free_slots[k] > 0)
        {
            let Some(task) = waiting.pop() else {
                break;
            };
            rr = (node_idx + 1) % nodes.len();
            free_slots[node_idx] -= 1;
            let run = tasks.get_mut(&task).expect("known");
            run.node_idx = node_idx;
            run.remaining = 1;
            cluster.engine.set_timer_after(startup_secs, tag(task));
        }

        // Each finished task records exactly one placement.
        if placements.len() == tasks.len() {
            break;
        }

        let Some(events) = cluster.engine.step() else {
            return Err(format!(
                "baseline '{}' deadlocked with {} unfinished tasks",
                workflow.name(),
                tasks.len() - placements.len()
            ));
        };
        for ev in events {
            let Tag::Attempt { task, .. } = ev else {
                continue;
            };
            let run = tasks.get_mut(&task).expect("known");
            run.remaining -= 1;
            // Advance past every phase that starts no activity.
            while run.remaining == 0 && run.phase != Phase::Done {
                run.phase = run.phase.next();
                run.remaining = start_phase(cluster, baseline, run, &nodes, &mut rng)?;
            }
            if run.remaining == 0 {
                free_slots[run.node_idx] += 1;
                placements.push((task, nodes[run.node_idx]));
                for out in &run.spec.outputs {
                    match baseline {
                        Baseline::Tez { .. } => cluster.commit_file(&out.path),
                        // Later stage-ins fetch it from the volume.
                        Baseline::CloudMan { volume } => {
                            cluster.register_external_file(&out.path, volume, out.size)
                        }
                    }
                    waiting.file_available(&out.path);
                }
            }
        }
    }

    Ok(BaselineReport {
        runtime_secs: cluster.engine.now().since(t0),
        placements,
    })
}

/// The tag of every event the runner waits on, the startup timer
/// included; the task's own countdown knows which phase the event ends.
fn tag(task: TaskId) -> Tag {
    Tag::Attempt {
        wf: u32::MAX,
        task,
        attempt: 0,
        file: 0,
    }
}

/// Starts `run`'s activities for its current phase and returns how many
/// it started.
fn start_phase(
    cluster: &mut Cluster,
    baseline: Baseline,
    run: &Run,
    nodes: &[NodeId],
    rng: &mut StdRng,
) -> Result<usize, String> {
    let node = nodes[run.node_idx];
    let tag = tag(run.spec.id);
    let flow = |src, dst, src_disk, dst_disk| Activity::Flow {
        src,
        dst,
        src_disk,
        dst_disk,
    };
    let mut acts = 0;
    match (run.phase, baseline) {
        (Phase::Startup | Phase::Done, _) => {}
        (Phase::StageIn, _) => {
            for path in &run.spec.inputs {
                if matches!(baseline, Baseline::CloudMan { .. })
                    || cluster.external_file(path).is_some()
                {
                    acts += cluster
                        .start_input(path, node, tag.clone())
                        .map_err(|e| e.to_string())?
                        .len();
                    continue;
                }
                // Shuffle edge: the bytes cross the network from a random
                // upstream container's node.
                let size = cluster.hdfs.len(path).map_err(|e| e.to_string())? as f64;
                let src = nodes[rng.gen_range(0..nodes.len())];
                if size > 0.0 {
                    let act = if src != node {
                        flow(Endpoint::Node(src), Endpoint::Node(node), true, true)
                    } else {
                        Activity::DiskRead { node }
                    };
                    cluster.engine.start(act, size, tag.clone());
                    acts += 1;
                }
            }
        }
        (Phase::Compute, _) => {
            let cap = match baseline {
                Baseline::Tez { .. } => 1, // one-core containers, like Hi-WAY's
                Baseline::CloudMan { .. } => cluster.engine.spec().node(node).cores,
            };
            let threads = run.spec.cost.threads.min(cap).max(1) as f64;
            let compute = Activity::Compute { node, threads };
            cluster
                .engine
                .start(compute, run.spec.cost.cpu_seconds, tag);
            acts = 1;
        }
        // Working-directory I/O: local disk for Tez, the shared volume for
        // CloudMan — the difference Figure 8 measures.
        (Phase::Scratch, _) if run.spec.cost.scratch_bytes == 0 => {}
        (Phase::Scratch, Baseline::Tez { .. }) => {
            acts = cluster
                .start_scratch(node, run.spec.cost.scratch_bytes, tag)
                .len();
        }
        (Phase::Scratch, Baseline::CloudMan { volume }) => {
            let bytes = run.spec.cost.scratch_bytes as f64;
            let (n, v) = (Endpoint::Node(node), Endpoint::External(volume));
            cluster
                .engine
                .start(flow(n, v, false, false), bytes, tag.clone());
            cluster.engine.start(flow(v, n, false, false), bytes, tag);
            acts = 2;
        }
        (Phase::StageOut, Baseline::Tez { .. }) => {
            for out in &run.spec.outputs {
                acts += cluster
                    .start_output(&out.path, out.size, node, tag.clone())
                    .map_err(|e| e.to_string())?
                    .len();
            }
        }
        (Phase::StageOut, Baseline::CloudMan { volume }) => {
            for out in run.spec.outputs.iter().filter(|o| o.size > 0) {
                let to_volume = flow(
                    Endpoint::Node(node),
                    Endpoint::External(volume),
                    false,
                    false,
                );
                cluster
                    .engine
                    .start(to_volume, out.size as f64, tag.clone());
                acts += 1;
            }
        }
    }
    Ok(acts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiway_lang::ir::{OutputSpec, TaskCost};
    use hiway_sim::{ClusterSpec, ExternalSpec, NodeSpec};

    fn task(id: u64, name: &str, inputs: &[&str], outputs: &[(&str, u64)], cpu: f64) -> TaskSpec {
        TaskSpec {
            id: TaskId(id),
            name: name.into(),
            command: name.into(),
            inputs: inputs.iter().map(|s| s.to_string()).collect(),
            outputs: outputs
                .iter()
                .map(|(p, s)| OutputSpec {
                    path: p.to_string(),
                    size: *s,
                })
                .collect(),
            cost: TaskCost::new(cpu, 2, 256),
        }
    }

    /// Tez with one container per core.
    fn tez(cluster: &mut Cluster, workflow: StaticWorkflow) -> Result<BaselineReport, String> {
        let slots_per_node = cluster.engine.spec().node(NodeId(0)).cores;
        run_dag(
            cluster,
            workflow,
            Baseline::Tez {
                slots_per_node,
                seed: 1,
            },
        )
    }

    fn chain() -> StaticWorkflow {
        StaticWorkflow::new(
            "chain",
            "test",
            vec![
                task(0, "a", &["/in"], &[("/m", 50 << 20)], 10.0),
                task(1, "b", &["/m"], &[("/out", 1 << 20)], 10.0),
            ],
        )
    }

    #[test]
    fn tez_runs_a_chain_on_hdfs() {
        let spec = ClusterSpec::homogeneous(3, "n", &NodeSpec::m3_large("p"));
        let mut cluster = Cluster::new(spec, 1);
        cluster.prestage("/in", 10 << 20);
        let report = tez(&mut cluster, chain()).unwrap();
        assert_eq!(report.placements.len(), 2);
        assert!(report.runtime_secs > 10.0);
        assert!(cluster.hdfs.exists("/out"));
    }

    #[test]
    fn cloudman_moves_everything_over_the_volume() {
        let mut spec = ClusterSpec::homogeneous(2, "n", &NodeSpec::c3_2xlarge("p"));
        let ebs = spec.add_external(ExternalSpec::ebs_shared());
        let mut cluster = Cluster::new(spec, 2);
        // Inputs live on the volume: register as external files.
        cluster.register_external_file("/in", ebs, 500 << 20);
        let report = crate::baseline::run_cloudman(&mut cluster, chain(), ebs).unwrap();
        assert_eq!(report.placements.len(), 2);
        // 500 MiB in at 62.5 MB/s cap (8.4 s) + compute + volume round
        // trips for /m: distinctly slower than local-disk execution.
        assert!(report.runtime_secs > 15.0, "{}", report.runtime_secs);
        // Nothing was written to HDFS.
        assert!(!cluster.hdfs.exists("/out"));
    }

    #[test]
    fn cloudman_is_slower_than_tez_on_io_heavy_chain() {
        // Same DAG, same node type; CloudMan pays the shared volume.
        let heavy = || {
            StaticWorkflow::new(
                "io",
                "test",
                vec![
                    task(0, "gen", &["/in"], &[("/big", 2 << 30)], 5.0),
                    task(1, "use", &["/big"], &[("/done", 1 << 20)], 5.0),
                ],
            )
        };
        let spec = ClusterSpec::homogeneous(2, "n", &NodeSpec::c3_2xlarge("p"));
        let mut tez_cluster = Cluster::new(spec, 3);
        tez_cluster.prestage("/in", 64 << 20);
        let tez = tez(&mut tez_cluster, heavy()).unwrap();

        let mut spec2 = ClusterSpec::homogeneous(2, "n", &NodeSpec::c3_2xlarge("p"));
        let ebs = spec2.add_external(ExternalSpec::ebs_shared());
        let mut cm_cluster = Cluster::new(spec2, 3);
        cm_cluster.register_external_file("/in", ebs, 64 << 20);
        let cm = crate::baseline::run_cloudman(&mut cm_cluster, heavy(), ebs).unwrap();

        assert!(
            cm.runtime_secs > tez.runtime_secs * 1.25,
            "cloudman {} vs tez {}",
            cm.runtime_secs,
            tez.runtime_secs
        );
    }

    #[test]
    fn missing_input_is_a_deadlock_error() {
        let spec = ClusterSpec::homogeneous(1, "n", &NodeSpec::m3_large("p"));
        let mut cluster = Cluster::new(spec, 4);
        let err = tez(&mut cluster, chain()).unwrap_err();
        assert!(err.contains("deadlocked"), "{err}");
    }

    #[test]
    fn slots_limit_concurrency() {
        // 4 independent 10s tasks, 1 node, 1 slot: strictly serial.
        let tasks: Vec<TaskSpec> = (0..4)
            .map(|i| task(i, "t", &[], &[(&format!("/o{i}"), 1)], 10.0))
            .collect();
        let wf = StaticWorkflow::new("serial", "test", tasks);
        let mut spec = ClusterSpec::homogeneous(1, "n", &NodeSpec::c3_2xlarge("p"));
        let ebs = spec.add_external(ExternalSpec::ebs_shared());
        let mut cluster = Cluster::new(spec, 5);
        let report = crate::baseline::run_cloudman(&mut cluster, wf, ebs).unwrap();
        // Each task runs alone: ~1 s startup + 10 CPU-s at 2 threads on a
        // speed-1.15 node ≈ 4.3 s wall, strictly serialized → ≥ 4 × 5 s.
        assert!(report.runtime_secs >= 20.0, "{}", report.runtime_secs);
        assert!(report.runtime_secs < 40.0, "{}", report.runtime_secs);
    }
}

#[cfg(test)]
mod limit_tests {
    use hiway_core::cluster::Cluster;
    use hiway_lang::ir::{StaticWorkflow, TaskCost, TaskId, TaskSpec};
    use hiway_sim::{ClusterSpec, ExternalSpec, NodeSpec};

    #[test]
    fn cloudman_refuses_clusters_beyond_twenty_nodes() {
        let mut spec = ClusterSpec::homogeneous(21, "n", &NodeSpec::c3_2xlarge("p"));
        let ebs = spec.add_external(ExternalSpec::ebs_shared());
        let mut cluster = Cluster::new(spec, 1);
        let wf = StaticWorkflow::new(
            "x",
            "test",
            vec![TaskSpec {
                id: TaskId(0),
                name: "t".into(),
                command: "t".into(),
                inputs: vec![],
                outputs: vec![],
                cost: TaskCost::default(),
            }],
        );
        let err = crate::baseline::run_cloudman(&mut cluster, wf, ebs).unwrap_err();
        assert!(err.contains("20 nodes"), "{err}");
    }
}
