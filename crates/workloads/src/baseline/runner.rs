//! A minimal DAG executor used by both baseline models.
//!
//! Deliberately simpler than the Hi-WAY AM: greedy slot scheduling in task
//! id order, no provenance, no retries, no data-aware selection. Storage
//! is pluggable: HDFS with node-local replicas (Tez) or a shared
//! network-attached volume (CloudMan's EBS).

use std::collections::HashMap;

use hiway_core::cluster::{Cluster, Tag};
use hiway_core::ReadyTracker;
use hiway_lang::ir::WorkflowSource;
use hiway_lang::{StaticWorkflow, TaskId, TaskSpec};
use hiway_sim::{Activity, Completion, Endpoint, ExternalId, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Where a baseline engine keeps workflow data.
#[derive(Clone, Copy, Debug)]
pub enum Storage {
    /// HDFS on the cluster's local disks (Tez).
    HdfsLocal,
    /// A shared network-attached volume (CloudMan's EBS).
    SharedVolume(ExternalId),
}

/// Baseline engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct BaselineConfig {
    pub storage: Storage,
    /// Concurrent tasks per node; 0 means one per core.
    pub slots_per_node: u32,
    /// Cores a task may use; 0 divides the node's cores by the slot
    /// count. The Figure 4 Tez setup uses 1 (one-core containers).
    pub slot_vcores: u32,
    /// Model map/reduce-style *shuffle edges*: intermediate data moves
    /// between stages through the network regardless of where replicas
    /// sit. This is what wrapping file-based black-box tools into a Tez
    /// DAG costs — "external tools consuming and producing file-based
    /// data need to be wrapped in order to be used in Tez" (paper §2.2) —
    /// and the traffic the data-aware scheduler avoids in Figure 4.
    pub shuffle_edges: bool,
    /// Seed for shuffle-source draws.
    pub seed: u64,
    /// Per-task startup latency in seconds.
    pub startup_secs: f64,
    /// Whether a task may use all node cores regardless of slot count.
    pub multithread_full_node: bool,
}

/// Result of a baseline run.
#[derive(Clone, Debug)]
pub struct BaselineReport {
    pub name: String,
    pub runtime_secs: f64,
    /// Node that executed each task.
    pub placements: Vec<(TaskId, NodeId)>,
}

struct Run {
    spec: TaskSpec,
    node: NodeId,
    remaining: usize,
    scratch_done: bool,
}

/// Executes `workflow` to completion on `cluster`. Inputs must already be
/// present (pre-staged in HDFS, or — for [`Storage::SharedVolume`] —
/// registered as external files on the volume's service by the caller).
pub fn run_dag(
    cluster: &mut Cluster,
    mut workflow: StaticWorkflow,
    config: BaselineConfig,
) -> Result<BaselineReport, String> {
    let name = workflow.name().to_string();
    let t0 = cluster.engine.now();
    let specs = workflow.initial_tasks().map_err(|e| e.to_string())?;
    let mut tasks: HashMap<TaskId, Run> = specs
        .into_iter()
        .map(|spec| {
            (
                spec.id,
                Run {
                    spec,
                    node: NodeId(0),
                    remaining: 0,
                    scratch_done: false,
                },
            )
        })
        .collect();
    // Sizes of produced files, for volume-mode stage-in.
    let sizes: HashMap<String, u64> = tasks
        .values()
        .flat_map(|r| r.spec.outputs.iter().map(|o| (o.path.clone(), o.size)))
        .collect();

    let nodes: Vec<NodeId> = cluster.rm.alive_nodes();
    if nodes.is_empty() {
        return Err("no alive nodes".to_string());
    }
    let mut free_slots: HashMap<NodeId, u32> = nodes
        .iter()
        .map(|&n| {
            let slots = if config.slots_per_node == 0 {
                cluster.engine.spec().node(n).cores
            } else {
                config.slots_per_node
            };
            (n, slots)
        })
        .collect();
    let mut placements = Vec::new();
    let mut rr = 0usize;
    let mut rng = StdRng::seed_from_u64(config.seed);

    let input_ok = |path: &str| match config.storage {
        Storage::HdfsLocal => cluster.input_available(path),
        // Files no task produces were staged on the volume by the caller.
        Storage::SharedVolume(_) => {
            !sizes.contains_key(path) || cluster.external_file(path).is_some()
        }
    };
    let mut waiting = ReadyTracker::default();
    for run in tasks.values() {
        waiting.add(run.spec.id, &run.spec.inputs, input_ok);
    }

    loop {
        // Greedy dispatch of runnable tasks, lowest id first, onto the next
        // node with a free slot, round-robin and placement-agnostic.
        while let Some(node) = (0..nodes.len())
            .map(|k| nodes[(rr + k) % nodes.len()])
            .find(|n| free_slots[n] > 0)
        {
            let Some(tid) = waiting.pop() else {
                break;
            };
            rr = (nodes.iter().position(|x| *x == node).expect("member") + 1) % nodes.len();
            *free_slots.get_mut(&node).expect("slot") -= 1;
            let run = tasks.get_mut(&tid).expect("known");
            run.node = node;
            cluster.engine.set_timer_after(
                config.startup_secs,
                Tag::ContainerStarted {
                    wf: u32::MAX,
                    task: tid,
                    attempt: 0,
                },
            );
        }

        // Each finished task records exactly one placement.
        if placements.len() == tasks.len() {
            break;
        }

        let events = match cluster.engine.step() {
            Some(events) => events,
            None => {
                return Err(format!(
                    "baseline '{name}' deadlocked with {} unfinished tasks",
                    tasks.len() - placements.len()
                ))
            }
        };
        for ev in events {
            let tag = match ev {
                Completion::Activity { tag, .. } | Completion::Timer { tag, .. } => tag,
            };
            match tag {
                Tag::ContainerStarted { task, .. } => {
                    let run = &tasks[&task];
                    let node = run.node;
                    let mut acts = 0usize;
                    for path in &run.spec.inputs {
                        let stage_tag = Tag::StageIn {
                            wf: u32::MAX,
                            task,
                            attempt: 0,
                            file: 0,
                        };
                        match config.storage {
                            Storage::SharedVolume(vol) => {
                                let size = cluster
                                    .external_file(path)
                                    .map(|e| e.size)
                                    .or_else(|| sizes.get(path).copied())
                                    .unwrap_or(0);
                                if size > 0 {
                                    cluster.engine.start(
                                        Activity::Flow {
                                            src: Endpoint::External(vol),
                                            dst: Endpoint::Node(node),
                                            src_disk: false,
                                            dst_disk: true,
                                        },
                                        size as f64,
                                        stage_tag,
                                    );
                                    acts += 1;
                                }
                            }
                            Storage::HdfsLocal
                                if config.shuffle_edges
                                    && cluster.external_file(path).is_none() =>
                            {
                                // Shuffle edge: the bytes cross the network
                                // from a random upstream container's node.
                                let size = cluster.hdfs.len(path).map_err(|e| e.to_string())?;
                                let src = nodes[rng.gen_range(0..nodes.len())];
                                if size > 0 && src != node {
                                    cluster.engine.start(
                                        Activity::Flow {
                                            src: Endpoint::Node(src),
                                            dst: Endpoint::Node(node),
                                            src_disk: true,
                                            dst_disk: true,
                                        },
                                        size as f64,
                                        stage_tag,
                                    );
                                    acts += 1;
                                } else if size > 0 {
                                    cluster.engine.start(
                                        Activity::DiskRead { node },
                                        size as f64,
                                        stage_tag,
                                    );
                                    acts += 1;
                                }
                            }
                            Storage::HdfsLocal => {
                                acts += cluster
                                    .start_input(path, node, stage_tag)
                                    .map_err(|e| e.to_string())?
                                    .len();
                            }
                        }
                    }
                    let run = tasks.get_mut(&task).expect("known");
                    run.remaining = acts;
                    if acts == 0 {
                        start_exec(cluster, run, task, &config);
                    }
                }
                Tag::StageIn { task, .. } => {
                    let run = tasks.get_mut(&task).expect("known");
                    run.remaining -= 1;
                    if run.remaining == 0 {
                        start_exec(cluster, run, task, &config);
                    }
                }
                Tag::Exec { task, .. } => {
                    {
                        let run = tasks.get_mut(&task).expect("known");
                        run.remaining = run.remaining.saturating_sub(1);
                        if run.remaining > 0 {
                            continue;
                        }
                        if !run.scratch_done && run.spec.cost.scratch_bytes > 0 {
                            // Working-directory I/O: local disk for Tez,
                            // the shared volume for CloudMan — the
                            // difference Figure 8 measures.
                            run.scratch_done = true;
                            let bytes = run.spec.cost.scratch_bytes;
                            let node = run.node;
                            let tag = Tag::Exec {
                                wf: u32::MAX,
                                task,
                                attempt: 0,
                            };
                            match config.storage {
                                Storage::HdfsLocal => {
                                    cluster.start_scratch(node, bytes, tag);
                                }
                                Storage::SharedVolume(vol) => {
                                    cluster.engine.start(
                                        Activity::Flow {
                                            src: Endpoint::Node(node),
                                            dst: Endpoint::External(vol),
                                            src_disk: false,
                                            dst_disk: false,
                                        },
                                        bytes as f64,
                                        tag.clone(),
                                    );
                                    cluster.engine.start(
                                        Activity::Flow {
                                            src: Endpoint::External(vol),
                                            dst: Endpoint::Node(node),
                                            src_disk: false,
                                            dst_disk: false,
                                        },
                                        bytes as f64,
                                        tag,
                                    );
                                }
                            }
                            let run = tasks.get_mut(&task).expect("known");
                            run.remaining = 2;
                            continue;
                        }
                    }
                    let run = &tasks[&task];
                    let node = run.node;
                    let mut acts = 0usize;
                    for out in &run.spec.outputs {
                        let stage_tag = Tag::StageOut {
                            wf: u32::MAX,
                            task,
                            attempt: 0,
                            file: 0,
                        };
                        match config.storage {
                            Storage::SharedVolume(vol) => {
                                if out.size > 0 {
                                    cluster.engine.start(
                                        Activity::Flow {
                                            src: Endpoint::Node(node),
                                            dst: Endpoint::External(vol),
                                            src_disk: false,
                                            dst_disk: false,
                                        },
                                        out.size as f64,
                                        stage_tag,
                                    );
                                    acts += 1;
                                }
                            }
                            Storage::HdfsLocal => {
                                acts += cluster
                                    .start_output(&out.path, out.size, node, stage_tag)
                                    .map_err(|e| e.to_string())?
                                    .len();
                            }
                        }
                    }
                    let run = tasks.get_mut(&task).expect("known");
                    run.remaining = acts;
                    if acts == 0 {
                        complete_task(
                            cluster,
                            &tasks[&task],
                            &mut free_slots,
                            &mut waiting,
                            &config,
                            &mut placements,
                        );
                    }
                }
                Tag::StageOut { task, .. } => {
                    let run = tasks.get_mut(&task).expect("known");
                    run.remaining -= 1;
                    if run.remaining == 0 {
                        complete_task(
                            cluster,
                            &tasks[&task],
                            &mut free_slots,
                            &mut waiting,
                            &config,
                            &mut placements,
                        );
                    }
                }
                _ => {}
            }
        }
    }

    Ok(BaselineReport {
        name,
        runtime_secs: cluster.engine.now().since(t0),
        placements,
    })
}

fn start_exec(cluster: &mut Cluster, run: &mut Run, task: TaskId, config: &BaselineConfig) {
    run.remaining = 1;
    run.scratch_done = run.spec.cost.scratch_bytes == 0;
    let node_cores = cluster.engine.spec().node(run.node).cores;
    let cap = if config.multithread_full_node {
        node_cores
    } else if config.slot_vcores > 0 {
        config.slot_vcores
    } else if config.slots_per_node == 0 {
        node_cores
    } else {
        (node_cores / config.slots_per_node.max(1)).max(1)
    };
    let threads = run.spec.cost.threads.min(cap).max(1) as f64;
    cluster.engine.start(
        Activity::Compute {
            node: run.node,
            threads,
        },
        run.spec.cost.cpu_seconds,
        Tag::Exec {
            wf: u32::MAX,
            task,
            attempt: 0,
        },
    );
}

fn complete_task(
    cluster: &mut Cluster,
    run: &Run,
    free_slots: &mut HashMap<NodeId, u32>,
    waiting: &mut ReadyTracker,
    config: &BaselineConfig,
    placements: &mut Vec<(TaskId, NodeId)>,
) {
    *free_slots.get_mut(&run.node).expect("slot") += 1;
    placements.push((run.spec.id, run.node));
    for out in &run.spec.outputs {
        if let Storage::HdfsLocal = config.storage {
            cluster.commit_file(&out.path);
        }
        waiting.file_available(&out.path);
    }
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
        let report = crate::baseline::run_tez(&mut cluster, chain()).unwrap();
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
        let tez = crate::baseline::run_tez(&mut tez_cluster, heavy()).unwrap();

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
        let err = crate::baseline::run_tez(&mut cluster, chain()).unwrap_err();
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
