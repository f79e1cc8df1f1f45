//! End-to-end tests of the AM runtime: whole workflows executed on the
//! simulated substrate.

use hiway_core::cluster::Cluster;
use hiway_core::config::{HiwayConfig, SchedulerPolicy};
use hiway_core::driver::Runtime;
use hiway_lang::cuneiform::CuneiformWorkflow;
use hiway_lang::ir::{
    LangError, OutputSpec, StaticWorkflow, TaskCost, TaskId, TaskSpec, WorkflowSource,
};
use hiway_provdb::ProvDb;
use hiway_sim::{ClusterSpec, NodeId, NodeSpec};

fn small_cluster(nodes: usize) -> Cluster {
    let spec = ClusterSpec::homogeneous(nodes, "w", &NodeSpec::m3_large("proto"));
    Cluster::new(spec, 7)
}

fn task(id: u64, name: &str, inputs: &[&str], outputs: &[(&str, u64)], cpu: f64) -> TaskSpec {
    TaskSpec {
        id: TaskId(id),
        name: name.into(),
        command: format!("{name} ..."),
        inputs: inputs.iter().map(|s| s.to_string()).collect(),
        outputs: outputs
            .iter()
            .map(|(p, s)| OutputSpec {
                path: p.to_string(),
                size: *s,
            })
            .collect(),
        cost: TaskCost::new(cpu, 1, 256),
    }
}

/// in → a → (b, c) → d diamond.
fn diamond() -> StaticWorkflow {
    StaticWorkflow::new(
        "diamond",
        "test",
        vec![
            task(0, "pre", &["/in"], &[("/a", 10 << 20)], 5.0),
            task(1, "left", &["/a"], &[("/b", 1 << 20)], 10.0),
            task(2, "right", &["/a"], &[("/c", 1 << 20)], 10.0),
            task(3, "join", &["/b", "/c"], &[("/d", 1 << 10)], 2.0),
        ],
    )
}

#[test]
fn diamond_runs_to_completion_fcfs() {
    let mut cluster = small_cluster(3);
    cluster.prestage("/in", 20 << 20);
    let mut rt = Runtime::new(cluster);
    let config = HiwayConfig::default().with_scheduler(SchedulerPolicy::Fcfs);
    let wf = rt.submit(Box::new(diamond()), config, ProvDb::new());
    let reports = rt.run_to_completion();
    assert!(rt.error_of(wf).is_none(), "{:?}", rt.error_of(wf));
    let r = &reports[wf];
    assert_eq!(r.tasks.len(), 4);
    assert!(
        r.runtime_secs() > 17.0,
        "at least the critical path of CPU time"
    );
    // Execution respected the dependencies.
    let t_of = |name: &str| r.tasks.iter().find(|t| t.name == name).unwrap();
    assert!(t_of("pre").t_end <= t_of("left").t_start);
    assert!(t_of("left").t_end <= t_of("join").t_start);
    assert!(t_of("right").t_end <= t_of("join").t_start);
    // All outputs are committed in HDFS.
    for p in ["/a", "/b", "/c", "/d"] {
        assert!(rt.cluster.hdfs.exists(p), "{p} missing");
    }
    // Provenance trace is re-executable.
    assert!(r.trace_path.is_some());
    let replay = hiway_lang::trace::parse_trace(&r.trace).unwrap();
    assert_eq!(replay.tasks.len(), 4);
}

#[test]
fn trace_replay_executes_the_same_tasks() {
    let mut cluster = small_cluster(3);
    cluster.prestage("/in", 20 << 20);
    let mut rt = Runtime::new(cluster);
    let wf = rt.submit(
        Box::new(diamond()),
        HiwayConfig::default().with_scheduler(SchedulerPolicy::Fcfs),
        ProvDb::new(),
    );
    let reports = rt.run_to_completion();
    let trace = reports[wf].trace.clone();

    // Re-execute the trace on a fresh cluster (§3.5: traces are intended
    // for the same cluster, with inputs still present).
    let replay = hiway_lang::trace::parse_trace(&trace).unwrap();
    let mut cluster2 = small_cluster(3);
    cluster2.prestage("/in", 20 << 20);
    let mut rt2 = Runtime::new(cluster2);
    let wf2 = rt2.submit(Box::new(replay), HiwayConfig::default(), ProvDb::new());
    let reports2 = rt2.run_to_completion();
    assert!(rt2.error_of(wf2).is_none(), "{:?}", rt2.error_of(wf2));
    assert_eq!(reports2[wf2].tasks.len(), 4);
    let mut names: Vec<&str> = reports2[wf2]
        .tasks
        .iter()
        .map(|t| t.name.as_str())
        .collect();
    names.sort_unstable();
    assert_eq!(names, vec!["join", "left", "pre", "right"]);
}

#[test]
fn parallel_tasks_use_multiple_nodes() {
    let mut cluster = small_cluster(4);
    cluster.prestage("/in", 1 << 20);
    // Fan-out of 8 independent tasks.
    let tasks: Vec<TaskSpec> = (0..8)
        .map(|i| task(i, "fan", &["/in"], &[(&format!("/out{i}"), 1 << 20)], 30.0))
        .collect();
    let wf = StaticWorkflow::new("fan", "test", tasks);
    let mut rt = Runtime::new(cluster);
    let idx = rt.submit(
        Box::new(wf),
        HiwayConfig::default().with_scheduler(SchedulerPolicy::Fcfs),
        ProvDb::new(),
    );
    let reports = rt.run_to_completion();
    assert!(rt.error_of(idx).is_none());
    let nodes: std::collections::HashSet<&str> =
        reports[idx].tasks.iter().map(|t| t.node.as_str()).collect();
    assert!(nodes.len() >= 3, "work spread over nodes: {nodes:?}");
    // 8 tasks × 30 CPU-s on ≥6 concurrently usable cores: well under 8×30s.
    assert!(reports[idx].runtime_secs() < 8.0 * 30.0);
}

#[test]
fn kmeans_iterative_cuneiform_workflow() {
    let src = r#"
        deftask kmeans_step( out("cents_{1}.dat", 1000000) : c i )
            cpu 20 threads 2 mem 1000 yield add(i, 1);
        defun iterate(c, i) =
            let next = kmeans_step(c, i);
            if lt(val(next), 4) then iterate(next, val(next)) else next;
        let seed = file("/cents_init.dat", 1000000);
        target iterate(seed, 0);
    "#;
    let wf = CuneiformWorkflow::parse("kmeans", src, 3).unwrap();
    let mut cluster = small_cluster(2);
    cluster.prestage("/cents_init.dat", 1_000_000);
    let mut rt = Runtime::new(cluster);
    let idx = rt.submit(Box::new(wf), HiwayConfig::default(), ProvDb::new());
    let reports = rt.run_to_completion();
    assert!(rt.error_of(idx).is_none(), "{:?}", rt.error_of(idx));
    // Four refinement iterations, discovered one at a time (i = 0..=3).
    assert_eq!(reports[idx].tasks.len(), 4);
    for round in 0..=3 {
        assert!(rt.cluster.hdfs.exists(&format!("cents_{round}.dat")));
    }
}

#[test]
fn static_scheduler_rejects_iterative_language() {
    let src = r#"
        deftask t( out("o.dat", 1) : x ) cpu 1;
        target t(file("/in", 1));
    "#;
    let wf = CuneiformWorkflow::parse("iter", src, 0).unwrap();
    let mut cluster = small_cluster(2);
    cluster.prestage("/in", 1);
    let mut rt = Runtime::new(cluster);
    let idx = rt.submit(
        Box::new(wf),
        HiwayConfig::default().with_scheduler(SchedulerPolicy::Heft),
        ProvDb::new(),
    );
    rt.run_to_completion();
    let err = rt.error_of(idx).expect("must fail");
    assert!(err.contains("static scheduling policy"), "{err}");
}

#[test]
fn round_robin_assigns_tasks_in_equal_numbers() {
    let mut cluster = small_cluster(3);
    cluster.prestage("/in", 1 << 20);
    let tasks: Vec<TaskSpec> = (0..9)
        .map(|i| task(i, "t", &["/in"], &[(&format!("/o{i}"), 1 << 10)], 10.0))
        .collect();
    let mut rt = Runtime::new(cluster);
    let idx = rt.submit(
        Box::new(StaticWorkflow::new("rr", "test", tasks)),
        HiwayConfig::default().with_scheduler(SchedulerPolicy::RoundRobin),
        ProvDb::new(),
    );
    let reports = rt.run_to_completion();
    assert!(rt.error_of(idx).is_none(), "{:?}", rt.error_of(idx));
    let mut counts: std::collections::HashMap<&str, usize> = Default::default();
    for t in &reports[idx].tasks {
        *counts.entry(t.node.as_str()).or_default() += 1;
    }
    assert_eq!(counts.len(), 3);
    for (_, c) in counts {
        assert_eq!(c, 3, "round-robin assigns in equal numbers");
    }
}

#[test]
fn failed_attempts_are_retried_and_recorded() {
    let mut cluster = small_cluster(3);
    cluster.prestage("/in", 1 << 20);
    let tasks: Vec<TaskSpec> = (0..6)
        .map(|i| task(i, "flaky", &["/in"], &[(&format!("/o{i}"), 1 << 10)], 5.0))
        .collect();
    let mut rt = Runtime::new(cluster);
    let mut config = HiwayConfig::default().with_scheduler(SchedulerPolicy::Fcfs);
    config.task_failure_prob = 0.3;
    config.task_retries = 10;
    config.seed = 5;
    let idx = rt.submit(
        Box::new(StaticWorkflow::new("flaky", "test", tasks)),
        config,
        ProvDb::new(),
    );
    let reports = rt.run_to_completion();
    assert!(rt.error_of(idx).is_none(), "{:?}", rt.error_of(idx));
    assert_eq!(reports[idx].tasks.len(), 6);
    let total_attempts: u32 = reports[idx].tasks.iter().map(|t| t.attempts).sum();
    assert!(
        total_attempts > 6,
        "with p=0.3 some attempt must have failed"
    );
}

#[test]
fn retry_exhaustion_fails_the_workflow() {
    let mut cluster = small_cluster(2);
    cluster.prestage("/in", 1 << 10);
    let mut rt = Runtime::new(cluster);
    let config = HiwayConfig {
        task_failure_prob: 1.0, // every attempt dies
        task_retries: 2,
        ..HiwayConfig::default()
    };
    let idx = rt.submit(
        Box::new(StaticWorkflow::new(
            "doomed",
            "test",
            vec![task(0, "t", &["/in"], &[("/o", 1)], 1.0)],
        )),
        config,
        ProvDb::new(),
    );
    rt.run_to_completion();
    let err = rt.error_of(idx).expect("must fail");
    assert!(err.contains("failed too many times"), "{err}");
}

#[test]
fn node_failure_retries_on_surviving_nodes() {
    let mut cluster = small_cluster(4);
    cluster.prestage("/in", 64 << 20);
    let tasks: Vec<TaskSpec> = (0..4)
        .map(|i| task(i, "long", &["/in"], &[(&format!("/o{i}"), 1 << 20)], 300.0))
        .collect();
    let mut rt = Runtime::new(cluster);
    let idx = rt.submit(
        Box::new(StaticWorkflow::new("survivor", "test", tasks)),
        HiwayConfig::default().with_scheduler(SchedulerPolicy::Fcfs),
        ProvDb::new(),
    );
    // Kill a worker node before execution starts: every container and
    // replica placement must route around it.
    rt.fail_node(NodeId(1));
    rt.cluster.re_replicate();
    let reports = rt.run_to_completion();
    assert!(rt.error_of(idx).is_none(), "{:?}", rt.error_of(idx));
    assert_eq!(reports[idx].tasks.len(), 4);
    for t in &reports[idx].tasks {
        assert_ne!(t.node, "w-1", "dead node must not run tasks");
    }
}

#[test]
fn two_concurrent_workflows_share_the_cluster() {
    let mut cluster = small_cluster(4);
    cluster.prestage("/in", 1 << 20);
    let wf_a: Vec<TaskSpec> = (0..4)
        .map(|i| task(i, "a", &["/in"], &[(&format!("/a{i}"), 1 << 10)], 20.0))
        .collect();
    let wf_b: Vec<TaskSpec> = (0..4)
        .map(|i| task(i, "b", &["/in"], &[(&format!("/b{i}"), 1 << 10)], 20.0))
        .collect();
    let mut rt = Runtime::new(cluster);
    let ia = rt.submit(
        Box::new(StaticWorkflow::new("wf-a", "test", wf_a)),
        HiwayConfig::default(),
        ProvDb::new(),
    );
    let ib = rt.submit(
        Box::new(StaticWorkflow::new("wf-b", "test", wf_b)),
        HiwayConfig::default(),
        ProvDb::new(),
    );
    let reports = rt.run_to_completion();
    assert!(rt.error_of(ia).is_none());
    assert!(rt.error_of(ib).is_none());
    assert_eq!(reports[ia].tasks.len(), 4);
    assert_eq!(reports[ib].tasks.len(), 4);
    assert_eq!(reports[ia].name, "wf-a");
    assert_eq!(reports[ib].name, "wf-b");
}

#[test]
fn missing_input_stalls_with_diagnostic() {
    let cluster = small_cluster(2); // note: /in never staged
    let mut rt = Runtime::new(cluster);
    let idx = rt.submit(
        Box::new(StaticWorkflow::new(
            "stuck",
            "test",
            vec![task(0, "t", &["/never-staged"], &[("/o", 1)], 1.0)],
        )),
        HiwayConfig::default(),
        ProvDb::new(),
    );
    rt.run_to_completion();
    let err = rt.error_of(idx).expect("must stall");
    assert!(err.contains("stalled"), "{err}");
}

#[test]
fn provenance_feeds_shared_database_across_runs() {
    let db = ProvDb::new();
    for run in 0..2 {
        let mut cluster = small_cluster(2);
        cluster.prestage("/in", 1 << 20);
        let mut rt = Runtime::new(cluster);
        let idx = rt.submit(
            Box::new(StaticWorkflow::new(
                "repeat",
                "test",
                vec![task(0, "sig", &["/in"], &[("/o", 1 << 10)], 10.0)],
            )),
            HiwayConfig::default().with_seed(run),
            db.clone(),
        );
        let _ = rt.run_to_completion();
        assert!(rt.error_of(idx).is_none());
    }
    // Two executions of signature "sig" accumulated in the shared store.
    let tasks = db.collection(hiway_core::provenance::TASKS_COLLECTION);
    assert_eq!(tasks.len(), 2);
}

#[test]
fn external_inputs_are_fetched_during_execution() {
    let mut spec = ClusterSpec::homogeneous(2, "w", &NodeSpec::m3_large("p"));
    let s3 = spec.add_external(hiway_sim::ExternalSpec::s3());
    let mut cluster = Cluster::new(spec, 1);
    cluster.register_external_file("s3://bucket/reads.fq", s3, 800 << 20);
    let mut rt = Runtime::new(cluster);
    let idx = rt.submit(
        Box::new(StaticWorkflow::new(
            "s3-fetch",
            "test",
            vec![task(
                0,
                "align",
                &["s3://bucket/reads.fq"],
                &[("/aln", 80 << 20)],
                10.0,
            )],
        )),
        HiwayConfig::default(),
        ProvDb::new(),
    );
    let reports = rt.run_to_completion();
    assert!(rt.error_of(idx).is_none(), "{:?}", rt.error_of(idx));
    // 800 MiB at the S3 per-flow cap of 80 MB/s ⇒ ≥ 10.4 s stage-in, plus
    // 10 s compute and the stage-out.
    assert!(reports[idx].runtime_secs() > 20.0);
    assert!(rt.cluster.hdfs.exists("/aln"));
}

#[test]
fn tailored_containers_pack_mixed_workloads_tighter() {
    // §5 future work: uniform whole-node containers waste cores on
    // single-threaded tasks; tailored containers pack them.
    let build_tasks = || -> Vec<TaskSpec> {
        let mut tasks = Vec::new();
        for i in 0..4 {
            tasks.push(TaskSpec {
                id: TaskId(i),
                name: "heavy".into(),
                command: "heavy".into(),
                inputs: vec!["/in".into()],
                outputs: vec![OutputSpec {
                    path: format!("/h{i}"),
                    size: 1 << 10,
                }],
                cost: hiway_lang::TaskCost {
                    cpu_seconds: 40.0,
                    threads: 2,
                    memory_mb: 4000,
                    scratch_bytes: 0,
                },
            });
        }
        for i in 0..8 {
            tasks.push(TaskSpec {
                id: TaskId(4 + i),
                name: "light".into(),
                command: "light".into(),
                inputs: vec!["/in".into()],
                outputs: vec![OutputSpec {
                    path: format!("/l{i}"),
                    size: 1 << 10,
                }],
                cost: hiway_lang::TaskCost {
                    cpu_seconds: 20.0,
                    threads: 1,
                    memory_mb: 1000,
                    scratch_bytes: 0,
                },
            });
        }
        tasks
    };
    let run = |tailored: bool| -> f64 {
        let mut cluster = small_cluster(2); // m3.large: 2 cores, 7.5 GB
        cluster.prestage("/in", 1 << 20);
        let mut rt = Runtime::new(cluster);
        let mut config = HiwayConfig::default().with_scheduler(SchedulerPolicy::Fcfs);
        if tailored {
            config.tailored_containers = true;
        } else {
            // Uniform whole-node containers (2 vcores each).
            config.container_resource = hiway_yarn::Resource::new(2, 7000);
        }
        let idx = rt.submit(
            Box::new(StaticWorkflow::new("mixed", "test", build_tasks())),
            config,
            ProvDb::new(),
        );
        let reports = rt.run_to_completion();
        assert!(rt.error_of(idx).is_none(), "{:?}", rt.error_of(idx));
        reports[idx].runtime_secs()
    };
    let uniform = run(false);
    let tailored = run(true);
    assert!(
        tailored < uniform * 0.85,
        "tailored {tailored:.1}s vs uniform {uniform:.1}s"
    );
}

#[test]
fn adaptive_scheduler_runs_iterative_workflows_and_learns() {
    // The dynamic adaptive policy composes with iterative languages
    // (unlike HEFT) and improves with provenance on a heterogeneous
    // cluster: the k-means-shaped recursion below re-runs the same task
    // signature, and warm estimates steer it off the slow node.
    let src = r#"
        deftask step( out("/it/out_{1}.dat", 1000000) : c i )
            cpu 30 threads 1 mem 512 yield add(i, 1);
        defun iterate(c, i) =
            let next = step(c, i);
            if lt(val(next), 8) then iterate(next, val(next)) else next;
        let seed = file("/it/seed.dat", 1000000);
        target iterate(seed, 0);
    "#;
    let run = |db: hiway_provdb::ProvDb, seed: u64| -> f64 {
        let spec = ClusterSpec::homogeneous(3, "w", &NodeSpec::m3_large("proto"));
        let mut cluster = Cluster::new(spec, seed);
        // Node 2 is heavily CPU-stressed: 30 CPU-s take ~5x longer there.
        cluster.add_cpu_stress(NodeId(2), 8);
        cluster.prestage("/it/seed.dat", 1_000_000);
        let wf = CuneiformWorkflow::parse("iterative-adaptive", src, seed).unwrap();
        let mut rt = Runtime::new(cluster);
        let config = HiwayConfig::default()
            .with_scheduler(SchedulerPolicy::Adaptive)
            .with_seed(seed);
        let idx = rt.submit(Box::new(wf), config, db);
        let reports = rt.run_to_completion();
        assert!(rt.error_of(idx).is_none(), "{:?}", rt.error_of(idx));
        assert_eq!(reports[idx].tasks.len(), 8, "8 recursion rounds");
        reports[idx].runtime_secs()
    };
    // Cold (empty provenance), then two warm runs sharing a database.
    let shared = hiway_provdb::ProvDb::new();
    let first = run(shared.clone(), 1);
    let second = run(shared.clone(), 2);
    let third = run(shared, 3);
    // Learning effect: once the slow node has been observed, the chain
    // stays on fast nodes.
    assert!(
        third <= second && third < first,
        "no learning: {first:.0}s, {second:.0}s, {third:.0}s"
    );
}

#[test]
fn scratch_io_extends_execution_on_local_disk() {
    // Two identical tasks, one with 1 GiB of working-directory I/O: the
    // scratch round-trip (write + read back on the local disk) must show
    // up in the makespan.
    let run = |scratch: u64| -> f64 {
        let mut cluster = small_cluster(1);
        cluster.prestage("/in", 1 << 20);
        let spec = TaskSpec {
            id: TaskId(0),
            name: "tool".into(),
            command: "tool".into(),
            inputs: vec!["/in".into()],
            outputs: vec![OutputSpec {
                path: "/out".into(),
                size: 1 << 20,
            }],
            cost: TaskCost::new(10.0, 1, 256).with_scratch(scratch),
        };
        let mut rt = Runtime::new(cluster);
        let idx = rt.submit(
            Box::new(StaticWorkflow::new("s", "test", vec![spec])),
            HiwayConfig::default(),
            ProvDb::new(),
        );
        let reports = rt.run_to_completion();
        assert!(rt.error_of(idx).is_none(), "{:?}", rt.error_of(idx));
        reports[idx].tasks[0].makespan()
    };
    let without = run(0);
    let with = run(1 << 30);
    // 1 GiB write at 180 MB/s then read at 220 MB/s ≈ 6 + 4.9 s… the two
    // streams run concurrently, so ≥ max(6, 4.9) s extra.
    assert!(
        with > without + 5.0,
        "scratch not charged: {with:.1}s vs {without:.1}s"
    );
}

#[test]
fn node_failure_while_tasks_are_running_is_recovered() {
    // Let the workflow run for a while, then kill a node that is actively
    // executing tasks: in-flight activities must be cancelled, the tasks
    // retried elsewhere, and the workflow still complete.
    let mut cluster = small_cluster(4);
    cluster.prestage("/in", 128 << 20);
    let tasks: Vec<TaskSpec> = (0..8)
        .map(|i| task(i, "long", &["/in"], &[(&format!("/o{i}"), 8 << 20)], 200.0))
        .collect();
    let mut rt = Runtime::new(cluster);
    let idx = rt.submit(
        Box::new(StaticWorkflow::new("chaos", "test", tasks)),
        HiwayConfig::default().with_scheduler(SchedulerPolicy::Fcfs),
        ProvDb::new(),
    );
    // Run 60 virtual seconds: everything is mid-exec by then.
    let still_active = rt.run_until(hiway_sim::SimTime::from_secs(60.0));
    assert!(still_active, "workflow must still be running at t=60");
    let victim = NodeId(2);
    rt.fail_node(victim);
    rt.cluster.re_replicate();
    let reports = rt.run_to_completion();
    assert!(rt.error_of(idx).is_none(), "{:?}", rt.error_of(idx));
    assert_eq!(reports[idx].tasks.len(), 8);
    // Tasks that were on the victim show retries and finished elsewhere.
    for t in &reports[idx].tasks {
        assert_ne!(t.node, "w-2");
    }
    let retried: u32 = reports[idx].tasks.iter().map(|t| t.attempts - 1).sum();
    assert!(retried >= 1, "the victim was running at least one task");
}

#[test]
fn am_node_loss_fails_the_workflow_cleanly() {
    let mut cluster = small_cluster(3);
    cluster.prestage("/in", 1 << 20);
    let tasks: Vec<TaskSpec> = (0..4)
        .map(|i| task(i, "t", &["/in"], &[(&format!("/x{i}"), 1 << 10)], 300.0))
        .collect();
    let mut rt = Runtime::new(cluster);
    let idx = rt.submit(
        Box::new(StaticWorkflow::new("am-loss", "test", tasks)),
        HiwayConfig::default(),
        ProvDb::new(),
    );
    rt.run_until(hiway_sim::SimTime::from_secs(30.0));
    // Node 0 hosts the AM container (first allocation).
    rt.fail_node(NodeId(0));
    rt.cluster.re_replicate();
    rt.run_to_completion();
    let err = rt.error_of(idx).expect("AM loss fails the workflow");
    assert!(err.contains("AM container lost"), "{err}");
}

#[test]
fn trace_files_warm_the_statistics_of_a_fresh_database() {
    // §3.5: trace files in HDFS are the transport for statistics between
    // Hi-WAY instances. Run once, carry the TRACE (not the database) to a
    // second instance, and verify its HEFT estimates are warm.
    let mut cluster = small_cluster(2);
    cluster.prestage("/in", 1 << 20);
    let mut rt = Runtime::new(cluster);
    let idx = rt.submit(
        Box::new(StaticWorkflow::new(
            "first",
            "test",
            vec![task(0, "sig", &["/in"], &[("/o", 1 << 10)], 30.0)],
        )),
        HiwayConfig::default().with_scheduler(SchedulerPolicy::Fcfs),
        ProvDb::new(),
    );
    let reports = rt.run_to_completion();
    assert!(rt.error_of(idx).is_none());
    let trace = reports[idx].trace.clone();
    let node = reports[idx].tasks[0].node.clone();

    let mut fresh = hiway_core::ProvenanceManager::new(ProvDb::new());
    assert_eq!(fresh.latest_runtime("sig", &node), None);
    let loaded = fresh.import_trace(&trace).unwrap();
    assert_eq!(loaded, 1);
    let estimate = fresh.latest_runtime("sig", &node).expect("warm estimate");
    assert!(estimate > 25.0, "makespan covers exec: {estimate}");
}

#[test]
fn preemption_is_infra_and_spares_the_task_budget() {
    // A task with a zero task-retry budget survives repeated container
    // preemptions: infrastructure failures draw from their own allowance.
    let mut cluster = small_cluster(3);
    cluster.prestage("/in", 1 << 20);
    let mut rt = Runtime::new(cluster);
    let config = HiwayConfig {
        task_retries: 0, // one tool crash would end the workflow...
        retry_backoff_secs: 1.0,
        ..HiwayConfig::default().with_scheduler(SchedulerPolicy::Fcfs)
    };
    let idx = rt.submit(
        Box::new(StaticWorkflow::new(
            "preempted",
            "test",
            vec![task(0, "t", &["/in"], &[("/o", 1 << 10)], 60.0)],
        )),
        config,
        ProvDb::new(),
    );
    // Preempt the task's container three times, mid-exec each time.
    let mut t = 10.0;
    for _ in 0..3 {
        assert!(rt.run_until(hiway_sim::SimTime::from_secs(t)));
        let live = rt.worker_containers();
        assert_eq!(live.len(), 1, "exactly one task container at t={t}");
        assert!(rt.preempt_container(live[0]));
        t += 30.0;
    }
    let reports = rt.run_to_completion();
    assert!(rt.error_of(idx).is_none(), "{:?}", rt.error_of(idx));
    assert_eq!(reports[idx].tasks.len(), 1);
    assert_eq!(
        reports[idx].tasks[0].attempts, 4,
        "3 preempted + 1 successful"
    );
    assert_eq!(reports[idx].infra_failures, 3);
    assert_eq!(reports[idx].task_failures, 0);
    assert!(reports[idx].wasted_container_secs > 0.0);
}

#[test]
fn infra_budget_exhaustion_fails_the_workflow() {
    let mut cluster = small_cluster(3);
    cluster.prestage("/in", 1 << 20);
    let mut rt = Runtime::new(cluster);
    let config = HiwayConfig {
        task_retries: 10,
        infra_retries: 1, // two infra losses exhaust the budget
        retry_backoff_secs: 1.0,
        ..HiwayConfig::default().with_scheduler(SchedulerPolicy::Fcfs)
    };
    let idx = rt.submit(
        Box::new(StaticWorkflow::new(
            "fragile-infra",
            "test",
            vec![task(0, "t", &["/in"], &[("/o", 1 << 10)], 120.0)],
        )),
        config,
        ProvDb::new(),
    );
    let mut t = 10.0;
    for _ in 0..2 {
        assert!(rt.run_until(hiway_sim::SimTime::from_secs(t)));
        let live = rt.worker_containers();
        assert_eq!(live.len(), 1);
        rt.preempt_container(live[0]);
        t += 30.0;
    }
    rt.run_to_completion();
    let err = rt.error_of(idx).expect("infra budget exhausted");
    assert!(err.contains("infra budget"), "{err}");
}

#[test]
fn retry_backoff_delays_the_new_attempt() {
    // One 10-CPU-s task, preempted once: with a 20 s backoff the rerun
    // cannot start before ~26 s, so completion lands well past 30 s.
    let run = |backoff: f64| -> f64 {
        let mut cluster = small_cluster(2);
        cluster.prestage("/in", 1 << 20);
        let mut rt = Runtime::new(cluster);
        let config = HiwayConfig {
            retry_backoff_secs: backoff,
            retry_backoff_max_secs: backoff,
            ..HiwayConfig::default().with_scheduler(SchedulerPolicy::Fcfs)
        };
        let idx = rt.submit(
            Box::new(StaticWorkflow::new(
                "backoff",
                "test",
                vec![task(0, "t", &["/in"], &[("/o", 1 << 10)], 10.0)],
            )),
            config,
            ProvDb::new(),
        );
        assert!(rt.run_until(hiway_sim::SimTime::from_secs(6.0)));
        let live = rt.worker_containers();
        assert_eq!(live.len(), 1);
        rt.preempt_container(live[0]);
        let reports = rt.run_to_completion();
        assert!(rt.error_of(idx).is_none(), "{:?}", rt.error_of(idx));
        reports[idx].runtime_secs()
    };
    let quick = run(0.5);
    let slow = run(20.0);
    assert!(
        slow > quick + 15.0,
        "backoff must delay the retry: {quick:.1}s vs {slow:.1}s"
    );
}

#[test]
fn recovered_node_rejoins_the_cluster_and_runs_tasks() {
    // Crash a worker mid-run, bring it back, and verify the cluster is
    // whole again: full capacity, fresh DataNode, workflow completes.
    let mut cluster = small_cluster(3);
    cluster.prestage("/in", 32 << 20);
    let tasks: Vec<TaskSpec> = (0..10)
        .map(|i| task(i, "wave", &["/in"], &[(&format!("/o{i}"), 4 << 20)], 60.0))
        .collect();
    let mut rt = Runtime::new(cluster);
    let config = HiwayConfig {
        blacklist_decay_secs: 30.0, // let the revived node earn back trust
        retry_backoff_secs: 1.0,
        ..HiwayConfig::default().with_scheduler(SchedulerPolicy::Fcfs)
    };
    let idx = rt.submit(
        Box::new(StaticWorkflow::new("rejoin", "test", tasks)),
        config,
        ProvDb::new(),
    );
    assert!(rt.run_until(hiway_sim::SimTime::from_secs(20.0)));
    let victim = NodeId(2);
    rt.fail_node(victim);
    rt.cluster.re_replicate();
    assert!(rt.run_until(hiway_sim::SimTime::from_secs(60.0)));
    rt.recover_node(victim);
    let reports = rt.run_to_completion();
    assert!(rt.error_of(idx).is_none(), "{:?}", rt.error_of(idx));
    assert_eq!(reports[idx].tasks.len(), 10);
    assert!(rt.cluster.rm.is_alive(victim));
    assert!(rt.cluster.hdfs.is_alive(victim));
    assert_eq!(rt.cluster.rm.available(victim), rt.cluster.rm.total(victim));
    // Post-recovery waves may use the revived node again (its blacklist
    // strikes decayed) — at minimum, tasks DID run during its downtime.
    let nodes: std::collections::HashSet<&str> =
        reports[idx].tasks.iter().map(|t| t.node.as_str()).collect();
    assert!(!nodes.is_empty());
}

#[test]
fn speculative_duplicate_rescues_a_straggler() {
    // Six same-signature tasks on a cluster whose third node is heavily
    // CPU-stressed: the fast nodes' completions warm the runtime estimate,
    // the task stuck on the slow node overshoots it, a duplicate launches
    // on a fast node and wins, and the straggler attempt is cancelled.
    let spec = ClusterSpec::homogeneous(3, "w", &NodeSpec::m3_large("proto"));
    let mut cluster = Cluster::new(spec, 7);
    cluster.add_cpu_stress(NodeId(2), 8); // ~9x slowdown
    cluster.prestage("/in", 1 << 20);
    let tasks: Vec<TaskSpec> = (0..6)
        .map(|i| task(i, "sig", &["/in"], &[(&format!("/o{i}"), 1 << 10)], 10.0))
        .collect();
    let mut rt = Runtime::new(cluster);
    let config = HiwayConfig {
        speculative_execution: true,
        speculation_factor: 1.8,
        speculation_min_secs: 5.0,
        ..HiwayConfig::default().with_scheduler(SchedulerPolicy::Fcfs)
    };
    let idx = rt.submit(
        Box::new(StaticWorkflow::new("straggle", "test", tasks)),
        config,
        ProvDb::new(),
    );
    let reports = rt.run_to_completion();
    assert!(rt.error_of(idx).is_none(), "{:?}", rt.error_of(idx));
    assert_eq!(reports[idx].tasks.len(), 6);
    assert!(
        reports[idx].speculative_attempts >= 1,
        "no duplicate launched"
    );
    assert!(
        reports[idx].wasted_container_secs > 0.0,
        "loser time is waste"
    );
    // Without speculation the stragglers pin the makespan to ~90 s.
    assert!(
        reports[idx].runtime_secs() < 80.0,
        "speculation did not rescue: {:.1}s",
        reports[idx].runtime_secs()
    );
    // The lost race is in the provenance record.
    let prov = rt.provenance(idx);
    assert!(prov.attempt_count("primary-loser") + prov.attempt_count("speculative-loser") >= 1);
}

#[test]
fn rejected_admission_surfaces_as_submit_error() {
    use hiway_yarn::{AdmissionPolicy, QueueSpec, QueuesConfig};
    let mut cluster = small_cluster(3);
    cluster.prestage("/in", 20 << 20);
    let config = QueuesConfig {
        root: QueueSpec::parent(
            "root",
            1.0,
            1.0,
            1.0,
            vec![QueueSpec::leaf("q", 1.0, 1.0, 1.0).with_max_apps(1)],
        ),
        admission: AdmissionPolicy::Reject,
        preemption_grace_secs: None,
    };
    cluster.rm.configure_queues(config).unwrap();
    let mut rt = Runtime::new(cluster);
    let first = rt.submit(
        Box::new(diamond()),
        HiwayConfig::default().with_queue("q"),
        ProvDb::new(),
    );
    let second = rt.submit(
        Box::new(diamond()),
        HiwayConfig::default().with_queue("q"),
        ProvDb::new(),
    );
    let reports = rt.run_to_completion();
    assert!(rt.error_of(first).is_none(), "{:?}", rt.error_of(first));
    assert_eq!(reports[first].tasks.len(), 4);
    let err = rt
        .error_of(second)
        .expect("second submission must be refused");
    assert!(err.contains("rejected"), "{err}");
}

#[test]
fn queued_admission_runs_after_the_incumbent_finishes() {
    use hiway_yarn::{AdmissionPolicy, QueueSpec, QueuesConfig};
    let mut cluster = small_cluster(3);
    cluster.prestage("/in", 20 << 20);
    let config = QueuesConfig {
        root: QueueSpec::parent(
            "root",
            1.0,
            1.0,
            1.0,
            vec![QueueSpec::leaf("q", 1.0, 1.0, 1.0).with_max_apps(1)],
        ),
        admission: AdmissionPolicy::Queue,
        preemption_grace_secs: None,
    };
    cluster.rm.configure_queues(config).unwrap();
    let mut rt = Runtime::new(cluster);
    let first = rt.submit(
        Box::new(diamond()),
        HiwayConfig::default().with_queue("q"),
        ProvDb::new(),
    );
    // Same shape, different HDFS paths — both runs commit their outputs.
    let shifted = StaticWorkflow::new(
        "diamond2",
        "test",
        vec![
            task(0, "pre", &["/in"], &[("/2a", 10 << 20)], 5.0),
            task(1, "left", &["/2a"], &[("/2b", 1 << 20)], 10.0),
            task(2, "right", &["/2a"], &[("/2c", 1 << 20)], 10.0),
            task(3, "join", &["/2b", "/2c"], &[("/2d", 1 << 10)], 2.0),
        ],
    );
    let second = rt.submit(
        Box::new(shifted),
        HiwayConfig::default().with_queue("q"),
        ProvDb::new(),
    );
    let reports = rt.run_to_completion();
    assert!(rt.error_of(first).is_none(), "{:?}", rt.error_of(first));
    assert!(rt.error_of(second).is_none(), "{:?}", rt.error_of(second));
    assert_eq!(reports[second].tasks.len(), 4);
    // The parked workflow only started once the admission slot freed up:
    // strictly after every task of the incumbent had finished.
    let end_first = reports[first]
        .tasks
        .iter()
        .map(|t| t.t_end)
        .fold(0.0f64, f64::max);
    let start_second = reports[second]
        .tasks
        .iter()
        .map(|t| t.t_start)
        .fold(f64::INFINITY, f64::min);
    assert!(
        start_second >= end_first,
        "parked workflow ran concurrently: {start_second} < {end_first}"
    );
}

#[test]
fn cross_queue_preemption_lets_the_late_tenant_through() {
    use hiway_yarn::QueuesConfig;
    let mut cluster = small_cluster(3); // 6 cores
    cluster.prestage("/in", 20 << 20);
    cluster
        .rm
        .configure_queues(QueuesConfig::weighted_leaves(
            &[("a", 1.0), ("b", 1.0)],
            Some(10.0),
        ))
        .unwrap();
    let mut rt = Runtime::new(cluster);
    // Tenant A saturates the cluster with long tasks...
    let hog: Vec<TaskSpec> = (0..8)
        .map(|i| task(i, "hog", &["/in"], &[(&format!("/a{i}"), 1 << 10)], 300.0))
        .collect();
    let config_a = HiwayConfig {
        retry_backoff_secs: 1.0,
        ..HiwayConfig::default()
            .with_scheduler(SchedulerPolicy::Fcfs)
            .with_queue("a")
    };
    let ia = rt.submit(
        Box::new(StaticWorkflow::new("hog", "test", hog)),
        config_a,
        ProvDb::new(),
    );
    // Let the hog occupy every core before the second tenant shows up:
    // only then is B genuinely starved rather than served by DRF from an
    // empty cluster.
    assert!(rt.run_until(hiway_sim::SimTime::from_secs(20.0)));
    // ...now tenant B arrives with a couple of short tasks.
    let nimble: Vec<TaskSpec> = (0..2)
        .map(|i| task(i, "nimble", &["/in"], &[(&format!("/b{i}"), 1 << 10)], 30.0))
        .collect();
    let ib = rt.submit(
        Box::new(StaticWorkflow::new("nimble", "test", nimble)),
        HiwayConfig::default()
            .with_scheduler(SchedulerPolicy::Fcfs)
            .with_queue("b"),
        ProvDb::new(),
    );
    let reports = rt.run_to_completion();
    assert!(rt.error_of(ia).is_none(), "{:?}", rt.error_of(ia));
    assert!(rt.error_of(ib).is_none(), "{:?}", rt.error_of(ib));
    assert_eq!(reports[ia].tasks.len(), 8);
    assert_eq!(reports[ib].tasks.len(), 2);
    // B got capacity via preemption: A absorbed infra failures (not task
    // failures — preemption is not the task's fault) and B finished long
    // before the hog.
    assert!(reports[ia].infra_failures >= 1, "no preemption happened");
    assert_eq!(reports[ia].task_failures, 0);
    let end_b = reports[ib]
        .tasks
        .iter()
        .map(|t| t.t_end)
        .fold(0.0f64, f64::max);
    let end_a = reports[ia]
        .tasks
        .iter()
        .map(|t| t.t_end)
        .fold(0.0f64, f64::max);
    assert!(end_b < end_a / 2.0, "b at {end_b}, a at {end_a}");
}

#[test]
fn oversized_container_request_fails_fast_with_a_diagnostic() {
    let mut cluster = small_cluster(2);
    cluster.prestage("/in", 1 << 20);
    let mut rt = Runtime::new(cluster);
    let config = HiwayConfig {
        // No node has 64 cores: the request must be failed fast by the
        // RM, not parked forever.
        container_resource: hiway_yarn::Resource::new(64, 1 << 20),
        ..HiwayConfig::default()
    };
    let idx = rt.submit(
        Box::new(StaticWorkflow::new(
            "too-big",
            "test",
            vec![task(0, "t", &["/in"], &[("/o", 1)], 1.0)],
        )),
        config,
        ProvDb::new(),
    );
    rt.run_to_completion();
    let err = rt.error_of(idx).expect("must fail fast");
    assert!(err.contains("unsatisfiable"), "{err}");
    assert!(!err.contains("stalled"), "fail-fast, not a stall: {err}");
}

#[test]
fn unknown_queue_submission_fails_cleanly() {
    use hiway_yarn::QueuesConfig;
    let mut cluster = small_cluster(2);
    cluster.prestage("/in", 1 << 20);
    cluster
        .rm
        .configure_queues(QueuesConfig::weighted_leaves(&[("a", 1.0)], None))
        .unwrap();
    let mut rt = Runtime::new(cluster);
    let idx = rt.submit(
        Box::new(diamond()),
        HiwayConfig::default().with_queue("nope"),
        ProvDb::new(),
    );
    rt.run_to_completion();
    let err = rt.error_of(idx).expect("unknown queue must fail");
    assert!(err.contains("unknown queue"), "{err}");
}

#[test]
fn readiness_follows_commits_of_every_workflow() {
    // Workflow B's join reads a file workflow A produces. A's commit must
    // reach B's readiness tracker, and the driver invariants hold after
    // every second of the run.
    let mut cluster = small_cluster(3);
    cluster.prestage("/in", 1 << 20);
    let mut rt = Runtime::new(cluster);
    let fcfs = || HiwayConfig::default().with_scheduler(SchedulerPolicy::Fcfs);
    let ia = rt.submit(Box::new(diamond()), fcfs(), ProvDb::new());
    let consumer = StaticWorkflow::new(
        "consumer",
        "test",
        vec![
            task(0, "slow", &["/in"], &[("/s", 1 << 10)], 60.0),
            task(1, "join", &["/s", "/d", "/s"], &[("/j", 1 << 10)], 1.0),
        ],
    );
    let ib = rt.submit(Box::new(consumer), fcfs(), ProvDb::new());
    let mut t = 0.0;
    loop {
        t += 1.0;
        let active = rt.run_until(hiway_sim::SimTime::from_secs(t));
        rt.check_invariants()
            .unwrap_or_else(|why| panic!("at t={t}: {why}"));
        if !active {
            break;
        }
    }
    assert!(rt.error_of(ia).is_none(), "{:?}", rt.error_of(ia));
    assert!(rt.error_of(ib).is_none(), "{:?}", rt.error_of(ib));
    assert_eq!(rt.progress(ib), (2, 2));
}

/// A static workflow whose front-end fails when `bad` completes.
struct FailsOn {
    inner: StaticWorkflow,
    bad: TaskId,
}

impl WorkflowSource for FailsOn {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn language(&self) -> &'static str {
        self.inner.language()
    }
    fn initial_tasks(&mut self) -> Result<Vec<TaskSpec>, LangError> {
        self.inner.initial_tasks()
    }
    fn on_task_completed(&mut self, task: TaskId) -> Result<Vec<TaskSpec>, LangError> {
        if task == self.bad {
            return Err(LangError::new("test", "front-end broke"));
        }
        self.inner.on_task_completed(task)
    }
    fn is_static(&self) -> bool {
        self.inner.is_static()
    }
    fn required_inputs(&self) -> Vec<String> {
        self.inner.required_inputs()
    }
    fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }
}

#[test]
fn front_end_error_on_a_memo_hit_stops_requesting_containers() {
    // A warm store holds task "a". On resume, "a" is satisfied from it at
    // once and the front-end errors on that completion. The workflow
    // fails, and neither the other ready task nor the one "a" unblocked
    // may ask the RM for a container afterwards.
    let db = ProvDb::new();
    let resume = || {
        HiwayConfig::default()
            .with_scheduler(SchedulerPolicy::Fcfs)
            .with_resume(true)
    };
    let first = task(0, "a", &["/in"], &[("/a", 1 << 20)], 5.0);
    let mut cluster = small_cluster(3);
    cluster.prestage("/in", 1 << 20);
    let mut rt = Runtime::new(cluster);
    let warm = StaticWorkflow::new("warm", "test", vec![first.clone()]);
    let idx = rt.submit(Box::new(warm), resume(), db.clone());
    rt.run_to_completion();
    assert!(rt.error_of(idx).is_none(), "{:?}", rt.error_of(idx));

    let mut cluster = small_cluster(3);
    cluster.prestage("/in", 1 << 20);
    let mut rt = Runtime::new(cluster);
    let tasks = vec![
        first,
        task(1, "b", &["/in"], &[("/b", 1 << 20)], 5.0),
        task(2, "c", &["/a"], &[("/c", 1 << 20)], 5.0),
    ];
    let source = FailsOn {
        inner: StaticWorkflow::new("resumed", "test", tasks),
        bad: TaskId(0),
    };
    let idx = rt.submit(Box::new(source), resume(), db);
    rt.run_to_completion();
    assert_eq!(rt.memo_hits(idx), 1);
    let err = rt.error_of(idx).expect("the front-end error fails the run");
    assert!(err.contains("front-end broke"), "{err}");
    assert_eq!(rt.cluster.rm.pending_requests(), 0);
    rt.check_invariants().unwrap();
}

#[test]
fn files_without_transfers_still_finish_and_report_one_event_each() {
    // Every way a file can move no bytes: a task without inputs, a
    // zero-byte HDFS input (next to one that does transfer), a zero-size
    // external input, a task without outputs and a zero-byte output.
    let mut spec = ClusterSpec::homogeneous(3, "w", &NodeSpec::m3_large("p"));
    let s3 = spec.add_external(hiway_sim::ExternalSpec::s3());
    let mut cluster = Cluster::new(spec, 3);
    cluster.prestage("/in", 1 << 20);
    cluster.prestage("/empty", 0);
    cluster.register_external_file("s3://bucket/empty", s3, 0);
    let tasks = vec![
        task(0, "source", &[], &[("/zero", 0), ("/data", 1 << 20)], 2.0),
        task(1, "sink", &["/zero", "/in", "/empty"], &[], 2.0),
        task(2, "fetch", &["s3://bucket/empty"], &[("/fetched", 0)], 2.0),
    ];
    let db = ProvDb::new();
    let mut rt = Runtime::new(cluster);
    let config = HiwayConfig::default().with_scheduler(SchedulerPolicy::Fcfs);
    let wf = rt.submit(
        Box::new(StaticWorkflow::new("no-transfer", "test", tasks.clone())),
        config,
        db.clone(),
    );
    let reports = rt.run_to_completion();
    assert!(rt.error_of(wf).is_none(), "{:?}", rt.error_of(wf));
    assert_eq!(reports[wf].tasks.len(), 3);
    rt.check_invariants().unwrap();

    let events = db
        .collection(hiway_core::provenance::FILES_COLLECTION)
        .snapshot();
    let event = |doc: &hiway_format::Json| {
        (
            doc.get("task").and_then(|v| v.as_u64()).unwrap(),
            doc.get("direction")
                .and_then(|v| v.as_str())
                .unwrap()
                .to_string(),
            doc.get("path")
                .and_then(|v| v.as_str())
                .unwrap()
                .to_string(),
            doc.get("size").and_then(|v| v.as_u64()).unwrap(),
        )
    };
    let mut got: Vec<_> = events.iter().map(event).collect();
    got.sort();
    let size_of = |p: &str| match p {
        "/in" | "/data" => 1 << 20,
        _ => 0,
    };
    let mut want: Vec<_> = tasks
        .iter()
        .flat_map(|t| {
            let ins = t.inputs.iter().map(|p| ("in", p.clone()));
            let outs = t.outputs.iter().map(|o| ("out", o.path.clone()));
            ins.chain(outs)
                .map(|(d, p)| (t.id.0, d.to_string(), p.clone(), size_of(&p)))
                .collect::<Vec<_>>()
        })
        .collect();
    want.sort();
    assert_eq!(got, want);
}

#[test]
fn stage_in_failure_cancels_the_transfers_of_earlier_files() {
    // Replication 1: `/b`'s only DataNode is gone before the task runs,
    // so its stage-in fails after `/a`'s read has already started.
    let spec = ClusterSpec::homogeneous(3, "w", &NodeSpec::m3_large("p"));
    let hdfs = hiway_hdfs::HdfsConfig {
        replication: 1,
        ..Default::default()
    };
    let mut cluster = Cluster::with_hdfs_config(spec, hdfs, 5);
    cluster.prestage("/a", 64 << 20);
    cluster.prestage("/b", 1 << 20);
    let holder = |c: &Cluster, p: &str| c.hdfs.status(p).unwrap().blocks[0].replicas[0];
    let lost = holder(&cluster, "/b");
    assert_ne!(holder(&cluster, "/a"), lost);
    cluster.fail_node(lost);
    let mut rt = Runtime::new(cluster);
    let config = HiwayConfig {
        infra_retries: 0,
        ..HiwayConfig::default().with_scheduler(SchedulerPolicy::Fcfs)
    };
    let wf = rt.submit(
        Box::new(StaticWorkflow::new(
            "lost-input",
            "test",
            vec![task(0, "t", &["/a", "/b"], &[("/o", 1 << 10)], 5.0)],
        )),
        config,
        ProvDb::new(),
    );
    rt.run_to_completion();
    let err = rt.error_of(wf).expect("the lost input fails the run");
    assert!(err.contains("stage-in of '/b' failed"), "{err}");
    assert_eq!(
        rt.cluster.engine.active_count(),
        0,
        "/a's read was cancelled"
    );
    rt.check_invariants().unwrap();
}

#[test]
fn stage_out_failure_fails_the_attempt() {
    // The output path is already committed, so the task's create fails.
    let mut cluster = small_cluster(2);
    cluster.prestage("/in", 1 << 20);
    cluster.prestage("/o", 1 << 10);
    let mut rt = Runtime::new(cluster);
    let config = HiwayConfig {
        infra_retries: 0,
        ..HiwayConfig::default().with_scheduler(SchedulerPolicy::Fcfs)
    };
    let wf = rt.submit(
        Box::new(StaticWorkflow::new(
            "taken-output",
            "test",
            vec![task(0, "t", &["/in"], &[("/o", 1 << 10)], 5.0)],
        )),
        config,
        ProvDb::new(),
    );
    rt.run_to_completion();
    let err = rt.error_of(wf).expect("the taken output fails the run");
    assert!(err.contains("stage-out of '/o' failed"), "{err}");
    assert_eq!(rt.cluster.engine.active_count(), 0);
    rt.check_invariants().unwrap();
}
