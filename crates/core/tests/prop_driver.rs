//! Property tests of the Workflow Driver: random layered DAGs always run
//! to completion with dependencies respected, under every dynamic
//! scheduler and under random task failures.

use proptest::prelude::*;

use hiway_core::cluster::Cluster;
use hiway_core::config::{HiwayConfig, SchedulerPolicy};
use hiway_core::driver::Runtime;
use hiway_core::report::WorkflowReport;
use hiway_lang::ir::{OutputSpec, StaticWorkflow, TaskCost, TaskId, TaskSpec};
use hiway_obs::Tracer;
use hiway_provdb::ProvDb;
use hiway_sim::{ClusterSpec, NodeSpec};

/// Builds a random layered DAG: `layers[i]` tasks in layer `i`, each
/// consuming 1–2 outputs of the previous layer (or the staged input).
fn layered_dag(layers: &[usize], cpu: f64) -> StaticWorkflow {
    let mut tasks = Vec::new();
    let mut id = 0u64;
    let mut prev_outputs: Vec<String> = vec!["/in".to_string()];
    for (li, &width) in layers.iter().enumerate() {
        let mut outputs = Vec::new();
        for w in 0..width {
            let out = format!("/l{li}_t{w}");
            let mut inputs = vec![prev_outputs[w % prev_outputs.len()].clone()];
            if prev_outputs.len() > 1 && w % 3 == 0 {
                inputs.push(prev_outputs[(w + 1) % prev_outputs.len()].clone());
            }
            tasks.push(TaskSpec {
                id: TaskId(id),
                name: format!("layer{li}"),
                command: format!("tool-l{li}"),
                inputs,
                outputs: vec![OutputSpec {
                    path: out.clone(),
                    size: 1 << 20,
                }],
                cost: TaskCost::new(cpu, 1 + (w % 2) as u32, 256),
            });
            outputs.push(out);
            id += 1;
        }
        prev_outputs = outputs;
    }
    StaticWorkflow::new("random-dag", "test", tasks)
}

/// Every field of a report, floats as their bits.
fn report_bits(r: &WorkflowReport) -> Vec<String> {
    let mut out = vec![format!(
        "{} {} {} {:x} {:x} {:x} {} {} {} {:?} {}",
        r.name,
        r.language,
        r.scheduler,
        r.t_submit.to_bits(),
        r.t_finish.to_bits(),
        r.wasted_container_secs.to_bits(),
        r.infra_failures,
        r.task_failures,
        r.speculative_attempts,
        r.trace_path,
        r.trace,
    )];
    out.extend(r.tasks.iter().map(|t| {
        format!(
            "{:?} {} {} {:x} {:x} {:x} {} {:x} {:x}",
            t.id,
            t.name,
            t.node,
            t.t_ready.to_bits(),
            t.t_start.to_bits(),
            t.t_end.to_bits(),
            t.attempts,
            t.localize_secs.to_bits(),
            t.commit_secs.to_bits(),
        )
    }));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Untraced, FCFS takes the head of the ready list without scoring
    /// it; traced, it scores every candidate for the audit row. Random
    /// DAGs on one-node and multi-node clusters, with task failures whose
    /// retries avoid the failed node, give `to_bits`-identical reports
    /// either way.
    #[test]
    fn fcfs_runs_match_traced_and_untraced(
        layers in proptest::collection::vec(1usize..6, 1..4),
        nodes in 1usize..5,
        failure_prob in 0.0f64..0.4,
        seed in 0u64..500,
    ) {
        let run = |traced: bool| {
            let spec = ClusterSpec::homogeneous(nodes, "w", &NodeSpec::m3_large("p"));
            let mut cluster = Cluster::new(spec, seed);
            cluster.prestage("/in", 4 << 20);
            let mut rt = Runtime::new(cluster);
            let tracer = if traced { Tracer::enabled() } else { Tracer::disabled() };
            rt.set_tracer(&tracer);
            let mut config = HiwayConfig::default()
                .with_scheduler(SchedulerPolicy::Fcfs)
                .with_seed(seed);
            config.task_failure_prob = failure_prob;
            config.task_retries = 50;
            let idx = rt.submit(Box::new(layered_dag(&layers, 3.0)), config, ProvDb::new());
            let reports = rt.run_to_completion();
            let decisions = tracer.with_decisions(|ds| ds.len());
            (report_bits(&reports[idx]), rt.error_of(idx).map(str::to_string), decisions)
        };
        let (untraced, error, none) = run(false);
        let (traced, traced_error, decisions) = run(true);
        prop_assert!(error.is_none(), "{:?}", error);
        prop_assert_eq!(traced_error, error);
        prop_assert_eq!(none, 0);
        prop_assert!(decisions > 0, "the traced run audits its selections");
        prop_assert_eq!(traced, untraced);
    }

    /// Every random DAG completes under both dynamic schedulers, and no
    /// task starts before its producers finished.
    #[test]
    fn random_dags_complete_with_dependencies_respected(
        layers in proptest::collection::vec(1usize..5, 1..4),
        nodes in 2usize..5,
        data_aware in any::<bool>(),
        seed in 0u64..500,
    ) {
        let wf = layered_dag(&layers, 3.0);
        let producers: std::collections::HashMap<String, TaskId> = wf
            .tasks
            .iter()
            .flat_map(|t| t.outputs.iter().map(|o| (o.path.clone(), t.id)))
            .collect();
        let task_inputs: std::collections::HashMap<TaskId, Vec<String>> =
            wf.tasks.iter().map(|t| (t.id, t.inputs.clone())).collect();
        let total = wf.tasks.len();

        let spec = ClusterSpec::homogeneous(nodes, "w", &NodeSpec::m3_large("p"));
        let mut cluster = Cluster::new(spec, seed);
        cluster.prestage("/in", 4 << 20);
        let mut rt = Runtime::new(cluster);
        let policy = if data_aware { SchedulerPolicy::DataAware } else { SchedulerPolicy::Fcfs };
        let idx = rt.submit(
            Box::new(wf),
            HiwayConfig::default().with_scheduler(policy).with_seed(seed),
            ProvDb::new(),
        );
        let reports = rt.run_to_completion();
        rt.check_invariants().map_err(TestCaseError::fail)?;
        prop_assert!(rt.error_of(idx).is_none(), "{:?}", rt.error_of(idx));
        prop_assert_eq!(reports[idx].tasks.len(), total);

        let end_of: std::collections::HashMap<TaskId, f64> =
            reports[idx].tasks.iter().map(|t| (t.id, t.t_end)).collect();
        for t in &reports[idx].tasks {
            for input in &task_inputs[&t.id] {
                if let Some(p) = producers.get(input) {
                    prop_assert!(
                        end_of[p] <= t.t_start + 1e-9,
                        "task {:?} started before producer {:?} finished",
                        t.id, p
                    );
                }
            }
        }
    }

    /// Random task failures with enough retries never prevent completion,
    /// and the attempt counts reflect the failures.
    #[test]
    fn random_failures_are_retried_to_completion(
        width in 2usize..6,
        failure_prob in 0.0f64..0.5,
        seed in 0u64..500,
    ) {
        let wf = layered_dag(&[width, width], 2.0);
        let total = wf.tasks.len();
        let spec = ClusterSpec::homogeneous(3, "w", &NodeSpec::m3_large("p"));
        let mut cluster = Cluster::new(spec, seed);
        cluster.prestage("/in", 1 << 20);
        let mut rt = Runtime::new(cluster);
        let mut config = HiwayConfig::default().with_seed(seed);
        config.task_failure_prob = failure_prob;
        config.task_retries = 50; // p<0.5 ⇒ 50 straight failures ≈ never
        let idx = rt.submit(Box::new(wf), config, ProvDb::new());
        let reports = rt.run_to_completion();
        rt.check_invariants().map_err(TestCaseError::fail)?;
        prop_assert!(rt.error_of(idx).is_none(), "{:?}", rt.error_of(idx));
        prop_assert_eq!(reports[idx].tasks.len(), total);
        for t in &reports[idx].tasks {
            prop_assert!(t.attempts >= 1);
        }
    }
}
