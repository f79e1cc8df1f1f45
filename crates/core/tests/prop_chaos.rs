//! Property tests of the fault-injection subsystem: random fault plans
//! applied to random workloads must be (i) bitwise deterministic — the
//! same seeds give the same outcome, event for event — and (ii) safe:
//! the run either completes with every task accounted for, or fails with
//! a diagnostic; it never panics, hangs, or corrupts the reports.
//!
//! The nightly CI job re-runs this with `PROPTEST_CASES` raised ~20x.

use proptest::prelude::*;

use hiway_core::cluster::Cluster;
use hiway_core::config::{HiwayConfig, SchedulerPolicy};
use hiway_core::driver::Runtime;
use hiway_core::faults::{FaultConfig, FaultInjector, FaultPlan};
use hiway_lang::ir::{OutputSpec, StaticWorkflow, TaskCost, TaskId, TaskSpec};
use hiway_provdb::ProvDb;
use hiway_sim::{ClusterSpec, NodeId, NodeSpec};

fn fan_dag(width: usize, depth: usize) -> StaticWorkflow {
    let mut tasks = Vec::new();
    let mut id = 0u64;
    let mut prev = vec!["/in".to_string()];
    for layer in 0..depth {
        let mut outs = Vec::new();
        for w in 0..width {
            let out = format!("/l{layer}_{w}");
            tasks.push(TaskSpec {
                id: TaskId(id),
                name: format!("layer{layer}"),
                command: "tool".into(),
                inputs: vec![prev[w % prev.len()].clone()],
                outputs: vec![OutputSpec {
                    path: out.clone(),
                    size: 1 << 20,
                }],
                cost: TaskCost::new(15.0, 1, 256),
            });
            outs.push(out);
            id += 1;
        }
        prev = outs;
    }
    StaticWorkflow::new("chaos-dag", "test", tasks)
}

/// The observable outcome of one chaos run, for bitwise comparison.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    error: Option<String>,
    tasks_done: usize,
    makespan: f64,
    wasted: f64,
    infra_failures: u32,
    task_failures: u32,
    injected: Vec<(u64, String)>,
    skipped: u32,
}

fn chaos_run(width: usize, depth: usize, nodes: usize, intensity: f64, seed: u64) -> Outcome {
    let spec = ClusterSpec::homogeneous(nodes, "w", &NodeSpec::m3_large("p"));
    let mut cluster = Cluster::new(spec, seed);
    cluster.prestage("/in", 1 << 20);
    let wf = fan_dag(width, depth);
    let total = wf.tasks.len();
    let mut rt = Runtime::new(cluster);
    let config = HiwayConfig {
        task_retries: 50,
        infra_retries: 200,
        retry_backoff_secs: 1.0,
        retry_backoff_max_secs: 8.0,
        blacklist_decay_secs: 30.0,
        task_failure_prob: (intensity * 0.05).min(0.5),
        speculative_execution: true,
        speculation_factor: 2.0,
        speculation_min_secs: 10.0,
        seed,
        write_trace: false,
        ..HiwayConfig::default().with_scheduler(SchedulerPolicy::DataAware)
    };
    let idx = rt.submit(Box::new(wf), config, ProvDb::new());
    // Node 0 hosts the AM container (first allocation); keep it out of
    // the blast radius like the real deployments keep their masters.
    let eligible: Vec<NodeId> = (1..nodes as u32).map(NodeId).collect();
    let fc = FaultConfig {
        recovery_secs: 20.0,
        straggler_secs: 15.0,
        horizon_secs: 1800.0,
        ..FaultConfig::with_intensity(seed ^ 0x000c_4a05, intensity * 40.0)
    };
    let plan = FaultPlan::generate(&fc, &eligible);
    let mut injector = FaultInjector::new(plan, eligible);
    let reports = injector.run(&mut rt);
    if let Err(why) = rt.check_invariants() {
        panic!("invariant broken after a chaos run: {why}");
    }
    let r = &reports[idx];
    Outcome {
        error: rt.error_of(idx).map(str::to_string),
        tasks_done: r.tasks.len(),
        makespan: if rt.error_of(idx).is_none() {
            r.runtime_secs()
        } else {
            0.0
        },
        wasted: r.wasted_container_secs,
        infra_failures: r.infra_failures,
        task_failures: r.task_failures,
        injected: injector
            .injected
            .iter()
            .map(|(t, what)| (t.to_bits(), what.clone()))
            .collect(),
        skipped: injector.skipped,
    }
    .check(total)
}

impl Outcome {
    /// Internal consistency of a single run.
    fn check(self, total_tasks: usize) -> Outcome {
        match &self.error {
            None => {
                assert_eq!(
                    self.tasks_done, total_tasks,
                    "completed run must report all tasks"
                );
                assert!(self.makespan > 0.0);
            }
            Some(msg) => assert!(!msg.is_empty(), "failures carry a diagnostic"),
        }
        assert!(self.wasted >= 0.0 && self.wasted.is_finite());
        if self.wasted > 0.0 {
            // Waste only comes from failed attempts or cancelled twins.
            assert!(
                self.infra_failures + self.task_failures > 0 || !self.injected.is_empty(),
                "waste without any failure or fault"
            );
        }
        self
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Two runs with identical seeds are identical in every observable:
    /// outcome, counters, and the exact injected-fault log.
    #[test]
    fn chaos_runs_are_bitwise_deterministic(
        width in 2usize..5,
        depth in 1usize..4,
        nodes in 3usize..6,
        intensity_tenths in 0u32..12,
        seed in 0u64..10_000,
    ) {
        let intensity = intensity_tenths as f64 / 10.0;
        let a = chaos_run(width, depth, nodes, intensity, seed);
        let b = chaos_run(width, depth, nodes, intensity, seed);
        prop_assert_eq!(a, b);
    }

    /// With generous retry budgets and the AM node protected, moderate
    /// chaos is always survivable: the workflow completes and failure
    /// counters line up with the injected faults.
    #[test]
    fn moderate_chaos_always_completes(
        width in 2usize..5,
        nodes in 4usize..6,
        seed in 0u64..10_000,
    ) {
        let outcome = chaos_run(width, 2, nodes, 0.3, seed);
        prop_assert!(
            outcome.error.is_none(),
            "moderate chaos must be survivable: {:?} (faults: {:?})",
            outcome.error, outcome.injected
        );
        prop_assert_eq!(outcome.tasks_done, width * 2);
    }

    /// Zero intensity injects nothing and equals a plain fault-free run.
    #[test]
    fn zero_intensity_is_a_noop(
        width in 2usize..5,
        nodes in 3usize..6,
        seed in 0u64..10_000,
    ) {
        let outcome = chaos_run(width, 2, nodes, 0.0, seed);
        prop_assert!(outcome.error.is_none());
        prop_assert!(outcome.injected.is_empty());
        prop_assert_eq!(outcome.skipped, 0);
        prop_assert_eq!(outcome.infra_failures, 0);
        prop_assert_eq!(outcome.task_failures, 0);
        prop_assert_eq!(outcome.wasted, 0.0);
    }
}
