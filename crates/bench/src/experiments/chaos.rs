//! Chaos experiment: Hi-WAY's fault tolerance under injected failures.
//!
//! Not a figure from the paper — §3.3 describes the AM's fault tolerance
//! ("execution of the workflow need not be interrupted … resubmitting
//! failed tasks, provisioning additional containers") but the evaluation
//! never measures it. This experiment does: the Montage workflow runs on
//! an EC2-profile cluster while a seeded [`FaultPlan`] crashes and
//! recovers worker nodes, preempts containers, kills DataNode disks
//! (forcing re-replication), and throttles nodes with CPU-contention
//! windows; the AM additionally suffers transient tool crashes. Swept
//! over a fault-intensity knob, it reports, per intensity:
//!
//! * **completion rate** — fraction of repetitions that still finished;
//! * **makespan inflation** — median runtime relative to intensity 0;
//! * **wasted container-seconds** — work burnt in failed attempts and
//!   cancelled speculative duplicates;
//! * failure/recovery counters (infra vs. task failures, speculative
//!   duplicates, faults actually injected).
//!
//! Everything is seeded: the same binary produces byte-identical output
//! across runs (CI executes it twice and diffs), and intensity 0.0
//! degenerates to a fault-free run — the injector adds nothing.

use hiway_core::faults::{FaultConfig, FaultInjector, FaultPlan};
use hiway_core::{HiwayConfig, SchedulerPolicy};
use hiway_lang::dax::parse_dax;
use hiway_obs::Tracer;
use hiway_provdb::ProvDb;
use hiway_sim::NodeSpec;
use hiway_workloads::montage::MontageParams;
use hiway_workloads::profiles;
use hiway_yarn::Resource;

use crate::experiments::common;
use crate::stats::Summary;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct ChaosParams {
    pub workers: usize,
    /// Repetitions (independent seeds) per intensity.
    pub repetitions: usize,
    /// Fault-intensity knob values; 0.0 must be present (the baseline all
    /// inflation numbers are relative to).
    pub intensities: Vec<f64>,
}

impl Default for ChaosParams {
    fn default() -> ChaosParams {
        ChaosParams {
            workers: 8,
            repetitions: 10,
            intensities: vec![0.0, 0.5, 1.0, 2.0],
        }
    }
}

/// Outcome of one repetition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosCell {
    pub completed: bool,
    pub makespan_secs: f64,
    pub wasted_container_secs: f64,
    pub infra_failures: u32,
    pub task_failures: u32,
    pub speculative_attempts: u32,
    /// Faults the injector actually applied (safety rules may skip some).
    pub faults_injected: usize,
}

/// Results: `cells[i]` holds the repetitions of `intensities[i]`.
#[derive(Clone, Debug)]
pub struct ChaosResult {
    pub intensities: Vec<f64>,
    pub cells: Vec<Vec<ChaosCell>>,
}

/// The fault scenario for one repetition. Recovery is quick relative to
/// the ~3-minute Montage makespan so crashed nodes return mid-run.
fn fault_config(seed: u64, intensity: f64) -> FaultConfig {
    FaultConfig {
        recovery_secs: 60.0,
        straggler_secs: 45.0,
        straggler_procs: 8,
        ..FaultConfig::with_intensity(seed, intensity)
    }
}

fn chaos_am_config(seed: u64, task_failure_prob: f64) -> HiwayConfig {
    HiwayConfig {
        container_resource: Resource::new(1, 2048),
        scheduler: SchedulerPolicy::DataAware,
        task_failure_prob,
        // Recovery machinery under test: fast retries, strike-based node
        // avoidance, and straggler re-execution.
        retry_backoff_secs: 2.0,
        retry_backoff_max_secs: 32.0,
        blacklist_strikes: 2,
        blacklist_decay_secs: 90.0,
        speculative_execution: true,
        speculation_factor: 2.0,
        speculation_min_secs: 8.0,
        seed,
        write_trace: false,
        ..HiwayConfig::default()
    }
}

/// Runs one seeded repetition at one intensity.
pub fn run_cell(workers: usize, intensity: f64, seed: u64) -> Result<ChaosCell, String> {
    run_cell_traced(workers, intensity, seed, &Tracer::disabled())
}

/// Like [`run_cell`], but with the runtime and the fault injector wired to
/// `tracer`, so fault instants land on the trace and the per-kind
/// `fault.*` counters land in the metrics registry.
pub fn run_cell_traced(
    workers: usize,
    intensity: f64,
    seed: u64,
    tracer: &Tracer,
) -> Result<ChaosCell, String> {
    let montage = MontageParams::default();
    let mut deployment = profiles::ec2_cluster(workers, &NodeSpec::m3_large("proto"), seed);
    deployment.runtime.set_tracer(tracer);
    for (path, size) in montage.input_files() {
        deployment.runtime.cluster.prestage(&path, size);
    }
    let fc = fault_config(seed ^ 0x000f_a417, intensity);
    let source = parse_dax(&montage.dax_source()).map_err(|e| e.to_string())?;
    let idx = deployment.runtime.submit(
        Box::new(source),
        chaos_am_config(seed, fc.task_failure_prob),
        ProvDb::new(),
    );
    let workers_ids = deployment.worker_ids();
    let plan = FaultPlan::generate(&fc, &workers_ids);
    let mut injector = FaultInjector::new(plan, workers_ids);
    injector.set_tracer(tracer);
    let reports = injector.run(&mut deployment.runtime);
    let report = &reports[idx];
    Ok(ChaosCell {
        completed: deployment.runtime.error_of(idx).is_none(),
        makespan_secs: report.runtime_secs(),
        wasted_container_secs: report.wasted_container_secs,
        infra_failures: report.infra_failures,
        task_failures: report.task_failures,
        speculative_attempts: report.speculative_attempts,
        faults_injected: injector.injected.len(),
    })
}

/// The seed of repetition `rep` at the sweep's `i`-th intensity.
pub fn cell_seed(i: usize, rep: usize) -> u64 {
    11_000 + rep as u64 * 131 + i as u64 * 7_919
}

/// Runs the sweep; repetitions fan out across threads and merge back in
/// submission order, so output is byte-identical however many threads run.
pub fn run(params: &ChaosParams) -> Result<ChaosResult, String> {
    let mut jobs = Vec::new();
    for (i, &intensity) in params.intensities.iter().enumerate() {
        for rep in 0..params.repetitions {
            jobs.push((i, intensity, cell_seed(i, rep)));
        }
    }
    let outcomes = common::par_map(jobs, |(i, intensity, seed)| {
        run_cell(params.workers, intensity, seed).map(|c| (i, c))
    });
    let mut cells: Vec<Vec<ChaosCell>> = vec![Vec::new(); params.intensities.len()];
    for outcome in outcomes {
        let (i, cell) = outcome?;
        cells[i].push(cell);
    }
    Ok(ChaosResult {
        intensities: params.intensities.clone(),
        cells,
    })
}

/// Runs the sweep and folds per-intensity totals into `tracer`'s metrics
/// registry: for each intensity `x` the counters
/// `chaos.faults_injected@x`, `chaos.infra_failures@x`,
/// `chaos.task_failures@x`, and `chaos.completed@x` record the sums over
/// all repetitions. (Cells run on worker threads, so they cannot share the
/// single-threaded tracer; the aggregation here is where the registry gets
/// fed.) A disabled tracer makes this identical to [`run`].
pub fn run_traced(params: &ChaosParams, tracer: &Tracer) -> Result<ChaosResult, String> {
    let result = run(params)?;
    if tracer.is_enabled() {
        for (i, cells) in result.cells.iter().enumerate() {
            let label = format!("{:.2}", result.intensities[i]);
            let sum = |f: &dyn Fn(&ChaosCell) -> u64| cells.iter().map(f).sum::<u64>();
            tracer.inc(
                &format!("chaos.faults_injected@{label}"),
                sum(&|c| c.faults_injected as u64),
            );
            tracer.inc(
                &format!("chaos.infra_failures@{label}"),
                sum(&|c| c.infra_failures as u64),
            );
            tracer.inc(
                &format!("chaos.task_failures@{label}"),
                sum(&|c| c.task_failures as u64),
            );
            tracer.inc(
                &format!("chaos.completed@{label}"),
                cells.iter().filter(|c| c.completed).count() as u64,
            );
        }
    }
    Ok(result)
}

/// Renders the sweep as a text table.
pub fn render(result: &ChaosResult) -> String {
    let baseline = result
        .intensities
        .iter()
        .position(|i| *i == 0.0)
        .map(|i| completed_makespans(&result.cells[i]))
        .map(|m| Summary::of(&m).median)
        .unwrap_or(0.0);
    let mut rows = Vec::new();
    for (i, cells) in result.cells.iter().enumerate() {
        let n = cells.len().max(1);
        let done = cells.iter().filter(|c| c.completed).count();
        let makespans = completed_makespans(cells);
        let median = Summary::of(&makespans).median;
        let inflation = if baseline > 0.0 && !makespans.is_empty() {
            median / baseline
        } else {
            f64::NAN
        };
        let mean = |f: &dyn Fn(&ChaosCell) -> f64| cells.iter().map(f).sum::<f64>() / n as f64;
        rows.push(vec![
            format!("{:.2}", result.intensities[i]),
            format!("{done}/{n}"),
            format!("{:.0}%", 100.0 * done as f64 / n as f64),
            if makespans.is_empty() {
                "-".into()
            } else {
                format!("{median:.1}")
            },
            if inflation.is_nan() {
                "-".into()
            } else {
                format!("{inflation:.2}x")
            },
            format!("{:.0}", mean(&|c| c.wasted_container_secs)),
            format!("{:.1}", mean(&|c| c.infra_failures as f64)),
            format!("{:.1}", mean(&|c| c.task_failures as f64)),
            format!("{:.1}", mean(&|c| c.speculative_attempts as f64)),
            format!("{:.1}", mean(&|c| c.faults_injected as f64)),
        ]);
    }
    common::render_table(
        &[
            "intensity",
            "completed",
            "rate",
            "makespan med (s)",
            "inflation",
            "wasted (cs)",
            "infra f",
            "task f",
            "spec",
            "faults",
        ],
        &rows,
    )
}

fn completed_makespans(cells: &[ChaosCell]) -> Vec<f64> {
    cells
        .iter()
        .filter(|c| c.completed)
        .map(|c| c.makespan_secs)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiway_core::driver::Runtime;

    /// One plain (no-injector) Montage run with the chaos AM config.
    fn plain_run(workers: usize, seed: u64) -> (bool, f64) {
        let montage = MontageParams::default();
        let mut deployment = profiles::ec2_cluster(workers, &NodeSpec::m3_large("proto"), seed);
        for (path, size) in montage.input_files() {
            deployment.runtime.cluster.prestage(&path, size);
        }
        let source = parse_dax(&montage.dax_source()).unwrap();
        let idx =
            deployment
                .runtime
                .submit(Box::new(source), chaos_am_config(seed, 0.0), ProvDb::new());
        let runtime: &mut Runtime = &mut deployment.runtime;
        let reports = runtime.run_to_completion();
        (runtime.error_of(idx).is_none(), reports[idx].runtime_secs())
    }

    #[test]
    fn zero_intensity_reproduces_fault_free_baseline() {
        // An empty fault plan must leave the run bit-identical to a plain
        // run_to_completion with the same seeds.
        let cell = run_cell(6, 0.0, 4242).unwrap();
        let (ok, makespan) = plain_run(6, 4242);
        assert!(cell.completed && ok);
        assert_eq!(
            cell.makespan_secs, makespan,
            "injector must be a no-op at rate 0"
        );
        assert_eq!(cell.infra_failures, 0);
        assert_eq!(cell.task_failures, 0);
        assert_eq!(cell.faults_injected, 0);
    }

    #[test]
    fn chaos_runs_complete_under_moderate_faults() {
        // Under a moderate plan the workflow should survive via retries —
        // and actually absorb some injected faults.
        let cell = run_cell(8, 1.0, 11_000).unwrap();
        assert!(cell.faults_injected > 0, "plan unexpectedly empty");
        assert!(cell.completed, "moderate chaos should be survivable");
        assert!(cell.makespan_secs > 0.0);
    }

    #[test]
    fn zero_intensity_emits_no_fault_events() {
        // The default disabled tracer must stay allocation-free: no
        // buffer exists, so nothing can have been recorded.
        let off = Tracer::disabled();
        let cell = run_cell_traced(6, 0.0, 4242, &off).unwrap();
        assert_eq!(cell.faults_injected, 0);
        assert_eq!(off.event_count(), 0);
        assert!(
            off.snapshot().is_none(),
            "disabled tracer allocates nothing"
        );

        // An enabled tracer at intensity 0 sees plenty of engine/driver
        // activity but exactly zero fault instants and fault counters,
        // and records the run without changing it.
        let on = Tracer::enabled();
        let traced = run_cell_traced(6, 0.0, 4242, &on).unwrap();
        assert_eq!(traced, cell, "tracing changed the run");
        assert_eq!(on.counter_value("fault.injected"), 0);
        assert_eq!(on.counter_value("fault.skipped"), 0);
        let snap = on.snapshot().unwrap();
        assert!(
            !snap.events.is_empty(),
            "the run itself must still be traced"
        );
        assert!(snap.events.iter().all(|e| !matches!(
            e,
            hiway_obs::TraceEvent::Instant { name, .. } if name.starts_with("fault:")
        )));
    }

    #[test]
    fn traced_sweep_logs_per_intensity_fault_counts() {
        let params = ChaosParams {
            workers: 6,
            repetitions: 1,
            intensities: vec![0.0, 1.0],
        };
        let tracer = Tracer::enabled();
        let result = run_traced(&params, &tracer).unwrap();
        assert_eq!(tracer.counter_value("chaos.faults_injected@0.00"), 0);
        let injected_at_one: u64 = result.cells[1]
            .iter()
            .map(|c| c.faults_injected as u64)
            .sum();
        assert!(injected_at_one > 0, "intensity 1 should inject faults");
        assert_eq!(
            tracer.counter_value("chaos.faults_injected@1.00"),
            injected_at_one
        );
        assert_eq!(
            tracer.counter_value("chaos.completed@0.00"),
            result.cells[0].iter().filter(|c| c.completed).count() as u64
        );
    }

    #[test]
    fn chaos_sweep_is_deterministic() {
        let params = ChaosParams {
            workers: 6,
            repetitions: 2,
            intensities: vec![0.0, 1.0],
        };
        let a = render(&run(&params).unwrap());
        let b = render(&run(&params).unwrap());
        assert_eq!(a, b);
    }
}
