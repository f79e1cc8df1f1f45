//! Crash-and-resume experiment: the durable provenance store's memo
//! layer replayed against Montage.
//!
//! Three runs share one on-disk provenance database:
//!
//! 1. **cold** — a fresh store; every invocation executes.
//! 2. **warm resume** — the same workflow re-submitted with `resume`:
//!    every invocation must be memo-satisfied (zero re-executions).
//! 3. **crash resume** — a third run is killed mid-DAG (the process
//!    state is dropped; only committed WAL frames survive) against a
//!    fresh store, then resumed: completed invocations splice in as memo
//!    hits, the remainder execute.
//!
//! Every number printed is virtual-time or a count, and the output
//! digests prove byte-identical results — the rendering is deterministic
//! and gated by CI against `results/resume.txt`.

use std::path::Path;

use hiway_core::cluster::Cluster;
use hiway_core::config::{HiwayConfig, SchedulerPolicy};
use hiway_core::driver::Runtime;
use hiway_hdfs::fnv1a64;
use hiway_lang::dax::parse_dax;
use hiway_provdb::ProvDb;
use hiway_sim::{ClusterSpec, NodeSpec, SimTime};
use hiway_workloads::montage::MontageParams;

/// One run's outcome.
#[derive(Clone, Debug)]
pub struct RunPoint {
    pub label: &'static str,
    pub makespan_secs: f64,
    pub executed: usize,
    pub memo_hits: u64,
    pub saved_secs: f64,
    /// Order-independent digest over every `(path, content)` in HDFS.
    pub output_digest: u64,
}

/// The full experiment: cold/warm against one store, crash/resume
/// against another.
#[derive(Clone, Debug)]
pub struct ResumeResult {
    pub tasks: usize,
    pub cold: RunPoint,
    pub warm: RunPoint,
    pub crash_resume: RunPoint,
}

fn cluster(montage: &MontageParams) -> Cluster {
    let spec = ClusterSpec::homogeneous(4, "w", &NodeSpec::m3_large("proto"));
    let mut cluster = Cluster::new(spec, 7);
    for (path, size) in montage.input_files() {
        cluster.prestage(&path, size);
    }
    cluster
}

fn config(db: &Path, resume: bool) -> HiwayConfig {
    HiwayConfig::default()
        .with_scheduler(SchedulerPolicy::Fcfs)
        .with_seed(11)
        .with_provdb_path(db.to_str().expect("utf-8 db path"))
        .with_resume(resume)
}

/// Order-independent digest of the cluster's entire HDFS content: XOR of
/// per-file FNV digests mixed with a path hash. Identical file sets →
/// identical digest, regardless of enumeration order.
fn hdfs_digest(rt: &Runtime) -> u64 {
    let mut acc = 0u64;
    for path in rt.cluster.hdfs.list() {
        let content = rt.cluster.hdfs.content_digest(&path).expect("digest");
        acc ^= fnv1a64(path.as_bytes())
            .wrapping_mul(31)
            .wrapping_add(content);
    }
    acc
}

fn one_run(
    montage: &MontageParams,
    db: &Path,
    resume: bool,
    label: &'static str,
) -> Result<RunPoint, String> {
    let mut rt = Runtime::new(cluster(montage));
    let source = parse_dax(&montage.dax_source()).map_err(|e| e.to_string())?;
    let wf = rt.submit(Box::new(source), config(db, resume), ProvDb::new());
    let reports = rt.run_to_completion();
    if let Some(err) = rt.error_of(wf) {
        return Err(format!("{label}: {err}"));
    }
    let executed = reports[wf].tasks.iter().filter(|t| t.attempts >= 1).count();
    Ok(RunPoint {
        label,
        makespan_secs: reports[wf].runtime_secs(),
        executed,
        memo_hits: rt.memo_hits(wf),
        saved_secs: rt.memo_saved_secs(wf),
        output_digest: hdfs_digest(&rt),
    })
}

/// Runs the experiment inside `scratch` (two store directories are
/// created below it; the caller owns cleanup).
pub fn run(scratch: &Path) -> Result<ResumeResult, String> {
    let montage = MontageParams::default();
    let tasks = montage.expected_tasks();

    // Cold then warm against the same store.
    let store_a = scratch.join("store-a");
    let cold = one_run(&montage, &store_a, false, "cold")?;
    let warm = one_run(&montage, &store_a, true, "warm resume")?;

    // Crash mid-DAG against a second store, then resume.
    let store_b = scratch.join("store-b");
    {
        let mut rt = Runtime::new(cluster(&montage));
        let source = parse_dax(&montage.dax_source()).map_err(|e| e.to_string())?;
        let wf = rt.submit(Box::new(source), config(&store_b, false), ProvDb::new());
        if !rt.run_until(SimTime::from_secs(60.0)) {
            return Err("montage finished before the crash point".into());
        }
        if let Some(err) = rt.error_of(wf) {
            return Err(format!("pre-crash run: {err}"));
        }
        // Drop the runtime: the crash. Committed WAL frames survive.
    }
    let crash_resume = one_run(&montage, &store_b, true, "crash resume")?;

    Ok(ResumeResult {
        tasks,
        cold,
        warm,
        crash_resume,
    })
}

/// Deterministic rendering (gated byte-for-byte by CI).
pub fn render(r: &ResumeResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>14}  {:>12}  {:>9}  {:>10}  {:>11}\n",
        "run", "makespan (s)", "executed", "memo hits", "saved (s)"
    ));
    out.push_str(&"-".repeat(66));
    out.push('\n');
    for p in [&r.cold, &r.warm, &r.crash_resume] {
        out.push_str(&format!(
            "{:>14}  {:>12.1}  {:>9}  {:>10}  {:>11.1}\n",
            p.label, p.makespan_secs, p.executed, p.memo_hits, p.saved_secs
        ));
    }
    out.push('\n');
    out.push_str(&format!(
        "tasks per run: {}; warm resume re-executed {} of {} invocations\n",
        r.tasks, r.warm.executed, r.tasks
    ));
    out.push_str(&format!(
        "outputs byte-identical: cold==warm {}; cold==crash-resume {} (digest {:016x})\n",
        r.cold.output_digest == r.warm.output_digest,
        r.cold.output_digest == r.crash_resume.output_digest,
        r.cold.output_digest,
    ));
    out
}
