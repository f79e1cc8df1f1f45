//! Golden gate for scheduler behaviour: the traced Montage run of every
//! policy at fault intensities 0.5 and 5 must reproduce the JSON-lines
//! event log recorded in `results/trace_digests.txt` — the same number of
//! scheduler decision rows and the same FNV-1a-64 digest over the whole
//! log. Intensity 5 kills DataNodes, so the dead-node scoring branches are
//! pinned too.
//!
//! After an intended behaviour change, copy the new lines from the
//! failure message into the file and explain the diff.

use hiway_bench::trace_run::{run, TraceParams};
use hiway_core::SchedulerPolicy;
use hiway_hdfs::fnv1a64;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/trace_digests.txt"
);

const POLICIES: [SchedulerPolicy; 5] = [
    SchedulerPolicy::Fcfs,
    SchedulerPolicy::DataAware,
    SchedulerPolicy::RoundRobin,
    SchedulerPolicy::Heft,
    SchedulerPolicy::Adaptive,
];

const INTENSITIES: [f64; 2] = [0.5, 5.0];

/// One golden line: `<policy> <intensity> <decision rows> <digest>`.
fn golden_line(scheduler: SchedulerPolicy, intensity: f64) -> String {
    let params = TraceParams {
        intensity,
        scheduler,
        ..TraceParams::default()
    };
    let jsonl = run(&params).expect("montage trace runs").jsonl;
    let rows = jsonl
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"decision\""))
        .count();
    format!(
        "{} {intensity} {rows} {:016x}",
        scheduler.name(),
        fnv1a64(jsonl.as_bytes())
    )
}

#[test]
fn scheduler_traces_match_golden_digests() {
    let lines: Vec<String> = POLICIES
        .iter()
        .flat_map(|&p| INTENSITIES.iter().map(move |&i| golden_line(p, i)))
        .collect();
    let actual = format!(
        "# policy intensity decision_rows fnv1a64(trace.events.jsonl)\n{}\n",
        lines.join("\n")
    );
    let expected = std::fs::read_to_string(GOLDEN).expect("results/trace_digests.txt exists");
    assert_eq!(
        actual, expected,
        "scheduler trace drifted from results/trace_digests.txt"
    );
}
