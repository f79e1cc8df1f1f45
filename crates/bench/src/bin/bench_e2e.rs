//! End-to-end benchmark: runs the ten experiments of
//! [`hiway_bench::experiments::ALL`] serially in this one process and
//! writes `BENCH_e2e.json` through `hiway_bench::report`.
//!
//! - Pass 1, profiler off: each experiment's `wall_s`.
//! - Pass 2, profiler on: each experiment's split over the
//!   `hiway_obs::profile` sections, every section with its call count and
//!   its share of that pass's wall time, plus the measured cost of one
//!   guard on and off. A section's calls times the guard's cost is the
//!   inflation its guards add. The workload block names the sections
//!   that nest inside the driver's dispatch sections.
//! - Table 2's 128-worker rung at seed 2017: its max-min fills, their
//!   rounds, and the rounds replayed from the previous fill.
//! - The chaos experiment's first repetition at each intensity, run with
//!   the tracer off and on: the two cells must be equal, and
//!   `tracing_overhead_frac` is the traced runs' extra wall time.
//!
//! Both passes compare each experiment's output with its golden file
//! `results/<name>.txt`; if any differs, the bin exits 1 without writing.
//! The profile is thread-local, so the bin runs every sweep on its own
//! thread (`HIWAY_BENCH_THREADS=1`).
//!
//! Usage: `bench_e2e [output.json]`

use std::path::Path;
use std::time::Instant;

use hiway_bench::experiments::{chaos, table2, Run, ALL};
use hiway_bench::report::{best_of, Report};
use hiway_obs::profile::{self, Section};
use hiway_obs::Tracer;

/// Runs the experiment `name` and returns its wall seconds, or `None`
/// (after saying why) if it failed or its output drifted from its golden
/// file.
fn run_checked(name: &str, run: Run) -> Option<f64> {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(format!("{name}.txt"));
    let t0 = Instant::now();
    let out = run();
    let secs = t0.elapsed().as_secs_f64();
    let golden = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("read {}: {e}", golden.display()));
    match out {
        Ok(out) if out == golden => Some(secs),
        Ok(_) => {
            eprintln!("FAIL: {name} output drifted from results/{name}.txt");
            None
        }
        Err(e) => {
            eprintln!("FAIL: {name} failed: {e}");
            None
        }
    }
}

/// Nanoseconds per guard, over `n` empty guards, with profiling on and
/// off.
fn guard_cost(n: u32) -> (f64, f64) {
    let mut per = [0.0; 2];
    for (on, slot) in [(true, 0), (false, 1)] {
        profile::set_enabled(on);
        let t0 = Instant::now();
        for _ in 0..n {
            drop(std::hint::black_box(profile::section(Section::Peek)));
        }
        per[slot] = t0.elapsed().as_nanos() as f64 / n as f64;
    }
    profile::reset();
    (per[0], per[1])
}

fn main() {
    // Set before any sweep starts a thread.
    std::env::set_var("HIWAY_BENCH_THREADS", "1");
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_e2e.json".to_string());
    let mut report = Report::new("e2e");
    let nested: Vec<&str> = Section::ALL
        .iter()
        .filter(|s| s.in_dispatch())
        .map(|s| s.name())
        .collect();
    report
        .workload("threads", 1u64)
        .workload("sections_inside_dispatch", nested.join(", "))
        .workload(
            "sections_inside_baseline",
            "engine.*, fill.*, hdfs.create while baseline.run_dag runs",
        );

    println!("pass 1: profiler off");
    let mut drifted = false;
    for (name, run) in ALL {
        match run_checked(name, run) {
            Some(secs) => {
                report.metric(&format!("{name}.wall_s"), secs, "s");
            }
            None => drifted = true,
        }
    }

    let (on_ns, off_ns) = guard_cost(1_000_000);
    println!("pass 2: profiler on");
    report
        .metric("guard_on_ns", on_ns, "ns")
        .metric("guard_off_ns", off_ns, "ns");
    for (name, run) in ALL {
        profile::reset();
        profile::set_enabled(true);
        let secs = run_checked(name, run);
        profile::set_enabled(false);
        let Some(secs) = secs else {
            drifted = true;
            continue;
        };
        report.metric(&format!("{name}.profiled_wall_s"), secs, "s");
        for (section, calls, ns) in profile::snapshot() {
            if calls > 0 {
                let key = |k: &str| format!("{name}.{}.{k}", section.name());
                report
                    .metric(&key("share"), ns as f64 / 1e9 / secs, "ratio")
                    .metric(&key("calls"), calls as f64, "count");
            }
        }
    }
    if drifted {
        eprintln!("an experiment failed or drifted from results/; {out} not written");
        std::process::exit(1);
    }

    let (workers, seed) = (128, 2017);
    let (runtime, _) = table2::run_rung(workers, seed, &[]).expect("Table 2 rung runs");
    let fills = runtime.cluster.engine.fill_stats();
    report
        .workload("table2_rung.workers", workers)
        .workload("table2_rung.seed", seed)
        .workload("table2_rung.fills", fills.fills)
        .workload("table2_rung.fill_rounds", fills.rounds)
        .workload("table2_rung.fill_rounds_replayed", fills.rounds_replayed);

    let params = chaos::ChaosParams::default();
    let (mut off_s, mut on_s) = (0.0, 0.0);
    for (i, &intensity) in params.intensities.iter().enumerate() {
        let seed = chaos::cell_seed(i, 0);
        let cell = |tracer: fn() -> Tracer| {
            best_of(5, tracer, |t| {
                chaos::run_cell_traced(params.workers, intensity, seed, t)
            })
        };
        let (off, secs_off) = cell(Tracer::disabled);
        let (on, secs_on) = cell(Tracer::enabled);
        assert_eq!(on, off, "tracing changed the chaos cell at {intensity}");
        off_s += secs_off;
        on_s += secs_on;
    }
    report
        .workload("chaos_cells.workers", params.workers)
        .metric("chaos_cells.untraced_wall_s", off_s, "s")
        .metric("chaos_cells.traced_wall_s", on_s, "s")
        .metric("tracing_overhead_frac", on_s / off_s - 1.0, "ratio");
    report.write(&out);
}
