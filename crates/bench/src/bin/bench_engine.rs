//! Engine hot-path benchmark: drives the Figure-4-shaped plan (24 nodes,
//! 576 task pipelines) and the Table-2-shaped plan (128 S3-reading
//! workers, 1,024 pipelines) through the naive reference engine and
//! through the incremental engine with the tracer off and on, checks that
//! all three runs of a plan agree, and writes `BENCH_engine.json`: per
//! plan, events/s of each run, the incremental engine's max-min fills/s,
//! its speedup, and the tracing overhead. The tracing-off run is the
//! zero-overhead contract for `hiway-obs`. The incremental engine watches
//! every node, as the reference engine accounts every node. The workload
//! block also holds the fill counts: fills and their rounds.
//!
//! `--profile` instead runs each plan once through the incremental engine
//! with `hiway_obs::profile` on and prints the split of its hot sections,
//! plus the measured cost of one profile guard; it writes no file.
//!
//! Usage: `bench_engine [--quick] [--profile] [output.json]`

use std::time::Instant;

use hiway_bench::engine_bench::{drive_incremental, drive_reference, fig4_plan, table2_plan, Plan};
use hiway_bench::report::{self, best_of, Report};
use hiway_obs::profile::{self, Section};
use hiway_obs::Tracer;

/// Prints the profiled split of one untraced incremental run of `plan`.
fn print_profile(shape: &str, plan: &Plan) {
    profile::reset();
    profile::set_enabled(true);
    let t0 = Instant::now();
    let (_, fills) = drive_incremental(plan, &Tracer::disabled());
    let wall = t0.elapsed().as_secs_f64();
    profile::set_enabled(false);
    println!(
        "{shape}: {:.1} ms wall, {} fills, {:.2} rounds per fill",
        wall * 1e3,
        fills.fills,
        fills.rounds as f64 / fills.fills.max(1) as f64
    );
    for (section, calls, ns) in profile::snapshot() {
        println!(
            "  {:<24} {:>9} calls {:>9.2} ms {:>8.1} ns/call {:>5.1}%",
            section.name(),
            calls,
            ns as f64 / 1e6,
            ns as f64 / calls.max(1) as f64,
            100.0 * ns as f64 / 1e9 / wall
        );
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
    let args = report::args("BENCH_engine.json");
    if std::env::args().any(|a| a == "--profile") {
        print_profile("fig4", &fig4_plan(24, 576, 4242));
        print_profile("table2", &table2_plan(128, 8, 4242));
        let (on, off) = guard_cost(1_000_000);
        println!("one guard: {on:.1} ns profiling on, {off:.2} ns off");
        return;
    }
    let runs = if args.quick { 2 } else { 5 };
    let mut report = Report::new("engine");
    report.workload("runs", runs);
    // Figure 4 scale: 24 nodes, 576 one-core containers. Table 2's top
    // rung: 128 workers reading from S3, 8 pipelines each.
    for (shape, plan) in [
        ("fig4", fig4_plan(24, 576, 4242)),
        ("table2", table2_plan(128, 8, 4242)),
    ] {
        let nodes = plan.spec.nodes.len();
        println!(
            "{shape}: {nodes} nodes, {} task pipelines, best of {runs}",
            plan.tasks.len()
        );
        let (reference, reference_s) = best_of(runs, || (), |_| drive_reference(&plan));
        // Each timed run gets a fresh tracer, so an enabled one's buffer
        // allocation is counted every time, not amortized.
        let incremental = |tracer: fn() -> Tracer| {
            best_of(runs, tracer, |t| {
                (drive_incremental(&plan, t), t.event_count())
            })
        };
        let (((off, fills), _), off_s) = incremental(Tracer::disabled);
        let (((on, _), trace_events), on_s) = incremental(Tracer::enabled);
        assert_eq!(
            off, reference,
            "engines disagreed on the {shape} benchmark workload"
        );
        assert_eq!(
            on, reference,
            "tracing changed the {shape} simulation outcome"
        );

        let key = |k: &str| format!("{shape}.{k}");
        report
            .workload(&key("nodes"), nodes)
            .workload(&key("task_pipelines"), plan.tasks.len())
            .workload(&key("events"), reference.events)
            .workload(&key("steps"), reference.steps)
            .workload(&key("fills"), fills.fills)
            .workload(&key("fill_rounds"), fills.rounds)
            .workload(&key("virtual_secs"), reference.virtual_secs);
        for (run, secs) in [
            ("reference", reference_s),
            ("incremental", off_s),
            ("incremental_traced", on_s),
        ] {
            report
                .metric(&key(&format!("{run}.wall_s")), secs, "s")
                .metric(
                    &key(&format!("{run}.events_per_s")),
                    reference.events as f64 / secs,
                    "events/s",
                );
        }
        report
            .metric(
                &key("incremental.fills_per_s"),
                reference.fills as f64 / off_s,
                "fills/s",
            )
            .metric(&key("speedup"), reference_s / off_s, "ratio")
            .metric(&key("trace_events"), trace_events as f64, "count")
            .metric(&key("tracing_overhead_frac"), on_s / off_s - 1.0, "ratio");
    }
    report.write(&args.out);
}
