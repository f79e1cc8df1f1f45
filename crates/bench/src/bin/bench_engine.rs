//! Engine hot-path benchmark: drives the Figure-4-shaped workload (24
//! nodes, 576 task pipelines) through the naive reference engine and
//! through the incremental engine with the tracer off and on, checks that
//! all three runs agree, and writes `BENCH_engine.json`: events/sec of
//! each run, the incremental engine's speedup, and the tracing overhead.
//! The tracing-off run is the zero-overhead contract for `hiway-obs`.
//!
//! Usage: `bench_engine [--quick] [output.json]`

use hiway_bench::engine_bench::{drive_incremental, drive_reference, make_plan};
use hiway_bench::report::{self, best_of, Report};
use hiway_obs::Tracer;

fn main() {
    let args = report::args("BENCH_engine.json");
    // Figure 4 scale: 24 nodes behind one switch, 576 one-core containers.
    let (nodes, tasks) = (24, 576);
    let runs = if args.quick { 2 } else { 5 };
    let plan = make_plan(nodes, tasks, 4242);
    println!("engine hot-path benchmark: {nodes} nodes, {tasks} task pipelines, best of {runs}");

    let (reference, reference_s) = best_of(runs, || (), |_| drive_reference(nodes, &plan));
    // Each timed run gets a fresh tracer, so an enabled one's buffer
    // allocation is counted every time, not amortized.
    let incremental = |tracer: fn() -> Tracer| {
        best_of(runs, tracer, |t| {
            (drive_incremental(nodes, &plan, t), t.event_count())
        })
    };
    let ((off, _), off_s) = incremental(Tracer::disabled);
    let ((on, trace_events), on_s) = incremental(Tracer::enabled);
    assert_eq!(
        off, reference,
        "engines disagreed on the benchmark workload"
    );
    assert_eq!(on, reference, "tracing changed the simulation outcome");

    let events = reference.events as f64;
    let mut report = Report::new("engine");
    report
        .workload("shape", "fig4")
        .workload("nodes", nodes)
        .workload("task_pipelines", tasks)
        .workload("events", reference.events)
        .workload("steps", reference.steps)
        .workload("virtual_secs", reference.virtual_secs)
        .workload("runs", runs);
    for (run, secs) in [
        ("reference", reference_s),
        ("incremental", off_s),
        ("incremental_traced", on_s),
    ] {
        report.metric(&format!("{run}.wall_s"), secs, "s").metric(
            &format!("{run}.events_per_s"),
            events / secs,
            "events/s",
        );
    }
    report
        .metric("speedup", reference_s / off_s, "ratio")
        .metric("trace_events", trace_events as f64, "count")
        .metric("tracing_overhead_frac", on_s / off_s - 1.0, "ratio");
    report.write(&args.out);
}
