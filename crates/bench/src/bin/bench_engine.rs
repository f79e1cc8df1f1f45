//! Engine hot-path benchmark: drives the Figure-4-shaped plan (24 nodes,
//! 576 task pipelines) and the Table-2-shaped plan (128 S3-reading
//! workers, 1,024 pipelines) through the naive reference engine and
//! through the incremental engine with the tracer off and on, checks that
//! all three runs of a plan agree, and writes `BENCH_engine.json`: per
//! plan, events/s of each run, the incremental engine's max-min fills/s,
//! its speedup, and the tracing overhead. The tracing-off run is the
//! zero-overhead contract for `hiway-obs`.
//!
//! Usage: `bench_engine [--quick] [output.json]`

use hiway_bench::engine_bench::{drive_incremental, drive_reference, fig4_plan, table2_plan};
use hiway_bench::report::{self, best_of, Report};
use hiway_obs::Tracer;

fn main() {
    let args = report::args("BENCH_engine.json");
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
        let ((off, _), off_s) = incremental(Tracer::disabled);
        let ((on, trace_events), on_s) = incremental(Tracer::enabled);
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
            .workload(&key("fills"), reference.fills)
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
