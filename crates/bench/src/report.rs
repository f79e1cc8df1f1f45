//! The harness behind `bench_e2e`: one best-of timing loop and one
//! writer, so `BENCH_e2e.json` reads the same way as `perfbench`'s output:
//!
//! ```json
//! {"bench": "e2e", "workload": {...}, "metrics": {"table2.wall_s": {"value": 1.7, "unit": "s"}}}
//! ```

use std::fmt::Debug;
use std::time::Instant;

use hiway_format::json::Json;

/// Runs `run` once to warm up, then `runs` timed times, and returns the
/// warm-up's result with the best wall seconds. Every timed run must
/// reproduce the warm-up's result. `setup` builds each run's state (a
/// fresh tracer buffer, an empty store) outside the timed region; the
/// state is dropped after the clock stops.
pub fn best_of<S, R: PartialEq + Debug>(
    runs: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(&S) -> R,
) -> (R, f64) {
    let result = run(&setup());
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let state = setup();
        let t0 = Instant::now();
        let r = run(&state);
        best = best.min(t0.elapsed().as_secs_f64());
        assert_eq!(r, result, "benchmark run was not deterministic");
    }
    (result, best)
}

/// One bench file: `{"bench", "workload", "metrics"}`, each metric a
/// `{"value", "unit"}` pair.
pub struct Report {
    bench: String,
    workload: Json,
    metrics: Json,
}

impl Report {
    pub fn new(bench: &str) -> Report {
        Report {
            bench: bench.to_string(),
            workload: Json::object(),
            metrics: Json::object(),
        }
    }

    /// Records a parameter of the measured workload.
    pub fn workload(&mut self, key: &str, value: impl Into<Json>) -> &mut Report {
        self.workload.set(key.to_string(), value);
        self
    }

    /// Records and prints a measurement; `value` must be finite.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) -> &mut Report {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        println!("  {name:<32} {value:>16.6} {unit}");
        self.metrics.set(
            name.to_string(),
            Json::object().with("value", value).with("unit", unit),
        );
        self
    }

    pub fn render(&self) -> String {
        let doc = Json::object()
            .with("bench", self.bench.as_str())
            .with("workload", self.workload.clone())
            .with("metrics", self.metrics.clone());
        doc.to_pretty(2) + "\n"
    }

    /// Writes the rendered report to `path`.
    pub fn write(&self, path: &str) {
        std::fs::write(path, self.render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_the_shared_schema() {
        let mut report = Report::new("unit");
        report.workload("nodes", 24u64).workload("shape", "fig4");
        report
            .metric("a.wall_s", 0.0125, "s")
            .metric("speedup", 8.0, "ratio");
        let doc = Json::parse(&report.render()).expect("valid JSON");
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("unit"));
        assert_eq!(
            doc.get_path(&["workload", "nodes"]).and_then(Json::as_u64),
            Some(24)
        );
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_object)
            .expect("metrics");
        assert_eq!(metrics.len(), 2);
        for (name, metric) in metrics {
            assert!(
                metric.get("value").and_then(Json::as_f64).is_some(),
                "{name}"
            );
            assert!(
                metric.get("unit").and_then(Json::as_str).is_some(),
                "{name}"
            );
        }
        assert_eq!(
            doc.get_path(&["metrics", "a.wall_s", "value"])
                .and_then(Json::as_f64),
            Some(0.0125)
        );
    }

    #[test]
    fn best_of_sets_up_every_run() {
        let mut setups = 0;
        let (result, secs) = best_of(
            3,
            || {
                setups += 1;
                setups
            },
            |_| 7,
        );
        assert_eq!(result, 7);
        assert!(secs.is_finite() && secs >= 0.0);
        assert_eq!(setups, 4, "one warm-up plus three timed runs");
    }

    #[test]
    #[should_panic(expected = "not deterministic")]
    fn best_of_rejects_a_run_that_differs_from_the_warm_up() {
        let mut n = 0;
        best_of(
            1,
            || (),
            |_| {
                n += 1;
                n
            },
        );
    }
}
