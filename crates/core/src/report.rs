//! Execution reports returned by the [`crate::driver::Runtime`].

use hiway_lang::TaskId;

/// Summary of one task's execution.
#[derive(Clone, Debug)]
pub struct TaskReport {
    pub id: TaskId,
    /// Tool signature.
    pub name: String,
    /// Node that ran the successful attempt.
    pub node: String,
    /// When the task's data dependencies were met.
    pub t_ready: f64,
    /// When its container started executing (after localization).
    pub t_start: f64,
    /// When its outputs were committed to HDFS.
    pub t_end: f64,
    pub attempts: u32,
    /// Seconds the winning attempt spent localizing — container startup
    /// plus obtaining its input data from HDFS, before the tool ran.
    pub localize_secs: f64,
    /// Seconds the winning attempt spent committing — writing outputs
    /// back to HDFS after the tool finished.
    pub commit_secs: f64,
}

impl TaskReport {
    pub fn makespan(&self) -> f64 {
        (self.t_end - self.t_start).max(0.0)
    }

    /// Queue wait: seconds between the task's dependencies being met and
    /// its winning container starting (clamped at zero — a speculative
    /// winner's container can start before a retry re-readies the task).
    pub fn wait_secs(&self) -> f64 {
        (self.t_start - self.t_ready).max(0.0)
    }
}

/// Summary of one workflow execution.
#[derive(Clone, Debug)]
pub struct WorkflowReport {
    pub name: String,
    pub language: String,
    pub scheduler: &'static str,
    /// Virtual time the workflow was submitted.
    pub t_submit: f64,
    /// Virtual time the workflow completed.
    pub t_finish: f64,
    pub tasks: Vec<TaskReport>,
    /// The JSON-lines provenance trace (empty if trace writing disabled).
    pub trace: String,
    /// HDFS path the trace was stored under, if written.
    pub trace_path: Option<String>,
    /// Container-seconds burnt by attempts that did not produce the
    /// task's result: failed attempts and cancelled speculative copies.
    pub wasted_container_secs: f64,
    /// Attempt failures caused by the infrastructure (node crash,
    /// container preemption) — these do not count against a task's
    /// retry budget.
    pub infra_failures: u32,
    /// Attempt failures caused by the task itself (tool crash).
    pub task_failures: u32,
    /// Speculative duplicate attempts launched against stragglers.
    pub speculative_attempts: u32,
}

impl WorkflowReport {
    /// Total wall-clock (virtual) runtime in seconds.
    pub fn runtime_secs(&self) -> f64 {
        (self.t_finish - self.t_submit).max(0.0)
    }

    pub fn runtime_mins(&self) -> f64 {
        self.runtime_secs() / 60.0
    }

    /// Tasks grouped and counted by signature, for quick summaries.
    pub fn task_histogram(&self) -> Vec<(String, usize)> {
        let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
        for t in &self.tasks {
            *counts.entry(t.name.clone()).or_default() += 1;
        }
        counts.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accessors() {
        let r = WorkflowReport {
            name: "x".into(),
            language: "dax".into(),
            scheduler: "fcfs",
            t_submit: 60.0,
            t_finish: 240.0,
            tasks: vec![
                TaskReport {
                    id: TaskId(0),
                    name: "a".into(),
                    node: "w0".into(),
                    t_ready: 60.0,
                    t_start: 61.0,
                    t_end: 100.0,
                    attempts: 1,
                    localize_secs: 4.0,
                    commit_secs: 5.0,
                },
                TaskReport {
                    id: TaskId(1),
                    name: "a".into(),
                    node: "w1".into(),
                    t_ready: 60.0,
                    t_start: 61.0,
                    t_end: 90.0,
                    attempts: 2,
                    localize_secs: 0.0,
                    commit_secs: 0.0,
                },
            ],
            trace: String::new(),
            trace_path: None,
            wasted_container_secs: 0.0,
            infra_failures: 0,
            task_failures: 0,
            speculative_attempts: 0,
        };
        assert_eq!(r.runtime_secs(), 180.0);
        assert_eq!(r.runtime_mins(), 3.0);
        assert_eq!(r.tasks[0].makespan(), 39.0);
        assert_eq!(r.tasks[0].wait_secs(), 1.0);
        assert_eq!(r.task_histogram(), vec![("a".to_string(), 2)]);
    }

    #[test]
    fn wait_secs_clamps_at_zero() {
        let t = TaskReport {
            id: TaskId(0),
            name: "a".into(),
            node: "w0".into(),
            // A speculative winner whose container predates the re-ready.
            t_ready: 50.0,
            t_start: 40.0,
            t_end: 45.0,
            attempts: 2,
            localize_secs: 10.0,
            commit_secs: 10.0,
        };
        assert_eq!(t.wait_secs(), 0.0);
    }
}
