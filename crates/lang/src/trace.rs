//! Provenance traces as a workflow language (paper §3.5).
//!
//! Hi-WAY's Provenance Manager writes one JSON object per line into a
//! trace file in HDFS: workflow-level events (name, total runtime),
//! task-level events (command, makespan, host node, attempts), and
//! file-level events (size, transfer time). "Since this trace file holds
//! information about all of a workflow's tasks and data dependencies, it
//! can be interpreted as a workflow itself" — this module defines the
//! event model (shared with `hiway-core`'s Provenance Manager, which
//! produces it) and the parser that turns a trace back into an executable
//! [`StaticWorkflow`].

use hiway_format::json::Json;

use crate::ir::{LangError, OutputSpec, StaticWorkflow, TaskCost, TaskId, TaskSpec};

/// One recorded file movement.
#[derive(Clone, Debug, PartialEq)]
pub struct FileEvent {
    pub path: String,
    pub size: u64,
    pub task: u64,
    /// `"in"` (HDFS → container) or `"out"` (container → HDFS).
    pub direction: String,
    /// Seconds spent moving the file between HDFS and local storage.
    pub transfer_seconds: f64,
}

/// One recorded task execution.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskEvent {
    pub id: u64,
    pub name: String,
    pub command: String,
    pub inputs: Vec<(String, u64)>,
    pub outputs: Vec<(String, u64)>,
    pub cpu_seconds: f64,
    pub threads: u32,
    pub memory_mb: u64,
    /// Node that executed the (successful) attempt.
    pub node: String,
    pub t_start: f64,
    pub t_end: f64,
    pub attempts: u32,
    pub stdout: String,
    pub stderr: String,
}

impl TaskEvent {
    /// Observed wall-clock makespan.
    pub fn makespan(&self) -> f64 {
        (self.t_end - self.t_start).max(0.0)
    }
}

/// Workflow-level header/footer event.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkflowEvent {
    pub name: String,
    pub language: String,
    pub total_seconds: f64,
}

/// A line in a Hi-WAY trace.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    Workflow(WorkflowEvent),
    Task(TaskEvent),
    File(FileEvent),
}

/// An object with `pairs` in order, built in one allocation.
fn object<const N: usize>(pairs: [(&'static str, Json); N]) -> Json {
    Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

impl TraceEvent {
    /// The canonical trace line, moving the event's strings into it. This
    /// is the one place that lists a line's fields: the Provenance Manager
    /// stores this document and renders the trace from it.
    pub fn into_json(self) -> Json {
        match self {
            TraceEvent::Workflow(w) => object([
                ("type", "workflow".into()),
                ("name", w.name.into()),
                ("language", w.language.into()),
                ("total_seconds", w.total_seconds.into()),
            ]),
            TraceEvent::Task(t) => {
                let files = |pairs: Vec<(String, u64)>| {
                    Json::Array(
                        pairs
                            .into_iter()
                            .map(|(p, s)| object([("path", p.into()), ("size", s.into())]))
                            .collect(),
                    )
                };
                object([
                    ("type", "task".into()),
                    ("id", t.id.into()),
                    ("name", t.name.into()),
                    ("command", t.command.into()),
                    ("inputs", files(t.inputs)),
                    ("outputs", files(t.outputs)),
                    ("cpu_seconds", t.cpu_seconds.into()),
                    ("threads", t.threads.into()),
                    ("memory_mb", t.memory_mb.into()),
                    ("node", t.node.into()),
                    ("t_start", t.t_start.into()),
                    ("t_end", t.t_end.into()),
                    ("attempts", t.attempts.into()),
                    ("stdout", t.stdout.into()),
                    ("stderr", t.stderr.into()),
                ])
            }
            TraceEvent::File(f) => object([
                ("type", "file".into()),
                ("path", f.path.into()),
                ("size", f.size.into()),
                ("task", f.task.into()),
                ("direction", f.direction.into()),
                ("transfer_seconds", f.transfer_seconds.into()),
            ]),
        }
    }

    /// Parses one trace line.
    pub fn from_json(value: &Json) -> Result<TraceEvent, LangError> {
        let err = |msg: &str| LangError::new("trace", msg.to_string());
        let ty = value
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| err("event without 'type'"))?;
        let str_field = |k: &str| {
            value
                .get(k)
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string()
        };
        let num_field = |k: &str| value.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        match ty {
            "workflow" => Ok(TraceEvent::Workflow(WorkflowEvent {
                name: str_field("name"),
                language: str_field("language"),
                total_seconds: num_field("total_seconds"),
            })),
            "file" => Ok(TraceEvent::File(FileEvent {
                path: str_field("path"),
                size: num_field("size") as u64,
                task: num_field("task") as u64,
                direction: str_field("direction"),
                transfer_seconds: num_field("transfer_seconds"),
            })),
            "task" => {
                let files = |k: &str| -> Result<Vec<(String, u64)>, LangError> {
                    value
                        .get(k)
                        .and_then(Json::as_array)
                        .unwrap_or(&[])
                        .iter()
                        .map(|f| {
                            let path = f
                                .get("path")
                                .and_then(Json::as_str)
                                .ok_or_else(|| err("file entry without path"))?
                                .to_string();
                            let size = f.get("size").and_then(Json::as_u64).unwrap_or(0);
                            Ok((path, size))
                        })
                        .collect()
                };
                Ok(TraceEvent::Task(TaskEvent {
                    id: value
                        .get("id")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| err("task event without id"))?,
                    name: str_field("name"),
                    command: str_field("command"),
                    inputs: files("inputs")?,
                    outputs: files("outputs")?,
                    cpu_seconds: num_field("cpu_seconds"),
                    threads: num_field("threads") as u32,
                    memory_mb: num_field("memory_mb") as u64,
                    node: str_field("node"),
                    t_start: num_field("t_start"),
                    t_end: num_field("t_end"),
                    attempts: num_field("attempts") as u32,
                    stdout: str_field("stdout"),
                    stderr: str_field("stderr"),
                }))
            }
            other => Err(err(&format!("unknown event type '{other}'"))),
        }
    }
}

/// Serializes a trace to the on-disk (JSON-lines) format.
pub fn write_trace(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.clone().into_json().to_compact());
        out.push('\n');
    }
    out
}

/// Parses a trace file's content into events.
pub fn parse_trace_events(src: &str) -> Result<Vec<TraceEvent>, LangError> {
    src.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(|line| {
            let v = Json::parse(line)
                .map_err(|e| LangError::new("trace", format!("bad trace line: {e}")))?;
            TraceEvent::from_json(&v)
        })
        .collect()
}

/// Re-interprets a trace as an executable workflow: the fourth supported
/// language. Task costs and file sizes come from the recorded run; the
/// node assignments do *not* carry over ("albeit not necessarily on the
/// same compute nodes").
pub fn parse_trace(src: &str) -> Result<StaticWorkflow, LangError> {
    let events = parse_trace_events(src)?;
    let mut name = "trace-workflow".to_string();
    let mut tasks = Vec::new();
    for e in events {
        match e {
            TraceEvent::Workflow(w) => name = w.name,
            TraceEvent::Task(t) => tasks.push(TaskSpec {
                id: TaskId(t.id),
                name: t.name,
                command: t.command,
                inputs: t.inputs.into_iter().map(|(p, _)| p).collect(),
                outputs: t
                    .outputs
                    .into_iter()
                    .map(|(path, size)| OutputSpec { path, size })
                    .collect(),
                cost: TaskCost::new(t.cpu_seconds, t.threads.max(1), t.memory_mb),
            }),
            TraceEvent::File(_) => {}
        }
    }
    if tasks.is_empty() {
        return Err(LangError::new("trace", "trace contains no task events"));
    }
    let wf = StaticWorkflow::new(format!("{name}-replay"), "trace", tasks);
    wf.validate()?;
    Ok(wf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::WorkflowSource;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Workflow(WorkflowEvent {
                name: "snv".into(),
                language: "cuneiform".into(),
                total_seconds: 120.5,
            }),
            TraceEvent::Task(TaskEvent {
                id: 0,
                name: "bowtie2".into(),
                command: "bowtie2 -x ref reads.fq".into(),
                inputs: vec![("/in/reads.fq".into(), 1000), ("/in/ref.fa".into(), 5000)],
                outputs: vec![("/work/aln.sam".into(), 2000)],
                cpu_seconds: 60.0,
                threads: 8,
                memory_mb: 4000,
                node: "worker-3".into(),
                t_start: 1.0,
                t_end: 31.0,
                attempts: 1,
                stdout: "aligned 100%".into(),
                stderr: String::new(),
            }),
            TraceEvent::File(FileEvent {
                path: "/in/reads.fq".into(),
                size: 1000,
                task: 0,
                direction: "in".into(),
                transfer_seconds: 0.25,
            }),
            TraceEvent::Task(TaskEvent {
                id: 1,
                name: "varscan".into(),
                command: "varscan /work/aln.sam".into(),
                inputs: vec![("/work/aln.sam".into(), 2000)],
                outputs: vec![("/out/vars.vcf".into(), 100)],
                cpu_seconds: 20.0,
                threads: 1,
                memory_mb: 2000,
                node: "worker-1".into(),
                t_start: 32.0,
                t_end: 52.0,
                attempts: 2,
                stdout: String::new(),
                stderr: "warning: low coverage".into(),
            }),
        ]
    }

    #[test]
    fn events_round_trip_through_json_lines() {
        let events = sample_events();
        let text = write_trace(&events);
        assert_eq!(text.lines().count(), 4);
        let parsed = parse_trace_events(&text).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn trace_is_an_executable_workflow() {
        let text = write_trace(&sample_events());
        let mut wf = parse_trace(&text).unwrap();
        assert_eq!(wf.name, "snv-replay");
        assert_eq!(wf.language(), "trace");
        assert!(wf.is_static());
        let tasks = wf.initial_tasks().unwrap();
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[0].cost.cpu_seconds, 60.0);
        assert_eq!(tasks[1].inputs, vec!["/work/aln.sam".to_string()]);
        // Replay needs the original external inputs, not intermediates.
        assert_eq!(
            wf.required_inputs(),
            vec!["/in/reads.fq".to_string(), "/in/ref.fa".to_string()]
        );
    }

    #[test]
    fn makespan_is_clamped_non_negative() {
        let mut t = match &sample_events()[1] {
            TraceEvent::Task(t) => t.clone(),
            _ => unreachable!(),
        };
        assert_eq!(t.makespan(), 30.0);
        t.t_end = 0.0;
        assert_eq!(t.makespan(), 0.0);
    }

    #[test]
    fn rejects_garbage_traces() {
        assert!(parse_trace("not json").is_err());
        assert!(parse_trace("{\"type\":\"mystery\"}").is_err());
        assert!(parse_trace("").is_err(), "no task events");
        assert!(
            parse_trace_events("{\"type\":\"task\"}").is_err(),
            "task without id"
        );
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = format!("\n{}\n\n", write_trace(&sample_events()));
        assert_eq!(parse_trace_events(&text).unwrap().len(), 4);
    }
}
