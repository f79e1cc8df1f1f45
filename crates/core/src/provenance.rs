//! The Provenance Manager (paper §3.5).
//!
//! Registers events at three granularities — workflow, task, file — each
//! timestamped, as documents of the queryable [`hiway_provdb`] store (the
//! MySQL/Couchbase stand-in) from which the Workflow Scheduler draws its
//! runtime estimates. Each document is the event's trace line itself, so
//! the re-executable JSON trace file stored in HDFS is rendered from the
//! store: the workflow header, then the lines this manager inserted, in
//! record order.
//!
//! The estimate strategy is the paper's: "the current strategy for
//! computing these runtime estimates is to always use the latest observed
//! runtime. If no runtimes have been observed yet for a particular
//! task-machine-assignment, a default runtime of zero is assumed to
//! encourage trying out new assignments."
//!
//! The same task lines back cross-run memoization ("smart rerun"): a
//! memoizing run adds the invocation's [`memo_key`] to its task line, whose
//! `outputs` are what the commit produced, and a resumed run looks ready
//! tasks up by that key ([`ProvenanceManager::memo_hit`]) before executing
//! them. One insert per commit feeds the trace, the statistics and the
//! memo lookup, so a durable store never holds a commit without its memo.

use std::cell::RefCell;
use std::collections::HashMap;

use hiway_format::json::Json;
use hiway_hdfs::fnv1a64;
use hiway_lang::trace::{FileEvent, TaskEvent, TraceEvent, WorkflowEvent};
use hiway_obs::profile::{section, Section};
use hiway_provdb::{Aggregate, Collection, Op, ProvDb};

/// Collection names inside the provenance database.
pub const TASKS_COLLECTION: &str = "task_events";
pub const FILES_COLLECTION: &str = "file_events";
pub const WORKFLOWS_COLLECTION: &str = "workflow_events";
pub const ATTEMPTS_COLLECTION: &str = "attempt_events";

/// The memo key of an invocation: task signature (name + command — what
/// would run) combined with the canonical digests of its staged inputs,
/// in input-declaration order. Rendered as fixed-width hex so it is a
/// clean indexable string.
pub fn memo_key(name: &str, command: &str, input_digests: &[u64]) -> String {
    let digests: Vec<u8> = input_digests.iter().flat_map(|d| d.to_le_bytes()).collect();
    // The unit separator keeps "ab"+"c" apart from "a"+"bc".
    let bytes = [name.as_bytes(), &[0x1f], command.as_bytes(), &digests].concat();
    format!("{:016x}", fnv1a64(&bytes))
}

/// A committed invocation recalled from the store.
#[derive(Clone, Debug, PartialEq)]
pub struct MemoHit {
    /// Outputs the invocation committed, `(path, size)` in declaration
    /// order — what the driver materializes instead of executing.
    pub outputs: Vec<(String, u64)>,
    /// Node the original execution ran on (audit detail only).
    pub node: String,
    /// The original execution's makespan — the seconds the hit saves.
    pub saved_secs: f64,
}

/// A task line's makespan as [`TaskEvent::makespan`] computes it, from the
/// line's `t_start` and `t_end`; `None` if either is not a number.
fn makespan(line: &Json) -> Option<f64> {
    let t = |field| line.get(field).and_then(Json::as_f64);
    Some((t("t_end")? - t("t_start")?).max(0.0))
}

/// A line this manager inserted: its collection and position there.
enum Line {
    Task(usize),
    File(usize),
}

/// Per-workflow provenance recorder over a (possibly shared, long-lived)
/// provenance database. Sharing the database across runs is what feeds the
/// adaptive scheduler in the Figure 9 experiment: every prior execution
/// enriches the runtime estimates of the next.
pub struct ProvenanceManager {
    db: ProvDb,
    tasks: Collection,
    /// The lines of this manager's trace, in record order.
    lines: Vec<Line>,
    stats: RefCell<RuntimeStats>,
}

/// The §3.4 runtime statistics, folded from the task documents in
/// insertion order. `seen` is a read cursor into the append-only task
/// collection: each read folds in only the documents added since the last
/// one, whoever added them (this manager, another manager on a shared
/// store, a trace import, or the recovery of a durable store).
#[derive(Default)]
struct RuntimeStats {
    seen: usize,
    by_signature: HashMap<String, SignatureStats>,
}

/// Statistics of one task signature, exactly what a scan of its documents
/// would give: `latest` holds the makespan of the last document per node
/// (`None` if that document has none), and `sum` and `count` cover the
/// documents that do have one.
struct SignatureStats {
    latest: HashMap<String, Option<f64>>,
    sum: f64,
    count: usize,
}

impl RuntimeStats {
    fn fold(&mut self, doc: &Json) {
        let Some(name) = doc.get("name").and_then(Json::as_str) else {
            return;
        };
        let makespan = makespan(doc);
        let sig = self
            .by_signature
            .entry(name.to_string())
            .or_insert_with(|| SignatureStats {
                latest: HashMap::new(),
                // `f64::sum` starts from -0.0; starting there too keeps the
                // running sum bit-identical to a scan's.
                sum: -0.0,
                count: 0,
            });
        if let Some(node) = doc.get("node").and_then(Json::as_str) {
            sig.latest.insert(node.to_string(), makespan);
        }
        if let Some(m) = makespan {
            sig.sum += m;
            sig.count += 1;
        }
    }
}

impl ProvenanceManager {
    pub fn new(db: ProvDb) -> ProvenanceManager {
        let tasks = db.collection(TASKS_COLLECTION);
        tasks.create_index("key");
        ProvenanceManager {
            tasks,
            db,
            lines: Vec::new(),
            stats: RefCell::default(),
        }
    }

    /// The statistics of `signature`, after folding in every task document
    /// written since the last read.
    fn signature_stats<R>(
        &self,
        signature: &str,
        read: impl FnOnce(&SignatureStats) -> R,
    ) -> Option<R> {
        let mut stats = self.stats.borrow_mut();
        let seen = stats.seen;
        stats.seen = self.tasks.visit_from(seen, |doc| stats.fold(doc));
        stats.by_signature.get(signature).map(read)
    }

    /// The shared database handle (e.g. to pass to the next workflow run).
    pub fn db(&self) -> &ProvDb {
        &self.db
    }

    /// Records a completed task execution as its trace line. A memoizing
    /// run passes the invocation's memo key: the same line then also
    /// carries the key, so on a durable store the commit and its memo
    /// reach the WAL in one insert.
    pub fn record_task(&mut self, event: TaskEvent, memo_key: Option<String>) {
        let _p = section(Section::ProvRecord);
        let mut line = TraceEvent::Task(event).into_json();
        if let Some(key) = memo_key {
            line.set("key", key);
        }
        self.lines.push(Line::Task(self.tasks.insert(line)));
    }

    /// Latest committed invocation under memo `key`, if any (indexed
    /// lookup), with the outputs its task line records. Task lines without
    /// a key, such as trace imports, are never hits.
    pub fn memo_hit(&self, key: &str) -> Option<MemoHit> {
        // Index hits are in insertion order: the last is the latest record.
        let doc = self.tasks.find_eq("key", &Json::from(key)).pop()?;
        let outputs = match doc.get("outputs") {
            Some(Json::Array(items)) => items
                .iter()
                .map(|o| {
                    Some((
                        o.get("path")?.as_str()?.to_string(),
                        o.get("size")?.as_u64()?,
                    ))
                })
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        Some(MemoHit {
            outputs,
            node: doc.get("node")?.as_str()?.to_string(),
            saved_secs: makespan(&doc).unwrap_or(0.0),
        })
    }

    /// Records the fate of one container attempt that did *not* commit the
    /// task's result — a tool crash, an infrastructure loss (node crash,
    /// preemption), or a cancelled speculative duplicate. Successful
    /// attempts are implied by the task event itself. Keeping these in the
    /// provenance store means a chaotic run's history is fully auditable
    /// while its trace file stays a re-executable workflow (§3.5): replay
    /// re-runs only the attempts that actually produced data.
    pub fn record_attempt(
        &mut self,
        task: u64,
        name: &str,
        node: &str,
        outcome: &str,
        container_secs: f64,
    ) {
        let doc = Json::object()
            .with("task", task)
            .with("name", name)
            .with("node", node)
            .with("outcome", outcome)
            .with("container_secs", container_secs);
        self.db.collection(ATTEMPTS_COLLECTION).insert(doc);
    }

    /// Number of recorded non-successful attempts with `outcome` (pass ""
    /// to count all outcomes).
    pub fn attempt_count(&self, outcome: &str) -> usize {
        let q = self.db.collection(ATTEMPTS_COLLECTION).query();
        let q = if outcome.is_empty() {
            q
        } else {
            q.filter("outcome", Op::Eq, outcome)
        };
        q.aggregate("container_secs", Aggregate::Count)
            .unwrap_or(0.0) as usize
    }

    /// Records a file staged in or out of a task's container.
    pub fn record_file(&mut self, event: FileEvent) {
        let line = TraceEvent::File(event).into_json();
        let pos = self.db.collection(FILES_COLLECTION).insert(line);
        self.lines.push(Line::File(pos));
    }

    /// Closes the workflow, returning the full trace in the on-disk
    /// (JSON-lines) format — itself a valid workflow (§3.5): the workflow
    /// line, then the lines this manager recorded, read back from the
    /// store without their memo keys.
    pub fn finish_workflow(&mut self, name: &str, language: &str, total_seconds: f64) -> String {
        let header = TraceEvent::Workflow(WorkflowEvent {
            name: name.to_string(),
            language: language.to_string(),
            total_seconds,
        })
        .into_json();
        let mut trace = header.to_compact() + "\n";
        self.db.collection(WORKFLOWS_COLLECTION).insert(header);
        for line in std::mem::take(&mut self.lines) {
            let doc = match line {
                Line::Task(pos) => self.tasks.get(pos),
                Line::File(pos) => self.db.collection(FILES_COLLECTION).get(pos),
            };
            let Some(Json::Object(mut pairs)) = doc else {
                unreachable!("a recorded line is an object in the append-only store");
            };
            pairs.retain(|(field, _)| field != "key");
            trace += &Json::Object(pairs).to_compact();
            trace.push('\n');
        }
        trace
    }

    /// Imports the events of a previously written trace file into the
    /// statistics store — "stored as JSON objects in a trace file in HDFS,
    /// from where it can be accessed by other instances of Hi-WAY" (§3.5).
    /// Each line is parsed into its event, which validates it, and that
    /// event's line is stored. Returns how many task observations were
    /// loaded.
    pub fn import_trace(&mut self, trace_text: &str) -> Result<usize, hiway_lang::LangError> {
        let mut loaded = 0;
        for event in hiway_lang::trace::parse_trace_events(trace_text)? {
            match event {
                TraceEvent::Task(_) => {
                    self.tasks.insert(event.into_json());
                    loaded += 1;
                }
                TraceEvent::File(_) => {
                    self.db
                        .collection(FILES_COLLECTION)
                        .insert(event.into_json());
                }
                TraceEvent::Workflow(_) => {}
            }
        }
        Ok(loaded)
    }

    /// Latest observed makespan of `signature` on `node`, or `None` —
    /// which the scheduler maps to the exploration-friendly default of 0.
    pub fn latest_runtime(&self, signature: &str, node: &str) -> Option<f64> {
        self.signature_stats(signature, |s| s.latest.get(node).copied().flatten())
            .flatten()
    }

    /// Average observed makespan of `signature` across all nodes.
    pub fn average_runtime(&self, signature: &str) -> Option<f64> {
        self.signature_stats(signature, |s| (s.count > 0).then(|| s.sum / s.count as f64))
            .flatten()
    }

    /// Number of recorded executions of `signature` (any node).
    pub fn observation_count(&self, signature: &str) -> usize {
        self.signature_stats(signature, |s| s.count).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task_event(name: &str, node: &str, start: f64, end: f64) -> TaskEvent {
        TaskEvent {
            id: 0,
            name: name.into(),
            command: format!("{name} ..."),
            inputs: vec![],
            outputs: vec![],
            cpu_seconds: end - start,
            threads: 1,
            memory_mb: 100,
            node: node.into(),
            t_start: start,
            t_end: end,
            attempts: 1,
            stdout: String::new(),
            stderr: String::new(),
        }
    }

    #[test]
    fn latest_runtime_is_most_recent() {
        let mut p = ProvenanceManager::new(ProvDb::new());
        p.record_task(task_event("align", "w0", 0.0, 10.0), None);
        p.record_task(task_event("align", "w0", 20.0, 25.0), None);
        p.record_task(task_event("align", "w1", 0.0, 40.0), None);
        assert_eq!(p.latest_runtime("align", "w0"), Some(5.0));
        assert_eq!(p.latest_runtime("align", "w1"), Some(40.0));
        assert_eq!(p.latest_runtime("align", "w9"), None);
        assert_eq!(p.latest_runtime("sort", "w0"), None);
        assert_eq!(p.observation_count("align"), 3);
    }

    #[test]
    fn estimates_survive_across_manager_instances_sharing_a_db() {
        let db = ProvDb::new();
        let mut p1 = ProvenanceManager::new(db.clone());
        p1.record_task(task_event("align", "w0", 0.0, 12.0), None);
        drop(p1);
        let p2 = ProvenanceManager::new(db);
        assert_eq!(p2.latest_runtime("align", "w0"), Some(12.0));
    }

    #[test]
    fn finish_produces_reexecutable_trace() {
        let mut p = ProvenanceManager::new(ProvDb::new());
        let mut e = task_event("align", "w0", 0.0, 10.0);
        e.inputs = vec![("/in".into(), 5)];
        e.outputs = vec![("/out".into(), 10)];
        p.record_task(e, None);
        p.record_file(FileEvent {
            path: "/in".into(),
            size: 5,
            task: 0,
            direction: "in".into(),
            transfer_seconds: 0.1,
        });
        let trace = p.finish_workflow("demo", "cuneiform", 10.5);
        let wf = hiway_lang::trace::parse_trace(&trace).unwrap();
        assert_eq!(wf.name, "demo-replay");
        assert_eq!(wf.tasks.len(), 1);
    }

    fn output_event(node: &str, size: u64, makespan: f64) -> TaskEvent {
        let mut e = task_event("align", node, 0.0, makespan);
        e.outputs = vec![("/out/a.bam".into(), size)];
        e
    }

    #[test]
    fn key_is_sensitive_to_signature_and_digests() {
        let base = memo_key("align", "bwa mem ref.fa", &[1, 2]);
        assert_eq!(base, memo_key("align", "bwa mem ref.fa", &[1, 2]));
        assert_ne!(base, memo_key("align", "bwa mem ref.fa", &[2, 1]));
        assert_ne!(base, memo_key("align", "bwa mem ref.fa", &[1]));
        assert_ne!(base, memo_key("align", "bwa mem alt.fa", &[1, 2]));
        assert_ne!(base, memo_key("sort", "bwa mem ref.fa", &[1, 2]));
        // Name/command boundary is unambiguous.
        assert_ne!(memo_key("ab", "c", &[]), memo_key("a", "bc", &[]));
        assert_eq!(base.len(), 16, "fixed-width hex");
    }

    #[test]
    fn record_then_lookup_round_trips() {
        let mut p = ProvenanceManager::new(ProvDb::new());
        let key = memo_key("align", "cmd", &[7]);
        assert_eq!(p.memo_hit(&key), None);
        // A document recorded without a key is never a hit.
        p.record_task(output_event("worker-0", 1024, 3.0), None);
        assert_eq!(p.memo_hit(&key), None);
        p.record_task(output_event("worker-1", 1024, 12.5), Some(key.clone()));
        let hit = p.memo_hit(&key).expect("recorded");
        assert_eq!(hit.outputs, vec![("/out/a.bam".to_string(), 1024)]);
        assert_eq!(hit.node, "worker-1");
        assert_eq!(hit.saved_secs, 12.5);
        assert_eq!(
            p.db().collection(TASKS_COLLECTION).len(),
            2,
            "one document per commit"
        );
    }

    #[test]
    fn latest_record_wins_and_survives_a_shared_db() {
        let db = ProvDb::new();
        let mut a = ProvenanceManager::new(db.clone());
        let key = memo_key("t", "c", &[]);
        a.record_task(output_event("n0", 1, 1.0), Some(key.clone()));
        a.record_task(output_event("n1", 2, 2.0), Some(key.clone()));
        drop(a);
        let b = ProvenanceManager::new(db); // fresh handle, same store
        let hit = b.memo_hit(&key).expect("still there");
        assert_eq!(hit.node, "n1", "latest observation wins");
        assert_eq!(hit.outputs[0].1, 2);
    }

    /// The stored file documents, oldest first, as (path, size,
    /// direction, transfer seconds).
    pub(super) fn file_docs(p: &ProvenanceManager) -> Vec<(String, u64, String, f64)> {
        let field = |d: &Json, k: &str| d.get(k).cloned().unwrap_or(Json::Null);
        p.db.collection(FILES_COLLECTION)
            .query()
            .collect()
            .iter()
            .map(|d| {
                (
                    field(d, "path").as_str().unwrap_or_default().to_string(),
                    field(d, "size").as_u64().unwrap_or_default(),
                    field(d, "direction")
                        .as_str()
                        .unwrap_or_default()
                        .to_string(),
                    field(d, "transfer_seconds").as_f64().unwrap_or_default(),
                )
            })
            .collect()
    }

    /// Stage-in and stage-out transfers both land in the store, each
    /// with its direction and seconds: what a transfer-time estimate
    /// (§3.4 point iii) reads.
    #[test]
    fn transfer_rate_estimate() {
        let mut p = ProvenanceManager::new(ProvDb::new());
        assert!(file_docs(&p).is_empty());
        p.record_file(FileEvent {
            path: "/a".into(),
            size: 100,
            task: 0,
            direction: "in".into(),
            transfer_seconds: 2.0,
        });
        p.record_file(FileEvent {
            path: "/b".into(),
            size: 100,
            task: 0,
            direction: "out".into(),
            transfer_seconds: 50.0,
        });
        assert_eq!(
            file_docs(&p),
            [
                ("/a".to_string(), 100, "in".to_string(), 2.0),
                ("/b".to_string(), 100, "out".to_string(), 50.0)
            ]
        );
    }
}

#[cfg(test)]
mod statistics_source_tests {
    use super::*;
    use hiway_lang::trace::FileEvent;

    /// File sizes and transfer times (§3.4 statistics sources ii and
    /// iii) are recorded, a re-observed path as a newer document.
    #[test]
    fn file_sizes_and_transfer_rates_are_recorded() {
        let mut p = ProvenanceManager::new(ProvDb::new());
        p.record_file(FileEvent {
            path: "/in/reads.fq".into(),
            size: 1_000_000,
            task: 0,
            direction: "in".into(),
            transfer_seconds: 2.0,
        });
        // A re-observed path gets a newer document.
        p.record_file(FileEvent {
            path: "/in/reads.fq".into(),
            size: 2_000_000,
            task: 1,
            direction: "in".into(),
            transfer_seconds: 4.0,
        });
        let path = "/in/reads.fq".to_string();
        assert_eq!(
            super::tests::file_docs(&p),
            [
                (path.clone(), 1_000_000, "in".to_string(), 2.0),
                (path, 2_000_000, "in".to_string(), 4.0)
            ]
        );
    }
}
