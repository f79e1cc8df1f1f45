//! Property test of the rendered trace: a manager's `finish_workflow` is
//! its workflow line followed by the lines it recorded, in record order,
//! exactly as `write_trace` writes those events — whatever else the
//! shared store holds. Two managers interleave task commits (with and
//! without a memo key), file events and trace imports on one store, in
//! memory or durable, with compactions between; each finishes mid-run
//! and again at the end.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use hiway_core::provenance::ProvenanceManager;
use hiway_lang::trace::{write_trace, FileEvent, TaskEvent, TraceEvent, WorkflowEvent};
use hiway_provdb::ProvDb;

#[derive(Clone, Debug)]
enum Step {
    /// `record_task` on manager 0 or 1, memoizing when `key` is set.
    Task {
        manager: usize,
        event: TaskEvent,
        key: Option<String>,
    },
    /// `record_file` on manager 0 or 1.
    File { manager: usize, event: FileEvent },
    /// `import_trace` of these events on manager 0 or 1: stored, but not
    /// part of that manager's trace.
    Import {
        manager: usize,
        events: Vec<TraceEvent>,
    },
    /// `finish_workflow` on manager 0 or 1, before the end of the run.
    Finish { manager: usize },
    /// `ProvDb::compact` (a no-op in memory).
    Compact,
}

fn arb_text() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9 _/.:\\\\\"\n\t\u{e9}\u{4e16}]{0,10}"
}

fn arb_secs() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(-0.0), 0.0f64..1.0e4, -5.0f64..0.0]
}

fn arb_files() -> impl Strategy<Value = Vec<(String, u64)>> {
    proptest::collection::vec((arb_text(), 0u64..1 << 40), 0..3)
}

fn arb_task() -> impl Strategy<Value = TaskEvent> {
    (
        (0u64..1000, arb_text(), arb_text()),
        (arb_files(), arb_files()),
        (arb_secs(), 1u32..16, 0u64..1 << 16),
        arb_text(),
        (arb_secs(), arb_secs()),
        1u32..4,
        (arb_text(), arb_text()),
    )
        .prop_map(
            |(
                (id, name, command),
                (inputs, outputs),
                (cpu_seconds, threads, memory_mb),
                node,
                (t_start, t_end),
                attempts,
                (stdout, stderr),
            )| TaskEvent {
                id,
                name,
                command,
                inputs,
                outputs,
                cpu_seconds,
                threads,
                memory_mb,
                node,
                t_start,
                t_end,
                attempts,
                stdout,
                stderr,
            },
        )
}

fn arb_file() -> impl Strategy<Value = FileEvent> {
    (
        arb_text(),
        0u64..1 << 40,
        0u64..1000,
        prop_oneof![Just("in"), Just("out")],
        arb_secs(),
    )
        .prop_map(
            |(path, size, task, direction, transfer_seconds)| FileEvent {
                path,
                size,
                task,
                direction: direction.into(),
                transfer_seconds,
            },
        )
}

fn arb_step() -> impl Strategy<Value = Step> {
    let key = prop_oneof![Just(None), "[0-9a-f]{16}".prop_map(Some)];
    let imported = prop_oneof![
        arb_task().prop_map(TraceEvent::Task),
        arb_file().prop_map(TraceEvent::File),
    ];
    prop_oneof![
        (0usize..2, arb_task(), key).prop_map(|(manager, event, key)| Step::Task {
            manager,
            event,
            key
        }),
        (0usize..2, arb_file()).prop_map(|(manager, event)| Step::File { manager, event }),
        (0usize..2, proptest::collection::vec(imported, 0..4))
            .prop_map(|(manager, events)| Step::Import { manager, events }),
        (0usize..2).prop_map(|manager| Step::Finish { manager }),
        Just(Step::Compact),
    ]
}

fn scratch_dir() -> std::path::PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hiway-core-prop-render-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Finishes manager `m` and holds its trace to `write_trace` of its
/// workflow event and `recorded`, which it then empties.
fn finish(
    prov: &mut ProvenanceManager,
    m: usize,
    recorded: &mut Vec<TraceEvent>,
) -> Result<(), TestCaseError> {
    let header = WorkflowEvent {
        name: format!("wf{m}"),
        language: "cuneiform".into(),
        total_seconds: 12.5 * (m + 1) as f64,
    };
    let trace = prov.finish_workflow(&header.name, &header.language, header.total_seconds);
    let mut expected = vec![TraceEvent::Workflow(header)];
    expected.append(recorded);
    prop_assert_eq!(trace, write_trace(&expected), "manager {}", m);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rendered_trace_equals_the_recorded_events(
        durable in any::<bool>(),
        steps in proptest::collection::vec(arb_step(), 1..24),
    ) {
        let dir = durable.then(scratch_dir);
        let db = match &dir {
            Some(dir) => ProvDb::open(dir).expect("open fresh store"),
            None => ProvDb::new(),
        };
        let mut provs = [
            ProvenanceManager::new(db.clone()),
            ProvenanceManager::new(db.clone()),
        ];
        let mut recorded: [Vec<TraceEvent>; 2] = Default::default();
        for step in steps {
            match step {
                Step::Task { manager, event, key } => {
                    provs[manager].record_task(event.clone(), key);
                    recorded[manager].push(TraceEvent::Task(event));
                }
                Step::File { manager, event } => {
                    provs[manager].record_file(event.clone());
                    recorded[manager].push(TraceEvent::File(event));
                }
                Step::Import { manager, events } => {
                    let tasks = events
                        .iter()
                        .filter(|e| matches!(e, TraceEvent::Task(_)))
                        .count();
                    let loaded = provs[manager]
                        .import_trace(&write_trace(&events))
                        .expect("a written trace imports");
                    prop_assert_eq!(loaded, tasks);
                }
                Step::Finish { manager } => {
                    finish(&mut provs[manager], manager, &mut recorded[manager])?
                }
                Step::Compact => db.compact().expect("compact"),
            }
        }
        for (m, prov) in provs.iter_mut().enumerate() {
            finish(prov, m, &mut recorded[m])?;
        }
        drop(provs);
        drop(db);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
