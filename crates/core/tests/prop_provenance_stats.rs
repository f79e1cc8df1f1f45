//! Property test of the provenance statistics record: the folded
//! per-manager statistics answer `latest_runtime`, `average_runtime` and
//! `observation_count` bit for bit like a full scan of the task documents,
//! for random interleavings of writes from two managers sharing one
//! durable store, trace imports, raw documents (trace lines and the older
//! shape that stored a `makespan` field), compactions and reopens. Both
//! sides derive a document's makespan from its `t_start` and `t_end`.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use hiway_core::provenance::{ProvenanceManager, TASKS_COLLECTION};
use hiway_format::json::Json;
use hiway_lang::trace::{write_trace, TaskEvent, TraceEvent};
use hiway_provdb::{Op, ProvDb};

const SIGNATURES: [&str; 3] = ["align", "sort", "call"];
const NODES: [&str; 3] = ["w0", "w1", "w2"];

/// One observation: signature, node, start, duration. Durations include
/// exact zeros and negatives, which `TaskEvent::makespan` clamps to zero.
type Obs = (usize, usize, f64, f64);

#[derive(Clone, Debug)]
enum Step {
    /// `record_task` on manager 0 or 1.
    Record {
        manager: usize,
        obs: Obs,
    },
    /// `import_trace` of a trace holding these observations.
    Import {
        manager: usize,
        trace: Vec<Obs>,
    },
    /// A task document written straight into the store, whose `t_start`
    /// and `t_end` are each numeric (possibly `-0.0`), non-numeric or
    /// missing. With `stored_makespan` it has the older shape: no `type`,
    /// and a `makespan` field (numeric or not) that the statistics ignore.
    Raw {
        sig: usize,
        node: usize,
        t_start: Option<Json>,
        t_end: Option<Json>,
        stored_makespan: Option<Json>,
    },
    Compact,
    /// Drop both managers and the store, then `ProvDb::open` it again.
    Reopen,
}

fn arb_obs() -> impl Strategy<Value = Obs> {
    let duration = prop_oneof![Just(0.0), -5.0f64..0.0, 0.0f64..100.0, 0.0f64..100.0];
    let start = prop_oneof![Just(0.0), 0.0f64..1000.0];
    (0..SIGNATURES.len(), 0..NODES.len(), start, duration)
}

/// A raw document's numeric field: a number (`-0.0` among them), a
/// string, or missing.
fn arb_field() -> impl Strategy<Value = Option<Json>> {
    prop_oneof![
        Just(None),
        Just(Some(Json::from("slow"))),
        Just(Some(Json::Number(-0.0))),
        Just(Some(Json::Number(0.0))),
        (0.0f64..50.0).prop_map(|t| Some(Json::Number(t))),
    ]
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..2, arb_obs()).prop_map(|(manager, obs)| Step::Record { manager, obs }),
        (0usize..2, arb_obs()).prop_map(|(manager, obs)| Step::Record { manager, obs }),
        (0usize..2, proptest::collection::vec(arb_obs(), 0..6))
            .prop_map(|(manager, trace)| Step::Import { manager, trace }),
        (
            0..SIGNATURES.len(),
            0..NODES.len(),
            arb_field(),
            arb_field(),
            prop_oneof![Just(None), arb_field()],
        )
            .prop_map(|(sig, node, t_start, t_end, stored_makespan)| Step::Raw {
                sig,
                node,
                t_start,
                t_end,
                stored_makespan,
            }),
        Just(Step::Compact),
        Just(Step::Reopen),
    ]
}

fn task_event((sig, node, start, duration): Obs) -> TaskEvent {
    TaskEvent {
        id: 0,
        name: SIGNATURES[sig].into(),
        command: format!("{} --in x", SIGNATURES[sig]),
        inputs: vec![],
        outputs: vec![],
        cpu_seconds: duration.max(0.0),
        threads: 1,
        memory_mb: 100,
        node: NODES[node].into(),
        t_start: start,
        t_end: start + duration,
        attempts: 1,
        stdout: String::new(),
        stderr: String::new(),
    }
}

// The scan-based statistics the record replaced: the oracle.

/// A document's makespan, `t_end - t_start` clamped at zero as
/// `TaskEvent::makespan` computes it; `None` unless both are numbers.
fn makespan(doc: &Json) -> Option<f64> {
    let t = |field| doc.get(field).and_then(Json::as_f64);
    Some((t("t_end")? - t("t_start")?).max(0.0))
}

fn scan_latest(db: &ProvDb, signature: &str, node: &str) -> Option<f64> {
    db.collection(TASKS_COLLECTION)
        .query()
        .filter("name", Op::Eq, signature)
        .filter("node", Op::Eq, node)
        .last()
        .and_then(|doc| makespan(&doc))
}

/// The makespans of `signature`'s documents that have one, oldest first.
fn scan_makespans(db: &ProvDb, signature: &str) -> Vec<f64> {
    db.collection(TASKS_COLLECTION)
        .query()
        .filter("name", Op::Eq, signature)
        .collect()
        .iter()
        .filter_map(makespan)
        .collect()
}

fn scan_average(db: &ProvDb, signature: &str) -> Option<f64> {
    let makespans = scan_makespans(db, signature);
    (!makespans.is_empty()).then(|| makespans.iter().sum::<f64>() / makespans.len() as f64)
}

fn scan_count(db: &ProvDb, signature: &str) -> usize {
    scan_makespans(db, signature).len()
}

fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

/// Compares every statistic of every (signature, node) pair, plus a pair
/// never written, against the scan.
fn check(db: &ProvDb, managers: &[ProvenanceManager]) -> Result<(), TestCaseError> {
    let pairs = SIGNATURES
        .iter()
        .flat_map(|s| NODES.iter().map(move |n| (*s, *n)))
        .chain([("never-run", "nowhere")]);
    for (sig, node) in pairs {
        for (m, prov) in managers.iter().enumerate() {
            prop_assert_eq!(
                bits(prov.latest_runtime(sig, node)),
                bits(scan_latest(db, sig, node)),
                "latest_runtime({}, {}) on manager {}",
                sig,
                node,
                m
            );
            prop_assert_eq!(
                bits(prov.average_runtime(sig)),
                bits(scan_average(db, sig)),
                "average_runtime({}) on manager {}",
                sig,
                m
            );
            prop_assert_eq!(
                prov.observation_count(sig),
                scan_count(db, sig),
                "observation_count({}) on manager {}",
                sig,
                m
            );
        }
    }
    Ok(())
}

fn scratch_dir() -> std::path::PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hiway-core-prop-stats-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn managers(db: &ProvDb) -> Vec<ProvenanceManager> {
    vec![
        ProvenanceManager::new(db.clone()),
        ProvenanceManager::new(db.clone()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn folded_statistics_equal_a_full_scan(
        steps in proptest::collection::vec(arb_step(), 1..24),
    ) {
        let dir = scratch_dir();
        let mut db = ProvDb::open(&dir).expect("open fresh store");
        let mut provs = managers(&db);
        for step in steps {
            match step {
                Step::Record { manager, obs } => provs[manager].record_task(task_event(obs), None),
                Step::Import { manager, trace } => {
                    let events: Vec<TraceEvent> =
                        trace.into_iter().map(|o| TraceEvent::Task(task_event(o))).collect();
                    let loaded = provs[manager]
                        .import_trace(&write_trace(&events))
                        .expect("a written trace parses");
                    prop_assert_eq!(loaded, events.len());
                }
                Step::Raw { sig, node, t_start, t_end, stored_makespan } => {
                    let mut doc = match stored_makespan {
                        Some(m) => Json::object()
                            .with("name", SIGNATURES[sig])
                            .with("node", NODES[node])
                            .with("makespan", m),
                        None => Json::object()
                            .with("type", "task")
                            .with("name", SIGNATURES[sig])
                            .with("node", NODES[node]),
                    };
                    for (field, value) in [("t_start", t_start), ("t_end", t_end)] {
                        if let Some(v) = value {
                            doc.set(field, v);
                        }
                    }
                    db.collection(TASKS_COLLECTION).insert(doc);
                }
                Step::Compact => db.compact().expect("compact"),
                Step::Reopen => {
                    drop(provs);
                    drop(db);
                    db = ProvDb::open(&dir).expect("reopen");
                    provs = managers(&db);
                }
            }
            check(&db, &provs)?;
        }
        drop(provs);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
