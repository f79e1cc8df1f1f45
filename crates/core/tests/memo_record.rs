//! A memoizing run keeps one provenance record per committed task: the
//! task document itself carries the memo key and the committed outputs,
//! and it is what a resumed run hits. Task documents without a key, such
//! as those a trace import writes, never satisfy a resume.

use hiway_core::cluster::Cluster;
use hiway_core::config::{HiwayConfig, SchedulerPolicy};
use hiway_core::driver::Runtime;
use hiway_core::provenance::{
    ProvenanceManager, ATTEMPTS_COLLECTION, FILES_COLLECTION, TASKS_COLLECTION,
    WORKFLOWS_COLLECTION,
};
use hiway_format::json::Json;
use hiway_lang::ir::{OutputSpec, StaticWorkflow, TaskCost, TaskId, TaskSpec};
use hiway_provdb::ProvDb;
use hiway_sim::{ClusterSpec, NodeSpec};

fn task(id: u64, name: &str, inputs: &[&str], output: (&str, u64)) -> TaskSpec {
    TaskSpec {
        id: TaskId(id),
        name: name.into(),
        command: format!("{name} ..."),
        inputs: inputs.iter().map(|s| s.to_string()).collect(),
        outputs: vec![OutputSpec {
            path: output.0.into(),
            size: output.1,
        }],
        cost: TaskCost::new(5.0, 1, 256),
    }
}

/// in → pre → (left, right) → join.
fn diamond() -> StaticWorkflow {
    StaticWorkflow::new(
        "diamond",
        "test",
        vec![
            task(0, "pre", &["/in"], ("/a", 10 << 20)),
            task(1, "left", &["/a"], ("/b", 1 << 20)),
            task(2, "right", &["/a"], ("/c", 1 << 20)),
            task(3, "join", &["/b", "/c"], ("/d", 1 << 10)),
        ],
    )
}

/// Runs the diamond with `resume` set (a memoizing run) against `db`;
/// returns `(memo hits, tasks that ran in a container, trace)`.
fn resume_run(db: &ProvDb) -> (u64, usize, String) {
    let spec = ClusterSpec::homogeneous(3, "w", &NodeSpec::m3_large("proto"));
    let mut cluster = Cluster::new(spec, 7);
    cluster.prestage("/in", 20 << 20);
    let mut rt = Runtime::new(cluster);
    let config = HiwayConfig::default()
        .with_scheduler(SchedulerPolicy::Fcfs)
        .with_resume(true);
    let wf = rt.submit(Box::new(diamond()), config, db.clone());
    let reports = rt.run_to_completion();
    assert!(rt.error_of(wf).is_none(), "{:?}", rt.error_of(wf));
    let report = &reports[wf];
    assert_eq!(report.tasks.len(), 4);
    let executed = report.tasks.iter().filter(|t| t.attempts >= 1).count();
    (rt.memo_hits(wf), executed, report.trace.clone())
}

#[test]
fn one_task_document_per_commit_carries_the_memo() {
    let db = ProvDb::new();
    let (hits, executed, trace) = resume_run(&db);
    assert_eq!((hits, executed), (0, 4), "a cold store has nothing to hit");

    // One insert per committed task, into the task collection only.
    for name in db.collection_names() {
        assert!(
            [
                TASKS_COLLECTION,
                FILES_COLLECTION,
                WORKFLOWS_COLLECTION,
                ATTEMPTS_COLLECTION
            ]
            .contains(&name.as_str()),
            "unexpected provenance collection {name}"
        );
    }
    let docs = db.collection(TASKS_COLLECTION).snapshot();
    assert_eq!(docs.len(), 4, "one task document per commit");
    let wf = diamond();
    for doc in &docs {
        let name = doc.get("name").and_then(Json::as_str).expect("name");
        let key = doc.get("key").and_then(Json::as_str).expect("memo key");
        assert_eq!(key.len(), 16, "{name}: fixed-width hex key");
        let spec = wf.tasks.iter().find(|t| t.name == name).expect("known");
        let outputs: Vec<(&str, u64)> = doc
            .get("outputs")
            .and_then(Json::as_array)
            .expect("outputs")
            .iter()
            .map(|o| {
                let path = o.get("path").and_then(Json::as_str).expect("path");
                (path, o.get("size").and_then(Json::as_u64).expect("size"))
            })
            .collect();
        let declared: Vec<(&str, u64)> = spec
            .outputs
            .iter()
            .map(|o| (o.path.as_str(), o.size))
            .collect();
        assert_eq!(outputs, declared, "{name}");
    }

    // Those documents are what a resume hits; hits add no documents.
    assert_eq!(resume_run(&db).0, 4);
    assert_eq!(db.collection(TASKS_COLLECTION).len(), 4);

    // The same history imported from the trace has no keys: every task
    // executes again.
    let imported = ProvDb::new();
    let loaded = ProvenanceManager::new(imported.clone())
        .import_trace(&trace)
        .expect("trace imports");
    assert_eq!(loaded, 4);
    let (hits, executed, _) = resume_run(&imported);
    assert_eq!(
        (hits, executed),
        (0, 4),
        "imported documents are never hits"
    );
}
