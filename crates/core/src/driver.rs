//! The Workflow Driver and the AM runtime (paper §3.1, §3.3, Figure 3).
//!
//! A [`Runtime`] hosts one or more Hi-WAY AM instances on a shared
//! [`Cluster`] — "each workflow that is launched from a client results in
//! a separate instance of a Hi-WAY AM being spawned in its own container".
//! The runtime owns the engine poll loop; AMs are state machines reacting
//! to engine completions:
//!
//! * **Heartbeat** — the AM–RM allocation round: pending container
//!   requests are matched to free capacity and handed to the owning AM.
//! * **Worker container lifecycle** — "(i) obtaining the task's input
//!   data from HDFS, (ii) invoking the commands associated with the task,
//!   and (iii) storing any generated output data in HDFS".
//! * **Iterative discovery** — every task completion is fed back to the
//!   language front-end, which may reveal new tasks (conditionals, loops,
//!   recursion).
//! * **Fault tolerance** — failed attempts are retried in fresh containers
//!   with exponential backoff, steered away from failing (blacklisted)
//!   nodes; infrastructure losses (node crash, preemption) are budgeted
//!   separately from tool crashes; stragglers can be re-executed
//!   speculatively, first finisher wins.
//!
//! A task may therefore have several *attempts* in flight at once (one
//! primary plus at most one speculative duplicate); every engine event
//! carries the attempt id it belongs to, so late events of an attempt that
//! failed or was cancelled find it gone and are dropped.

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hiway_lang::trace::{FileEvent, TaskEvent};
use hiway_lang::{TaskId, TaskSpec, WorkflowSource};
use hiway_obs::profile::{section, Section};
use hiway_obs::{Tracer, TrackId};
use hiway_provdb::ProvDb;
use hiway_sim::{Activity, ActivityId, Endpoint, NodeId, SimTime};
use hiway_yarn::{AppId, Container, ContainerId, ContainerRequest};

use crate::cluster::{Cluster, Tag};
use crate::config::{HiwayConfig, SchedulerPolicy};
use crate::provenance::{memo_key, MemoHit, ProvenanceManager};
use crate::ready::{Ready, ReadyList, ReadyTracker};
use crate::report::{TaskReport, WorkflowReport};
use crate::scheduler::{make_scheduler, Scheduler, Selection};
use hiway_yarn::Resource;

/// Worker container startup latency (process spawn, localization), in
/// seconds: the `Starting` phase's one countdown entry is a timer this long.
const CONTAINER_STARTUP_SECS: f64 = 1.0;

/// Per-task execution state. Attempt-level phases (stage-in, exec,
/// stage-out) live on [`Attempt`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TaskState {
    /// Waiting for input files to be committed.
    Waiting,
    /// Dependencies met; a container request is outstanding.
    Requested,
    /// An attempt failed; the exponential-backoff timer is running.
    Backoff,
    /// At least one attempt is executing in a container.
    Active,
    Done,
}

/// Where one container attempt currently is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AttemptPhase {
    /// Container allocated; worker process starting up.
    Starting,
    /// Obtaining input data from HDFS / external services.
    StageIn,
    /// The black-box command is executing.
    Running,
    /// Writing outputs back to HDFS.
    StageOut,
}

/// Why an attempt failed — infrastructure losses are not the task's fault
/// and draw from a separate (much larger) retry budget than tool crashes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// Node crash, container preemption, storage loss mid-transfer.
    Infra,
    /// The tool itself crashed.
    Task,
}

/// One container execution of a task (a YARN "task attempt").
struct Attempt {
    container: Container,
    phase: AttemptPhase,
    speculative: bool,
    /// Engine activities still running for each file of the current phase
    /// (the startup is one file, its timer; the compute phase is one file:
    /// the command, then its scratch I/O).
    pending: Vec<usize>,
    /// Files of the current phase not yet finished.
    files_left: usize,
    /// When the current phase began; every file's transfer starts then.
    phase_started: SimTime,
    /// The current phase's activities in start order, for cancellation.
    inflight: Vec<ActivityId>,
    /// Whether the working-directory (scratch) I/O has run.
    scratch_done: bool,
    t_start: f64,
    /// When the compute phase began (straggler detection).
    t_exec_start: f64,
}

impl Attempt {
    fn new(container: Container, now: f64, speculative: bool) -> Attempt {
        Attempt {
            container,
            phase: AttemptPhase::Starting,
            speculative,
            pending: vec![1],
            files_left: 1,
            phase_started: SimTime::ZERO,
            inflight: Vec::new(),
            scratch_done: false,
            t_start: now,
            t_exec_start: 0.0,
        }
    }
}

struct TaskRun {
    /// Shared with the task's [`Ready`] entry while it is Requested.
    spec: Rc<TaskSpec>,
    state: TaskState,
    task_failures: u32,
    infra_failures: u32,
    /// Node of the last failed attempt, avoided on retry when possible.
    avoid_node: Option<NodeId>,
    /// Containers declined by the adaptive policy for this task so far.
    declines: u32,
    /// Attempts launched so far (primary + speculative), which is also
    /// the id of the next one.
    next_attempt: u32,
    /// In-flight attempts by attempt id (1 normally, 2 while speculating).
    active: BTreeMap<u32, Attempt>,
    /// A speculative duplicate has been requested or is running.
    speculating: bool,
    t_ready: f64,
    t_start: f64,
    t_exec_end: f64,
    t_end: f64,
}

impl TaskRun {
    /// A live attempt or a pending retry: the task will make progress
    /// without a new container grant.
    fn inflight(&self) -> bool {
        !self.active.is_empty() || self.state == TaskState::Backoff
    }

    fn new(spec: TaskSpec) -> TaskRun {
        TaskRun {
            spec: Rc::new(spec),
            state: TaskState::Waiting,
            task_failures: 0,
            infra_failures: 0,
            avoid_node: None,
            declines: 0,
            next_attempt: 0,
            active: BTreeMap::new(),
            speculating: false,
            t_ready: 0.0,
            t_start: 0.0,
            t_exec_end: 0.0,
            t_end: 0.0,
        }
    }
}

/// Per-workflow blacklist entry: strike count and its decay horizon.
#[derive(Clone, Copy, Debug, Default)]
struct Strikes {
    count: u32,
    expires: f64,
}

struct Am {
    app: AppId,
    source: Box<dyn WorkflowSource>,
    config: HiwayConfig,
    prov: ProvenanceManager,
    scheduler: Scheduler,
    tasks: BTreeMap<TaskId, TaskRun>,
    /// Tasks for which [`TaskRun::inflight`] holds; kept in step by
    /// [`Am::with_task`].
    inflight_tasks: usize,
    /// The Waiting tasks and the inputs each still misses.
    waiting: ReadyTracker,
    /// Ready-but-unlaunched tasks in readiness order.
    ready_order: ReadyList,
    /// Tasks with an unserved speculative container request.
    spec_pending: Vec<TaskId>,
    /// Nodes this workflow has seen attempts fail on, with decay.
    blacklist: BTreeMap<NodeId, Strikes>,
    started: bool,
    done: bool,
    error: Option<String>,
    am_container: Option<Container>,
    t_submit: f64,
    t_finish: f64,
    rng: StdRng,
    reports: Vec<TaskReport>,
    wasted_secs: f64,
    infra_failures: u32,
    task_failures: u32,
    speculative_attempts: u32,
    /// Completed invocations satisfied from the warm store this run.
    memo_hits: u64,
    memo_saved_secs: f64,
}

impl Am {
    fn active(&self) -> bool {
        !self.done && self.error.is_none()
    }

    fn has_inflight_tasks(&self) -> bool {
        self.inflight_tasks > 0
    }

    /// Applies `f` to task `id`, keeping `inflight_tasks` in step. Every
    /// change to a task's attempts or to or from `Backoff` goes through
    /// here.
    fn with_task<R>(&mut self, id: TaskId, f: impl FnOnce(&mut TaskRun) -> R) -> R {
        let task = self.tasks.get_mut(&id).expect("known task");
        let was = task.inflight();
        let out = f(task);
        match (was, task.inflight()) {
            (false, true) => self.inflight_tasks += 1,
            (true, false) => self.inflight_tasks -= 1,
            _ => {}
        }
        out
    }

    /// Lists Requested task `id` at the back of `ready_order`.
    fn push_ready(&mut self, id: TaskId) {
        let task = &self.tasks[&id];
        self.ready_order.push(Ready {
            id,
            avoid: task.avoid_node,
            spec: Rc::clone(&task.spec),
            locality: None,
        });
    }

    /// Whether this workflow currently refuses containers on `node`.
    fn node_blacklisted(&self, node: NodeId, now: f64) -> bool {
        if self.config.blacklist_strikes == 0 {
            return false;
        }
        match self.blacklist.get(&node) {
            Some(s) => s.count >= self.config.blacklist_strikes && now < s.expires,
            None => false,
        }
    }

    /// Registers an attempt failure on `node`; strikes decay after
    /// `blacklist_decay_secs` of quiet.
    fn strike_node(&mut self, node: NodeId, now: f64) {
        let decay = self.config.blacklist_decay_secs;
        let entry = self.blacklist.entry(node).or_default();
        if now > entry.expires {
            entry.count = 0;
        }
        entry.count += 1;
        entry.expires = now + decay;
    }
}

/// Hosts AMs on a cluster and drives the simulation to completion.
pub struct Runtime {
    pub cluster: Cluster,
    ams: Vec<Am>,
    /// Worker container → (workflow, task, attempt) hosting it.
    containers: HashMap<ContainerId, (usize, TaskId, u32)>,
    heartbeat_armed: bool,
    heartbeat_secs: f64,
    stall_strikes: u32,
    /// Extra CPU charged to master nodes per cluster event, modelling
    /// NameNode/ResourceManager/AM bookkeeping (Figure 6's master load).
    pub master_overhead: Option<MasterOverhead>,
    /// Observability sink shared with the engine, HDFS, and the RM.
    tracer: Tracer,
    /// Per-node trace tracks (same interned names as the engine's).
    node_tracks: Vec<TrackId>,
}

/// Models the control plane's resource use on dedicated master nodes —
/// the quantities Figure 6 monitors with `uptime`/`iostat`/`ifstat`.
/// The charges per event are the `MASTER_*` constants below, calibrated
/// so the Figure 6 panels land in the paper's magnitude band (master load
/// <5 % of a 2-core node at 128 workers).
#[derive(Clone, Copy, Debug)]
pub struct MasterOverhead {
    /// Node hosting YARN's RM and HDFS's NameNode.
    pub hadoop_master: NodeId,
    /// Node hosting the Hi-WAY AM container.
    pub am_master: NodeId,
}

/// CPU-seconds charged to the Hadoop master per container allocation and
/// per HDFS file operation.
const MASTER_EVENT_CPU: f64 = 0.2;
/// CPU-seconds charged to the AM node per task state transition.
const MASTER_TASK_CPU: f64 = 0.3;
/// Bytes of RPC/heartbeat/log-aggregation traffic between the worker and
/// the master per control-plane event.
const MASTER_RPC_BYTES: u64 = 4 << 20;
/// Bytes of audit/event logs the master writes per event.
const MASTER_LOG_BYTES: u64 = 2 << 20;

impl Runtime {
    pub fn new(cluster: Cluster) -> Runtime {
        Runtime {
            cluster,
            ams: Vec::new(),
            containers: HashMap::new(),
            heartbeat_armed: false,
            heartbeat_secs: 1.0,
            stall_strikes: 0,
            master_overhead: None,
            tracer: Tracer::disabled(),
            node_tracks: Vec::new(),
        }
    }

    /// Attaches an observability sink to every layer of the deployment:
    /// the engine (activity lifecycle), HDFS (block and locality
    /// counters), the RM (allocation counters), and the driver itself
    /// (task-attempt phase spans and the scheduler audit log). Call before
    /// running; a disabled tracer keeps everything a no-op.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
        self.cluster.engine.set_tracer(tracer);
        self.cluster.hdfs.set_tracer(tracer);
        self.cluster.rm.set_tracer(tracer);
        self.node_tracks = self
            .cluster
            .engine
            .spec()
            .nodes
            .iter()
            .map(|n| tracer.track(&n.name))
            .collect();
    }

    /// Submits a workflow; returns its index. The AM starts once YARN
    /// allocates its container (first heartbeat).
    pub fn submit(
        &mut self,
        source: Box<dyn WorkflowSource>,
        config: HiwayConfig,
        prov_db: ProvDb,
    ) -> usize {
        // A configured durable path supersedes the passed-in handle: the
        // provenance database must outlive this process for resume to
        // mean anything. Open failures surface as submission errors.
        let (prov_db, open_error) = match config.provdb_path.as_deref() {
            Some(path) => match ProvDb::open(path) {
                Ok(db) => (db, None),
                Err(e) => (ProvDb::new(), Some(format!("provenance store: {e}"))),
            },
            None => (prov_db, None),
        };
        // Route the submission through the configured scheduler queue.
        // Queued submissions hold their AM request until admitted;
        // rejected ones (admission limit, unknown queue) become errored
        // AMs without ever touching the RM queue.
        let queue_name = config
            .queue
            .clone()
            .unwrap_or_else(|| self.cluster.rm.default_queue().to_string());
        let (app, submit_error) = match self.cluster.rm.submit_app_to(&queue_name) {
            Ok((app, hiway_yarn::Admission::Rejected)) => (
                app,
                Some(format!(
                    "submission rejected: queue '{queue_name}' is at its application limit"
                )),
            ),
            Ok((app, _)) => (app, None),
            Err(why) => {
                let app = self.cluster.rm.submit_app();
                self.cluster.rm.finish_app(app);
                (app, Some(format!("submission failed: {why}")))
            }
        };
        let submit_error = open_error.or(submit_error);
        if submit_error.is_none() {
            // The AM container must never fall to cross-queue preemption:
            // killing the AM kills the whole workflow.
            self.cluster.rm.request(
                app,
                hiway_yarn::ContainerRequest::anywhere(config.am_resource).never_preempt(),
            );
        }
        self.heartbeat_secs = self.heartbeat_secs.min(config.heartbeat_secs);
        let seed = config.seed ^ (self.ams.len() as u64).wrapping_mul(0x9e37_79b9);
        let scheduler = make_scheduler(config.scheduler);
        let t_submit = self.cluster.engine.now().as_secs();
        self.ams.push(Am {
            app,
            source,
            config,
            prov: ProvenanceManager::new(prov_db),
            scheduler,
            tasks: BTreeMap::new(),
            inflight_tasks: 0,
            waiting: ReadyTracker::default(),
            ready_order: ReadyList::default(),
            spec_pending: Vec::new(),
            blacklist: BTreeMap::new(),
            started: false,
            done: false,
            error: submit_error,
            am_container: None,
            t_submit,
            t_finish: 0.0,
            rng: StdRng::seed_from_u64(seed),
            reports: Vec::new(),
            wasted_secs: 0.0,
            infra_failures: 0,
            task_failures: 0,
            speculative_attempts: 0,
            memo_hits: 0,
            memo_saved_secs: 0.0,
        });
        self.arm_heartbeat();
        self.ams.len() - 1
    }

    fn arm_heartbeat(&mut self) {
        if !self.heartbeat_armed {
            self.heartbeat_armed = true;
            self.cluster
                .engine
                .set_timer_after(self.heartbeat_secs, Tag::Heartbeat);
        }
    }

    /// Runs until every submitted workflow has finished or failed, then
    /// returns the reports (in submission order).
    pub fn run_to_completion(&mut self) -> Vec<WorkflowReport> {
        while let Some(tags) = self.cluster.engine.step() {
            for tag in tags {
                self.dispatch(tag);
            }
            if self.ams.iter().all(|am| !am.active()) {
                break;
            }
        }
        // Anything still active at engine drain is stalled.
        let mut finished = Vec::new();
        for am in &mut self.ams {
            if am.active() {
                am.error = Some("workflow stalled: no runnable work left".to_string());
                finished.push(am.app);
            }
        }
        for app in finished {
            self.cluster.rm.finish_app(app);
        }
        self.reports()
    }

    /// Runs until virtual time `deadline` (or until all workflows finish,
    /// whichever is first) and returns control — the hook that lets tests
    /// and chaos harnesses inject node failures mid-run. Returns `true`
    /// while at least one workflow is still active.
    pub fn run_until(&mut self, deadline: SimTime) -> bool {
        loop {
            if self.ams.iter().all(|am| !am.active()) {
                return false;
            }
            let Some(tags) = self.cluster.engine.step_until(deadline) else {
                self.cluster
                    .engine
                    .advance_to(deadline.max(self.cluster.engine.now()));
                return self.ams.iter().any(Am::active);
            };
            for tag in tags {
                self.dispatch(tag);
            }
        }
    }

    /// Builds the final reports.
    pub fn reports(&mut self) -> Vec<WorkflowReport> {
        let now = self.cluster.engine.now().as_secs();
        self.ams
            .iter_mut()
            .map(|am| {
                let t_finish = if am.done { am.t_finish } else { now };
                let total = (t_finish - am.t_submit).max(0.0);
                let (trace, trace_path) = if am.done && am.config.write_trace {
                    let text =
                        am.prov
                            .finish_workflow(am.source.name(), am.source.language(), total);
                    (
                        text,
                        Some(format!("/hiway/traces/{}.trace", am.source.name())),
                    )
                } else {
                    (String::new(), None)
                };
                WorkflowReport {
                    name: am.source.name().to_string(),
                    language: am.source.language().to_string(),
                    scheduler: am.scheduler.policy().name(),
                    t_submit: am.t_submit,
                    t_finish,
                    tasks: am.reports.clone(),
                    trace,
                    trace_path,
                    wasted_container_secs: am.wasted_secs,
                    infra_failures: am.infra_failures,
                    task_failures: am.task_failures,
                    speculative_attempts: am.speculative_attempts,
                }
            })
            .collect()
    }

    /// The error message of workflow `wf`, if it failed.
    pub fn error_of(&self, wf: usize) -> Option<&str> {
        self.ams[wf].error.as_deref()
    }

    /// The (possibly incomplete) provenance of a running workflow — like
    /// Chiron, Hi-WAY is one of the few systems where "a workflow's
    /// (incomplete) provenance data can be queried during execution of
    /// that same workflow" (§2.2, §3.5). Combine with
    /// [`Runtime::run_until`] to interrogate a paused run.
    pub fn provenance(&self, wf: usize) -> &ProvenanceManager {
        &self.ams[wf].prov
    }

    /// How many completed invocations workflow `wf` satisfied from the
    /// warm provenance store instead of executing (resume runs only).
    pub fn memo_hits(&self, wf: usize) -> u64 {
        self.ams[wf].memo_hits
    }

    /// Execution seconds the warm store saved workflow `wf` (the sum of
    /// the original makespans of all memo-satisfied invocations).
    pub fn memo_saved_secs(&self, wf: usize) -> f64 {
        self.ams[wf].memo_saved_secs
    }

    /// Progress counters of a workflow: `(done, total_known)` tasks.
    pub fn progress(&self, wf: usize) -> (usize, usize) {
        let am = &self.ams[wf];
        let done = am
            .tasks
            .values()
            .filter(|t| t.state == TaskState::Done)
            .count();
        (done, am.tasks.len())
    }

    /// Checks the engine's and the RM's invariants and the driver's own:
    /// every Done task's outputs are available, each AM's tracker holds
    /// exactly its Waiting tasks with their counts of unavailable inputs
    /// (which a file appearing without reaching the trackers would break),
    /// each AM's ready list holds each of its Requested tasks exactly once
    /// with that task's avoid node, spec and (when fresh) locality row,
    /// a started AM has a pending container request for every ready
    /// task, and its in-flight count matches its tasks.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.cluster.engine.check_invariants()?;
        self.cluster.rm.check_invariants()?;
        let available = |p: &String| self.cluster.input_available(p);
        for (wf, am) in self.ams.iter().enumerate() {
            let done = am.tasks.values().filter(|t| t.state == TaskState::Done);
            let outputs = done.flat_map(|t| &t.spec.outputs);
            if let Some(out) = outputs.map(|o| &o.path).find(|p| !available(p)) {
                return Err(format!("workflow {wf}: Done task output {out} is missing"));
            }
            let waiting: BTreeMap<TaskId, usize> = am
                .tasks
                .iter()
                .filter(|(_, t)| t.state == TaskState::Waiting)
                .map(|(id, t)| (*id, t.spec.inputs.iter().filter(|p| !available(p)).count()))
                .collect();
            let held: BTreeMap<TaskId, usize> = am.waiting.held().collect();
            if held != waiting {
                return Err(format!(
                    "workflow {wf}: tracker {held:?}, Waiting {waiting:?}"
                ));
            }
            let inflight = am.tasks.values().filter(|t| t.inflight()).count();
            if inflight != am.inflight_tasks {
                return Err(format!(
                    "workflow {wf}: {} in-flight tasks counted, {inflight} found",
                    am.inflight_tasks
                ));
            }
            let mut listed: Vec<TaskId> = am.ready_order.iter().map(|r| r.id).collect();
            listed.sort_unstable();
            let requested: Vec<TaskId> = am
                .tasks
                .iter()
                .filter(|(_, t)| t.state == TaskState::Requested)
                .map(|(id, _)| *id)
                .collect();
            if listed != requested {
                return Err(format!(
                    "workflow {wf}: ready list {listed:?}, Requested {requested:?}"
                ));
            }
            for r in am.ready_order.iter() {
                let task = &am.tasks[&r.id];
                if r.avoid != task.avoid_node || !Rc::ptr_eq(&r.spec, &task.spec) {
                    return Err(format!(
                        "workflow {wf}: ready entry of {:?} avoids {:?}, its task {:?}, or holds another spec",
                        r.id, r.avoid, task.avoid_node
                    ));
                }
                let hdfs = &self.cluster.hdfs;
                if let Some(row) = r.locality.as_ref().filter(|row| hdfs.is_fresh(row)) {
                    let built = hdfs.locality_row(&r.spec.inputs);
                    if *row != built {
                        return Err(format!(
                            "workflow {wf}: ready entry of {:?} holds the fresh row {row:?}, a new build {built:?}",
                            r.id
                        ));
                    }
                }
            }
            if am.active() && am.started {
                let pending = self.cluster.rm.pending_for(am.app);
                if pending < am.ready_order.len() {
                    return Err(format!(
                        "workflow {wf}: {pending} pending container requests for {} ready tasks",
                        am.ready_order.len()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Fails a node mid-run: kills its containers and re-tries the tasks
    /// that were running there. The caller decides whether to trigger
    /// HDFS re-replication afterwards.
    pub fn fail_node(&mut self, node: NodeId) {
        let killed = self.cluster.fail_node(node);
        for container in killed {
            if let Some((wf, task, attempt)) = self.containers.remove(&container.id) {
                self.handle_attempt_failure(
                    wf,
                    task,
                    attempt,
                    node,
                    FailureKind::Infra,
                    "node failure",
                );
            } else if let Some(am) = self
                .ams
                .iter_mut()
                .find(|am| am.am_container.map(|c| c.id) == Some(container.id))
            {
                am.error = Some(format!("AM container lost with node {}", node.0));
            }
        }
    }

    /// Brings a previously failed node back into service: its NodeManager
    /// re-registers with full capacity and its DataNode rejoins empty.
    /// Containers that died with the node stay dead; the per-workflow
    /// blacklists keep steering work away until their strikes decay.
    pub fn recover_node(&mut self, node: NodeId) {
        self.cluster.recover_node(node);
    }

    /// Kills one running worker container (YARN preemption). The attempt
    /// it hosted fails as an *infrastructure* failure — it does not count
    /// against the task's own retry budget. Returns `false` if the id is
    /// not a live worker container.
    pub fn preempt_container(&mut self, cid: ContainerId) -> bool {
        let Some((wf, task, attempt)) = self.containers.remove(&cid) else {
            return false;
        };
        let node = match self.cluster.rm.release(cid) {
            Some(c) => c.node,
            None => return false,
        };
        self.handle_attempt_failure(
            wf,
            task,
            attempt,
            node,
            FailureKind::Infra,
            "container preempted",
        );
        true
    }

    /// Live worker containers (excludes AM containers), in id order —
    /// a deterministic victim list for preemption harnesses.
    pub fn worker_containers(&self) -> Vec<ContainerId> {
        let mut ids: Vec<ContainerId> = self.containers.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    // ----- event dispatch -------------------------------------------------

    fn dispatch(&mut self, tag: Tag) {
        match tag {
            Tag::Heartbeat => self.on_heartbeat(),
            Tag::Attempt {
                wf,
                task,
                attempt,
                file,
            } => {
                let _p = section(Section::AttemptEvent);
                self.on_activity_done(wf as usize, task, attempt, file)
            }
            Tag::RetryTask { wf, task } => self.on_retry_due(wf as usize, task),
            Tag::Stress | Tag::Replication => {}
        }
    }

    fn on_heartbeat(&mut self) {
        let mut prof = section(Section::HeartbeatIdle);
        self.heartbeat_armed = false;
        // Fail fast workflows whose requests can never be satisfied — an
        // ask larger than every node (or the queue's elastic ceiling)
        // would otherwise hang until stall detection guesses.
        for (app, why) in self.cluster.rm.take_infeasible() {
            if let Some(wf) = self.ams.iter().position(|am| am.app == app) {
                if self.ams[wf].active() {
                    self.fail_workflow(wf, format!("unsatisfiable container request: {why}"));
                }
            }
        }
        // Cross-queue preemption victims selected by the RM die through
        // the same infrastructure-failure path node crashes use, so AM
        // infra-retry budgets and backoff apply.
        for cid in self.cluster.rm.take_preemptions() {
            self.preempt_container(cid);
        }
        let now = self.cluster.engine.now().as_secs();
        let granted = self.cluster.rm.allocate_at(now);
        let any_granted = !granted.is_empty();
        if any_granted {
            prof.relabel(Section::HeartbeatRoute);
        }
        for container in granted {
            self.route_container(container);
        }
        self.maybe_speculate();

        let any_active = self.ams.iter().any(Am::active);
        if any_active {
            // Stall detection: nothing allocated, nothing in flight, yet
            // unfinished workflows remain — the cluster can never make
            // progress (an input that will never exist, a pinned request
            // for a dead node, or an AM container that fits nowhere).
            // Tasks in retry backoff count as in flight: their timer will
            // re-request a container.
            let any_inflight = self.ams.iter().any(Am::has_inflight_tasks);
            if !any_granted && !any_inflight {
                self.stall_strikes += 1;
            } else {
                self.stall_strikes = 0;
            }
            if self.stall_strikes > 3 {
                let mut finished = Vec::new();
                for am in &mut self.ams {
                    if am.active() {
                        am.error = Some(if am.started {
                            "workflow stalled: tasks waiting on inputs that never appear"
                                .to_string()
                        } else {
                            "workflow stalled: AM container was never allocated".to_string()
                        });
                        finished.push(am.app);
                    }
                }
                for app in finished {
                    self.cluster.rm.finish_app(app);
                }
                return;
            }
            self.arm_heartbeat();
        }
    }

    fn route_container(&mut self, container: Container) {
        let wf = match self.ams.iter().position(|am| am.app == container.app) {
            Some(wf) => wf,
            None => {
                self.cluster.rm.release(container.id);
                return;
            }
        };
        if !self.ams[wf].active() {
            self.cluster.rm.release(container.id);
            return;
        }
        if !self.ams[wf].started {
            self.ams[wf].am_container = Some(container);
            self.start_am(wf);
            return;
        }
        self.charge_master_overhead_from(true, Some(container.node));
        let node = container.node;
        let now = self.cluster.engine.now().as_secs();
        // Per-workflow blacklist: hand containers on struck nodes straight
        // back, as long as some other schedulable node exists. The strikes
        // decay, so a recovered node earns its way back in.
        if self.ams[wf].node_blacklisted(node, now) {
            let alternative = self.cluster.rm.alive_nodes().into_iter().any(|n| {
                n != node
                    && self.cluster.rm.total(n).vcores > 0
                    && !self.ams[wf].node_blacklisted(n, now)
            });
            if alternative {
                self.cluster.rm.release(container.id);
                self.re_request_head(wf);
                return;
            }
        }
        // Pick a task for this worker container.
        let multi_node = self.cluster.rm.alive_count() > 1;
        let hdfs = &self.cluster.hdfs;
        let alive = hdfs.is_alive(node);
        let am = &mut self.ams[wf];
        let policy = am.scheduler.policy();
        let selection = if policy == SchedulerPolicy::Fcfs && !self.tracer.is_enabled() {
            // FCFS runs the head; only the audit row scores every
            // candidate, and its winner is the same head.
            Selection {
                winner: am.ready_order.head(node, multi_node),
                decline: false,
            }
        } else {
            let rows = (alive && policy.reads_locality()).then_some(hdfs);
            let build = section(Section::RouteCandidates);
            let candidates = am.ready_order.candidates(node, multi_node, rows);
            drop(build);
            let node_name = &self.cluster.engine.spec().node(node).name;
            am.scheduler.select(
                node,
                node_name,
                alive,
                &candidates,
                &am.prov,
                &self.tracer,
                now,
            )
        };
        // Late binding: an adaptive policy may decline a poorly placed
        // container and wait for a better one (bounded per task).
        let chosen = selection.winner;
        if let Some(task_id) = chosen {
            let task = &am.tasks[&task_id];
            if selection.decline && task.declines < 3 {
                am.tasks.get_mut(&task_id).expect("known").declines += 1;
                let resource = container.resource;
                self.cluster.rm.release(container.id);
                let am = &mut self.ams[wf];
                let req = am
                    .scheduler
                    .container_request(&am.tasks[&task_id].spec, resource);
                self.cluster.rm.request(am.app, req);
                return;
            }
        }
        match chosen {
            Some(task_id) => self.launch_attempt(wf, container, task_id, false),
            None => {
                // No primary task fits this container: maybe a straggler's
                // speculative duplicate can use it.
                if self.try_launch_speculative(wf, container) {
                    return;
                }
                // Otherwise hand it back and re-ask so the request count
                // matches the ready tasks again.
                self.cluster.rm.release(container.id);
                self.re_request_head(wf);
            }
        }
    }

    /// Issues a fresh container request for the head Requested task (used
    /// after handing a container back).
    fn re_request_head(&mut self, wf: usize) {
        if let Some(tid) = self.ams[wf].ready_order.first() {
            self.request_container(wf, tid);
        }
    }

    /// Starts one attempt of `task_id` in `container`. Primary attempts
    /// consume the task's slot in `ready_order`; speculative ones run
    /// alongside the existing attempt.
    fn launch_attempt(
        &mut self,
        wf: usize,
        container: Container,
        task_id: TaskId,
        speculative: bool,
    ) {
        let now = self.cluster.engine.now().as_secs();
        let am = &mut self.ams[wf];
        let attempt = am.with_task(task_id, |task| {
            let attempt = task.next_attempt;
            task.next_attempt += 1;
            task.active
                .insert(attempt, Attempt::new(container, now, speculative));
            if !speculative {
                task.state = TaskState::Active;
                task.t_start = now;
            }
            attempt
        });
        if speculative {
            am.speculative_attempts += 1;
        } else {
            am.ready_order.remove(task_id);
        }
        self.containers.insert(container.id, (wf, task_id, attempt));
        if self.tracer.is_enabled() {
            self.tracer.instant(
                self.node_tracks[container.node.index()],
                &format!("attempt.launch:{}", self.ams[wf].tasks[&task_id].spec.name),
                "driver",
                now,
                &[
                    ("task", task_id.0.to_string()),
                    ("attempt", attempt.to_string()),
                    ("container", container.id.0.to_string()),
                    ("speculative", speculative.to_string()),
                ],
            );
            self.tracer.inc("driver.attempts_launched", 1);
            if speculative {
                self.tracer.inc("driver.speculative_attempts", 1);
            }
        }
        self.cluster.engine.set_timer_after(
            CONTAINER_STARTUP_SECS,
            Tag::Attempt {
                wf: wf as u32,
                task: task_id,
                attempt,
                file: 0,
            },
        );
    }

    /// Tries to use an unmatched container for a pending speculative
    /// duplicate; the duplicate must land on a different node than the
    /// straggling attempt.
    fn try_launch_speculative(&mut self, wf: usize, container: Container) -> bool {
        if !self.ams[wf].config.speculative_execution {
            return false;
        }
        let mut launch: Option<TaskId> = None;
        {
            let am = &mut self.ams[wf];
            let tasks = &am.tasks;
            let mut stale: Vec<usize> = Vec::new();
            for (i, tid) in am.spec_pending.iter().enumerate() {
                let eligible = tasks.get(tid).is_some_and(|t| {
                    t.state == TaskState::Active && t.speculating && t.active.len() == 1
                });
                if !eligible {
                    stale.push(i);
                    continue;
                }
                let primary_node = tasks[tid].active.values().next().map(|a| a.container.node);
                if primary_node == Some(container.node) {
                    continue; // same node as the straggler: pointless copy
                }
                launch = Some(*tid);
                stale.push(i);
                break;
            }
            for i in stale.into_iter().rev() {
                am.spec_pending.remove(i);
            }
        }
        match launch {
            Some(tid) => {
                self.launch_attempt(wf, container, tid, true);
                true
            }
            None => false,
        }
    }

    /// Scans for stragglers and requests duplicate containers for them —
    /// the speculative-execution heartbeat hook.
    fn maybe_speculate(&mut self) {
        let now = self.cluster.engine.now().as_secs();
        for wf in 0..self.ams.len() {
            if !self.ams[wf].active() || !self.ams[wf].config.speculative_execution {
                continue;
            }
            let factor = self.ams[wf].config.speculation_factor;
            let min_secs = self.ams[wf].config.speculation_min_secs;
            let mut to_speculate: Vec<TaskId> = Vec::new();
            {
                let am = &self.ams[wf];
                for (tid, task) in &am.tasks {
                    if task.state != TaskState::Active || task.speculating || task.active.len() != 1
                    {
                        continue;
                    }
                    let attempt = task.active.values().next().expect("len checked");
                    if attempt.phase != AttemptPhase::Running {
                        continue;
                    }
                    let elapsed = now - attempt.t_exec_start;
                    if elapsed < min_secs {
                        continue;
                    }
                    match am.prov.average_runtime(&task.spec.name) {
                        Some(est) if est > 0.0 && elapsed > factor * est => {
                            to_speculate.push(*tid);
                        }
                        _ => {}
                    }
                }
            }
            for tid in to_speculate {
                let resource = {
                    let spec = &self.ams[wf].tasks[&tid].spec;
                    self.container_resource_for(wf, spec)
                };
                let am = &mut self.ams[wf];
                am.tasks.get_mut(&tid).expect("known").speculating = true;
                am.spec_pending.push(tid);
                self.cluster
                    .rm
                    .request(am.app, ContainerRequest::anywhere(resource));
            }
        }
    }

    fn start_am(&mut self, wf: usize) {
        let am = &mut self.ams[wf];
        am.started = true;
        if am.config.scheduler.is_static() && !am.source.is_static() {
            am.error = Some(format!(
                "static scheduling policy '{}' cannot run iterative language '{}'",
                am.config.scheduler.name(),
                am.source.language()
            ));
            return;
        }
        match am.source.initial_tasks() {
            Ok(tasks) => {
                // Static policies plan over the full (static) task graph —
                // but only over nodes that can actually host a worker
                // container (dedicated master nodes advertise no capacity;
                // the AM's own node is already occupied by the AM).
                if am.config.scheduler.is_static() {
                    let resource = am.config.container_resource;
                    let nodes: Vec<_> = self
                        .cluster
                        .rm
                        .alive_nodes()
                        .into_iter()
                        .filter(|n| self.cluster.rm.available(*n).fits(&resource))
                        .collect();
                    if nodes.is_empty() {
                        am.error = Some(
                            "no node can host a worker container; static planning impossible"
                                .to_string(),
                        );
                        return;
                    }
                    let names: Vec<String> = self
                        .cluster
                        .engine
                        .spec()
                        .nodes
                        .iter()
                        .map(|n| n.name.clone())
                        .collect();
                    let now = self.cluster.engine.now().as_secs();
                    am.scheduler
                        .plan(&tasks, &nodes, &names, &am.prov, &self.tracer, now);
                }
                self.register_tasks(wf, tasks);
                self.check_ready(wf);
                self.maybe_finish(wf);
            }
            Err(e) => {
                am.error = Some(e.to_string());
            }
        }
    }

    fn register_tasks(&mut self, wf: usize, tasks: Vec<TaskSpec>) {
        let am = &mut self.ams[wf];
        for spec in tasks {
            let id = spec.id;
            assert!(
                !am.tasks.contains_key(&id),
                "front-end emitted duplicate task {id:?}"
            );
            am.waiting
                .add(id, &spec.inputs, |p| self.cluster.input_available(p));
            am.tasks.insert(id, TaskRun::new(spec));
        }
    }

    /// Tells every AM that `path` became available. Files appear mid-run
    /// only through a stage-out commit or a memo hit, and both call this,
    /// so a commit by one workflow releases the tasks of all of them.
    fn file_available(&mut self, path: &str) {
        for am in &mut self.ams {
            am.waiting.file_available(path);
        }
    }

    /// The container resource for a task: the AM-wide uniform size, or —
    /// in tailored mode (§5 future work) — the task's own footprint,
    /// clamped so it fits the largest node.
    fn container_resource_for(&self, wf: usize, task: &TaskSpec) -> Resource {
        let config = &self.ams[wf].config;
        if !config.tailored_containers {
            return config.container_resource;
        }
        let (max_vcores, max_mem) = self
            .cluster
            .rm
            .alive_nodes()
            .into_iter()
            .map(|n| self.cluster.rm.total(n))
            .fold((1u32, 512u64), |(v, m), r| {
                (v.max(r.vcores), m.max(r.memory_mb))
            });
        Resource::new(
            task.cost.threads.clamp(1, max_vcores),
            task.cost.memory_mb.clamp(256, max_mem),
        )
    }

    /// Moves Waiting tasks whose inputs are all available to Requested,
    /// lowest id first, until none is left or the workflow has ended.
    fn check_ready(&mut self, wf: usize) {
        let now = self.cluster.engine.now().as_secs();
        while self.ams[wf].active() {
            let Some(id) = self.ams[wf].waiting.pop() else {
                return;
            };
            // Resume path: a committed invocation with this signature and
            // these input digests never reaches a scheduler — it is
            // satisfied from the warm provenance store on the spot.
            if self.ams[wf].config.resume {
                if let Some((key, hit)) = self.memo_lookup(wf, id) {
                    self.complete_from_memo(wf, id, &key, hit);
                    continue;
                }
            }
            let am = &mut self.ams[wf];
            let task = am.tasks.get_mut(&id).expect("listed");
            task.state = TaskState::Requested;
            task.t_ready = now;
            am.push_ready(id);
            self.request_container(wf, id);
        }
    }

    /// Asks the RM for a container sized for `task_id`, placed as the
    /// scheduler wants it.
    fn request_container(&mut self, wf: usize, task_id: TaskId) {
        let spec = &self.ams[wf].tasks[&task_id].spec;
        let resource = self.container_resource_for(wf, spec);
        let req = self.ams[wf].scheduler.container_request(spec, resource);
        self.cluster.rm.request(self.ams[wf].app, req);
    }

    /// The memo key of a task, from its signature and the canonical
    /// digests of its currently staged inputs. `None` when any input's
    /// digest is unavailable (shouldn't happen for a ready task) — the
    /// task then simply executes normally.
    fn memo_key_for(&self, wf: usize, task_id: TaskId) -> Option<String> {
        let spec = &self.ams[wf].tasks.get(&task_id)?.spec;
        let mut digests = Vec::with_capacity(spec.inputs.len());
        for path in &spec.inputs {
            let digest = match self.cluster.external_file(path) {
                // External inputs are not in HDFS; digest their stable
                // identity the same way HDFS digests its files.
                Some(ext) => hiway_hdfs::file_digest(path, ext.size),
                None => self.cluster.hdfs.content_digest(path).ok()?,
            };
            digests.push(digest);
        }
        Some(memo_key(&spec.name, &spec.command, &digests))
    }

    /// Looks a ready task up in the provenance store. A hit must also
    /// promise exactly the outputs the current spec declares — a changed
    /// workflow definition falls back to real execution.
    fn memo_lookup(&self, wf: usize, task_id: TaskId) -> Option<(String, MemoHit)> {
        let key = self.memo_key_for(wf, task_id)?;
        let hit = self.ams[wf].prov.memo_hit(&key)?;
        let spec = &self.ams[wf].tasks[&task_id].spec;
        let declared: Vec<(String, u64)> = spec
            .outputs
            .iter()
            .map(|o| (o.path.clone(), o.size))
            .collect();
        if hit.outputs != declared {
            return None;
        }
        Some((key, hit))
    }

    /// Satisfies a task from the warm store: materialize its recorded
    /// outputs in HDFS (free, like pre-staging — the data provably
    /// existed), mark it done, emit a `memo:hit` instant plus an audit
    /// row instead of execute phases, and run the normal completion tail
    /// (iterative discovery, readiness cascade, finish check).
    fn complete_from_memo(&mut self, wf: usize, task_id: TaskId, key: &str, hit: MemoHit) {
        let now = self.cluster.engine.now().as_secs();
        for (path, size) in &hit.outputs {
            self.cluster.discard_uncommitted(path);
            if !self.cluster.hdfs.exists(path) {
                self.cluster.prestage(path, *size);
            }
            self.file_available(path);
        }
        let am = &mut self.ams[wf];
        am.memo_hits += 1;
        am.memo_saved_secs += hit.saved_secs;
        let task = am.tasks.get_mut(&task_id).expect("known task");
        task.state = TaskState::Done;
        task.t_ready = now;
        task.t_start = now;
        task.t_end = now;
        let name = task.spec.name.clone();
        am.reports.push(TaskReport {
            id: task_id,
            name: name.clone(),
            node: format!("memo:{}", hit.node),
            t_ready: now,
            t_start: now,
            t_end: now,
            attempts: 0,
            localize_secs: 0.0,
            commit_secs: 0.0,
        });
        if self.tracer.is_enabled() {
            let track = self.node_tracks.first().copied().unwrap_or_else(|| {
                // Tracer enabled but set_tracer never ran: intern a track.
                self.tracer.track("memo")
            });
            self.tracer.instant(
                track,
                "memo:hit",
                "memo",
                now,
                &[
                    ("task", task_id.0.to_string()),
                    ("name", name.clone()),
                    ("key", key.to_string()),
                    ("saved_secs", format!("{:.6}", hit.saved_secs)),
                ],
            );
            self.tracer.inc("driver.memo_hits", 1);
            self.tracer
                .observe("driver.memo_saved_secs", hit.saved_secs);
            self.tracer.audit(hiway_obs::Decision {
                t: now,
                policy: "memo",
                kind: hiway_obs::DecisionKind::Memo,
                node: 0,
                node_name: format!("memo:{}", hit.node),
                candidates: Vec::new(),
                winner: Some(task_id.0),
                reason: format!(
                    "invocation {name} satisfied from warm store (key {key}, saved {:.1}s)",
                    hit.saved_secs
                ),
            });
        }
        self.after_completion(wf, task_id);
    }

    /// The tail every completed task runs, executed or memo-satisfied:
    /// feed the completion back to the front-end (iterative discovery,
    /// Figure 3: it may reveal tasks), then cascade readiness and check
    /// whether the workflow is done.
    fn after_completion(&mut self, wf: usize, task_id: TaskId) {
        let lang = section(Section::LangCompleted);
        let revealed = self.ams[wf].source.on_task_completed(task_id);
        drop(lang);
        match revealed {
            Ok(new_tasks) => self.register_tasks(wf, new_tasks),
            Err(e) => {
                self.fail_workflow(wf, e.to_string());
                return;
            }
        }
        self.check_ready(wf);
        self.maybe_finish(wf);
    }

    // ----- worker container lifecycle --------------------------------------

    fn attempt_mut(&mut self, wf: usize, task_id: TaskId, attempt: u32) -> &mut Attempt {
        self.ams[wf]
            .tasks
            .get_mut(&task_id)
            .and_then(|t| t.active.get_mut(&attempt))
            .expect("attempt live")
    }

    /// Starts whatever follows the attempt's current phase once all its
    /// files are done: container up → stage-in → compute → scratch I/O →
    /// stage-out → finished.
    fn next_phase(&mut self, wf: usize, task_id: TaskId, attempt: u32) {
        let task = &self.ams[wf].tasks[&task_id];
        let att = &task.active[&attempt];
        let node = att.container.node;
        match (att.phase, att.scratch_done) {
            (AttemptPhase::Starting, _) => {
                let inputs = task.spec.inputs.clone();
                self.charge_master_overhead_from(false, Some(node));
                self.begin_phase(
                    wf,
                    task_id,
                    attempt,
                    AttemptPhase::StageIn,
                    inputs.len(),
                    |rt, file, tag| {
                        // Replica loss mid-run is an infrastructure fault:
                        // retry (re-replication may restore the data)
                        // rather than failing the whole workflow.
                        let path = &inputs[file];
                        rt.cluster
                            .start_input(path, node, tag)
                            .map_err(|e| format!("stage-in of '{path}' failed: {e}"))
                    },
                );
            }
            (AttemptPhase::StageIn, _) => self.begin_exec(wf, task_id, attempt),
            (AttemptPhase::Running, false) => {
                // Working-directory I/O: the tool writes its temporary
                // files and reads them back — on the node's *local* disk
                // under Hi-WAY (cf. Figure 8's analysis).
                let bytes = task.spec.cost.scratch_bytes;
                self.attempt_mut(wf, task_id, attempt).scratch_done = true;
                self.begin_phase(
                    wf,
                    task_id,
                    attempt,
                    AttemptPhase::Running,
                    1,
                    |rt, _, tag| Ok(rt.cluster.start_scratch(node, bytes, tag)),
                );
            }
            (AttemptPhase::Running, true) => self.end_exec(wf, task_id, attempt),
            (AttemptPhase::StageOut, _) => self.finish_task(wf, task_id, attempt),
        }
    }

    /// Moves an attempt into `phase` and starts the engine activities of
    /// each of its `files` files through `start`, in file order. Files
    /// without activities finish once every file has started, in file
    /// order; a phase without files is over at once. A `start` error fails
    /// the attempt as an infrastructure loss, cancelling what the earlier
    /// files started.
    fn begin_phase(
        &mut self,
        wf: usize,
        task_id: TaskId,
        attempt: u32,
        phase: AttemptPhase,
        files: usize,
        mut start: impl FnMut(&mut Runtime, usize, Tag) -> Result<Vec<ActivityId>, String>,
    ) {
        let now = self.cluster.engine.now();
        let att = self.attempt_mut(wf, task_id, attempt);
        att.phase = phase;
        att.phase_started = now;
        att.files_left = files;
        att.pending.clear();
        att.inflight.clear();
        let node = att.container.node;
        for file in 0..files {
            let tag = Tag::Attempt {
                wf: wf as u32,
                task: task_id,
                attempt,
                file: file as u32,
            };
            match start(self, file, tag) {
                Ok(acts) => {
                    let att = self.attempt_mut(wf, task_id, attempt);
                    att.pending.push(acts.len());
                    att.inflight.extend(acts);
                }
                Err(why) => {
                    let kind = FailureKind::Infra;
                    self.handle_attempt_failure(wf, task_id, attempt, node, kind, &why);
                    return;
                }
            }
        }
        let att = self.attempt_mut(wf, task_id, attempt);
        let idle: Vec<usize> = (0..files).filter(|&f| att.pending[f] == 0).collect();
        for file in idle {
            self.file_done(wf, task_id, attempt, file);
        }
        if files == 0 {
            self.next_phase(wf, task_id, attempt);
        }
    }

    /// One engine activity (or the startup timer) of file `file` of the
    /// attempt's current phase finished. A phase ends only when all its
    /// activities have, so the only stale event is one whose attempt failed
    /// or was cancelled: it finds the attempt gone and is dropped.
    fn on_activity_done(&mut self, wf: usize, task_id: TaskId, attempt: u32, file: u32) {
        let Some(att) = self.ams[wf]
            .tasks
            .get_mut(&task_id)
            .and_then(|t| t.active.get_mut(&attempt))
        else {
            return;
        };
        let left = &mut att.pending[file as usize];
        *left -= 1;
        if *left == 0 {
            self.file_done(wf, task_id, attempt, file as usize);
        }
    }

    /// A file of the attempt's current phase is done: record a staged
    /// input, or commit and publish an output. After the phase's last
    /// file, the next phase starts.
    fn file_done(&mut self, wf: usize, task_id: TaskId, attempt: u32, file: usize) {
        let now = self.cluster.engine.now();
        let task = self.ams[wf].tasks.get_mut(&task_id).expect("known task");
        let att = task.active.get_mut(&attempt).expect("attempt live");
        att.files_left -= 1;
        let last = att.files_left == 0;
        let transfer_seconds = now.since(att.phase_started);
        let moved = match att.phase {
            AttemptPhase::StageIn => {
                let path = &task.spec.inputs[file];
                Some((path.clone(), self.cluster.file_size(path), "in"))
            }
            AttemptPhase::StageOut => {
                let out = &task.spec.outputs[file];
                self.cluster.commit_file(&out.path);
                Some((out.path.clone(), out.size, "out"))
            }
            // The startup's and the compute phase's one "file" move no data.
            AttemptPhase::Starting | AttemptPhase::Running => None,
        };
        if let Some((path, size, direction)) = moved {
            if direction == "out" {
                self.file_available(&path);
            }
            self.ams[wf].prov.record_file(FileEvent {
                path,
                size,
                task: task_id.0,
                direction: direction.into(),
                transfer_seconds,
            });
        }
        if last {
            self.next_phase(wf, task_id, attempt);
        }
    }

    fn begin_exec(&mut self, wf: usize, task_id: TaskId, attempt: u32) {
        let now = self.cluster.engine.now().as_secs();
        let am = &mut self.ams[wf];
        let task = am.tasks.get_mut(&task_id).expect("known task");
        let att = task.active.get_mut(&attempt).expect("attempt live");
        att.t_exec_start = now;
        att.scratch_done = task.spec.cost.scratch_bytes == 0;
        let node = att.container.node;
        let cap = if am.config.multithread_full_node {
            self.cluster.engine.spec().node(node).cores
        } else {
            att.container.resource.vcores
        };
        let threads = task.spec.cost.threads.min(cap.max(1)).max(1) as f64;
        let cpu = task.spec.cost.cpu_seconds;
        self.begin_phase(
            wf,
            task_id,
            attempt,
            AttemptPhase::Running,
            1,
            |rt, _, tag| {
                let compute = Activity::Compute { node, threads };
                Ok(vec![rt.cluster.engine.start(compute, cpu, tag)])
            },
        );
    }

    /// The command and its scratch I/O are done: this attempt wins any
    /// speculation race, then either draws a simulated tool crash or
    /// starts stage-out.
    fn end_exec(&mut self, wf: usize, task_id: TaskId, attempt: u32) {
        let now = self.cluster.engine.now().as_secs();
        // Speculation race resolved: this attempt wins, twins are cancelled.
        self.cancel_other_attempts(wf, task_id, attempt);
        let am = &mut self.ams[wf];
        let task = am.tasks.get_mut(&task_id).expect("known");
        task.t_exec_end = now;
        task.t_start = task.active[&attempt].t_start;
        task.speculating = false;
        let node = task.active[&attempt].container.node;
        let fail_prob = am.config.task_failure_prob;
        if fail_prob > 0.0 && am.rng.gen_bool(fail_prob.clamp(0.0, 1.0)) {
            let why = "simulated tool failure";
            self.handle_attempt_failure(wf, task_id, attempt, node, FailureKind::Task, why);
            return;
        }
        let outputs = am.tasks[&task_id].spec.outputs.clone();
        let files = outputs.len();
        self.begin_phase(
            wf,
            task_id,
            attempt,
            AttemptPhase::StageOut,
            files,
            |rt, file, tag| {
                let out = &outputs[file];
                rt.charge_master_overhead(false);
                // A previous attempt may have died mid-stage-out, leaving a
                // registered-but-uncommitted file behind; drop it so the
                // retry's create succeeds.
                rt.cluster.discard_uncommitted(&out.path);
                rt.cluster
                    .start_output(&out.path, out.size, node, tag)
                    .map_err(|e| format!("stage-out of '{}' failed: {e}", out.path))
            },
        );
    }

    /// Removes a live attempt, cancels its in-flight activities in start
    /// order and releases its container (a no-op for a lease that a node
    /// failure or preemption already dropped).
    fn drop_attempt(&mut self, wf: usize, task_id: TaskId, attempt: u32) -> Option<Attempt> {
        let am = &mut self.ams[wf];
        am.tasks.get(&task_id)?;
        let att = am.with_task(task_id, |t| t.active.remove(&attempt))?;
        for &act in &att.inflight {
            self.cluster.engine.cancel(act);
        }
        self.containers.remove(&att.container.id);
        self.cluster.rm.release(att.container.id);
        Some(att)
    }

    /// Cancels every active attempt of the task except `winner` — the
    /// losers of a speculation race. Their container time is wasted but
    /// the cancellation is not a failure: no strikes, no budgets.
    fn cancel_other_attempts(&mut self, wf: usize, task_id: TaskId, winner: u32) {
        let losers: Vec<u32> = self.ams[wf].tasks[&task_id]
            .active
            .keys()
            .filter(|a| **a != winner)
            .copied()
            .collect();
        let now = self.cluster.engine.now().as_secs();
        for aid in losers {
            let att = self.drop_attempt(wf, task_id, aid).expect("listed");
            let wasted = (now - att.t_start).max(0.0);
            let node_name = self.cluster.node_name(att.container.node).to_string();
            // Either twin can lose the race: the duplicate overtaking the
            // straggler is the expected case, the other direction happens
            // when the original recovers.
            let outcome = if att.speculative {
                "speculative-loser"
            } else {
                "primary-loser"
            };
            let am = &mut self.ams[wf];
            am.wasted_secs += wasted;
            let name = am.tasks[&task_id].spec.name.clone();
            am.prov
                .record_attempt(task_id.0, &name, &node_name, outcome, wasted);
            if self.tracer.is_enabled() {
                self.tracer.instant(
                    self.node_tracks[att.container.node.index()],
                    &format!("attempt.cancelled:{name}"),
                    "driver",
                    now,
                    &[
                        ("task", task_id.0.to_string()),
                        ("attempt", aid.to_string()),
                        ("outcome", outcome.to_string()),
                    ],
                );
                self.tracer.inc("driver.speculation_losers", 1);
                self.tracer.observe("driver.wasted_secs", wasted);
            }
        }
    }

    fn finish_task(&mut self, wf: usize, task_id: TaskId, attempt: u32) {
        // Defensive: a twin should already have been cancelled at exec-win.
        self.cancel_other_attempts(wf, task_id, attempt);
        let now = self.cluster.engine.now().as_secs();
        let (container, event, report) = {
            let att = self.ams[wf].with_task(task_id, |task| {
                task.state = TaskState::Done;
                task.t_end = now;
                task.active.remove(&attempt).expect("winner is live")
            });
            let task = &self.ams[wf].tasks[&task_id];
            let container = att.container;
            let node_name = self.cluster.node_name(container.node).to_string();
            let spec = &task.spec;
            let event = TaskEvent {
                id: task_id.0,
                name: spec.name.clone(),
                command: spec.command.clone(),
                inputs: spec
                    .inputs
                    .iter()
                    .map(|p| (p.clone(), self.cluster.file_size(p)))
                    .collect(),
                outputs: spec
                    .outputs
                    .iter()
                    .map(|o| (o.path.clone(), o.size))
                    .collect(),
                cpu_seconds: spec.cost.cpu_seconds,
                threads: spec.cost.threads,
                memory_mb: spec.cost.memory_mb,
                node: node_name.clone(),
                t_start: task.t_start,
                t_end: now,
                attempts: task.next_attempt,
                stdout: format!("task {} ok", spec.name),
                stderr: String::new(),
            };
            // Phase breakdown of the winning attempt: localization covers
            // container startup plus stage-in (up to the compute start),
            // commit covers stage-out (from compute end to now).
            let localize_secs = (att.t_exec_start - att.t_start).max(0.0);
            let commit_secs = (now - task.t_exec_end).max(0.0);
            if self.tracer.is_enabled() {
                let track = self.node_tracks[container.node.index()];
                let wait = (task.t_start - task.t_ready).max(0.0);
                self.tracer.span(
                    track,
                    &spec.name,
                    "container",
                    att.t_start,
                    now,
                    &[
                        ("task", task_id.0.to_string()),
                        ("attempt", attempt.to_string()),
                        ("wait_secs", format!("{wait:.6}")),
                        ("localize_secs", format!("{localize_secs:.6}")),
                        ("commit_secs", format!("{commit_secs:.6}")),
                    ],
                );
                self.tracer.span(
                    track,
                    "phase:localize",
                    "phase",
                    att.t_start,
                    att.t_exec_start,
                    &[],
                );
                self.tracer.span(
                    track,
                    "phase:execute",
                    "phase",
                    att.t_exec_start,
                    task.t_exec_end,
                    &[],
                );
                self.tracer
                    .span(track, "phase:commit", "phase", task.t_exec_end, now, &[]);
                self.tracer.inc("driver.tasks_finished", 1);
                self.tracer.observe("driver.wait_secs", wait);
                self.tracer.observe("driver.localize_secs", localize_secs);
                self.tracer.observe("driver.commit_secs", commit_secs);
            }
            let report = TaskReport {
                id: task_id,
                name: spec.name.clone(),
                node: node_name,
                t_ready: task.t_ready,
                t_start: task.t_start,
                t_end: now,
                attempts: task.next_attempt,
                localize_secs,
                commit_secs,
            };
            (container, event, report)
        };
        self.containers.remove(&container.id);
        self.cluster.rm.release(container.id);
        // A run that could feed (or is) a resume memoizes the commit in
        // its task document: with a durable store the commit and its memo
        // land in the WAL together, so a crash right after the output
        // commit still leaves a resumable record.
        let config = &self.ams[wf].config;
        let memo_key = (config.resume || config.provdb_path.is_some())
            .then(|| self.memo_key_for(wf, task_id))
            .flatten();
        self.ams[wf].prov.record_task(event, memo_key);
        self.ams[wf].reports.push(report);
        self.charge_master_overhead(false);
        self.after_completion(wf, task_id);
    }

    /// One attempt of a task died. The failure kind decides which retry
    /// budget it burns: infrastructure losses (node crash, preemption,
    /// storage loss) are not the task's fault and have their own, larger
    /// allowance. The attempt's container lease is released here. Surviving
    /// speculative twins keep the task going without a retry; otherwise the
    /// task re-enters the queue after an exponential backoff.
    fn handle_attempt_failure(
        &mut self,
        wf: usize,
        task_id: TaskId,
        attempt: u32,
        node: NodeId,
        kind: FailureKind,
        why: &str,
    ) {
        let now = self.cluster.engine.now().as_secs();
        let Some(att) = self.drop_attempt(wf, task_id, attempt) else {
            return; // already cancelled or finished
        };
        let wasted = (now - att.t_start).max(0.0);
        let node_name = self.cluster.node_name(node).to_string();
        let am = &mut self.ams[wf];
        am.wasted_secs += wasted;
        let outcome = match kind {
            FailureKind::Infra => {
                am.infra_failures += 1;
                "infra-failure"
            }
            FailureKind::Task => {
                am.task_failures += 1;
                "task-failure"
            }
        };
        am.strike_node(node, now);
        let task = am.tasks.get_mut(&task_id).expect("looked up above");
        match kind {
            FailureKind::Infra => task.infra_failures += 1,
            FailureKind::Task => task.task_failures += 1,
        }
        task.avoid_node = Some(node);
        let name = task.spec.name.clone();
        am.prov
            .record_attempt(task_id.0, &name, &node_name, outcome, wasted);
        if self.tracer.is_enabled() {
            self.tracer.instant(
                self.node_tracks[node.index()],
                &format!("attempt.failed:{name}"),
                "driver",
                now,
                &[
                    ("task", task_id.0.to_string()),
                    ("attempt", attempt.to_string()),
                    ("kind", outcome.to_string()),
                    ("why", why.to_string()),
                ],
            );
            self.tracer.inc(
                match kind {
                    FailureKind::Infra => "driver.infra_failures",
                    FailureKind::Task => "driver.task_failures",
                },
                1,
            );
            self.tracer.observe("driver.wasted_secs", wasted);
        }

        let task = self.ams[wf]
            .tasks
            .get_mut(&task_id)
            .expect("looked up above");
        if !task.active.is_empty() {
            // A speculative twin is still running and carries the task.
            task.speculating = false;
            return;
        }
        let config = &self.ams[wf].config;
        let (exhausted, budget_name) = {
            let task = &self.ams[wf].tasks[&task_id];
            match kind {
                FailureKind::Task => (task.task_failures > config.task_retries, "task"),
                FailureKind::Infra => (task.infra_failures > config.infra_retries, "infra"),
            }
        };
        if exhausted {
            self.fail_workflow(
                wf,
                format!(
                    "task {task_id:?} failed too many times ({budget_name} budget; last: {why})"
                ),
            );
            return;
        }
        // Exponential backoff before the fresh container ask; YARN will
        // place the retry "on different compute nodes" thanks to the
        // avoid list and the node blacklist.
        let failures = {
            let task = &self.ams[wf].tasks[&task_id];
            (task.task_failures + task.infra_failures).max(1)
        };
        let base = self.ams[wf].config.retry_backoff_secs;
        let max = self.ams[wf].config.retry_backoff_max_secs;
        let delay = (base * 2f64.powi(failures as i32 - 1)).min(max.max(base));
        if delay > 0.0 {
            self.ams[wf].with_task(task_id, |t| t.state = TaskState::Backoff);
            self.cluster.engine.set_timer_after(
                delay,
                Tag::RetryTask {
                    wf: wf as u32,
                    task: task_id,
                },
            );
        } else {
            self.requeue_task(wf, task_id);
        }
    }

    /// A task's retry backoff elapsed: put it back in the ready queue with
    /// a fresh container request.
    fn on_retry_due(&mut self, wf: usize, task_id: TaskId) {
        if !self.ams[wf].active() {
            return;
        }
        let due = self.ams[wf]
            .tasks
            .get(&task_id)
            .is_some_and(|t| t.state == TaskState::Backoff);
        if !due {
            return;
        }
        self.requeue_task(wf, task_id);
        self.arm_heartbeat();
    }

    fn requeue_task(&mut self, wf: usize, task_id: TaskId) {
        let am = &mut self.ams[wf];
        am.with_task(task_id, |t| t.state = TaskState::Requested);
        am.push_ready(task_id);
        self.request_container(wf, task_id);
    }

    fn fail_workflow(&mut self, wf: usize, message: String) {
        let am = &mut self.ams[wf];
        am.error = Some(message);
        // Cancel everything in flight and release the containers.
        let inflight: Vec<(TaskId, u32)> = self
            .containers
            .values()
            .filter(|(w, _, _)| *w == wf)
            .map(|(_, tid, aid)| (*tid, *aid))
            .collect();
        for (tid, aid) in inflight {
            self.drop_attempt(wf, tid, aid);
        }
        if let Some(c) = self.ams[wf].am_container.take() {
            self.cluster.rm.release(c.id);
        }
        self.cluster.rm.finish_app(self.ams[wf].app);
    }

    fn maybe_finish(&mut self, wf: usize) {
        let am = &self.ams[wf];
        if am.done
            || !am.source.is_complete()
            || !am.tasks.values().all(|t| t.state == TaskState::Done)
        {
            return;
        }
        let now = self.cluster.engine.now().as_secs();
        let am = &mut self.ams[wf];
        am.done = true;
        am.t_finish = now;
        // Deterministic compaction point: fold the run's WAL into a
        // snapshot segment now that the workflow is complete (no-op for
        // in-memory stores). Background compaction would be unsound in
        // virtual time; end-of-run is the natural quiesce point.
        let _ = am.prov.db().compact();
        if self.tracer.is_enabled() {
            let stats = am.prov.db().stats();
            self.tracer
                .set_gauge("provdb.wal_records", stats.wal_records as f64);
            self.tracer
                .set_gauge("provdb.wal_bytes", stats.wal_bytes as f64);
            self.tracer
                .set_gauge("provdb.wal_rotations", stats.wal_rotations as f64);
            self.tracer
                .set_gauge("provdb.compactions", stats.compactions as f64);
        }
        if let Some(c) = am.am_container.take() {
            self.cluster.rm.release(c.id);
        }
        // Free the admission slot: the oldest queued submission (if any)
        // takes it on the next heartbeat.
        self.cluster.rm.finish_app(self.ams[wf].app);
    }

    fn charge_master_overhead(&mut self, hadoop_side: bool) {
        self.charge_master_overhead_from(hadoop_side, None)
    }

    fn charge_master_overhead_from(&mut self, hadoop_side: bool, peer: Option<NodeId>) {
        if let Some(mo) = self.master_overhead {
            let (node, cpu) = if hadoop_side {
                (mo.hadoop_master, MASTER_EVENT_CPU)
            } else {
                (mo.am_master, MASTER_TASK_CPU)
            };
            if !self.cluster.rm.is_alive(node) {
                return;
            }
            self.cluster
                .engine
                .start(Activity::Compute { node, threads: 1.0 }, cpu, Tag::Stress);
            if let Some(peer) = peer {
                if peer != node {
                    self.cluster.engine.start(
                        Activity::Flow {
                            src: Endpoint::Node(peer),
                            dst: Endpoint::Node(node),
                            src_disk: false,
                            dst_disk: false,
                        },
                        MASTER_RPC_BYTES as f64,
                        Tag::Stress,
                    );
                }
            }
            self.cluster.engine.start(
                Activity::DiskWrite { node },
                MASTER_LOG_BYTES as f64,
                Tag::Stress,
            );
        }
    }
}
