//! The Workflow Scheduler and its five policies (paper §3.4).
//!
//! The scheduler's contract with the Workflow Driver has two touch points,
//! mirroring the paper's architecture: when a task's data dependencies are
//! met the scheduler shapes the *container request* (anywhere, or pinned
//! to a node for static policies), and when YARN hands back an allocated
//! container the scheduler *selects* which ready task runs in it.
//!
//! * **FCFS** — tasks queue; the head runs in whatever container arrives.
//! * **Data-aware** (Hi-WAY's default) — "whenever a new container is
//!   allocated, the data-aware scheduler skims through all tasks pending
//!   execution, from which it selects the task with the highest fraction
//!   of input data available locally … on the compute node hosting the
//!   newly allocated container."
//! * **Round-robin** — static: tasks are assigned "in turn, and thus in
//!   equal numbers, to the available compute nodes" before execution.
//! * **HEFT** — static + adaptive: upward-rank ordering with
//!   earliest-finish-time placement, fed by the Provenance Manager's
//!   latest-observation runtime estimates (default zero for unexplored
//!   task/machine pairs, which deliberately drives exploration).
//! * **Adaptive** — dynamic, so iterative workflows are fine: each
//!   candidate is scored by its relative fitness on the container's node,
//!   the latest observation there over the cross-node average (0 when
//!   unexplored), lowest first, with locality breaking ties. A node known
//!   to run the winner's signature slowly may be declined (late binding).

use std::collections::HashMap;

use hiway_hdfs::LocalityRow;
use hiway_lang::{TaskId, TaskSpec};
use hiway_obs::profile::{section, Section};
use hiway_obs::{CandidateScore, Decision, DecisionKind, Tracer};
use hiway_sim::NodeId;
use hiway_yarn::{ContainerRequest, Resource};

use crate::config::SchedulerPolicy;
use crate::provenance::ProvenanceManager;

/// The Workflow Scheduler: the configured policy and, for the static
/// policies, the task→node plan it enforces through pinned requests.
pub struct Scheduler {
    policy: SchedulerPolicy,
    assignment: HashMap<TaskId, NodeId>,
}

/// The outcome of one container-arrival selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Selection {
    /// The task to run in the container; `None` when no candidate fits.
    pub winner: Option<TaskId>,
    /// Late binding (adaptive only): this node is known to run the
    /// winner's signature more than 1.5× slower than its cross-node
    /// average, so the container may be declined in favour of a better
    /// one. The driver bounds consecutive declines per task, so a
    /// pathological estimate cannot starve it.
    pub decline: bool,
}

/// A ready task offered to [`Scheduler::select`].
pub struct Candidate<'a> {
    pub spec: &'a TaskSpec,
    /// The task's input locality, under the policies that read it
    /// ([`SchedulerPolicy::reads_locality`]) on an alive DataNode.
    pub locality: Option<&'a LocalityRow>,
}

/// One candidate's standing, computed once per selection: the winner is
/// picked from these and the audit row is written from them.
struct Score {
    /// The policy's score, as audited.
    value: f64,
    /// Adaptive tie-break: the negated locality fraction (lower wins).
    tie: f64,
    /// Adaptive late binding: this node runs the signature slowly.
    slow: bool,
}

/// Instantiates the scheduler for a policy.
pub fn make_scheduler(policy: SchedulerPolicy) -> Scheduler {
    Scheduler {
        policy,
        assignment: HashMap::new(),
    }
}

impl Scheduler {
    pub fn policy(&self) -> SchedulerPolicy {
        self.policy
    }

    /// For static policies: builds the complete task→node schedule before
    /// execution. Called once, after the (static) workflow is parsed.
    /// Dynamic policies plan nothing.
    pub fn plan(
        &mut self,
        tasks: &[TaskSpec],
        nodes: &[NodeId],
        node_names: &[String],
        prov: &ProvenanceManager,
        tracer: &Tracer,
        now: f64,
    ) {
        if !self.policy.is_static() {
            return;
        }
        assert!(!nodes.is_empty(), "cannot plan on an empty cluster");
        if self.policy == SchedulerPolicy::Heft {
            self.plan_heft(tasks, nodes, node_names, prov, tracer, now);
        } else {
            self.plan_round_robin(tasks, nodes, node_names, tracer, now);
        }
    }

    /// Shapes the container request for a task whose dependencies are met:
    /// pinned to its planned node, or anywhere for a task outside the plan
    /// (every task under a dynamic policy).
    pub fn container_request(&self, task: &TaskSpec, resource: Resource) -> ContainerRequest {
        match self.assignment.get(&task.id) {
            Some(&node) => ContainerRequest::pinned(resource, node),
            None => ContainerRequest::anywhere(resource),
        }
    }

    /// Picks which of the `candidates` (ready, unlaunched tasks, in
    /// readiness order) runs in a container on `node`, whose DataNode is
    /// `alive` or not. Every candidate is scored once in the policy's
    /// terms; the winner and the decline are read from those scores, and
    /// so is the one `Select` audit row. Untraced, the driver does not
    /// call this under FCFS: the head wins, and the scores would only
    /// feed the row.
    #[allow(clippy::too_many_arguments)]
    pub fn select(
        &self,
        node: NodeId,
        node_name: &str,
        alive: bool,
        candidates: &[Candidate<'_>],
        prov: &ProvenanceManager,
        tracer: &Tracer,
        now: f64,
    ) -> Selection {
        let _p = section(Section::SchedSelect);
        let scores: Vec<Score> = candidates
            .iter()
            .enumerate()
            .map(|(i, c)| self.score(i, c, node, node_name, alive, prov))
            .collect();
        let by_value = |a: &(usize, &Score), b: &(usize, &Score)| {
            a.1.value
                .partial_cmp(&b.1.value)
                .expect("scores are finite")
        };
        let ranked = scores.iter().enumerate().rev();
        let best = match self.policy {
            // The head of the ready queue, as the driver picks it
            // untraced (`ReadyList::head`).
            SchedulerPolicy::Fcfs => scores.iter().enumerate().next(),
            // Highest locality wins. `max_by` keeps the last maximum of
            // the reversed walk, so ties go to the earliest-ready task.
            SchedulerPolicy::DataAware => ranked.max_by(by_value),
            // The task planned for this node (1), else an unplanned one
            // (0.5), earliest first; never a task planned elsewhere (0).
            SchedulerPolicy::RoundRobin | SchedulerPolicy::Heft => {
                ranked.filter(|(_, s)| s.value > 0.0).max_by(by_value)
            }
            // Lowest relative fitness wins, higher locality breaking
            // fitness ties. `min_by` keeps the first minimum of the
            // reversed walk, so remaining ties go to the latest-ready task.
            SchedulerPolicy::Adaptive => ranked.min_by(|a, b| {
                by_value(a, b).then(a.1.tie.partial_cmp(&b.1.tie).expect("fractions are finite"))
            }),
        };
        let winner = best.map(|(i, _)| candidates[i].spec.id);
        if tracer.is_enabled() {
            let reason = match self.policy {
                SchedulerPolicy::Fcfs => "head of the ready queue (lowest queue position wins)",
                SchedulerPolicy::DataAware if alive => {
                    "highest fraction of input data local to the container's node \
                     (ties fall back to FCFS order)"
                }
                SchedulerPolicy::DataAware => {
                    "node's DataNode is down: all fractions zero, FCFS fallback"
                }
                SchedulerPolicy::RoundRobin | SchedulerPolicy::Heft => {
                    "static plan confirmation: the task pre-assigned to this node \
                     (unplanned tasks fill spare containers)"
                }
                SchedulerPolicy::Adaptive => {
                    "lowest relative fitness wins (ties: higher locality, then latest-ready)"
                }
            };
            tracer.audit(Decision {
                t: now,
                policy: self.policy.name(),
                kind: DecisionKind::Select,
                node: node.0,
                node_name: node_name.to_string(),
                candidates: candidates
                    .iter()
                    .zip(&scores)
                    .map(|(c, s)| CandidateScore {
                        task: c.spec.id.0,
                        label: c.spec.name.clone(),
                        score: s.value,
                        detail: self.detail(c.spec, s, node, node_name),
                    })
                    .collect(),
                winner: winner.map(|id| id.0),
                reason: reason.into(),
            });
        }
        Selection {
            winner,
            decline: best.is_some_and(|(_, s)| s.slow),
        }
    }

    /// Scores the candidate at queue `position` for a container on `node`.
    /// Locality on a dead DataNode is uniformly zero, so no row is read.
    fn score(
        &self,
        position: usize,
        candidate: &Candidate<'_>,
        node: NodeId,
        node_name: &str,
        alive: bool,
        prov: &ProvenanceManager,
    ) -> Score {
        let task = candidate.spec;
        let locality = || {
            if alive {
                let row = candidate.locality.expect("locality policies get rows");
                row.fraction(node)
            } else {
                0.0
            }
        };
        let plain = |value| Score {
            value,
            tie: 0.0,
            slow: false,
        };
        match self.policy {
            SchedulerPolicy::Fcfs => plain(position as f64),
            SchedulerPolicy::DataAware => plain(locality()),
            SchedulerPolicy::RoundRobin | SchedulerPolicy::Heft => {
                plain(match self.assignment.get(&task.id) {
                    Some(&a) if a == node => 1.0,
                    Some(_) => 0.0,
                    None => 0.5,
                })
            }
            SchedulerPolicy::Adaptive => {
                // Relative fitness of running the task here: this node's
                // latest observation over the cross-node average. Lower
                // is better; 0 (unexplored) tries it.
                let here = prov.latest_runtime(&task.name, node_name).unwrap_or(0.0);
                let (value, slow) = if here == 0.0 {
                    (0.0, false)
                } else {
                    let avg = prov.average_runtime(&task.name);
                    let fitness = match avg.unwrap_or(here) {
                        a if a <= 0.0 => 0.0,
                        a => here / a,
                    };
                    (fitness, avg.is_some_and(|a| a > 0.0 && here > a * 1.5))
                };
                // A dead node's tie is +0.0, not -0.0: its audit detail
                // reads `locality -0.000`.
                let tie = if alive { -locality() } else { 0.0 };
                Score { value, tie, slow }
            }
        }
    }

    /// The audit log's breakdown of one candidate's score.
    fn detail(&self, task: &TaskSpec, score: &Score, node: NodeId, node_name: &str) -> String {
        match self.policy {
            SchedulerPolicy::Fcfs => format!("queue position {}", score.value),
            SchedulerPolicy::DataAware => {
                format!("locality fraction {:.3} on {node_name}", score.value)
            }
            SchedulerPolicy::RoundRobin | SchedulerPolicy::Heft => {
                match self.assignment.get(&task.id) {
                    Some(&a) if a == node => format!("planned for {node_name}"),
                    Some(a) => format!("planned for node {}", a.0),
                    None => "outside the static plan".into(),
                }
            }
            SchedulerPolicy::Adaptive => format!(
                "relative fitness {:.3} (latest here / cross-node avg; \
                 0 = unexplored), locality {:.3}",
                score.value, -score.tie
            ),
        }
    }

    fn plan_round_robin(
        &mut self,
        tasks: &[TaskSpec],
        nodes: &[NodeId],
        node_names: &[String],
        tracer: &Tracer,
        now: f64,
    ) {
        let n = nodes.len();
        let mut planned = vec![0usize; n];
        for (i, t) in tasks.iter().enumerate() {
            let slot = i % n;
            let node = nodes[slot];
            self.assignment.insert(t.id, node);
            if tracer.is_enabled() {
                tracer.audit(Decision {
                    t: now,
                    policy: SchedulerPolicy::RoundRobin.name(),
                    kind: DecisionKind::Plan,
                    node: node.0,
                    node_name: node_names[node.index()].clone(),
                    candidates: nodes
                        .iter()
                        .enumerate()
                        .map(|(ni, cand)| CandidateScore {
                            task: t.id.0,
                            label: node_names[cand.index()].clone(),
                            score: planned[ni] as f64,
                            detail: format!("{} tasks already planned here", planned[ni]),
                        })
                        .collect(),
                    winner: Some(t.id.0),
                    reason: format!("round-robin: task #{i} takes slot {slot} of {n}"),
                });
            }
            planned[slot] += 1;
        }
    }

    /// HEFT (Topcuoglu et al. 2002), with task runtimes estimated from
    /// provenance exactly as §3.4 prescribes: the latest observation per
    /// task/node pair, and "a default runtime of zero … to encourage
    /// trying out new assignments". Observed makespans already include the
    /// stage-in/out time the measured node paid, so communication costs
    /// are folded into the per-node estimates rather than modelled as
    /// separate edge weights.
    fn plan_heft(
        &mut self,
        tasks: &[TaskSpec],
        nodes: &[NodeId],
        node_names: &[String],
        prov: &ProvenanceManager,
        tracer: &Tracer,
        now: f64,
    ) {
        let n = nodes.len();

        // w[t][n]: estimated runtime of task t on node n (latest
        // observation; zero when unexplored, which drives exploration).
        let w: Vec<Vec<f64>> = tasks
            .iter()
            .map(|t| {
                nodes
                    .iter()
                    .map(|node| {
                        prov.latest_runtime(&t.name, &node_names[node.index()])
                            .unwrap_or(0.0)
                    })
                    .collect()
            })
            .collect();
        let w_avg: Vec<f64> = w
            .iter()
            .map(|row| row.iter().sum::<f64>() / n as f64)
            .collect();

        // File-mediated successor lists.
        let mut producer_of: HashMap<&str, usize> = HashMap::new();
        for (i, t) in tasks.iter().enumerate() {
            for o in &t.outputs {
                producer_of.insert(o.path.as_str(), i);
            }
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); tasks.len()];
        let mut parents: Vec<Vec<usize>> = vec![Vec::new(); tasks.len()];
        for (i, t) in tasks.iter().enumerate() {
            for input in &t.inputs {
                if let Some(&p) = producer_of.get(input.as_str()) {
                    children[p].push(i);
                    parents[i].push(p);
                }
            }
        }

        // Upward ranks via reverse topological order (memoized DFS).
        let mut rank = vec![f64::NAN; tasks.len()];
        fn upward(i: usize, rank: &mut Vec<f64>, children: &[Vec<usize>], w_avg: &[f64]) -> f64 {
            if !rank[i].is_nan() {
                return rank[i];
            }
            let best_child = children[i]
                .iter()
                .map(|&c| upward(c, rank, children, w_avg))
                .fold(0.0, f64::max);
            rank[i] = w_avg[i] + best_child;
            rank[i]
        }
        for i in 0..tasks.len() {
            upward(i, &mut rank, &children, &w_avg);
        }

        // Decreasing rank; ties broken by task id for determinism.
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        order.sort_by(|&a, &b| {
            rank[b]
                .partial_cmp(&rank[a])
                .expect("ranks are finite")
                .then(tasks[a].id.cmp(&tasks[b].id))
        });

        // Earliest-finish-time placement. With all-zero estimates every
        // node looks identical; breaking ties by the node with the fewest
        // assigned tasks keeps the exploration spread the paper's
        // default-zero strategy is designed to produce.
        let mut node_ready = vec![0.0f64; n];
        let mut node_load = vec![0usize; n];
        let mut finish = vec![0.0f64; tasks.len()];
        for &ti in &order {
            let data_ready = parents[ti].iter().map(|&p| finish[p]).fold(0.0, f64::max);
            let mut best: Option<(usize, f64)> = None;
            let mut audit = tracer.is_enabled().then(Vec::new);
            for ni in 0..n {
                let eft = node_ready[ni].max(data_ready) + w[ti][ni];
                if let Some(cands) = audit.as_mut() {
                    cands.push(CandidateScore {
                        task: tasks[ti].id.0,
                        label: node_names[nodes[ni].index()].clone(),
                        score: eft,
                        detail: format!(
                            "EFT {:.3}s = max(node ready {:.3}, data ready {:.3}) + est {:.3}",
                            eft, node_ready[ni], data_ready, w[ti][ni]
                        ),
                    });
                }
                let better = match best {
                    None => true,
                    Some((bni, beft)) => {
                        eft < beft - 1e-12
                            || ((eft - beft).abs() <= 1e-12 && node_load[ni] < node_load[bni])
                    }
                };
                if better {
                    best = Some((ni, eft));
                }
            }
            let (ni, eft) = best.expect("at least one node");
            self.assignment.insert(tasks[ti].id, nodes[ni]);
            if let Some(cands) = audit {
                tracer.audit(Decision {
                    t: now,
                    policy: SchedulerPolicy::Heft.name(),
                    kind: DecisionKind::Plan,
                    node: nodes[ni].0,
                    node_name: node_names[nodes[ni].index()].clone(),
                    candidates: cands,
                    winner: Some(tasks[ti].id.0),
                    reason: format!(
                        "earliest finish time (upward rank {:.3}; load breaks EFT ties)",
                        rank[ti]
                    ),
                });
            }
            node_ready[ni] = eft;
            node_load[ni] += 1;
            finish[ti] = eft;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiway_hdfs::Hdfs;
    use hiway_lang::{OutputSpec, TaskCost};
    use hiway_provdb::ProvDb;

    fn task(id: u64, name: &str, inputs: &[&str], outputs: &[&str]) -> TaskSpec {
        TaskSpec {
            id: TaskId(id),
            name: name.into(),
            command: name.into(),
            inputs: inputs.iter().map(|s| s.to_string()).collect(),
            outputs: outputs
                .iter()
                .map(|s| OutputSpec {
                    path: s.to_string(),
                    size: 10,
                })
                .collect(),
            cost: TaskCost::default(),
        }
    }

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("w{i}")).collect()
    }

    fn record(prov: &mut ProvenanceManager, name: &str, node: &str, makespan: f64) {
        let event = hiway_lang::trace::TaskEvent {
            id: 0,
            name: name.into(),
            command: name.into(),
            inputs: vec![],
            outputs: vec![],
            cpu_seconds: makespan,
            threads: 1,
            memory_mb: 1,
            node: node.into(),
            t_start: 0.0,
            t_end: makespan,
            attempts: 1,
            stdout: String::new(),
            stderr: String::new(),
        };
        prov.record_task(event, None);
    }

    /// A two-task round-robin-shaped plan over w0 and w1: task 0 on w0,
    /// task 1 on w1. Both static policies produce it without provenance.
    fn planned(policy: SchedulerPolicy, tasks: &[TaskSpec]) -> Scheduler {
        let mut s = make_scheduler(policy);
        let prov = ProvenanceManager::new(ProvDb::new());
        let nodes = [NodeId(0), NodeId(1)];
        s.plan(tasks, &nodes, &names(2), &prov, &Tracer::disabled(), 0.0);
        s
    }

    #[test]
    fn select_picks_the_best_audited_score() {
        use SchedulerPolicy::*;
        // Replication 1 keeps each file on exactly its writer's node, so
        // the locality fractions are unambiguous.
        let config = hiway_hdfs::HdfsConfig {
            replication: 1,
            ..Default::default()
        };
        let mut hdfs = Hdfs::new(4, config, 3);
        hdfs.create("/big0", 100 << 20, NodeId(0)).unwrap();
        hdfs.create("/big2", 100 << 20, NodeId(2)).unwrap();
        // A path holding the separator a joined-string key would use must
        // not share an answer with the split set.
        hdfs.create("/a\u{1f}/b", 10 << 20, NodeId(0)).unwrap();
        hdfs.create("/a", 10 << 20, NodeId(1)).unwrap();
        hdfs.create("/b", 10 << 20, NodeId(1)).unwrap();
        let mut prov = ProvenanceManager::new(ProvDb::new());
        // "slow" runs 1.5x its average on w0; "fast" beats its average
        // there.
        record(&mut prov, "slow", "w0", 300.0);
        record(&mut prov, "slow", "w1", 100.0);
        record(&mut prov, "fast", "w0", 50.0);
        record(&mut prov, "fast", "w1", 150.0);
        let at0 = task(0, "t", &["/big0"], &["/o0"]);
        let at2 = task(1, "t", &["/big2"], &["/o2"]);
        let (slow, fast) = (task(0, "slow", &[], &[]), task(1, "fast", &[], &[]));
        let plan = [task(0, "t", &[], &[]), task(1, "t", &[], &[])];
        let [on0, on1] = &plan;
        let off = task(2, "t", &[], &[]);
        let joined = task(3, "t", &["/a\u{1f}/b"], &[]);
        let split = task(4, "t", &["/a", "/b"], &[]);

        // (policy, container node, candidates, winner, audited scores)
        let cases = [
            // Queue positions: the head wins.
            (Fcfs, 1, vec![&at0, &at2], Some(0), vec![0.0, 1.0]),
            (Fcfs, 1, vec![], None, vec![]),
            // The task whose input lives on the container's node wins,
            // even from behind in the queue; no locality anywhere is a
            // tie that falls back to queue order.
            (DataAware, 2, vec![&at0, &at2], Some(1), vec![0.0, 1.0]),
            (DataAware, 0, vec![&at0, &at2], Some(0), vec![1.0, 0.0]),
            (DataAware, 1, vec![&at0, &at2], Some(0), vec![0.0, 0.0]),
            (DataAware, 0, vec![&joined, &split], Some(3), vec![1.0, 0.0]),
            (DataAware, 1, vec![&joined, &split], Some(4), vec![0.0, 1.0]),
            // Static: the task planned here (1), else an unplanned one
            // (0.5), never one planned elsewhere (0).
            (RoundRobin, 1, vec![on0, on1], Some(1), vec![0.0, 1.0]),
            (RoundRobin, 1, vec![on0, &off], Some(2), vec![0.0, 0.5]),
            (Heft, 1, vec![on0], None, vec![0.0]),
            // Lowest relative fitness (latest here / average) wins.
            (Adaptive, 0, vec![&slow, &fast], Some(1), vec![1.5, 0.5]),
            // Unexplored and no locality: full ties go to the
            // latest-ready task.
            (Adaptive, 3, vec![&at0, &at2], Some(1), vec![0.0, 0.0]),
        ];
        for (policy, node, candidates, winner, scores) in cases {
            let case = format!("{policy:?} on w{node}");
            let s = planned(policy, &plan);
            let node_name = format!("w{node}");
            let rows: Vec<LocalityRow> = candidates
                .iter()
                .map(|t| hdfs.locality_row(&t.inputs))
                .collect();
            let candidates: Vec<Candidate> = candidates
                .iter()
                .zip(&rows)
                .map(|(spec, row)| Candidate {
                    spec,
                    locality: Some(row),
                })
                .collect();
            let select = |tracer: &Tracer| {
                s.select(
                    NodeId(node),
                    &node_name,
                    true,
                    &candidates,
                    &prov,
                    tracer,
                    7.5,
                )
            };
            let tracer = Tracer::enabled();
            let picked = select(&tracer);
            assert_eq!(picked.winner, winner.map(TaskId), "{case}");
            assert!(!picked.decline, "{case}");
            // The audit is a side effect only: untraced, the pick is the
            // same and nothing is logged.
            let untraced = Tracer::disabled();
            assert_eq!(select(&untraced), picked, "{case}");
            untraced.with_decisions(|ds| assert!(ds.is_empty(), "{case}"));
            tracer.with_decisions(|ds| {
                assert_eq!(ds.len(), 1, "{case}: one row per container");
                let d = &ds[0];
                assert_eq!(d.policy, policy.name());
                assert_eq!(d.kind, DecisionKind::Select);
                assert_eq!(
                    (d.t, d.node, d.node_name.as_str()),
                    (7.5, node, node_name.as_str())
                );
                assert_eq!(d.winner, winner, "{case}");
                let logged: Vec<f64> = d.candidates.iter().map(|c| c.score).collect();
                assert_eq!(logged, scores, "{case}");
            });
        }
    }

    #[test]
    fn adaptive_declines_a_node_known_to_be_slow() {
        let mut prov = ProvenanceManager::new(ProvDb::new());
        // Average 300 s: w0 runs the signature at 5/3 of it, w2 exactly
        // at it, and w3 has never run it.
        record(&mut prov, "t", "w0", 500.0);
        record(&mut prov, "t", "w1", 100.0);
        record(&mut prov, "t", "w2", 300.0);
        let row = Hdfs::new(4, Default::default(), 0).locality_row(&[]);
        let t = task(0, "t", &[], &[]);
        let candidate = Candidate {
            spec: &t,
            locality: Some(&row),
        };
        let select = |policy, node: u32| {
            make_scheduler(policy).select(
                NodeId(node),
                &format!("w{node}"),
                true,
                std::slice::from_ref(&candidate),
                &prov,
                &Tracer::disabled(),
                0.0,
            )
        };
        for (node, decline) in [(0, true), (1, false), (2, false), (3, false)] {
            let picked = select(SchedulerPolicy::Adaptive, node);
            assert_eq!(picked.winner, Some(TaskId(0)), "w{node}");
            assert_eq!(picked.decline, decline, "w{node}");
        }
        // Late binding is the adaptive policy's alone.
        assert!(!select(SchedulerPolicy::Fcfs, 0).decline);
        assert!(!select(SchedulerPolicy::DataAware, 0).decline);
    }

    #[test]
    fn plan_audit_matches_assignment() {
        let mut prov = ProvenanceManager::new(ProvDb::new());
        record(&mut prov, "t", "w0", 10.0);
        record(&mut prov, "t", "w1", 100.0);
        let tasks: Vec<TaskSpec> = (0..4).map(|i| task(i, "t", &[], &[])).collect();
        let nodes = vec![NodeId(0), NodeId(1)];
        for policy in [SchedulerPolicy::RoundRobin, SchedulerPolicy::Heft] {
            let tracer = Tracer::enabled();
            let mut s = make_scheduler(policy);
            s.plan(&tasks, &nodes, &names(2), &prov, &tracer, 0.0);
            tracer.with_decisions(|ds| {
                assert_eq!(ds.len(), tasks.len(), "{policy:?}: one plan row per task");
                for d in ds {
                    assert_eq!(d.policy, policy.name());
                    assert_eq!(d.kind, DecisionKind::Plan);
                    // The audited node is the node actually assigned...
                    let winner = TaskId(d.winner.unwrap());
                    assert_eq!(d.node, s.assignment[&winner].0, "{policy:?}");
                    // ...every node is scored, and the chosen one holds
                    // the lowest score (tasks planned there, or EFT).
                    assert_eq!(d.candidates.len(), nodes.len());
                    let chosen = d
                        .candidates
                        .iter()
                        .find(|c| c.label == d.node_name)
                        .expect("winner node is scored");
                    for c in &d.candidates {
                        assert!(chosen.score <= c.score + 1e-12, "{policy:?}");
                    }
                }
            });
        }
    }

    #[test]
    fn round_robin_spreads_equally() {
        let mut s = make_scheduler(SchedulerPolicy::RoundRobin);
        let tasks: Vec<TaskSpec> = (0..6).map(|i| task(i, "t", &[], &[])).collect();
        let nodes = vec![NodeId(0), NodeId(1), NodeId(2)];
        let prov = ProvenanceManager::new(ProvDb::new());
        s.plan(&tasks, &nodes, &names(3), &prov, &Tracer::disabled(), 0.0);
        let mut counts = [0usize; 3];
        for t in &tasks {
            counts[s.assignment[&t.id].index()] += 1;
        }
        assert_eq!(counts, [2, 2, 2]);
        // Requests are pinned to the plan; a dynamic policy has none.
        let req = s.container_request(&tasks[4], Resource::new(1, 100));
        assert_eq!(req.preference, Some(NodeId(1)));
        assert!(!req.relax_locality);
        let dynamic = make_scheduler(SchedulerPolicy::DataAware);
        let req = dynamic.container_request(&tasks[4], Resource::new(1, 100));
        assert!(req.preference.is_none());
    }

    #[test]
    fn heft_without_provenance_spreads_by_load() {
        let mut s = make_scheduler(SchedulerPolicy::Heft);
        let tasks: Vec<TaskSpec> = (0..4).map(|i| task(i, "t", &[], &[])).collect();
        let nodes = vec![NodeId(0), NodeId(1)];
        let prov = ProvenanceManager::new(ProvDb::new());
        s.plan(&tasks, &nodes, &names(2), &prov, &Tracer::disabled(), 0.0);
        let mut counts = [0usize; 2];
        for t in &tasks {
            counts[s.assignment[&t.id].index()] += 1;
        }
        // All-zero estimates: load tie-breaking spreads tasks evenly.
        assert_eq!(counts, [2, 2]);
    }

    #[test]
    fn heft_avoids_known_slow_node() {
        let mut prov = ProvenanceManager::new(ProvDb::new());
        // Node w1 is 10x slower for this signature.
        record(&mut prov, "t", "w0", 10.0);
        record(&mut prov, "t", "w1", 100.0);
        let mut s = make_scheduler(SchedulerPolicy::Heft);
        let tasks: Vec<TaskSpec> = (0..4).map(|i| task(i, "t", &[], &[])).collect();
        let nodes = vec![NodeId(0), NodeId(1)];
        s.plan(&tasks, &nodes, &names(2), &prov, &Tracer::disabled(), 0.0);
        // EFTs: placing everything on w0 serially (10,20,30,40) beats
        // w1's 100 each time.
        for t in &tasks {
            assert_eq!(s.assignment[&t.id], NodeId(0));
        }
    }

    #[test]
    fn heft_ranks_respect_the_critical_path() {
        let mut prov = ProvenanceManager::new(ProvDb::new());
        record(&mut prov, "long", "w0", 100.0);
        record(&mut prov, "long", "w1", 100.0);
        record(&mut prov, "short", "w0", 1.0);
        record(&mut prov, "short", "w1", 1.0);
        record(&mut prov, "sink", "w0", 1.0);
        record(&mut prov, "sink", "w1", 1.0);
        // long -> sink, short independent. The critical chain should be
        // placed first and not displaced by the short task.
        let tasks = vec![
            task(0, "short", &[], &[]),
            task(1, "long", &[], &["/mid"]),
            task(2, "sink", &["/mid"], &[]),
        ];
        let nodes = vec![NodeId(0), NodeId(1)];
        let mut s = make_scheduler(SchedulerPolicy::Heft);
        s.plan(&tasks, &nodes, &names(2), &prov, &Tracer::disabled(), 0.0);
        // `long` has the highest upward rank (101) and is placed first on
        // an empty node; `short` lands on the other node.
        assert_ne!(s.assignment[&TaskId(1)], s.assignment[&TaskId(0)]);
    }
}
