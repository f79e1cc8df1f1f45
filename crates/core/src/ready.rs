//! Input readiness as a countdown, and the ready list it feeds.
//!
//! A task becomes runnable once every one of its input files exists. Each
//! waiting task counts the inputs it still misses, and each path that
//! becomes available decrements the tasks waiting on it; a task whose
//! count reaches 0 is ready. Availability only grows (committed and
//! external files are never withdrawn, and no task returns to waiting),
//! so a count never rises again and no rescan is needed.
//!
//! A ready task then waits in its workflow's [`ReadyList`], in readiness
//! order, until a container is routed to it.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::rc::Rc;

use hiway_hdfs::{Hdfs, LocalityRow};
use hiway_lang::{TaskId, TaskSpec};
use hiway_sim::NodeId;

use crate::scheduler::Candidate;

/// The waiting tasks of one workflow and the inputs each still misses.
#[derive(Debug, Default)]
pub struct ReadyTracker {
    /// Unavailable inputs per not-yet-ready task, one per list entry.
    missing: HashMap<TaskId, usize>,
    /// The tasks waiting on each unavailable path, once per list entry.
    waiters: HashMap<String, Vec<TaskId>>,
    ready: BTreeSet<TaskId>,
}

impl ReadyTracker {
    /// Starts tracking `task`. Every list entry that is not `available`
    /// counts as missing, so a duplicated input counts twice.
    pub fn add(&mut self, task: TaskId, inputs: &[String], available: impl Fn(&str) -> bool) {
        let mut missing = 0;
        for path in inputs.iter().filter(|p| !available(p)) {
            missing += 1;
            self.waiters.entry(path.clone()).or_default().push(task);
        }
        if missing == 0 {
            self.ready.insert(task);
        } else {
            self.missing.insert(task, missing);
        }
    }

    /// Records that `path` now exists. Repeated and unknown paths are
    /// no-ops.
    pub fn file_available(&mut self, path: &str) {
        for task in self.waiters.remove(path).into_iter().flatten() {
            let left = self.missing.get_mut(&task).expect("a waiter is counted");
            *left -= 1;
            if *left == 0 {
                self.missing.remove(&task);
                self.ready.insert(task);
            }
        }
    }

    /// Takes the lowest ready task, if any.
    pub fn pop(&mut self) -> Option<TaskId> {
        self.ready.pop_first()
    }

    /// Every task added and not yet popped, with its missing-input count.
    pub fn held(&self) -> impl Iterator<Item = (TaskId, usize)> + '_ {
        let waiting = self.missing.iter().map(|(t, n)| (*t, *n));
        waiting.chain(self.ready.iter().map(|t| (*t, 0)))
    }
}

/// A ready task's entry in a [`ReadyList`]: what routing a container
/// reads, copied when the task becomes ready so the candidate build does
/// no map lookup.
pub(crate) struct Ready {
    pub id: TaskId,
    /// The node the task's last attempt failed on, which changes only on
    /// an attempt failure and so never while the task is listed.
    pub avoid: Option<NodeId>,
    pub spec: Rc<TaskSpec>,
    /// The spec's input locality, built on the first container routed
    /// past the task under a policy that reads it and rebuilt once stale.
    pub locality: Option<LocalityRow>,
}

/// One workflow's ready-but-unlaunched tasks, in readiness order.
#[derive(Default)]
pub(crate) struct ReadyList {
    entries: VecDeque<Ready>,
}

impl ReadyList {
    /// Lists a newly ready task at the back.
    pub fn push(&mut self, entry: Ready) {
        self.entries.push_back(entry);
    }

    /// Takes task `id` off the list, keeping the others' order. The scan
    /// stops at the entry, and taking the head moves nothing.
    pub fn remove(&mut self, id: TaskId) {
        if let Some(at) = self.entries.iter().position(|r| r.id == id) {
            self.entries.remove(at);
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Ready> {
        self.entries.iter()
    }

    /// The first ready task, whatever node it avoids.
    pub fn first(&self) -> Option<TaskId> {
        self.entries.front().map(|r| r.id)
    }

    /// Whether `entry` is offered a container on `node`: a retried task
    /// avoids the node its last attempt failed on, unless that node is
    /// the only one alive.
    fn offers(entry: &Ready, node: NodeId, multi_node: bool) -> bool {
        !(multi_node && entry.avoid == Some(node))
    }

    /// The first task offered a container on `node`: FCFS's pick, which
    /// is also the winner of its audited selection over
    /// [`Self::candidates`].
    pub fn head(&self, node: NodeId, multi_node: bool) -> Option<TaskId> {
        let offered = |r: &&Ready| Self::offers(r, node, multi_node);
        self.entries.iter().find(offered).map(|r| r.id)
    }

    /// The tasks offered a container on `node`, in readiness order, as
    /// scheduler candidates. Given `rows`, each carries its locality row,
    /// rebuilt first if stale.
    pub fn candidates<'a>(
        &'a mut self,
        node: NodeId,
        multi_node: bool,
        rows: Option<&Hdfs>,
    ) -> Vec<Candidate<'a>> {
        self.entries
            .iter_mut()
            .filter(|r| Self::offers(r, node, multi_node))
            .map(|Ready { spec, locality, .. }| Candidate {
                spec,
                locality: rows.map(|hdfs| hdfs.refresh_row(&spec.inputs, locality)),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashSet};

    /// The rule the tracker replaces: among the tasks not yet popped,
    /// those whose inputs are all available, in ascending order.
    fn scan_ready(
        tasks: &BTreeMap<TaskId, Vec<String>>,
        available: &HashSet<String>,
    ) -> Vec<TaskId> {
        tasks
            .iter()
            .filter(|(_, inputs)| inputs.iter().all(|p| available.contains(p)))
            .map(|(id, _)| *id)
            .collect()
    }

    /// The tracker and the scan side by side. `tasks` holds the inputs of
    /// every task added and not yet popped.
    #[derive(Default)]
    struct Pair {
        tracker: ReadyTracker,
        tasks: BTreeMap<TaskId, Vec<String>>,
        available: HashSet<String>,
        used: HashSet<TaskId>,
    }

    impl Pair {
        fn add(&mut self, seed: u8, inputs: &[u8]) {
            let mut id = TaskId(u64::from(seed));
            while !self.used.insert(id) {
                id = TaskId(id.0 + 256);
            }
            let inputs: Vec<String> = inputs.iter().map(|&i| path(i)).collect();
            let available = &self.available;
            self.tracker.add(id, &inputs, |p| available.contains(p));
            self.tasks.insert(id, inputs);
        }

        fn file_available(&mut self, i: u8) {
            self.available.insert(path(i));
            self.tracker.file_available(&path(i));
        }

        /// Pops one task from each side; both must agree.
        fn pop(&mut self) -> Result<Option<TaskId>, TestCaseError> {
            let expected = scan_ready(&self.tasks, &self.available).first().copied();
            let got = self.tracker.pop();
            prop_assert_eq!(got, expected);
            if let Some(id) = got {
                self.tasks.remove(&id);
            }
            Ok(got)
        }

        /// The tracker holds exactly the unpopped tasks, each with its
        /// count of unavailable input entries.
        fn check(&self) -> Result<(), TestCaseError> {
            let held: BTreeMap<TaskId, usize> = self.tracker.held().collect();
            let expected: BTreeMap<TaskId, usize> = self
                .tasks
                .iter()
                .map(|(id, inputs)| {
                    let n = inputs.iter().filter(|p| !self.available.contains(*p));
                    (*id, n.count())
                })
                .collect();
            prop_assert_eq!(held, expected);
            Ok(())
        }
    }

    /// Inputs name paths 0–13. Arrivals name 0–11 and 14–15, so 12 and
    /// 13 are inputs nothing produces and 14 and 15 nobody waits on.
    fn path(i: u8) -> String {
        format!("/f{i}")
    }

    fn input(b: u8) -> u8 {
        b % 14
    }

    fn arrival(b: u8) -> u8 {
        let i = b % 14;
        if i < 12 {
            i
        } else {
            i + 2
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random adds (duplicate, available and never-produced inputs),
        /// arrivals (repeated and unknown paths) and pop runs with a
        /// nested drain give the same pops as rescanning every time.
        #[test]
        fn countdown_matches_rescanning(
            ops in proptest::collection::vec(
                (0u8..4, any::<u8>(), proptest::collection::vec(any::<u8>(), 0..5)),
                1..80,
            ),
        ) {
            let mut pair = Pair::default();
            for (kind, arg, list) in ops {
                match kind {
                    // A batch of tasks, as a front-end reveals them; task k
                    // reads the list shifted by k.
                    0 => {
                        for k in 0..arg % 4 {
                            let inputs: Vec<u8> =
                                list.iter().map(|&b| input(b.wrapping_add(3 * k))).collect();
                            pair.add(arg.wrapping_add(k), &inputs);
                        }
                    }
                    1 => pair.file_available(arrival(arg)),
                    2 => {
                        for _ in 0..arg % 5 {
                            pair.pop()?;
                        }
                    }
                    // The memo cascade: a popped task completes at once,
                    // its outputs arrive, it reveals a task, and the nested
                    // pass drains before the outer one goes on.
                    _ => {
                        if pair.pop()?.is_some() {
                            for &b in &list {
                                pair.file_available(arrival(b));
                            }
                            let inputs: Vec<u8> = list.iter().map(|&b| input(b ^ arg)).collect();
                            pair.add(arg, &inputs);
                            pair.check()?;
                            while pair.pop()?.is_some() {}
                        }
                        pair.pop()?;
                    }
                }
                pair.check()?;
            }
            while pair.pop()?.is_some() {}
            pair.check()?;
        }
    }

    // ----- the ready list and FCFS's untraced pick ----------------------

    fn entry(id: u64, avoid: Option<NodeId>) -> Ready {
        Ready {
            id: TaskId(id),
            avoid,
            spec: Rc::new(TaskSpec {
                id: TaskId(id),
                name: format!("t{id}"),
                command: "tool".into(),
                inputs: Vec::new(),
                outputs: Vec::new(),
                cost: Default::default(),
            }),
            locality: None,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random pushes (with and without an avoided node), removals (the
        /// head, another entry, an unlisted task) and container arrivals
        /// on one-node and multi-node clusters. The list keeps readiness
        /// order, as a `Vec` with `retain` does; and at every arrival the
        /// untraced FCFS pick is the first entry not avoiding the node,
        /// which is also the winner of the traced `Select` row and of the
        /// untraced selection over the same candidates.
        #[test]
        fn fcfs_head_is_the_traced_winner(
            nodes in 1u32..5,
            ops in proptest::collection::vec((0u8..4, any::<u8>()), 1..120),
        ) {
            use crate::config::SchedulerPolicy;
            use crate::provenance::ProvenanceManager;
            use crate::scheduler::make_scheduler;
            use hiway_obs::Tracer;

            let fcfs = make_scheduler(SchedulerPolicy::Fcfs);
            let prov = ProvenanceManager::new(hiway_provdb::ProvDb::new());
            let mut list = ReadyList::default();
            let mut oracle: Vec<(TaskId, Option<NodeId>)> = Vec::new();
            let mut next_id = 0;
            for (kind, b) in ops {
                let node = NodeId(u32::from(b) % nodes);
                match kind {
                    0 | 1 => {
                        // Half the pushes avoid a node, as a retry does.
                        let avoid = (b % 2 == 0).then_some(node);
                        list.push(entry(next_id, avoid));
                        oracle.push((TaskId(next_id), avoid));
                        next_id += 1;
                    }
                    2 => {
                        // The head, a listed task, or one never listed.
                        let id = match b % 3 {
                            0 => oracle.first().map_or(TaskId(next_id), |e| e.0),
                            1 if !oracle.is_empty() => oracle[b as usize % oracle.len()].0,
                            _ => TaskId(next_id + 7),
                        };
                        list.remove(id);
                        oracle.retain(|e| e.0 != id);
                    }
                    _ => {
                        let multi_node = nodes > 1;
                        let expected = oracle
                            .iter()
                            .find(|(_, avoid)| !(multi_node && *avoid == Some(node)))
                            .map(|e| e.0);
                        let head = list.head(node, multi_node);
                        prop_assert_eq!(head, expected);
                        let candidates = list.candidates(node, multi_node, None);
                        let tracer = Tracer::enabled();
                        let select = |tracer: &Tracer| {
                            fcfs.select(node, "w", true, &candidates, &prov, tracer, 0.0)
                        };
                        let traced = select(&tracer);
                        let untraced = select(&Tracer::disabled());
                        prop_assert_eq!(traced, untraced);
                        prop_assert_eq!(traced.winner, head);
                        prop_assert!(!traced.decline);
                        let row = tracer.with_decisions(|ds| ds.last().map(|d| d.winner));
                        prop_assert_eq!(row, Some(head.map(|id| id.0)));
                    }
                }
                let listed: Vec<TaskId> = list.iter().map(|r| r.id).collect();
                let want: Vec<TaskId> = oracle.iter().map(|e| e.0).collect();
                prop_assert_eq!(listed, want);
                prop_assert_eq!(list.first(), oracle.first().map(|e| e.0));
                prop_assert_eq!(list.len(), oracle.len());
            }
        }
    }

    #[test]
    fn a_duplicated_input_counts_twice_and_is_released_once() {
        let mut tracker = ReadyTracker::default();
        let inputs = vec!["/a".to_string(), "/a".to_string(), "/b".to_string()];
        tracker.add(TaskId(3), &inputs, |p| p == "/b");
        assert_eq!(tracker.held().collect::<Vec<_>>(), vec![(TaskId(3), 2)]);
        tracker.file_available("/a");
        tracker.file_available("/a");
        assert_eq!(tracker.pop(), Some(TaskId(3)));
        assert_eq!(tracker.pop(), None);
    }
}
