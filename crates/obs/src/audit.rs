//! The scheduler decision audit log.
//!
//! Every time a scheduler places work — dynamically when YARN hands back
//! a container, or statically at plan time — it records *what it saw*:
//! the candidates considered, the score each one earned under the
//! policy's own objective, and which candidate won. This is the
//! "recoverable, queryable run structure" the provenance literature asks
//! of workflow systems: afterwards one can answer "why did task 17 run on
//! worker-3?" from the log alone.

/// How the decision was made.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionKind {
    /// Container-arrival-time selection (dynamic policies, and static
    /// policies confirming their plan).
    Select,
    /// Ahead-of-execution placement by a static policy's `plan()`.
    Plan,
    /// The task never reached a scheduler: a committed invocation with the
    /// same signature and input digests existed in the warm provenance
    /// store, so the driver satisfied it from memo instead of executing.
    Memo,
}

impl DecisionKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            DecisionKind::Select => "select",
            DecisionKind::Plan => "plan",
            DecisionKind::Memo => "memo",
        }
    }
}

/// One candidate the scheduler weighed.
#[derive(Clone, Debug, PartialEq)]
pub struct CandidateScore {
    /// Task id (`TaskId.0` upstream; obs stays dependency-free).
    pub task: u64,
    /// Tool signature / task name.
    pub label: String,
    /// The policy's score for this candidate. Orientation is per policy
    /// and stated in `Decision::reason` (e.g. locality fraction: higher
    /// wins; relative fitness or EFT: lower wins).
    pub score: f64,
    /// Human-readable score breakdown, e.g. `"local 3/4 blocks"`.
    pub detail: String,
}

/// One placement decision.
#[derive(Clone, Debug, PartialEq)]
pub struct Decision {
    /// Virtual time of the decision.
    pub t: f64,
    /// Policy name (`"fcfs"`, `"data-aware"`, `"round-robin"`, `"heft"`,
    /// `"adaptive"`).
    pub policy: &'static str,
    pub kind: DecisionKind,
    /// Node index the container/assignment targets.
    pub node: u32,
    pub node_name: String,
    /// Candidates in the order the scheduler considered them.
    pub candidates: Vec<CandidateScore>,
    /// Task id of the winner; `None` when the scheduler declined to place
    /// anything (empty queue, or late binding waiting for a better node).
    pub winner: Option<u64>,
    /// Why the winner won, in the policy's own terms.
    pub reason: String,
}

/// What happened to a queue — the multi-tenancy counterpart of
/// [`Decision`]. The RM records one entry per admission verdict,
/// per-container grant or preemption, and (once per allocation round)
/// per-queue usage sample, so fairness questions — "did tenant-b get its
/// 1/3 share while tenant-a was saturating the cluster?" — are answerable
/// from the log alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueEventKind {
    /// An application was admitted to the queue at submission.
    Admit,
    /// An application was parked behind the queue's pending-AM limit; it
    /// will be admitted when a live application finishes.
    Queued,
    /// An application was rejected outright (admission policy `Reject`).
    Reject,
    /// A container was granted to an application in this queue.
    Allocate,
    /// A container in this queue was selected as a preemption victim on
    /// behalf of a starved sibling queue.
    Preempt,
    /// A container request could never be satisfied by any node and was
    /// failed fast instead of queued.
    Infeasible,
    /// Per-round usage sample: the queue's footprint after allocation.
    Usage,
}

impl QueueEventKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            QueueEventKind::Admit => "admit",
            QueueEventKind::Queued => "queued",
            QueueEventKind::Reject => "reject",
            QueueEventKind::Allocate => "allocate",
            QueueEventKind::Preempt => "preempt",
            QueueEventKind::Infeasible => "infeasible",
            QueueEventKind::Usage => "usage",
        }
    }
}

/// One entry in the per-queue audit log.
#[derive(Clone, Debug, PartialEq)]
pub struct QueueAudit {
    /// Virtual time of the event (the RM's last-seen heartbeat time for
    /// submission-time events — the RM deliberately has no clock).
    pub t: f64,
    /// Leaf queue name.
    pub queue: String,
    pub kind: QueueEventKind,
    /// Application the event concerns, when there is one (`AppId.0`).
    pub app: Option<u32>,
    /// Container the event concerns (`ContainerId.0`), for
    /// allocate/preempt entries.
    pub container: Option<u64>,
    /// Queue usage after the event, in vcores.
    pub used_vcores: u64,
    /// Queue usage after the event, in MB.
    pub used_memory_mb: u64,
    /// Pending (admitted, unscheduled) requests in the queue.
    pub pending: u64,
    /// The queue's dominant share of the live cluster after the event.
    pub share: f64,
    /// The queue's instantaneous fair share (demand-bounded water-filling
    /// over weights) at the time of the event.
    pub fair_share: f64,
    /// Free-form detail, e.g. the starved sibling a preemption serves.
    pub detail: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_event_kind_labels() {
        for (kind, label) in [
            (QueueEventKind::Admit, "admit"),
            (QueueEventKind::Queued, "queued"),
            (QueueEventKind::Reject, "reject"),
            (QueueEventKind::Allocate, "allocate"),
            (QueueEventKind::Preempt, "preempt"),
            (QueueEventKind::Infeasible, "infeasible"),
            (QueueEventKind::Usage, "usage"),
        ] {
            assert_eq!(kind.as_str(), label);
        }
    }

    #[test]
    fn decision_kind_labels() {
        for (kind, label) in [
            (DecisionKind::Select, "select"),
            (DecisionKind::Plan, "plan"),
            (DecisionKind::Memo, "memo"),
        ] {
            assert_eq!(kind.as_str(), label);
        }
    }
}
