//! AM configuration.

use hiway_yarn::Resource;

/// Which Workflow Scheduler policy to run (paper §3.4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedulerPolicy {
    /// First-come-first-served queue — "most established SWfMSs employ"
    /// this; the baseline in the adaptive-scheduling experiment ("greedy").
    Fcfs,
    /// Hi-WAY's default: when a container is allocated, pick the pending
    /// task with the highest fraction of its input data already local to
    /// the container's node.
    DataAware,
    /// Static: assign tasks to nodes in turn, in equal numbers, before
    /// execution starts. Requires a static workflow language.
    RoundRobin,
    /// Static + adaptive: heterogeneous-earliest-finish-time scheduling
    /// driven by provenance runtime estimates. Requires a static language.
    Heft,
    /// Dynamic + adaptive: when a container arrives, pick the pending task
    /// whose estimated runtime on that node — latest observation, default
    /// zero — is most *favourable* relative to the task's cross-node
    /// average. Unlike HEFT it needs no pre-built schedule, so it composes
    /// with iterative workflows — the "additional (non-static) adaptive
    /// scheduling policies … in the process of being integrated" that §3.4
    /// announces.
    Adaptive,
}

impl SchedulerPolicy {
    /// Whether the policy builds its complete schedule up front — such
    /// policies cannot run iterative workflows (§3.4).
    pub fn is_static(self) -> bool {
        matches!(self, SchedulerPolicy::RoundRobin | SchedulerPolicy::Heft)
    }

    /// Whether `select` scores candidates by their input locality.
    pub fn reads_locality(self) -> bool {
        matches!(self, SchedulerPolicy::DataAware | SchedulerPolicy::Adaptive)
    }

    pub fn name(self) -> &'static str {
        match self {
            SchedulerPolicy::Fcfs => "fcfs",
            SchedulerPolicy::DataAware => "data-aware",
            SchedulerPolicy::RoundRobin => "round-robin",
            SchedulerPolicy::Heft => "heft",
            SchedulerPolicy::Adaptive => "adaptive",
        }
    }
}

/// Configuration of one Hi-WAY AM instance.
#[derive(Clone, Debug)]
pub struct HiwayConfig {
    /// Resources of every worker container. The paper runs identical
    /// container configurations per installation: one core / 1 GB in the
    /// Figure 4 cluster, whole-node containers elsewhere.
    pub container_resource: Resource,
    /// Resources occupied by the AM's own container.
    pub am_resource: Resource,
    pub scheduler: SchedulerPolicy,
    /// How many times a failed task is retried (on a different node when
    /// possible) before the workflow is declared failed.
    pub task_retries: u32,
    /// AM–RM heartbeat: how often allocation rounds happen, seconds.
    pub heartbeat_secs: f64,
    /// When true, a task's compute phase may use up to the *node's* cores
    /// regardless of container vcores — the paper's whole-node setup
    /// "enabling multithreading for tasks running within that container
    /// whenever possible". When false, container vcores cap the threads.
    pub multithread_full_node: bool,
    /// The paper's §5 future work, implemented: when true, each worker
    /// container is custom-tailored to its task (vcores = the task's
    /// thread count, memory = the task's peak footprint, both clamped to
    /// the largest node) instead of the uniform `container_resource`.
    /// Counters the under-utilization of one-size-fits-all containers.
    pub tailored_containers: bool,
    /// Probability that a task attempt fails (simulated tool crash), for
    /// fault-tolerance testing.
    pub task_failure_prob: f64,
    /// How many *infrastructure*-caused attempt failures (node crash,
    /// container preemption) a task absorbs before the workflow is
    /// declared failed. Infrastructure failures are not the task's fault,
    /// so this budget is separate from (and much larger than)
    /// [`HiwayConfig::task_retries`].
    pub infra_retries: u32,
    /// Base delay before a failed attempt is re-requested; doubles with
    /// every further failure of the same task (exponential backoff),
    /// capped at [`HiwayConfig::retry_backoff_max_secs`]. Zero retries
    /// immediately on the next heartbeat.
    pub retry_backoff_secs: f64,
    /// Upper bound on the exponential retry backoff.
    pub retry_backoff_max_secs: f64,
    /// A node accumulating this many attempt failures (while its earlier
    /// strikes have not yet decayed) is blacklisted for this workflow:
    /// containers granted on it are handed back rather than used.
    pub blacklist_strikes: u32,
    /// How long a node-blacklist strike takes to decay. Each new strike
    /// extends the node's window to `now + blacklist_decay_secs`.
    pub blacklist_decay_secs: f64,
    /// Speculative re-execution of stragglers: when a task's compute phase
    /// has run longer than `speculation_factor ×` its provenance-estimated
    /// runtime, a duplicate attempt is launched on a different node. The
    /// first attempt to finish its compute phase wins; the other is
    /// cancelled. Off by default (duplicates burn containers).
    pub speculative_execution: bool,
    /// Straggler threshold multiplier over the provenance mean runtime.
    pub speculation_factor: f64,
    /// Never speculate before an attempt has computed at least this long.
    pub speculation_min_secs: f64,
    /// Whether to write the provenance trace file to HDFS at the end.
    pub write_trace: bool,
    /// Seed for the AM's failure/randomness draws.
    pub seed: u64,
    /// Leaf scheduler queue to submit the workflow to. `None` targets the
    /// RM's default queue; naming a queue requires the RM to have been
    /// configured with a matching queue tree (the submission fails
    /// otherwise).
    pub queue: Option<String>,
    /// Directory of a durable provenance database (WAL + snapshot
    /// segments). `None` keeps the historical in-memory store. When set,
    /// every invocation document is on disk at commit time, so the store
    /// survives AM crashes and process restarts (§3.5's MySQL/Couchbase
    /// deployment made durable).
    pub provdb_path: Option<String>,
    /// When true, completed invocations found in the (warm, typically
    /// durable) provenance store are *memoized*: a re-submitted or
    /// crash-interrupted workflow skips every task whose signature and
    /// staged-input digests match a committed invocation document, emits a
    /// `memo:hit` span instead of execute phases, and resumes mid-DAG —
    /// the paper's re-executable traces (§2.2) across process restarts.
    pub resume: bool,
}

impl Default for HiwayConfig {
    fn default() -> HiwayConfig {
        HiwayConfig {
            container_resource: Resource::new(1, 1024),
            am_resource: Resource::new(1, 1024),
            scheduler: SchedulerPolicy::DataAware,
            task_retries: 3,
            heartbeat_secs: 1.0,
            multithread_full_node: false,
            tailored_containers: false,
            task_failure_prob: 0.0,
            infra_retries: 24,
            retry_backoff_secs: 1.0,
            retry_backoff_max_secs: 64.0,
            blacklist_strikes: 2,
            blacklist_decay_secs: 120.0,
            speculative_execution: false,
            speculation_factor: 1.8,
            speculation_min_secs: 20.0,
            write_trace: true,
            seed: 0,
            queue: None,
            provdb_path: None,
            resume: false,
        }
    }
}

impl HiwayConfig {
    /// Whole-node containers with in-container multithreading — the
    /// configuration of the paper's scalability and RNA-seq experiments
    /// ("only allow execution of a single task per worker node").
    pub fn whole_node(node_cores: u32, node_memory_mb: u64) -> HiwayConfig {
        HiwayConfig {
            container_resource: Resource::new(node_cores, node_memory_mb),
            multithread_full_node: true,
            ..HiwayConfig::default()
        }
    }

    pub fn with_scheduler(mut self, scheduler: SchedulerPolicy) -> HiwayConfig {
        self.scheduler = scheduler;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> HiwayConfig {
        self.seed = seed;
        self
    }

    pub fn with_queue(mut self, queue: &str) -> HiwayConfig {
        self.queue = Some(queue.to_string());
        self
    }

    /// Backs the provenance store with a durable database at `path`.
    pub fn with_provdb_path(mut self, path: &str) -> HiwayConfig {
        self.provdb_path = Some(path.to_string());
        self
    }

    /// Enables cross-run memoization against a warm provenance store.
    pub fn with_resume(mut self, resume: bool) -> HiwayConfig {
        self.resume = resume;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_policy_classification() {
        assert!(!SchedulerPolicy::Fcfs.is_static());
        assert!(!SchedulerPolicy::DataAware.is_static());
        assert!(SchedulerPolicy::RoundRobin.is_static());
        assert!(SchedulerPolicy::Heft.is_static());
    }

    #[test]
    fn whole_node_config() {
        let c = HiwayConfig::whole_node(8, 15_000);
        assert_eq!(c.container_resource, Resource::new(8, 15_000));
        assert!(c.multithread_full_node);
        assert_eq!(c.scheduler, SchedulerPolicy::DataAware);
    }

    #[test]
    fn builder_helpers() {
        let c = HiwayConfig::default()
            .with_scheduler(SchedulerPolicy::Heft)
            .with_seed(9);
        assert_eq!(c.scheduler, SchedulerPolicy::Heft);
        assert_eq!(c.seed, 9);
        assert_eq!(c.scheduler.name(), "heft");
        assert_eq!(c.queue, None, "default targets the RM's default queue");
        let c = c.with_queue("tenant-a");
        assert_eq!(c.queue.as_deref(), Some("tenant-a"));
        assert_eq!(c.provdb_path, None, "in-memory store by default");
        assert!(!c.resume, "memoization is opt-in");
        let c = c.with_provdb_path("/tmp/provdb").with_resume(true);
        assert_eq!(c.provdb_path.as_deref(), Some("/tmp/provdb"));
        assert!(c.resume);
    }
}
