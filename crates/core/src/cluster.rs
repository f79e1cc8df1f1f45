//! The simulated substrate bundle a Hi-WAY deployment runs on: the
//! discrete-event engine, the HDFS NameNode, and the YARN RM, plus the
//! client-side helpers that stand in for setup-time data staging and the
//! transfers that move a task's files onto and off a worker node.

use std::collections::{HashMap, HashSet};

use hiway_hdfs::exec as hdfs_exec;
use hiway_hdfs::{Hdfs, HdfsConfig, HdfsError};
use hiway_lang::TaskId;
use hiway_sim::stress;
use hiway_sim::{Activity, ActivityId, ClusterSpec, Endpoint, Engine, ExternalId, NodeId};
use hiway_yarn::{Container, ResourceManager};

/// Completion tags flowing through the engine. `wf` is the AM index
/// within the [`crate::driver::Runtime`].
#[derive(Clone, Debug, PartialEq)]
pub enum Tag {
    /// AM–RM heartbeat timer.
    Heartbeat,
    /// One activity (or the container-startup timer) of file `file` of
    /// the attempt's current phase finished; the attempt knows which phase
    /// that is. The compute phase and the startup are one file each.
    Attempt {
        wf: u32,
        task: TaskId,
        attempt: u32,
        file: u32,
    },
    /// A failed task's exponential-backoff delay elapsed; re-request a
    /// container for it.
    RetryTask { wf: u32, task: TaskId },
    /// Background load — never completes, only cancelled.
    Stress,
    /// HDFS re-replication traffic.
    Replication,
}

/// A registered external input (e.g. a file in an S3 bucket), fetched over
/// the network *during* workflow execution rather than pre-staged in HDFS.
#[derive(Clone, Copy, Debug)]
pub struct ExternalFile {
    pub service: ExternalId,
    pub size: u64,
}

/// The full simulated deployment.
pub struct Cluster {
    pub engine: Engine<Tag>,
    pub hdfs: Hdfs,
    pub rm: ResourceManager,
    /// External files addressable by path (e.g. `s3://1kg/sample0.fq`).
    externals: HashMap<String, ExternalFile>,
    /// Files whose contents are fully written — tasks may only consume
    /// committed files (an HDFS `create` registers the path in the
    /// namespace before the replica pipeline finishes streaming).
    committed: HashSet<String>,
    /// Round-robin writer for setup-time staging, to spread first replicas.
    stage_cursor: usize,
}

impl Cluster {
    pub fn new(spec: ClusterSpec, seed: u64) -> Cluster {
        Cluster::with_hdfs_config(spec, HdfsConfig::default(), seed)
    }

    /// Like [`Cluster::new`] but with explicit HDFS settings (block size,
    /// replication factor — deployments tune `dfs.replication` down for
    /// bulky intermediate data).
    pub fn with_hdfs_config(spec: ClusterSpec, config: HdfsConfig, seed: u64) -> Cluster {
        let n = spec.nodes.len();
        let rm = ResourceManager::new(&spec);
        let hdfs = Hdfs::new(n, config, seed ^ 0x5f5f);
        Cluster {
            engine: Engine::new(spec),
            hdfs,
            rm,
            externals: HashMap::new(),
            committed: HashSet::new(),
            stage_cursor: 0,
        }
    }

    pub fn node_count(&self) -> usize {
        self.engine.spec().nodes.len()
    }

    pub fn node_name(&self, node: NodeId) -> &str {
        &self.engine.spec().node(node).name
    }

    /// Registers `path` in HDFS without simulated cost — the equivalent of
    /// Karamel/Chef staging input data before the experiment starts
    /// (paper §3.6). Replicas spread round-robin across DataNodes.
    pub fn prestage(&mut self, path: &str, size: u64) {
        let writer = NodeId((self.stage_cursor % self.node_count().max(1)) as u32);
        self.stage_cursor += 1;
        // The write plan is intentionally dropped: setup-time staging is
        // free; only the resulting block placement matters.
        self.hdfs
            .create(path, size, writer)
            .expect("prestage of a fresh path");
        self.committed.insert(path.to_string());
    }

    /// Marks a file's contents as fully present in HDFS (stage-out done).
    pub fn commit_file(&mut self, path: &str) {
        debug_assert!(self.hdfs.exists(path), "committing unregistered file");
        self.committed.insert(path.to_string());
    }

    /// Drops `path` from the HDFS namespace if a previous (failed) attempt
    /// registered it but never finished writing — clearing the way for a
    /// retry's `create`. Committed files are left untouched.
    pub fn discard_uncommitted(&mut self, path: &str) {
        if self.hdfs.exists(path) && !self.committed.contains(path) {
            self.hdfs.delete(path).expect("exists was just checked");
        }
    }

    /// Registers a file served by an external service (fetched during
    /// execution — the paper's second scalability experiment obtains reads
    /// "during workflow execution from the Amazon S3 bucket").
    pub fn register_external_file(&mut self, path: &str, service: ExternalId, size: u64) {
        self.externals
            .insert(path.to_string(), ExternalFile { service, size });
    }

    pub fn external_file(&self, path: &str) -> Option<ExternalFile> {
        self.externals.get(path).copied()
    }

    /// Whether `path` is readable by a task: fully written to HDFS, or
    /// served by an external service.
    pub fn input_available(&self, path: &str) -> bool {
        self.committed.contains(path) || self.externals.contains_key(path)
    }

    /// The size of `path`: an external file's registered size, else its
    /// HDFS length, else 0.
    pub fn file_size(&self, path: &str) -> u64 {
        self.external_file(path)
            .map(|e| e.size)
            .or_else(|| self.hdfs.len(path).ok())
            .unwrap_or(0)
    }

    /// Starts moving input `path` onto `node` (stage-in): one fetch from
    /// its external service, or the HDFS reads of its blocks. Returns the
    /// started activities, none for an empty file.
    pub fn start_input(
        &mut self,
        path: &str,
        node: NodeId,
        tag: Tag,
    ) -> Result<Vec<ActivityId>, HdfsError> {
        if let Some(ext) = self.external_file(path) {
            if ext.size == 0 {
                return Ok(Vec::new());
            }
            let fetch = Activity::Flow {
                src: Endpoint::External(ext.service),
                dst: Endpoint::Node(node),
                src_disk: false,
                dst_disk: true,
            };
            return Ok(vec![self.engine.start(fetch, ext.size as f64, tag)]);
        }
        let plan = self.hdfs.read_plan(path, node)?;
        Ok(hdfs_exec::start_read(&mut self.engine, &plan, tag))
    }

    /// Creates output `path` in HDFS with `node` as the writer and starts
    /// its replica pipeline (stage-out). Returns the started activities,
    /// none for an empty file.
    pub fn start_output(
        &mut self,
        path: &str,
        size: u64,
        node: NodeId,
        tag: Tag,
    ) -> Result<Vec<ActivityId>, HdfsError> {
        let plan = self.hdfs.create(path, size, node)?;
        Ok(hdfs_exec::start_write(&mut self.engine, &plan, tag))
    }

    /// Starts a tool's working-directory I/O on `node`'s local disk: it
    /// writes `bytes` of temporary files and reads them back.
    pub fn start_scratch(&mut self, node: NodeId, bytes: u64, tag: Tag) -> Vec<ActivityId> {
        let bytes = bytes as f64;
        let write = self
            .engine
            .start(Activity::DiskWrite { node }, bytes, tag.clone());
        let read = self.engine.start(Activity::DiskRead { node }, bytes, tag);
        vec![write, read]
    }

    /// Starts `procs` CPU hogs on `node` (cf. the Linux `stress` tool).
    pub fn add_cpu_stress(&mut self, node: NodeId, procs: u32) -> Vec<ActivityId> {
        stress::cpu_stress(&mut self.engine, node, procs, Tag::Stress)
    }

    /// Starts `procs` disk-writer hogs on `node`.
    pub fn add_disk_stress(&mut self, node: NodeId, procs: u32) -> Vec<ActivityId> {
        stress::disk_stress(&mut self.engine, node, procs, Tag::Stress)
    }

    /// Fails a node across all subsystems; returns the killed containers
    /// so the owning AMs can re-try their tasks.
    pub fn fail_node(&mut self, node: NodeId) -> Vec<Container> {
        self.hdfs.fail_node(node).expect("known node");
        self.rm.fail_node(node)
    }

    /// Brings a failed node back: the NodeManager re-registers with full
    /// (empty) capacity and the DataNode rejoins with a blank disk (its
    /// old replicas are gone — HDFS re-replication repopulates it over
    /// time). Containers that died with the node stay dead.
    pub fn recover_node(&mut self, node: NodeId) {
        self.rm.revive_node(node);
        self.hdfs.revive_node(node).expect("known node");
    }

    /// Restores the replication factor after failures, running the copy
    /// traffic through the engine (tagged [`Tag::Replication`]).
    pub fn re_replicate(&mut self) -> usize {
        self.try_re_replicate().expect("no data loss")
    }

    /// Like [`Cluster::re_replicate`] but surfaces unrecoverable data loss
    /// (every replica of some block gone) instead of panicking — chaos
    /// schedules can legitimately destroy all copies of a file.
    pub fn try_re_replicate(&mut self) -> Result<usize, hiway_hdfs::HdfsError> {
        let copies = self.hdfs.re_replicate()?;
        let ids = hiway_hdfs::exec::start_copies(&mut self.engine, &copies, Tag::Replication);
        Ok(ids.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiway_sim::{ExternalSpec, NodeSpec};

    fn cluster(n: usize) -> Cluster {
        let spec = ClusterSpec::homogeneous(n, "w", &NodeSpec::m3_large("p"));
        Cluster::new(spec, 1)
    }

    #[test]
    fn prestage_registers_and_spreads() {
        let mut c = cluster(4);
        for i in 0..4 {
            c.prestage(&format!("/in/f{i}"), 64 << 20);
        }
        assert!(c.hdfs.exists("/in/f0"));
        assert!(c.input_available("/in/f3"));
        // First replicas went to four different nodes.
        let firsts: std::collections::HashSet<u32> = (0..4)
            .map(|i| c.hdfs.status(&format!("/in/f{i}")).unwrap().blocks[0].replicas[0].0)
            .collect();
        assert_eq!(firsts.len(), 4);
    }

    #[test]
    fn external_files_are_available_without_hdfs() {
        let mut spec = ClusterSpec::homogeneous(1, "w", &NodeSpec::m3_large("p"));
        let s3 = spec.add_external(ExternalSpec::s3());
        let mut c = Cluster::new(spec, 2);
        c.register_external_file("s3://bucket/reads.fq", s3, 1 << 30);
        assert!(c.input_available("s3://bucket/reads.fq"));
        assert!(!c.hdfs.exists("s3://bucket/reads.fq"));
        assert_eq!(
            c.external_file("s3://bucket/reads.fq").unwrap().size,
            1 << 30
        );
        assert!(!c.input_available("/missing"));
    }

    #[test]
    fn fail_node_hits_hdfs_and_rm() {
        let mut c = cluster(3);
        c.prestage("/a", 10);
        let killed = c.fail_node(NodeId(0));
        assert!(killed.is_empty(), "no containers were running");
        assert!(!c.hdfs.is_alive(NodeId(0)));
        assert!(!c.rm.is_alive(NodeId(0)));
        let copies = c.re_replicate();
        // /a may or may not have had a replica on node 0; both fine, but
        // the call must leave the namespace fully replicated.
        let st = c.hdfs.status("/a").unwrap();
        assert_eq!(st.blocks[0].replicas.len(), 2, "2 alive nodes remain");
        let _ = copies;
    }
}
