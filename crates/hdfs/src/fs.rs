//! The NameNode metadata plane: namespace, block placement, locality
//! queries, DataNode failure, and re-replication.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use hiway_obs::profile::{section, Section};
use hiway_obs::Tracer;
use hiway_sim::NodeId;

use crate::error::HdfsError;
use crate::plan::{ReadPlan, ReadSegment, TransferSource, WritePlan};

/// FNV-1a 64 over a byte string: the digest family behind every stable
/// identity in the system (file digests, memo keys, golden trace digests).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Digest of a file's canonical identity, its path and size. The
/// simulation models file *metadata* rather than bytes, so this is what
/// stays invariant when the same workflow stages the same inputs again.
pub fn file_digest(path: &str, size: u64) -> u64 {
    fnv1a64(&[path.as_bytes(), &size.to_le_bytes()].concat())
}

/// NameNode configuration.
#[derive(Clone, Copy, Debug)]
pub struct HdfsConfig {
    /// Block size in bytes. HDFS's classic default of 64 MiB, which the
    /// paper's Hadoop 2.x deployments used.
    pub block_size: u64,
    /// Replication factor (default 3).
    pub replication: u16,
}

impl Default for HdfsConfig {
    fn default() -> HdfsConfig {
        HdfsConfig {
            block_size: 64 << 20,
            replication: 3,
        }
    }
}

/// One block of a file and the DataNodes currently holding replicas.
#[derive(Clone, Debug)]
pub struct BlockInfo {
    pub size: u64,
    pub replicas: Vec<NodeId>,
}

/// Public view of a file's metadata.
#[derive(Clone, Debug)]
pub struct FileStatus {
    pub path: String,
    pub size: u64,
    pub blocks: Vec<BlockInfo>,
}

#[derive(Clone, Debug)]
struct FileMeta {
    size: u64,
    blocks: Vec<BlockInfo>,
}

/// One input set's bytes on every DataNode, from which the data-aware
/// scheduler scores it on any node (§3.4). Valid while [`Hdfs::is_fresh`].
#[derive(Clone, Debug, PartialEq)]
pub struct LocalityRow {
    /// Bytes of the set with an alive replica on each DataNode.
    local: Vec<u64>,
    /// Bytes of the set with any alive replica.
    total: u64,
    /// [`Hdfs`]'s `placement` counter at the build.
    placement: u64,
    /// Its `namespace` counter, or `None` when the row is complete (every
    /// path was found), so no later `create` can change it.
    namespace: Option<u64>,
}

impl LocalityRow {
    /// Fraction of the readable bytes local to `node`; `0.0` when none is.
    pub fn fraction(&self, node: NodeId) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.local.get(node.index()).copied().unwrap_or(0) as f64 / self.total as f64
        }
    }
}

/// The simulated NameNode. All operations are metadata-only; data movement
/// happens in the engine via the plans these methods return.
pub struct Hdfs {
    config: HdfsConfig,
    files: BTreeMap<String, FileMeta>,
    alive: Vec<bool>,
    rng: StdRng,
    /// Bumped by every change to where existing bytes live or whether
    /// they can be read: delete, node death, revival, re-replication.
    placement: u64,
    /// Bumped by every create: a path a row found absent may now exist.
    namespace: u64,
    /// Observability sink (disabled by default): block read/write volumes
    /// and locality-row hit/miss counters.
    tracer: Tracer,
}

impl Hdfs {
    /// Creates a NameNode managing `num_datanodes` DataNodes (one per
    /// cluster node, by convention `NodeId(i)` for `i < num_datanodes`).
    pub fn new(num_datanodes: usize, config: HdfsConfig, seed: u64) -> Hdfs {
        Hdfs {
            config,
            files: BTreeMap::new(),
            alive: vec![true; num_datanodes],
            rng: StdRng::seed_from_u64(seed),
            placement: 0,
            namespace: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches an observability tracer (shared with the other layers).
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
    }

    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    pub fn len(&self, path: &str) -> Result<u64, HdfsError> {
        self.files
            .get(path)
            .map(|f| f.size)
            .ok_or_else(|| HdfsError::NotFound(path.to_string()))
    }

    /// Stable content digest of a file, usable as a memoization key
    /// component across processes and runs: the [`file_digest`] of its
    /// path and size. Placement (block replicas) deliberately does not
    /// contribute: two runs with different block placement but identical
    /// logical content must produce identical digests.
    pub fn content_digest(&self, path: &str) -> Result<u64, HdfsError> {
        Ok(file_digest(path, self.len(path)?))
    }

    /// True when the namespace is empty.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    pub fn status(&self, path: &str) -> Result<FileStatus, HdfsError> {
        let meta = self
            .files
            .get(path)
            .ok_or_else(|| HdfsError::NotFound(path.to_string()))?;
        Ok(FileStatus {
            path: path.to_string(),
            size: meta.size,
            blocks: meta.blocks.clone(),
        })
    }

    fn alive_nodes(&self) -> Vec<NodeId> {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, a)| **a)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Registers a new file written from `writer` and returns the plan of
    /// disk/network work the write costs. The first replica lands on the
    /// writer when it is an alive DataNode (HDFS's write-affinity rule,
    /// which is what makes data-aware scheduling pay off for chained
    /// tasks); remaining replicas go to distinct random alive nodes.
    pub fn create(
        &mut self,
        path: &str,
        size: u64,
        writer: NodeId,
    ) -> Result<WritePlan, HdfsError> {
        let _p = section(Section::HdfsCreate);
        if self.files.contains_key(path) {
            return Err(HdfsError::AlreadyExists(path.to_string()));
        }
        let alive = self.alive_nodes();
        if alive.is_empty() {
            return Err(HdfsError::NoAliveDatanodes);
        }
        let writer_alive = writer.index() < self.alive.len() && self.alive[writer.index()];

        let mut blocks = Vec::new();
        let mut remote_bytes: BTreeMap<u32, u64> = BTreeMap::new();
        let mut local_bytes = 0u64;
        let mut remaining = size;
        // Zero-byte files still get one (empty) block for uniformity.
        loop {
            let bsize = remaining.min(self.config.block_size);
            remaining -= bsize;

            let mut replicas = Vec::with_capacity(self.config.replication as usize);
            if writer_alive {
                replicas.push(writer);
                local_bytes += bsize;
            }
            let mut others: Vec<NodeId> = alive
                .iter()
                .copied()
                .filter(|n| !(writer_alive && *n == writer))
                .collect();
            others.shuffle(&mut self.rng);
            for n in others {
                if replicas.len() >= self.config.replication as usize {
                    break;
                }
                replicas.push(n);
            }
            // Network cost: each replica other than the first one.
            for (i, n) in replicas.iter().enumerate() {
                if i == 0 {
                    if !writer_alive {
                        *remote_bytes.entry(n.0).or_default() += bsize;
                    }
                } else {
                    *remote_bytes.entry(n.0).or_default() += bsize;
                }
            }
            blocks.push(BlockInfo {
                size: bsize,
                replicas,
            });
            if remaining == 0 {
                break;
            }
        }

        if self.tracer.is_enabled() {
            self.tracer.inc("hdfs.files_created", 1);
            self.tracer.inc("hdfs.blocks_written", blocks.len() as u64);
            self.tracer.inc("hdfs.bytes_written", size);
            self.tracer
                .observe("hdfs.write_mb", size as f64 / (1 << 20) as f64);
        }
        self.files
            .insert(path.to_string(), FileMeta { size, blocks });
        self.namespace += 1;
        Ok(WritePlan {
            path: path.to_string(),
            writer,
            local_bytes,
            remote: remote_bytes
                .into_iter()
                .map(|(n, b)| (NodeId(n), b))
                .collect(),
        })
    }

    /// Plans a read of `path` onto `reader`: every block is served from a
    /// local replica when one exists, otherwise from a random alive remote
    /// replica. Segments are merged per source node.
    pub fn read_plan(&mut self, path: &str, reader: NodeId) -> Result<ReadPlan, HdfsError> {
        let meta = self
            .files
            .get(path)
            .ok_or_else(|| HdfsError::NotFound(path.to_string()))?;
        let mut local = 0u64;
        let mut per_remote: BTreeMap<u32, u64> = BTreeMap::new();
        for block in &meta.blocks {
            let alive_replicas: Vec<NodeId> = block
                .replicas
                .iter()
                .copied()
                .filter(|n| self.alive[n.index()])
                .collect();
            if alive_replicas.is_empty() {
                return Err(HdfsError::DataLost(path.to_string()));
            }
            if alive_replicas.contains(&reader) {
                local += block.size;
            } else {
                let src = alive_replicas[self.rng.gen_range(0..alive_replicas.len())];
                *per_remote.entry(src.0).or_default() += block.size;
            }
        }
        if self.tracer.is_enabled() {
            self.tracer.inc("hdfs.reads_planned", 1);
            self.tracer.inc("hdfs.bytes_read_local", local);
            self.tracer
                .inc("hdfs.bytes_read_remote", per_remote.values().sum::<u64>());
        }
        let mut segments = Vec::new();
        if local > 0 {
            segments.push(ReadSegment {
                source: TransferSource::Local,
                bytes: local,
            });
        }
        for (n, bytes) in per_remote {
            segments.push(ReadSegment {
                source: TransferSource::Remote(NodeId(n)),
                bytes,
            });
        }
        Ok(ReadPlan {
            path: path.to_string(),
            reader: Some(reader),
            segments,
        })
    }

    /// The local bytes of `paths` on every DataNode and their readable
    /// total. Unknown paths are ignored entirely (e.g. a task input
    /// fetched from outside HDFS). Blocks whose every replica sits on a
    /// dead DataNode are unreadable from anywhere and count toward neither
    /// side; a dead DataNode holds nothing locally.
    pub fn locality_row(&self, paths: &[String]) -> LocalityRow {
        let mut local = vec![0u64; self.alive.len()];
        let mut total = 0u64;
        for meta in paths.iter().filter_map(|p| self.files.get(p)) {
            for block in &meta.blocks {
                let mut readable = 0;
                for r in block.replicas.iter().filter(|r| self.alive[r.index()]) {
                    local[r.index()] += block.size;
                    readable = block.size;
                }
                total += readable;
            }
        }
        let complete = paths.iter().all(|p| self.files.contains_key(p));
        LocalityRow {
            local,
            total,
            placement: self.placement,
            namespace: (!complete).then_some(self.namespace),
        }
    }

    /// Whether `row` still counts what [`Self::locality_row`] would: no
    /// replica has moved since it was built, and no path it found absent
    /// can have been created since. A fresh row equals a new build.
    pub fn is_fresh(&self, row: &LocalityRow) -> bool {
        row.placement == self.placement && row.namespace.is_none_or(|n| n == self.namespace)
    }

    /// Keeps `row` while fresh (a `hdfs.locality_cache_hit`), else
    /// builds it anew for `paths` (a `hdfs.locality_cache_miss`).
    pub fn refresh_row<'r>(
        &self,
        paths: &[String],
        row: &'r mut Option<LocalityRow>,
    ) -> &'r LocalityRow {
        match row {
            Some(r) if self.is_fresh(r) => self.tracer.inc("hdfs.locality_cache_hit", 1),
            _ => {
                self.tracer.inc("hdfs.locality_cache_miss", 1);
                *row = Some(self.locality_row(paths));
            }
        }
        row.as_ref().expect("kept or just built")
    }

    /// Removes a file from the namespace.
    pub fn delete(&mut self, path: &str) -> Result<(), HdfsError> {
        self.files
            .remove(path)
            .ok_or_else(|| HdfsError::NotFound(path.to_string()))?;
        self.placement += 1;
        Ok(())
    }

    /// Marks a DataNode dead. Files stay readable as long as each block
    /// retains one alive replica. Follow with [`Hdfs::re_replicate`] to
    /// restore the replication factor (returns copy plans to execute).
    pub fn fail_node(&mut self, node: NodeId) -> Result<(), HdfsError> {
        let idx = node.index();
        if idx >= self.alive.len() {
            return Err(HdfsError::UnknownNode(node.0));
        }
        self.alive[idx] = false;
        self.placement += 1;
        Ok(())
    }

    /// Brings a DataNode back (without its old data — like a fresh disk).
    pub fn revive_node(&mut self, node: NodeId) -> Result<(), HdfsError> {
        let idx = node.index();
        if idx >= self.alive.len() {
            return Err(HdfsError::UnknownNode(node.0));
        }
        if !self.alive[idx] {
            self.alive[idx] = true;
            // Drop replica records pointing at the node: its disk is gone.
            for meta in self.files.values_mut() {
                for block in &mut meta.blocks {
                    block.replicas.retain(|n| *n != node);
                }
            }
            self.placement += 1;
        }
        Ok(())
    }

    /// True if the DataNode is alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        node.index() < self.alive.len() && self.alive[node.index()]
    }

    /// Number of alive DataNodes.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Restores the replication factor for every under-replicated block.
    /// Returns `(src, dst, bytes)` copy tasks, merged per (src, dst) pair,
    /// and updates the metadata as if the copies had completed. The caller
    /// is expected to execute the corresponding flows on the engine.
    pub fn re_replicate(&mut self) -> Result<Vec<(NodeId, NodeId, u64)>, HdfsError> {
        let alive = self.alive_nodes();
        let mut copies: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        let mut added: Vec<(String, usize, NodeId)> = Vec::new();
        for (path, meta) in &self.files {
            for (bi, block) in meta.blocks.iter().enumerate() {
                let alive_replicas: Vec<NodeId> = block
                    .replicas
                    .iter()
                    .copied()
                    .filter(|n| self.alive[n.index()])
                    .collect();
                if alive_replicas.is_empty() {
                    return Err(HdfsError::DataLost(path.clone()));
                }
                let deficit =
                    (self.config.replication as usize).saturating_sub(alive_replicas.len());
                if deficit == 0 {
                    continue;
                }
                let mut candidates: Vec<NodeId> = alive
                    .iter()
                    .copied()
                    .filter(|n| !alive_replicas.contains(n))
                    .collect();
                candidates.shuffle(&mut self.rng);
                for target in candidates.into_iter().take(deficit) {
                    let src = alive_replicas[self.rng.gen_range(0..alive_replicas.len())];
                    *copies.entry((src.0, target.0)).or_default() += block.size;
                    added.push((path.clone(), bi, target));
                }
            }
        }
        for (path, bi, target) in added {
            let meta = self.files.get_mut(&path).expect("exists");
            meta.blocks[bi].replicas.push(target);
        }
        // Purge dead replicas from metadata now that copies are scheduled.
        let alive_flags = self.alive.clone();
        for meta in self.files.values_mut() {
            for block in &mut meta.blocks {
                block.replicas.retain(|n| alive_flags[n.index()]);
            }
        }
        self.placement += 1;
        let out: Vec<(NodeId, NodeId, u64)> = copies
            .into_iter()
            .map(|((s, d), b)| (NodeId(s), NodeId(d), b))
            .collect();
        if self.tracer.is_enabled() && !out.is_empty() {
            self.tracer.inc("hdfs.re_replications", 1);
            self.tracer.inc(
                "hdfs.re_replicated_bytes",
                out.iter().map(|(_, _, b)| *b).sum::<u64>(),
            );
        }
        Ok(out)
    }

    /// Paths currently in the namespace (sorted).
    pub fn list(&self) -> Vec<String> {
        self.files.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fs(n: usize) -> Hdfs {
        Hdfs::new(n, HdfsConfig::default(), 42)
    }

    #[test]
    fn create_places_first_replica_on_writer() {
        let mut h = fs(5);
        let plan = h.create("/a", 10 << 20, NodeId(2)).unwrap();
        assert_eq!(plan.local_bytes, 10 << 20);
        assert_eq!(plan.remote.len(), 2, "two pipeline copies");
        let st = h.status("/a").unwrap();
        assert_eq!(st.blocks.len(), 1);
        assert_eq!(st.blocks[0].replicas[0], NodeId(2));
        assert_eq!(st.blocks[0].replicas.len(), 3);
    }

    /// The replica lists of one 10-block create on 128 nodes, pinned: a
    /// change to the random stream or to the shuffle's draw order shows
    /// here before it shows in a golden file.
    #[test]
    fn replica_placement_on_128_nodes_is_pinned() {
        let mut h = Hdfs::new(128, HdfsConfig::default(), 2017);
        let size = 10 * HdfsConfig::default().block_size;
        h.create("/pinned", size, NodeId(5)).unwrap();
        let replicas: Vec<Vec<u32>> = h
            .status("/pinned")
            .unwrap()
            .blocks
            .iter()
            .map(|b| b.replicas.iter().map(|n| n.0).collect())
            .collect();
        let expected: Vec<Vec<u32>> = vec![
            vec![5, 42, 116],
            vec![5, 46, 30],
            vec![5, 87, 4],
            vec![5, 126, 2],
            vec![5, 85, 116],
            vec![5, 7, 46],
            vec![5, 76, 0],
            vec![5, 127, 101],
            vec![5, 58, 117],
            vec![5, 90, 99],
        ];
        assert_eq!(replicas, expected);
    }

    #[test]
    fn create_splits_into_blocks() {
        let mut h = Hdfs::new(
            4,
            HdfsConfig {
                block_size: 4,
                replication: 2,
            },
            1,
        );
        let _ = h.create("/b", 10, NodeId(0)).unwrap();
        let st = h.status("/b").unwrap();
        assert_eq!(st.blocks.len(), 3);
        assert_eq!(
            st.blocks.iter().map(|b| b.size).collect::<Vec<_>>(),
            vec![4, 4, 2]
        );
        // Block replica sets differ (placement diversity): with 4 nodes and
        // a seeded RNG, at least the union spans more than 2 nodes.
        let mut nodes: Vec<u32> = st
            .blocks
            .iter()
            .flat_map(|b| b.replicas.iter().map(|n| n.0))
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert!(nodes.len() > 2, "placement should spread: {nodes:?}");
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut h = fs(3);
        h.create("/a", 1, NodeId(0)).unwrap();
        assert!(matches!(
            h.create("/a", 1, NodeId(0)),
            Err(HdfsError::AlreadyExists(_))
        ));
    }

    #[test]
    fn read_prefers_local_replica() {
        let mut h = fs(5);
        h.create("/a", 100 << 20, NodeId(1)).unwrap();
        let plan = h.read_plan("/a", NodeId(1)).unwrap();
        assert_eq!(plan.local_bytes(), 100 << 20);
        assert_eq!(plan.remote_bytes(), 0);
    }

    #[test]
    fn read_from_non_replica_is_fully_remote() {
        let mut h = Hdfs::new(
            8,
            HdfsConfig {
                block_size: 64 << 20,
                replication: 2,
            },
            7,
        );
        h.create("/a", 128 << 20, NodeId(0)).unwrap();
        // Find a node with no replica.
        let st = h.status("/a").unwrap();
        let holding: Vec<NodeId> = st.blocks.iter().flat_map(|b| b.replicas.clone()).collect();
        let outsider = (0..8).map(NodeId).find(|n| !holding.contains(n)).unwrap();
        let plan = h.read_plan("/a", outsider).unwrap();
        assert_eq!(plan.local_bytes(), 0);
        assert_eq!(plan.remote_bytes(), 128 << 20);
    }

    #[test]
    fn locality_fraction_reflects_replicas() {
        let mut h = fs(6);
        h.create("/a", 64 << 20, NodeId(3)).unwrap();
        let paths = vec!["/a".to_string()];
        assert_eq!(h.locality_row(&paths).fraction(NodeId(3)), 1.0);
        let st = h.status("/a").unwrap();
        let outsider = (0..6)
            .map(NodeId)
            .find(|n| !st.blocks[0].replicas.contains(n))
            .unwrap();
        assert_eq!(h.locality_row(&paths).fraction(outsider), 0.0);
        // Unknown paths are ignored.
        assert_eq!(
            h.locality_row(&["/nope".to_string()]).fraction(NodeId(0)),
            0.0
        );
    }

    #[test]
    fn locality_ignores_bytes_lost_to_dead_nodes() {
        // Replication 1: each file lives on exactly one node.
        let config = HdfsConfig {
            replication: 1,
            ..Default::default()
        };
        let mut h = Hdfs::new(4, config, 9);
        h.create("/alive", 64 << 20, NodeId(1)).unwrap();
        h.create("/lost", 192 << 20, NodeId(2)).unwrap();
        let paths = vec!["/alive".to_string(), "/lost".to_string()];
        // Before the failure, node 1 holds a quarter of the input bytes.
        assert!((h.locality_row(&paths).fraction(NodeId(1)) - 0.25).abs() < 1e-12);

        h.fail_node(NodeId(2)).unwrap();
        // /lost is unreadable from anywhere; it must not dilute the
        // fraction (the old code kept its bytes in the denominator and
        // reported 0.25 here).
        assert_eq!(h.locality_row(&paths).fraction(NodeId(1)), 1.0);
        assert_eq!(h.locality_row(&paths).local[1], 64 << 20);
        // A dead query node holds nothing locally.
        assert_eq!(h.locality_row(&paths).fraction(NodeId(2)), 0.0);
        assert_eq!(h.locality_row(&paths).local[2], 0);
    }

    #[test]
    fn joined_paths_do_not_share_a_locality_answer() {
        let config = HdfsConfig {
            replication: 1,
            ..Default::default()
        };
        let mut h = Hdfs::new(3, config, 5);
        h.create("/a\u{1f}/b", 10 << 20, NodeId(0)).unwrap();
        h.create("/a", 10 << 20, NodeId(1)).unwrap();
        h.create("/b", 10 << 20, NodeId(1)).unwrap();
        let joined = vec!["/a\u{1f}/b".to_string()];
        let split = vec!["/a".to_string(), "/b".to_string()];
        assert_eq!(h.locality_row(&joined).fraction(NodeId(0)), 1.0);
        assert_eq!(h.locality_row(&split).fraction(NodeId(0)), 0.0);
        assert_eq!(h.locality_row(&split).fraction(NodeId(1)), 1.0);
    }

    /// The locality query before rows: one pass over every block of
    /// `paths` per (set, node) pair. Rows must give its bits.
    fn scan_locality(h: &Hdfs, paths: &[String], node: NodeId) -> f64 {
        let node_alive = h.is_alive(node);
        let mut total = 0u64;
        let mut local = 0u64;
        for meta in paths.iter().filter_map(|p| h.files.get(p)) {
            for block in &meta.blocks {
                if !block.replicas.iter().any(|r| h.alive[r.index()]) {
                    continue;
                }
                total += block.size;
                if node_alive && block.replicas.contains(&node) {
                    local += block.size;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            local as f64 / total as f64
        }
    }

    proptest! {
        /// Rows kept across random creates (including of paths a row
        /// found absent), deletes, node failures, revivals and
        /// re-replications: every row the freshness rule still accepts
        /// scores every node with the scan's bits.
        #[test]
        fn fresh_rows_match_the_scan(
            nodes in 1usize..=6,
            replication in 1u16..=3,
            seed in 0u64..1000,
            ops in proptest::collection::vec((0u8..6, any::<u8>(), any::<u16>()), 1..=60),
        ) {
            let config = HdfsConfig { block_size: 4, replication };
            let mut h = Hdfs::new(nodes, config, seed);
            let path = |k: u8| format!("/p{}", k % 6);
            let mut rows: Vec<(Vec<String>, LocalityRow)> = Vec::new();
            for (step, &(op, a, b)) in ops.iter().enumerate() {
                let node = NodeId(a as u32 % nodes as u32);
                match op {
                    0 => {
                        let _ = h.create(&path(a), b as u64 % 20, NodeId(b as u32 % nodes as u32));
                    }
                    1 => {
                        let _ = h.delete(&path(a));
                    }
                    2 => h.fail_node(node).unwrap(),
                    3 => h.revive_node(node).unwrap(),
                    4 => {
                        let _ = h.re_replicate();
                    }
                    _ => {
                        let paths: Vec<String> =
                            (0..6).filter(|k| b >> k & 1 == 1).map(path).collect();
                        let row = h.locality_row(&paths);
                        rows.push((paths, row));
                    }
                }
                for (paths, row) in rows.iter().filter(|(_, row)| h.is_fresh(row)) {
                    for n in (0..nodes as u32).map(NodeId) {
                        prop_assert_eq!(
                            row.fraction(n).to_bits(),
                            scan_locality(&h, paths, n).to_bits(),
                            "{:?} on {:?} after op {}", paths, n, step
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn delete_frees_space() {
        let mut h = fs(3);
        h.create("/a", 10, NodeId(0)).unwrap();
        let paths = vec!["/a".to_string()];
        assert_eq!(h.locality_row(&paths).fraction(NodeId(0)), 1.0);
        h.delete("/a").unwrap();
        assert_eq!(h.locality_row(&paths).total, 0);
        assert!(!h.exists("/a"));
        assert!(h.delete("/a").is_err());
    }

    #[test]
    fn data_survives_single_node_failure() {
        let mut h = fs(5);
        h.create("/a", 200 << 20, NodeId(0)).unwrap();
        h.fail_node(NodeId(0)).unwrap();
        let plan = h.read_plan("/a", NodeId(0)).unwrap();
        // The failed node's replica is unusable: all bytes come remotely.
        assert_eq!(plan.local_bytes(), 0);
        assert_eq!(plan.remote_bytes(), 200 << 20);
    }

    #[test]
    fn re_replication_restores_factor() {
        let mut h = fs(6);
        h.create("/a", 128 << 20, NodeId(0)).unwrap();
        h.fail_node(NodeId(0)).unwrap();
        let copies = h.re_replicate().unwrap();
        assert!(!copies.is_empty());
        let st = h.status("/a").unwrap();
        for b in &st.blocks {
            assert_eq!(b.replicas.len(), 3);
            assert!(!b.replicas.contains(&NodeId(0)));
        }
        // Total copied bytes equal the lost replica bytes.
        let copied: u64 = copies.iter().map(|(_, _, b)| *b).sum();
        assert_eq!(copied, 128 << 20);
    }

    #[test]
    fn replication_capped_by_cluster_size() {
        let mut h = fs(2);
        h.create("/a", 1, NodeId(0)).unwrap();
        let st = h.status("/a").unwrap();
        assert_eq!(st.blocks[0].replicas.len(), 2);
    }

    #[test]
    fn data_lost_when_all_replicas_dead() {
        let mut h = Hdfs::new(
            2,
            HdfsConfig {
                block_size: 64,
                replication: 2,
            },
            3,
        );
        h.create("/a", 10, NodeId(0)).unwrap();
        h.fail_node(NodeId(0)).unwrap();
        h.fail_node(NodeId(1)).unwrap();
        assert!(matches!(
            h.read_plan("/a", NodeId(0)),
            Err(HdfsError::DataLost(_))
        ));
    }

    #[test]
    fn revive_forgets_old_replicas() {
        let mut h = fs(3);
        h.create("/a", 10, NodeId(0)).unwrap();
        h.fail_node(NodeId(0)).unwrap();
        h.revive_node(NodeId(0)).unwrap();
        let st = h.status("/a").unwrap();
        assert!(!st.blocks[0].replicas.contains(&NodeId(0)));
        assert!(h.is_alive(NodeId(0)));
    }

    #[test]
    fn tracer_counts_cache_hits_reads_and_writes() {
        let mut h = fs(4);
        let tracer = Tracer::enabled();
        h.set_tracer(&tracer);
        h.create("/a", 64 << 20, NodeId(0)).unwrap();
        let paths = vec!["/a".to_string()];
        let mut row = None;
        h.refresh_row(&paths, &mut row); // miss (no row yet)
        h.refresh_row(&paths, &mut row); // hit (nothing changed)
        h.delete("/a").unwrap();
        h.refresh_row(&paths, &mut row); // miss (a replica moved)
        assert_eq!(tracer.counter_value("hdfs.locality_cache_hit"), 1);
        assert_eq!(tracer.counter_value("hdfs.locality_cache_miss"), 2);
        assert_eq!(tracer.counter_value("hdfs.files_created"), 1);
        assert_eq!(tracer.counter_value("hdfs.blocks_written"), 1);
        assert_eq!(tracer.counter_value("hdfs.bytes_written"), 64 << 20);

        h.create("/b", 10 << 20, NodeId(1)).unwrap();
        h.read_plan("/b", NodeId(1)).unwrap();
        assert_eq!(tracer.counter_value("hdfs.reads_planned"), 1);
        assert_eq!(tracer.counter_value("hdfs.bytes_read_local"), 10 << 20);
        assert_eq!(tracer.counter_value("hdfs.bytes_read_remote"), 0);
    }

    #[test]
    fn zero_byte_file_is_representable() {
        let mut h = fs(3);
        h.create("/empty", 0, NodeId(1)).unwrap();
        assert_eq!(h.len("/empty").unwrap(), 0);
        let plan = h.read_plan("/empty", NodeId(2)).unwrap();
        assert_eq!(plan.total_bytes(), 0);
    }

    #[test]
    fn content_digest_is_placement_independent_and_content_sensitive() {
        let mut a = fs(3);
        a.create("/x", 100, NodeId(0)).unwrap();
        let mut b = fs(5); // different cluster, different placement
        b.create("/x", 100, NodeId(3)).unwrap();
        assert_eq!(
            a.content_digest("/x").unwrap(),
            b.content_digest("/x").unwrap(),
            "same logical content digests identically regardless of placement"
        );
        b.delete("/x").unwrap();
        b.create("/x", 101, NodeId(3)).unwrap();
        assert_ne!(
            a.content_digest("/x").unwrap(),
            b.content_digest("/x").unwrap(),
            "size change changes the digest"
        );
        assert!(a.content_digest("/missing").is_err());
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
