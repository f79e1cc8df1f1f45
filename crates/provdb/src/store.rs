//! Collections, documents, hash indexes, and the durable engine hookup.
//!
//! A [`ProvDb`] is either **in-memory** (the historical default — state
//! dies with the process) or **durable**: opened on a directory via
//! [`ProvDb::open`], where every mutation is appended to a write-ahead
//! log before the call returns and [`ProvDb::compact`] folds the log into
//! a sorted snapshot segment (see [`crate::wal`], [`crate::segment`],
//! [`crate::recover`]). Both modes expose the identical API; existing
//! in-memory callers compile unchanged.
//!
//! Lock ordering for durable databases: the WAL mutex is always acquired
//! **before** any collection or map lock, by mutators and by compaction
//! alike, so a write's memory update and its log append are atomic with
//! respect to compaction's state capture.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use std::sync::{Mutex, MutexGuard, RwLock};

use hiway_format::json::Json;

use crate::query::{Filter, Query};
use crate::recover::recover;
use crate::segment::{write_snapshot, CollectionImage, DbImage};
use crate::wal::{snap_path, wal_path, DurabilityStats, Record, Wal};

/// Tuning knobs of a durable database.
#[derive(Clone, Copy, Debug)]
pub struct DurableOptions {
    /// WAL segment rotation threshold, in frame bytes. Small values force
    /// frequent rotation (used by tests); the default keeps segments at a
    /// few MiB like a classic log-structured store.
    pub segment_bytes: u64,
}

impl Default for DurableOptions {
    fn default() -> DurableOptions {
        DurableOptions {
            segment_bytes: 4 << 20,
        }
    }
}

/// The durable side of a database: directory + active WAL.
struct DurableEngine {
    dir: PathBuf,
    wal: Wal,
    options: DurableOptions,
}

impl DurableEngine {
    fn append(&mut self, record: &Record) {
        self.wal
            .append(record)
            .expect("provdb WAL append failed (disk error)");
    }
}

/// Shared handle to the durable engine; `None` on in-memory databases.
type Durable = Arc<Mutex<DurableEngine>>;

/// Canonical index key for a scalar JSON value. Non-scalars are not
/// indexable (documents lacking the field, or holding arrays/objects,
/// simply don't appear in the index).
fn index_key(value: &Json) -> Option<String> {
    match value {
        Json::Null => Some("null".to_string()),
        Json::Bool(b) => Some(format!("b:{b}")),
        Json::Number(n) => Some(format!("n:{n}")),
        Json::String(s) => Some(format!("s:{s}")),
        Json::Array(_) | Json::Object(_) => None,
    }
}

#[derive(Default)]
struct CollectionInner {
    docs: Vec<Json>,
    /// field → (key → positions in `docs`)
    indexes: HashMap<String, HashMap<String, Vec<usize>>>,
}

impl CollectionInner {
    fn insert_unlogged(&mut self, doc: Json) -> usize {
        let pos = self.docs.len();
        for (field, index) in &mut self.indexes {
            if let Some(key) = doc.get(field).and_then(index_key) {
                index.entry(key).or_default().push(pos);
            }
        }
        self.docs.push(doc);
        pos
    }

    fn sorted_index_fields(&self) -> Vec<String> {
        let mut fields: Vec<String> = self.indexes.keys().cloned().collect();
        fields.sort();
        fields
    }

    fn build_index(&mut self, field: &str) {
        let mut index: HashMap<String, Vec<usize>> = HashMap::new();
        for (pos, doc) in self.docs.iter().enumerate() {
            if let Some(key) = doc.get(field).and_then(index_key) {
                index.entry(key).or_default().push(pos);
            }
        }
        self.indexes.insert(field.to_string(), index);
    }
}

/// A named collection of JSON documents. Cheap to clone (shared handle).
#[derive(Clone, Default)]
pub struct Collection {
    inner: Arc<RwLock<CollectionInner>>,
    /// `(collection name, engine)` when the parent database is durable.
    durable: Option<(String, Durable)>,
}

impl Collection {
    /// The collection's name and WAL guard, honoring the global lock order
    /// (WAL before collection); `None` on in-memory databases.
    fn wal_guard(&self) -> Option<(&str, MutexGuard<'_, DurableEngine>)> {
        let (name, engine) = self.durable.as_ref()?;
        Some((name, engine.lock().expect("provdb wal lock poisoned")))
    }

    /// Inserts a document, maintaining any existing indexes, and returns
    /// its insertion position (see [`Collection::get`]). On durable
    /// databases the insert is in the WAL before this returns.
    pub fn insert(&self, doc: Json) -> usize {
        let wal = self.wal_guard();
        let serialized = wal.as_ref().map(|_| doc.to_compact());
        let mut inner = self.inner.write().expect("provdb lock poisoned");
        let pos = inner.insert_unlogged(doc);
        drop(inner);
        if let (Some((name, mut engine)), Some(doc)) = (wal, serialized) {
            let collection = name.to_string();
            engine.append(&Record::Insert { collection, doc });
        }
        pos
    }

    /// Builds a hash index over `field`. Idempotent: an already-indexed
    /// field is left untouched (incremental maintenance keeps existing
    /// indexes exact), so re-opening callers don't bloat the WAL.
    pub fn create_index(&self, field: &str) {
        let wal = self.wal_guard();
        {
            let mut inner = self.inner.write().expect("provdb lock poisoned");
            if inner.indexes.contains_key(field) {
                return;
            }
            inner.build_index(field);
        }
        if let Some((name, mut engine)) = wal {
            let (collection, field) = (name.to_string(), field.to_string());
            engine.append(&Record::Index { collection, field });
        }
    }

    /// Fields with a hash index, sorted — persisted by durable snapshots
    /// so reopened databases keep serving indexed lookups.
    pub fn index_fields(&self) -> Vec<String> {
        self.inner
            .read()
            .expect("provdb lock poisoned")
            .sorted_index_fields()
    }

    pub fn len(&self) -> usize {
        self.inner.read().expect("provdb lock poisoned").docs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the document at insertion position `pos`. The store is
    /// append-only, so a position stays valid for the collection's life.
    pub fn get(&self, pos: usize) -> Option<Json> {
        self.with_docs(|docs| docs.get(pos).cloned())
    }

    /// Exact-match lookup, served from the index when one exists.
    pub fn find_eq(&self, field: &str, value: &Json) -> Vec<Json> {
        let inner = self.inner.read().expect("provdb lock poisoned");
        if let (Some(index), Some(key)) = (inner.indexes.get(field), index_key(value)) {
            return index
                .get(&key)
                .map(|positions| positions.iter().map(|&p| inner.docs[p].clone()).collect())
                .unwrap_or_default();
        }
        inner
            .docs
            .iter()
            .filter(|d| d.get(field) == Some(value))
            .cloned()
            .collect()
    }

    /// Starts a filtered query (scan-based; composes multiple predicates).
    /// The query reads the live collection when it runs and clones only
    /// the documents it returns.
    pub fn query(&self) -> Query {
        Query::new(self.clone())
    }

    /// Runs `read` over every document, in insertion order, under the
    /// read lock. `read` must not write to this collection.
    pub(crate) fn with_docs<R>(&self, read: impl FnOnce(&[Json]) -> R) -> R {
        read(&self.inner.read().expect("provdb lock poisoned").docs)
    }

    /// Visits the documents from insertion position `start` on, in
    /// insertion order, without cloning them, and returns the collection's
    /// length — the `start` of the next call. The store is append-only, so
    /// a reader that keeps this cursor sees every document exactly once,
    /// whoever inserted it. `visit` runs under the read lock and must not
    /// write to this collection.
    pub fn visit_from(&self, start: usize, mut visit: impl FnMut(&Json)) -> usize {
        self.with_docs(|docs| {
            docs.iter().skip(start).for_each(&mut visit);
            docs.len()
        })
    }

    /// A point-in-time copy of all documents.
    pub fn snapshot(&self) -> Vec<Json> {
        self.inner
            .read()
            .expect("provdb lock poisoned")
            .docs
            .clone()
    }

    /// Scan with an arbitrary filter (used by [`Query`] internally too).
    pub fn scan(&self, filter: &Filter) -> Vec<Json> {
        self.with_docs(|docs| docs.iter().filter(|d| filter.matches(d)).cloned().collect())
    }
}

/// The database: a set of named collections, optionally durable.
#[derive(Clone, Default)]
pub struct ProvDb {
    collections: Arc<RwLock<HashMap<String, Collection>>>,
    durable: Option<Durable>,
}

impl ProvDb {
    /// An in-memory database (state dies with the process).
    pub fn new() -> ProvDb {
        ProvDb::default()
    }

    /// Opens (or creates) a durable database rooted at `path`, recovering
    /// collections, documents, **and index definitions** from the newest
    /// snapshot segment plus the WAL. A torn WAL tail — a crash mid-append
    /// or any byte-truncation of the log — is silently truncated; the
    /// recovered state is always a prefix of the committed writes.
    pub fn open(path: impl AsRef<Path>) -> Result<ProvDb, String> {
        ProvDb::open_with(path, DurableOptions::default())
    }

    /// [`ProvDb::open`] with explicit tuning (small `segment_bytes` forces
    /// WAL rotation; tests use it to cover multi-segment recovery).
    pub fn open_with(path: impl AsRef<Path>, options: DurableOptions) -> Result<ProvDb, String> {
        let dir = path.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| format!("provdb dir {dir:?}: {e}"))?;
        let recovered = recover(&dir).map_err(|e| format!("provdb recovery in {dir:?}: {e}"))?;
        let wal = Wal::create(&dir, recovered.next_seq, options.segment_bytes)
            .map_err(|e| format!("provdb WAL create in {dir:?}: {e}"))?;
        let engine: Durable = Arc::new(Mutex::new(DurableEngine { dir, wal, options }));
        let mut map = HashMap::new();
        for (name, image) in recovered.image {
            let mut inner = CollectionInner::default();
            for doc in &image.docs {
                let parsed = Json::parse(doc).map_err(|e| {
                    format!("provdb: unreadable document in collection {name}: {e}")
                })?;
                inner.docs.push(parsed);
            }
            for field in &image.index_fields {
                inner.build_index(field);
            }
            map.insert(
                name.clone(),
                Collection {
                    inner: Arc::new(RwLock::new(inner)),
                    durable: Some((name, engine.clone())),
                },
            );
        }
        Ok(ProvDb {
            collections: Arc::new(RwLock::new(map)),
            durable: Some(engine),
        })
    }

    /// The durable directory, if any.
    pub fn path(&self) -> Option<PathBuf> {
        self.durable
            .as_ref()
            .map(|e| e.lock().expect("provdb wal lock poisoned").dir.clone())
    }

    /// WAL/compaction counters since this handle opened (zeros for
    /// in-memory databases).
    pub fn stats(&self) -> DurabilityStats {
        self.durable
            .as_ref()
            .map(|e| e.lock().expect("provdb wal lock poisoned").wal.stats)
            .unwrap_or_default()
    }

    /// Gets or creates a collection. Creation on a durable database is
    /// logged, so empty collections survive restarts.
    pub fn collection(&self, name: &str) -> Collection {
        // Lock order: WAL mutex before the collections map.
        let mut wal = self
            .durable
            .as_ref()
            .map(|e| e.lock().expect("provdb wal lock poisoned"));
        let mut map = self.collections.write().expect("provdb lock poisoned");
        if let Some(existing) = map.get(name) {
            return existing.clone();
        }
        let col = Collection {
            inner: Arc::default(),
            durable: self.durable.as_ref().map(|e| (name.to_string(), e.clone())),
        };
        map.insert(name.to_string(), col.clone());
        if let Some(engine) = wal.as_deref_mut() {
            engine.append(&Record::Collection {
                name: name.to_string(),
            });
        }
        col
    }

    pub fn collection_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .collections
            .read()
            .expect("provdb lock poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// The full state as a snapshot image: collections in name order,
    /// each with its sorted index fields and its documents as compact
    /// JSON. This is what [`ProvDb::compact`] writes and what recovery
    /// reads back. Each collection is captured under its own read lock;
    /// a capture consistent across collections needs writers quiescent,
    /// or the WAL lock held as `compact` does.
    pub fn image(&self) -> DbImage {
        let map = self.collections.read().expect("provdb lock poisoned");
        let mut names: Vec<&String> = map.keys().collect();
        names.sort();
        names
            .into_iter()
            .map(|name| {
                let inner = map[name].inner.read().expect("provdb lock poisoned");
                let image = CollectionImage {
                    index_fields: inner.sorted_index_fields(),
                    docs: inner.docs.iter().map(Json::to_compact).collect(),
                };
                (name.clone(), image)
            })
            .collect()
    }

    /// Deterministic, explicit compaction: folds the WAL (and any previous
    /// snapshot) into a single sorted snapshot segment, then deletes the
    /// superseded files — tombstone-free GC, since the store is
    /// append-only. No background thread: the caller picks the moment.
    /// No-op on in-memory databases.
    pub fn compact(&self) -> Result<(), String> {
        let Some(engine) = self.durable.as_ref() else {
            return Ok(());
        };
        let mut engine = engine.lock().expect("provdb wal lock poisoned");
        // Capture the image under the WAL lock: every mutator also holds
        // it, so the capture is consistent across collections.
        let image = self.image();
        let old_wal_seq = engine.wal.seq;
        let snap_seq = old_wal_seq + 1;
        write_snapshot(&engine.dir, snap_seq, &image)
            .map_err(|e| format!("provdb snapshot: {e}"))?;
        // GC: WAL segments folded into the snapshot, and older snapshots.
        for seq in 1..=old_wal_seq {
            let _ = std::fs::remove_file(wal_path(&engine.dir, seq));
            let _ = std::fs::remove_file(snap_path(&engine.dir, seq));
        }
        let stats = engine.wal.stats;
        let dir = engine.dir.clone();
        let segment_bytes = engine.options.segment_bytes;
        engine.wal = Wal::create(&dir, snap_seq + 1, segment_bytes)
            .map_err(|e| format!("provdb WAL rotate after compaction: {e}"))?;
        engine.wal.stats = stats;
        engine.wal.stats.compactions += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(task: &str, node: &str, runtime: f64) -> Json {
        Json::object()
            .with("task", task)
            .with("node", node)
            .with("runtime", runtime)
    }

    #[test]
    fn insert_and_get() {
        let c = Collection::default();
        assert_eq!(c.insert(doc("align", "n0", 12.5)), 0);
        assert_eq!(c.clone().insert(doc("sort", "n1", 1.0)), 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(0), Some(doc("align", "n0", 12.5)));
        assert_eq!(c.get(1), c.snapshot().pop());
        assert_eq!(c.get(2), None);
    }

    #[test]
    fn find_eq_without_index_scans() {
        let c = Collection::default();
        c.insert(doc("align", "n0", 1.0));
        c.insert(doc("sort", "n0", 2.0));
        c.insert(doc("align", "n1", 3.0));
        let hits = c.find_eq("task", &Json::String("align".into()));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn index_serves_lookups_and_tracks_inserts() {
        let c = Collection::default();
        c.insert(doc("align", "n0", 1.0));
        c.create_index("task");
        c.insert(doc("align", "n1", 2.0)); // inserted after index creation
        c.insert(doc("sort", "n0", 3.0));
        let hits = c.find_eq("task", &Json::String("align".into()));
        assert_eq!(hits.len(), 2);
        let miss = c.find_eq("task", &Json::String("nothing".into()));
        assert!(miss.is_empty());
    }

    #[test]
    fn visit_from_sees_each_document_once_in_insertion_order() {
        let c = Collection::default();
        c.insert(doc("align", "n0", 1.0));
        c.insert(doc("sort", "n1", 2.0));
        let mut seen = Vec::new();
        let runtime = |d: &Json| d.get("runtime").and_then(Json::as_f64).unwrap();
        let cursor = c.visit_from(0, |d| seen.push(runtime(d)));
        assert_eq!((cursor, seen.as_slice()), (2, &[1.0, 2.0][..]));
        // Another handle inserts; the cursor picks up only the new one.
        c.clone().insert(doc("align", "n1", 3.0));
        let cursor = c.visit_from(cursor, |d| seen.push(runtime(d)));
        assert_eq!((cursor, seen.as_slice()), (3, &[1.0, 2.0, 3.0][..]));
        assert_eq!(c.visit_from(cursor, |_| panic!("nothing new")), 3);
        assert_eq!(c.visit_from(99, |_| panic!("past the end")), 3);
    }

    #[test]
    fn query_sees_documents_inserted_after_it_was_built() {
        let c = Collection::default();
        let q = c.query().filter("task", crate::Op::Eq, "align");
        c.insert(doc("align", "n0", 4.0));
        assert_eq!(q.last().and_then(|d| d.get("runtime")?.as_f64()), Some(4.0));
    }

    #[test]
    fn index_distinguishes_types() {
        let c = Collection::default();
        c.insert(Json::object().with("v", 1u64));
        c.insert(Json::object().with("v", "1"));
        c.create_index("v");
        assert_eq!(c.find_eq("v", &Json::Number(1.0)).len(), 1);
        assert_eq!(c.find_eq("v", &Json::String("1".into())).len(), 1);
    }

    #[test]
    fn db_collections_are_shared_handles() {
        let db = ProvDb::new();
        let a = db.collection("tasks");
        a.insert(doc("x", "n0", 1.0));
        let b = db.collection("tasks");
        assert_eq!(b.len(), 1, "same underlying collection");
        db.collection("files");
        assert_eq!(
            db.collection_names(),
            vec!["files".to_string(), "tasks".to_string()]
        );
    }

    #[test]
    fn concurrent_inserts_are_safe() {
        let c = Collection::default();
        c.create_index("task");
        let mut handles = Vec::new();
        for t in 0..4 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    c.insert(doc(&format!("t{t}"), &format!("n{i}"), i as f64));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.len(), 400);
        assert_eq!(c.find_eq("task", &Json::String("t2".into())).len(), 100);
    }
}

#[cfg(test)]
mod durable_tests {
    use super::*;
    use crate::segment::read_snapshot;

    #[test]
    fn durable_round_trip_across_reopen() {
        let dir = crate::test_dir("store_reopen");
        {
            let db = ProvDb::open(&dir).unwrap();
            assert!(db.durable.is_some());
            assert_eq!(db.path().unwrap(), dir);
            let tasks = db.collection("tasks");
            tasks.create_index("name");
            tasks.insert(Json::object().with("name", "a").with("rt", 1.5));
            tasks.insert(Json::object().with("name", "b").with("rt", 2.5));
            db.collection("empty"); // must survive despite zero documents
            assert_eq!(db.stats().wal_records, 5);
        }
        let db = ProvDb::open(&dir).unwrap();
        assert_eq!(
            db.collection_names(),
            vec!["empty".to_string(), "tasks".to_string()]
        );
        let tasks = db.collection("tasks");
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks.index_fields(), vec!["name".to_string()]);
        assert_eq!(tasks.find_eq("name", &Json::String("a".into())).len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The image in the directory's one snapshot segment, asserting that
    /// compaction left exactly one snapshot and one (fresh) WAL segment.
    fn only_snapshot(dir: &Path) -> DbImage {
        let mut snaps = Vec::new();
        let mut wals = 0;
        for e in std::fs::read_dir(dir).unwrap() {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().to_string();
            if name.starts_with("snap-") {
                snaps.push(path);
            } else if name.starts_with("wal-") {
                wals += 1;
            }
        }
        assert_eq!((snaps.len(), wals), (1, 1));
        read_snapshot(&snaps[0])
            .unwrap()
            .expect("snapshot reads back")
    }

    #[test]
    fn compaction_preserves_state_and_gcs_wal() {
        let dir = crate::test_dir("store_compact");
        let image = {
            let db = ProvDb::open_with(
                &dir,
                DurableOptions {
                    segment_bytes: 128, // force rotation every few records
                },
            )
            .unwrap();
            let t = db.collection("t");
            t.create_index("i");
            for i in 0..50u64 {
                t.insert(Json::object().with("i", i));
            }
            assert!(db.stats().wal_rotations > 0, "tiny segments must rotate");
            db.compact().unwrap();
            assert_eq!(db.stats().compactions, 1);
            assert_eq!(only_snapshot(&dir), db.image());
            // Writes after compaction land in the fresh WAL.
            t.insert(Json::object().with("i", 50u64));
            db.image()
        };
        let db = ProvDb::open(&dir).unwrap();
        assert_eq!(db.collection("t").len(), 51);
        assert_eq!(db.collection("t").index_fields(), vec!["i".to_string()]);
        assert_eq!(db.image(), image);
        // Compacting twice is idempotent on state.
        db.compact().unwrap();
        db.compact().unwrap();
        assert_eq!(only_snapshot(&dir), image);
        let db2 = ProvDb::open(&dir).unwrap();
        assert_eq!(db2.image(), image);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression: every `open` starts a fresh WAL segment, so a store
    /// reopened N times has N generations of segments. Recovery must
    /// seal each accepted tail — otherwise the next recovery mistakes an
    /// old generation's unsealed tail for the end of the log and drops
    /// every later generation's writes.
    #[test]
    fn writes_survive_many_reopen_generations() {
        let dir = crate::test_dir("store_generations");
        for gen in 0..4u64 {
            let db = ProvDb::open(&dir).unwrap();
            let t = db.collection("t");
            assert_eq!(t.len() as u64, gen, "all prior generations visible");
            t.insert(Json::object().with("gen", gen));
        }
        let db = ProvDb::open(&dir).unwrap();
        let docs = db.collection("t").snapshot();
        let gens: Vec<u64> = docs
            .iter()
            .map(|d| d.get("gen").and_then(Json::as_u64).unwrap())
            .collect();
        assert_eq!(gens, vec![0, 1, 2, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn in_memory_db_reports_no_durability() {
        let db = ProvDb::new();
        assert!(db.durable.is_none());
        assert_eq!(db.path(), None);
        assert_eq!(db.stats(), DurabilityStats::default());
        db.compact().unwrap(); // no-op, not an error
    }

    #[test]
    fn concurrent_durable_inserts_are_safe_and_recoverable() {
        let dir = crate::test_dir("store_concurrent");
        {
            let db = ProvDb::open(&dir).unwrap();
            let c = db.collection("t");
            c.create_index("task");
            let mut handles = Vec::new();
            for t in 0..4 {
                let c = c.clone();
                handles.push(std::thread::spawn(move || {
                    for i in 0..50 {
                        c.insert(
                            Json::object()
                                .with("task", format!("t{t}"))
                                .with("i", i as u64),
                        );
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(c.len(), 200);
        }
        let db = ProvDb::open(&dir).unwrap();
        let c = db.collection("t");
        assert_eq!(c.len(), 200);
        assert_eq!(c.find_eq("task", &Json::String("t2".into())).len(), 50);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
