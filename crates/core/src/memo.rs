//! Cross-run memoization of completed invocations ("smart rerun").
//!
//! The paper's provenance traces are *re-executable* (§2.2, §3.5); the
//! provenance literature calls the payoff "smart rerun": skip work whose
//! result the store already holds. This module keys every committed
//! invocation by
//!
//! ```text
//! memo key = hash(task signature ‖ canonical digests of staged inputs)
//! ```
//!
//! where the signature is the task name plus its command (what would
//! execute) and the input digests come from
//! [`hiway_hdfs::Hdfs::content_digest`] (placement-independent, stable
//! across processes and runs). A re-submitted or crash-interrupted
//! workflow running with [`crate::HiwayConfig::with_resume`] against a
//! warm store looks each ready task up here first: on a hit the driver
//! materializes the recorded outputs, emits a `memo:hit` span instead of
//! execute phases, and moves on — resuming mid-DAG without re-executing
//! anything the store already witnessed.

use hiway_format::json::Json;
use hiway_provdb::ProvDb;

/// Collection holding one document per committed invocation.
pub const MEMO_COLLECTION: &str = "memo_invocations";

/// FNV-1a 64 over a byte stream — the same digest family the simulated
/// HDFS uses, so keys are stable across processes.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The memo key of an invocation: task signature (name + command — what
/// would run) combined with the canonical digests of its staged inputs,
/// in input-declaration order. Rendered as fixed-width hex so it is a
/// clean indexable string.
pub fn memo_key(name: &str, command: &str, input_digests: &[u64]) -> String {
    let bytes = name
        .as_bytes()
        .iter()
        .copied()
        .chain([0x1f]) // unit separator: "ab"+"c" must differ from "a"+"bc"
        .chain(command.as_bytes().iter().copied())
        .chain(
            input_digests
                .iter()
                .flat_map(|d| d.to_le_bytes().into_iter()),
        );
    format!("{:016x}", fnv1a(bytes))
}

/// A committed invocation recalled from the store.
#[derive(Clone, Debug, PartialEq)]
pub struct MemoHit {
    /// Outputs the invocation committed, `(path, size)` in declaration
    /// order — what the driver materializes instead of executing.
    pub outputs: Vec<(String, u64)>,
    /// Node the original execution ran on (audit detail only).
    pub node: String,
    /// The original execution's makespan — the seconds the hit saves.
    pub saved_secs: f64,
}

/// The memo layer over a (typically durable) provenance database.
pub struct MemoStore {
    db: ProvDb,
}

impl MemoStore {
    pub fn new(db: ProvDb) -> MemoStore {
        db.collection(MEMO_COLLECTION).create_index("key");
        MemoStore { db }
    }

    /// Records a committed invocation. Durable databases have the
    /// document in the WAL before this returns — an AM crash any time
    /// after the output commit leaves a resumable store.
    pub fn record(
        &self,
        key: &str,
        name: &str,
        node: &str,
        outputs: &[(String, u64)],
        makespan: f64,
    ) {
        let outs = Json::Array(
            outputs
                .iter()
                .map(|(path, size)| {
                    Json::object()
                        .with("path", path.as_str())
                        .with("size", *size)
                })
                .collect(),
        );
        let doc = Json::object()
            .with("key", key)
            .with("name", name)
            .with("node", node)
            .with("makespan", makespan)
            .with("outputs", outs);
        self.db.collection(MEMO_COLLECTION).insert(doc);
    }

    /// Latest committed invocation under `key`, if any (indexed lookup).
    pub fn lookup(&self, key: &str) -> Option<MemoHit> {
        // Index hits are in insertion order: the last is the latest record.
        let doc = self
            .db
            .collection(MEMO_COLLECTION)
            .find_eq("key", &Json::from(key))
            .pop()?;
        let outputs = match doc.get("outputs") {
            Some(Json::Array(items)) => items
                .iter()
                .map(|o| {
                    Some((
                        o.get("path")?.as_str()?.to_string(),
                        o.get("size")?.as_u64()?,
                    ))
                })
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        Some(MemoHit {
            outputs,
            node: doc.get("node")?.as_str()?.to_string(),
            saved_secs: doc.get("makespan").and_then(Json::as_f64).unwrap_or(0.0),
        })
    }

    /// Number of memoized invocations in the store.
    pub fn len(&self) -> usize {
        self.db.collection(MEMO_COLLECTION).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_is_sensitive_to_signature_and_digests() {
        let base = memo_key("align", "bwa mem ref.fa", &[1, 2]);
        assert_eq!(base, memo_key("align", "bwa mem ref.fa", &[1, 2]));
        assert_ne!(base, memo_key("align", "bwa mem ref.fa", &[2, 1]));
        assert_ne!(base, memo_key("align", "bwa mem ref.fa", &[1]));
        assert_ne!(base, memo_key("align", "bwa mem alt.fa", &[1, 2]));
        assert_ne!(base, memo_key("sort", "bwa mem ref.fa", &[1, 2]));
        // Name/command boundary is unambiguous.
        assert_ne!(memo_key("ab", "c", &[]), memo_key("a", "bc", &[]));
        assert_eq!(base.len(), 16, "fixed-width hex");
    }

    #[test]
    fn record_then_lookup_round_trips() {
        let store = MemoStore::new(ProvDb::new());
        assert!(store.is_empty());
        let key = memo_key("align", "cmd", &[7]);
        assert_eq!(store.lookup(&key), None);
        store.record(
            &key,
            "align",
            "worker-1",
            &[("/out/a.bam".to_string(), 1024)],
            12.5,
        );
        let hit = store.lookup(&key).expect("recorded");
        assert_eq!(hit.outputs, vec![("/out/a.bam".to_string(), 1024)]);
        assert_eq!(hit.node, "worker-1");
        assert_eq!(hit.saved_secs, 12.5);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn latest_record_wins_and_survives_a_shared_db() {
        let db = ProvDb::new();
        let a = MemoStore::new(db.clone());
        let key = memo_key("t", "c", &[]);
        a.record(&key, "t", "n0", &[("/x".to_string(), 1)], 1.0);
        a.record(&key, "t", "n1", &[("/x".to_string(), 2)], 2.0);
        drop(a);
        let b = MemoStore::new(db); // fresh handle, same store
        let hit = b.lookup(&key).expect("still there");
        assert_eq!(hit.node, "n1", "latest observation wins");
        assert_eq!(hit.outputs[0].1, 2);
    }
}
