//! Property battery for the durable storage engine.
//!
//! Two invariants from the durability design:
//!
//! 1. **Byte-determinism**: any sequence of operations (unicode documents,
//!    escapes, nested values; collection creation; index definitions;
//!    compaction at an arbitrary point) survives close-and-reopen with an
//!    identical `ProvDb::image` (names, index specs, compact documents),
//!    across WAL segment rotations.
//! 2. **Prefix recovery**: truncating the on-disk log at *any* byte
//!    offset, `ProvDb::open` succeeds (no panic, no partial record) and
//!    the recovered state equals the state after some prefix of the
//!    committed writes.
//!
//! Run with `PROPTEST_CASES=4000` in nightly CI for a deep sweep.

use proptest::prelude::*;

use hiway_format::json::Json;
use hiway_provdb::segment::DbImage;
use hiway_provdb::{DurableOptions, ProvDb};

/// Unique scratch directory per test case.
fn scratch(tag: &str, case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hiway-provdb-prop-{}-{tag}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Bounded arbitrary JSON documents: unicode, escapes, nesting.
fn arb_doc() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        (-1.0e9f64..1.0e9).prop_map(|n| Json::Number((n * 100.0).round() / 100.0)),
        "[a-zA-Z0-9 _/.:\\\\\"\n\t\u{e9}\u{4e16}\u{1f600}]{0,12}".prop_map(Json::String),
    ];
    leaf.prop_recursive(2, 12, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Json::Array),
            proptest::collection::vec(("[a-z]{1,6}", inner), 0..4).prop_map(|pairs| {
                let mut seen = std::collections::HashSet::new();
                Json::Object(
                    pairs
                        .into_iter()
                        .filter(|(k, _)| seen.insert(k.clone()))
                        .map(|(k, v)| (k.into(), v))
                        .collect(),
                )
            }),
        ]
    })
}

/// One logical operation against the database.
#[derive(Clone, Debug)]
enum DbOp {
    Insert { collection: usize, doc: Json },
    Index { collection: usize, field: String },
}

const COLLECTIONS: [&str; 3] = ["tasks", "files", "workflow_\u{e9}vents"];

fn arb_ops() -> impl Strategy<Value = Vec<DbOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..COLLECTIONS.len(), arb_doc())
                .prop_map(|(collection, doc)| DbOp::Insert { collection, doc }),
            (0usize..COLLECTIONS.len(), "[a-c]{1}")
                .prop_map(|(collection, field)| DbOp::Index { collection, field }),
        ],
        1..12,
    )
}

fn apply(db: &ProvDb, op: &DbOp) {
    match op {
        DbOp::Insert { collection, doc } => {
            db.collection(COLLECTIONS[*collection]).insert(doc.clone());
        }
        DbOp::Index { collection, field } => {
            db.collection(COLLECTIONS[*collection]).create_index(field);
        }
    }
}

/// `image` after applying each prefix of `ops` to a fresh in-memory
/// database — the reference states the recovered database must be among.
fn prefix_images(ops: &[DbOp]) -> Vec<DbImage> {
    // Record-level granularity: a first touch of a collection is its own
    // committed write (the WAL logs it separately from the insert that
    // triggered it), so it contributes its own prefix state.
    let db = ProvDb::new();
    let mut images = vec![db.image()];
    for op in ops {
        let name = COLLECTIONS[match op {
            DbOp::Insert { collection, .. } | DbOp::Index { collection, .. } => *collection,
        }];
        if !db.collection_names().contains(&name.to_string()) {
            db.collection(name);
            images.push(db.image());
        }
        let before = db.image();
        apply(&db, op);
        let after = db.image();
        if after != before {
            images.push(after);
        }
    }
    images
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Invariant 1: close-and-reopen is identical, with segment
    /// rotation forced and compaction at an arbitrary point.
    #[test]
    fn reopen_is_byte_identical(
        (ops, case, segment_bytes, compact_at) in (
            arb_ops(),
            0u64..u64::MAX,
            64u64..512,
            0usize..12,
        )
    ) {
        let dir = scratch("reopen", case);
        let expected = {
            let db = ProvDb::open_with(&dir, DurableOptions { segment_bytes })
                .expect("open fresh");
            for (i, op) in ops.iter().enumerate() {
                if i == compact_at % ops.len().max(1) {
                    db.compact().expect("compact mid-stream");
                }
                apply(&db, op);
            }
            db.image()
        };
        {
            let reopened = ProvDb::open(&dir).expect("reopen");
            // The image carries index definitions, not just documents.
            prop_assert_eq!(reopened.image(), expected.clone(), "reopen");
            reopened.compact().expect("compact at quiesce");
        }
        let again = ProvDb::open(&dir).expect("reopen after compaction");
        prop_assert_eq!(again.image(), expected, "post-compaction reopen");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Invariant 2: truncating the log at ANY byte offset recovers
    /// exactly a prefix of the committed writes.
    #[test]
    fn any_truncation_recovers_a_prefix(
        (ops, case, segment_bytes, cut_seed) in (
            arb_ops(),
            0u64..u64::MAX,
            64u64..512,
            0u64..u64::MAX,
        )
    ) {
        let dir = scratch("truncate", case);
        {
            let db = ProvDb::open_with(&dir, DurableOptions { segment_bytes })
                .expect("open fresh");
            for op in &ops {
                apply(&db, op);
            }
        }
        // Pick a byte offset across the concatenated WAL segments.
        let mut segments: Vec<(String, u64)> = std::fs::read_dir(&dir)
            .expect("list dir")
            .map(|e| e.expect("entry"))
            .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
            .map(|e| {
                (
                    e.path().to_string_lossy().to_string(),
                    e.metadata().expect("meta").len(),
                )
            })
            .collect();
        segments.sort();
        let total: u64 = segments.iter().map(|(_, len)| len).sum();
        let cut = cut_seed % (total + 1);
        let mut remaining = cut;
        for (path, len) in &segments {
            if remaining < *len {
                let f = std::fs::OpenOptions::new()
                    .write(true)
                    .open(path)
                    .expect("open segment");
                f.set_len(remaining).expect("truncate");
                break;
            }
            remaining -= len;
        }
        // Recovery must succeed and land on a committed-write prefix.
        // (Segments after the cut are intentionally left in place:
        // recovery itself must drop them to preserve the invariant.)
        let recovered = ProvDb::open(&dir).expect("recovery never fails");
        let image = recovered.image();
        let prefixes = prefix_images(&ops);
        prop_assert!(
            prefixes.contains(&image),
            "recovered state is not a prefix of committed writes\n cut {} of {}\n got:\n{:?}",
            cut,
            total,
            image
        );
        // Idempotence: recovering again reproduces the same state.
        drop(recovered);
        let again = ProvDb::open(&dir).expect("second recovery");
        prop_assert_eq!(again.image(), image);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
