//! # hiway-provdb — an embedded document store for provenance data
//!
//! Hi-WAY's Provenance Manager stores JSON trace events either as files in
//! HDFS or — "to cope with such high volumes of data" on heavily used
//! installations — in a MySQL or Couchbase database, which "brings the
//! added benefit of facilitating manual queries and aggregation" (paper
//! §3.5). Neither database is in this reproduction's dependency budget, so
//! this crate provides the moral equivalent: an embedded, thread-safe,
//! schemaless document store with
//!
//! * named collections of JSON documents,
//! * hash indexes over scalar fields (built eagerly, maintained on insert),
//! * a small filter/projection query API, and
//! * aggregation over the matches (count / sum / avg / min / max).
//!
//! The Workflow Scheduler's statistics lookups (latest observed runtime of
//! a task signature on a machine, file sizes, transfer times — §3.4) are
//! expressed as queries against this store in `hiway-core`.
//!
//! Since the durability PR the store also has a disk engine: an
//! append-only, CRC-framed write-ahead log with segment rotation
//! ([`wal`]), explicit compaction into sorted snapshot segments
//! ([`segment`]), and crash-consistent recovery that truncates torn tails
//! and reconstructs collections *and index definitions* ([`recover`]).
//! [`ProvDb::open`] returns a database whose every mutation is logged
//! before the call returns; [`ProvDb::new`] keeps the historical volatile
//! behavior.

pub mod query;
pub mod recover;
pub mod segment;
pub mod store;
pub mod wal;

pub use query::{Aggregate, Filter, Op};
pub use store::{Collection, DurableOptions, ProvDb};
pub use wal::DurabilityStats;

/// Unique scratch directory for this crate's tests.
#[cfg(test)]
pub(crate) fn test_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hiway-provdb-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}
