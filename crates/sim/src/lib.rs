//! # hiway-sim — discrete-event cluster simulation kernel
//!
//! This crate is the hardware substrate of the Hi-WAY reproduction. The
//! original system (Bux et al., EDBT 2017) executed workflows on real
//! Hadoop clusters; here, nodes, disks, NICs, and the datacenter switch are
//! simulated so that the Hi-WAY application-master logic, the HDFS-like
//! block store, and the YARN-like resource manager can run unmodified on a
//! laptop while preserving the performance phenomena the paper's evaluation
//! depends on (network-bound scaling, local-SSD vs network-attached storage,
//! heterogeneous node performance under synthetic stress).
//!
//! The kernel is *rate-based*: every ongoing piece of work is an
//! [`engine::Activity`] with a remaining volume (CPU-seconds, bytes) and a
//! dynamically recomputed rate. Rates come from three fair-sharing models:
//!
//! * **CPU** — per-node max-min fair processor sharing with per-activity
//!   thread caps ([`cpufair`]),
//! * **disk** — per-node equal sharing among active streams,
//! * **network** — flow-level max-min fairness over a star topology with
//!   per-NIC, per-external-service, and optional switch-aggregate capacity
//!   constraints ([`netfair`]).
//!
//! The engine advances virtual time to the next activity completion or timer
//! and returns the tags of what fired to the caller (poll-based — the kernel
//! never calls back into user code, which keeps ownership simple and the
//! simulation deterministic). All randomness is injected through a single
//! seeded RNG owned by the caller.

pub mod cpufair;
pub mod engine;
pub mod metrics;
pub mod netfair;
#[doc(hidden)]
pub mod reference;
pub mod spec;
pub mod stress;
pub mod time;

pub use engine::{Activity, ActivityId, Endpoint, Engine};
pub use metrics::{NodeUsage, UsageSample};
pub use spec::{ClusterSpec, ExternalId, ExternalSpec, NodeId, NodeSpec};
pub use time::SimTime;
