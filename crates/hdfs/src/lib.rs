//! # hiway-hdfs — simulated HDFS
//!
//! Hi-WAY stores every workflow input, output, and intermediate file in
//! HDFS and relies on three of its properties (paper §3.1, §3.4):
//!
//! 1. **Replicated block storage** — files are split into blocks, each
//!    stored on `replication` (default 3) DataNodes, so data survives the
//!    crash of a storage node;
//! 2. **Locality metadata** — the data-aware scheduler asks, for every
//!    pending task, what fraction of its input bytes is already present on
//!    the node that just received a free container;
//! 3. **Realistic transfer costs** — reading a block locally touches only
//!    the local disk, while a remote read streams from the remote disk
//!    through both NICs (and the shared switch, when one is configured).
//!
//! This crate implements the NameNode metadata plane (namespace, block
//! placement, replica tracking, failure handling and re-replication)
//! and compiles reads/writes into *plans* of disk and network activities
//! that the caller executes on the [`hiway_sim::Engine`].

pub mod error;
pub mod exec;
pub mod fs;
pub mod plan;

pub use error::HdfsError;
pub use fs::{file_digest, fnv1a64, BlockInfo, FileStatus, Hdfs, HdfsConfig, LocalityRow};
pub use plan::{ReadPlan, ReadSegment, TransferSource, WritePlan};
