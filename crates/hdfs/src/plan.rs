//! Transfer plans: the NameNode's answer to "how do I move these bytes?".
//!
//! Plans are pure data. The metadata plane ([`crate::fs::Hdfs`]) computes
//! them; [`crate::exec`] (or the worker-container layer in `hiway-core`)
//! turns them into engine activities. Keeping the two apart makes the
//! placement logic trivially testable.

use hiway_sim::NodeId;

/// Where a read segment's bytes come from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransferSource {
    /// A replica on the reading node itself — local disk only.
    Local,
    /// A replica on another DataNode — remote disk, both NICs, switch.
    Remote(NodeId),
}

/// A contiguous amount of data served from one source during a read.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReadSegment {
    pub source: TransferSource,
    pub bytes: u64,
}

/// The plan for reading one file onto one node. Segments from different
/// sources proceed concurrently, as HDFS client streams do in practice.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReadPlan {
    pub path: String,
    pub reader: Option<NodeId>,
    pub segments: Vec<ReadSegment>,
}

impl ReadPlan {
    pub fn total_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum()
    }

    pub fn local_bytes(&self) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.source == TransferSource::Local)
            .map(|s| s.bytes)
            .sum()
    }

    pub fn remote_bytes(&self) -> u64 {
        self.total_bytes() - self.local_bytes()
    }
}

/// The plan for writing one file from one node: the full size goes to the
/// local disk (first replica) and to each pipeline target (further
/// replicas, one flow per target node).
#[derive(Clone, Debug, PartialEq)]
pub struct WritePlan {
    pub path: String,
    pub writer: NodeId,
    /// Bytes written to the writer's own disk (0 if the writer is not a
    /// DataNode or the first replica landed elsewhere).
    pub local_bytes: u64,
    /// (target node, bytes) for each remote replica.
    pub remote: Vec<(NodeId, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_plan_byte_accounting() {
        let plan = ReadPlan {
            path: "/x".into(),
            reader: Some(NodeId(0)),
            segments: vec![
                ReadSegment {
                    source: TransferSource::Local,
                    bytes: 100,
                },
                ReadSegment {
                    source: TransferSource::Remote(NodeId(1)),
                    bytes: 50,
                },
                ReadSegment {
                    source: TransferSource::Remote(NodeId(2)),
                    bytes: 25,
                },
            ],
        };
        assert_eq!(plan.total_bytes(), 175);
        assert_eq!(plan.local_bytes(), 100);
        assert_eq!(plan.remote_bytes(), 75);
    }
}
