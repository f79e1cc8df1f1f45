//! Turns transfer plans into engine activities.
//!
//! A worker container's lifecycle (paper §3.1) is: (i) obtain the task's
//! input data from HDFS, (ii) invoke the task's commands, (iii) store
//! outputs back into HDFS. Steps (i) and (iii) are the plans produced by
//! the NameNode; this module starts the corresponding disk and network
//! activities. Completion tracking (waiting for *all* activities of a
//! stage) is left to the caller, which owns the engine poll loop.

use hiway_sim::{Activity, ActivityId, Endpoint, Engine, NodeId};

use crate::plan::{ReadPlan, TransferSource, WritePlan};

/// Starts all activities of a read (stage-in) plan, tagging each with
/// `tag`. Returns the activity handles; the stage is complete when all of
/// them have completed. Zero-byte plans return no activities.
pub fn start_read<T: Clone>(engine: &mut Engine<T>, plan: &ReadPlan, tag: T) -> Vec<ActivityId> {
    let reader = plan
        .reader
        .expect("read plan must name the reading node to be executable");
    let mut ids = Vec::new();
    for seg in &plan.segments {
        if seg.bytes == 0 {
            continue;
        }
        let act = match seg.source {
            TransferSource::Local => Activity::DiskRead { node: reader },
            TransferSource::Remote(src) => Activity::Flow {
                src: Endpoint::Node(src),
                dst: Endpoint::Node(reader),
                src_disk: true,
                dst_disk: true,
            },
        };
        ids.push(engine.start(act, seg.bytes as f64, tag.clone()));
    }
    ids
}

/// Starts all activities of a write (stage-out) plan: the local replica
/// write plus one pipeline flow per remote replica target.
pub fn start_write<T: Clone>(engine: &mut Engine<T>, plan: &WritePlan, tag: T) -> Vec<ActivityId> {
    let mut ids = Vec::new();
    if plan.local_bytes > 0 {
        ids.push(engine.start(
            Activity::DiskWrite { node: plan.writer },
            plan.local_bytes as f64,
            tag.clone(),
        ));
    }
    for &(target, bytes) in &plan.remote {
        if bytes == 0 {
            continue;
        }
        ids.push(engine.start(
            Activity::Flow {
                src: Endpoint::Node(plan.writer),
                dst: Endpoint::Node(target),
                src_disk: false,
                dst_disk: true,
            },
            bytes as f64,
            tag.clone(),
        ));
    }
    ids
}

/// Starts the flows of a re-replication batch (`(src, dst, bytes)` from
/// [`crate::fs::Hdfs::re_replicate`]).
pub fn start_copies<T: Clone>(
    engine: &mut Engine<T>,
    copies: &[(NodeId, NodeId, u64)],
    tag: T,
) -> Vec<ActivityId> {
    copies
        .iter()
        .filter(|(_, _, b)| *b > 0)
        .map(|&(src, dst, bytes)| {
            engine.start(
                Activity::Flow {
                    src: Endpoint::Node(src),
                    dst: Endpoint::Node(dst),
                    src_disk: true,
                    dst_disk: true,
                },
                bytes as f64,
                tag.clone(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{Hdfs, HdfsConfig};
    use hiway_sim::{ClusterSpec, NodeSpec};

    fn setup(n: usize) -> (Engine<u32>, Hdfs) {
        let spec = ClusterSpec::homogeneous(n, "n", &NodeSpec::m3_large("p"));
        (Engine::new(spec), Hdfs::new(n, HdfsConfig::default(), 11))
    }

    fn drain(engine: &mut Engine<u32>) -> usize {
        let mut fired = 0;
        while let Some(evts) = engine.step() {
            fired += evts.len();
        }
        fired
    }

    #[test]
    fn write_then_local_read_round_trip() {
        let (mut e, mut h) = setup(4);
        let wp = h.create("/data", 180 << 20, NodeId(0)).unwrap();
        let ids = start_write(&mut e, &wp, 1);
        // Local write + pipeline flows to the remote replica holders (the
        // per-block targets are random, so 2 or 3 distinct nodes).
        assert!(ids.len() >= 3 && ids.len() <= 4, "got {}", ids.len());
        assert_eq!(
            wp.remote.iter().map(|&(_, bytes)| bytes).sum::<u64>(),
            2 * (180 << 20),
            "2 remote replicas"
        );
        assert_eq!(drain(&mut e), ids.len());
        let write_done = e.now();
        assert!(write_done.as_secs() > 0.0);

        let rp = h.read_plan("/data", NodeId(0)).unwrap();
        let ids = start_read(&mut e, &rp, 2);
        assert_eq!(ids.len(), 1, "fully local read");
        drain(&mut e);
        // 180 MiB at 220 MB/s disk read ≈ 0.86 s.
        let read_secs = e.now().since(write_done);
        assert!((read_secs - (180 << 20) as f64 / 220.0e6).abs() < 0.05);
    }

    #[test]
    fn remote_read_is_slower_than_local() {
        let (mut e, mut h) = setup(8);
        h.create("/data", 256 << 20, NodeId(1)).unwrap();
        let st = h.status("/data").unwrap();
        let outsider = (0..8)
            .map(NodeId)
            .find(|n| st.blocks.iter().all(|b| !b.replicas.contains(n)))
            .expect("8 nodes, 3 replicas per block");

        // Local read timing.
        let rp_local = h.read_plan("/data", NodeId(1)).unwrap();
        let t0 = e.now();
        start_read(&mut e, &rp_local, 1);
        drain(&mut e);
        let local_secs = e.now().since(t0);

        // Remote read timing (NIC-bound at 87.5 MB/s vs disk 220 MB/s).
        let rp_remote = h.read_plan("/data", outsider).unwrap();
        let t1 = e.now();
        start_read(&mut e, &rp_remote, 2);
        drain(&mut e);
        let remote_secs = e.now().since(t1);
        assert!(
            remote_secs > local_secs * 1.5,
            "remote {remote_secs} vs local {local_secs}"
        );
    }

    #[test]
    fn re_replication_copies_execute() {
        let (mut e, mut h) = setup(5);
        h.create("/data", 64 << 20, NodeId(2)).unwrap();
        h.fail_node(NodeId(2)).unwrap();
        let copies = h.re_replicate().unwrap();
        let ids = start_copies(&mut e, &copies, 9);
        assert_eq!(ids.len(), copies.len());
        assert!(drain(&mut e) >= 1);
    }

    #[test]
    fn empty_plans_start_nothing() {
        let (mut e, mut h) = setup(3);
        h.create("/empty", 0, NodeId(0)).unwrap();
        let rp = h.read_plan("/empty", NodeId(1)).unwrap();
        assert!(start_read(&mut e, &rp, 1).is_empty());
        let wp = h.create("/empty2", 0, NodeId(0)).unwrap();
        assert!(start_write(&mut e, &wp, 2).is_empty());
    }
}
