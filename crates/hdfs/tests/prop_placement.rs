//! Property tests of the NameNode: placement, locality, and
//! failure-recovery invariants.

use proptest::prelude::*;

use hiway_hdfs::{Hdfs, HdfsConfig};
use hiway_sim::NodeId;

proptest! {
    /// Replica invariants for arbitrary namespaces: replica sets are
    /// duplicate-free, sized `min(replication, alive nodes)`, and the
    /// writer holds the first replica.
    #[test]
    fn placement_invariants(
        nodes in 1usize..12,
        replication in 1u16..5,
        files in proptest::collection::vec((0u64..2_000_000_000, 0u32..12), 1..10),
        seed in 0u64..1000,
    ) {
        let config = HdfsConfig { block_size: 64 << 20, replication };
        let mut fs = Hdfs::new(nodes, config, seed);
        for (i, (size, writer)) in files.iter().enumerate() {
            let writer = NodeId(writer % nodes as u32);
            let path = format!("/f{i}");
            fs.create(&path, *size, writer).expect("fresh path");
            let st = fs.status(&path).expect("exists");
            prop_assert_eq!(st.size, *size);
            let expected_replicas = (replication as usize).min(nodes);
            let total: u64 = st.blocks.iter().map(|b| b.size).sum();
            prop_assert_eq!(total, *size, "block sizes sum to the file size");
            for block in &st.blocks {
                prop_assert_eq!(block.replicas.len(), expected_replicas);
                let mut uniq = block.replicas.clone();
                uniq.sort();
                uniq.dedup();
                prop_assert_eq!(uniq.len(), block.replicas.len(), "duplicate replica");
                prop_assert_eq!(block.replicas[0], writer, "writer holds first replica");
            }
            // Locality bounds.
            let paths = vec![path.clone()];
            for n in 0..nodes {
                let frac = fs.locality_row(&paths).fraction(NodeId(n as u32));
                prop_assert!((0.0..=1.0).contains(&frac));
            }
            if *size > 0 {
                prop_assert_eq!(fs.locality_row(&paths).fraction(writer), 1.0);
            }
        }
    }

    /// Read plans cover exactly the file's bytes, from alive sources only.
    #[test]
    fn read_plans_are_complete(
        nodes in 2usize..10,
        size in 1u64..3_000_000_000,
        seed in 0u64..1000,
    ) {
        let mut fs = Hdfs::new(nodes, HdfsConfig::default(), seed);
        fs.create("/data", size, NodeId(0)).unwrap();
        for reader in 0..nodes {
            let plan = fs.read_plan("/data", NodeId(reader as u32)).unwrap();
            prop_assert_eq!(plan.total_bytes(), size);
            prop_assert_eq!(plan.local_bytes() + plan.remote_bytes(), size);
        }
    }

    /// After any single-node failure, data stays readable and
    /// re-replication restores the full factor on the survivors.
    #[test]
    fn failure_recovery_restores_replication(
        nodes in 4usize..10,
        files in proptest::collection::vec(1u64..500_000_000, 1..6),
        victim in 0u32..10,
        seed in 0u64..1000,
    ) {
        let mut fs = Hdfs::new(nodes, HdfsConfig::default(), seed);
        for (i, size) in files.iter().enumerate() {
            fs.create(&format!("/f{i}"), *size, NodeId(i as u32 % nodes as u32)).unwrap();
        }
        let victim = NodeId(victim % nodes as u32);
        fs.fail_node(victim).unwrap();
        // Everything still readable (replication 3 > 1 failure).
        for i in 0..files.len() {
            let plan = fs.read_plan(&format!("/f{i}"), victim).unwrap();
            prop_assert_eq!(plan.local_bytes(), 0, "dead node serves nothing");
        }
        let copies = fs.re_replicate().unwrap();
        // Copy sources and destinations are alive and distinct.
        for (src, dst, bytes) in &copies {
            prop_assert!(fs.is_alive(*src));
            prop_assert!(fs.is_alive(*dst));
            prop_assert_ne!(src, dst);
            prop_assert!(*bytes > 0);
        }
        // Full replication restored on survivors.
        let expected = 3usize.min(nodes - 1);
        for i in 0..files.len() {
            let st = fs.status(&format!("/f{i}")).unwrap();
            for block in &st.blocks {
                prop_assert_eq!(block.replicas.len(), expected);
                prop_assert!(!block.replicas.contains(&victim));
            }
        }
    }

    /// Deleting every file empties the namespace.
    #[test]
    fn delete_is_accounting_neutral(
        nodes in 1usize..8,
        files in proptest::collection::vec(0u64..1_000_000_000, 1..8),
        seed in 0u64..1000,
    ) {
        let mut fs = Hdfs::new(nodes, HdfsConfig::default(), seed);
        for (i, size) in files.iter().enumerate() {
            fs.create(&format!("/f{i}"), *size, NodeId(0)).unwrap();
        }
        for i in 0..files.len() {
            fs.delete(&format!("/f{i}")).unwrap();
        }
        prop_assert!(fs.is_empty());
    }
}
