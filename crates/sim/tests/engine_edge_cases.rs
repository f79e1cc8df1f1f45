//! Edge-case tests for the simulation kernel beyond the in-module units.

use hiway_sim::{Activity, ClusterSpec, Endpoint, Engine, ExternalSpec, NodeId, NodeSpec, SimTime};

fn cluster(n: usize) -> ClusterSpec {
    ClusterSpec::homogeneous(n, "n", &NodeSpec::m3_large("p"))
}

#[test]
fn empty_engine_has_nothing_to_do() {
    let mut e: Engine<u8> = Engine::new(cluster(1));
    assert!(e.peek_next_time().is_none());
    assert!(e.step().is_none());
    assert_eq!(e.now(), SimTime::ZERO);
}

#[test]
fn advance_without_activities_moves_the_clock_only() {
    let mut e: Engine<u8> = Engine::new(cluster(2));
    e.watch_usage(NodeId(0));
    e.advance_to(SimTime::from_secs(10.0));
    assert_eq!(e.now().as_secs(), 10.0);
    let u = e.take_usage(NodeId(0));
    assert_eq!(u.elapsed, 10.0);
    assert_eq!(u.core_seconds, 0.0);
}

#[test]
fn zero_volume_activity_completes_immediately() {
    let mut e: Engine<u8> = Engine::new(cluster(1));
    e.start(Activity::DiskRead { node: NodeId(0) }, 0.0, 1);
    let fired = e.step().expect("fires");
    assert_eq!(fired.len(), 1);
    assert_eq!(e.now(), SimTime::ZERO);
}

#[test]
fn many_concurrent_flows_conserve_bytes() {
    // 16 node-to-node flows through a constrained switch: total volume
    // must drain in exactly total/switch time regardless of fairness.
    let mut spec = cluster(8);
    spec.switch_bps = Some(100.0e6);
    let mut e: Engine<u32> = Engine::new(spec);
    let per_flow = 50.0e6;
    for i in 0..16u32 {
        e.start(
            Activity::Flow {
                src: Endpoint::Node(NodeId(i % 8)),
                dst: Endpoint::Node(NodeId((i + 1) % 8)),
                src_disk: false,
                dst_disk: false,
            },
            per_flow,
            i,
        );
    }
    let mut fired = 0;
    while let Some(evts) = e.step() {
        fired += evts.len();
    }
    assert_eq!(fired, 16);
    let expected = 16.0 * per_flow / 100.0e6;
    assert!(
        (e.now().as_secs() - expected).abs() < 0.5,
        "switch-bound drain time: {} vs {expected}",
        e.now()
    );
}

#[test]
fn duplex_nic_carries_both_directions() {
    // A->B and B->A simultaneously: full-duplex NICs let both run at the
    // full 87.5 MB/s rather than sharing.
    let mut e: Engine<u8> = Engine::new(cluster(2));
    for (s, d, tag) in [(0, 1, 1u8), (1, 0, 2u8)] {
        e.start(
            Activity::Flow {
                src: Endpoint::Node(NodeId(s)),
                dst: Endpoint::Node(NodeId(d)),
                src_disk: false,
                dst_disk: false,
            },
            87.5e6,
            tag,
        );
    }
    let fired = e.step().expect("both finish together");
    assert_eq!(fired.len(), 2);
    assert!((e.now().as_secs() - 1.0).abs() < 1e-3, "{}", e.now());
}

#[test]
fn external_aggregate_is_shared_across_flows() {
    let mut spec = cluster(4);
    let ebs = spec.add_external(ExternalSpec {
        name: "vol".into(),
        aggregate_bps: 100.0e6,
        per_flow_bps: None,
        via_switch: false,
    });
    let mut e: Engine<u8> = Engine::new(spec);
    for i in 0..4u8 {
        e.start(
            Activity::Flow {
                src: Endpoint::External(ebs),
                dst: Endpoint::Node(NodeId(i as u32)),
                src_disk: false,
                dst_disk: false,
            },
            25.0e6,
            i,
        );
    }
    // 4 × 25 MB through a 100 MB/s service: 1 second.
    while e.step().is_some() {}
    assert!((e.now().as_secs() - 1.0).abs() < 1e-3, "{}", e.now());
}

#[test]
fn cancelling_mid_flight_preserves_remaining_work_of_others() {
    let mut e: Engine<u8> = Engine::new(cluster(1));
    // Two equal compute tasks share 2 cores; cancel one at t=2.
    let a = e.start(
        Activity::Compute {
            node: NodeId(0),
            threads: 2.0,
        },
        8.0,
        1,
    );
    e.start(
        Activity::Compute {
            node: NodeId(0),
            threads: 2.0,
        },
        8.0,
        2,
    );
    e.set_timer_after(2.0, 9);
    let fired = e.step().expect("timer first");
    assert_eq!(fired.len(), 1);
    e.cancel(a);
    // Task 2 has 8 - 1·2 = 6 CPU-s left, now at 2 cores: 3 more seconds.
    e.step().expect("task 2 completes");
    assert!((e.now().as_secs() - 5.0).abs() < 1e-6, "{}", e.now());
}

#[test]
fn heterogeneous_speeds_scale_compute_only() {
    let mut spec = cluster(2);
    spec.nodes[1].speed = 0.5;
    let mut e: Engine<u8> = Engine::new(spec);
    e.start(
        Activity::Compute {
            node: NodeId(0),
            threads: 1.0,
        },
        10.0,
        1,
    );
    e.start(
        Activity::Compute {
            node: NodeId(1),
            threads: 1.0,
        },
        10.0,
        2,
    );
    let first = e.step().expect("fast node first");
    assert_eq!(first, vec![1]);
    assert!((e.now().as_secs() - 10.0).abs() < 1e-6);
    e.step().expect("slow node");
    assert!((e.now().as_secs() - 20.0).abs() < 1e-6);
    // Disk speed is not affected by the CPU speed factor.
    e.start(Activity::DiskRead { node: NodeId(1) }, 220.0e6, 3);
    let t0 = e.now();
    e.step().expect("read done");
    assert!((e.now().since(t0) - 1.0).abs() < 1e-3);
}

#[test]
fn timers_at_identical_instants_fire_together_in_creation_order() {
    let mut e: Engine<u8> = Engine::new(cluster(1));
    e.set_timer(SimTime::from_secs(5.0), 1);
    e.set_timer(SimTime::from_secs(5.0), 2);
    e.set_timer(SimTime::from_secs(5.0), 3);
    assert_eq!(e.step(), Some(vec![1, 2, 3]));
}

#[test]
fn usage_windows_partition_time_exactly() {
    let mut e: Engine<u8> = Engine::new(cluster(1));
    e.watch_usage(NodeId(0));
    e.start(
        Activity::Compute {
            node: NodeId(0),
            threads: 1.0,
        },
        4.0,
        1,
    );
    e.step();
    let w1 = e.take_usage(NodeId(0));
    e.start(
        Activity::Compute {
            node: NodeId(0),
            threads: 2.0,
        },
        4.0,
        2,
    );
    e.step();
    let w2 = e.take_usage(NodeId(0));
    assert!((w1.elapsed - 4.0).abs() < 1e-9);
    assert!((w1.core_seconds - 4.0).abs() < 1e-6);
    assert!((w2.elapsed - 2.0).abs() < 1e-6);
    assert!((w2.core_seconds - 4.0).abs() < 1e-6);
}
