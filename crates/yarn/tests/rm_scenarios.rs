//! Scenario tests of the ResourceManager beyond single-call units.

use hiway_sim::{ClusterSpec, NodeId, NodeSpec};
use hiway_yarn::{ContainerRequest, Resource, ResourceManager};

fn rm(nodes: usize) -> ResourceManager {
    let spec = ClusterSpec::homogeneous(nodes, "n", &NodeSpec::m3_large("p"));
    ResourceManager::new(&spec)
}

#[test]
fn set_capacity_reserves_master_nodes() {
    let mut r = rm(3);
    r.set_capacity(NodeId(0), Resource::ZERO);
    r.set_capacity(NodeId(1), Resource::new(1, 2048));
    let app = r.submit_app();
    for _ in 0..5 {
        r.request(app, ContainerRequest::anywhere(Resource::new(1, 1024)));
    }
    let got = r.allocate_at(0.0);
    // Node 0 takes nothing; node 1 takes exactly one; node 2 two cores.
    assert_eq!(got.len(), 3);
    assert!(got.iter().all(|c| c.node != NodeId(0)));
    assert_eq!(got.iter().filter(|c| c.node == NodeId(1)).count(), 1);
    assert_eq!(got.iter().filter(|c| c.node == NodeId(2)).count(), 2);
}

#[test]
#[should_panic(expected = "set_capacity with containers outstanding")]
fn set_capacity_after_allocation_panics() {
    let mut r = rm(1);
    let app = r.submit_app();
    r.request(app, ContainerRequest::anywhere(Resource::new(1, 1024)));
    r.allocate_at(0.0);
    r.set_capacity(NodeId(0), Resource::ZERO);
}

#[test]
fn churn_conserves_capacity() {
    let mut r = rm(4);
    let app = r.submit_app();
    // Repeated allocate/release cycles must end with full capacity.
    for round in 0..10 {
        let asks = 3 + (round % 4);
        for _ in 0..asks {
            r.request(app, ContainerRequest::anywhere(Resource::new(1, 1000)));
        }
        let got = r.allocate_at(0.0);
        for c in &got {
            r.release(c.id);
        }
        // Drain whatever stayed queued so rounds are independent.
        while r.pending_requests() > 0 {
            let got = r.allocate_at(0.0);
            if got.is_empty() {
                break;
            }
            for c in &got {
                r.release(c.id);
            }
        }
    }
    for n in 0..4 {
        assert_eq!(r.available(NodeId(n)), r.total(NodeId(n)));
    }
    assert_eq!(r.running_containers(), 0);
}

#[test]
fn strict_request_completes_once_node_frees_up() {
    let mut r = rm(2);
    let app = r.submit_app();
    // Occupy node 1 fully.
    r.request(
        app,
        ContainerRequest::pinned(Resource::new(2, 7000), NodeId(1)),
    );
    let first = r.allocate_at(0.0);
    assert_eq!(first.len(), 1);
    // A pinned ask for node 1 queues...
    r.request(
        app,
        ContainerRequest::pinned(Resource::new(1, 1000), NodeId(1)),
    );
    assert!(r.allocate_at(0.0).is_empty());
    // ...until the occupant releases.
    r.release(first[0].id);
    let got = r.allocate_at(0.0);
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].node, NodeId(1));
}

#[test]
fn multiple_apps_interleave_fairly_in_fifo_order() {
    let mut r = rm(1); // 2 vcores
    let a = r.submit_app();
    let b = r.submit_app();
    // Interleaved submissions: a, b, a, b.
    r.request(a, ContainerRequest::anywhere(Resource::new(1, 1000)));
    r.request(b, ContainerRequest::anywhere(Resource::new(1, 1000)));
    r.request(a, ContainerRequest::anywhere(Resource::new(1, 1000)));
    r.request(b, ContainerRequest::anywhere(Resource::new(1, 1000)));
    let got = r.allocate_at(0.0);
    assert_eq!(got.len(), 2);
    assert_eq!(got[0].app, a);
    assert_eq!(got[1].app, b, "FIFO across applications");
}
