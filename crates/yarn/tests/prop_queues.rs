//! Fairness-invariant property battery for the RM's multi-tenant queues.
//!
//! Four invariants, each exercised over randomized queue configurations
//! and operation sequences:
//!
//! * **(a) Ceilings** — no queue's dominant share ever exceeds its
//!   max-capacity, no matter what the tenants ask for.
//! * **(b) No persistent starvation** — a queue with pending demand held
//!   below its fair share while a sibling runs above its guarantee gets
//!   preemption victims within the grace period and converges to within
//!   one container of fair share; the donor is never pushed below its
//!   own guarantee and preemption stops once shares balance.
//! * **(c) Work conservation** — after an allocation round, no pending
//!   admissible request coexists with a node that could host it.
//! * **(d) Determinism** — replaying an identical operation sequence on
//!   a fresh RM yields the identical grant log and final queue state.
//!
//! All requests are a uniform one-vcore unit, which keeps the battery
//! free of bin-packing fragmentation: any node with a spare core can
//! host any pending request, so (b) and (c) are exact statements, not
//! heuristics. The nightly CI job re-runs this file with
//! `PROPTEST_CASES` raised ~20x.

use proptest::collection::vec as any_vec;
use proptest::prelude::*;

use hiway_sim::{ClusterSpec, NodeId, NodeSpec};
use hiway_yarn::{
    Admission, AdmissionPolicy, AppId, ContainerId, ContainerRequest, QueueSpec, QueuesConfig,
    Resource, ResourceManager,
};

const EPS: f64 = 1e-9;

/// The uniform request every tenant issues (vcores are the dominant
/// dimension on m3.large nodes: 1/2 core vs 1024/7500 memory).
fn unit() -> Resource {
    Resource::new(1, 1024)
}

fn rm_with(nodes: usize, config: QueuesConfig) -> ResourceManager {
    let spec = ClusterSpec::homogeneous(nodes, "n", &NodeSpec::m3_large("p"));
    let mut rm = ResourceManager::new(&spec);
    rm.configure_queues(config).expect("valid queue config");
    rm
}

fn cluster_total(rm: &ResourceManager) -> Resource {
    let mut total = Resource::ZERO;
    for n in rm.alive_nodes() {
        total.add(&rm.total(n));
    }
    total
}

/// Invariant (a): every queue under its elastic ceiling.
fn assert_ceilings(rm: &ResourceManager) -> Result<(), TestCaseError> {
    for name in rm.queue_names() {
        let share = rm.queue_share(&name).unwrap();
        let (_, max) = rm.queue_limits(&name).unwrap();
        prop_assert!(
            share <= max + EPS,
            "queue '{name}' at share {share} over ceiling {max}"
        );
    }
    Ok(())
}

/// Invariant (c): an allocation round never leaves an admissible unit
/// request pending while some alive node could host it.
fn assert_work_conserving(rm: &ResourceManager) -> Result<(), TestCaseError> {
    let total = cluster_total(rm);
    let free_node = rm.alive_nodes().into_iter().find(|&n| {
        let a = rm.available(n);
        a.fits(&unit())
    });
    let Some(free) = free_node else {
        return Ok(());
    };
    for name in rm.queue_names() {
        if rm.queue_pending(&name).unwrap() == 0 {
            continue;
        }
        let used = rm.queue_usage(&name).unwrap();
        let (_, max) = rm.queue_limits(&name).unwrap();
        let admissible = (used.vcores + 1) as f64 <= max * total.vcores as f64 + EPS
            && (used.memory_mb + 1024) as f64 <= max * total.memory_mb as f64 + EPS;
        prop_assert!(
            !admissible,
            "queue '{name}' has an admissible pending request while node {free:?} \
             has {:?} free",
            rm.available(free)
        );
    }
    Ok(())
}

/// Replays one operation sequence and checks invariants (a) and (c)
/// after every allocation round. Returns the full grant log and the
/// final fair-share vector for the determinism test.
#[allow(clippy::type_complexity)]
fn run_ops(
    nodes: usize,
    config: &QueuesConfig,
    queue_names: &[String],
    ops: &[(u8, u8)],
) -> Result<(Vec<(ContainerId, AppId, NodeId)>, Vec<(String, f64)>), TestCaseError> {
    let mut rm = rm_with(nodes, config.clone());
    let apps: Vec<AppId> = queue_names
        .iter()
        .map(|q| {
            let (app, verdict) = rm.submit_app_to(q).unwrap();
            assert_eq!(verdict, Admission::Admitted);
            app
        })
        .collect();
    let mut owned: Vec<Vec<ContainerId>> = vec![Vec::new(); queue_names.len()];
    let mut log = Vec::new();
    let mut t = 0.0;
    for &(kind, arg) in ops {
        let qi = (arg as usize) % queue_names.len();
        match kind % 4 {
            0 | 1 => {
                // Submit 1–3 unit requests to one queue.
                for _ in 0..(arg % 3 + 1) {
                    rm.request(apps[qi], ContainerRequest::anywhere(unit()));
                }
            }
            // Release the queue's oldest container, if any.
            2 if !owned[qi].is_empty() => {
                let cid = owned[qi].remove(0);
                prop_assert!(rm.release(cid).is_some());
            }
            _ => {} // pure tick
        }
        rm.check_invariants().map_err(TestCaseError::fail)?;
        t += 1.0;
        for c in rm.allocate_at(t) {
            let owner = apps.iter().position(|&a| a == c.app).unwrap();
            owned[owner].push(c.id);
            log.push((c.id, c.app, c.node));
        }
        rm.check_invariants().map_err(TestCaseError::fail)?;
        assert_ceilings(&rm)?;
        assert_work_conserving(&rm)?;
    }
    let fair = rm.queue_fair_shares();
    // Conservation: releasing everything restores full capacity.
    for held in owned {
        for cid in held {
            prop_assert!(rm.release(cid).is_some());
        }
    }
    rm.check_invariants().map_err(TestCaseError::fail)?;
    prop_assert_eq!(rm.running_containers(), 0);
    for name in rm.queue_names() {
        prop_assert_eq!(rm.queue_usage(&name).unwrap(), Resource::ZERO);
    }
    for n in rm.alive_nodes() {
        prop_assert_eq!(rm.available(n), rm.total(n));
    }
    Ok((log, fair))
}

/// Builds a random flat two/three-tenant tree with quantized ceilings.
/// Guarantees are weight-proportional, clamped under each ceiling.
fn tenant_config(weights: &[u8], caps: &[u8]) -> (QueuesConfig, Vec<String>) {
    let total: f64 = weights.iter().map(|&w| w as f64).sum();
    let names: Vec<String> = (0..weights.len()).map(|i| format!("q{i}")).collect();
    let leaves = weights
        .iter()
        .zip(caps)
        .zip(&names)
        .map(|((&w, &c), name)| {
            let max = 0.25 * (c % 4 + 1) as f64; // 0.25 | 0.5 | 0.75 | 1.0
            let cap = (w as f64 / total).min(max);
            QueueSpec::leaf(name, w as f64, cap, max)
        })
        .collect();
    let config = QueuesConfig {
        root: QueueSpec::parent("root", 1.0, 1.0, 1.0, leaves),
        admission: AdmissionPolicy::Queue,
        preemption_grace_secs: None,
    };
    (config, names)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariants (a) + (c) plus capacity conservation over random
    /// operation sequences on random queue trees.
    #[test]
    fn random_ops_respect_ceilings_and_conserve_work(
        nodes in 2usize..6,
        weights in any_vec(1u8..5, 2..4),
        caps in any_vec(0u8..4, 3),
        ops in any_vec((0u8..4, any::<u8>()), 10..60),
    ) {
        let (config, names) = tenant_config(&weights, &caps[..weights.len()]);
        run_ops(nodes, &config, &names, &ops)?;
    }

    /// Invariant (d): the RM is a deterministic state machine — same
    /// operations, same grants, same final shares.
    #[test]
    fn identical_op_sequences_replay_identically(
        nodes in 2usize..6,
        weights in any_vec(1u8..5, 2..4),
        caps in any_vec(0u8..4, 3),
        ops in any_vec((0u8..4, any::<u8>()), 10..40),
    ) {
        let (config, names) = tenant_config(&weights, &caps[..weights.len()]);
        let first = run_ops(nodes, &config, &names, &ops)?;
        let second = run_ops(nodes, &config, &names, &ops)?;
        prop_assert_eq!(first, second);
    }

    /// DRF steady state: two queues with saturating demand split the
    /// cluster weight-proportionally, to within one container.
    #[test]
    fn drf_split_matches_weights_within_one_container(
        nodes in 2usize..6,
        wa in 1u32..5,
        wb in 1u32..5,
    ) {
        let mut rm = rm_with(
            nodes,
            QueuesConfig::weighted_leaves(&[("a", wa as f64), ("b", wb as f64)], None),
        );
        let (a, _) = rm.submit_app_to("a").unwrap();
        let (b, _) = rm.submit_app_to("b").unwrap();
        let cores = 2 * nodes as u32;
        for _ in 0..3 * cores {
            rm.request(a, ContainerRequest::anywhere(unit()));
            rm.request(b, ContainerRequest::anywhere(unit()));
        }
        let granted = rm.allocate_at(0.0);
        prop_assert_eq!(granted.len(), cores as usize, "cluster saturated");
        let unit_share = 1.0 / cores as f64;
        let fair_a = wa as f64 / (wa + wb) as f64;
        let share_a = rm.queue_share("a").unwrap();
        prop_assert!(
            (share_a - fair_a).abs() <= unit_share + EPS,
            "weights {wa}:{wb}, share {share_a} vs fair {fair_a} (unit {unit_share})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Invariant (b): a late tenant starved by an incumbent is made
    /// whole via preemption within the grace period, the incumbent never
    /// dips below its guarantee, and preemption quiesces at equilibrium.
    #[test]
    fn starved_queue_recovers_within_grace_and_stabilizes(
        nodes in 3usize..6,
        wa in 1u32..4,
        wb in 1u32..4,
    ) {
        const GRACE: f64 = 4.0;
        let mut rm = rm_with(
            nodes,
            QueuesConfig::weighted_leaves(
                &[("a", wa as f64), ("b", wb as f64)],
                Some(GRACE),
            ),
        );
        let (a, _) = rm.submit_app_to("a").unwrap();
        let (b, _) = rm.submit_app_to("b").unwrap();
        let cores = 2 * nodes as u32;
        let unit_share = 1.0 / cores as f64;
        // The incumbent grabs the whole cluster...
        for _ in 0..2 * cores {
            rm.request(a, ContainerRequest::anywhere(unit()));
        }
        let first = rm.allocate_at(0.0);
        prop_assert_eq!(first.len(), cores as usize);
        // ...then the late tenant shows saturating demand.
        for _ in 0..2 * cores {
            rm.request(b, ContainerRequest::anywhere(unit()));
        }
        let (cap_a, _) = rm.queue_limits("a").unwrap();
        let mut preempted = 0usize;
        let mut preempted_late = 0usize;
        for step in 1..=40u32 {
            rm.allocate_at(step as f64);
            // Conservation holds at the instant the round completes —
            // capacity freed by the victim kills below is only re-granted
            // on the next round.
            assert_ceilings(&rm)?;
            assert_work_conserving(&rm)?;
            let victims = rm.take_preemptions();
            preempted += victims.len();
            if step > 30 {
                preempted_late += victims.len();
            }
            for v in victims {
                // The driver kills victims via its failure path; here the
                // release is the part the RM observes.
                prop_assert!(rm.release(v).is_some());
            }
            // The donor is never preempted below its guarantee.
            prop_assert!(
                rm.queue_share("a").unwrap() >= cap_a - EPS,
                "step {step}: donor below guarantee"
            );
        }
        prop_assert!(preempted >= 1, "starved queue never received victims");
        prop_assert_eq!(preempted_late, 0, "preemption must quiesce at equilibrium");
        // B ended within one container of its fair share (i.e. no longer
        // starved: one more unit would overshoot fair).
        let fair_b = wb as f64 / (wa + wb) as f64;
        let share_b = rm.queue_share("b").unwrap();
        prop_assert!(
            share_b + unit_share + EPS > fair_b,
            "weights {wa}:{wb}: b stuck at {share_b}, fair {fair_b}"
        );
        // Work conservation at equilibrium: every core is busy.
        let busy: u32 = rm
            .alive_nodes()
            .into_iter()
            .map(|n| rm.total(n).vcores - rm.available(n).vcores)
            .sum();
        prop_assert_eq!(busy, cores);
    }
}
