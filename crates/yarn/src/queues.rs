//! Hierarchical fair/capacity scheduler queues with Dominant Resource
//! Fairness ordering — the mediation layer real YARN puts between
//! tenants (fair scheduler / capacity scheduler) and which the paper's
//! one-AM-per-workflow multi-tenancy (§3.1) relies on.
//!
//! The model follows the YARN schedulers where they agree and DRF
//! (Ghodsi et al., NSDI 2011) for cross-queue ordering:
//!
//! * **Hierarchy**: a tree of queues; applications live in *leaf* queues.
//! * **Capacity / max-capacity**: each queue has a *guaranteed* fraction
//!   of the cluster and an elastic *ceiling*. Between the two, a queue
//!   may borrow idle capacity from its siblings (work conservation);
//!   above the ceiling it may not grow, period.
//! * **DRF ordering**: when several queues have pending demand, the next
//!   container goes to the queue whose *dominant share* — the larger of
//!   its vcore share and its memory share of the live cluster — divided
//!   by its weight is smallest.
//! * **Preemption**: a queue held below its fair share for longer than a
//!   grace period may claw capacity back from siblings running above
//!   their guarantee. Victims are the newest containers of the most
//!   over-guarantee queues; a queue is never preempted below its
//!   guarantee, and containers flagged unpreemptable (AM containers) are
//!   skipped. The RM only *selects* victims — the driver routes them
//!   through the same infrastructure-failure path node crashes use, so
//!   AM retry budgets apply.
//! * **Admission control**: a leaf may cap its live applications; beyond
//!   the cap, submissions are queued FIFO or rejected outright.
//!
//! Everything here is deterministic: queue order is definition order,
//! ties break towards the earlier-defined queue, and no wall-clock or
//! ambient randomness enters any decision.

use crate::types::Resource;

/// Slack used in floating-point share comparisons. Shares are ratios of
/// small integers, so anything well below 1/(cores·memory) works.
const EPS: f64 = 1e-9;

/// How a leaf queue treats submissions past its `max_apps` limit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Refuse the application; the submitter gets an error.
    #[default]
    Reject,
    /// Park the application FIFO; it is admitted when a live application
    /// in the queue finishes.
    Queue,
}

/// The admission verdict for one submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// The application may request containers immediately.
    Admitted,
    /// The application is parked; its requests stay unschedulable until
    /// a slot frees up.
    Queued,
    /// The application was refused outright.
    Rejected,
}

/// Declarative description of one queue (leaf or parent).
#[derive(Clone, Debug)]
pub struct QueueSpec {
    /// Leaf names must be unique across the whole tree; applications are
    /// submitted by leaf name.
    pub name: String,
    /// DRF weight among siblings. Twice the weight ⇒ twice the steady-
    /// state share under saturating demand.
    pub weight: f64,
    /// Guaranteed fraction of the *parent's* capacity. A queue at or
    /// below its guarantee is never preempted.
    pub capacity: f64,
    /// Elastic ceiling, as a fraction of the parent's capacity. 1.0
    /// means the queue may absorb the whole parent when siblings idle.
    pub max_capacity: f64,
    /// Cap on live (admitted, unfinished) applications in this leaf.
    pub max_apps: Option<usize>,
    /// Child queues; empty for leaves.
    pub children: Vec<QueueSpec>,
}

impl QueueSpec {
    /// A leaf queue.
    pub fn leaf(name: &str, weight: f64, capacity: f64, max_capacity: f64) -> QueueSpec {
        QueueSpec {
            name: name.to_string(),
            weight,
            capacity,
            max_capacity,
            max_apps: None,
            children: Vec::new(),
        }
    }

    /// A parent queue with children.
    pub fn parent(
        name: &str,
        weight: f64,
        capacity: f64,
        max_capacity: f64,
        children: Vec<QueueSpec>,
    ) -> QueueSpec {
        QueueSpec {
            name: name.to_string(),
            weight,
            capacity,
            max_capacity,
            max_apps: None,
            children,
        }
    }

    /// Caps live applications in this (leaf) queue.
    pub fn with_max_apps(mut self, n: usize) -> QueueSpec {
        self.max_apps = Some(n);
        self
    }
}

/// Complete multi-tenancy configuration handed to the RM.
#[derive(Clone, Debug)]
pub struct QueuesConfig {
    pub root: QueueSpec,
    pub admission: AdmissionPolicy,
    /// How long a queue must sit starved (below fair share, with pending
    /// demand) before the RM selects preemption victims from over-
    /// guarantee siblings. `None` disables preemption.
    pub preemption_grace_secs: Option<f64>,
}

impl Default for QueuesConfig {
    /// A single all-absorbing leaf: exactly the pre-queue RM behaviour.
    fn default() -> QueuesConfig {
        QueuesConfig {
            root: QueueSpec::leaf("default", 1.0, 1.0, 1.0),
            admission: AdmissionPolicy::Reject,
            preemption_grace_secs: None,
        }
    }
}

impl QueuesConfig {
    /// Flat tenants under one root, weights as given. Guarantees are set
    /// weight-proportional and ceilings fully elastic — the classic fair-
    /// scheduler configuration.
    pub fn weighted_leaves(tenants: &[(&str, f64)], grace_secs: Option<f64>) -> QueuesConfig {
        let total: f64 = tenants.iter().map(|(_, w)| w).sum();
        let children = tenants
            .iter()
            .map(|(name, w)| QueueSpec::leaf(name, *w, *w / total.max(EPS), 1.0))
            .collect();
        QueuesConfig {
            root: QueueSpec::parent("root", 1.0, 1.0, 1.0, children),
            admission: AdmissionPolicy::Queue,
            preemption_grace_secs: grace_secs,
        }
    }
}

/// One node of the flattened queue tree.
pub(crate) struct QueueNode {
    pub name: String,
    pub parent: Option<usize>,
    pub children: Vec<usize>,
    pub weight: f64,
    /// Absolute guaranteed fraction of the cluster (product of `capacity`
    /// down from the root).
    pub cap_frac: f64,
    /// Absolute elastic ceiling (product of `max_capacity` down from the
    /// root).
    pub max_frac: f64,
    pub max_apps: Option<usize>,
    /// Current usage. Maintained at leaves and aggregated up the tree on
    /// every charge/uncharge, so DRF descent reads it directly.
    pub used: Resource,
    /// Admitted, unfinished applications (leaves only).
    pub live_apps: usize,
    /// Applications parked by admission control, FIFO (leaves only).
    pub waiting: Vec<u32>,
    /// When the leaf first became starved; cleared when it catches up.
    pub starved_since: Option<f64>,
}

/// The flattened queue tree plus policy knobs. Owned by the RM.
pub(crate) struct QueueSet {
    pub nodes: Vec<QueueNode>,
    pub admission: AdmissionPolicy,
    pub grace_secs: Option<f64>,
}

impl QueueSet {
    pub fn build(config: &QueuesConfig) -> Result<QueueSet, String> {
        let mut set = QueueSet {
            nodes: Vec::new(),
            admission: config.admission,
            grace_secs: config.preemption_grace_secs,
        };
        set.flatten(&config.root, None, 1.0, 1.0)?;
        let mut names: Vec<&str> = set.nodes.iter().map(|n| n.name.as_str()).collect();
        names.sort_unstable();
        if names.windows(2).any(|w| w[0] == w[1]) {
            return Err("queue names must be unique".to_string());
        }
        if set.leaves().is_empty() {
            return Err("queue tree has no leaves".to_string());
        }
        Ok(set)
    }

    fn flatten(
        &mut self,
        spec: &QueueSpec,
        parent: Option<usize>,
        parent_cap: f64,
        parent_max: f64,
    ) -> Result<usize, String> {
        if spec.weight <= 0.0 || spec.weight.is_nan() {
            return Err(format!("queue '{}' needs a positive weight", spec.name));
        }
        if !(0.0..=1.0).contains(&spec.capacity) || !(0.0..=1.0).contains(&spec.max_capacity) {
            return Err(format!(
                "queue '{}' capacities must be within [0, 1]",
                spec.name
            ));
        }
        if spec.capacity > spec.max_capacity + EPS {
            return Err(format!(
                "queue '{}' guarantee exceeds its max-capacity",
                spec.name
            ));
        }
        let idx = self.nodes.len();
        self.nodes.push(QueueNode {
            name: spec.name.clone(),
            parent,
            children: Vec::new(),
            weight: spec.weight,
            cap_frac: parent_cap * spec.capacity,
            max_frac: parent_max * spec.max_capacity,
            max_apps: spec.max_apps,
            used: Resource::ZERO,
            live_apps: 0,
            waiting: Vec::new(),
            starved_since: None,
        });
        for child in &spec.children {
            let c = self.flatten(
                child,
                Some(idx),
                parent_cap * spec.capacity,
                parent_max * spec.max_capacity,
            )?;
            self.nodes[idx].children.push(c);
        }
        Ok(idx)
    }

    /// Leaf indices in definition order.
    pub fn leaves(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].children.is_empty())
            .collect()
    }

    /// Resolves a leaf queue by name.
    pub fn leaf_by_name(&self, name: &str) -> Option<usize> {
        (0..self.nodes.len())
            .find(|&i| self.nodes[i].children.is_empty() && self.nodes[i].name == name)
    }

    /// The leaf submissions land on when no queue is named: the leaf
    /// called `default` if present, else the first-defined leaf.
    pub fn default_leaf(&self) -> usize {
        self.leaf_by_name("default")
            .unwrap_or_else(|| self.leaves()[0])
    }

    /// Dominant share of `used` against the live cluster total.
    pub fn dominant_share(used: Resource, total: Resource) -> f64 {
        let v = if total.vcores > 0 {
            used.vcores as f64 / total.vcores as f64
        } else {
            0.0
        };
        let m = if total.memory_mb > 0 {
            used.memory_mb as f64 / total.memory_mb as f64
        } else {
            0.0
        };
        v.max(m)
    }

    /// Adds a grant to `leaf` and every ancestor.
    pub fn charge(&mut self, leaf: usize, res: Resource) {
        let mut at = Some(leaf);
        while let Some(i) = at {
            self.nodes[i].used.add(&res);
            at = self.nodes[i].parent;
        }
    }

    /// Removes a released/killed container from `leaf` and every ancestor.
    pub fn uncharge(&mut self, leaf: usize, res: Resource) {
        let mut at = Some(leaf);
        while let Some(i) = at {
            let used = &mut self.nodes[i].used;
            used.vcores = used.vcores.saturating_sub(res.vcores);
            used.memory_mb = used.memory_mb.saturating_sub(res.memory_mb);
            at = self.nodes[i].parent;
        }
    }

    /// Whether `leaf` (and all its ancestors) can absorb `res` without
    /// any of them crossing its elastic ceiling. Per-dimension, because
    /// max-capacity caps each resource independently in YARN.
    pub fn fits_under_max(&self, leaf: usize, res: Resource, total: Resource) -> bool {
        let mut at = Some(leaf);
        while let Some(i) = at {
            let n = &self.nodes[i];
            let v_cap = n.max_frac * total.vcores as f64 + EPS;
            let m_cap = n.max_frac * total.memory_mb as f64 + EPS;
            if (n.used.vcores + res.vcores) as f64 > v_cap
                || (n.used.memory_mb + res.memory_mb) as f64 > m_cap
            {
                return false;
            }
            at = n.parent;
        }
        true
    }

    /// DRF descent: among `eligible` leaves (those with still-untried
    /// pending requests this round), pick the one to serve next. At each
    /// level the child with the smallest dominant-share/weight wins; ties
    /// break towards the earlier-defined child, which keeps single-queue
    /// configurations byte-identical to the pre-queue FIFO walk.
    pub fn pick_leaf(&self, eligible: &[bool], total: Resource) -> Option<usize> {
        let mut at = 0usize; // root is always node 0
        if !self.has_eligible(at, eligible) {
            return None;
        }
        while !self.nodes[at].children.is_empty() {
            let mut best: Option<(f64, usize)> = None;
            for &c in &self.nodes[at].children {
                if !self.has_eligible(c, eligible) {
                    continue;
                }
                let key = Self::dominant_share(self.nodes[c].used, total) / self.nodes[c].weight;
                match best {
                    Some((k, _)) if key + EPS >= k => {}
                    _ => best = Some((key, c)),
                }
            }
            at = best?.1;
        }
        Some(at)
    }

    /// Whether node `i` is an eligible leaf or has one below it. Recursion
    /// keeps it free of allocation; the tree is a few levels deep.
    fn has_eligible(&self, i: usize, eligible: &[bool]) -> bool {
        let children = &self.nodes[i].children;
        if children.is_empty() {
            eligible[i]
        } else {
            children.iter().any(|&c| self.has_eligible(c, eligible))
        }
    }

    /// Instantaneous fair share (a fraction of the cluster, dominant-
    /// resource terms) for every node. Water-filling by weight at each
    /// level: a queue never gets more than its demand or ceiling; what it
    /// cannot use flows to its siblings.
    ///
    /// `leaf_demand[i]` must hold each leaf's demand as a cluster
    /// fraction (usage + pending asks, clamped to its ceiling); non-leaf
    /// entries are ignored.
    pub fn fair_shares(&self, leaf_demand: &[f64]) -> Vec<f64> {
        let n = self.nodes.len();
        let mut demand = vec![0.0f64; n];
        // Aggregate demand bottom-up (children precede nothing in the
        // flattened vec — parents come first — so walk indices backwards).
        for i in (0..n).rev() {
            let node = &self.nodes[i];
            demand[i] = if node.children.is_empty() {
                leaf_demand[i].min(node.max_frac)
            } else {
                let sum: f64 = node.children.iter().map(|&c| demand[c]).sum();
                sum.min(node.max_frac)
            };
        }
        let mut share = vec![0.0f64; n];
        share[0] = demand[0].min(1.0);
        // Distribute top-down.
        for i in 0..n {
            let children = self.nodes[i].children.clone();
            if children.is_empty() {
                continue;
            }
            let mut remaining = share[i];
            let mut open: Vec<usize> = children
                .iter()
                .copied()
                .filter(|&c| demand[c] > EPS)
                .collect();
            // Repeatedly saturate the children whose demand is below
            // their weighted slice, then re-level the rest.
            while !open.is_empty() && remaining > EPS {
                let wsum: f64 = open.iter().map(|&c| self.nodes[c].weight).sum();
                let level = remaining / wsum;
                let sat: Vec<usize> = open
                    .iter()
                    .copied()
                    .filter(|&c| demand[c] <= level * self.nodes[c].weight + EPS)
                    .collect();
                if sat.is_empty() {
                    for &c in &open {
                        share[c] = level * self.nodes[c].weight;
                    }
                    break;
                }
                for &c in &sat {
                    share[c] = demand[c];
                    remaining -= demand[c];
                }
                open.retain(|c| !sat.contains(c));
            }
        }
        share
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn total() -> Resource {
        Resource::new(16, 64_000)
    }

    #[test]
    fn default_config_is_one_elastic_leaf() {
        let set = QueueSet::build(&QueuesConfig::default()).unwrap();
        assert_eq!(set.leaves(), vec![0]);
        assert_eq!(set.default_leaf(), 0);
        let n = &set.nodes[0];
        assert_eq!(n.name, "default");
        assert_eq!((n.cap_frac, n.max_frac), (1.0, 1.0));
        assert!(set.grace_secs.is_none());
    }

    #[test]
    fn weighted_leaves_normalize_guarantees() {
        let cfg = QueuesConfig::weighted_leaves(&[("a", 2.0), ("b", 1.0)], Some(10.0));
        let set = QueueSet::build(&cfg).unwrap();
        let a = set.leaf_by_name("a").unwrap();
        let b = set.leaf_by_name("b").unwrap();
        assert!((set.nodes[a].cap_frac - 2.0 / 3.0).abs() < 1e-9);
        assert!((set.nodes[b].cap_frac - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(set.nodes[a].max_frac, 1.0);
        assert_eq!(set.default_leaf(), a, "no 'default' leaf: first wins");
    }

    #[test]
    fn build_rejects_bad_specs() {
        let dup = QueuesConfig {
            root: QueueSpec::parent(
                "root",
                1.0,
                1.0,
                1.0,
                vec![
                    QueueSpec::leaf("x", 1.0, 0.5, 1.0),
                    QueueSpec::leaf("x", 1.0, 0.5, 1.0),
                ],
            ),
            ..QueuesConfig::default()
        };
        assert!(QueueSet::build(&dup).is_err());
        let inverted = QueuesConfig {
            root: QueueSpec::leaf("q", 1.0, 0.9, 0.5),
            ..QueuesConfig::default()
        };
        assert!(QueueSet::build(&inverted).is_err());
        let zero_weight = QueuesConfig {
            root: QueueSpec::leaf("q", 0.0, 1.0, 1.0),
            ..QueuesConfig::default()
        };
        assert!(QueueSet::build(&zero_weight).is_err());
    }

    #[test]
    fn absolute_fractions_multiply_down_the_tree() {
        let cfg = QueuesConfig {
            root: QueueSpec::parent(
                "root",
                1.0,
                1.0,
                1.0,
                vec![QueueSpec::parent(
                    "org",
                    1.0,
                    0.5,
                    0.8,
                    vec![QueueSpec::leaf("team", 1.0, 0.5, 0.5)],
                )],
            ),
            ..QueuesConfig::default()
        };
        let set = QueueSet::build(&cfg).unwrap();
        let team = set.leaf_by_name("team").unwrap();
        assert!((set.nodes[team].cap_frac - 0.25).abs() < 1e-9);
        assert!((set.nodes[team].max_frac - 0.4).abs() < 1e-9);
    }

    #[test]
    fn dominant_share_takes_the_larger_dimension() {
        let t = total();
        // 4/16 cores vs 8000/64000 MB: cores dominate.
        let s = QueueSet::dominant_share(Resource::new(4, 8_000), t);
        assert!((s - 0.25).abs() < 1e-9);
        // 1/16 cores vs 32000/64000 MB: memory dominates.
        let s = QueueSet::dominant_share(Resource::new(1, 32_000), t);
        assert!((s - 0.5).abs() < 1e-9);
        assert_eq!(
            QueueSet::dominant_share(Resource::ZERO, Resource::ZERO),
            0.0
        );
    }

    #[test]
    fn charge_aggregates_up_and_uncharge_reverses() {
        let cfg = QueuesConfig::weighted_leaves(&[("a", 1.0), ("b", 1.0)], None);
        let mut set = QueueSet::build(&cfg).unwrap();
        let a = set.leaf_by_name("a").unwrap();
        set.charge(a, Resource::new(2, 4_000));
        assert_eq!(set.nodes[a].used, Resource::new(2, 4_000));
        assert_eq!(
            set.nodes[0].used,
            Resource::new(2, 4_000),
            "root aggregates"
        );
        set.uncharge(a, Resource::new(2, 4_000));
        assert_eq!(set.nodes[0].used, Resource::ZERO);
    }

    #[test]
    fn fits_under_max_enforces_every_ancestor() {
        let cfg = QueuesConfig {
            root: QueueSpec::parent(
                "root",
                1.0,
                0.5,
                0.5,
                vec![QueueSpec::leaf("a", 1.0, 0.5, 1.0)],
            ),
            ..QueuesConfig::default()
        };
        let mut set = QueueSet::build(&cfg).unwrap();
        let a = set.leaf_by_name("a").unwrap();
        let t = total();
        // Leaf ceiling is elastic, but the root caps at 8 cores.
        assert!(set.fits_under_max(a, Resource::new(8, 1_000), t));
        set.charge(a, Resource::new(8, 1_000));
        assert!(!set.fits_under_max(a, Resource::new(1, 1_000), t));
    }

    #[test]
    fn drf_pick_prefers_lowest_weighted_dominant_share() {
        let cfg = QueuesConfig::weighted_leaves(&[("a", 2.0), ("b", 1.0)], None);
        let mut set = QueueSet::build(&cfg).unwrap();
        let a = set.leaf_by_name("a").unwrap();
        let b = set.leaf_by_name("b").unwrap();
        let t = total();
        let mut eligible = vec![false; set.nodes.len()];
        eligible[a] = true;
        eligible[b] = true;
        // Empty queues tie: definition order wins.
        assert_eq!(set.pick_leaf(&eligible, t), Some(a));
        // a at 4 cores (share .25 / w2 = .125), b at 1 core (.0625 / w1).
        set.charge(a, Resource::new(4, 1_000));
        set.charge(b, Resource::new(1, 1_000));
        assert_eq!(set.pick_leaf(&eligible, t), Some(b));
        // b climbs past the weighted tie-point: a wins again.
        set.charge(b, Resource::new(3, 1_000));
        assert_eq!(set.pick_leaf(&eligible, t), Some(a));
        // Only one eligible: it wins regardless of shares.
        eligible[a] = false;
        assert_eq!(set.pick_leaf(&eligible, t), Some(b));
        eligible[b] = false;
        assert_eq!(set.pick_leaf(&eligible, t), None);
    }

    #[test]
    fn fair_shares_water_fill_by_weight() {
        let cfg = QueuesConfig::weighted_leaves(&[("a", 2.0), ("b", 1.0)], None);
        let set = QueueSet::build(&cfg).unwrap();
        let a = set.leaf_by_name("a").unwrap();
        let b = set.leaf_by_name("b").unwrap();
        let mut demand = vec![0.0; set.nodes.len()];
        // Both saturating: 2:1 split.
        demand[a] = 1.0;
        demand[b] = 1.0;
        let s = set.fair_shares(&demand);
        assert!((s[a] - 2.0 / 3.0).abs() < 1e-9);
        assert!((s[b] - 1.0 / 3.0).abs() < 1e-9);
        // a wants little: b absorbs the slack (work conservation).
        demand[a] = 0.1;
        let s = set.fair_shares(&demand);
        assert!((s[a] - 0.1).abs() < 1e-9);
        assert!((s[b] - 0.9).abs() < 1e-9);
        // Idle tree: all zero.
        let s = set.fair_shares(&vec![0.0; set.nodes.len()]);
        assert!(s.iter().all(|&x| x.abs() < 1e-9));
    }

    #[test]
    fn fair_shares_respect_ceilings() {
        let cfg = QueuesConfig {
            root: QueueSpec::parent(
                "root",
                1.0,
                1.0,
                1.0,
                vec![
                    QueueSpec::leaf("capped", 1.0, 0.2, 0.25),
                    QueueSpec::leaf("open", 1.0, 0.8, 1.0),
                ],
            ),
            ..QueuesConfig::default()
        };
        let set = QueueSet::build(&cfg).unwrap();
        let c = set.leaf_by_name("capped").unwrap();
        let o = set.leaf_by_name("open").unwrap();
        let mut demand = vec![0.0; set.nodes.len()];
        demand[c] = 1.0;
        demand[o] = 1.0;
        let s = set.fair_shares(&demand);
        assert!((s[c] - 0.25).abs() < 1e-9, "ceiling binds: {}", s[c]);
        assert!((s[o] - 0.75).abs() < 1e-9, "sibling absorbs: {}", s[o]);
    }

    /// The eligibility test `pick_leaf` used before its recursive walk:
    /// an explicit-stack DFS. Kept as the oracle for the proptest below.
    fn pick_leaf_stack_dfs(set: &QueueSet, eligible: &[bool], total: Resource) -> Option<usize> {
        let has_eligible = |mut i: usize| -> bool {
            let mut stack = vec![i];
            while let Some(at) = stack.pop() {
                i = at;
                if set.nodes[i].children.is_empty() {
                    if eligible[i] {
                        return true;
                    }
                } else {
                    stack.extend(set.nodes[i].children.iter().copied());
                }
            }
            false
        };
        let mut at = 0usize;
        if !has_eligible(at) {
            return None;
        }
        while !set.nodes[at].children.is_empty() {
            let mut best: Option<(f64, usize)> = None;
            for &c in &set.nodes[at].children {
                if !has_eligible(c) {
                    continue;
                }
                let key = QueueSet::dominant_share(set.nodes[c].used, total) / set.nodes[c].weight;
                match best {
                    Some((k, _)) if key + EPS >= k => {}
                    _ => best = Some((key, c)),
                }
            }
            at = best?.1;
        }
        Some(at)
    }

    /// A queue tree's shape with each queue's weight.
    #[derive(Clone, Debug)]
    enum Shape {
        Leaf(f64),
        Parent(f64, Vec<Shape>),
    }

    fn spec_of(shape: &Shape, next_name: &mut usize) -> QueueSpec {
        let name = format!("q{next_name}");
        *next_name += 1;
        match shape {
            Shape::Leaf(w) => QueueSpec::leaf(&name, *w, 0.0, 1.0),
            Shape::Parent(w, children) => {
                let children = children.iter().map(|c| spec_of(c, next_name)).collect();
                QueueSpec::parent(&name, *w, 0.0, 1.0, children)
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The recursive eligibility walk picks exactly the leaf the
        /// stack-based DFS picks, over random trees up to depth 3 with
        /// random weights, usage and eligibility. Weights and usage come
        /// from small sets so that DRF ties occur.
        #[test]
        fn pick_leaf_matches_stack_dfs(
            shape in (1u8..5)
                .prop_map(|w| Shape::Leaf(w as f64 / 2.0))
                .prop_recursive(3, 16, 4, |inner| {
                    ((1u8..5), proptest::collection::vec(inner, 1..4))
                        .prop_map(|(w, kids)| Shape::Parent(w as f64 / 2.0, kids))
                }),
            usage in proptest::collection::vec((0u32..6, 0u64..4), 1..16),
            flags in proptest::collection::vec(any::<bool>(), 1..16),
            total in (0u32..24, 0u64..12),
        ) {
            let root = spec_of(&shape, &mut 0);
            let mut set = QueueSet::build(&QueuesConfig { root, ..QueuesConfig::default() })
                .map_err(TestCaseError::fail)?;
            for (k, leaf) in set.leaves().into_iter().enumerate() {
                let (v, m) = usage[k % usage.len()];
                set.charge(leaf, Resource::new(v, m * 1_000));
            }
            let total = Resource::new(total.0, total.1 * 4_000);
            let n = set.nodes.len();
            let eligible: Vec<bool> = (0..n).map(|i| flags[i % flags.len()]).collect();
            prop_assert_eq!(
                set.pick_leaf(&eligible, total),
                pick_leaf_stack_dfs(&set, &eligible, total)
            );
        }
    }
}
