//! A naive recompute-everything port of the original engine, kept as the
//! semantic oracle for the incremental engine in [`crate::engine`].
//!
//! Every refresh regroups all compute activities, rebuilds every flow path
//! and the whole constraint vector, and reruns both fairness models from
//! scratch; `peek_next_time` and `step` scan every activity and timer
//! linearly. This is exactly the pre-overhaul hot path — O(all activities)
//! per event — and the incremental engine must reproduce its completion
//! sequences and virtual times bit for bit.
//!
//! Not public API: it serves the lockstep tests in
//! `tests/incremental_vs_reference.rs` only, and is exposed
//! (`#[doc(hidden)]` from the crate root) because those are integration
//! tests.

use std::collections::{BTreeMap, HashMap};

use crate::cpufair::fair_cores;
use crate::engine::{Activity, ActivityId, Endpoint};
use crate::metrics::NodeUsage;
use crate::netfair::{max_min_rates, Constraint};
use crate::spec::{ClusterSpec, NodeId};
use crate::time::SimTime;

struct Act<T> {
    kind: Activity,
    remaining: f64,
    rate: f64,
    tag: T,
}

struct Timer<T> {
    at: SimTime,
    tag: T,
}

const COMPLETION_EPS: f64 = 1e-6;
const COMPLETION_TIME_EPS: f64 = 1e-9;

fn is_complete(remaining: f64, rate: f64) -> bool {
    remaining <= COMPLETION_EPS.max(rate * COMPLETION_TIME_EPS)
}

/// The naive engine. Same construction/driving API as [`crate::Engine`].
pub struct ReferenceEngine<T> {
    spec: ClusterSpec,
    now: SimTime,
    acts: BTreeMap<u64, Act<T>>,
    timers: BTreeMap<u64, Timer<T>>,
    next_id: u64,
    rates_dirty: bool,
    usage: Vec<NodeUsage>,
    inst: Vec<[f64; 5]>,
}

impl<T: Clone> ReferenceEngine<T> {
    pub fn new(spec: ClusterSpec) -> ReferenceEngine<T> {
        let n = spec.nodes.len();
        ReferenceEngine {
            spec,
            now: SimTime::ZERO,
            acts: BTreeMap::new(),
            timers: BTreeMap::new(),
            next_id: 0,
            rates_dirty: true,
            usage: vec![NodeUsage::default(); n],
            inst: vec![[0.0; 5]; n],
        }
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    pub fn start(&mut self, kind: Activity, volume: f64, tag: T) -> ActivityId {
        assert!(volume >= 0.0, "negative activity volume");
        if let Activity::Compute { node, threads } = &kind {
            assert!(
                *threads > 0.0,
                "compute must use at least a sliver of a core"
            );
            assert!(node.index() < self.spec.nodes.len(), "unknown node");
        }
        let id = self.next_id;
        self.next_id += 1;
        self.acts.insert(
            id,
            Act {
                kind,
                remaining: volume.max(COMPLETION_EPS / 2.0),
                rate: 0.0,
                tag,
            },
        );
        self.rates_dirty = true;
        ActivityId(id)
    }

    pub fn cancel(&mut self, id: ActivityId) -> Option<T> {
        let act = self.acts.remove(&id.0)?;
        self.rates_dirty = true;
        Some(act.tag)
    }

    pub fn active_count(&self) -> usize {
        self.acts.len()
    }

    pub fn set_timer(&mut self, at: SimTime, tag: T) {
        let id = self.next_id;
        self.next_id += 1;
        let at = at.max(self.now);
        self.timers.insert(id, Timer { at, tag });
    }

    pub fn set_timer_after(&mut self, delay: f64, tag: T) {
        let at = self.now + delay.max(0.0);
        self.set_timer(at, tag)
    }

    pub fn peek_next_time(&mut self) -> Option<SimTime> {
        self.refresh_rates();
        let mut next: Option<SimTime> = None;
        for act in self.acts.values() {
            if act.remaining.is_finite() && act.rate > 0.0 {
                let t = if is_complete(act.remaining, act.rate) {
                    self.now
                } else {
                    self.now + act.remaining / act.rate
                };
                next = Some(next.map_or(t, |n| n.min(t)));
            }
        }
        for timer in self.timers.values() {
            next = Some(next.map_or(timer.at, |n| n.min(timer.at)));
        }
        next
    }

    pub fn step(&mut self) -> Option<Vec<T>> {
        let target = self.peek_next_time()?;
        self.advance_to(target);

        let mut fired = Vec::new();
        let done: Vec<u64> = self
            .acts
            .iter()
            .filter(|(_, a)| a.remaining.is_finite() && is_complete(a.remaining, a.rate))
            .map(|(id, _)| *id)
            .collect();
        for id in done {
            fired.push(self.acts.remove(&id).expect("collected above").tag);
            self.rates_dirty = true;
        }
        let due: Vec<u64> = self
            .timers
            .iter()
            .filter(|(_, t)| t.at <= self.now)
            .map(|(id, _)| *id)
            .collect();
        for id in due {
            fired.push(self.timers.remove(&id).expect("collected above").tag);
        }
        Some(fired)
    }

    pub fn advance_to(&mut self, target: SimTime) {
        assert!(target >= self.now, "time cannot run backwards");
        self.refresh_rates();
        let dt = target - self.now;
        if dt > 0.0 {
            for act in self.acts.values_mut() {
                if act.remaining.is_finite() {
                    act.remaining -= act.rate * dt;
                    if act.remaining < 0.0 {
                        act.remaining = 0.0;
                    }
                }
            }
            for (node, inst) in self.inst.iter().enumerate() {
                self.usage[node].accumulate(dt, inst, &self.spec.nodes[node]);
            }
            self.now = target;
        }
    }

    pub fn take_usage(&mut self, node: NodeId) -> NodeUsage {
        std::mem::take(&mut self.usage[node.index()])
    }

    fn refresh_rates(&mut self) {
        if !self.rates_dirty {
            return;
        }
        self.rates_dirty = false;
        for row in self.inst.iter_mut() {
            *row = [0.0; 5];
        }

        self.refresh_cpu_rates();
        self.refresh_io_rates();
    }

    fn refresh_cpu_rates(&mut self) {
        let mut per_node: HashMap<u32, Vec<(u64, f64)>> = HashMap::new();
        for (&id, act) in &self.acts {
            if let Activity::Compute { node, threads } = act.kind {
                per_node.entry(node.0).or_default().push((id, threads));
            }
        }
        let mut nodes: Vec<u32> = per_node.keys().copied().collect();
        nodes.sort_unstable();
        for n in nodes {
            let members = &per_node[&n];
            let spec = &self.spec.nodes[n as usize];
            let caps: Vec<f64> = members.iter().map(|(_, t)| *t).collect();
            let alloc = fair_cores(&caps, spec.cores as f64);
            let mut total = 0.0;
            for ((id, _), cores) in members.iter().zip(alloc.iter()) {
                self.acts.get_mut(id).expect("member exists").rate = cores * spec.speed;
                total += cores;
            }
            self.inst[n as usize][0] = total;
        }
    }

    fn refresh_io_rates(&mut self) {
        let nn = self.spec.nodes.len();
        let mut constraints = Vec::with_capacity(nn * 4 + 1 + self.spec.externals.len());
        for node in &self.spec.nodes {
            constraints.push(Constraint {
                capacity: node.disk_read_bps,
            });
            constraints.push(Constraint {
                capacity: node.disk_write_bps,
            });
            constraints.push(Constraint {
                capacity: node.nic_bps,
            });
            constraints.push(Constraint {
                capacity: node.nic_bps,
            });
        }
        let switch_idx = constraints.len();
        constraints.push(Constraint {
            capacity: self.spec.switch_bps.unwrap_or(f64::INFINITY),
        });
        let ext_base = constraints.len();
        for ext in &self.spec.externals {
            constraints.push(Constraint {
                capacity: ext.aggregate_bps,
            });
        }

        let mut ids = Vec::new();
        let mut paths = Vec::new();
        for (&id, act) in &self.acts {
            let path = match &act.kind {
                Activity::Compute { .. } => continue,
                other => crate::engine::io_flow_path(&self.spec, other, switch_idx, ext_base),
            };
            ids.push(id);
            paths.push(path);
        }

        let rates = max_min_rates(&constraints, &paths);
        for (idx, id) in ids.iter().enumerate() {
            let rate = rates[idx];
            let act = self.acts.get_mut(id).expect("flow exists");
            act.rate = rate;
            match &act.kind {
                Activity::DiskRead { node } => self.inst[node.index()][1] += rate,
                Activity::DiskWrite { node } => self.inst[node.index()][2] += rate,
                Activity::Flow {
                    src,
                    dst,
                    src_disk,
                    dst_disk,
                } => {
                    if let Endpoint::Node(n) = src {
                        self.inst[n.index()][4] += rate;
                        if *src_disk {
                            self.inst[n.index()][1] += rate;
                        }
                    }
                    if let Endpoint::Node(n) = dst {
                        self.inst[n.index()][3] += rate;
                        if *dst_disk {
                            self.inst[n.index()][2] += rate;
                        }
                    }
                }
                Activity::Compute { .. } => unreachable!("filtered above"),
            }
        }
    }
}
