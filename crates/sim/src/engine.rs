//! The rate-based discrete-event engine.
//!
//! Every ongoing piece of work is an [`Activity`] with a remaining volume:
//! CPU work in reference CPU-seconds, disk and network transfers in bytes.
//! Whenever the set of activities changes, the engine recomputes the
//! affected activities' rates with the fair-sharing models in
//! [`crate::cpufair`] and [`crate::netfair`], then advances virtual time to
//! the earliest completion or timer. The tags of what fired are *returned*
//! to the caller rather than delivered through callbacks, so the layers above
//! (HDFS, YARN, the Hi-WAY AM) drive the simulation with an ordinary poll
//! loop and stay borrow-checker friendly.
//!
//! ## Incremental hot path
//!
//! Rate refresh is incremental: CPU fair-sharing is independent per node,
//! so `fair_cores` reruns only for nodes whose compute set changed (dirty
//! node tracking), and the global max-min network fill reruns only when an
//! IO activity (flow or disk stream) started, finished, or was cancelled —
//! compute-only churn no longer pays the O(flows × constraints)
//! progressive-filling loop. The IO constraint vector is built once at
//! construction (the cluster spec is immutable) and each activity's
//! [`FlowPath`] once at `start`, when it joins the [`NetFairWorkspace`]
//! under its slab slot; it leaves when the activity ends or is cancelled.
//! A fill may replay the previous fill's unchanged rounds (see
//! [`crate::netfair`]); [`Engine::fill_stats`] counts them.
//!
//! An activity's kind and tag live in a slab slot (stable, with a free
//! list), which is the key the rate models use. Its remaining volume, rate
//! and id live in compact columns over the *live* activities only; a
//! slot→index map is fixed up by `swap_remove` when an activity ends or is
//! cancelled. Each step makes three straight passes over those columns:
//! the next completion is the minimum of `now + remaining / rate` (the
//! naive engine's expression, see [`crate::reference`]), the settle pass
//! subtracts `rate * dt`, and the completion scan collects what reached
//! zero and fires it in id (creation) order. That is the same arithmetic
//! as the naive engine, so virtual timestamps are bit-for-bit identical,
//! and every step settles every live activity anyway, so a heap of cached
//! predictions would buy no better complexity. Background loads (infinite
//! volume, e.g. the paper's `stress` processes in the Figure 9 experiment)
//! stay in the columns; their volume stays infinite and `is_finite()`
//! skips them. Timers sit in a deadline-ordered binary heap and cannot be
//! cancelled: a caller that no longer wants one ignores its tag when it
//! fires.
//!
//! Usage is accounted only on the nodes a caller watches
//! ([`Engine::watch_usage`]): a step folds `dt` into those nodes'
//! [`NodeUsage`] and a fill sums IO rates into their rows only, so a run
//! that reads no usage pays nothing for it (see [`crate::metrics`]).
//!
//! The equivalence contract with the naive engine is enforced by property
//! tests (`tests/incremental_vs_reference.rs`).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use hiway_obs::profile::{section, Section};
use hiway_obs::{Tracer, TrackId};

use crate::cpufair::fair_cores_into;
use crate::metrics::NodeUsage;
use crate::netfair::{Constraint, FillStats, FlowPath, NetFairWorkspace};
use crate::spec::{ClusterSpec, ExternalId, NodeId};
use crate::time::SimTime;

/// Handle to a running activity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ActivityId(pub u64);

/// One side of a network transfer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Endpoint {
    Node(NodeId),
    External(ExternalId),
}

/// The kinds of work the kernel knows how to pace.
#[derive(Clone, Debug)]
pub enum Activity {
    /// CPU work on `node`, able to use up to `threads` cores concurrently.
    /// Volume is measured in *reference* CPU-seconds: a node with speed `s`
    /// burns them at `allocated_cores * s` per second.
    Compute { node: NodeId, threads: f64 },
    /// A local disk read on `node` (shares the node's read bandwidth).
    DiskRead { node: NodeId },
    /// A local disk write on `node` (shares the node's write bandwidth).
    DiskWrite { node: NodeId },
    /// A network transfer. When `src_disk`/`dst_disk` are set the flow is
    /// additionally throttled by the source's disk-read / destination's
    /// disk-write bandwidth — e.g. an HDFS remote read streams from the
    /// remote disk through both NICs onto the local disk.
    Flow {
        src: Endpoint,
        dst: Endpoint,
        src_disk: bool,
        dst_disk: bool,
    },
}

struct Act<T> {
    kind: Activity,
    tag: T,
}

/// A watched node and the IO activities whose rates its `inst` row sums:
/// `(id, slot, columns)` in id order, where bit `c` of `columns` means the
/// rate adds to column `c`.
struct Meter {
    node: u32,
    io: Vec<(u64, u32, u8)>,
}

/// The columns of `node`'s `inst` row that an IO activity's rate adds
/// to, as a bit mask (bit `c` for column `c`); 0 if it does not touch the
/// node.
fn io_mask(kind: &Activity, node: u32) -> u8 {
    const DISK_R: u8 = 1 << 1;
    const DISK_W: u8 = 1 << 2;
    let on = |end: Endpoint, bits: u8| match end {
        Endpoint::Node(n) if n.0 == node => bits,
        _ => 0,
    };
    match *kind {
        Activity::DiskRead { node: n } => on(Endpoint::Node(n), DISK_R),
        Activity::DiskWrite { node: n } => on(Endpoint::Node(n), DISK_W),
        Activity::Flow {
            src,
            dst,
            src_disk,
            dst_disk,
        } => {
            on(src, 1 << 4 | if src_disk { DISK_R } else { 0 })
                | on(dst, 1 << 3 | if dst_disk { DISK_W } else { 0 })
        }
        Activity::Compute { .. } => unreachable!("compute has no IO columns"),
    }
}

/// A pending timer. Ordered so that the max-heap surfaces the earliest
/// deadline first, ties broken by the lower (earlier-created) id.
struct Timer<T> {
    at: SimTime,
    id: u64,
    tag: T,
}

impl<T> PartialEq for Timer<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T> Eq for Timer<T> {}

impl<T> PartialOrd for Timer<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Timer<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.id).cmp(&(self.at, self.id))
    }
}

/// Residual volume below which an activity counts as finished. Volumes are
/// bytes or CPU-seconds, so a micro-unit is far below observable scale.
const COMPLETION_EPS: f64 = 1e-6;

/// Activities whose remaining volume would drain within this many seconds
/// at their current rate also count as finished. This absorbs the
/// floating-point residue left by repeated `remaining -= rate * dt`
/// updates: without it, a residue slightly above `COMPLETION_EPS` whose
/// finish instant rounds to `now` would freeze virtual time.
const COMPLETION_TIME_EPS: f64 = 1e-9;

fn is_complete(remaining: f64, rate: f64) -> bool {
    remaining <= COMPLETION_EPS.max(rate * COMPLETION_TIME_EPS)
}

/// Builds the constraint-index path an IO activity traverses. The layout is
/// fixed at engine construction: per node `[disk_read, disk_write, nic_out,
/// nic_in]`, then the switch at `switch_idx`, then one aggregate constraint
/// per external service from `ext_base`. Shared with the naive reference
/// engine so both build bit-identical max-min inputs.
#[doc(hidden)]
pub fn io_flow_path(
    spec: &ClusterSpec,
    kind: &Activity,
    switch_idx: usize,
    ext_base: usize,
) -> FlowPath {
    let disk_r = |n: NodeId| n.index() * 4;
    let disk_w = |n: NodeId| n.index() * 4 + 1;
    let nic_out = |n: NodeId| n.index() * 4 + 2;
    let nic_in = |n: NodeId| n.index() * 4 + 3;
    match kind {
        Activity::Compute { .. } => unreachable!("compute has no flow path"),
        Activity::DiskRead { node } => FlowPath {
            constraints: vec![disk_r(*node)],
            rate_cap: None,
        },
        Activity::DiskWrite { node } => FlowPath {
            constraints: vec![disk_w(*node)],
            rate_cap: None,
        },
        Activity::Flow {
            src,
            dst,
            src_disk,
            dst_disk,
        } => {
            let mut cs = Vec::with_capacity(5);
            let mut cap = None;
            let mut via_switch;
            match src {
                Endpoint::Node(n) => {
                    cs.push(nic_out(*n));
                    if *src_disk {
                        cs.push(disk_r(*n));
                    }
                    via_switch = true; // may be cleared by a WAN dst
                }
                Endpoint::External(e) => {
                    cs.push(ext_base + e.index());
                    let ext = &spec.externals[e.index()];
                    cap = ext.per_flow_bps;
                    via_switch = ext.via_switch;
                }
            }
            match dst {
                Endpoint::Node(n) => {
                    cs.push(nic_in(*n));
                    if *dst_disk {
                        cs.push(disk_w(*n));
                    }
                }
                Endpoint::External(e) => {
                    cs.push(ext_base + e.index());
                    let ext = &spec.externals[e.index()];
                    cap = cap.min_opt(ext.per_flow_bps);
                    if !ext.via_switch {
                        via_switch = false;
                    }
                }
            }
            if via_switch && spec.switch_bps.is_some() {
                cs.push(switch_idx);
            }
            FlowPath {
                constraints: cs,
                rate_cap: cap,
            }
        }
    }
}

/// The simulation engine. `T` is the caller's completion tag type.
pub struct Engine<T> {
    spec: ClusterSpec,
    now: SimTime,
    slab: Vec<Option<Act<T>>>,
    free: Vec<u32>,
    /// Shared by activities and timers, so every start and timer gets
    /// its own id in creation order.
    next_id: u64,
    /// Dense index of each occupied slab slot's activity in the columns
    /// below (stale for free slots).
    pos: Vec<u32>,
    /// Columns over the live activities, one entry each, in no particular
    /// order: remaining volume, current rate, id and slab slot.
    remaining: Vec<f64>,
    rate: Vec<f64>,
    ids: Vec<u64>,
    slots: Vec<u32>,
    timers: BinaryHeap<Timer<T>>,
    /// Per-node flag + worklist of nodes whose compute set changed.
    cpu_dirty: Vec<bool>,
    cpu_dirty_list: Vec<u32>,
    io_dirty: bool,
    /// Compute activities per node as `(id, slot, threads)`, id-ascending —
    /// the same member order the naive engine derives from its sorted map.
    compute_members: Vec<Vec<(u64, u32, f64)>>,
    /// IO activities `(id, slot)`, id-ascending.
    io: Vec<(u64, u32)>,
    switch_idx: usize,
    ext_base: usize,
    /// The IO activities' flow paths, keyed by slab slot, over the
    /// constraint vector built once at construction (the cluster spec is
    /// immutable).
    netfair: NetFairWorkspace,
    caps_buf: Vec<f64>,
    alloc_buf: Vec<f64>,
    order_buf: Vec<usize>,
    done_buf: Vec<(u64, u32)>,
    /// The nodes whose usage is accounted, in the order they were
    /// watched. Only these get `dt` folded into `usage` and IO rates summed
    /// into `inst`; see [`Engine::watch_usage`].
    watched: Vec<Meter>,
    usage: Vec<NodeUsage>,
    /// Cached instantaneous per-node totals, refreshed with the rates:
    /// (alloc cores, disk read B/s, disk write B/s, net in B/s, net out B/s).
    /// The CPU refresh stores column 0 for every node it reruns (it has
    /// the total anyway); the IO columns are summed for watched nodes only.
    inst: Vec<[f64; 5]>,
    /// Observability sink; [`Tracer::disabled`] by default, so the hot
    /// path pays one pointer-null check per guarded block and nothing else.
    tracer: Tracer,
    node_tracks: Vec<TrackId>,
    engine_track: TrackId,
}

impl<T: Clone> Engine<T> {
    pub fn new(spec: ClusterSpec) -> Engine<T> {
        let n = spec.nodes.len();
        // Constraint layout: per node [disk_read, disk_write, nic_out,
        // nic_in], then the optional switch, then one per external service.
        let mut constraints = Vec::with_capacity(n * 4 + 1 + spec.externals.len());
        for node in &spec.nodes {
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
            capacity: spec.switch_bps.unwrap_or(f64::INFINITY),
        });
        let ext_base = constraints.len();
        for ext in &spec.externals {
            constraints.push(Constraint {
                capacity: ext.aggregate_bps,
            });
        }
        Engine {
            spec,
            now: SimTime::ZERO,
            slab: Vec::new(),
            free: Vec::new(),
            next_id: 0,
            pos: Vec::new(),
            remaining: Vec::new(),
            rate: Vec::new(),
            ids: Vec::new(),
            slots: Vec::new(),
            timers: BinaryHeap::new(),
            cpu_dirty: vec![false; n],
            cpu_dirty_list: Vec::new(),
            io_dirty: false,
            compute_members: vec![Vec::new(); n],
            io: Vec::new(),
            switch_idx,
            ext_base,
            netfair: NetFairWorkspace::new(&constraints),
            caps_buf: Vec::new(),
            alloc_buf: Vec::new(),
            order_buf: Vec::new(),
            done_buf: Vec::new(),
            watched: Vec::new(),
            usage: vec![NodeUsage::default(); n],
            inst: vec![[0.0; 5]; n],
            tracer: Tracer::disabled(),
            node_tracks: Vec::new(),
            engine_track: TrackId::NONE,
        }
    }

    /// Attaches an observability tracer. Registers one track per node
    /// (interned by node name, so HDFS and the driver land events on the
    /// same tracks) plus a synthetic `engine` track for counters and
    /// flows with no node endpoint.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
        self.engine_track = self.tracer.track("engine");
        let t = &self.tracer;
        self.node_tracks = self.spec.nodes.iter().map(|n| t.track(&n.name)).collect();
    }

    /// The track an activity's events render on, plus its kind label.
    fn act_track(&self, kind: &Activity) -> (TrackId, &'static str) {
        match kind {
            Activity::Compute { node, .. } => (self.node_tracks[node.index()], "compute"),
            Activity::DiskRead { node } => (self.node_tracks[node.index()], "disk_read"),
            Activity::DiskWrite { node } => (self.node_tracks[node.index()], "disk_write"),
            Activity::Flow { src, dst, .. } => {
                let track = match (src, dst) {
                    (Endpoint::Node(n), _) => self.node_tracks[n.index()],
                    (_, Endpoint::Node(n)) => self.node_tracks[n.index()],
                    _ => self.engine_track,
                };
                (track, "flow")
            }
        }
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    fn mark_cpu_dirty(&mut self, node: u32) {
        if !self.cpu_dirty[node as usize] {
            self.cpu_dirty[node as usize] = true;
            self.cpu_dirty_list.push(node);
        }
    }

    /// Puts a new activity in a slab slot and appends its column entries.
    fn insert(&mut self, id: u64, act: Act<T>, remaining: f64) -> u32 {
        let index = self.ids.len() as u32;
        let slot = if let Some(s) = self.free.pop() {
            self.slab[s as usize] = Some(act);
            self.pos[s as usize] = index;
            s
        } else {
            self.slab.push(Some(act));
            self.pos.push(index);
            (self.slab.len() - 1) as u32
        };
        self.remaining.push(remaining);
        self.rate.push(0.0);
        self.ids.push(id);
        self.slots.push(slot);
        slot
    }

    /// Takes the activity `id` out of its slot and the columns (moving the
    /// last column entry into its place), and unlinks it from the rate
    /// models.
    fn remove(&mut self, id: u64, slot: u32) -> Act<T> {
        let act = self.slab[slot as usize].take().expect("slot held");
        self.free.push(slot);
        let i = self.pos[slot as usize] as usize;
        self.remaining.swap_remove(i);
        self.rate.swap_remove(i);
        self.ids.swap_remove(i);
        self.slots.swap_remove(i);
        if let Some(&moved) = self.slots.get(i) {
            self.pos[moved as usize] = i as u32;
        }
        self.detach(id, slot, &act.kind);
        act
    }

    /// Starts an activity with `volume` units of work. `f64::INFINITY`
    /// creates a background load that never completes (cancel to stop it).
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
        let remaining = volume.max(COMPLETION_EPS / 2.0);
        if self.tracer.is_enabled() {
            let (track, what) = self.act_track(&kind);
            self.tracer.instant(
                track,
                &format!("act.start:{what}"),
                "engine",
                self.now.as_secs(),
                &[("id", id.to_string())],
            );
            self.tracer.inc("engine.activities_started", 1);
        }
        // Classify before `kind` moves into the slab: compute work as
        // `Ok((node, threads))`, IO as `Err(flow path)`.
        let compute = match &kind {
            Activity::Compute { node, threads } => Ok((node.0, *threads)),
            io => Err(io_flow_path(&self.spec, io, self.switch_idx, self.ext_base)),
        };
        let slot = self.insert(id, Act { kind, tag }, remaining);
        // Ids are monotone, so a push keeps the member lists sorted.
        match compute {
            Ok((node, threads)) => {
                self.compute_members[node as usize].push((id, slot, threads));
                self.mark_cpu_dirty(node);
            }
            Err(path) => {
                self.netfair.insert(slot as usize, &path);
                self.io.push((id, slot));
                self.io_dirty = true;
                let kind = &self.slab[slot as usize]
                    .as_ref()
                    .expect("just inserted")
                    .kind;
                for m in &mut self.watched {
                    let mask = io_mask(kind, m.node);
                    if mask != 0 {
                        m.io.push((id, slot, mask));
                    }
                }
            }
        }
        ActivityId(id)
    }

    /// Unlinks a removed activity from the rate-sharing sets and marks the
    /// affected model dirty.
    fn detach(&mut self, id: u64, slot: u32, kind: &Activity) {
        match kind {
            Activity::Compute { node, .. } => {
                let members = &mut self.compute_members[node.index()];
                if let Ok(pos) = members.binary_search_by_key(&id, |&(i, _, _)| i) {
                    members.remove(pos);
                }
                self.mark_cpu_dirty(node.0);
            }
            io => {
                if let Ok(pos) = self.io.binary_search_by_key(&id, |&(i, _)| i) {
                    self.io.remove(pos);
                }
                self.netfair.remove(slot as usize);
                self.io_dirty = true;
                for m in &mut self.watched {
                    if io_mask(io, m.node) != 0 {
                        if let Ok(pos) = m.io.binary_search_by_key(&id, |&(i, _, _)| i) {
                            m.io.remove(pos);
                        }
                    }
                }
            }
        }
    }

    /// Cancels a running activity, returning its tag (None if already done).
    /// Scans the id column: cancels are rare (failed, losing or aborted
    /// attempts and stopped background loads).
    pub fn cancel(&mut self, id: ActivityId) -> Option<T> {
        let i = self.ids.iter().position(|&x| x == id.0)?;
        Some(self.remove(id.0, self.slots[i]).tag)
    }

    /// Number of in-flight activities (including background loads).
    pub fn active_count(&self) -> usize {
        self.ids.len()
    }

    /// Schedules a timer at absolute time `at` (clamped to now).
    pub fn set_timer(&mut self, at: SimTime, tag: T) {
        let id = self.next_id;
        self.next_id += 1;
        let at = at.max(self.now);
        self.timers.push(Timer { at, id, tag });
    }

    /// Schedules a timer `delay` seconds from now.
    pub fn set_timer_after(&mut self, delay: f64, tag: T) {
        let at = self.now + delay.max(0.0);
        self.set_timer(at, tag)
    }

    /// Earliest activity completion: the naive engine's scan, `now` for an
    /// activity already complete and `now + remaining / rate` otherwise,
    /// over every finite activity that is making progress.
    fn peek_completion(&self) -> Option<SimTime> {
        let _p = section(Section::Peek);
        let now = self.now.as_secs();
        let mut best = f64::INFINITY;
        for (&rem, &rate) in self.remaining.iter().zip(&self.rate) {
            if rem.is_finite() && rate > 0.0 {
                let t = if is_complete(rem, rate) {
                    now
                } else {
                    now + rem / rate
                };
                if t < best {
                    best = t;
                }
            }
        }
        (best < f64::INFINITY).then(|| SimTime::from_secs(best))
    }

    /// Virtual time of the next completion or timer, if any work is pending.
    pub fn peek_next_time(&mut self) -> Option<SimTime> {
        self.refresh_rates();
        match (self.peek_completion(), self.timers.peek().map(|t| t.at)) {
            (Some(a), Some(t)) => Some(a.min(t)),
            (a, t) => a.or(t),
        }
    }

    /// Advances to the next completion/timer instant and returns the tags of
    /// everything that fired there: finished activities in id (creation)
    /// order, then due timers in id order. Returns `None` when only
    /// background activities remain.
    pub fn step(&mut self) -> Option<Vec<T>> {
        let target = self.peek_next_time()?;
        Some(self.fire_at(target))
    }

    /// [`Engine::step`], but only if the next completion or timer is at or
    /// before `deadline`; otherwise returns `None` and leaves time where it
    /// is. Looks the next event up once, so a caller stepping towards a
    /// deadline need not peek first.
    pub fn step_until(&mut self, deadline: SimTime) -> Option<Vec<T>> {
        let target = self.peek_next_time().filter(|&t| t <= deadline)?;
        Some(self.fire_at(target))
    }

    /// Advances to `target`, the next event instant, and fires what is due.
    fn fire_at(&mut self, target: SimTime) -> Vec<T> {
        self.advance_to(target);

        let mut fired = Vec::new();
        let mut done = std::mem::take(&mut self.done_buf);
        done.clear();
        let scan = section(Section::CompletionScan);
        for (i, (&rem, &rate)) in self.remaining.iter().zip(&self.rate).enumerate() {
            if rem.is_finite() && is_complete(rem, rate) {
                done.push((self.ids[i], self.slots[i]));
            }
        }
        drop(scan);
        // The columns are unordered; fire in creation order like the
        // naive scan.
        done.sort_unstable();
        for &(id, slot) in &done {
            let act = self.remove(id, slot);
            if self.tracer.is_enabled() {
                let (track, what) = self.act_track(&act.kind);
                self.tracer.instant(
                    track,
                    &format!("act.end:{what}"),
                    "engine",
                    self.now.as_secs(),
                    &[("id", id.to_string())],
                );
            }
            fired.push(act.tag);
        }
        done.clear();
        self.done_buf = done;

        let pop = section(Section::TimerPop);
        let mut due = Vec::new();
        while self.timers.peek().is_some_and(|t| t.at <= self.now) {
            due.push(self.timers.pop().expect("peeked"));
        }
        drop(pop);
        // The heap surfaces due timers deadline-first; fire in id order.
        due.sort_unstable_by_key(|t| t.id);
        fired.extend(due.into_iter().map(|t| t.tag));
        if self.tracer.is_enabled() {
            self.tracer.counter(
                self.engine_track,
                "engine.active",
                self.now.as_secs(),
                self.ids.len() as f64,
            );
            self.tracer.inc("engine.steps", 1);
        }
        fired
    }

    /// Advances virtual time to `target` without processing completions
    /// (used by `step`, and by callers that want to sample metrics at a
    /// fixed cadence).
    pub fn advance_to(&mut self, target: SimTime) {
        assert!(target >= self.now, "time cannot run backwards");
        self.refresh_rates();
        let dt = target - self.now;
        if dt > 0.0 {
            let _p = section(Section::Settle);
            // A background load's rate is finite, so its volume stays
            // infinite here.
            for (rem, &rate) in self.remaining.iter_mut().zip(&self.rate) {
                *rem -= rate * dt;
                if *rem < 0.0 {
                    *rem = 0.0;
                }
            }
            for m in &self.watched {
                let n = m.node as usize;
                self.usage[n].accumulate(dt, &self.inst[n], &self.spec.nodes[n]);
            }
            self.now = target;
        }
    }

    /// Starts accounting usage on `node`; its first window opens now.
    /// Until a node is watched, steps fold nothing into its usage and
    /// fills sum no IO rates for it, so a run pays only for the nodes
    /// someone reads. Watching a node that already has work is allowed:
    /// its IO activities are collected in id order and its IO totals
    /// summed from their current rates, as a fill's copy-out sums them, so
    /// the row is bit for bit what it would be had the node been watched
    /// from the start (the CPU total is kept for every node). Watching
    /// twice is a no-op.
    pub fn watch_usage(&mut self, node: NodeId) {
        assert!(node.index() < self.spec.nodes.len(), "unknown node");
        if !self.is_watched(node.0) {
            let io = self.io_touching(node.0);
            self.watched.push(Meter { node: node.0, io });
            self.sum_watched_io();
        }
    }

    fn is_watched(&self, node: u32) -> bool {
        self.watched.iter().any(|m| m.node == node)
    }

    /// The live IO activities whose rates count on `node`, as a
    /// [`Meter`] lists them.
    fn io_touching(&self, node: u32) -> Vec<(u64, u32, u8)> {
        self.io
            .iter()
            .filter_map(|&(id, slot)| {
                let act = self.slab[slot as usize].as_ref().expect("IO member held");
                let mask = io_mask(&act.kind, node);
                (mask != 0).then_some((id, slot, mask))
            })
            .collect()
    }

    /// Drains and returns the usage accumulated on `node` since the last
    /// call (or since [`Engine::watch_usage`]).
    ///
    /// # Panics
    ///
    /// If `node` is not watched: its usage was never accounted, and a
    /// zero would read as an idle node.
    pub fn take_usage(&mut self, node: NodeId) -> NodeUsage {
        assert!(
            self.is_watched(node.0),
            "take_usage on node {} that is not watched; call watch_usage before the run",
            node.0
        );
        std::mem::take(&mut self.usage[node.index()])
    }

    /// The max-min fills run so far, their rounds and the rounds replayed.
    pub fn fill_stats(&self) -> FillStats {
        self.netfair.stats()
    }

    /// Checks the engine's bookkeeping: the slot→index map and the
    /// column of slots are inverse, column slots hold an activity and
    /// free slots none, the columns hold exactly the live activities, the
    /// compute and IO member lists name each live activity once, in id
    /// order, under its kind, each entry's slot leading through `pos` to
    /// its own id, each watched node lists exactly the IO activities
    /// that touch it, and the max-min workspace holds its own
    /// ([`NetFairWorkspace::check_invariants`]).
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.ids.len();
        let occupied = self.slab.len().saturating_sub(self.free.len());
        let lens = [self.remaining.len(), self.rate.len(), self.slots.len()];
        if lens != [n; 3] || occupied != n {
            return Err(format!(
                "engine: {n} ids, columns {lens:?}, {occupied} slots held"
            ));
        }
        let index_of = |slot: u32| self.pos.get(slot as usize).map(|&i| i as usize);
        let misplaced = (0..n).find(|&i| {
            let slot = self.slots[i];
            index_of(slot) != Some(i) || !matches!(self.slab.get(slot as usize), Some(Some(_)))
        });
        let reused = self
            .free
            .iter()
            .find(|&&s| !matches!(self.slab.get(s as usize), Some(None)));
        if misplaced.is_some() || reused.is_some() {
            return Err(format!(
                "engine: column index {misplaced:?} off its slot, free slot {reused:?} held"
            ));
        }
        let kind = |id: u64, slot: u32| match index_of(slot) {
            Some(i) if self.ids.get(i) == Some(&id) => {
                self.slab[slot as usize].as_ref().map(|a| &a.kind)
            }
            _ => None,
        };
        for (node, list) in self.compute_members.iter().enumerate() {
            let ok = list.iter().all(|&(id, slot, threads)| {
                matches!(kind(id, slot), Some(&Activity::Compute { node: m, threads: t })
                    if m.index() == node && t.to_bits() == threads.to_bits())
            });
            if !ok || !list.is_sorted_by(|a, b| a.0 < b.0) {
                return Err(format!("engine: node {node} compute members {list:?}"));
            }
        }
        let io_ok = self.io.iter().all(|&(id, slot)| {
            kind(id, slot).is_some_and(|k| !matches!(k, Activity::Compute { .. }))
        });
        let members = self.io.len() + self.compute_members.iter().map(Vec::len).sum::<usize>();
        if !io_ok || !self.io.is_sorted_by(|a, b| a.0 < b.0) || members != n {
            return Err(format!(
                "engine: {members} members for {n} live, IO {:?}",
                self.io
            ));
        }
        for m in &self.watched {
            if m.io != self.io_touching(m.node) {
                return Err(format!(
                    "engine: watched node {} IO members {:?}",
                    m.node, m.io
                ));
            }
        }
        self.netfair.check_invariants()
    }

    /// Recomputes the rates invalidated since the last refresh: one
    /// `fair_cores` run per dirty node, one max-min fill iff the IO set
    /// changed.
    fn refresh_rates(&mut self) {
        let cpu = section(Section::CpuRefresh);
        while let Some(n) = self.cpu_dirty_list.pop() {
            let n = n as usize;
            self.cpu_dirty[n] = false;
            let node_spec = &self.spec.nodes[n];
            self.caps_buf.clear();
            self.caps_buf
                .extend(self.compute_members[n].iter().map(|&(_, _, t)| t));
            fair_cores_into(
                &self.caps_buf,
                node_spec.cores as f64,
                &mut self.alloc_buf,
                &mut self.order_buf,
            );
            let mut total = 0.0;
            for (k, &(_, slot, _)) in self.compute_members[n].iter().enumerate() {
                let cores = self.alloc_buf[k];
                self.rate[self.pos[slot as usize] as usize] = cores * node_spec.speed;
                total += cores;
            }
            self.inst[n][0] = total;
        }
        drop(cpu);

        if self.io_dirty {
            self.io_dirty = false;
            self.netfair.fill();
            let _p = section(Section::CopyOut);
            for &(_, slot) in &self.io {
                self.rate[self.pos[slot as usize] as usize] = self.netfair.rate(slot as usize);
            }
            self.sum_watched_io();
        }
    }

    /// Re-sums the IO columns of the watched nodes' `inst` rows from
    /// their IO activities' current rates. In id order, so each watched
    /// row keeps the naive engine's bits: a row's sums take terms only
    /// from the activities that touch its node, so skipping other rows
    /// changes none of them.
    fn sum_watched_io(&mut self) {
        for m in &self.watched {
            let row = &mut self.inst[m.node as usize];
            row[1..].fill(0.0);
            for &(_, slot, mask) in &m.io {
                let rate = self.rate[self.pos[slot as usize] as usize];
                for (c, total) in row.iter_mut().enumerate().skip(1) {
                    if mask & (1 << c) != 0 {
                        *total += rate;
                    }
                }
            }
        }
    }
}

/// `Option<f64>` min helper for combining per-flow caps.
trait MinOpt {
    fn min_opt(self, other: Option<f64>) -> Option<f64>;
}

impl MinOpt for Option<f64> {
    fn min_opt(self, other: Option<f64>) -> Option<f64> {
        match (self, other) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::NodeSpec;

    fn one_node_cluster() -> ClusterSpec {
        ClusterSpec::homogeneous(1, "n", &NodeSpec::m3_large("proto"))
    }

    fn two_node_cluster() -> ClusterSpec {
        ClusterSpec::homogeneous(2, "n", &NodeSpec::m3_large("proto"))
    }

    #[test]
    fn compute_runs_at_thread_count() {
        let mut e: Engine<u32> = Engine::new(one_node_cluster());
        // 2-core node, 2 threads, 10 CPU-seconds -> 5 wall seconds.
        e.start(
            Activity::Compute {
                node: NodeId(0),
                threads: 2.0,
            },
            10.0,
            7,
        );
        let fired = e.step().expect("one completion");
        assert_eq!(fired.len(), 1);
        assert_eq!(fired, vec![7]);
        assert!((e.now().as_secs() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn node_speed_scales_compute() {
        let mut spec = one_node_cluster();
        spec.nodes[0].speed = 2.0;
        let mut e: Engine<u32> = Engine::new(spec);
        e.start(
            Activity::Compute {
                node: NodeId(0),
                threads: 1.0,
            },
            10.0,
            0,
        );
        e.step().expect("completes");
        assert!((e.now().as_secs() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn two_tasks_share_cores() {
        let mut e: Engine<u32> = Engine::new(one_node_cluster());
        // Both want both cores of the 2-core node; each gets 1 core.
        e.start(
            Activity::Compute {
                node: NodeId(0),
                threads: 2.0,
            },
            10.0,
            1,
        );
        e.start(
            Activity::Compute {
                node: NodeId(0),
                threads: 2.0,
            },
            10.0,
            2,
        );
        let fired = e.step().expect("both at t=10");
        assert_eq!(fired.len(), 2);
        assert!((e.now().as_secs() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn short_task_completion_speeds_up_survivor() {
        let mut e: Engine<u32> = Engine::new(one_node_cluster());
        e.start(
            Activity::Compute {
                node: NodeId(0),
                threads: 2.0,
            },
            4.0,
            1,
        );
        e.start(
            Activity::Compute {
                node: NodeId(0),
                threads: 2.0,
            },
            12.0,
            2,
        );
        // Shared phase: both at 1 core. Task 1 finishes at t=4 with task 2
        // at 8 remaining; then task 2 runs at 2 cores -> 4 more seconds.
        let f1 = e.step().unwrap();
        assert_eq!(f1.len(), 1);
        assert!((e.now().as_secs() - 4.0).abs() < 1e-6);
        e.step().unwrap();
        assert!((e.now().as_secs() - 8.0).abs() < 1e-6);
    }

    #[test]
    fn disk_read_paced_by_bandwidth() {
        let mut e: Engine<u32> = Engine::new(one_node_cluster());
        // m3.large reads at 220 MB/s; 220 MB -> 1 second.
        e.start(Activity::DiskRead { node: NodeId(0) }, 220.0e6, 0);
        e.step().unwrap();
        assert!((e.now().as_secs() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn flow_bounded_by_slower_nic() {
        let mut spec = two_node_cluster();
        spec.nodes[1].nic_bps = 10.0e6;
        let mut e: Engine<u32> = Engine::new(spec);
        e.start(
            Activity::Flow {
                src: Endpoint::Node(NodeId(0)),
                dst: Endpoint::Node(NodeId(1)),
                src_disk: false,
                dst_disk: false,
            },
            100.0e6,
            0,
        );
        e.step().unwrap();
        assert!((e.now().as_secs() - 10.0).abs() < 1e-3);
    }

    #[test]
    fn switch_aggregate_throttles_parallel_flows() {
        let mut spec = ClusterSpec::homogeneous(4, "n", &NodeSpec::m3_large("p"));
        spec.switch_bps = Some(50.0e6);
        let mut e: Engine<u32> = Engine::new(spec);
        // Two disjoint flows, each NIC-capped at 87.5 MB/s, but sharing a
        // 50 MB/s switch -> 25 MB/s each.
        for (s, d) in [(0, 1), (2, 3)] {
            e.start(
                Activity::Flow {
                    src: Endpoint::Node(NodeId(s)),
                    dst: Endpoint::Node(NodeId(d)),
                    src_disk: false,
                    dst_disk: false,
                },
                25.0e6,
                0,
            );
        }
        e.step().unwrap();
        assert!((e.now().as_secs() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn external_per_flow_cap_applies() {
        let mut spec = one_node_cluster();
        let s3 = spec.add_external(crate::spec::ExternalSpec::s3());
        let mut e: Engine<u32> = Engine::new(spec);
        e.start(
            Activity::Flow {
                src: Endpoint::External(s3),
                dst: Endpoint::Node(NodeId(0)),
                src_disk: false,
                dst_disk: true,
            },
            160.0e6,
            0,
        );
        // S3 per-flow cap is 80 MB/s (< NIC and < disk write): 2 seconds.
        e.step().unwrap();
        assert!((e.now().as_secs() - 2.0).abs() < 1e-3);
    }

    #[test]
    fn background_stress_slows_compute() {
        let mut e: Engine<u32> = Engine::new(one_node_cluster());
        // One single-thread task + two infinite single-thread stress procs
        // on 2 cores: everyone is below the fair level (2/3), caps bind at
        // 2/3 each... cap is 1.0 > 2/3, so each gets 2/3 core.
        e.start(
            Activity::Compute {
                node: NodeId(0),
                threads: 1.0,
            },
            2.0,
            1,
        );
        e.start(
            Activity::Compute {
                node: NodeId(0),
                threads: 1.0,
            },
            f64::INFINITY,
            8,
        );
        e.start(
            Activity::Compute {
                node: NodeId(0),
                threads: 1.0,
            },
            f64::INFINITY,
            9,
        );
        let fired = e.step().unwrap();
        assert_eq!(fired.len(), 1);
        assert!((e.now().as_secs() - 3.0).abs() < 1e-6, "now={}", e.now());
        // Background loads remain; no further completions.
        assert!(e.step().is_none());
        assert_eq!(e.active_count(), 2);
    }

    /// Timers fire deadline-first, whatever order they were set in, and a
    /// cancelled activity's tag never fires.
    #[test]
    fn timers_fire_in_order_and_cancel() {
        let mut e: Engine<u32> = Engine::new(one_node_cluster());
        e.set_timer_after(2.0, 2);
        e.set_timer_after(1.0, 1);
        let a = e.start(
            Activity::Compute {
                node: NodeId(0),
                threads: 1.0,
            },
            0.5,
            3,
        );
        assert_eq!(e.cancel(a), Some(3));
        assert_eq!(e.step(), Some(vec![1]));
        assert!((e.now().as_secs() - 1.0).abs() < 1e-9);
        assert_eq!(e.step(), Some(vec![2]));
        assert!((e.now().as_secs() - 2.0).abs() < 1e-9);
        assert!(e.step().is_none());
    }

    #[test]
    fn cancel_activity_returns_tag() {
        let mut e: Engine<u32> = Engine::new(one_node_cluster());
        let id = e.start(
            Activity::Compute {
                node: NodeId(0),
                threads: 1.0,
            },
            100.0,
            42,
        );
        assert_eq!(e.cancel(id), Some(42));
        assert_eq!(e.cancel(id), None);
        assert!(e.step().is_none());
    }

    #[test]
    fn usage_accounting_tracks_cpu() {
        let mut e: Engine<u32> = Engine::new(one_node_cluster());
        e.watch_usage(NodeId(0));
        e.start(
            Activity::Compute {
                node: NodeId(0),
                threads: 2.0,
            },
            10.0,
            0,
        );
        e.step().unwrap();
        let u = e.take_usage(NodeId(0));
        assert!((u.core_seconds - 10.0).abs() < 1e-6);
        assert!((u.elapsed - 5.0).abs() < 1e-6);
        // Second take returns zeroes.
        let u2 = e.take_usage(NodeId(0));
        assert_eq!(u2.elapsed, 0.0);
    }

    #[test]
    #[should_panic(expected = "not watched")]
    fn take_usage_on_an_unwatched_node_panics() {
        let mut e: Engine<u32> = Engine::new(two_node_cluster());
        e.watch_usage(NodeId(0));
        e.advance_to(SimTime::from_secs(1.0));
        e.take_usage(NodeId(1));
    }

    /// A node watched while a flow already runs through it gets the
    /// flow's rate in its first window, as if watched from the start.
    #[test]
    fn watching_mid_flow_counts_the_running_flow() {
        let mut e: Engine<u32> = Engine::new(two_node_cluster());
        e.start(
            Activity::Flow {
                src: Endpoint::Node(NodeId(0)),
                dst: Endpoint::Node(NodeId(1)),
                src_disk: true,
                dst_disk: false,
            },
            175.0e6,
            0,
        );
        e.advance_to(SimTime::from_secs(1.0));
        e.watch_usage(NodeId(1));
        e.watch_usage(NodeId(1));
        e.step().unwrap();
        let u = e.take_usage(NodeId(1));
        // 87.5 MB/s NIC-bound: one second of the two is in the window.
        assert!((u.elapsed - 1.0).abs() < 1e-6);
        assert!((u.net_in_bytes - 87.5e6).abs() < 1.0);
        assert_eq!(u.net_out_bytes, 0.0);
        assert_eq!(u.disk_read_bytes, 0.0);
    }

    /// When a rate changes, the next completion is predicted from the new
    /// rate: the long task would finish at t=20 at 1 core, but it doubles
    /// its rate when the short task finishes at t=4 and ends at t=10.
    #[test]
    fn stale_completion_entries_are_discarded_on_rate_change() {
        let mut e: Engine<u32> = Engine::new(one_node_cluster());
        e.start(
            Activity::Compute {
                node: NodeId(0),
                threads: 2.0,
            },
            4.0,
            1,
        );
        let _long = e.start(
            Activity::Compute {
                node: NodeId(0),
                threads: 2.0,
            },
            16.0,
            2,
        );
        assert!((e.peek_next_time().unwrap().as_secs() - 4.0).abs() < 1e-9);
        e.step().unwrap();
        // Fresh prediction: 12 remaining at 2 cores -> t = 4 + 6 = 10.
        assert!((e.peek_next_time().unwrap().as_secs() - 10.0).abs() < 1e-6);
        e.step().unwrap();
        assert!((e.now().as_secs() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn compute_churn_leaves_io_rates_alone() {
        let mut e: Engine<u32> = Engine::new(one_node_cluster());
        // A disk read shares nothing with compute: starting and finishing
        // compute work must not perturb its completion time.
        e.start(Activity::DiskRead { node: NodeId(0) }, 440.0e6, 0);
        e.start(
            Activity::Compute {
                node: NodeId(0),
                threads: 1.0,
            },
            1.0,
            1,
        );
        let f1 = e.step().unwrap();
        assert_eq!(f1.len(), 1, "compute finishes first");
        assert!((e.now().as_secs() - 1.0).abs() < 1e-6);
        let f2 = e.step().unwrap();
        assert_eq!(f2.len(), 1, "disk read unchanged: 440 MB at 220 MB/s");
        assert!((e.now().as_secs() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn tracer_records_activity_lifecycle() {
        let mut e: Engine<u32> = Engine::new(one_node_cluster());
        let tracer = Tracer::enabled();
        e.set_tracer(&tracer);
        e.start(
            Activity::Compute {
                node: NodeId(0),
                threads: 1.0,
            },
            2.0,
            0,
        );
        e.step().unwrap();
        let data = tracer.snapshot().unwrap();
        // start + end instants, plus the per-step active counter.
        let names: Vec<&str> = data
            .events
            .iter()
            .map(|ev| match ev {
                hiway_obs::TraceEvent::Instant { name, .. } => name.as_str(),
                hiway_obs::TraceEvent::Counter { name, .. } => name.as_str(),
                hiway_obs::TraceEvent::Span { name, .. } => name.as_str(),
            })
            .collect();
        assert_eq!(
            names,
            vec!["act.start:compute", "act.end:compute", "engine.active"]
        );
        assert_eq!(tracer.counter_value("engine.activities_started"), 1);
        assert_eq!(tracer.counter_value("engine.steps"), 1);
        // Tracks: "engine" plus the node's name.
        assert_eq!(data.tracks[0], "engine");
        assert_eq!(data.tracks.len(), 2);
    }

    #[test]
    fn disabled_tracer_stays_empty_through_a_run() {
        let mut e: Engine<u32> = Engine::new(one_node_cluster());
        let tracer = Tracer::disabled();
        e.set_tracer(&tracer);
        e.start(
            Activity::Compute {
                node: NodeId(0),
                threads: 1.0,
            },
            2.0,
            0,
        );
        e.step().unwrap();
        assert_eq!(tracer.event_count(), 0);
        assert!(tracer.snapshot().is_none());
    }

    /// A cancelled activity's completion never fires: after its slot is
    /// reused by a different activity, the next completion is the new
    /// activity's, at its own time.
    #[test]
    fn slot_reuse_does_not_resurrect_stale_predictions() {
        let mut e: Engine<u32> = Engine::new(two_node_cluster());
        let a = e.start(
            Activity::Compute {
                node: NodeId(0),
                threads: 1.0,
            },
            1.0,
            1,
        );
        assert!((e.peek_next_time().unwrap().as_secs() - 1.0).abs() < 1e-9);
        assert_eq!(e.cancel(a), Some(1));
        e.start(
            Activity::Compute {
                node: NodeId(1),
                threads: 1.0,
            },
            50.0,
            2,
        );
        assert!((e.peek_next_time().unwrap().as_secs() - 50.0).abs() < 1e-6);
        let fired = e.step().unwrap();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired, vec![2]);
        assert!((e.now().as_secs() - 50.0).abs() < 1e-6);
    }

    #[test]
    fn step_until_fires_nothing_before_the_next_event() {
        let mut e: Engine<u32> = Engine::new(one_node_cluster());
        // 10 CPU-seconds on 2 cores finish at t=5, and a timer is due at t=3.
        e.start(
            Activity::Compute {
                node: NodeId(0),
                threads: 2.0,
            },
            10.0,
            1,
        );
        e.set_timer_after(3.0, 2);
        assert!(e.step_until(SimTime::from_secs(2.5)).is_none());
        assert_eq!(e.now(), SimTime::ZERO);
        assert_eq!(e.active_count(), 1);
        let fired = e.step_until(SimTime::from_secs(3.0)).expect("timer due");
        assert_eq!(fired, vec![2]);
        assert_eq!(e.now().as_secs(), 3.0);
        assert!(e.step_until(SimTime::from_secs(4.0)).is_none());
        assert_eq!(e.now().as_secs(), 3.0);
        let fired = e.step_until(SimTime::from_secs(9.0)).expect("compute done");
        assert_eq!(fired, vec![1]);
        assert!((e.now().as_secs() - 5.0).abs() < 1e-9);
        assert!(e.step_until(SimTime::from_secs(100.0)).is_none());
        e.check_invariants().unwrap();
    }
}
