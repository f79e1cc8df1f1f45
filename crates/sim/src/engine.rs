//! The rate-based discrete-event engine.
//!
//! Every ongoing piece of work is an [`Activity`] with a remaining volume:
//! CPU work in reference CPU-seconds, disk and network transfers in bytes.
//! Whenever the set of activities changes, the engine recomputes the
//! affected activities' rates with the fair-sharing models in
//! [`crate::cpufair`] and [`crate::netfair`], then advances virtual time to
//! the earliest completion or timer. Completions are *returned* to the
//! caller rather than delivered through callbacks, so the layers above
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
//!
//! Activities live in a slab (dense slots with a free list), so the
//! per-step settle and completion passes are straight array walks rather
//! than hash or tree lookups. Event lookup is heap-based: timers sit in a
//! deadline-ordered binary heap, and activity completions in a
//! predicted-completion heap whose entries are lazily invalidated (via
//! per-slot stamps) when an activity's rate bits change or its slot is
//! reused. Remaining volumes are still settled with one subtraction per
//! finite activity per step — the exact arithmetic of the naive engine
//! (see [`crate::reference`]), which keeps virtual timestamps bit-for-bit
//! identical — but background loads (infinite volume, e.g. the paper's
//! `stress` processes in the Figure 9 experiment) live outside the finite
//! list, so neither the settle pass nor completion scans ever iterate
//! them.
//!
//! The equivalence contract with the naive engine is enforced by property
//! tests (`tests/incremental_vs_reference.rs`).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use hiway_obs::{Tracer, TrackId};

use crate::cpufair::fair_cores_into;
use crate::metrics::NodeUsage;
use crate::netfair::{Constraint, FlowPath, NetFairWorkspace};
use crate::spec::{ClusterSpec, ExternalId, NodeId};
use crate::time::SimTime;

/// Handle to a running activity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ActivityId(pub u64);

/// Handle to a pending timer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub u64);

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

/// Something that fired during [`Engine::step`].
#[derive(Clone, Debug)]
pub enum Completion<T> {
    /// An activity ran its volume down to zero.
    Activity { id: ActivityId, tag: T },
    /// A timer reached its deadline.
    Timer { id: TimerId, tag: T },
}

struct Act<T> {
    kind: Activity,
    remaining: f64,
    rate: f64,
    tag: T,
}

/// One slab slot. The stamp is bumped on every rate change *and* on slot
/// reuse, so completion-heap entries carrying an older stamp — or
/// pointing at a freed slot — are recognizably stale.
struct Slot<T> {
    stamp: u64,
    act: Option<Act<T>>,
}

struct Timer<T> {
    tag: T,
    cancelled: bool,
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
    slab: Vec<Slot<T>>,
    free: Vec<u32>,
    id_to_slot: HashMap<u64, u32>,
    next_id: u64,
    /// `(id, slot)` of finite-volume activities, id-ascending — the only
    /// activities that can complete. Background loads (infinite volume)
    /// are excluded, so settle/completion passes never touch them.
    finite: Vec<(u64, u32)>,
    timers: HashMap<u64, Timer<T>>,
    /// Deadline-ordered timer queue; entries for cancelled timers are
    /// discarded lazily when they surface.
    timer_heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// Predicted completion instants `(at, slot, stamp)`; an entry whose
    /// stamp no longer matches the slot's is stale.
    comp_heap: BinaryHeap<Reverse<(SimTime, u32, u64)>>,
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
    peek_buf: Vec<(SimTime, u32, u64)>,
    done_buf: Vec<(u64, u32)>,
    usage: Vec<NodeUsage>,
    /// Cached instantaneous per-node totals, refreshed with the rates:
    /// (alloc cores, disk read B/s, disk write B/s, net in B/s, net out B/s).
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
            id_to_slot: HashMap::new(),
            next_id: 0,
            finite: Vec::new(),
            timers: HashMap::new(),
            timer_heap: BinaryHeap::new(),
            comp_heap: BinaryHeap::new(),
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
            peek_buf: Vec::new(),
            done_buf: Vec::new(),
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

    fn alloc_slot(&mut self, act: Act<T>) -> u32 {
        if let Some(s) = self.free.pop() {
            let slot = &mut self.slab[s as usize];
            slot.stamp += 1; // orphan any heap entries of prior occupants
            slot.act = Some(act);
            s
        } else {
            self.slab.push(Slot {
                stamp: 1,
                act: Some(act),
            });
            (self.slab.len() - 1) as u32
        }
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
        let slot = self.alloc_slot(Act {
            kind,
            remaining,
            rate: 0.0,
            tag,
        });
        self.id_to_slot.insert(id, slot);
        if remaining.is_finite() {
            // Ids are monotone, so a push keeps the list sorted.
            self.finite.push((id, slot));
        }
        match compute {
            Ok((node, threads)) => {
                self.compute_members[node as usize].push((id, slot, threads));
                self.mark_cpu_dirty(node);
            }
            Err(path) => {
                self.netfair.insert(slot as usize, &path);
                self.io.push((id, slot));
                self.io_dirty = true;
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
            _ => {
                if let Ok(pos) = self.io.binary_search_by_key(&id, |&(i, _)| i) {
                    self.io.remove(pos);
                }
                self.netfair.remove(slot as usize);
                self.io_dirty = true;
            }
        }
    }

    /// Cancels a running activity, returning its tag (None if already done).
    pub fn cancel(&mut self, id: ActivityId) -> Option<T> {
        let slot = self.id_to_slot.remove(&id.0)?;
        let act = self.slab[slot as usize].act.take().expect("slot mapped");
        self.free.push(slot);
        self.detach(id.0, slot, &act.kind);
        if act.remaining.is_finite() {
            if let Ok(pos) = self.finite.binary_search_by_key(&id.0, |&(i, _)| i) {
                self.finite.remove(pos);
            }
        }
        Some(act.tag)
    }

    /// Number of in-flight activities (including background loads).
    pub fn active_count(&self) -> usize {
        self.id_to_slot.len()
    }

    /// Schedules a timer at absolute time `at` (clamped to now).
    pub fn set_timer(&mut self, at: SimTime, tag: T) -> TimerId {
        let id = self.next_id;
        self.next_id += 1;
        let at = at.max(self.now);
        self.timers.insert(
            id,
            Timer {
                tag,
                cancelled: false,
            },
        );
        self.timer_heap.push(Reverse((at, id)));
        TimerId(id)
    }

    /// Schedules a timer `delay` seconds from now.
    pub fn set_timer_after(&mut self, delay: f64, tag: T) -> TimerId {
        let at = self.now + delay.max(0.0);
        self.set_timer(at, tag)
    }

    pub fn cancel_timer(&mut self, id: TimerId) {
        if let Some(t) = self.timers.get_mut(&id.0) {
            t.cancelled = true;
        }
    }

    /// Debug: pending (non-cancelled) timer count.
    pub fn debug_timer_count(&self) -> usize {
        self.timers.values().filter(|t| !t.cancelled).count()
    }

    /// Earliest predicted activity completion. The heap orders candidates
    /// by the prediction made at their last rate change; every candidate
    /// within the float-drift window of the top is re-evaluated from its
    /// current remaining volume, so the returned instant is exactly the
    /// naive engine's scan minimum.
    ///
    /// A refresh that leaves an activity's rate bits unchanged keeps its
    /// stamp and its old entry, however many refreshes ago that entry was
    /// pushed: IO flows whose fill gave the same bits, and compute on
    /// nodes whose compute set did not change. With the rate fixed, the
    /// old key `t0 + remaining0 / rate` differs from a fresh `now +
    /// remaining / rate` only by the rounding of the settle subtractions
    /// since `t0`, far inside the window, and the value returned is the
    /// fresh one either way. So an old entry surfaces exactly when a fresh
    /// one would, and gives the same instant.
    fn peek_completion(&mut self) -> Option<SimTime> {
        // Bound stale-entry buildup: rebuild from live activities when the
        // heap far outgrows them.
        if self.comp_heap.len() > 64 + 8 * self.finite.len() {
            self.comp_heap.clear();
            for &(_, slot) in &self.finite {
                let s = &self.slab[slot as usize];
                let a = s.act.as_ref().expect("finite act exists");
                if a.rate > 0.0 {
                    let key = if is_complete(a.remaining, a.rate) {
                        self.now
                    } else {
                        self.now + a.remaining / a.rate
                    };
                    self.comp_heap.push(Reverse((key, slot, s.stamp)));
                }
            }
        }
        loop {
            let &Reverse((key, slot, stamp)) = self.comp_heap.peek()?;
            {
                let s = &self.slab[slot as usize];
                if s.stamp != stamp || s.act.is_none() {
                    self.comp_heap.pop();
                    continue;
                }
            }
            // Cached keys may drift from fresh predictions by accumulated
            // settle rounding; the window is orders of magnitude wider
            // than that drift and far narrower than real event gaps.
            let limit = key + (1e-6 + key.as_secs() * 1e-9);
            let mut best: Option<SimTime> = None;
            let mut kept = std::mem::take(&mut self.peek_buf);
            kept.clear();
            while let Some(&Reverse((k, sl, st))) = self.comp_heap.peek() {
                if k > limit {
                    break;
                }
                self.comp_heap.pop();
                let s = &self.slab[sl as usize];
                if s.stamp == st {
                    if let Some(a) = s.act.as_ref() {
                        let fresh = if is_complete(a.remaining, a.rate) {
                            self.now
                        } else {
                            self.now + a.remaining / a.rate
                        };
                        best = Some(best.map_or(fresh, |b| b.min(fresh)));
                        kept.push((k, sl, st));
                    }
                }
            }
            for e in kept.drain(..) {
                self.comp_heap.push(Reverse(e));
            }
            self.peek_buf = kept;
            return best;
        }
    }

    /// Earliest pending timer deadline, discarding surfaced cancellations.
    fn peek_timer(&mut self) -> Option<SimTime> {
        loop {
            let &Reverse((at, id)) = self.timer_heap.peek()?;
            match self.timers.get(&id) {
                Some(t) if !t.cancelled => return Some(at),
                _ => {
                    self.timer_heap.pop();
                    self.timers.remove(&id);
                }
            }
        }
    }

    /// Virtual time of the next completion or timer, if any work is pending.
    pub fn peek_next_time(&mut self) -> Option<SimTime> {
        self.refresh_rates();
        match (self.peek_completion(), self.peek_timer()) {
            (Some(a), Some(t)) => Some(a.min(t)),
            (a, t) => a.or(t),
        }
    }

    /// Advances to the next completion/timer instant and returns everything
    /// that fired there, in deterministic (creation) order. Returns `None`
    /// when only background activities remain.
    pub fn step(&mut self) -> Option<Vec<Completion<T>>> {
        let target = self.peek_next_time()?;
        self.advance_to(target);

        let mut fired = Vec::new();
        // Only finite activities can complete; `finite` is id-ascending,
        // so completions fire in creation order like the naive scan.
        let mut done = std::mem::take(&mut self.done_buf);
        done.clear();
        for &(id, slot) in &self.finite {
            let a = self.slab[slot as usize]
                .act
                .as_ref()
                .expect("finite act exists");
            if is_complete(a.remaining, a.rate) {
                done.push((id, slot));
            }
        }
        if !done.is_empty() {
            self.finite
                .retain(|&(id, _)| done.binary_search_by_key(&id, |&(i, _)| i).is_err());
            for &(id, slot) in &done {
                let act = self.slab[slot as usize]
                    .act
                    .take()
                    .expect("collected above");
                self.free.push(slot);
                self.id_to_slot.remove(&id);
                self.detach(id, slot, &act.kind);
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
                fired.push(Completion::Activity {
                    id: ActivityId(id),
                    tag: act.tag,
                });
            }
        }
        done.clear();
        self.done_buf = done;

        let mut due: Vec<u64> = Vec::new();
        while let Some(&Reverse((at, id))) = self.timer_heap.peek() {
            if at > self.now {
                break;
            }
            self.timer_heap.pop();
            match self.timers.get(&id) {
                // Cancelled timers that have passed are garbage-collected.
                Some(t) if t.cancelled => {
                    self.timers.remove(&id);
                }
                Some(_) => due.push(id),
                None => {}
            }
        }
        // The heap surfaces due timers deadline-first; fire in id order.
        due.sort_unstable();
        for id in due {
            let timer = self.timers.remove(&id).expect("collected above");
            fired.push(Completion::Timer {
                id: TimerId(id),
                tag: timer.tag,
            });
        }
        if self.tracer.is_enabled() {
            self.tracer.counter(
                self.engine_track,
                "engine.active",
                self.now.as_secs(),
                self.id_to_slot.len() as f64,
            );
            self.tracer.inc("engine.steps", 1);
        }
        Some(fired)
    }

    /// Advances virtual time to `target` without processing completions
    /// (used by `step`, and by callers that want to sample metrics at a
    /// fixed cadence).
    pub fn advance_to(&mut self, target: SimTime) {
        assert!(target >= self.now, "time cannot run backwards");
        self.refresh_rates();
        let dt = target - self.now;
        if dt > 0.0 {
            for &(_, slot) in &self.finite {
                let act = self.slab[slot as usize]
                    .act
                    .as_mut()
                    .expect("finite act exists");
                act.remaining -= act.rate * dt;
                if act.remaining < 0.0 {
                    act.remaining = 0.0;
                }
            }
            for (node, inst) in self.inst.iter().enumerate() {
                self.usage[node].accumulate(dt, inst, &self.spec.nodes[node]);
            }
            self.now = target;
        }
    }

    /// Drains and returns the usage accumulated on `node` since the last
    /// call (or simulation start).
    pub fn take_usage(&mut self, node: NodeId) -> NodeUsage {
        std::mem::take(&mut self.usage[node.index()])
    }

    /// Recomputes the rates invalidated since the last refresh: one
    /// `fair_cores` run per dirty node, one max-min fill iff the IO set
    /// changed. A compute activity on a dirty node, and an IO activity
    /// whose rate bits changed, gets a new completion-heap entry; its
    /// previous entries go stale via the stamp bump.
    fn refresh_rates(&mut self) {
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
                let s = &mut self.slab[slot as usize];
                let act = s.act.as_mut().expect("member exists");
                act.rate = cores * node_spec.speed;
                s.stamp += 1;
                if act.remaining.is_finite() && act.rate > 0.0 {
                    let key = if is_complete(act.remaining, act.rate) {
                        self.now
                    } else {
                        self.now + act.remaining / act.rate
                    };
                    self.comp_heap.push(Reverse((key, slot, s.stamp)));
                }
                total += cores;
            }
            self.inst[n][0] = total;
        }

        if self.io_dirty {
            self.io_dirty = false;
            self.netfair.fill();
            for row in self.inst.iter_mut() {
                row[1] = 0.0;
                row[2] = 0.0;
                row[3] = 0.0;
                row[4] = 0.0;
            }
            for &(_, slot) in &self.io {
                let rate = self.netfair.rate(slot as usize);
                let s = &mut self.slab[slot as usize];
                let act = s.act.as_mut().expect("flow exists");
                // An unchanged rate keeps its stamp and heap entry (see
                // `peek_completion`).
                if act.rate.to_bits() != rate.to_bits() {
                    act.rate = rate;
                    s.stamp += 1;
                    if act.remaining.is_finite() && rate > 0.0 {
                        let key = if is_complete(act.remaining, rate) {
                            self.now
                        } else {
                            self.now + act.remaining / rate
                        };
                        self.comp_heap.push(Reverse((key, slot, s.stamp)));
                    }
                }
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
                    Activity::Compute { .. } => unreachable!("not in the IO set"),
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
        assert!(matches!(fired[0], Completion::Activity { tag: 7, .. }));
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

    #[test]
    fn timers_fire_in_order_and_cancel() {
        let mut e: Engine<u32> = Engine::new(one_node_cluster());
        let t1 = e.set_timer_after(1.0, 1);
        let _t2 = e.set_timer_after(2.0, 2);
        e.cancel_timer(t1);
        let fired = e.step().unwrap();
        assert_eq!(fired.len(), 1);
        assert!(matches!(fired[0], Completion::Timer { tag: 2, .. }));
        assert!((e.now().as_secs() - 2.0).abs() < 1e-9);
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
    fn stale_completion_entries_are_discarded_on_rate_change() {
        let mut e: Engine<u32> = Engine::new(one_node_cluster());
        // The long task's first prediction (t=20 at 1 core) goes stale
        // when the short task finishes and it doubles its rate.
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
    fn many_cancelled_timers_do_not_linger() {
        let mut e: Engine<u32> = Engine::new(one_node_cluster());
        let ids: Vec<TimerId> = (0..100)
            .map(|i| e.set_timer_after(1.0 + i as f64, i))
            .collect();
        for id in &ids[1..] {
            e.cancel_timer(*id);
        }
        assert_eq!(e.debug_timer_count(), 1);
        let fired = e.step().unwrap();
        assert_eq!(fired.len(), 1);
        assert!(matches!(fired[0], Completion::Timer { tag: 0, .. }));
        assert!(e.step().is_none());
        assert_eq!(e.debug_timer_count(), 0);
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

    #[test]
    fn slot_reuse_does_not_resurrect_stale_predictions() {
        let mut e: Engine<u32> = Engine::new(two_node_cluster());
        // Create a prediction entry for a task, cancel it (freeing its
        // slot), then start a different task that reuses the slot. The
        // stale entry must not surface as the new task's completion.
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
        assert!(matches!(fired[0], Completion::Activity { tag: 2, .. }));
        assert!((e.now().as_secs() - 50.0).abs() < 1e-6);
    }
}
