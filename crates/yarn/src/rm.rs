//! The ResourceManager: node capacity tracking and container allocation
//! through hierarchical fair/capacity queues with DRF ordering.
//!
//! With the default configuration (one all-absorbing `default` queue)
//! the allocator degenerates to exactly the historical FIFO walk; real
//! multi-tenancy starts when [`ResourceManager::configure_queues`]
//! installs a tree of weighted queues. See [`crate::queues`] for the
//! queue model.

use std::collections::BTreeMap;

use hiway_obs::profile::{section, Section};
use hiway_obs::{QueueAudit, QueueEventKind, Tracer};
use hiway_sim::{ClusterSpec, NodeId};

use crate::queues::{Admission, AdmissionPolicy, QueueSet, QueuesConfig};
use crate::types::{AppId, Container, ContainerId, ContainerRequest, RequestId, Resource};

struct NodeState {
    total: Resource,
    available: Resource,
    alive: bool,
}

struct PendingRequest {
    app: AppId,
    request: ContainerRequest,
}

/// The simulated ResourceManager.
pub struct ResourceManager {
    nodes: Vec<NodeState>,
    /// Pending requests of all applications, keyed by (leaf queue,
    /// request id), so each leaf's requests form one id-ordered range.
    /// Ordering within a scheduler queue is request-id order; ordering
    /// *between* scheduler queues is DRF.
    queue: BTreeMap<(usize, u64), PendingRequest>,
    /// How many pending requests ask for each resource shape: a round in
    /// which no alive node fits any of them cannot grant anything.
    shapes: Vec<(Resource, usize)>,
    containers: BTreeMap<u64, Container>,
    next_request: u64,
    next_container: u64,
    next_app: u32,
    /// Leaf queue each application was submitted to.
    app_queue: Vec<usize>,
    /// Whether each application has been admitted (may request containers).
    app_admitted: Vec<bool>,
    /// Whether each application has terminally finished.
    app_finished: Vec<bool>,
    /// The queue tree. Defaults to a single elastic `default` leaf.
    queues: QueueSet,
    /// True once [`Self::configure_queues`] ran. Gates all per-queue
    /// observability so default deployments keep their historical traces
    /// byte-identical.
    queues_configured: bool,
    /// Cross-queue preemption victims selected but not yet collected by
    /// the driver via [`Self::take_preemptions`].
    pending_preemptions: Vec<ContainerId>,
    /// Requests rejected at submission because no node (or queue ceiling)
    /// could ever satisfy them; drained via [`Self::take_infeasible`].
    infeasible: Vec<(AppId, String)>,
    /// Round-robin pointer so relaxed requests spread across the cluster
    /// instead of piling onto node 0.
    spread_cursor: usize,
    /// Latest virtual time seen by [`Self::allocate_at`]. Submission-time
    /// audit entries use it; the RM deliberately has no clock of its own.
    last_now: f64,
    /// Set by every call that changes requests, containers, nodes,
    /// admissions or the queue tree; a round that finds it clear skips
    /// its scan (see [`Self::allocate_at`]).
    dirty: bool,
    /// Observability sink. Counters land in the metrics registry;
    /// timestamped container spans are emitted by the driver.
    tracer: Tracer,
}

impl ResourceManager {
    /// Builds an RM from the cluster hardware description: one NodeManager
    /// per node, advertising all of the node's cores (at least one) and
    /// memory to containers, as the paper's experiments were configured.
    pub fn new(spec: &ClusterSpec) -> ResourceManager {
        let nodes = spec
            .nodes
            .iter()
            .map(|n| {
                let total = Resource::new(n.cores.max(1), n.memory_mb);
                NodeState {
                    total,
                    available: total,
                    alive: true,
                }
            })
            .collect();
        ResourceManager {
            nodes,
            queue: BTreeMap::new(),
            shapes: Vec::new(),
            containers: BTreeMap::new(),
            next_request: 0,
            next_container: 0,
            next_app: 0,
            app_queue: Vec::new(),
            app_admitted: Vec::new(),
            app_finished: Vec::new(),
            queues: QueueSet::build(&QueuesConfig::default()).expect("default queue tree"),
            queues_configured: false,
            pending_preemptions: Vec::new(),
            infeasible: Vec::new(),
            spread_cursor: 0,
            last_now: 0.0,
            dirty: true,
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches an observability sink. Counters land in the shared
    /// metrics registry; a disabled tracer keeps every record a no-op.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
    }

    /// Installs a queue tree. Must run before any application is
    /// submitted — re-binning live applications is not modelled.
    pub fn configure_queues(&mut self, config: QueuesConfig) -> Result<(), String> {
        if self.next_app > 0 {
            return Err("configure_queues after applications were submitted".to_string());
        }
        self.queues = QueueSet::build(&config)?;
        self.queues_configured = true;
        self.dirty = true;
        Ok(())
    }

    /// Registers an application (a Hi-WAY AM about to start) on the
    /// default queue. The AM's own container is requested like any other
    /// via [`Self::request`]. Admission limits still apply: an app that
    /// was queued or rejected gets an id but no containers until (unless)
    /// admitted.
    pub fn submit_app(&mut self) -> AppId {
        let leaf = self.queues.default_leaf();
        self.admit(leaf).0
    }

    /// Registers an application on a named leaf queue. Errs on unknown
    /// queue names; otherwise reports the admission verdict alongside the
    /// id.
    pub fn submit_app_to(&mut self, queue: &str) -> Result<(AppId, Admission), String> {
        let leaf = self
            .queues
            .leaf_by_name(queue)
            .ok_or_else(|| format!("unknown queue '{queue}'"))?;
        Ok(self.admit(leaf))
    }

    fn admit(&mut self, leaf: usize) -> (AppId, Admission) {
        self.dirty = true;
        let id = AppId(self.next_app);
        self.next_app += 1;
        self.app_queue.push(leaf);
        let node = &mut self.queues.nodes[leaf];
        let at_cap = node.max_apps.is_some_and(|cap| node.live_apps >= cap);
        let verdict = if !at_cap {
            node.live_apps += 1;
            Admission::Admitted
        } else {
            match self.queues.admission {
                AdmissionPolicy::Queue => {
                    node.waiting.push(id.0);
                    Admission::Queued
                }
                AdmissionPolicy::Reject => Admission::Rejected,
            }
        };
        self.app_admitted.push(verdict == Admission::Admitted);
        self.app_finished.push(verdict == Admission::Rejected);
        let kind = match verdict {
            Admission::Admitted => QueueEventKind::Admit,
            Admission::Queued => QueueEventKind::Queued,
            Admission::Rejected => QueueEventKind::Reject,
        };
        self.emit_queue_audit(leaf, kind, Some(id), None, String::new());
        (id, verdict)
    }

    /// Marks an application terminally finished, freeing its admission
    /// slot; the oldest waiting application in the queue (if any) is
    /// admitted in its place. Safe to call more than once.
    pub fn finish_app(&mut self, app: AppId) {
        let idx = app.0 as usize;
        if idx >= self.app_finished.len() || self.app_finished[idx] {
            return;
        }
        self.dirty = true;
        self.app_finished[idx] = true;
        if !self.app_admitted[idx] {
            // Still parked: just remove it from the wait list.
            let leaf = self.app_queue[idx];
            self.queues.nodes[leaf].waiting.retain(|&a| a != app.0);
            return;
        }
        let leaf = self.app_queue[idx];
        let node = &mut self.queues.nodes[leaf];
        node.live_apps = node.live_apps.saturating_sub(1);
        let can_admit = node.max_apps.is_none_or(|cap| node.live_apps < cap);
        if can_admit && !node.waiting.is_empty() {
            let next = node.waiting.remove(0);
            node.live_apps += 1;
            self.app_admitted[next as usize] = true;
            self.emit_queue_audit(
                leaf,
                QueueEventKind::Admit,
                Some(AppId(next)),
                None,
                "admitted from wait list".to_string(),
            );
        }
    }

    /// Enqueues a container request; allocation happens on the next
    /// [`Self::allocate_at`] (the AM–RM heartbeat). Requests no node (and no
    /// queue ceiling) could *ever* satisfy are failed fast instead of
    /// queued: they land in [`Self::take_infeasible`] and the driver
    /// fails the workflow rather than letting it hang.
    pub fn request(&mut self, app: AppId, request: ContainerRequest) -> RequestId {
        self.dirty = true;
        let id = RequestId(self.next_request);
        self.next_request += 1;
        if let Some(why) = self.infeasible_reason(app, &request) {
            self.infeasible.push((app, why.clone()));
            let leaf = self.app_queue[app.0 as usize];
            self.emit_queue_audit(leaf, QueueEventKind::Infeasible, Some(app), None, why);
            self.tracer.inc("rm.requests_infeasible", 1);
            return id;
        }
        let leaf = self.app_queue[app.0 as usize];
        self.queue
            .insert((leaf, id.0), PendingRequest { app, request });
        count_shape(&mut self.shapes, request.resource);
        self.tracer.inc("rm.requests", 1);
        self.tracer
            .set_gauge("rm.pending_requests", self.queue.len() as f64);
        id
    }

    /// Why `request` can never be satisfied, if it cannot. Judged against
    /// node *totals* (dead nodes may revive) so transient failures never
    /// fail-fast a workflow.
    fn infeasible_reason(&self, app: AppId, request: &ContainerRequest) -> Option<String> {
        let res = request.resource;
        match request.preference {
            Some(pref) if !request.relax_locality => {
                if pref.index() >= self.nodes.len() {
                    return Some(format!("pinned to nonexistent node {}", pref.0));
                }
                if !self.nodes[pref.index()].total.fits(&res) {
                    return Some(format!(
                        "request {}vc/{}MB exceeds node {}'s capacity",
                        res.vcores, res.memory_mb, pref.0
                    ));
                }
            }
            _ => {
                if !self.nodes.iter().any(|n| n.total.fits(&res)) {
                    return Some(format!(
                        "request {}vc/{}MB fits no node in the cluster",
                        res.vcores, res.memory_mb
                    ));
                }
            }
        }
        // A request larger than the queue's elastic ceiling can never be
        // placed either, no matter how idle the cluster gets.
        let leaf = self.app_queue[app.0 as usize];
        let grand_total = self.grand_total();
        let node = &self.queues.nodes[leaf];
        if (res.vcores as f64) > node.max_frac * grand_total.vcores as f64 + 1e-9
            || (res.memory_mb as f64) > node.max_frac * grand_total.memory_mb as f64 + 1e-9
        {
            return Some(format!(
                "request {}vc/{}MB exceeds queue '{}' max-capacity",
                res.vcores, res.memory_mb, node.name
            ));
        }
        None
    }

    pub fn pending_requests(&self) -> usize {
        self.queue.len()
    }

    /// Pending requests of one application.
    pub fn pending_for(&self, app: AppId) -> usize {
        self.queue.values().filter(|p| p.app == app).count()
    }

    /// One allocation round at virtual time `now`: serves queues in DRF
    /// order, each queue FIFO within itself, capped by every queue's
    /// elastic ceiling; then updates starvation clocks and selects
    /// cross-queue preemption victims. Requests that cannot be satisfied
    /// stay queued. Returns the new containers.
    ///
    /// A round tries every pending request while availability only falls
    /// and queue usage only rises, so each request it leaves pending also
    /// fails against its final state: a round with nothing changed since
    /// the last one would grant nothing, and skips the scan.
    pub fn allocate_at(&mut self, now: f64) -> Vec<Container> {
        let _p = section(Section::RmAllocate);
        self.last_now = now;
        let granted = if std::mem::take(&mut self.dirty) {
            self.grant()
        } else {
            Vec::new()
        };
        self.update_preemption(now);
        if self.tracer.is_enabled() {
            self.tracer.inc("rm.allocation_rounds", 1);
            self.tracer
                .inc("rm.containers_allocated", granted.len() as u64);
            self.tracer
                .set_gauge("rm.pending_requests", self.queue.len() as f64);
            self.tracer
                .set_gauge("rm.running_containers", self.containers.len() as f64);
            self.emit_queue_usage(now);
        }
        granted
    }

    /// The grant walk of [`Self::allocate_at`]: tries every schedulable
    /// pending request once, leaves in DRF order, each leaf in id order,
    /// reading each leaf's next request from its range of the queue.
    ///
    /// Every grant needs an alive node whose `available` fits the request
    /// (pinned or relaxed alike), while leaf picks and ceiling checks are
    /// pure and the spread cursor moves only on a grant. So once no alive
    /// node fits any pending shape, the rest of the walk grants nothing
    /// and changes nothing: the round stops there, or never starts.
    fn grant(&mut self) -> Vec<Container> {
        let mut granted = Vec::new();
        if !self.any_shape_fits() {
            return granted;
        }
        let total = self.alive_total();
        let nq = self.queues.nodes.len();
        let mut next: Vec<_> = (0..nq).map(|leaf| self.next_pending(leaf, 0)).collect();
        let mut eligible: Vec<bool> = next.iter().map(Option::is_some).collect();
        while let Some(leaf) = self.queues.pick_leaf(&eligible, total) {
            let (id, request) = next[leaf].expect("an eligible leaf has a next request");
            next[leaf] = self.next_pending(leaf, id + 1);
            eligible[leaf] = next[leaf].is_some();
            if !self.queues.fits_under_max(leaf, request.resource, total) {
                continue; // over the queue ceiling: stays pending
            }
            if let Some(node) = self.find_node(&request) {
                granted.push(self.launch(leaf, id, node));
                if !self.any_shape_fits() {
                    break;
                }
            }
        }
        granted
    }

    /// The lowest-id pending request of an admitted application in
    /// `leaf`, from id `from` on.
    fn next_pending(&self, leaf: usize, from: u64) -> Option<(u64, ContainerRequest)> {
        self.queue
            .range((leaf, from)..=(leaf, u64::MAX))
            .find(|(_, p)| self.app_admitted[p.app.0 as usize])
            .map(|(&(_, id), p)| (id, p.request))
    }

    /// Whether some alive node's available capacity fits some pending
    /// request's shape.
    fn any_shape_fits(&self) -> bool {
        self.nodes
            .iter()
            .any(|n| n.alive && self.shapes.iter().any(|(s, _)| n.available.fits(s)))
    }

    /// Grants pending request `id` of `leaf` on `node`: takes it off the
    /// queue at once (the queue audit of this grant reads the queue) and
    /// books the container on the node and the queue tree.
    fn launch(&mut self, leaf: usize, id: u64, node: NodeId) -> Container {
        let PendingRequest { app, request } = self.unqueue(leaf, id).expect("still queued");
        self.nodes[node.index()]
            .available
            .subtract(&request.resource);
        let cid = ContainerId(self.next_container);
        self.next_container += 1;
        let container = Container {
            id: cid,
            app,
            node,
            resource: request.resource,
            request: RequestId(id),
            unpreemptable: request.unpreemptable,
        };
        self.containers.insert(cid.0, container);
        self.queues.charge(leaf, container.resource);
        self.emit_queue_audit(
            leaf,
            QueueEventKind::Allocate,
            Some(container.app),
            Some(cid),
            String::new(),
        );
        container
    }

    /// Removes a pending request, keeping the shape counts in step.
    fn unqueue(&mut self, leaf: usize, id: u64) -> Option<PendingRequest> {
        let p = self.queue.remove(&(leaf, id))?;
        let at = self
            .shapes
            .iter()
            .position(|(s, _)| *s == p.request.resource)
            .expect("a pending shape is counted");
        self.shapes[at].1 -= 1;
        if self.shapes[at].1 == 0 {
            self.shapes.swap_remove(at);
        }
        Some(p)
    }

    /// Per-leaf demand as cluster fractions: current usage plus pending
    /// admitted asks.
    fn leaf_demands(&self, total: Resource) -> Vec<f64> {
        let mut asked: Vec<Resource> = self.queues.nodes.iter().map(|n| n.used).collect();
        for p in self.queue.values() {
            if self.app_admitted[p.app.0 as usize] {
                asked[self.app_queue[p.app.0 as usize]].add(&p.request.resource);
            }
        }
        asked
            .iter()
            .map(|&r| QueueSet::dominant_share(r, total))
            .collect()
    }

    /// Pending admitted request count per leaf.
    fn leaf_pending(&self) -> Vec<u64> {
        let mut pending = vec![0u64; self.queues.nodes.len()];
        for p in self.queue.values() {
            if self.app_admitted[p.app.0 as usize] {
                pending[self.app_queue[p.app.0 as usize]] += 1;
            }
        }
        pending
    }

    /// Starvation bookkeeping + victim selection. A leaf is *starved*
    /// when it has pending demand and could absorb its next request while
    /// staying within its fair share — i.e. it is below fair share not by
    /// choice but because siblings hold the capacity. Once starved longer
    /// than the grace period, the newest containers of over-guarantee
    /// sibling queues are selected as victims (never below a queue's
    /// guarantee, never unpreemptable containers) and handed to the
    /// driver via [`Self::take_preemptions`].
    fn update_preemption(&mut self, now: f64) {
        let Some(grace) = self.queues.grace_secs else {
            return;
        };
        let total = self.alive_total();
        let demands = self.leaf_demands(total);
        let fair = self.queues.fair_shares(&demands);
        let leaves = self.queues.leaves();
        for &leaf in &leaves {
            // The head request (lowest id), for the "could take one more"
            // test.
            let starved = match self.next_pending(leaf, 0) {
                Some((_, next)) => {
                    let mut with_next = self.queues.nodes[leaf].used;
                    with_next.add(&next.resource);
                    QueueSet::dominant_share(with_next, total) <= fair[leaf] + 1e-9
                }
                None => false,
            };
            if !starved {
                self.queues.nodes[leaf].starved_since = None;
                continue;
            }
            match self.queues.nodes[leaf].starved_since {
                None => self.queues.nodes[leaf].starved_since = Some(now),
                Some(t0) if now - t0 >= grace - 1e-9 => {
                    self.select_victims(leaf, &fair, total);
                    // Restart the grace clock: give the driver time to
                    // kill the victims before demanding more blood.
                    self.queues.nodes[leaf].starved_since = Some(now);
                }
                Some(_) => {}
            }
        }
    }

    /// Selects preemption victims on behalf of `starved`: walks live
    /// containers newest-first, taking those whose owning queue stays at
    /// or above its guarantee without them, until the starved queue's
    /// fair-share deficit is covered.
    fn select_victims(&mut self, starved: usize, fair: &[f64], total: Resource) {
        let mut need =
            fair[starved] - QueueSet::dominant_share(self.queues.nodes[starved].used, total);
        if need <= 1e-9 {
            return;
        }
        // Usage after victims already selected (this round and rounds the
        // driver has not yet acted on).
        let mut adjusted: Vec<Resource> = self.queues.nodes.iter().map(|n| n.used).collect();
        for cid in &self.pending_preemptions {
            if let Some(c) = self.containers.get(&cid.0) {
                let leaf = self.app_queue[c.app.0 as usize];
                adjusted[leaf].vcores = adjusted[leaf].vcores.saturating_sub(c.resource.vcores);
                adjusted[leaf].memory_mb = adjusted[leaf]
                    .memory_mb
                    .saturating_sub(c.resource.memory_mb);
            }
        }
        let ids: Vec<u64> = self.containers.keys().rev().copied().collect();
        for cid in ids {
            if need <= 1e-9 {
                break;
            }
            let c = self.containers[&cid];
            if c.unpreemptable || self.pending_preemptions.contains(&c.id) {
                continue;
            }
            let owner = self.app_queue[c.app.0 as usize];
            if owner == starved {
                continue;
            }
            let mut after = adjusted[owner];
            after.vcores = after.vcores.saturating_sub(c.resource.vcores);
            after.memory_mb = after.memory_mb.saturating_sub(c.resource.memory_mb);
            let over_guarantee = QueueSet::dominant_share(adjusted[owner], total)
                > self.queues.nodes[owner].cap_frac + 1e-9;
            let stays_at_guarantee =
                QueueSet::dominant_share(after, total) >= self.queues.nodes[owner].cap_frac - 1e-9;
            if !over_guarantee || !stays_at_guarantee {
                continue;
            }
            adjusted[owner] = after;
            need -= QueueSet::dominant_share(c.resource, total);
            self.pending_preemptions.push(c.id);
            self.tracer.inc("rm.queue_preemptions", 1);
            self.emit_queue_audit(
                owner,
                QueueEventKind::Preempt,
                Some(c.app),
                Some(c.id),
                format!("for starved queue '{}'", self.queues.nodes[starved].name),
            );
        }
    }

    /// Drains the preemption victims selected since the last call. The
    /// driver must kill each via its own failure path so AM infra-retry
    /// budgets apply.
    pub fn take_preemptions(&mut self) -> Vec<ContainerId> {
        std::mem::take(&mut self.pending_preemptions)
    }

    /// Drains requests that were failed fast as unsatisfiable, with the
    /// reason. The driver fails the owning workflow.
    pub fn take_infeasible(&mut self) -> Vec<(AppId, String)> {
        std::mem::take(&mut self.infeasible)
    }

    /// The leaf queue unnamed submissions land on.
    pub fn default_queue(&self) -> &str {
        &self.queues.nodes[self.queues.default_leaf()].name
    }

    /// Leaf queue names in definition order.
    pub fn queue_names(&self) -> Vec<String> {
        self.queues
            .leaves()
            .into_iter()
            .map(|i| self.queues.nodes[i].name.clone())
            .collect()
    }

    /// A leaf queue's current usage.
    pub fn queue_usage(&self, queue: &str) -> Option<Resource> {
        self.queues
            .leaf_by_name(queue)
            .map(|i| self.queues.nodes[i].used)
    }

    /// Pending admitted requests in a leaf queue.
    pub fn queue_pending(&self, queue: &str) -> Option<u64> {
        let leaf = self.queues.leaf_by_name(queue)?;
        Some(self.leaf_pending()[leaf])
    }

    /// Instantaneous fair shares (cluster fractions) of all leaf queues,
    /// in definition order — demand-bounded water-filling over weights.
    pub fn queue_fair_shares(&self) -> Vec<(String, f64)> {
        let total = self.alive_total();
        let fair = self.queues.fair_shares(&self.leaf_demands(total));
        self.queues
            .leaves()
            .into_iter()
            .map(|i| (self.queues.nodes[i].name.clone(), fair[i]))
            .collect()
    }

    /// A leaf queue's dominant share of the live cluster.
    pub fn queue_share(&self, queue: &str) -> Option<f64> {
        let leaf = self.queues.leaf_by_name(queue)?;
        Some(QueueSet::dominant_share(
            self.queues.nodes[leaf].used,
            self.alive_total(),
        ))
    }

    /// A leaf queue's absolute guaranteed / maximum cluster fractions.
    pub fn queue_limits(&self, queue: &str) -> Option<(f64, f64)> {
        let leaf = self.queues.leaf_by_name(queue)?;
        let n = &self.queues.nodes[leaf];
        Some((n.cap_frac, n.max_frac))
    }

    fn emit_queue_audit(
        &self,
        leaf: usize,
        kind: QueueEventKind,
        app: Option<AppId>,
        container: Option<ContainerId>,
        detail: String,
    ) {
        if !self.queues_configured || !self.tracer.is_enabled() {
            return;
        }
        let total = self.alive_total();
        let fair = self.queues.fair_shares(&self.leaf_demands(total));
        let n = &self.queues.nodes[leaf];
        self.tracer.queue_audit(QueueAudit {
            t: self.last_now,
            queue: n.name.clone(),
            kind,
            app: app.map(|a| a.0),
            container: container.map(|c| c.0),
            used_vcores: n.used.vcores as u64,
            used_memory_mb: n.used.memory_mb,
            pending: self.leaf_pending()[leaf],
            share: QueueSet::dominant_share(n.used, total),
            fair_share: fair[leaf],
            detail,
        });
    }

    /// One usage sample per leaf per allocation round, plus per-queue
    /// gauges. Only for explicitly configured queue trees.
    fn emit_queue_usage(&self, now: f64) {
        if !self.queues_configured {
            return;
        }
        let total = self.alive_total();
        let demands = self.leaf_demands(total);
        let fair = self.queues.fair_shares(&demands);
        let pending = self.leaf_pending();
        for leaf in self.queues.leaves() {
            let n = &self.queues.nodes[leaf];
            let share = QueueSet::dominant_share(n.used, total);
            self.tracer.set_gauge(
                &format!("rm.queue.{}.used_vcores", n.name),
                n.used.vcores as f64,
            );
            self.tracer.set_gauge(
                &format!("rm.queue.{}.used_memory_mb", n.name),
                n.used.memory_mb as f64,
            );
            self.tracer.set_gauge(
                &format!("rm.queue.{}.pending", n.name),
                pending[leaf] as f64,
            );
            self.tracer
                .set_gauge(&format!("rm.queue.{}.share", n.name), share);
            self.tracer
                .set_gauge(&format!("rm.queue.{}.fair_share", n.name), fair[leaf]);
            self.tracer.queue_audit(QueueAudit {
                t: now,
                queue: n.name.clone(),
                kind: QueueEventKind::Usage,
                app: None,
                container: None,
                used_vcores: n.used.vcores as u64,
                used_memory_mb: n.used.memory_mb,
                pending: pending[leaf],
                share,
                fair_share: fair[leaf],
                detail: String::new(),
            });
        }
    }

    /// Total capacity of live nodes.
    fn alive_total(&self) -> Resource {
        let mut t = Resource::ZERO;
        for n in self.nodes.iter().filter(|n| n.alive) {
            t.add(&n.total);
        }
        t
    }

    /// Total capacity of all nodes, dead or alive.
    fn grand_total(&self) -> Resource {
        let mut t = Resource::ZERO;
        for n in &self.nodes {
            t.add(&n.total);
        }
        t
    }

    fn find_node(&mut self, request: &ContainerRequest) -> Option<NodeId> {
        let fits = |state: &NodeState| state.alive && state.available.fits(&request.resource);
        if let Some(pref) = request.preference {
            if pref.index() < self.nodes.len() && fits(&self.nodes[pref.index()]) {
                return Some(pref);
            }
            if !request.relax_locality {
                return None; // strict placement waits for the exact node
            }
        }
        // Relaxed: round-robin over the cluster for an even spread.
        let n = self.nodes.len();
        for offset in 0..n {
            let idx = (self.spread_cursor + offset) % n;
            if fits(&self.nodes[idx]) {
                self.spread_cursor = (idx + 1) % n;
                return Some(NodeId(idx as u32));
            }
        }
        None
    }

    /// Returns a container's lease to the pool (task finished or killed).
    pub fn release(&mut self, id: ContainerId) -> Option<Container> {
        let container = self.containers.remove(&id.0)?;
        self.dirty = true;
        let state = &mut self.nodes[container.node.index()];
        if state.alive {
            state.available.add(&container.resource);
        }
        self.queues
            .uncharge(self.app_queue[container.app.0 as usize], container.resource);
        self.tracer.inc("rm.containers_released", 1);
        self.tracer
            .set_gauge("rm.running_containers", self.containers.len() as f64);
        Some(container)
    }

    /// Marks a node dead and returns the containers that were running on
    /// it — the owning AMs must be told their tasks are gone.
    pub fn fail_node(&mut self, node: NodeId) -> Vec<Container> {
        self.dirty = true;
        let state = &mut self.nodes[node.index()];
        state.alive = false;
        state.available = Resource::ZERO;
        let killed: Vec<Container> = self
            .containers
            .values()
            .filter(|c| c.node == node)
            .copied()
            .collect();
        for c in &killed {
            self.containers.remove(&c.id.0);
            self.queues
                .uncharge(self.app_queue[c.app.0 as usize], c.resource);
        }
        if self.tracer.is_enabled() {
            self.tracer.inc("rm.nodes_failed", 1);
            self.tracer
                .inc("rm.containers_lost_to_node_failure", killed.len() as u64);
            self.tracer
                .set_gauge("rm.running_containers", self.containers.len() as f64);
        }
        killed
    }

    /// Overrides a node's advertised capacity (e.g. to dedicate a node to
    /// master processes or to exactly one AM container). Must be called
    /// before any containers are allocated on the node.
    pub fn set_capacity(&mut self, node: NodeId, capacity: Resource) {
        let state = &mut self.nodes[node.index()];
        assert!(
            state.available == state.total,
            "set_capacity with containers outstanding on node {}",
            node.0
        );
        state.total = capacity;
        state.available = capacity;
        self.dirty = true;
    }

    /// Returns a node to service with full (empty) capacity.
    pub fn revive_node(&mut self, node: NodeId) {
        let state = &mut self.nodes[node.index()];
        if !state.alive {
            self.dirty = true;
            state.alive = true;
            state.available = state.total;
            self.tracer.inc("rm.nodes_revived", 1);
        }
    }

    /// Checks the RM's books against its live containers and pending
    /// requests: on every alive node, `available` plus the node's
    /// containers equals `total`; no container sits on a dead node; every
    /// queue's `used` equals the containers of its subtree, so ancestors
    /// include their children; each pending request is filed under its
    /// application's leaf; and the shape counts equal a recount.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut shapes: Vec<(Resource, usize)> = Vec::new();
        for (&(leaf, id), p) in &self.queue {
            if leaf != self.app_queue[p.app.0 as usize] {
                return Err(format!(
                    "request {id} filed under leaf {leaf}, not its app's"
                ));
            }
            count_shape(&mut shapes, p.request.resource);
        }
        let counted = |s: &Resource| self.shapes.iter().find(|(c, _)| c == s).map(|&(_, n)| n);
        if shapes.len() != self.shapes.len() || shapes.iter().any(|(s, n)| counted(s) != Some(*n)) {
            return Err(format!(
                "shape counts {:?}, pending requests {shapes:?}",
                self.shapes
            ));
        }
        let mut held = vec![Resource::ZERO; self.nodes.len()];
        let mut used = vec![Resource::ZERO; self.queues.nodes.len()];
        for c in self.containers.values() {
            if !self.nodes[c.node.index()].alive {
                return Err(format!("container {} on dead node {}", c.id.0, c.node.0));
            }
            held[c.node.index()].add(&c.resource);
            let mut at = Some(self.app_queue[c.app.0 as usize]);
            while let Some(q) = at {
                used[q].add(&c.resource);
                at = self.queues.nodes[q].parent;
            }
        }
        for (i, (n, held)) in self.nodes.iter().zip(&held).enumerate() {
            let mut booked = n.available;
            booked.add(held);
            if n.alive && booked != n.total {
                return Err(format!(
                    "node {i}: available {:?} + containers {held:?} != total {:?}",
                    n.available, n.total
                ));
            }
        }
        for (q, want) in self.queues.nodes.iter().zip(&used) {
            if q.used != *want {
                return Err(format!(
                    "queue '{}': used {:?} != containers {want:?}",
                    q.name, q.used
                ));
            }
        }
        Ok(())
    }

    pub fn is_alive(&self, node: NodeId) -> bool {
        self.nodes[node.index()].alive
    }

    pub fn available(&self, node: NodeId) -> Resource {
        self.nodes[node.index()].available
    }

    pub fn total(&self, node: NodeId) -> Resource {
        self.nodes[node.index()].total
    }

    pub fn container(&self, id: ContainerId) -> Option<&Container> {
        self.containers.get(&id.0)
    }

    pub fn running_containers(&self) -> usize {
        self.containers.len()
    }

    /// Number of alive nodes.
    pub fn alive_count(&self) -> usize {
        self.nodes.iter().filter(|s| s.alive).count()
    }

    /// Alive nodes, in id order.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }
}

/// Counts one more pending request of shape `resource`.
fn count_shape(shapes: &mut Vec<(Resource, usize)>, resource: Resource) {
    match shapes.iter_mut().find(|(s, _)| *s == resource) {
        Some((_, n)) => *n += 1,
        None => shapes.push((resource, 1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queues::QueueSpec;
    use hiway_sim::{ClusterSpec, NodeSpec};
    use proptest::prelude::*;

    fn rm(nodes: usize) -> ResourceManager {
        let spec = ClusterSpec::homogeneous(nodes, "n", &NodeSpec::m3_large("p"));
        ResourceManager::new(&spec)
    }

    fn one_core() -> Resource {
        Resource::new(1, 1000)
    }

    /// Whether `app` is admitted: rejected or parked applications cannot
    /// be granted containers.
    fn admitted(r: &ResourceManager, app: AppId) -> bool {
        r.app_admitted[app.0 as usize]
    }

    /// Withdraws a pending request, as an AM giving up on it would.
    fn cancel(r: &mut ResourceManager, id: RequestId) {
        let key = r.queue.keys().find(|&&(_, i)| i == id.0).copied();
        if let Some((leaf, id)) = key {
            r.unqueue(leaf, id);
            r.dirty = true;
        }
    }

    #[test]
    fn allocation_respects_capacity() {
        let mut r = rm(1); // m3.large: 2 vcores, 7500 MB
        let app = r.submit_app();
        for _ in 0..3 {
            r.request(app, ContainerRequest::anywhere(one_core()));
        }
        let got = r.allocate_at(0.0);
        assert_eq!(got.len(), 2, "only two cores available");
        assert_eq!(r.pending_requests(), 1);
        // Releasing one frees capacity for the queued request.
        r.release(got[0].id);
        assert_eq!(r.allocate_at(0.0).len(), 1);
    }

    #[test]
    fn memory_limits_bind_too() {
        let mut r = rm(1);
        let app = r.submit_app();
        // Two 1-core/6000MB asks: only one fits in 7500 MB.
        for _ in 0..2 {
            r.request(app, ContainerRequest::anywhere(Resource::new(1, 6000)));
        }
        assert_eq!(r.allocate_at(0.0).len(), 1);
    }

    #[test]
    fn relaxed_requests_spread_round_robin() {
        let mut r = rm(4);
        let app = r.submit_app();
        for _ in 0..4 {
            r.request(app, ContainerRequest::anywhere(one_core()));
        }
        let got = r.allocate_at(0.0);
        let mut nodes: Vec<u32> = got.iter().map(|c| c.node.0).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn strict_placement_waits_for_its_node() {
        let mut r = rm(2);
        let app = r.submit_app();
        // Fill node 0 completely.
        r.request(
            app,
            ContainerRequest::pinned(Resource::new(2, 7000), NodeId(0)),
        );
        assert_eq!(r.allocate_at(0.0).len(), 1);
        // A strict request for node 0 must wait even though node 1 is free.
        let rid = r.request(app, ContainerRequest::pinned(one_core(), NodeId(0)));
        assert!(r.allocate_at(0.0).is_empty());
        assert_eq!(r.pending_requests(), 1);
        // A relaxed request with the same preference falls back to node 1.
        cancel(&mut r, rid);
        r.request(
            app,
            ContainerRequest {
                resource: one_core(),
                preference: Some(NodeId(0)),
                relax_locality: true,
                unpreemptable: false,
            },
        );
        let got = r.allocate_at(0.0);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].node, NodeId(1));
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut r = rm(1);
        let a1 = r.submit_app();
        let a2 = r.submit_app();
        r.request(a1, ContainerRequest::anywhere(Resource::new(2, 7000)));
        r.request(a2, ContainerRequest::anywhere(Resource::new(2, 7000)));
        let got = r.allocate_at(0.0);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].app, a1);
    }

    #[test]
    fn node_failure_kills_containers_and_capacity() {
        let mut r = rm(2);
        let app = r.submit_app();
        r.request(app, ContainerRequest::pinned(one_core(), NodeId(0)));
        r.request(app, ContainerRequest::pinned(one_core(), NodeId(1)));
        let got = r.allocate_at(0.0);
        assert_eq!(got.len(), 2);
        let killed = r.fail_node(NodeId(0));
        assert_eq!(killed.len(), 1);
        assert_eq!(killed[0].node, NodeId(0));
        assert!(!r.is_alive(NodeId(0)));
        assert_eq!(r.alive_nodes(), vec![NodeId(1)]);
        // New relaxed requests land on the survivor.
        r.request(app, ContainerRequest::anywhere(one_core()));
        let got = r.allocate_at(0.0);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].node, NodeId(1));
        // Releasing a killed container is a no-op (already gone).
        assert!(r.release(killed[0].id).is_none());
        // Revive restores capacity.
        r.revive_node(NodeId(0));
        assert_eq!(r.available(NodeId(0)), r.total(NodeId(0)));
    }

    #[test]
    fn submitted_app_is_admitted() {
        let mut r = rm(1);
        let a = r.submit_app();
        assert!(admitted(&r, a));
    }

    #[test]
    fn recovered_node_restores_full_capacity() {
        let mut r = rm(2);
        let app = r.submit_app();
        // Two containers on node 0, then the node dies mid-flight.
        r.request(app, ContainerRequest::pinned(one_core(), NodeId(0)));
        r.request(app, ContainerRequest::pinned(one_core(), NodeId(0)));
        assert_eq!(r.allocate_at(0.0).len(), 2);
        assert_eq!(r.available(NodeId(0)).vcores, 0);
        r.fail_node(NodeId(0));

        r.revive_node(NodeId(0));
        assert!(r.is_alive(NodeId(0)));
        // The containers died with the node: the NodeManager re-registers
        // with its *full* capacity, not the pre-crash remainder.
        assert_eq!(r.available(NodeId(0)), r.total(NodeId(0)));
        assert_eq!(r.running_containers(), 0);
    }

    #[test]
    fn old_container_ids_stay_dead_after_recovery() {
        let mut r = rm(2);
        let app = r.submit_app();
        r.request(app, ContainerRequest::pinned(one_core(), NodeId(0)));
        let got = r.allocate_at(0.0);
        let old = got[0].id;
        let killed = r.fail_node(NodeId(0));
        assert_eq!(killed[0].id, old);
        r.revive_node(NodeId(0));

        // The pre-crash container id is gone for good: no lookup, no
        // double-release, and fresh allocations never reuse it.
        assert!(r.container(old).is_none());
        assert!(r.release(old).is_none());
        assert_eq!(r.available(NodeId(0)), r.total(NodeId(0)));
        r.request(app, ContainerRequest::pinned(one_core(), NodeId(0)));
        let fresh = r.allocate_at(0.0);
        assert_eq!(fresh.len(), 1);
        assert_ne!(fresh[0].id, old);
    }

    #[test]
    fn new_allocations_land_on_recovered_node() {
        let mut r = rm(2);
        let app = r.submit_app();
        r.fail_node(NodeId(0));
        // While node 0 is down, relaxed requests avoid it...
        r.request(app, ContainerRequest::anywhere(one_core()));
        assert_eq!(r.allocate_at(0.0)[0].node, NodeId(1));
        // ...and pinned requests for it starve.
        let starved = r.request(app, ContainerRequest::pinned(one_core(), NodeId(0)));
        assert!(r.allocate_at(0.0).is_empty());
        assert_eq!(r.pending_requests(), 1);

        r.revive_node(NodeId(0));
        // The queued pinned request is finally served on the revived node.
        let got = r.allocate_at(0.0);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].node, NodeId(0));
        let _ = starved;
        // And relaxed requests may use it again too.
        r.request(app, ContainerRequest::anywhere(one_core()));
        let nodes: Vec<NodeId> = r.allocate_at(0.0).iter().map(|c| c.node).collect();
        assert!(!nodes.is_empty());
    }

    #[test]
    fn tracer_counts_allocation_lifecycle() {
        use hiway_obs::Tracer;
        let tracer = Tracer::enabled();
        let mut r = rm(2);
        r.set_tracer(&tracer);
        let app = r.submit_app();
        for _ in 0..3 {
            r.request(app, ContainerRequest::anywhere(one_core()));
        }
        let got = r.allocate_at(0.0);
        assert_eq!(tracer.counter_value("rm.requests"), 3);
        assert_eq!(
            tracer.counter_value("rm.containers_allocated"),
            got.len() as u64
        );
        r.release(got[0].id);
        assert_eq!(tracer.counter_value("rm.containers_released"), 1);
        r.fail_node(NodeId(1));
        assert_eq!(tracer.counter_value("rm.nodes_failed"), 1);
        r.revive_node(NodeId(1));
        assert_eq!(tracer.counter_value("rm.nodes_revived"), 1);
        let snap = tracer.snapshot().expect("enabled tracer snapshots");
        assert_eq!(snap.metrics.gauge("rm.pending_requests"), Some(0.0));
        // Default (unconfigured) queues stay silent: no queue audits, no
        // per-queue gauges — historical traces must not change.
        tracer.with_queue_audits(|a| assert!(a.is_empty()));
        assert_eq!(snap.metrics.gauge("rm.queue.default.used_vcores"), None);
    }

    #[test]
    fn disabled_tracer_leaves_rm_silent() {
        let tracer = hiway_obs::Tracer::disabled();
        let mut r = rm(1);
        r.set_tracer(&tracer);
        let app = r.submit_app();
        r.request(app, ContainerRequest::anywhere(one_core()));
        r.allocate_at(0.0);
        assert_eq!(tracer.counter_value("rm.requests"), 0);
        assert!(tracer.snapshot().is_none());
    }

    #[test]
    fn revive_is_idempotent_on_alive_nodes() {
        let mut r = rm(1);
        let app = r.submit_app();
        r.request(app, ContainerRequest::anywhere(one_core()));
        assert_eq!(r.allocate_at(0.0).len(), 1);
        let before = r.available(NodeId(0));
        // Reviving a node that never died must not resurrect capacity
        // currently leased to containers.
        r.revive_node(NodeId(0));
        assert_eq!(r.available(NodeId(0)), before);
        assert_eq!(r.running_containers(), 1);
    }

    // ----- edge cases: release/crash interactions --------------------------

    #[test]
    fn release_after_node_crash_is_a_noop() {
        let mut r = rm(2);
        let app = r.submit_app();
        r.request(app, ContainerRequest::pinned(one_core(), NodeId(0)));
        let got = r.allocate_at(0.0);
        let cid = got[0].id;
        r.fail_node(NodeId(0));
        // The driver may still hold the container handle and release it
        // after learning of the crash: the id is already gone, capacity
        // must not be resurrected on the dead node.
        assert!(r.release(cid).is_none());
        assert_eq!(r.available(NodeId(0)), Resource::ZERO);
        assert_eq!(r.running_containers(), 0);
        // Queue accounting was already uncharged by fail_node; a revive
        // then re-allocate works from a clean slate.
        assert_eq!(r.queue_usage("default"), Some(Resource::ZERO));
    }

    #[test]
    fn double_release_is_idempotent() {
        let mut r = rm(1);
        let app = r.submit_app();
        r.request(app, ContainerRequest::anywhere(one_core()));
        let got = r.allocate_at(0.0);
        let cid = got[0].id;
        assert!(r.release(cid).is_some());
        let avail = r.available(NodeId(0));
        // Second release of the same id: no capacity double-credit, no
        // queue-usage underflow, no panic.
        assert!(r.release(cid).is_none());
        assert_eq!(r.available(NodeId(0)), avail);
        assert_eq!(r.queue_usage("default"), Some(Resource::ZERO));
    }

    #[test]
    fn oversized_request_fails_fast_not_hangs() {
        let mut r = rm(2); // m3.large: 2 vcores / 7500 MB per node
        let app = r.submit_app();
        // More cores than any node has: must not enter the queue at all.
        r.request(app, ContainerRequest::anywhere(Resource::new(64, 1000)));
        assert_eq!(r.pending_requests(), 0);
        assert!(r.allocate_at(0.0).is_empty());
        let infeasible = r.take_infeasible();
        assert_eq!(infeasible.len(), 1);
        assert_eq!(infeasible[0].0, app);
        assert!(
            infeasible[0].1.contains("fits no node"),
            "{}",
            infeasible[0].1
        );
        // Drained once: subsequent calls are empty.
        assert!(r.take_infeasible().is_empty());
        // Same for memory, and for a pinned request exceeding its node.
        r.request(app, ContainerRequest::anywhere(Resource::new(1, 1 << 30)));
        r.request(
            app,
            ContainerRequest::pinned(Resource::new(4, 1000), NodeId(1)),
        );
        assert_eq!(r.pending_requests(), 0);
        assert_eq!(r.take_infeasible().len(), 2);
        // A dead node does NOT make a fitting request infeasible — the
        // node may revive, so the request waits instead.
        r.fail_node(NodeId(0));
        r.fail_node(NodeId(1));
        r.request(app, ContainerRequest::anywhere(one_core()));
        assert_eq!(r.pending_requests(), 1);
        assert!(r.take_infeasible().is_empty());
    }

    // ----- queue behaviour -------------------------------------------------

    fn two_tenant_rm(nodes: usize, grace: Option<f64>) -> ResourceManager {
        let mut r = rm(nodes);
        r.configure_queues(QueuesConfig::weighted_leaves(
            &[("tenant-a", 2.0), ("tenant-b", 1.0)],
            grace,
        ))
        .unwrap();
        r
    }

    #[test]
    fn configure_queues_rejects_late_or_bad_configs() {
        let mut r = rm(1);
        r.submit_app();
        assert!(r.configure_queues(QueuesConfig::default()).is_err());
        let mut r = rm(1);
        assert!(r
            .configure_queues(QueuesConfig {
                root: QueueSpec::leaf("q", 0.0, 1.0, 1.0),
                ..QueuesConfig::default()
            })
            .is_err());
        assert!(r.submit_app_to("nope").is_err());
    }

    #[test]
    fn drf_orders_cross_queue_allocation() {
        // 4 nodes × 2 cores = 8 cores. Weights 2:1 ⇒ under saturating
        // demand tenant-a should end up with ~2× tenant-b's cores.
        let mut r = two_tenant_rm(4, None);
        let (a, v) = r.submit_app_to("tenant-a").unwrap();
        assert_eq!(v, Admission::Admitted);
        let (b, _) = r.submit_app_to("tenant-b").unwrap();
        for _ in 0..8 {
            r.request(a, ContainerRequest::anywhere(one_core()));
            r.request(b, ContainerRequest::anywhere(one_core()));
        }
        let got = r.allocate_at(0.0);
        assert_eq!(got.len(), 8, "work conservation: all cores in use");
        let a_cores = got.iter().filter(|c| c.app == a).count();
        let b_cores = got.iter().filter(|c| c.app == b).count();
        // Integer water-line: 5+3 or 6+2 both satisfy DRF within one
        // container; exact split is 5/3 with the alternating descent.
        assert!(a_cores > b_cores, "weighted: {a_cores} vs {b_cores}");
        assert!(b_cores >= 2, "lighter tenant not starved: {b_cores}");
        assert_eq!(r.queue_usage("tenant-a").unwrap().vcores, a_cores as u32);
        assert_eq!(r.queue_usage("tenant-b").unwrap().vcores, b_cores as u32);
    }

    #[test]
    fn max_capacity_caps_elastic_growth() {
        let mut r = rm(4); // 8 cores
        r.configure_queues(QueuesConfig {
            root: QueueSpec::parent(
                "root",
                1.0,
                1.0,
                1.0,
                vec![
                    QueueSpec::leaf("capped", 1.0, 0.25, 0.5),
                    QueueSpec::leaf("open", 1.0, 0.75, 1.0),
                ],
            ),
            admission: AdmissionPolicy::Reject,
            preemption_grace_secs: None,
        })
        .unwrap();
        let (a, _) = r.submit_app_to("capped").unwrap();
        for _ in 0..8 {
            r.request(a, ContainerRequest::anywhere(one_core()));
        }
        // Even with the whole cluster idle, "capped" stops at 50% = 4 cores.
        let got = r.allocate_at(0.0);
        assert_eq!(got.len(), 4);
        assert_eq!(r.pending_requests(), 4);
        assert_eq!(r.queue_usage("capped").unwrap().vcores, 4);
        // The sibling may use the rest (work conservation).
        let (b, _) = r.submit_app_to("open").unwrap();
        for _ in 0..4 {
            r.request(b, ContainerRequest::anywhere(one_core()));
        }
        assert_eq!(r.allocate_at(0.0).len(), 4);
    }

    #[test]
    fn elastic_sharing_borrows_idle_capacity() {
        // tenant-b alone on the cluster may exceed its 1/3 guarantee all
        // the way to the full cluster.
        let mut r = two_tenant_rm(2, None); // 4 cores
        let (b, _) = r.submit_app_to("tenant-b").unwrap();
        for _ in 0..4 {
            r.request(b, ContainerRequest::anywhere(one_core()));
        }
        assert_eq!(r.allocate_at(0.0).len(), 4);
        assert!(r.queue_share("tenant-b").unwrap() > 0.9);
    }

    #[test]
    fn node_failure_can_free_room_under_a_queue_ceiling() {
        // 3 nodes × 2 cores; queue "b" may hold 75% of the live cluster.
        let mut r = rm(3);
        r.configure_queues(QueuesConfig {
            root: QueueSpec::parent(
                "root",
                1.0,
                1.0,
                1.0,
                vec![
                    QueueSpec::leaf("a", 1.0, 0.5, 1.0),
                    QueueSpec::leaf("b", 1.0, 0.5, 0.75),
                ],
            ),
            admission: AdmissionPolicy::Reject,
            preemption_grace_secs: None,
        })
        .unwrap();
        let (b, _) = r.submit_app_to("b").unwrap();
        for n in [0, 0, 1, 2] {
            r.request(b, ContainerRequest::pinned(one_core(), NodeId(n)));
        }
        assert_eq!(r.allocate_at(0.0).len(), 4);
        // A fifth core would put "b" at 5 of 6 cores, over its 4.5 ceiling.
        r.request(b, ContainerRequest::anywhere(one_core()));
        assert!(r.allocate_at(0.0).is_empty());
        assert!(r.allocate_at(0.0).is_empty());
        // Node 0 takes two of b's cores with it: 3 of the 4 live cores
        // fit under the 3-core ceiling, so the next round grants.
        r.fail_node(NodeId(0));
        assert_eq!(r.allocate_at(0.0).len(), 1);
        assert_eq!(r.check_invariants(), Ok(()));
    }

    #[test]
    fn admission_rejects_past_limit() {
        let mut r = rm(2);
        r.configure_queues(QueuesConfig {
            root: QueueSpec::leaf("only", 1.0, 1.0, 1.0).with_max_apps(1),
            admission: AdmissionPolicy::Reject,
            preemption_grace_secs: None,
        })
        .unwrap();
        let (a, va) = r.submit_app_to("only").unwrap();
        assert_eq!(va, Admission::Admitted);
        let (b, vb) = r.submit_app_to("only").unwrap();
        assert_eq!(vb, Admission::Rejected);
        assert!(!admitted(&r, b));
        // Rejected apps' requests never schedule.
        r.request(b, ContainerRequest::anywhere(one_core()));
        assert!(r.allocate_at(0.0).is_empty());
        // The admitted app is unaffected.
        r.request(a, ContainerRequest::anywhere(one_core()));
        assert_eq!(r.allocate_at(0.0).len(), 1);
    }

    #[test]
    fn admission_queues_and_admits_fifo_on_finish() {
        let mut r = rm(2);
        r.configure_queues(QueuesConfig {
            root: QueueSpec::leaf("only", 1.0, 1.0, 1.0).with_max_apps(1),
            admission: AdmissionPolicy::Queue,
            preemption_grace_secs: None,
        })
        .unwrap();
        let (a, _) = r.submit_app_to("only").unwrap();
        let (b, vb) = r.submit_app_to("only").unwrap();
        let (c, vc) = r.submit_app_to("only").unwrap();
        assert_eq!(vb, Admission::Queued);
        assert_eq!(vc, Admission::Queued);
        // Parked apps' requests are held back.
        r.request(b, ContainerRequest::anywhere(one_core()));
        assert!(r.allocate_at(0.0).is_empty());
        // First finishes: b (older) admitted, c still parked.
        r.finish_app(a);
        assert!(admitted(&r, b));
        assert!(!admitted(&r, c));
        assert_eq!(r.allocate_at(0.0).len(), 1);
        // finish_app is idempotent; finishing b admits c.
        r.finish_app(a);
        assert!(!admitted(&r, c));
        r.finish_app(b);
        assert!(admitted(&r, c));
    }

    #[test]
    fn preemption_claws_back_capacity_for_starved_queue() {
        // 4 nodes × 2 cores; tenant-a (w2, guarantee 2/3) hogs all 8.
        let mut r = two_tenant_rm(4, Some(10.0));
        let (a, _) = r.submit_app_to("tenant-a").unwrap();
        for _ in 0..8 {
            r.request(a, ContainerRequest::anywhere(one_core()));
        }
        assert_eq!(r.allocate_at(0.0).len(), 8);
        // tenant-b arrives with demand. Its fair share is 1/3.
        let (b, _) = r.submit_app_to("tenant-b").unwrap();
        for _ in 0..4 {
            r.request(b, ContainerRequest::anywhere(one_core()));
        }
        // Starvation clock starts at 1.0; before the grace expires, no
        // victims.
        assert!(r.allocate_at(1.0).is_empty());
        assert!(r.take_preemptions().is_empty());
        assert!(r.allocate_at(5.0).is_empty());
        assert!(r.take_preemptions().is_empty());
        // Grace (10s) elapsed: victims selected from tenant-a's newest
        // containers, but never below its 2/3 guarantee.
        r.allocate_at(11.5);
        let victims = r.take_preemptions();
        assert!(!victims.is_empty(), "grace expired, victims expected");
        let over_guarantee: f64 = 8.0 - (2.0 / 3.0) * 8.0; // ≈ 2.67 cores
        assert!(victims.len() as f64 <= over_guarantee.ceil() + 1e-9);
        // Newest first.
        let mut sorted = victims.clone();
        sorted.sort_by(|x, y| y.cmp(x));
        assert_eq!(victims, sorted);
        // The driver kills them; the freed cores go to tenant-b.
        for v in victims {
            r.release(v);
        }
        let got = r.allocate_at(12.0);
        assert!(got.iter().all(|c| c.app == b));
        assert!(!got.is_empty());
        assert!(r.queue_share("tenant-b").unwrap() > 0.2);
    }

    #[test]
    fn preemption_skips_unpreemptable_containers() {
        let mut r = two_tenant_rm(1, Some(1.0)); // 2 cores total
        let (a, _) = r.submit_app_to("tenant-a").unwrap();
        // Both of tenant-a's containers are AM-style unpreemptable.
        r.request(a, ContainerRequest::anywhere(one_core()).never_preempt());
        r.request(a, ContainerRequest::anywhere(one_core()).never_preempt());
        assert_eq!(r.allocate_at(0.0).len(), 2);
        let (b, _) = r.submit_app_to("tenant-b").unwrap();
        r.request(b, ContainerRequest::anywhere(one_core()));
        r.allocate_at(1.0);
        r.allocate_at(3.0);
        r.allocate_at(5.0);
        assert!(
            r.take_preemptions().is_empty(),
            "unpreemptable containers must never be selected"
        );
    }

    // ----- the grant walk against the full scan on every round ----------

    /// Applies one random operation to `r`. `held` tracks the live
    /// containers, `asked` every request id issued; both RMs of the
    /// oracle test see the same operation and the same bookkeeping.
    fn apply_op(
        r: &mut ResourceManager,
        apps: &mut Vec<AppId>,
        held: &mut Vec<ContainerId>,
        asked: &mut Vec<RequestId>,
        nodes: usize,
        (kind, a, b): (u8, u8, u8),
    ) {
        let node = NodeId(a as u32 % nodes as u32);
        match kind % 10 {
            0..=2 => {
                // 1–3 vcores (3 fits only the 3-vcore nodes, and is
                // infeasible without one); strict, relaxed-with-preference
                // or anywhere.
                let resource = Resource::new(1 + b as u32 % 3, 500 + 1500 * (b as u64 / 3 % 4));
                let mut request = match b / 12 % 3 {
                    0 => ContainerRequest::pinned(resource, node),
                    1 => ContainerRequest {
                        relax_locality: true,
                        ..ContainerRequest::pinned(resource, node)
                    },
                    _ => ContainerRequest::anywhere(resource),
                };
                if b >= 200 {
                    request = request.never_preempt();
                }
                asked.push(r.request(apps[a as usize % apps.len()], request));
            }
            3 if !asked.is_empty() => {
                cancel(r, asked[b as usize % asked.len()]);
            }
            4 if !held.is_empty() => {
                let cid = held.remove(b as usize % held.len());
                r.release(cid);
            }
            5 => {
                let killed = r.fail_node(node);
                held.retain(|h| killed.iter().all(|k| k.id != *h));
            }
            6 => r.revive_node(node),
            7 => r.finish_app(apps[b as usize % apps.len()]),
            8 => {
                let queue = ["a", "b", "c"][b as usize % 3];
                apps.push(r.submit_app_to(queue).unwrap().0);
            }
            _ => {} // a heartbeat with nothing new
        }
    }

    /// The observable result of one round, for comparison. The
    /// oracle's grant is the full scan, run whatever the change flag says;
    /// its preemption bookkeeping is `allocate_at`'s own.
    fn round(
        r: &mut ResourceManager,
        t: f64,
        held: &mut Vec<ContainerId>,
        full_scan: bool,
    ) -> String {
        let mut granted = Vec::new();
        if full_scan {
            r.last_now = t;
            r.dirty = false;
            granted = r.grant_full_scan();
        }
        granted.extend(r.allocate_at(t));
        held.extend(granted.iter().map(|c| c.id));
        let victims = r.take_preemptions();
        // The driver kills preemption victims through `release`.
        for v in &victims {
            r.release(*v);
            held.retain(|h| h != v);
        }
        let usage: Vec<_> = r.queue_names().iter().map(|q| r.queue_usage(q)).collect();
        format!(
            "{granted:?} {victims:?} {:?} {} {usage:?} cursor {}",
            r.take_infeasible(),
            r.pending_requests(),
            r.spread_cursor
        )
    }

    impl ResourceManager {
        /// The snapshot grant, the oracle of [`Self::grant`]: copies
        /// every schedulable pending request into per-leaf lists, then
        /// tries each once, leaves in DRF order, each leaf in id order,
        /// however little capacity is left.
        fn grant_full_scan(&mut self) -> Vec<Container> {
            let mut granted = Vec::new();
            let total = self.alive_total();
            let nq = self.queues.nodes.len();
            let mut per_leaf: Vec<Vec<(u64, ContainerRequest)>> = vec![Vec::new(); nq];
            for (&(leaf, id), p) in &self.queue {
                if self.app_admitted[p.app.0 as usize] {
                    per_leaf[leaf].push((id, p.request));
                }
            }
            let mut cursor = vec![0usize; nq];
            let mut eligible: Vec<bool> = per_leaf.iter().map(|v| !v.is_empty()).collect();
            while let Some(leaf) = self.queues.pick_leaf(&eligible, total) {
                let (id, request) = per_leaf[leaf][cursor[leaf]];
                cursor[leaf] += 1;
                if cursor[leaf] >= per_leaf[leaf].len() {
                    eligible[leaf] = false;
                }
                if !self.queues.fits_under_max(leaf, request.resource, total) {
                    continue;
                }
                if let Some(node) = self.find_node(&request) {
                    granted.push(self.launch(leaf, id, node));
                }
            }
            granted
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Skipping unchanged rounds, walking each leaf's range and
        /// stopping once no shape fits grant the same containers (id,
        /// app, node, shape, request, in order) and leave the same spread
        /// cursor, infeasible and pending requests, preemptions and queue
        /// usage as the full scan run on every round, on nodes of uneven
        /// capacity under a three-level queue tree.
        #[test]
        fn change_flag_matches_scanning_every_round(
            nodes in 1usize..6,
            grace in 1u8..6,
            ops in proptest::collection::vec(
                (0u8..20, any::<u8>(), any::<u8>()),
                1..160,
            ),
        ) {
            let config = QueuesConfig {
                root: QueueSpec::parent(
                    "root",
                    1.0,
                    1.0,
                    1.0,
                    vec![
                        QueueSpec::leaf("a", 2.0, 0.4, 1.0).with_max_apps(2),
                        QueueSpec::parent(
                            "p",
                            1.0,
                            0.6,
                            0.9,
                            vec![
                                QueueSpec::leaf("b", 1.0, 0.5, 0.8),
                                QueueSpec::leaf("c", 3.0, 0.5, 1.0),
                            ],
                        ),
                    ],
                ),
                admission: AdmissionPolicy::Queue,
                preemption_grace_secs: Some(grace as f64),
            };
            let mut sides: Vec<_> = (0..2)
                .map(|_| {
                    let mut r = rm(nodes);
                    // m3.large nodes (2 vcores, 7500 MB) next to smaller
                    // and larger ones, so shapes fit some nodes only.
                    for n in 0..nodes {
                        if n % 3 > 0 {
                            let cap = Resource::new(n as u32 % 3 * 2 - 1, 3000 * n as u64);
                            r.set_capacity(NodeId(n as u32), cap);
                        }
                    }
                    r.configure_queues(config.clone()).unwrap();
                    let apps: Vec<AppId> = ["a", "a", "a", "b", "c"]
                        .iter()
                        .map(|q| r.submit_app_to(q).unwrap().0)
                        .collect();
                    (r, apps, Vec::new(), Vec::new())
                })
                .collect();
            for (step, &op) in ops.iter().enumerate() {
                let t = step as f64 * 0.75;
                let mut seen = Vec::new();
                for (oracle, (r, apps, held, asked)) in sides.iter_mut().enumerate() {
                    apply_op(r, apps, held, asked, nodes, op);
                    r.check_invariants().map_err(TestCaseError::fail)?;
                    seen.push(round(r, t, held, oracle == 1));
                    r.check_invariants().map_err(TestCaseError::fail)?;
                }
                prop_assert_eq!(&seen[0], &seen[1], "step {} op {:?}", step, op);
            }
        }
    }

    #[test]
    fn queue_audit_records_lifecycle() {
        use hiway_obs::Tracer;
        let tracer = Tracer::enabled();
        let mut r = two_tenant_rm(2, None);
        r.set_tracer(&tracer);
        let (a, _) = r.submit_app_to("tenant-a").unwrap();
        r.request(a, ContainerRequest::anywhere(one_core()));
        r.allocate_at(2.0);
        tracer.with_queue_audits(|audits| {
            assert!(audits
                .iter()
                .any(|q| q.kind == hiway_obs::QueueEventKind::Admit && q.app == Some(a.0)));
            assert!(audits
                .iter()
                .any(|q| q.kind == hiway_obs::QueueEventKind::Allocate
                    && q.queue == "tenant-a"
                    && q.used_vcores == 1));
            // One usage sample per leaf for the allocation round.
            let usage: Vec<_> = audits
                .iter()
                .filter(|q| q.kind == hiway_obs::QueueEventKind::Usage)
                .collect();
            assert_eq!(usage.len(), 2);
            assert!(usage.iter().all(|q| (q.t - 2.0).abs() < 1e-9));
        });
        let snap = tracer.snapshot().unwrap();
        assert_eq!(
            snap.metrics.gauge("rm.queue.tenant-a.used_vcores"),
            Some(1.0)
        );
        assert_eq!(
            snap.metrics.gauge("rm.queue.tenant-b.used_vcores"),
            Some(0.0)
        );
    }
}
