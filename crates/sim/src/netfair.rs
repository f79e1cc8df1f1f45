//! Flow-level max-min fair bandwidth allocation (progressive filling).
//!
//! The simulated network is a star: every node's NIC is a capacity
//! constraint (independently per direction), the switch core is an optional
//! aggregate constraint, and external services contribute an aggregate
//! constraint plus an optional per-flow cap. A flow is a set of constraint
//! memberships; rates are assigned by progressive filling, the textbook
//! algorithm for max-min fairness: raise all rates uniformly, freeze flows
//! when a constraint they traverse saturates, repeat.
//!
//! ## Replaying the previous fill
//!
//! Between two fills only a few flows start or end, and the first rounds
//! of the new fill often repeat the old one's bit for bit. A fill can log
//! its rounds; the next fill then replays the unchanged ones and runs the
//! progressive loop only from the first round a change can touch.
//!
//! - **Logged per round:** the level before it, the increment, what set
//!   the increment (a constraint, or the capped flow first in cap order),
//!   the flows it froze, and how many constraints it charged. Per
//!   constraint, the residual and unfrozen count at the start of every
//!   round it was live (its history, as long as its live rounds), and the
//!   round it saturated in.
//! - **Recorded between fills, while a log exists:** the constraints
//!   whose membership changed, the added occurrences per constraint, and
//!   for each removed flow its freeze round: its history counts drop from
//!   round 0 to that round, its key leaves the round's frozen list, and a
//!   round whose increment its cap set is the last one that may replay.
//!   An added cap limits replay to the rounds where it would not set a
//!   smaller increment nor reach its threshold.
//! - **The replay rule:** round `r` is unchanged when it froze a flow that
//!   is still present, no changed constraint set its increment or
//!   saturated in it, and every changed constraint, charged from its
//!   capacity with the history counts plus its added flows, keeps
//!   `residual / count` at or above the increment and stays above its
//!   threshold after the charge. Then the unchanged constraints see the
//!   same residuals and counts, the same constraints saturate and the same
//!   flows freeze, so by induction the round is identical. The replay
//!   rewrites the kept rounds' history of the changed constraints,
//!   restores the state at the first failing round from the log, and runs
//!   the ordinary loop from there.
//! - **The logging rule:** a fill logs only when the previous fill's
//!   charge work (live constraints summed over its rounds) exceeds twice
//!   its loaded constraints plus flows. See [`NetFairWorkspace::fill`].

use hiway_obs::profile::{section, Section};

/// Rate assigned to a flow that traverses no finite constraint (bytes/s).
/// Kept finite so completion times remain computable.
pub const UNCONSTRAINED_BPS: f64 = 1.0e15;

/// One capacity constraint (a NIC direction, the switch core, an external
/// service). Capacity may be `f64::INFINITY`.
#[derive(Clone, Copy, Debug)]
pub struct Constraint {
    pub capacity: f64,
}

/// A flow's view of the network: the indices of the constraints it
/// traverses, plus an optional private rate cap.
#[derive(Clone, Debug, Default)]
pub struct FlowPath {
    pub constraints: Vec<usize>,
    pub rate_cap: Option<f64>,
}

/// Computes max-min fair rates for `flows` subject to `constraints`.
///
/// Returned rates satisfy: per-constraint sums never exceed capacity;
/// per-flow caps are honoured; and the allocation is max-min fair (no
/// flow's rate can be raised without lowering that of a flow with an equal
/// or smaller rate).
pub fn max_min_rates(constraints: &[Constraint], flows: &[FlowPath]) -> Vec<f64> {
    let mut ws = NetFairWorkspace::default();
    ws.compute(constraints, flows).to_vec()
}

/// Counts over a workspace's fills: fills run, rounds in them, and rounds
/// of those replayed from the previous fill's log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FillStats {
    pub fills: u64,
    pub rounds: u64,
    pub rounds_replayed: u64,
}

/// "No constraint", "no round", a removed key in a frozen list.
const NONE: usize = usize::MAX;

/// One logged round. The log ends with a terminal entry holding the
/// final level and the end of the frozen list.
#[derive(Clone, Copy, Debug)]
struct Round {
    /// The level at the start of the round.
    level: f64,
    inc: f64,
    /// What set `inc`: a constraint, or with `by_cap` the key of the
    /// capped flow first in cap order.
    setter: usize,
    by_cap: bool,
    /// Where the round's keys start in `frozen_log`, and how many of them
    /// are still present.
    frozen: usize,
    kept: usize,
    /// Constraints charged, as logged.
    live: usize,
}

/// The flow set of a max-min network plus the scratch state of its
/// progressive fill. Flows are keyed by a caller-chosen small integer (the
/// engine uses the activity's slab slot), so membership survives the
/// caller reordering or removing other flows, and the engine adds or
/// removes one path per IO start or end instead of rebuilding the whole
/// membership before every fill.
///
/// A fill does work only for what is live: the loaded finite constraints,
/// the flows that freeze, and the capped flows in cap order. Every
/// unfrozen flow starts at `0.0` and gains the same increment each round,
/// so all unfrozen flows hold one value, the running level; a flow that
/// freezes takes the level of its round, and the flows still unfrozen at
/// the end take the final level. No round loops over unfrozen flows.
/// An infinite constraint never binds, so a stored path leaves it out.
#[derive(Default)]
pub struct NetFairWorkspace {
    capacity: Vec<f64>,
    /// Saturation threshold per constraint, relative to its capacity.
    eps: Vec<f64>,
    /// Path per key, finite constraints only; `present` says which keys
    /// hold a flow.
    paths: Vec<FlowPath>,
    present: Vec<bool>,
    flows: usize,
    /// Member keys per constraint, one entry per path occurrence, in no
    /// particular order.
    members: Vec<Vec<usize>>,
    /// Constraints with at least one member, in no particular order, and
    /// each one's index in it (`usize::MAX` when unloaded).
    loaded: Vec<usize>,
    loaded_pos: Vec<usize>,
    /// Capped flows as `(cap, key)` ascending by cap, and as
    /// `(threshold, key)` ascending by freeze threshold. Rounding can
    /// order the two differently, so each keeps its own order.
    by_cap: Vec<(f64, usize)>,
    by_threshold: Vec<(f64, usize)>,
    // Per-fill state.
    residual: Vec<f64>,
    count: Vec<usize>,
    live: Vec<usize>,
    saturated: Vec<usize>,
    /// A key is frozen iff `frozen_in` equals `epoch`; then it took
    /// `frozen_level`, in round `frozen_round` of a logged fill. A fill
    /// that replays keeps the epoch and unfreezes the rerun rounds' keys.
    frozen_in: Vec<u64>,
    frozen_level: Vec<f64>,
    frozen_round: Vec<usize>,
    epoch: u64,
    /// The rate of every flow still unfrozen when the last fill ended.
    rest: f64,
    out: Vec<f64>,
    // The log of the last fill, kept only when the next fill logs and so
    // replays it.
    rounds: Vec<Round>,
    /// Keys frozen per round (`NONE` once removed).
    frozen_log: Vec<usize>,
    /// Per constraint, `(residual, count)` at the start of each round it
    /// was live; empty while unloaded.
    history: Vec<Vec<(f64, usize)>>,
    saturated_in: Vec<usize>,
    // Changes since the last fill, recorded while a log is kept.
    changed: Vec<usize>,
    is_changed: Vec<bool>,
    added: Vec<usize>,
    /// Keys inserted since the last fill, which the log does not hold.
    inserted: Vec<usize>,
    /// Rounds at or past this may not replay.
    limit: usize,
    log_next: bool,
    #[cfg(test)]
    force_log: bool,
    stats: FillStats,
}

/// The level at or above which a flow capped at `cap` freezes. Relative,
/// like the constraint thresholds.
fn cap_threshold(cap: f64) -> f64 {
    cap - (1e-9 + cap.abs() * 1e-9)
}

/// Inserts `(value, key)` into an ascending order.
fn insert_sorted(order: &mut Vec<(f64, usize)>, value: f64, key: usize) {
    let pos = order
        .binary_search_by(|&(v, k)| v.total_cmp(&value).then(k.cmp(&key)))
        .unwrap_or_else(|p| p);
    order.insert(pos, (value, key));
}

/// Removes `(value, key)` from an ascending order.
fn remove_sorted(order: &mut Vec<(f64, usize)>, value: f64, key: usize) {
    if let Ok(pos) = order.binary_search_by(|&(v, k)| v.total_cmp(&value).then(k.cmp(&key))) {
        order.remove(pos);
    }
}

/// Where the progressive loop starts: a fresh fill's state, or the state
/// a replay restored.
struct Start {
    level: f64,
    unfrozen: usize,
    /// The smallest `residual / count` over `live`, and the constraint
    /// holding it.
    cons_inc: f64,
    setter: usize,
    next_cap: usize,
    next_threshold: usize,
    round: usize,
}

impl NetFairWorkspace {
    /// An empty flow set over `constraints`.
    pub fn new(constraints: &[Constraint]) -> NetFairWorkspace {
        let mut ws = NetFairWorkspace::default();
        ws.reset(constraints);
        ws
    }

    /// Drops every flow and takes `constraints` as the constraint set,
    /// keeping the buffers.
    fn reset(&mut self, constraints: &[Constraint]) {
        for &c in &self.loaded {
            self.members[c].clear();
            self.history[c].clear();
        }
        self.loaded.clear();
        self.present.iter_mut().for_each(|p| *p = false);
        self.flows = 0;
        self.by_cap.clear();
        self.by_threshold.clear();
        self.rounds.clear();
        self.forget_changes();
        self.log_next = false;
        let n = constraints.len();
        self.capacity.clear();
        self.capacity.extend(constraints.iter().map(|c| c.capacity));
        self.eps.clear();
        self.eps
            .extend(constraints.iter().map(|c| 1e-6 + c.capacity.abs() * 1e-9));
        self.members.resize_with(n, Vec::new);
        self.history.resize_with(n, Vec::new);
        self.loaded_pos.clear();
        self.loaded_pos.resize(n, usize::MAX);
        self.residual.resize(n, 0.0);
        self.count.resize(n, 0);
        self.saturated_in.resize(n, NONE);
        self.is_changed.resize(n, false);
        self.added.resize(n, 0);
    }

    /// The counts over every fill so far.
    pub fn stats(&self) -> FillStats {
        self.stats
    }

    fn note_changed(&mut self, c: usize) {
        if !self.is_changed[c] {
            self.is_changed[c] = true;
            self.changed.push(c);
        }
    }

    fn forget_changes(&mut self) {
        for &c in &self.changed {
            self.is_changed[c] = false;
            self.added[c] = 0;
        }
        self.changed.clear();
        self.inserted.clear();
        self.limit = NONE;
    }

    /// Adds a flow under `key`, which must not hold one.
    pub fn insert(&mut self, key: usize, path: &FlowPath) {
        if self.paths.len() <= key {
            self.paths.resize_with(key + 1, FlowPath::default);
            self.present.resize(key + 1, false);
            self.frozen_in.resize(key + 1, 0);
            self.frozen_level.resize(key + 1, 0.0);
            self.frozen_round.resize(key + 1, NONE);
        }
        debug_assert!(!self.present[key], "key {key} already holds a flow");
        self.present[key] = true;
        self.frozen_in[key] = 0;
        self.flows += 1;
        let capacity = &self.capacity;
        let stored = &mut self.paths[key];
        stored.constraints.clear();
        stored.constraints.extend(
            path.constraints
                .iter()
                .copied()
                .filter(|&c| capacity[c].is_finite()),
        );
        stored.rate_cap = path.rate_cap;
        let logged = !self.rounds.is_empty();
        for i in 0..self.paths[key].constraints.len() {
            let c = self.paths[key].constraints[i];
            if self.members[c].is_empty() {
                self.loaded_pos[c] = self.loaded.len();
                self.loaded.push(c);
            }
            self.members[c].push(key);
            if logged {
                self.note_changed(c);
                self.added[c] += 1;
            }
        }
        if logged {
            self.inserted.push(key);
        }
        if let Some(cap) = path.rate_cap.filter(|c| c.is_finite()) {
            insert_sorted(&mut self.by_cap, cap, key);
            insert_sorted(&mut self.by_threshold, cap_threshold(cap), key);
            // The first round where this cap would set a smaller increment
            // or freeze its flow.
            let kept = self.rounds.len().saturating_sub(1);
            if let Some(r) = self.rounds[..kept]
                .iter()
                .position(|r| cap - r.level < r.inc || cap_threshold(cap) <= r.level + r.inc)
            {
                self.limit = self.limit.min(r);
            }
        }
    }

    /// Removes the flow under `key`, if any.
    pub fn remove(&mut self, key: usize) {
        if !self.present.get(key).copied().unwrap_or(false) {
            return;
        }
        self.present[key] = false;
        self.flows -= 1;
        if let Some(at) = self.inserted.iter().position(|&k| k == key) {
            // Not in the log: it only counts as added.
            self.inserted.swap_remove(at);
            for &c in &self.paths[key].constraints {
                self.added[c] -= 1;
            }
        } else if let Some(last) = self.rounds.len().checked_sub(1) {
            // The flow counted on its constraints up to its freeze round.
            let froze = if self.frozen_in[key] == self.epoch {
                self.frozen_round[key]
            } else {
                last
            };
            for i in 0..self.paths[key].constraints.len() {
                let c = self.paths[key].constraints[i];
                self.note_changed(c);
                for entry in self.history[c].iter_mut().take(froze + 1) {
                    entry.1 -= 1;
                }
            }
            if froze < last {
                let (start, end) = (self.rounds[froze].frozen, self.rounds[froze + 1].frozen);
                let at = self.frozen_log[start..end]
                    .iter()
                    .position(|&k| k == key)
                    .expect("a frozen key is in its round's list");
                self.frozen_log[start + at] = NONE;
                self.rounds[froze].kept -= 1;
            }
            if let Some(r) = self.rounds[..last]
                .iter()
                .position(|r| r.by_cap && r.setter == key)
            {
                self.limit = self.limit.min(r);
            }
        }
        let path = &self.paths[key];
        for &c in &path.constraints {
            let members = &mut self.members[c];
            let at = members
                .iter()
                .position(|&k| k == key)
                .expect("a flow is a member of every constraint on its path");
            members.swap_remove(at);
            if members.is_empty() {
                let pos = self.loaded_pos[c];
                self.loaded.swap_remove(pos);
                if let Some(&moved) = self.loaded.get(pos) {
                    self.loaded_pos[moved] = pos;
                }
                self.loaded_pos[c] = usize::MAX;
                // Its old members are all gone, so what it froze no longer
                // matters.
                self.history[c].clear();
                self.saturated_in[c] = NONE;
            }
        }
        if let Some(cap) = path.rate_cap.filter(|c| c.is_finite()) {
            remove_sorted(&mut self.by_cap, cap, key);
            remove_sorted(&mut self.by_threshold, cap_threshold(cap), key);
        }
    }

    /// The rate the last [`fill`](Self::fill) gave the flow under `key`.
    pub fn rate(&self, key: usize) -> f64 {
        if self.frozen_in[key] == self.epoch {
            self.frozen_level[key]
        } else {
            self.rest
        }
    }

    /// Runs the progressive fill over the current flow set; read the
    /// result with [`rate`](Self::rate).
    ///
    /// Bit-exact with the textbook loop that raises every unfrozen flow
    /// each round:
    /// - The cap increment is `min_i(cap_i - L)` over unfrozen capped
    ///   flows. Float subtraction is monotone in `cap_i`, so that is
    ///   `min_i(cap_i) - L`: the first unfrozen entry of `by_cap`.
    /// - A capped flow freezes when `L >= cap_i - eps_i`: a prefix of the
    ///   unfrozen entries of `by_threshold`.
    /// - The order of `live` does not matter. The `min` over
    ///   `residual / count` sees no NaN, so it is order-free; counts are
    ///   integers; and every flow frozen in a round takes the same `L`.
    /// - A round's count decrements are applied after its freezes, and
    ///   only when flows are left unfrozen: nothing reads a count between
    ///   a freeze and the next round's retain.
    ///
    /// The fill logs its rounds, and replays the previous fill's (see the
    /// module doc), only when the previous fill's charge work (live
    /// constraints summed over its rounds) exceeded twice its loaded
    /// constraints plus flows. A replay costs a pass over the loaded
    /// constraints and the refreezing of the rerun rounds' flows, about
    /// what a fresh fill spends outside its charges; logging a round costs
    /// about one more charge pass. So replay pays only where the charges
    /// dominate that fixed part, and twice it is the least margin at which
    /// the skipped charges repay the logged ones. On the perfbench
    /// workloads the rule logs 5.8% of montage-heft's fills (90% of them
    /// charge 0.5–1.5 times their constraints plus flows), none of
    /// snv-cuneiform's (all under 1.5) and 41.8% of snv-static-weak's;
    /// logging every fill made montage-heft 11% slower end to end.
    pub fn fill(&mut self) {
        #[cfg(test)]
        let log = self.log_next || self.force_log;
        #[cfg(not(test))]
        let log = self.log_next;
        if log {
            self.run::<true>();
        } else {
            self.run::<false>();
        }
    }

    fn run<const LOG: bool>(&mut self) {
        self.stats.fills += 1;
        let start = {
            let _p = section(Section::FillRestore);
            if LOG && !self.rounds.is_empty() {
                self.replay()
            } else {
                self.fresh()
            }
        };
        self.forget_changes();
        let NetFairWorkspace {
            eps,
            paths,
            members,
            loaded,
            flows,
            by_cap,
            by_threshold,
            residual,
            count,
            live,
            saturated,
            frozen_in,
            frozen_level,
            frozen_round,
            epoch,
            rest,
            rounds,
            frozen_log,
            history,
            saturated_in,
            log_next,
            stats,
            ..
        } = self;
        let fill = *epoch;
        let Start {
            mut level,
            mut unfrozen,
            mut cons_inc,
            mut setter,
            mut next_cap,
            mut next_threshold,
            mut round,
        } = start;
        stats.rounds_replayed += round as u64;
        let mut work = 0;
        *rest = loop {
            if unfrozen == 0 {
                break level;
            }
            // Smallest uniform increment saturating a constraint or a cap.
            let charge = section(Section::FillCharge);
            let mut inc = cons_inc;
            let mut by = false;
            while next_cap < by_cap.len() && frozen_in[by_cap[next_cap].1] == fill {
                next_cap += 1;
            }
            if let Some(&(cap, key)) = by_cap.get(next_cap) {
                if cap - level < inc {
                    (inc, setter, by) = (cap - level, key, true);
                }
            }
            if !inc.is_finite() {
                // No binding constraint: remaining flows are unconstrained.
                break UNCONSTRAINED_BPS;
            }
            if LOG {
                rounds.push(Round {
                    level,
                    inc,
                    setter,
                    by_cap: by,
                    frozen: frozen_log.len(),
                    kept: 0,
                    live: live.len(),
                });
            } else {
                work += live.len();
            }

            // Raise the level by `inc`; charge the constraints and note
            // the saturated ones. Thresholds are *relative* to the
            // capacity: with capacities in the 1e9 range, the float error
            // of repeated subtraction can exceed any fixed absolute
            // epsilon.
            level += inc;
            saturated.clear();
            for &c in live.iter() {
                if LOG {
                    history[c].push((residual[c], count[c]));
                }
                residual[c] -= inc * count[c] as f64;
                if residual[c] <= eps[c] {
                    saturated.push(c);
                }
            }
            drop(charge);

            // Freeze flows on saturated constraints or at their private
            // cap.
            let freezing = section(Section::FillFreeze);
            let before = unfrozen;
            let first = frozen_log.len();
            let mut freeze = |k: usize| {
                if frozen_in[k] != fill {
                    frozen_in[k] = fill;
                    frozen_level[k] = level;
                    frozen_round[k] = round;
                    frozen_log.push(k);
                    unfrozen -= 1;
                }
            };
            for &c in saturated.iter() {
                saturated_in[c] = round;
                members[c].iter().for_each(|&k| freeze(k));
            }
            // Entries before the cursor are all frozen, so the cursor
            // only moves past thresholds the level has reached.
            while let Some(&(threshold, k)) = by_threshold.get(next_threshold) {
                if threshold > level {
                    break;
                }
                freeze(k);
                next_threshold += 1;
            }
            if LOG {
                rounds[round].kept = before - unfrozen;
            }
            drop(freezing);
            round += 1;
            if unfrozen == before {
                // Numeric fallback: the increment was swallowed by
                // rounding. Stop at the current (feasible) rates — this
                // sacrifices at most an epsilon of max-min optimality
                // while guaranteeing termination.
                break level;
            }
            if unfrozen == 0 {
                break level;
            }
            let _retain = section(Section::FillRetain);
            for &k in &frozen_log[first..] {
                for &c in &paths[k].constraints {
                    count[c] -= 1;
                }
            }
            cons_inc = f64::INFINITY;
            live.retain(|&c| {
                let keep = count[c] > 0;
                if keep {
                    let q = residual[c] / count[c] as f64;
                    if q < cons_inc {
                        (cons_inc, setter) = (q, c);
                    }
                }
                keep
            });
        };
        stats.rounds += round as u64;
        if LOG {
            rounds.push(Round {
                level,
                inc: f64::INFINITY,
                setter: NONE,
                by_cap: false,
                frozen: frozen_log.len(),
                kept: 0,
                live: 0,
            });
            work = rounds.iter().map(|r| r.live).sum();
        }
        *log_next = work > 2 * (loaded.len() + *flows);
        if !*log_next {
            // The next fill will not replay, so `insert` and `remove`
            // need not keep the log up to date.
            rounds.clear();
        }
    }

    /// A fill from round 0; drops the log.
    fn fresh(&mut self) -> Start {
        self.epoch += 1;
        self.rounds.clear();
        self.frozen_log.clear();
        self.live.clear();
        let mut cons_inc = f64::INFINITY;
        let mut setter = NONE;
        for &c in &self.loaded {
            self.residual[c] = self.capacity[c];
            self.count[c] = self.members[c].len();
            self.live.push(c);
            self.history[c].clear();
            self.saturated_in[c] = NONE;
            let q = self.residual[c] / self.count[c] as f64;
            if q < cons_inc {
                (cons_inc, setter) = (q, c);
            }
        }
        Start {
            level: 0.0,
            unfrozen: self.flows,
            cons_inc,
            setter,
            next_cap: 0,
            next_threshold: 0,
            round: 0,
        }
    }

    /// Checks the logged rounds against the recorded changes (the rule in
    /// the module doc), rewrites the kept rounds' history of the changed
    /// constraints, and restores the state at the first round that must
    /// run.
    fn replay(&mut self) -> Start {
        let last = self.rounds.len() - 1;
        let mut k = self.limit.min(last);
        let NetFairWorkspace {
            capacity,
            eps,
            residual,
            rounds,
            history,
            saturated_in,
            changed,
            is_changed,
            added,
            ..
        } = &mut *self;
        for &c in changed.iter() {
            residual[c] = capacity[c];
        }
        let mut r = 0;
        loop {
            // Each changed constraint's state at the start of round `r`.
            for &c in changed.iter() {
                let history = &mut history[c];
                if history.len() < r {
                    continue; // no unfrozen member since an earlier round
                }
                let count = history.get(r).map_or(0, |e| e.1) + added[c];
                if count == 0 {
                    history.truncate(r);
                } else if history.len() == r {
                    history.push((residual[c], count));
                } else {
                    history[r] = (residual[c], count);
                }
            }
            if r == k {
                break;
            }
            let round = rounds[r];
            let mut same = round.kept > 0 && (round.by_cap || !is_changed[round.setter]);
            for &c in changed.iter() {
                if !same {
                    break;
                }
                if let Some(&(left, count)) = history[c].get(r) {
                    residual[c] = left - round.inc * count as f64;
                    same = saturated_in[c] != r
                        && left / count as f64 >= round.inc
                        && residual[c] > eps[c];
                }
            }
            if !same {
                k = r;
                break;
            }
            r += 1;
        }
        for &c in &self.changed {
            self.saturated_in[c] = NONE;
        }
        if k == 0 {
            return self.fresh();
        }
        let at = self.rounds[k];
        for &key in &self.frozen_log[at.frozen..] {
            if key != NONE {
                self.frozen_in[key] = 0;
            }
        }
        self.frozen_log.truncate(at.frozen);
        self.rounds.truncate(k);
        self.live.clear();
        let mut cons_inc = f64::INFINITY;
        let mut setter = NONE;
        for &c in &self.loaded {
            let history = &mut self.history[c];
            if let Some(&(residual, count)) = history.get(k) {
                history.truncate(k);
                self.saturated_in[c] = NONE;
                self.residual[c] = residual;
                self.count[c] = count;
                self.live.push(c);
                let q = residual / count as f64;
                if q < cons_inc {
                    (cons_inc, setter) = (q, c);
                }
            }
        }
        let frozen: usize = self.rounds.iter().map(|r| r.kept).sum();
        // Caps at or below the level froze by their thresholds already.
        let level = at.level;
        Start {
            level,
            unfrozen: self.flows - frozen,
            cons_inc,
            setter,
            next_cap: self.by_cap.partition_point(|&(cap, _)| cap <= level),
            next_threshold: self.by_threshold.partition_point(|&(t, _)| t <= level),
            round: k,
        }
    }

    /// Checks the workspace's bookkeeping: every constraint's members are
    /// the present paths through it, with multiplicity; `loaded` is
    /// exactly the constraints with members; the cap orders hold exactly
    /// the present capped flows; and a log is well formed: levels do not
    /// decrease, frozen-list offsets only grow, every kept frozen key is
    /// present and frozen at its round's level, and unloaded constraints
    /// have no history.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.capacity.len();
        let mut want: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut capped = Vec::new();
        for key in (0..self.paths.len()).filter(|&k| self.present[k]) {
            for &c in &self.paths[key].constraints {
                want[c].push(key);
            }
            if let Some(cap) = self.paths[key].rate_cap.filter(|c| c.is_finite()) {
                capped.push((cap, key));
            }
        }
        let mut with_members = 0;
        for (c, want) in want.iter().enumerate() {
            let mut got = self.members[c].clone();
            got.sort_unstable();
            let loaded = self.loaded_pos[c] != usize::MAX;
            with_members += !got.is_empty() as usize;
            if got != *want
                || loaded == got.is_empty()
                || loaded && self.loaded.get(self.loaded_pos[c]) != Some(&c)
                || !loaded && !self.history[c].is_empty()
            {
                return Err(format!(
                    "netfair: constraint {c} (loaded {loaded}) members {got:?}, paths {want:?}"
                ));
            }
        }
        capped.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut thresholds: Vec<(f64, usize)> = capped
            .iter()
            .map(|&(cap, k)| (cap_threshold(cap), k))
            .collect();
        thresholds.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let bits = |order: &[(f64, usize)]| -> Vec<(u64, usize)> {
            order.iter().map(|&(v, k)| (v.to_bits(), k)).collect()
        };
        if self.loaded.len() != with_members
            || bits(&self.by_cap) != bits(&capped)
            || bits(&self.by_threshold) != bits(&thresholds)
        {
            return Err(format!(
                "netfair: {} loaded for {with_members}, cap orders {:?} / {:?}",
                self.loaded.len(),
                self.by_cap,
                self.by_threshold
            ));
        }
        let Some(terminal) = self.rounds.last() else {
            return Ok(());
        };
        if terminal.frozen != self.frozen_log.len() {
            return Err("netfair: log does not end at the frozen list".into());
        }
        for (r, pair) in self.rounds.windows(2).enumerate() {
            let (round, next) = (pair[0], pair[1]);
            let keys = &self.frozen_log[round.frozen..next.frozen.max(round.frozen)];
            let level = round.level + round.inc;
            let present = keys.iter().filter(|&&k| k != NONE).count();
            let bad = keys.iter().find(|&&k| {
                k != NONE
                    && !(self.present[k]
                        && self.frozen_in[k] == self.epoch
                        && self.frozen_round[k] == r
                        && self.frozen_level[k].to_bits() == level.to_bits())
            });
            if next.level < round.level
                || next.frozen < round.frozen
                || bad.is_some()
                || present != round.kept
            {
                return Err(format!(
                    "netfair: round {r} {round:?}, next {next:?}, frozen key {bad:?}"
                ));
            }
        }
        Ok(())
    }

    /// [`max_min_rates`] into the workspace's buffers: replaces the flow
    /// set with `flows`, keyed by index, and fills. The returned slice is
    /// valid until the next call.
    pub fn compute(&mut self, constraints: &[Constraint], flows: &[FlowPath]) -> &[f64] {
        self.reset(constraints);
        for (k, f) in flows.iter().enumerate() {
            self.insert(k, f);
        }
        self.fill();
        let mut out = std::mem::take(&mut self.out);
        out.clear();
        out.extend((0..flows.len()).map(|k| self.rate(k)));
        self.out = out;
        &self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// The progressive fill before compact lists: every round scans every
    /// constraint and every flow. The oracle `compute` must match bit for
    /// bit.
    fn full_scan_rates(constraints: &[Constraint], flows: &[FlowPath]) -> Vec<f64> {
        let nf = flows.len();
        let mut rates = vec![0.0; nf];
        let mut frozen = vec![false; nf];
        let mut residual: Vec<f64> = constraints.iter().map(|c| c.capacity).collect();
        let mut count = vec![0usize; constraints.len()];
        let mut members = vec![Vec::new(); constraints.len()];
        for (fi, f) in flows.iter().enumerate() {
            for &c in &f.constraints {
                count[c] += 1;
                members[c].push(fi);
            }
        }
        let caps: Vec<f64> = flows
            .iter()
            .map(|f| f.rate_cap.unwrap_or(f64::INFINITY))
            .collect();
        let mut unfrozen = nf;
        while unfrozen > 0 {
            let mut inc = f64::INFINITY;
            for (i, c) in residual.iter().enumerate() {
                if count[i] > 0 && c.is_finite() {
                    inc = inc.min(c / count[i] as f64);
                }
            }
            for i in 0..nf {
                if !frozen[i] && caps[i].is_finite() {
                    inc = inc.min(caps[i] - rates[i]);
                }
            }
            if !inc.is_finite() {
                for i in 0..nf {
                    if !frozen[i] {
                        rates[i] = UNCONSTRAINED_BPS;
                        frozen[i] = true;
                    }
                }
                break;
            }
            for i in 0..nf {
                if !frozen[i] {
                    rates[i] += inc;
                }
            }
            for (i, r) in residual.iter_mut().enumerate() {
                if count[i] > 0 {
                    *r -= inc * count[i] as f64;
                }
            }
            let mut newly_frozen = vec![false; nf];
            for (ci, r) in residual.iter().enumerate() {
                let eps = 1e-6 + constraints[ci].capacity.abs() * 1e-9;
                if count[ci] > 0 && constraints[ci].capacity.is_finite() && *r <= eps {
                    for &fi in &members[ci] {
                        if !frozen[fi] {
                            newly_frozen[fi] = true;
                        }
                    }
                }
            }
            for (fi, rate) in rates.iter().enumerate() {
                if !frozen[fi] && caps[fi].is_finite() {
                    let eps = 1e-9 + caps[fi].abs() * 1e-9;
                    if *rate >= caps[fi] - eps {
                        newly_frozen[fi] = true;
                    }
                }
            }
            let mut progress = false;
            for fi in 0..nf {
                if newly_frozen[fi] {
                    frozen[fi] = true;
                    unfrozen -= 1;
                    progress = true;
                    for &c in &flows[fi].constraints {
                        count[c] -= 1;
                    }
                }
            }
            if !progress {
                break;
            }
        }
        rates
    }

    /// A capacity from a selector: infinite, zero, or finite at one of
    /// the magnitudes the engine uses (disk and NIC bytes/s) or small.
    fn capacity(sel: u8, u: f64) -> f64 {
        match sel % 8 {
            0 => f64::INFINITY,
            1 => 0.0,
            2..=4 => 1.0e8 * (0.1 + u),
            5 | 6 => 1.0e9 * u,
            _ => 1.0 + 100.0 * u,
        }
    }

    /// A flow in the engine's constraint layout (per node: disk read,
    /// disk write, NIC out, NIC in; then the switch and one external
    /// service), or an arbitrary constraint list that may be empty or
    /// repeat an entry.
    fn flow_path(nodes: usize, gen: &(u8, u16, u16, Vec<u16>, u8, f64)) -> FlowPath {
        let (kind, a, b, raw, cap_sel, cap_u) = gen;
        let (a, b) = (*a as usize % nodes, *b as usize % nodes);
        let (switch, s3) = (4 * nodes, 4 * nodes + 1);
        let constraints = match kind % 5 {
            0 => vec![4 * a + 2, 4 * a, 4 * b + 3, 4 * b + 1, switch],
            1 => vec![4 * a + 2, 4 * b + 3, switch],
            2 => vec![s3, 4 * b + 3, 4 * b + 1],
            3 => vec![4 * a + b % 2],
            _ => raw.iter().map(|&c| c as usize % (4 * nodes + 2)).collect(),
        };
        let rate_cap = match cap_sel % 4 {
            0 => Some(1.0e8 * cap_u),
            1 if *kind % 5 == 2 => Some(5.0e7),
            _ => None,
        };
        FlowPath {
            constraints,
            rate_cap,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The compact-list fill gives `to_bits`-equal rates to the full
        /// scan, up to the 130-node shape (128 workers plus masters), and
        /// a reused workspace carries no state between fills.
        #[test]
        fn compact_fill_matches_full_scan(
            nodes in 1usize..=130,
            caps in proptest::collection::vec((any::<u8>(), 0.0f64..1.0), 522),
            gens in proptest::collection::vec(
                (
                    any::<u8>(),
                    any::<u16>(),
                    any::<u16>(),
                    proptest::collection::vec(any::<u16>(), 0..4),
                    any::<u8>(),
                    0.0f64..1.0,
                ),
                0..=200,
            ),
        ) {
            let constraints: Vec<Constraint> = caps[..4 * nodes + 2]
                .iter()
                .map(|&(sel, u)| Constraint { capacity: capacity(sel, u) })
                .collect();
            let flows: Vec<FlowPath> = gens.iter().map(|g| flow_path(nodes, g)).collect();
            let mut ws = NetFairWorkspace::default();
            for prefix in [flows.len() / 2, flows.len()] {
                let got = ws.compute(&constraints, &flows[..prefix]);
                let want = full_scan_rates(&constraints, &flows[..prefix]);
                prop_assert_eq!(got.len(), want.len());
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    prop_assert!(
                        g.to_bits() == w.to_bits(),
                        "flow {i} of {prefix}: compact {g:e} vs full scan {w:e}"
                    );
                }
            }
        }
    }

    /// `got` and `want` hold the same bits, flow by flow.
    fn same_bits(got: &[f64], want: &[f64], what: &str) -> Result<(), TestCaseError> {
        prop_assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            prop_assert!(
                g.to_bits() == w.to_bits(),
                "flow {i} {what}: workspace {g:e} vs full scan {w:e}"
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Capped and uncapped flows on one shared finite constraint:
        /// equal caps, caps below the fair share, caps of `0.0` and caps
        /// above it, some flows also behind a private constraint. The
        /// running level and the two cap orders must give the full
        /// scan's bits.
        #[test]
        fn capped_flows_on_a_shared_constraint_match_full_scan(
            shared in 0.0f64..1.0,
            gens in proptest::collection::vec((0u8..6, 0.0f64..1.0, any::<bool>(), 0.0f64..1.0), 1..=40),
        ) {
            let shared = 1.0e9 * shared + 1.0;
            let fair = shared / gens.len() as f64;
            let mut constraints = vec![Constraint { capacity: shared }];
            let mut flows = Vec::new();
            for &(kind, u, private, v) in &gens {
                let rate_cap = match kind {
                    0 => None,
                    1 => Some(0.0),
                    2 => Some([0.5 * fair, fair, 1.0e7, 1.0e8][(4.0 * u) as usize % 4]),
                    3 => Some(fair * u),
                    4 => Some(shared * u),
                    _ => Some(2.0 * fair + u),
                };
                let mut path = vec![0];
                if private {
                    path.push(constraints.len());
                    constraints.push(Constraint { capacity: 1.0e8 * (0.1 + v) });
                }
                flows.push(FlowPath { constraints: path, rate_cap });
            }
            let mut ws = NetFairWorkspace::default();
            same_bits(ws.compute(&constraints, &flows), &full_scan_rates(&constraints, &flows), "")?;
        }

        /// One workspace kept across random flow starts and ends, keyed
        /// like engine slab slots (freed keys are reused), matches a fresh
        /// full scan of the current flow set after every change.
        #[test]
        fn kept_membership_matches_fresh_full_scan(
            nodes in 1usize..=12,
            caps in proptest::collection::vec((any::<u8>(), 0.0f64..1.0), 50),
            ops in proptest::collection::vec(
                (
                    0u8..3,
                    any::<u16>(),
                    (
                        any::<u8>(),
                        any::<u16>(),
                        any::<u16>(),
                        proptest::collection::vec(any::<u16>(), 0..4),
                        any::<u8>(),
                        0.0f64..1.0,
                    ),
                ),
                1..=120,
            ),
        ) {
            let constraints: Vec<Constraint> = caps[..4 * nodes + 2]
                .iter()
                .map(|&(sel, u)| Constraint { capacity: capacity(sel, u) })
                .collect();
            let mut ws = NetFairWorkspace::new(&constraints);
            let mut slots: Vec<Option<FlowPath>> = Vec::new();
            let mut free: Vec<usize> = Vec::new();
            for (step, (op, pick, gen)) in ops.iter().enumerate() {
                let live: Vec<usize> = (0..slots.len()).filter(|&k| slots[k].is_some()).collect();
                if *op == 0 && !live.is_empty() {
                    let key = live[*pick as usize % live.len()];
                    slots[key] = None;
                    free.push(key);
                    ws.remove(key);
                } else {
                    let path = flow_path(nodes, gen);
                    let key = free.pop().unwrap_or(slots.len());
                    if key == slots.len() {
                        slots.push(None);
                    }
                    ws.insert(key, &path);
                    slots[key] = Some(path);
                }
                ws.fill();
                let keys: Vec<usize> = (0..slots.len()).filter(|&k| slots[k].is_some()).collect();
                let flows: Vec<FlowPath> = keys.iter().map(|&k| slots[k].clone().unwrap()).collect();
                let got: Vec<f64> = keys.iter().map(|&k| ws.rate(k)).collect();
                same_bits(&got, &full_scan_rates(&constraints, &flows), &format!("after op {step}"))?;
            }
        }
    }

    /// A flow in the Table 2 layout over `nodes` nodes: an S3-shaped read
    /// (the external aggregate at `4 * nodes + 1`, the reader's NIC in and
    /// disk write) under a per-flow cap, a replica write through the
    /// switch at `4 * nodes`, or a local disk stream.
    fn s3_path(nodes: usize, (kind, a, b, u): (u8, u16, u16, f64)) -> FlowPath {
        let (a, b) = (a as usize % nodes, b as usize % nodes);
        match kind % 6 {
            0..=2 => FlowPath {
                constraints: vec![4 * nodes + 1, 4 * b + 3, 4 * b + 1],
                rate_cap: Some(if kind % 6 == 2 {
                    8.0e7 * (0.5 + u)
                } else {
                    8.0e7
                }),
            },
            3 | 4 => FlowPath {
                constraints: vec![4 * a + 2, 4 * b + 3, 4 * b + 1, 4 * nodes],
                rate_cap: None,
            },
            _ => FlowPath {
                constraints: vec![4 * a + (b % 2)],
                rate_cap: None,
            },
        }
    }

    /// One batch op: remove a picked live key, insert a flow, or remove a
    /// picked key and insert a flow that reuses it.
    type BatchOp = (u8, u16, (u8, u16, u16, f64));

    /// Runs one replay case: `initial` flows, then each batch of inserts
    /// and removes followed by a fill, every fill held to a fresh full
    /// scan and every state to the invariants. Returns the rounds the
    /// case replayed.
    fn replay_case(
        nodes: usize,
        caps: &[(u8, f64)],
        initial: &[(u8, u16, u16, f64)],
        batches: &[Vec<BatchOp>],
        force_log: bool,
    ) -> Result<u64, TestCaseError> {
        // NICs and disks at the engine's magnitudes, a few of them
        // infinite; the switch and the S3 aggregate from the selectors.
        let mut constraints: Vec<Constraint> = (0..4 * nodes)
            .map(|i| {
                let (sel, u) = caps[i % caps.len()];
                let capacity = match sel % 10 {
                    0 => f64::INFINITY,
                    1..=5 => 1.25e8 * (0.5 + u),
                    _ => 1.0e8 * (0.2 + u),
                };
                Constraint { capacity }
            })
            .collect();
        for (sel, u) in [caps[0], caps[1]] {
            let capacity = match sel % 3 {
                0 => f64::INFINITY,
                _ => 2.0e9 * (0.1 + u),
            };
            constraints.push(Constraint { capacity });
        }
        let mut ws = NetFairWorkspace::new(&constraints);
        ws.force_log = force_log;
        let mut slots: Vec<Option<FlowPath>> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let add = |ws: &mut NetFairWorkspace,
                   slots: &mut Vec<Option<FlowPath>>,
                   free: &mut Vec<usize>,
                   gen| {
            let path = s3_path(nodes, gen);
            let key = free.pop().unwrap_or(slots.len());
            if key == slots.len() {
                slots.push(None);
            }
            ws.insert(key, &path);
            slots[key] = Some(path);
        };
        for &gen in initial {
            add(&mut ws, &mut slots, &mut free, gen);
        }
        for (b, batch) in std::iter::once(&Vec::new()).chain(batches).enumerate() {
            for &(op, pick, gen) in batch {
                let live: Vec<usize> = (0..slots.len()).filter(|&k| slots[k].is_some()).collect();
                if op % 3 != 1 && !live.is_empty() {
                    let key = live[pick as usize % live.len()];
                    slots[key] = None;
                    free.push(key);
                    ws.remove(key);
                }
                if op % 3 != 0 {
                    add(&mut ws, &mut slots, &mut free, gen);
                }
                ws.check_invariants().map_err(TestCaseError::fail)?;
            }
            ws.fill();
            ws.check_invariants().map_err(TestCaseError::fail)?;
            let keys: Vec<usize> = (0..slots.len()).filter(|&k| slots[k].is_some()).collect();
            let flows: Vec<FlowPath> = keys.iter().map(|&k| slots[k].clone().unwrap()).collect();
            let got: Vec<f64> = keys.iter().map(|&k| ws.rate(k)).collect();
            same_bits(
                &got,
                &full_scan_rates(&constraints, &flows),
                &format!("after batch {b}"),
            )?;
        }
        Ok(ws.stats().rounds_replayed)
    }

    /// Fills that replay the previous fill's rounds give the full scan's
    /// bits: batches of 1–4 starts and ends between fills, keys freed and
    /// reused within a batch, S3-shaped capped flows on a shared
    /// aggregate, and infinite constraints on the changed paths. Every
    /// fill logs, so every fill after the first tries to replay, and the
    /// rounds replayed over all cases must be above zero; the same cases
    /// under the logging rule alone must match too, and replay some
    /// rounds.
    #[test]
    fn replayed_fills_match_fresh_full_scan() {
        use proptest::test_runner::{Config, TestRunner};
        let strategy = (
            2usize..=40,
            proptest::collection::vec((any::<u8>(), 0.0f64..1.0), 8),
            proptest::collection::vec(
                (any::<u8>(), any::<u16>(), any::<u16>(), 0.0f64..1.0),
                10..=90,
            ),
            proptest::collection::vec(
                proptest::collection::vec(
                    (
                        any::<u8>(),
                        any::<u16>(),
                        (any::<u8>(), any::<u16>(), any::<u16>(), 0.0f64..1.0),
                    ),
                    1..=4,
                ),
                1..=30,
            ),
        );
        let replayed = std::cell::Cell::new([0u64; 2]);
        TestRunner::new(Config::with_cases(128))
            .run(&strategy, |(nodes, caps, initial, batches)| {
                let [forced, ruled] = replayed.get();
                replayed.set([
                    forced + replay_case(nodes, &caps, &initial, &batches, true)?,
                    ruled + replay_case(nodes, &caps, &initial, &batches, false)?,
                ]);
                Ok(())
            })
            .unwrap();
        assert!(replayed.get()[0] > 0, "no fill replayed a round");
        assert!(replayed.get()[1] > 0, "the logging rule never logged");
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6 * b.abs().max(1.0)
    }

    fn flow(cs: &[usize]) -> FlowPath {
        FlowPath {
            constraints: cs.to_vec(),
            rate_cap: None,
        }
    }

    #[test]
    fn two_flows_share_one_link() {
        let cons = [Constraint { capacity: 100.0 }];
        let rates = max_min_rates(&cons, &[flow(&[0]), flow(&[0])]);
        assert!(close(rates[0], 50.0) && close(rates[1], 50.0));
    }

    #[test]
    fn bottleneck_frees_capacity_elsewhere() {
        // Flow A uses links 0 and 1; flow B only link 0. Link 0 has 100,
        // link 1 has 30. A is capped at 30 by link 1; B then gets 70.
        let cons = [
            Constraint { capacity: 100.0 },
            Constraint { capacity: 30.0 },
        ];
        let rates = max_min_rates(&cons, &[flow(&[0, 1]), flow(&[0])]);
        assert!(close(rates[0], 30.0), "{rates:?}");
        assert!(close(rates[1], 70.0), "{rates:?}");
    }

    #[test]
    fn per_flow_cap_is_honoured() {
        let cons = [Constraint { capacity: 100.0 }];
        let flows = [
            FlowPath {
                constraints: vec![0],
                rate_cap: Some(10.0),
            },
            flow(&[0]),
        ];
        let rates = max_min_rates(&cons, &flows);
        assert!(close(rates[0], 10.0));
        assert!(close(rates[1], 90.0));
    }

    #[test]
    fn unconstrained_flow_gets_sentinel_rate() {
        let cons = [Constraint {
            capacity: f64::INFINITY,
        }];
        let rates = max_min_rates(&cons, &[flow(&[0])]);
        assert_eq!(rates[0], UNCONSTRAINED_BPS);
    }

    #[test]
    fn switch_aggregate_binds_many_nics() {
        // 4 flows, each on its own 125 MB/s NIC pair, all through a
        // 250 MB/s switch: each gets 62.5 MB/s.
        let mut cons = vec![Constraint { capacity: 250.0e6 }];
        let mut flows = Vec::new();
        for i in 0..4 {
            cons.push(Constraint { capacity: 125.0e6 }); // src nic
            cons.push(Constraint { capacity: 125.0e6 }); // dst nic
            flows.push(flow(&[0, 1 + 2 * i, 2 + 2 * i]));
        }
        let rates = max_min_rates(&cons, &flows);
        for r in &rates {
            assert!(close(*r, 62.5e6), "{rates:?}");
        }
    }

    #[test]
    fn empty_flows() {
        assert!(max_min_rates(&[], &[]).is_empty());
    }
}
