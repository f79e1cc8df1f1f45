//! Flow-level max-min fair bandwidth allocation (progressive filling).
//!
//! The simulated network is a star: every node's NIC is a capacity
//! constraint (independently per direction), the switch core is an optional
//! aggregate constraint, and external services contribute an aggregate
//! constraint plus an optional per-flow cap. A flow is a set of constraint
//! memberships; rates are assigned by progressive filling, the textbook
//! algorithm for max-min fairness: raise all rates uniformly, freeze flows
//! when a constraint they traverse saturates, repeat.

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
#[derive(Default)]
pub struct NetFairWorkspace {
    capacity: Vec<f64>,
    /// Saturation threshold per constraint, relative to its capacity.
    eps: Vec<f64>,
    /// Path per key; `present` says which keys hold a flow.
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
    /// The fill a key froze in, and the level it froze at.
    frozen_in: Vec<u64>,
    frozen_level: Vec<f64>,
    fill_no: u64,
    /// The rate of every flow still unfrozen when the last fill ended.
    rest: f64,
    out: Vec<f64>,
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
        }
        self.loaded.clear();
        self.present.iter_mut().for_each(|p| *p = false);
        self.flows = 0;
        self.by_cap.clear();
        self.by_threshold.clear();
        let n = constraints.len();
        self.capacity.clear();
        self.capacity.extend(constraints.iter().map(|c| c.capacity));
        self.eps.clear();
        self.eps
            .extend(constraints.iter().map(|c| 1e-6 + c.capacity.abs() * 1e-9));
        self.members.resize_with(n, Vec::new);
        self.loaded_pos.clear();
        self.loaded_pos.resize(n, usize::MAX);
        self.residual.resize(n, 0.0);
        self.count.resize(n, 0);
    }

    /// Adds a flow under `key`, which must not hold one.
    pub fn insert(&mut self, key: usize, path: &FlowPath) {
        if self.paths.len() <= key {
            self.paths.resize_with(key + 1, FlowPath::default);
            self.present.resize(key + 1, false);
            self.frozen_in.resize(key + 1, 0);
            self.frozen_level.resize(key + 1, 0.0);
        }
        debug_assert!(!self.present[key], "key {key} already holds a flow");
        self.present[key] = true;
        self.flows += 1;
        for &c in &path.constraints {
            if self.members[c].is_empty() {
                self.loaded_pos[c] = self.loaded.len();
                self.loaded.push(c);
            }
            self.members[c].push(key);
        }
        if let Some(cap) = path.rate_cap.filter(|c| c.is_finite()) {
            insert_sorted(&mut self.by_cap, cap, key);
            insert_sorted(&mut self.by_threshold, cap_threshold(cap), key);
        }
        let stored = &mut self.paths[key];
        stored.constraints.clear();
        stored.constraints.extend_from_slice(&path.constraints);
        stored.rate_cap = path.rate_cap;
    }

    /// Removes the flow under `key`, if any.
    pub fn remove(&mut self, key: usize) {
        if !self.present.get(key).copied().unwrap_or(false) {
            return;
        }
        self.present[key] = false;
        self.flows -= 1;
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
            }
        }
        if let Some(cap) = path.rate_cap.filter(|c| c.is_finite()) {
            remove_sorted(&mut self.by_cap, cap, key);
            remove_sorted(&mut self.by_threshold, cap_threshold(cap), key);
        }
    }

    /// The rate the last [`fill`](Self::fill) gave the flow under `key`.
    pub fn rate(&self, key: usize) -> f64 {
        if self.frozen_in[key] == self.fill_no {
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
    pub fn fill(&mut self) {
        self.fill_no += 1;
        let fill = self.fill_no;
        let NetFairWorkspace {
            capacity,
            eps,
            paths,
            flows,
            members,
            loaded,
            by_cap,
            by_threshold,
            residual,
            count,
            live,
            saturated,
            frozen_in,
            frozen_level,
            rest,
            ..
        } = self;
        // An infinite constraint never binds and its residual stays
        // infinite, so it is never live. Each pass over `live` also takes
        // the smallest constraint increment for the next round.
        live.clear();
        let mut cons_inc = f64::INFINITY;
        for &c in loaded.iter() {
            residual[c] = capacity[c];
            count[c] = members[c].len();
            if capacity[c].is_finite() {
                live.push(c);
                cons_inc = cons_inc.min(residual[c] / count[c] as f64);
            }
        }
        let mut level = 0.0f64;
        let mut unfrozen = *flows;
        let (mut next_cap, mut next_threshold) = (0, 0);
        while unfrozen > 0 {
            // Smallest uniform increment saturating a constraint or a cap.
            let mut inc = cons_inc;
            while next_cap < by_cap.len() && frozen_in[by_cap[next_cap].1] == fill {
                next_cap += 1;
            }
            if let Some(&(cap, _)) = by_cap.get(next_cap) {
                inc = inc.min(cap - level);
            }
            if !inc.is_finite() {
                // No binding constraint: remaining flows are unconstrained.
                *rest = UNCONSTRAINED_BPS;
                return;
            }

            // Raise the level by `inc`; charge the constraints and note
            // the saturated ones. Thresholds are *relative* to the
            // capacity: with capacities in the 1e9 range, the float error
            // of repeated subtraction can exceed any fixed absolute
            // epsilon.
            level += inc;
            saturated.clear();
            for &c in live.iter() {
                residual[c] -= inc * count[c] as f64;
                if residual[c] <= eps[c] {
                    saturated.push(c);
                }
            }

            // Freeze flows on saturated constraints or at their private
            // cap.
            let before = unfrozen;
            let mut freeze = |k: usize| {
                if frozen_in[k] != fill {
                    frozen_in[k] = fill;
                    frozen_level[k] = level;
                    for &c in &paths[k].constraints {
                        count[c] -= 1;
                    }
                    unfrozen -= 1;
                }
            };
            for &c in saturated.iter() {
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
            if unfrozen == before {
                // Numeric fallback: the increment was swallowed by
                // rounding. Stop at the current (feasible) rates — this
                // sacrifices at most an epsilon of max-min optimality
                // while guaranteeing termination.
                break;
            }
            cons_inc = f64::INFINITY;
            live.retain(|&c| {
                let keep = count[c] > 0;
                if keep {
                    cons_inc = cons_inc.min(residual[c] / count[c] as f64);
                }
                keep
            });
        }
        *rest = level;
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
