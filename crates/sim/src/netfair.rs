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

/// Reusable scratch buffers for [`max_min_rates`]. The engine runs one
/// refill per IO-set change; holding the workspace across refreshes keeps
/// the progressive-filling loop allocation-free.
///
/// Each filling round touches only what is still live: the loaded
/// finite constraints and the unfrozen flows, each kept as a compact
/// ascending index list. At Table 2 scale most of the four-per-node
/// constraints carry no flow, so a full scan per round would dominate.
#[derive(Default)]
pub struct NetFairWorkspace {
    rates: Vec<f64>,
    frozen: Vec<bool>,
    residual: Vec<f64>,
    count: Vec<usize>,
    caps: Vec<f64>,
    members: Vec<Vec<usize>>,
    /// Finite constraints with `count > 0`, ascending.
    live_cons: Vec<usize>,
    /// Unfrozen flows, ascending.
    live_flows: Vec<usize>,
    newly_frozen: Vec<usize>,
}

impl NetFairWorkspace {
    /// [`max_min_rates`] into the workspace's buffers. The returned slice
    /// is valid until the next `compute` call. Identical arithmetic to the
    /// free function (which delegates here).
    pub fn compute(&mut self, constraints: &[Constraint], flows: &[FlowPath]) -> &[f64] {
        let nf = flows.len();
        self.rates.clear();
        if nf == 0 {
            return &self.rates;
        }

        self.rates.resize(nf, 0.0);
        self.frozen.clear();
        self.frozen.resize(nf, false);
        let rates = &mut self.rates;
        let frozen = &mut self.frozen;

        // Residual capacity and unfrozen-flow count per constraint. A
        // flow's private cap is modelled as one extra single-flow
        // constraint.
        self.residual.clear();
        self.residual.extend(constraints.iter().map(|c| c.capacity));
        let residual = &mut self.residual;
        self.count.clear();
        self.count.resize(constraints.len(), 0);
        let count = &mut self.count;
        for f in flows {
            for &c in &f.constraints {
                count[c] += 1;
            }
        }
        self.caps.clear();
        self.caps
            .extend(flows.iter().map(|f| f.rate_cap.unwrap_or(f64::INFINITY)));
        let caps = &mut self.caps;

        // Constraint → member-flow index, so freezing on saturation is
        // O(members) instead of a scan over every flow (the Figure 4
        // experiment runs hundreds of concurrent flows).
        if self.members.len() < constraints.len() {
            self.members.resize_with(constraints.len(), Vec::new);
        }
        for m in self.members.iter_mut() {
            m.clear();
        }
        let members = &mut self.members;
        for (fi, f) in flows.iter().enumerate() {
            for &c in &f.constraints {
                members[c].push(fi);
            }
        }

        // An infinite constraint never binds and its residual stays
        // infinite, so it is never live.
        self.live_cons.clear();
        self.live_cons.extend(
            (0..constraints.len()).filter(|&c| count[c] > 0 && constraints[c].capacity.is_finite()),
        );
        let live_cons = &mut self.live_cons;
        self.live_flows.clear();
        self.live_flows.extend(0..nf);
        let live_flows = &mut self.live_flows;
        let newly_frozen = &mut self.newly_frozen;

        while !live_flows.is_empty() {
            // Smallest uniform increment saturating a constraint or a cap.
            let mut inc = f64::INFINITY;
            for &i in live_cons.iter() {
                inc = inc.min(residual[i] / count[i] as f64);
            }
            for &i in live_flows.iter() {
                if caps[i].is_finite() {
                    inc = inc.min(caps[i] - rates[i]);
                }
            }
            if !inc.is_finite() {
                // No binding constraint: remaining flows are unconstrained.
                for &i in live_flows.iter() {
                    rates[i] = UNCONSTRAINED_BPS;
                }
                break;
            }

            // Raise every unfrozen flow by `inc`; charge the constraints.
            for &i in live_flows.iter() {
                rates[i] += inc;
            }
            for &i in live_cons.iter() {
                residual[i] -= inc * count[i] as f64;
            }

            // Freeze flows on saturated constraints or at their private
            // cap. Thresholds are *relative* to the capacity: with
            // capacities in the 1e9 range, the float error of repeated
            // subtraction can exceed any fixed absolute epsilon.
            newly_frozen.clear();
            for &ci in live_cons.iter() {
                let eps = 1e-6 + constraints[ci].capacity.abs() * 1e-9;
                if residual[ci] <= eps {
                    for &fi in &members[ci] {
                        if !frozen[fi] {
                            frozen[fi] = true;
                            newly_frozen.push(fi);
                        }
                    }
                }
            }
            for &fi in live_flows.iter() {
                if !frozen[fi] && caps[fi].is_finite() {
                    let eps = 1e-9 + caps[fi].abs() * 1e-9;
                    if rates[fi] >= caps[fi] - eps {
                        frozen[fi] = true;
                        newly_frozen.push(fi);
                    }
                }
            }
            if newly_frozen.is_empty() {
                // Numeric fallback: the increment was swallowed by
                // rounding. Stop at the current (feasible) rates — this
                // sacrifices at most an epsilon of max-min optimality
                // while guaranteeing termination.
                break;
            }
            for &fi in newly_frozen.iter() {
                for &c in &flows[fi].constraints {
                    count[c] -= 1;
                }
            }
            live_cons.retain(|&c| count[c] > 0);
            live_flows.retain(|&fi| !frozen[fi]);
        }
        &self.rates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
