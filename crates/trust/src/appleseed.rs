//! The **Appleseed** local group trust metric (§3.2, ref \[12\]).
//!
//! Appleseed derives from spreading activation models (Quillian, ref \[13\]):
//! the source agent injects trust *energy* `in_0` into the network. Each node
//! `x` holding energy `in(x)` keeps `(1 − d) · in(x)` as accumulated trust
//! rank and forwards `d · in(x)` along its positive outgoing trust edges,
//! proportionally to edge weights. Every discovered node is given a virtual
//! *backward edge* to the source with weight 1, which (a) makes energy
//! conservation exact — no node is a sink — and (b) biases ranks towards
//! agents close to the source. The fixpoint is reached when no rank changes
//! by more than the convergence threshold `T_c`.
//!
//! The metric is *local* (it explores only the subgraph energy actually
//! reaches, within an optional hop range — "exploring the social network
//! within predefined ranges only … retaining scalability") and *group*
//! (it returns a ranking of peers rather than a value for one target pair).
//!
//! **Distrust.** Negative trust statements don't propagate transitively
//! ("the enemy of my enemy" is *not* a friend): a negative edge diverts the
//! proportional share of energy into a terminal rank *penalty* at the
//! distrusted node and forwards nothing. This is the one-step distrust
//! handling Ziegler & Lausen argue for; enable it via
//! [`AppleseedParams::distrust`].

use std::collections::HashMap;

use crate::agent::AgentId;
use crate::csr::CsrGraph;
use crate::error::{Result, TrustError};
use crate::graph::TrustGraph;

/// The read-only view of a trust network the spreading-activation loop
/// needs: a node count plus sign-partitioned out-edge walks. Implemented
/// by both the adjacency-list [`TrustGraph`] and the flat [`CsrGraph`], so
/// one metric implementation serves both layouts — and because both
/// iterate edges in the identical (trustee-sorted) order, the two produce
/// bit-identical ranks.
pub trait TrustTopology {
    /// Number of agents `n = |A|`.
    fn agent_count(&self) -> usize;
    /// Outgoing statements of `agent` with strictly positive weight.
    fn positive_out(&self, agent: AgentId) -> impl Iterator<Item = (AgentId, f64)> + '_;
    /// Outgoing statements of `agent` with strictly negative weight.
    fn negative_out(&self, agent: AgentId) -> impl Iterator<Item = (AgentId, f64)> + '_;
}

impl TrustTopology for TrustGraph {
    fn agent_count(&self) -> usize {
        TrustGraph::agent_count(self)
    }
    fn positive_out(&self, agent: AgentId) -> impl Iterator<Item = (AgentId, f64)> + '_ {
        self.positive_out_edges(agent)
    }
    fn negative_out(&self, agent: AgentId) -> impl Iterator<Item = (AgentId, f64)> + '_ {
        self.negative_out_edges(agent)
    }
}

impl TrustTopology for CsrGraph {
    fn agent_count(&self) -> usize {
        CsrGraph::agent_count(self)
    }
    fn positive_out(&self, agent: AgentId) -> impl Iterator<Item = (AgentId, f64)> + '_ {
        self.positive_out_edges(agent)
    }
    fn negative_out(&self, agent: AgentId) -> impl Iterator<Item = (AgentId, f64)> + '_ {
        self.negative_out_edges(agent)
    }
}

/// Parameters of the Appleseed metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AppleseedParams {
    /// Injected trust energy `in_0` (paper example: 200).
    pub injection: f64,
    /// Spreading factor `d ∈ (0, 1)`: share of incoming energy passed on
    /// rather than kept as rank. Default 0.85.
    pub spreading_factor: f64,
    /// Convergence threshold `T_c`: stop when no rank moves more than this.
    pub convergence: f64,
    /// Weight of the virtual backward edge to the source.
    pub backward_weight: f64,
    /// Hard cap on iterations (safety net; convergence normally triggers first).
    pub max_iterations: usize,
    /// Optional hop-range bound: nodes farther than this from the source are
    /// still ranked but never expanded (their energy returns to the source).
    pub max_range: Option<u32>,
    /// Optional cap on the number of discovered nodes; energy reaching
    /// undiscovered nodes past the cap returns to the source instead.
    pub max_nodes: Option<usize>,
    /// Honor negative edges as terminal rank penalties.
    pub distrust: bool,
    /// Nonlinear spreading exponent: outgoing energy shares are proportional
    /// to `w^spreading_power`. Ref \[12\] proposes super-linear normalization
    /// (e.g. 2.0) so highly trusted successors attract disproportionally
    /// more energy than weakly trusted ones; 1.0 is the linear default.
    pub spreading_power: f64,
}

impl Default for AppleseedParams {
    fn default() -> Self {
        AppleseedParams {
            injection: 200.0,
            spreading_factor: 0.85,
            convergence: 0.01,
            backward_weight: 1.0,
            max_iterations: 10_000,
            max_range: None,
            max_nodes: None,
            distrust: false,
            spreading_power: 1.0,
        }
    }
}

impl AppleseedParams {
    /// Validates the parameter set.
    pub fn validate(&self) -> Result<()> {
        if self.injection <= 0.0 || !self.injection.is_finite() {
            return Err(TrustError::InvalidParameter {
                name: "injection",
                value: self.injection,
                expected: "a positive finite energy",
            });
        }
        if !(self.spreading_factor > 0.0 && self.spreading_factor < 1.0) {
            return Err(TrustError::InvalidParameter {
                name: "spreading_factor",
                value: self.spreading_factor,
                expected: "a value in (0, 1)",
            });
        }
        if self.convergence <= 0.0 || !self.convergence.is_finite() {
            return Err(TrustError::InvalidParameter {
                name: "convergence",
                value: self.convergence,
                expected: "a positive finite threshold",
            });
        }
        if self.backward_weight <= 0.0 || !self.backward_weight.is_finite() {
            return Err(TrustError::InvalidParameter {
                name: "backward_weight",
                value: self.backward_weight,
                expected: "a positive finite weight",
            });
        }
        if self.spreading_power <= 0.0 || !self.spreading_power.is_finite() {
            return Err(TrustError::InvalidParameter {
                name: "spreading_power",
                value: self.spreading_power,
                expected: "a positive finite exponent",
            });
        }
        Ok(())
    }
}

/// Outcome of an Appleseed computation.
#[derive(Clone, Debug)]
pub struct AppleseedResult {
    /// `(agent, rank)` pairs sorted by descending rank, source excluded.
    /// Ranks are non-negative unless distrust handling produced penalties.
    pub ranks: Vec<(AgentId, f64)>,
    /// Iterations until convergence (or the iteration cap).
    pub iterations: usize,
    /// Nodes the energy wave discovered (including the source).
    pub nodes_discovered: usize,
    /// True if the fixpoint was reached before `max_iterations`.
    pub converged: bool,
}

impl AppleseedResult {
    /// The rank of a specific agent (0 if never discovered).
    pub fn rank_of(&self, agent: AgentId) -> f64 {
        self.ranks
            .iter()
            .find(|&&(a, _)| a == agent)
            .map_or(0.0, |&(_, r)| r)
    }

    /// The `top_m` highest-ranked agents.
    pub fn top(&self, top_m: usize) -> &[(AgentId, f64)] {
        &self.ranks[..self.ranks.len().min(top_m)]
    }

    /// Total rank mass accorded to non-source agents.
    pub fn total_rank(&self) -> f64 {
        self.ranks.iter().map(|&(_, r)| r).sum()
    }
}

/// Per-node state inside the computation.
struct NodeState {
    agent: AgentId,
    /// Hop distance from the source at discovery time.
    distance: u32,
    rank: f64,
    energy_in: f64,
    energy_next: f64,
}

/// Runs Appleseed for `source` over any [`TrustTopology`] — the
/// adjacency-list [`TrustGraph`], the flat [`CsrGraph`] hot path, or a
/// view over another layout. Layouts that iterate out-edges in the same
/// order yield bit-identical results.
pub fn appleseed<G: TrustTopology>(
    graph: &G,
    source: AgentId,
    params: &AppleseedParams,
) -> Result<AppleseedResult> {
    params.validate()?;
    if source.index() >= graph.agent_count() {
        return Err(TrustError::UnknownAgent(source.index()));
    }

    // Observability: runs/iterations/nodes counters plus the per-iteration
    // energy residual (`max_delta`) as a histogram. Handles are fetched
    // once per run; the loop itself only touches atomics.
    let _span = semrec_obs::span("appleseed.run");
    semrec_obs::counter("appleseed.runs").inc();
    let iterations_counter = semrec_obs::counter("appleseed.iterations");
    let residual_histogram = semrec_obs::histogram("appleseed.residual");

    let d = params.spreading_factor;
    let mut nodes: Vec<NodeState> = vec![NodeState {
        agent: source,
        distance: 0,
        rank: 0.0,
        energy_in: params.injection,
        energy_next: 0.0,
    }];
    let mut local: HashMap<AgentId, usize> = HashMap::from([(source, 0)]);

    let mut iterations = 0;
    let mut converged = false;
    while iterations < params.max_iterations {
        iterations += 1;
        iterations_counter.inc();
        let mut max_delta: f64 = 0.0;

        for i in 0..nodes.len() {
            let energy = nodes[i].energy_in;
            if energy <= 0.0 {
                continue;
            }
            nodes[i].energy_in = 0.0;

            // Keep (1 - d), forward d.
            let kept = (1.0 - d) * energy;
            nodes[i].rank += kept;
            max_delta = max_delta.max(kept);
            let forward = d * energy;

            let agent = nodes[i].agent;
            let at_range_limit =
                params.max_range.is_some_and(|r| nodes[i].distance >= r);
            let distance = nodes[i].distance;

            // Collect this node's effective out-edges. Nodes at the range
            // limit keep only the backward edge.
            let power = params.spreading_power;
            let mut pos_sum = 0.0;
            let mut neg_sum = 0.0;
            if !at_range_limit {
                for (_, w) in graph.positive_out(agent) {
                    pos_sum += w.powf(power);
                }
                if params.distrust {
                    for (_, w) in graph.negative_out(agent) {
                        neg_sum += (-w).powf(power);
                    }
                }
            }
            let backward = if agent == source { 0.0 } else { params.backward_weight };
            let total_weight = pos_sum + neg_sum + backward;
            if total_weight <= 0.0 {
                // Source without positive statements: energy evaporates;
                // nothing to rank.
                continue;
            }

            if backward > 0.0 {
                nodes[0].energy_next += forward * backward / total_weight;
            }
            if !at_range_limit {
                for (succ, w) in graph.positive_out(agent) {
                    let share = forward * w.powf(power) / total_weight;
                    let idx = match local.get(&succ) {
                        Some(&idx) => idx,
                        None => {
                            if params.max_nodes.is_some_and(|cap| nodes.len() >= cap) {
                                // Capacity reached: reroute to the source.
                                nodes[0].energy_next += share;
                                continue;
                            }
                            let idx = nodes.len();
                            local.insert(succ, idx);
                            nodes.push(NodeState {
                                agent: succ,
                                distance: distance + 1,
                                rank: 0.0,
                                energy_in: 0.0,
                                energy_next: 0.0,
                            });
                            idx
                        }
                    };
                    nodes[idx].energy_next += share;
                }
                if params.distrust {
                    for (succ, w) in graph.negative_out(agent) {
                        let share = forward * (-w).powf(power) / total_weight;
                        // Terminal penalty: deposited as negative rank on
                        // already-discovered nodes; statements about agents
                        // the wave never reaches positively are recorded too.
                        let idx = match local.get(&succ) {
                            Some(&idx) => idx,
                            None => {
                                if params.max_nodes.is_some_and(|cap| nodes.len() >= cap) {
                                    continue;
                                }
                                let idx = nodes.len();
                                local.insert(succ, idx);
                                nodes.push(NodeState {
                                    agent: succ,
                                    distance: distance + 1,
                                    rank: 0.0,
                                    energy_in: 0.0,
                                    energy_next: 0.0,
                                });
                                idx
                            }
                        };
                        nodes[idx].rank -= share;
                        max_delta = max_delta.max(share);
                    }
                }
            }
        }

        for node in &mut nodes {
            node.energy_in += node.energy_next;
            node.energy_next = 0.0;
        }

        residual_histogram.observe(max_delta);
        if max_delta < params.convergence {
            converged = true;
            break;
        }
    }
    semrec_obs::counter("appleseed.nodes_explored").add(nodes.len() as u64);

    let mut ranks: Vec<(AgentId, f64)> = nodes
        .iter()
        .filter(|n| n.agent != source)
        .map(|n| (n.agent, n.rank))
        .collect();
    ranks.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));

    Ok(AppleseedResult { ranks, iterations, nodes_discovered: nodes.len(), converged })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// s → a (1.0), s → b (0.5), a → c (1.0).
    fn chain_graph() -> (TrustGraph, Vec<AgentId>) {
        let mut g = TrustGraph::with_agents(4);
        let ids: Vec<_> = g.agents().collect();
        g.set_trust(ids[0], ids[1], 1.0).unwrap();
        g.set_trust(ids[0], ids[2], 0.5).unwrap();
        g.set_trust(ids[1], ids[3], 1.0).unwrap();
        (g, ids)
    }

    #[test]
    fn ranks_favor_strongly_and_directly_trusted_peers() {
        let (g, ids) = chain_graph();
        let res = appleseed(&g, ids[0], &AppleseedParams::default()).unwrap();
        assert!(res.converged);
        assert_eq!(res.nodes_discovered, 4);
        let ra = res.rank_of(ids[1]);
        let rb = res.rank_of(ids[2]);
        let rc = res.rank_of(ids[3]);
        assert!(ra > rb, "stronger direct trust must outrank weaker: {ra} vs {rb}");
        assert!(ra > rc, "direct trust must outrank indirect: {ra} vs {rc}");
        assert!(rc > 0.0, "transitive trust must reach c");
    }

    #[test]
    fn total_rank_is_bounded_by_injection() {
        let (g, ids) = chain_graph();
        let params = AppleseedParams { convergence: 1e-9, ..Default::default() };
        let res = appleseed(&g, ids[0], &params).unwrap();
        // All injected energy ends up as rank somewhere (incl. the source),
        // so non-source rank is strictly below the injection.
        assert!(res.total_rank() < params.injection);
        assert!(res.total_rank() > 0.5 * params.injection);
    }

    #[test]
    fn source_is_not_ranked() {
        let (g, ids) = chain_graph();
        let res = appleseed(&g, ids[0], &AppleseedParams::default()).unwrap();
        assert!(res.ranks.iter().all(|&(a, _)| a != ids[0]));
    }

    #[test]
    fn isolated_source_yields_empty_ranking() {
        let g = TrustGraph::with_agents(3);
        let ids: Vec<_> = g.agents().collect();
        let res = appleseed(&g, ids[0], &AppleseedParams::default()).unwrap();
        assert!(res.ranks.is_empty());
        assert!(res.converged);
    }

    #[test]
    fn unreachable_nodes_get_zero() {
        let (g, ids) = chain_graph();
        // Agent 4 exists but nobody trusts it.
        let mut g = g;
        let lonely = g.add_agent();
        let res = appleseed(&g, ids[0], &AppleseedParams::default()).unwrap();
        assert_eq!(res.rank_of(lonely), 0.0);
        assert_eq!(res.nodes_discovered, 4);
    }

    #[test]
    fn tighter_convergence_needs_more_iterations() {
        let (g, ids) = chain_graph();
        let loose = appleseed(
            &g,
            ids[0],
            &AppleseedParams { convergence: 1.0, ..Default::default() },
        )
        .unwrap();
        let tight = appleseed(
            &g,
            ids[0],
            &AppleseedParams { convergence: 1e-6, ..Default::default() },
        )
        .unwrap();
        assert!(tight.iterations > loose.iterations);
        assert!(loose.converged && tight.converged);
    }

    #[test]
    fn range_limit_stops_expansion_but_keeps_ranks() {
        let mut g = TrustGraph::with_agents(5);
        let ids: Vec<_> = g.agents().collect();
        // Chain s → 1 → 2 → 3 → 4.
        for w in ids.windows(2) {
            g.set_trust(w[0], w[1], 1.0).unwrap();
        }
        let unlimited = appleseed(&g, ids[0], &AppleseedParams::default()).unwrap();
        assert_eq!(unlimited.nodes_discovered, 5);
        let limited = appleseed(
            &g,
            ids[0],
            &AppleseedParams { max_range: Some(2), ..Default::default() },
        )
        .unwrap();
        // Nodes at distance ≤ 2 are discovered; the node *at* the limit is
        // ranked but not expanded, so distance-3 nodes never appear.
        assert_eq!(limited.nodes_discovered, 3);
        assert!(limited.rank_of(ids[2]) > 0.0);
        assert_eq!(limited.rank_of(ids[3]), 0.0);
    }

    #[test]
    fn node_cap_reroutes_energy_to_source() {
        let mut g = TrustGraph::with_agents(6);
        let ids: Vec<_> = g.agents().collect();
        for &t in &ids[1..] {
            g.set_trust(ids[0], t, 1.0).unwrap();
        }
        let res = appleseed(
            &g,
            ids[0],
            &AppleseedParams { max_nodes: Some(3), ..Default::default() },
        )
        .unwrap();
        assert_eq!(res.nodes_discovered, 3);
        assert_eq!(res.ranks.iter().filter(|&&(_, r)| r > 0.0).count(), 2);
    }

    #[test]
    fn higher_spreading_factor_pushes_rank_deeper() {
        let mut g = TrustGraph::with_agents(3);
        let ids: Vec<_> = g.agents().collect();
        g.set_trust(ids[0], ids[1], 1.0).unwrap();
        g.set_trust(ids[1], ids[2], 1.0).unwrap();
        let lo = appleseed(
            &g,
            ids[0],
            &AppleseedParams { spreading_factor: 0.5, convergence: 1e-9, ..Default::default() },
        )
        .unwrap();
        let hi = appleseed(
            &g,
            ids[0],
            &AppleseedParams { spreading_factor: 0.9, convergence: 1e-9, ..Default::default() },
        )
        .unwrap();
        let ratio_lo = lo.rank_of(ids[2]) / lo.rank_of(ids[1]);
        let ratio_hi = hi.rank_of(ids[2]) / hi.rank_of(ids[1]);
        assert!(
            ratio_hi > ratio_lo,
            "d=0.9 must give the distant node relatively more rank ({ratio_hi} vs {ratio_lo})"
        );
    }

    #[test]
    fn distrust_penalizes_but_does_not_propagate() {
        let mut g = TrustGraph::with_agents(4);
        let ids: Vec<_> = g.agents().collect();
        g.set_trust(ids[0], ids[1], 1.0).unwrap();
        g.set_trust(ids[1], ids[2], -1.0).unwrap(); // b distrusts c
        g.set_trust(ids[2], ids[3], 1.0).unwrap(); // c trusts dd
        let res = appleseed(
            &g,
            ids[0],
            &AppleseedParams { distrust: true, ..Default::default() },
        )
        .unwrap();
        assert!(res.rank_of(ids[2]) < 0.0, "distrusted node must carry a penalty");
        // dd is only endorsed by the distrusted node; distrust is terminal,
        // so no (positive or negative) energy ever flows to dd.
        assert_eq!(res.rank_of(ids[3]), 0.0);
    }

    #[test]
    fn distrust_ignored_when_disabled() {
        let mut g = TrustGraph::with_agents(3);
        let ids: Vec<_> = g.agents().collect();
        g.set_trust(ids[0], ids[1], 1.0).unwrap();
        g.set_trust(ids[1], ids[2], -1.0).unwrap();
        let res = appleseed(&g, ids[0], &AppleseedParams::default()).unwrap();
        assert_eq!(res.rank_of(ids[2]), 0.0);
    }

    #[test]
    fn super_linear_spreading_favors_strong_edges() {
        // s trusts a (1.0) and b (0.5): with power 2 the share ratio becomes
        // 4:1 instead of 2:1, so a's advantage over b must grow.
        let mut g = TrustGraph::with_agents(3);
        let ids: Vec<_> = g.agents().collect();
        g.set_trust(ids[0], ids[1], 1.0).unwrap();
        g.set_trust(ids[0], ids[2], 0.5).unwrap();
        let linear = appleseed(&g, ids[0], &AppleseedParams::default()).unwrap();
        let squared = appleseed(
            &g,
            ids[0],
            &AppleseedParams { spreading_power: 2.0, ..Default::default() },
        )
        .unwrap();
        let ratio = |r: &AppleseedResult| r.rank_of(ids[1]) / r.rank_of(ids[2]);
        assert!((ratio(&linear) - 2.0).abs() < 1e-6, "linear ratio {}", ratio(&linear));
        assert!((ratio(&squared) - 4.0).abs() < 1e-6, "squared ratio {}", ratio(&squared));
    }

    #[test]
    fn parameter_validation() {
        let g = TrustGraph::with_agents(1);
        let s = AgentId::from_index(0);
        for params in [
            AppleseedParams { injection: 0.0, ..Default::default() },
            AppleseedParams { spreading_factor: 0.0, ..Default::default() },
            AppleseedParams { spreading_factor: 1.0, ..Default::default() },
            AppleseedParams { convergence: 0.0, ..Default::default() },
            AppleseedParams { backward_weight: -1.0, ..Default::default() },
            AppleseedParams { spreading_power: 0.0, ..Default::default() },
            AppleseedParams { spreading_power: f64::NAN, ..Default::default() },
        ] {
            assert!(appleseed(&g, s, &params).is_err());
        }
        assert!(matches!(
            appleseed(&g, AgentId::from_index(5), &AppleseedParams::default()),
            Err(TrustError::UnknownAgent(5))
        ));
    }

    #[test]
    fn deterministic_across_runs() {
        let (g, ids) = chain_graph();
        let a = appleseed(&g, ids[0], &AppleseedParams::default()).unwrap();
        let b = appleseed(&g, ids[0], &AppleseedParams::default()).unwrap();
        assert_eq!(a.ranks, b.ranks);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn top_m_selection() {
        let (g, ids) = chain_graph();
        let res = appleseed(&g, ids[0], &AppleseedParams::default()).unwrap();
        assert_eq!(res.top(2).len(), 2);
        assert_eq!(res.top(100).len(), res.ranks.len());
        assert!(res.top(2)[0].1 >= res.top(2)[1].1);
    }
}
