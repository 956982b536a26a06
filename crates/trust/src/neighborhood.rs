//! Trust neighborhood formation (§3.2): "the first pillar of our approach".
//!
//! A neighborhood is the *subjective* set of peers an agent relies upon for
//! recommendations: the top-ranked agents from a local group trust metric,
//! optionally thresholded. Collaborative filtering (§3.3) then runs only
//! over this set — the "intelligent prefiltering mechanism" the scalability
//! research issue of §2 calls for.

use crate::agent::AgentId;
use crate::appleseed::{appleseed, AppleseedParams, AppleseedResult, TrustTopology};
use crate::csr::CsrGraph;
use crate::error::Result;

/// How a trust neighborhood is selected from the metric's ranking.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NeighborhoodParams {
    /// Appleseed parameters for the underlying ranking.
    pub appleseed: AppleseedParams,
    /// Keep at most this many peers.
    pub max_peers: usize,
    /// Drop peers whose rank falls below this absolute threshold.
    pub min_rank: f64,
}

impl Default for NeighborhoodParams {
    fn default() -> Self {
        NeighborhoodParams {
            // Bounded exploration is what keeps the computation local
            // (§3.2: "exploring the social network within predefined ranges
            // only and allowing the neighborhood detection process to retain
            // scalability") — without these caps Appleseed would walk the
            // whole reachable component and per-query cost would grow with
            // community size (see experiment E6).
            appleseed: AppleseedParams {
                max_nodes: Some(400),
                max_range: Some(6),
                ..AppleseedParams::default()
            },
            max_peers: 50,
            min_rank: 0.0,
        }
    }
}

/// A computed trust neighborhood: peers with their trust ranks, sorted by
/// descending rank.
#[derive(Clone, Debug)]
pub struct TrustNeighborhood {
    /// The agent whose neighborhood this is.
    pub source: AgentId,
    /// `(peer, trust rank)` sorted by descending rank.
    pub peers: Vec<(AgentId, f64)>,
    /// Iterations the trust metric needed.
    pub iterations: usize,
    /// Nodes the trust metric explored.
    pub nodes_explored: usize,
}

impl TrustNeighborhood {
    /// The trust rank of a peer (0 if outside the neighborhood).
    pub fn rank_of(&self, peer: AgentId) -> f64 {
        self.peers
            .iter()
            .find(|&&(p, _)| p == peer)
            .map_or(0.0, |&(_, r)| r)
    }

    /// True if the peer made it into the neighborhood.
    pub fn contains(&self, peer: AgentId) -> bool {
        self.peers.iter().any(|&(p, _)| p == peer)
    }

    /// Selects the neighborhood from an Appleseed ranking of `source`: the
    /// first `max_peers` peers ranked above `min_rank`.
    pub fn from_ranking(
        source: AgentId,
        ranking: &AppleseedResult,
        params: &NeighborhoodParams,
    ) -> TrustNeighborhood {
        let peers = ranking
            .ranks
            .iter()
            .copied()
            .filter(|&(_, r)| r > params.min_rank)
            .take(params.max_peers)
            .collect();
        TrustNeighborhood {
            source,
            peers,
            iterations: ranking.iterations,
            nodes_explored: ranking.nodes_discovered,
        }
    }

    /// Trust ranks normalized to `[0, 1]` by the maximum rank.
    ///
    /// Used by rank synthesization (§3.4) to make trust comparable with
    /// similarity scores.
    pub fn normalized(&self) -> Vec<(AgentId, f64)> {
        let max = self.peers.first().map_or(0.0, |&(_, r)| r);
        if max <= 0.0 {
            return self.peers.clone();
        }
        self.peers.iter().map(|&(p, r)| (p, (r / max).max(0.0))).collect()
    }
}

/// Forms the trust neighborhood of `source` with Appleseed over any
/// [`TrustTopology`].
pub fn form_neighborhood<G: TrustTopology>(
    graph: &G,
    source: AgentId,
    params: &NeighborhoodParams,
) -> Result<TrustNeighborhood> {
    let result = appleseed(graph, source, &params.appleseed)?;
    Ok(TrustNeighborhood::from_ranking(source, &result, params))
}

/// [`form_neighborhood`] over a flat [`CsrGraph`], for callers that name
/// the layout.
pub fn form_neighborhood_csr(
    graph: &CsrGraph,
    source: AgentId,
    params: &NeighborhoodParams,
) -> Result<TrustNeighborhood> {
    form_neighborhood(graph, source, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TrustGraph;

    fn community() -> (TrustGraph, Vec<AgentId>) {
        let mut g = TrustGraph::with_agents(6);
        let ids: Vec<_> = g.agents().collect();
        g.set_trust(ids[0], ids[1], 1.0).unwrap();
        g.set_trust(ids[0], ids[2], 0.8).unwrap();
        g.set_trust(ids[1], ids[3], 0.9).unwrap();
        g.set_trust(ids[2], ids[4], 0.7).unwrap();
        g.set_trust(ids[3], ids[5], 0.5).unwrap();
        (g, ids)
    }

    #[test]
    fn neighborhood_is_sorted_and_capped() {
        let (g, ids) = community();
        let nb = form_neighborhood(
            &g,
            ids[0],
            &NeighborhoodParams { max_peers: 3, ..Default::default() },
        )
        .unwrap();
        assert_eq!(nb.peers.len(), 3);
        assert!(nb.peers.windows(2).all(|w| w[0].1 >= w[1].1));
        assert!(!nb.contains(ids[0]));
    }

    #[test]
    fn min_rank_threshold_prunes_weak_peers() {
        let (g, ids) = community();
        let all = form_neighborhood(&g, ids[0], &NeighborhoodParams::default()).unwrap();
        let strong = form_neighborhood(
            &g,
            ids[0],
            &NeighborhoodParams { min_rank: all.peers[1].1, ..Default::default() },
        )
        .unwrap();
        assert!(strong.peers.len() < all.peers.len());
        assert!(strong.peers.iter().all(|&(_, r)| r > all.peers[1].1));
    }

    #[test]
    fn normalization_maps_to_unit_interval() {
        let (g, ids) = community();
        let nb = form_neighborhood(&g, ids[0], &NeighborhoodParams::default()).unwrap();
        let norm = nb.normalized();
        assert!((norm[0].1 - 1.0).abs() < 1e-12);
        assert!(norm.iter().all(|&(_, r)| (0.0..=1.0).contains(&r)));
        // Order is preserved.
        let order: Vec<_> = nb.peers.iter().map(|&(p, _)| p).collect();
        let norm_order: Vec<_> = norm.iter().map(|&(p, _)| p).collect();
        assert_eq!(order, norm_order);
    }

    #[test]
    fn rank_accessors() {
        let (g, ids) = community();
        let nb = form_neighborhood(&g, ids[0], &NeighborhoodParams::default()).unwrap();
        assert!(nb.rank_of(ids[1]) > 0.0);
        assert_eq!(nb.rank_of(ids[0]), 0.0);
        assert!(nb.contains(ids[5]));
    }

    #[test]
    fn empty_neighborhood_for_isolated_agent() {
        let g = TrustGraph::with_agents(2);
        let ids: Vec<_> = g.agents().collect();
        let nb = form_neighborhood(&g, ids[0], &NeighborhoodParams::default()).unwrap();
        assert!(nb.peers.is_empty());
        assert!(nb.normalized().is_empty());
    }
}
