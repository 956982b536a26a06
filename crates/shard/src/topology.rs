//! The cross-shard trust topology: a read-only view that lets
//! `semrec-trust`'s Appleseed kernel walk the partitioned universe.
//!
//! Agents are addressed by global ordinal (the view's `AgentId(i)` is
//! `GlobalId(i)`), and an agent's out-edges are its owning shard's merged
//! out-star. Each out-star is the global graph's out-edge list in the same
//! trustee order and global ordinals equal the unsharded `AgentId`s, so the
//! kernel performs the same floating-point operations in the same order as
//! over the unsharded graph: sharded ranks are bit-identical to unsharded
//! ones at every shard count.

use std::sync::Arc;

use semrec_trust::appleseed::TrustTopology;
use semrec_trust::AgentId;

use crate::model::{Shard, StarEdge};
use crate::partition::{Directory, GlobalId};

/// The partitioned trust graph, keyed by global ordinal.
pub(crate) struct ShardedTopology<'a> {
    pub shards: &'a [Arc<Shard>],
    pub directory: &'a Directory,
    /// Global ordinal → local index on the owning shard (`u32::MAX` for
    /// agents no longer present).
    pub local_of: &'a [u32],
}

impl ShardedTopology<'_> {
    /// The owning shard's out-star of `agent` (empty for absent agents).
    fn out_star(&self, agent: AgentId) -> &[StarEdge] {
        match self.local_of.get(agent.index()) {
            Some(&local) if local != u32::MAX => {
                let shard = self.directory.shard_of(GlobalId(agent.index() as u32));
                &self.shards[shard as usize].outstar[local as usize]
            }
            _ => &[],
        }
    }

    fn out_edges(&self, agent: AgentId) -> impl Iterator<Item = (AgentId, f64)> + '_ {
        self.out_star(agent)
            .iter()
            .map(|edge| (AgentId::from_index(edge.global.index()), edge.weight))
    }
}

impl TrustTopology for ShardedTopology<'_> {
    fn agent_count(&self) -> usize {
        self.local_of.len()
    }
    fn positive_out(&self, agent: AgentId) -> impl Iterator<Item = (AgentId, f64)> + '_ {
        self.out_edges(agent).filter(|&(_, w)| w > 0.0)
    }
    fn negative_out(&self, agent: AgentId) -> impl Iterator<Item = (AgentId, f64)> + '_ {
        self.out_edges(agent).filter(|&(_, w)| w < 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{CommunityShardFn, HashShardFn, ShardFn};
    use crate::{ShardedModel, ShardedStore};
    use semrec_core::{Community, ModelDelta, ProductId, RecommenderConfig};
    use semrec_taxonomy::fixtures::example1;
    use semrec_trust::CsrGraph;

    /// Twelve agents, each trusting two others and distrusting a third.
    fn world() -> Community {
        let e = example1();
        let products: Vec<ProductId> = e.catalog.iter().collect();
        let mut c = Community::new(e.fig.taxonomy, e.catalog);
        let ids: Vec<AgentId> = (0..12)
            .map(|i| c.add_agent(format!("http://topology.example.org/{i}#me")).unwrap())
            .collect();
        for (i, &a) in ids.iter().enumerate() {
            c.set_rating(a, products[i % products.len()], 0.8).unwrap();
            c.trust.set_trust(a, ids[(i + 1) % 12], 1.0).unwrap();
            c.trust.set_trust(a, ids[(i + 5) % 12], 0.4).unwrap();
            c.trust.set_trust(a, ids[(i + 7) % 12], -0.6).unwrap();
        }
        c
    }

    /// The view's sign-split out-edges equal the global CSR's, edge for
    /// edge and in order, for every agent.
    fn assert_matches_global(model: &ShardedModel, community: &Community, stage: &str) {
        let csr = CsrGraph::from_graph(&community.trust);
        let view = model.topology();
        assert_eq!(view.agent_count(), csr.agent_count(), "{stage}: agent count");
        for agent in community.agents() {
            let got: Vec<_> = view.positive_out(agent).collect();
            let want: Vec<_> = csr.positive_out_edges(agent).collect();
            assert_eq!(got, want, "{stage}: positive out-edges of {agent:?}");
            let got: Vec<_> = view.negative_out(agent).collect();
            let want: Vec<_> = csr.negative_out_edges(agent).collect();
            assert_eq!(got, want, "{stage}: negative out-edges of {agent:?}");
        }
    }

    #[test]
    fn view_out_edges_equal_the_global_csr() {
        let community = world();
        let shard_fns: [Arc<dyn ShardFn>; 2] =
            [Arc::new(HashShardFn), Arc::new(CommunityShardFn::default())];
        for shard_fn in shard_fns {
            let name = shard_fn.name();
            let (model, _) = ShardedModel::partition(
                &community,
                RecommenderConfig::default(),
                Arc::clone(&shard_fn),
                3,
                1,
            );
            assert_matches_global(&model, &community, &format!("{name}: partition"));

            // Re-weight one statement, distrust a new agent and drop another
            // statement: membership is stable, so only dirty shards rebuild.
            let mut next = community.clone();
            let agent = |i| AgentId::from_index(i);
            next.trust.set_trust(agent(0), agent(1), 0.3).unwrap();
            next.trust.set_trust(agent(0), agent(6), -0.9).unwrap();
            assert!(next.trust.remove_trust(agent(0), agent(5)));
            let a = agent(0);
            let uri = next.agent(a).unwrap().uri.clone();
            let (advanced, report) = model.advance(
                &next,
                &ModelDelta { ratings_changed: Vec::new(), trust_changed: vec![uri] },
            );
            assert!(!report.wholesale && !report.rebuilt.is_empty());
            assert_matches_global(&advanced, &next, &format!("{name}: advance"));

            let root = std::env::temp_dir()
                .join(format!("semrec-shard-topology-{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            let store = ShardedStore::open(&root).unwrap();
            store.checkpoint(&advanced, 1).unwrap();
            let recovered = store.recover(shard_fn).unwrap().model;
            assert_matches_global(&recovered, &next, &format!("{name}: recovery"));
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}
