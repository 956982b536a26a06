//! Sharding equivalence properties (the `semrec-shard` contract): a
//! [`ShardedModel`] is the unsharded engine. For any topology, shard count
//! (1, then 2, 4, 8), partitioner (hash, community-aware) and target —
//! under the default configuration, under a capped distrust configuration
//! whose node cap, hop range and peer cap all bind, and (for many shards)
//! under a near-fixpoint configuration with the cap lifted — trust ranks,
//! iteration counts and top-10 lists are *bit*-identical (scores compared
//! via `to_bits`), which is stricter than any epsilon. The sharded model runs the same Appleseed kernel over a
//! view of the shards' out-stars, which list every agent's out-edges in
//! the global graph's order, so the floating-point operation order is the
//! global one.

use proptest::prelude::*;
use semrec::core::{Community, Recommender, RecommenderConfig};
use semrec::shard::{CommunityShardFn, GlobalId, HashShardFn, ShardFn, ShardedModel};
use semrec::taxonomy::fixtures::example1;
use semrec::trust::appleseed::{appleseed, AppleseedParams};
use semrec::trust::neighborhood::NeighborhoodParams;
use semrec::{AgentId, ProductId};
use std::sync::Arc;

/// Builds a community; a trust statement whose sign draw is 0 (one in
/// four) is distrust.
fn build(
    n_agents: usize,
    trust: &[(usize, usize, (f64, u8))],
    ratings: &[(usize, usize, f64)],
) -> Community {
    let e = example1();
    let mut c = Community::new(e.fig.taxonomy, e.catalog);
    let agents: Vec<AgentId> = (0..n_agents)
        .map(|i| c.add_agent(format!("http://ex.org/u{i}")).unwrap())
        .collect();
    for &(a, b, (w, sign)) in trust {
        let (a, b) = (a % n_agents, b % n_agents);
        if a != b {
            let w = if sign == 0 { -w } else { w };
            c.trust.set_trust(agents[a], agents[b], w).unwrap();
        }
    }
    let m = c.catalog.len();
    for &(a, p, r) in ratings {
        c.set_rating(agents[a % n_agents], ProductId::from_index(p % m), r).unwrap();
    }
    c
}

type World = (usize, Vec<(usize, usize, (f64, u8))>, Vec<(usize, usize, f64)>);

fn arb_world() -> impl Strategy<Value = World> {
    (4usize..16).prop_flat_map(|n| {
        (
            Just(n),
            prop::collection::vec((0..n, 0..n, (0.05f64..=1.0, 0u8..4)), 2..40),
            prop::collection::vec((0..n, 0usize..4, -1.0f64..=1.0), 0..40),
        )
    })
}

/// A configuration whose caps bind on these small worlds: at most five
/// discovered nodes within three hops, four peers, distrust honored.
fn capped_config() -> RecommenderConfig {
    RecommenderConfig {
        neighborhood: NeighborhoodParams {
            appleseed: AppleseedParams {
                max_nodes: Some(5),
                max_range: Some(3),
                distrust: true,
                ..Default::default()
            },
            max_peers: 4,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The near-fixpoint configuration with no node cap, under which the
/// multi-shard comparison was first stated.
fn tight_config() -> RecommenderConfig {
    RecommenderConfig {
        neighborhood: NeighborhoodParams {
            appleseed: AppleseedParams {
                convergence: 1e-9,
                max_nodes: None,
                ..Default::default()
            },
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Asserts that `shards` shards under both partitioners reproduce the
/// unsharded engine bit for bit, for every agent as target.
fn assert_bit_identical(
    community: &Community,
    config: RecommenderConfig,
    shards: usize,
) {
    let engine = Recommender::new(community.clone(), config);
    let shard_fns: [Arc<dyn ShardFn>; 2] =
        [Arc::new(HashShardFn), Arc::new(CommunityShardFn::default())];
    for shard_fn in shard_fns {
        let name = shard_fn.name();
        let (model, _) = ShardedModel::partition(community, config, shard_fn, shards, 1);
        for agent in engine.community().agents() {
            let g = GlobalId(agent.index() as u32);
            // Trust metric: identical ranks, order, iteration count and
            // convergence flag.
            let global = appleseed(
                &engine.community().trust,
                agent,
                &config.neighborhood.appleseed,
            ).unwrap();
            let sharded = model.trust_ranks(g).unwrap();
            prop_assert_eq!(sharded.iterations, global.iterations);
            prop_assert_eq!(sharded.converged, global.converged);
            prop_assert_eq!(sharded.ranks.len(), global.ranks.len());
            for (&(sa, sr), &(ga, gr)) in sharded.ranks.iter().zip(&global.ranks) {
                prop_assert_eq!(sa, ga);
                prop_assert_eq!(
                    sr.to_bits(), gr.to_bits(),
                    "rank of {:?} at {} {} shards", ga, shards, name
                );
            }
            // Full pipeline: identical products, bit-identical scores,
            // identical voter counts.
            let want = engine.recommend(agent, 10).unwrap();
            let got = model.recommend(g, 10).unwrap();
            prop_assert_eq!(want.len(), got.len());
            for (w, s) in want.iter().zip(&got) {
                prop_assert_eq!(w.product, s.product);
                prop_assert_eq!(w.score.to_bits(), s.score.to_bits());
                prop_assert_eq!(w.voters, s.voters);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One shard, bit for bit, under both partitioners.
    #[test]
    fn single_shard_is_byte_identical_to_unsharded(
        (n, trust, ratings) in arb_world(),
    ) {
        let community = build(n, &trust, &ratings);
        for config in [RecommenderConfig::default(), capped_config()] {
            assert_bit_identical(&community, config, 1);
        }
    }

    /// Many shards: ranks and top-10 lists match the global engine — bit
    /// for bit, so within any epsilon — with the node cap lifted as first
    /// stated, and also with the default and binding caps.
    #[test]
    fn multi_shard_ranks_match_global_within_epsilon(
        (n, trust, ratings) in arb_world(),
    ) {
        let community = build(n, &trust, &ratings);
        for config in [tight_config(), RecommenderConfig::default(), capped_config()] {
            for shards in [2usize, 4, 8] {
                assert_bit_identical(&community, config, shards);
            }
        }
    }
}
