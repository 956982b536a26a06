//! Arena-layout properties: for *any* random trust network the CSR form
//! must mirror the adjacency-list graph edge for edge and answer
//! Appleseed bit-identically; for *any* random rating churn the slab
//! store's incremental `advance` must land on the exact slab a fresh
//! build produces; and for *any* random crawled world the v2 arena
//! snapshot must round-trip to a model byte-identical to the v1
//! per-record path.

use std::collections::HashSet;

use proptest::prelude::*;
use semrec::core::{Community, ProfileStore, Recommender, RecommenderConfig};
use semrec::store::{decode_v2, encode_v2, sniff_version, Checkpoint, SNAPSHOT_V2};
use semrec::taxonomy::fixtures::example1;
use semrec::trust::appleseed::{appleseed, AppleseedParams};
use semrec::trust::CsrGraph;
use semrec::web::crawler::{crawl, CommunityBuilder, CrawlConfig};
use semrec::web::publish::publish_community;
use semrec::web::store::DocumentWeb;
use semrec::{AgentId, ProductId};

/// Builds a community over the Example 1 world from generated edge/rating
/// lists (indexes taken modulo the population).
fn build(
    n_agents: usize,
    trust: &[(usize, usize, f64)],
    ratings: &[(usize, usize, f64)],
) -> Community {
    let e = example1();
    let mut c = Community::new(e.fig.taxonomy, e.catalog);
    let agents: Vec<AgentId> = (0..n_agents)
        .map(|i| c.add_agent(format!("http://ex.org/u{i}")).unwrap())
        .collect();
    for &(a, b, w) in trust {
        let (a, b) = (a % n_agents, b % n_agents);
        if a != b {
            c.trust.set_trust(agents[a], agents[b], w).unwrap();
        }
    }
    let m = c.catalog.len();
    for &(a, p, r) in ratings {
        c.set_rating(agents[a % n_agents], ProductId::from_index(p % m), r).unwrap();
    }
    c
}

/// Bit-exact rendering of one agent's rating list.
fn ratings_bits(c: &Community, a: AgentId) -> Vec<(usize, u64)> {
    c.ratings_of(a).iter().map(|&(p, r)| (p.index(), r.to_bits())).collect()
}

type World = (usize, Vec<(usize, usize, f64)>, Vec<(usize, usize, f64)>);

fn arb_world() -> impl Strategy<Value = World> {
    (3usize..12).prop_flat_map(|n| {
        (
            Just(n),
            prop::collection::vec((0..n, 0..n, -1.0f64..=1.0), 0..32),
            prop::collection::vec((0..n, 0usize..4, -1.0f64..=1.0), 0..32),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The CSR form is the adjacency-list graph: same counts, same edges
    /// in the same order with bit-identical weights, same reverse edges,
    /// and both conversions (`from_graph`/`to_graph`, `arenas`/
    /// `from_parts`) are lossless.
    #[test]
    fn csr_graph_mirrors_trust_graph((n, trust, ratings) in arb_world()) {
        let c = build(n, &trust, &ratings);
        let graph = &c.trust;
        let csr = CsrGraph::from_graph(graph);

        prop_assert_eq!(csr.agent_count(), graph.agent_count());
        prop_assert_eq!(csr.edge_count(), graph.edge_count());
        for a in c.agents() {
            let list: Vec<(AgentId, u64)> =
                graph.out_edges(a).iter().map(|&(t, w)| (t, w.to_bits())).collect();
            let flat: Vec<(AgentId, u64)> =
                csr.out_edges(a).map(|(t, w)| (t, w.to_bits())).collect();
            prop_assert_eq!(flat, list);
            let trusters: Vec<u32> =
                graph.trusters_of(a).iter().map(|t| t.index() as u32).collect();
            prop_assert_eq!(csr.trusters_of(a), &trusters[..]);
            for &(t, w) in graph.out_edges(a) {
                prop_assert_eq!(csr.trust(a, t).map(f64::to_bits), Some(w.to_bits()));
            }
        }

        let round = CsrGraph::from_graph(&csr.to_graph());
        prop_assert_eq!(round.arenas(), csr.arenas());
        let (oo, ot, ow, io, is) = csr.arenas();
        let reparsed = CsrGraph::from_parts(
            oo.to_vec(), ot.to_vec(), ow.to_vec(), io.to_vec(), is.to_vec(),
        ).expect("own arenas validate");
        prop_assert_eq!(reparsed.arenas(), csr.arenas());
    }

    /// Appleseed over the CSR arenas is bit-identical to Appleseed over
    /// the adjacency list, from every source in the network.
    #[test]
    fn appleseed_csr_is_bit_identical((n, trust, ratings) in arb_world()) {
        let c = build(n, &trust, &ratings);
        let csr = CsrGraph::from_graph(&c.trust);
        let params = AppleseedParams::default();
        for source in c.agents() {
            let g = appleseed(&c.trust, source, &params).expect("converges");
            let f = appleseed(&csr, source, &params).expect("converges");
            prop_assert_eq!(g.iterations, f.iterations);
            prop_assert_eq!(g.converged, f.converged);
            prop_assert_eq!(g.ranks.len(), f.ranks.len());
            for (&(ga, gr), &(fa, fr)) in g.ranks.iter().zip(&f.ranks) {
                prop_assert_eq!(ga, fa);
                prop_assert_eq!(gr.to_bits(), fr.to_bits());
            }
        }
    }

    /// Incremental slab advance ≡ fresh build: whatever the rating churn
    /// between two generations, advancing with a sound dirty set produces
    /// a profile slab bit-identical to building from scratch — reused
    /// ranges included.
    #[test]
    fn slab_advance_equals_fresh_build(
        (n, trust, ratings) in arb_world(),
        next_ratings in prop::collection::vec(
            (0usize..12, 0usize..4, -1.0f64..=1.0), 0..32),
        extra_agents in 0usize..4,
    ) {
        let prev = build(n, &trust, &ratings);
        let next = build(n + extra_agents, &trust, &next_ratings);
        let config = RecommenderConfig::default();
        let prev_store = ProfileStore::build(&prev, &config.profile);

        // A sound dirty set: every URI present in both generations whose
        // rating list changed. Agents new to `next` are recomputed fresh
        // regardless of the set.
        let mut dirty: HashSet<&str> = HashSet::new();
        for a in next.agents() {
            let uri = &next.agent(a).unwrap().uri;
            match prev.agent_by_uri(uri) {
                Some(old) if ratings_bits(&prev, old) == ratings_bits(&next, a) => {}
                _ => { dirty.insert(uri.as_str()); }
            }
        }

        let (advanced, stats) = prev_store.advance(&prev, &next, &dirty);
        let fresh = ProfileStore::build(&next, &config.profile);

        prop_assert_eq!(stats.reused + stats.recomputed, next.agent_count());
        let (ao, at, asc) = advanced.slab().arenas();
        let (fo, ft, fsc) = fresh.slab().arenas();
        prop_assert_eq!(ao, fo);
        prop_assert_eq!(at, ft);
        let a_bits: Vec<u64> = asc.iter().map(|s| s.to_bits()).collect();
        let f_bits: Vec<u64> = fsc.iter().map(|s| s.to_bits()).collect();
        prop_assert_eq!(a_bits, f_bits);
    }

    /// v2 arena snapshots round-trip any crawled world to a model
    /// byte-identical to the v1 per-record restore path.
    #[test]
    fn v2_snapshot_round_trips_any_world(
        (n, trust, ratings) in arb_world(),
        epoch in 1u64..100,
    ) {
        let source = build(n, &trust, &ratings);
        let web = DocumentWeb::new();
        publish_community(&source, &web);
        let seeds: Vec<String> =
            source.agents().map(|a| source.agent(a).unwrap().uri.clone()).collect();
        let crawled = crawl(&web, &seeds, &CrawlConfig::default());
        let builder = CommunityBuilder::new(&crawled.agents);
        let (community, _) = builder.build(source.taxonomy.clone(), source.catalog.clone());
        let engine = Recommender::new(community, RecommenderConfig::default());

        let v2 = encode_v2(&engine, builder.agents(), epoch);
        prop_assert_eq!(sniff_version(&v2), Some(SNAPSHOT_V2));
        let restored = decode_v2(&v2).expect("own encoding decodes");
        let v1 = Checkpoint::capture(&engine, builder.agents(), epoch).encode();
        let from_v1 = Checkpoint::decode(&v1).unwrap().restore().unwrap();

        prop_assert_eq!(restored.epoch, epoch);
        prop_assert_eq!(&restored.view, builder.agents());
        for a in engine.community().agents() {
            let live: Vec<(ProductId, u64)> = engine.recommend(a, 10).unwrap()
                .into_iter().map(|r| (r.product, r.score.to_bits())).collect();
            let v2r: Vec<(ProductId, u64)> = restored.engine.recommend(a, 10).unwrap()
                .into_iter().map(|r| (r.product, r.score.to_bits())).collect();
            let v1r: Vec<(ProductId, u64)> = from_v1.engine.recommend(a, 10).unwrap()
                .into_iter().map(|r| (r.product, r.score.to_bits())).collect();
            prop_assert_eq!(&v2r, &live);
            prop_assert_eq!(&v1r, &live);
        }
    }
}
