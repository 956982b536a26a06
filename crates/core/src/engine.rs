//! The unified recommender pipeline (§3): trust neighborhood formation →
//! similarity-based filtering → rank synthesization → recommendation
//! generation.
//!
//! All computation is *local to one given user* (§2): the engine never
//! compares the target against the whole community, only against the
//! bounded trust neighborhood — the scalability answer of §3.2.

use std::sync::Arc;

use semrec_profiles::generation::ProfileParams;
use semrec_trust::neighborhood::{form_neighborhood, NeighborhoodParams};
use semrec_trust::{AgentId, CsrGraph};

use crate::error::Result;
use crate::health::SourceHealth;
use crate::model::Community;
use crate::profiles::{ProfileStore, SimilarityMeasure};
use crate::rank::{RankContext, RankedPeer, SharedRanker, SimilarityRanker};
use crate::recommend::{novel_only, vote, Recommendation, VotingParams};
use crate::synthesis::{PeerScores, SynthesisStrategy};

/// Full configuration of the recommendation pipeline.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecommenderConfig {
    /// Trust neighborhood formation (§3.2).
    pub neighborhood: NeighborhoodParams,
    /// Profile generation (§3.3, Eq. 3).
    pub profile: ProfileParams,
    /// Similarity measure over profiles (§3.3).
    pub similarity: SimilarityMeasure,
    /// Rank synthesization strategy (§3.4).
    pub synthesis: SynthesisStrategy,
    /// Voting scheme (§3.4).
    pub voting: VotingParams,
    /// Restrict output to §3.4's novelty scheme (untouched categories only).
    pub novel_categories_only: bool,
}

/// Diagnostic detail of one pipeline run, returned by
/// [`Recommender::recommend_traced`].
///
/// The same values also accumulate in the global metrics registry as the
/// `engine.*` counters (see `semrec-obs`), summed over every run; this
/// struct is the per-run view, so it stays exact under concurrency.
#[derive(Clone, Debug)]
pub struct PipelineTrace {
    /// Neighborhood size after trust filtering.
    pub neighborhood_size: usize,
    /// Trust metric iterations.
    pub trust_iterations: usize,
    /// Nodes the trust metric explored.
    pub nodes_explored: usize,
    /// Peers surviving rank synthesization with positive weight.
    pub effective_peers: usize,
}

impl PipelineTrace {
    /// Adds this run to a registry's cumulative counters (`engine.runs`,
    /// `engine.trust_iterations`, `engine.nodes_explored`,
    /// `engine.effective_peers`).
    fn publish(&self, registry: &semrec_obs::MetricsRegistry) {
        registry.counter("engine.runs").inc();
        registry.counter("engine.trust_iterations").add(self.trust_iterations as u64);
        registry.counter("engine.nodes_explored").add(self.nodes_explored as u64);
        registry.counter("engine.effective_peers").add(self.effective_peers as u64);
    }
}

/// The immutable model state behind a [`Recommender`]: community,
/// materialized profiles, configuration, and source health, bundled in one
/// allocation so serving layers can share it across worker threads via a
/// cheap `Arc` clone (see `semrec-serve`).
///
/// Once built the struct is never mutated — every pipeline stage reads it
/// through `&self` — which is what makes a hot snapshot swap safe: readers
/// pin the `Arc` they started with and the old model drops when the last
/// reader finishes.
#[derive(Clone, Debug)]
pub struct SharedModel {
    community: Community,
    /// Flat CSR mirror of `community.trust`, built once per model
    /// generation so every query's Appleseed walk runs over contiguous
    /// arenas instead of per-agent adjacency `Vec`s.
    trust_csr: CsrGraph,
    profiles: ProfileStore,
    config: RecommenderConfig,
    source_health: SourceHealth,
    ranker: SharedRanker,
}

impl SharedModel {
    /// Builds the model state, materializing every agent's profile once.
    /// Ranking uses the default [`SimilarityRanker`]; see
    /// [`SharedModel::with_ranker`] for a custom rank synthesization stage.
    pub fn new(community: Community, config: RecommenderConfig) -> Self {
        SharedModel::with_ranker(community, config, Arc::new(SimilarityRanker))
    }

    /// Like [`SharedModel::new`], with an explicit rank synthesization
    /// stage. The ranker travels with the model, so serving layers swap it
    /// with the same epoch publish that swaps models.
    pub fn with_ranker(
        community: Community,
        config: RecommenderConfig,
        ranker: SharedRanker,
    ) -> Self {
        let profiles = ProfileStore::build(&community, &config.profile);
        let trust_csr = CsrGraph::from_graph(&community.trust);
        let model = SharedModel {
            community,
            trust_csr,
            profiles,
            config,
            source_health: SourceHealth::default(),
            ranker,
        };
        model.publish_resident_bytes();
        model
    }

    /// Publishes the `model.bytes*` gauges: resident bytes of the flat
    /// model arenas (trust CSR + profile slab), refreshed on every model
    /// build or advance.
    fn publish_resident_bytes(&self) {
        let trust = self.trust_csr.resident_bytes();
        let profiles = self.profiles.resident_bytes();
        semrec_obs::gauge("model.bytes.trust_csr").set(trust as f64);
        semrec_obs::gauge("model.bytes.profile_slab").set(profiles as f64);
        semrec_obs::gauge("model.bytes").set((trust + profiles) as f64);
    }

    /// The flat CSR mirror of the community's trust graph.
    pub fn trust_csr(&self) -> &CsrGraph {
        &self.trust_csr
    }

    /// Bytes of resident flat-arena model storage (trust CSR plus profile
    /// slab).
    pub fn resident_bytes(&self) -> usize {
        self.trust_csr.resident_bytes() + self.profiles.resident_bytes()
    }

    /// The underlying community.
    pub fn community(&self) -> &Community {
        &self.community
    }

    /// The materialized profile store.
    pub fn profiles(&self) -> &ProfileStore {
        &self.profiles
    }

    /// The active configuration.
    pub fn config(&self) -> &RecommenderConfig {
        &self.config
    }

    /// The health of the source this community was assembled from.
    pub fn source_health(&self) -> &SourceHealth {
        &self.source_health
    }

    /// The active rank synthesization stage.
    pub fn ranker(&self) -> &SharedRanker {
        &self.ranker
    }

    /// Reassembles a model from explicitly supplied parts, e.g. as
    /// deserialized from a durable checkpoint (see `semrec-store`).
    ///
    /// Unlike [`SharedModel::new`] the profile store is *not* recomputed —
    /// the caller asserts that `profiles` is exactly what
    /// [`ProfileStore::build`] would produce for `community` under
    /// `config.profile`. Persistence round-trip tests prove that a model
    /// rebuilt this way answers every query byte-identically to the model
    /// it was captured from.
    ///
    /// Rankers are code, not data — checkpoints do not carry them — so the
    /// reassembled model ranks with the default [`SimilarityRanker`];
    /// attach a custom stage afterwards via [`Recommender::using_ranker`].
    pub fn from_parts(
        community: Community,
        profiles: ProfileStore,
        config: RecommenderConfig,
        source_health: SourceHealth,
    ) -> Self {
        debug_assert_eq!(
            profiles.len(),
            community.agent_count(),
            "one profile per agent, in agent-id order"
        );
        let trust_csr = CsrGraph::from_graph(&community.trust);
        SharedModel::from_parts_with_trust_csr(community, profiles, config, source_health, trust_csr)
    }

    /// [`SharedModel::from_parts`] for callers that already hold the trust
    /// CSR (the snapshot-v2 loader decodes it straight off disk), skipping
    /// the re-derivation from the adjacency graph.
    ///
    /// The caller asserts `trust_csr` is exactly what
    /// [`CsrGraph::from_graph`] would produce for `community.trust` —
    /// checked in debug builds.
    pub fn from_parts_with_trust_csr(
        community: Community,
        profiles: ProfileStore,
        config: RecommenderConfig,
        source_health: SourceHealth,
        trust_csr: CsrGraph,
    ) -> Self {
        debug_assert_eq!(
            profiles.len(),
            community.agent_count(),
            "one profile per agent, in agent-id order"
        );
        debug_assert!(
            {
                let derived = CsrGraph::from_graph(&community.trust);
                trust_csr.arenas() == derived.arenas()
            },
            "trust CSR must match the community's adjacency graph"
        );
        let model = SharedModel {
            community,
            trust_csr,
            profiles,
            config,
            source_health,
            ranker: Arc::new(SimilarityRanker),
        };
        model.publish_resident_bytes();
        model
    }

    /// Produces the next model generation from `next` incrementally:
    /// profiles of agents outside `delta` are shared with this generation
    /// by `Arc` clone, only dirty ones are recomputed — O(delta) profile
    /// work instead of a full [`SharedModel::new`] rebuild.
    ///
    /// Byte-identity contract: given a sound `delta` (every URI whose
    /// rating set differs is listed in `ratings_changed`), the returned
    /// model answers every query byte-identically to
    /// `SharedModel::new(next, *self.config())` with the same health
    /// attached — which is what lets the serving layer carry clean cache
    /// entries across the swap.
    ///
    /// Bumps the `model.profiles.reused` / `model.profiles.recomputed`
    /// counters.
    pub fn advance(
        &self,
        next: Community,
        delta: &crate::delta::ModelDelta,
        source_health: SourceHealth,
    ) -> (SharedModel, crate::delta::AdvanceStats) {
        let _span = semrec_obs::span("model.advance");
        let dirty: std::collections::HashSet<&str> =
            delta.ratings_changed.iter().map(String::as_str).collect();
        let (profiles, stats) = self.profiles.advance(&self.community, &next, &dirty);
        semrec_obs::counter("model.profiles.reused").add(stats.reused as u64);
        semrec_obs::counter("model.profiles.recomputed").add(stats.recomputed as u64);
        let trust_csr = CsrGraph::from_graph(&next.trust);
        let model = SharedModel {
            community: next,
            trust_csr,
            profiles,
            config: self.config,
            source_health,
            ranker: Arc::clone(&self.ranker),
        };
        model.publish_resident_bytes();
        (model, stats)
    }
}

/// The recommender engine: a community plus materialized profiles.
///
/// Internally just an `Arc<SharedModel>`, so cloning a `Recommender` (or
/// sharing one across threads) costs a reference count, not a profile
/// rebuild. All query methods take `&self` and never mutate the model.
#[derive(Clone, Debug)]
pub struct Recommender {
    model: Arc<SharedModel>,
}

impl Recommender {
    /// Builds the engine, materializing every agent's profile once. The
    /// community is assumed fully sourced; use
    /// [`Recommender::with_source_health`] when it came from a crawl that
    /// lost documents.
    pub fn new(community: Community, config: RecommenderConfig) -> Self {
        Recommender { model: Arc::new(SharedModel::new(community, config)) }
    }

    /// Like [`Recommender::new`], with an explicit rank synthesization
    /// stage (see [`crate::rank::Ranker`]).
    pub fn with_ranker(
        community: Community,
        config: RecommenderConfig,
        ranker: SharedRanker,
    ) -> Self {
        Recommender { model: Arc::new(SharedModel::with_ranker(community, config, ranker)) }
    }

    /// Wraps an already-shared model without copying it.
    pub fn from_shared(model: Arc<SharedModel>) -> Self {
        Recommender { model }
    }

    /// A shared handle to the immutable model state (cheap `Arc` clone).
    pub fn shared(&self) -> Arc<SharedModel> {
        Arc::clone(&self.model)
    }

    /// Attaches the [`SourceHealth`] of the crawl that assembled this
    /// community, so degraded runs are flagged in traces and explanations.
    /// Copy-on-write: if the model is currently shared, it is cloned first.
    pub fn with_source_health(mut self, health: SourceHealth) -> Self {
        Arc::make_mut(&mut self.model).source_health = health;
        self
    }

    /// Replaces the rank synthesization stage. Copy-on-write like
    /// [`Recommender::with_source_health`]: a shared model is cloned first,
    /// so other owners keep ranking with the stage they pinned. Profiles
    /// are *not* rebuilt — the ranker is downstream of them.
    pub fn using_ranker(mut self, ranker: SharedRanker) -> Self {
        Arc::make_mut(&mut self.model).ranker = ranker;
        self
    }

    /// The active rank synthesization stage.
    pub fn ranker(&self) -> &SharedRanker {
        self.model.ranker()
    }

    /// The health of the source this community was assembled from.
    pub fn source_health(&self) -> &SourceHealth {
        self.model.source_health()
    }

    /// The underlying community.
    pub fn community(&self) -> &Community {
        self.model.community()
    }

    /// The materialized profile store.
    pub fn profiles(&self) -> &ProfileStore {
        self.model.profiles()
    }

    /// The active configuration.
    pub fn config(&self) -> &RecommenderConfig {
        self.model.config()
    }

    /// Incrementally derives the engine for the next community generation —
    /// see [`SharedModel::advance`].
    pub fn advance(
        &self,
        next: Community,
        delta: &crate::delta::ModelDelta,
        source_health: SourceHealth,
    ) -> (Recommender, crate::delta::AdvanceStats) {
        let (model, stats) = self.model.advance(next, delta, source_health);
        (Recommender { model: Arc::new(model) }, stats)
    }

    /// Runs the §3.2 + §3.3 + §3.4 front half of the pipeline through the
    /// model's [`crate::rank::Ranker`], returning each peer's final weight together with
    /// its per-component decomposition.
    pub fn rank_peers(&self, target: AgentId) -> Result<(Vec<RankedPeer>, PipelineTrace)> {
        let model = &*self.model;
        let neighborhood = {
            let _stage = semrec_obs::span("engine.stage.neighborhood");
            form_neighborhood(&model.trust_csr, target, &model.config.neighborhood)?
        };
        let peers: Vec<PeerScores> = {
            let _stage = semrec_obs::span("engine.stage.profiles");
            let target_profile = model.profiles.profile(target);
            neighborhood
                .normalized()
                .into_iter()
                .map(|(agent, trust)| PeerScores {
                    agent,
                    trust,
                    similarity: model
                        .config
                        .similarity
                        .apply(target_profile, model.profiles.profile(agent)),
                })
                .collect()
        };
        let ranked = {
            let _stage = semrec_obs::span("engine.stage.synthesis");
            let ctx = RankContext {
                target,
                neighborhood: &neighborhood,
                peers: &peers,
                community: &model.community,
                profiles: &model.profiles,
                config: &model.config,
            };
            model.ranker.rank(&ctx)
        };
        let trace = PipelineTrace {
            neighborhood_size: neighborhood.peers.len(),
            trust_iterations: neighborhood.iterations,
            nodes_explored: neighborhood.nodes_explored,
            effective_peers: ranked.len(),
        };
        trace.publish(semrec_obs::global());
        Ok((ranked, trace))
    }

    /// Computes the synthesized peer weights for a target agent — the
    /// weight-only view of [`Recommender::rank_peers`].
    pub fn peer_weights(&self, target: AgentId) -> Result<(Vec<(AgentId, f64)>, PipelineTrace)> {
        let (ranked, trace) = self.rank_peers(target)?;
        Ok((ranked.into_iter().map(|p| (p.agent, p.weight)).collect(), trace))
    }

    /// Produces the top-`n` recommendations for a target agent.
    pub fn recommend(&self, target: AgentId, n: usize) -> Result<Vec<Recommendation>> {
        Ok(self.recommend_traced(target, n)?.0)
    }

    /// Like [`Recommender::recommend`], also returning pipeline diagnostics.
    pub fn recommend_traced(
        &self,
        target: AgentId,
        n: usize,
    ) -> Result<(Vec<Recommendation>, PipelineTrace)> {
        if self.model.source_health.is_degraded() {
            // The run proceeds on the reachable subset; the registry keeps
            // score so `--metrics` dumps surface it.
            semrec_obs::counter("engine.degraded_runs").inc();
        }
        let (weighted, trace) = self.peer_weights(target)?;
        let model = &*self.model;
        let recs = {
            let _stage = semrec_obs::span("engine.stage.voting");
            let mut recs = vote(&model.community, target, &weighted, &model.config.voting);
            if model.config.novel_categories_only {
                recs = novel_only(&model.community, model.profiles.profile(target), recs);
            }
            recs.truncate(n);
            recs
        };
        Ok((recs, trace))
    }
}

// Compile-time guarantee that serving workers can share the model state
// across threads: if a non-Send/Sync field ever sneaks into the model, this
// fails to build rather than failing at a `thread::spawn` call site.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SharedModel>();
    assert_send_sync::<Recommender>();
    assert_send_sync::<Arc<SharedModel>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_taxonomy::fixtures::example1;
    use semrec_taxonomy::ProductId;

    /// A small community where trust and taste align:
    /// alice trusts bob (math reader) and dave (sci-fi reader); alice reads math.
    fn setup() -> (Recommender, Vec<AgentId>, Vec<ProductId>) {
        let e = example1();
        let products: Vec<_> = e.catalog.iter().collect();
        let mut c = Community::new(e.fig.taxonomy, e.catalog);
        let alice = c.add_agent("http://ex.org/alice").unwrap();
        let bob = c.add_agent("http://ex.org/bob").unwrap();
        let dave = c.add_agent("http://ex.org/dave").unwrap();
        let eve = c.add_agent("http://ex.org/eve").unwrap();

        c.trust.set_trust(alice, bob, 0.9).unwrap();
        c.trust.set_trust(alice, dave, 0.8).unwrap();
        // Eve is not trusted by anyone alice knows.
        c.trust.set_trust(eve, alice, 1.0).unwrap();

        // Alice reads number theory.
        c.set_rating(alice, products[1], 1.0).unwrap();
        // Bob reads math: matrix analysis.
        c.set_rating(bob, products[0], 1.0).unwrap();
        // Dave reads cyberpunk.
        c.set_rating(dave, products[2], 1.0).unwrap();
        c.set_rating(dave, products[3], 0.9).unwrap();
        // Eve pushes neuromancer hard (but is outside the trust neighborhood).
        c.set_rating(eve, products[3], 1.0).unwrap();

        let rec = Recommender::new(c, RecommenderConfig::default());
        (rec, vec![alice, bob, dave, eve], products)
    }

    #[test]
    fn recommends_only_from_the_trust_neighborhood() {
        let (rec, agents, _) = setup();
        let (weights, trace) = rec.peer_weights(agents[0]).unwrap();
        assert!(weights.iter().all(|&(p, _)| p != agents[3]), "eve must be excluded");
        assert_eq!(trace.neighborhood_size, 2);
        assert!(trace.trust_iterations > 0);
    }

    #[test]
    fn similar_taste_peers_get_heavier_votes() {
        let (rec, agents, _) = setup();
        let (weights, _) = rec.peer_weights(agents[0]).unwrap();
        let w = |a: AgentId| weights.iter().find(|&&(p, _)| p == a).map_or(0.0, |&(_, w)| w);
        // Bob shares the Mathematics branch with alice; dave does not.
        assert!(w(agents[1]) > w(agents[2]), "bob {} vs dave {}", w(agents[1]), w(agents[2]));
    }

    #[test]
    fn top_recommendation_comes_from_trusted_similar_peer() {
        let (rec, agents, products) = setup();
        let recs = rec.recommend(agents[0], 3).unwrap();
        assert!(!recs.is_empty());
        assert_eq!(recs[0].product, products[0], "matrix analysis should lead");
        // Alice's own book never appears.
        assert!(recs.iter().all(|r| r.product != products[1]));
    }

    #[test]
    fn truncation_to_n() {
        let (rec, agents, _) = setup();
        assert_eq!(rec.recommend(agents[0], 1).unwrap().len(), 1);
        assert!(rec.recommend(agents[0], 100).unwrap().len() <= 3);
    }

    #[test]
    fn novelty_mode_filters_known_branches() {
        let (rec, agents, products) = setup();
        let config = RecommenderConfig { novel_categories_only: true, ..Default::default() };
        let rec = Recommender::new(rec.community().clone(), config);
        let recs = rec.recommend(agents[0], 10).unwrap();
        // Alice knows the Mathematics branch; only sci-fi is novel.
        assert!(recs.iter().all(|r| r.product != products[0]));
        assert!(recs.iter().any(|r| r.product == products[2] || r.product == products[3]));
    }

    #[test]
    fn isolated_agent_gets_no_recommendations() {
        let (rec, _, _) = setup();
        let mut c = rec.community().clone();
        let loner = c.add_agent("http://ex.org/loner").unwrap();
        let rec = Recommender::new(c, RecommenderConfig::default());
        let (recs, trace) = rec.recommend_traced(loner, 10).unwrap();
        assert!(recs.is_empty());
        assert_eq!(trace.neighborhood_size, 0);
    }

    #[test]
    fn clones_share_the_model_allocation() {
        let (rec, agents, _) = setup();
        let clone = rec.clone();
        assert!(Arc::ptr_eq(&rec.shared(), &clone.shared()));
        // A recommender rebuilt from the shared handle answers identically.
        let rebuilt = Recommender::from_shared(rec.shared());
        assert_eq!(
            rec.recommend(agents[0], 10).unwrap(),
            rebuilt.recommend(agents[0], 10).unwrap()
        );
    }

    #[test]
    fn with_source_health_copies_on_write_when_shared() {
        let (rec, _, _) = setup();
        let shared_before = rec.shared(); // second owner forces the copy
        let degraded = rec.clone().with_source_health(SourceHealth {
            attempted: 10,
            fetched: 5,
            unreachable: 5,
            ..SourceHealth::default()
        });
        assert!(degraded.source_health().is_degraded());
        assert!(
            !shared_before.source_health().is_degraded(),
            "mutating a shared model must not leak into other owners"
        );
    }

    #[test]
    fn advance_is_byte_identical_to_a_full_rebuild() {
        let (rec, agents, products) = setup();
        let mut next = rec.community().clone();
        next.set_rating(agents[1], products[2], 0.4).unwrap();
        let delta = crate::delta::ModelDelta {
            ratings_changed: vec!["http://ex.org/bob".to_owned()],
            trust_changed: Vec::new(),
        };
        let (incremental, stats) = rec.advance(next.clone(), &delta, SourceHealth::default());
        assert_eq!(stats.recomputed, 1);
        assert_eq!(stats.reused, 3);
        let full = Recommender::new(next, *rec.config());
        for &a in &agents {
            assert_eq!(
                incremental.recommend(a, 10).unwrap(),
                full.recommend(a, 10).unwrap(),
                "incremental and full rebuild must answer identically"
            );
        }
    }

    #[test]
    fn trace_reports_effective_peers() {
        let (rec, agents, _) = setup();
        let (_, trace) = rec.recommend_traced(agents[0], 10).unwrap();
        assert!(trace.effective_peers <= trace.neighborhood_size);
        assert!(trace.effective_peers >= 1);
    }
}
