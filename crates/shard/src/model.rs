//! The sharded model: per-shard communities, profiles, and the
//! recommendation pipeline over the partitioned universe.
//!
//! A [`ShardedModel`] is the sharded counterpart of `semrec-core`'s
//! `SharedModel`: every agent lives on exactly one shard, which owns its
//! ratings, its outgoing trust statements, and its materialized taxonomy
//! profile. Trust spreading runs `semrec-trust`'s Appleseed kernel over a
//! cross-shard view of the shards' out-stars (the `topology` module); the
//! rest of the pipeline (normalization, rank synthesization, voting,
//! novelty filtering) mirrors the unsharded engine statement for
//! statement, keyed by stable [`GlobalId`] ordinals, so a model of any
//! shard count is byte-identical to the unsharded one.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use semrec_core::recommend::novel_only;
use semrec_core::synthesis::{synthesize, PeerScores};
use semrec_core::{
    AdvanceStats, AgentId, Community, ModelDelta, ProductId, ProfileStore, Recommendation,
    RecommenderConfig, Result,
};
use semrec_profiles::ProfileView;
use semrec_trust::appleseed::{appleseed, AppleseedResult};
use semrec_trust::{TrustError, TrustNeighborhood};

use crate::partition::{cut_edges, Directory, GlobalId, ShardFn};
use crate::topology::ShardedTopology;

/// One outgoing trust statement in a shard's merged out-star. The owning
/// shard of the trustee is the [`Directory`]'s to say.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StarEdge {
    /// The trustee's global ordinal (edges are sorted by this).
    pub global: GlobalId,
    /// Signed trust weight.
    pub weight: f64,
}

/// One partition of the agent universe: a fully self-contained local model
/// plus the boundary edges that connect it to the rest of the universe.
#[derive(Clone, Debug)]
pub struct Shard {
    /// Local community: member agents, their ratings, and trust statements
    /// between members. Cross-shard statements live only in the out-star.
    pub(crate) community: Community,
    /// Materialized profiles of the members, in local agent-id order.
    pub(crate) profiles: ProfileStore,
    /// Local index → global ordinal.
    pub(crate) globals: Vec<GlobalId>,
    /// Per-member merged out-star (local + boundary), sorted by global
    /// ordinal — the same edge order the global trust graph iterates.
    pub(crate) outstar: Vec<Vec<StarEdge>>,
    /// Number of boundary (cross-shard) edges in the out-star.
    pub(crate) boundary_out: usize,
    /// Bumped whenever the shard's model content is rebuilt.
    pub(crate) model_epoch: u64,
    /// Bumped whenever results served *from* this shard may change (its
    /// own content, or content within trust range on other shards).
    pub(crate) serve_epoch: u64,
}

impl Shard {
    /// The shard's local community.
    pub fn community(&self) -> &Community {
        &self.community
    }

    /// The shard's profile store.
    pub fn profiles(&self) -> &ProfileStore {
        &self.profiles
    }

    /// Member count.
    pub fn len(&self) -> usize {
        self.globals.len()
    }

    /// True when the shard owns no agents.
    pub fn is_empty(&self) -> bool {
        self.globals.is_empty()
    }

    /// Global ordinals of the members, in local-id order.
    pub fn globals(&self) -> &[GlobalId] {
        &self.globals
    }

    /// Boundary out-edge count.
    pub fn boundary_out_edges(&self) -> usize {
        self.boundary_out
    }

    /// Model generation of this shard.
    pub fn model_epoch(&self) -> u64 {
        self.model_epoch
    }

    /// Serve generation of this shard (see [`crate::cache`]).
    pub fn serve_epoch(&self) -> u64 {
        self.serve_epoch
    }
}

/// Timing and layout report of a full partition build.
#[derive(Clone, Debug)]
pub struct ShardBuildReport {
    /// Name of the [`ShardFn`] used.
    pub shard_fn: &'static str,
    /// Members per shard.
    pub sizes: Vec<usize>,
    /// Trust edges crossing shard boundaries.
    pub cut_edges: usize,
    /// All trust edges.
    pub total_edges: usize,
    /// Per-shard build time (community assembly + profiles + out-star).
    pub per_shard: Vec<Duration>,
    /// Wall-clock for the whole build on this machine.
    pub total: Duration,
}

impl ShardBuildReport {
    /// The modeled distributed wall-clock: the slowest single shard. With
    /// one node per shard this is what a fleet would observe, since
    /// per-shard builds are independent.
    pub fn critical_path(&self) -> Duration {
        self.per_shard.iter().max().copied().unwrap_or_default()
    }

    /// Fraction of trust edges crossing shards.
    pub fn cut_fraction(&self) -> f64 {
        if self.total_edges == 0 {
            return 0.0;
        }
        self.cut_edges as f64 / self.total_edges as f64
    }
}

/// Report of an incremental [`ShardedModel::advance`].
#[derive(Clone, Debug)]
pub struct ShardedAdvanceReport {
    /// True when membership changed and the whole universe was repartitioned.
    pub wholesale: bool,
    /// Shard indexes whose model content was rebuilt.
    pub rebuilt: Vec<usize>,
    /// Shard indexes whose serve epoch advanced (superset of `rebuilt`).
    pub serve_dirty: Vec<usize>,
    /// Per-shard refresh time (zero for untouched shards).
    pub per_shard: Vec<Duration>,
    /// Profiles recomputed across all rebuilt shards.
    pub profiles_recomputed: usize,
    /// Profiles carried by `Arc` clone across all rebuilt shards.
    pub profiles_reused: usize,
    /// Wall-clock of the whole advance on this machine.
    pub total: Duration,
}

impl ShardedAdvanceReport {
    /// The modeled distributed refresh wall-clock (slowest dirty shard).
    pub fn critical_path(&self) -> Duration {
        self.per_shard.iter().max().copied().unwrap_or_default()
    }
}

/// The partitioned agent universe.
///
/// Queries run the unsharded engine's stages over shard-owned data: one
/// Appleseed call over the cross-shard topology, then similarity,
/// synthesis and voting with each peer's profile and ratings read from
/// its owning shard. Recommendations are bit-identical to
/// `semrec-core`'s `Recommender` (default ranker) on the same community
/// and configuration, at any shard count, partitioner and thread count.
#[derive(Clone)]
pub struct ShardedModel {
    shards: Vec<Arc<Shard>>,
    directory: Directory,
    /// Global ordinal → local index on the owning shard (`u32::MAX` for
    /// agents that have been removed from the universe).
    local_of: Vec<u32>,
    config: RecommenderConfig,
    shard_fn: Arc<dyn ShardFn>,
    threads: usize,
}

impl std::fmt::Debug for ShardedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedModel")
            .field("shards", &self.shards.len())
            .field("agents", &self.directory.len())
            .field("shard_fn", &self.shard_fn.name())
            .field("threads", &self.threads)
            .finish()
    }
}

impl ShardedModel {
    /// Partitions a global community into `shards` shards and builds every
    /// per-shard model. Per-shard builds fan out over `threads` workers;
    /// the result is byte-identical for any thread count.
    pub fn partition(
        community: &Community,
        config: RecommenderConfig,
        shard_fn: Arc<dyn ShardFn>,
        shards: usize,
        threads: usize,
    ) -> (ShardedModel, ShardBuildReport) {
        assert!(shards >= 1, "at least one shard");
        let started = Instant::now();
        let _span = semrec_obs::span("shard.rebuild");

        let assignment = shard_fn.partition(community, shards);
        let (directory, local_of, members) = index_assignment(community, &assignment, shards);
        let (cut, total_edges) = cut_edges(community, &assignment);

        let dirty = HashSet::new();
        let built = fan_out_build(
            community,
            &assignment,
            &local_of,
            &members,
            &[],
            &dirty,
            &config,
            threads,
            &(0..shards).collect::<Vec<_>>(),
        );

        let mut shard_arcs = Vec::with_capacity(shards);
        let mut per_shard = Vec::with_capacity(shards);
        let mut sizes = Vec::with_capacity(shards);
        for (i, (shard, stats, elapsed)) in built.into_iter().enumerate() {
            semrec_obs::counter(&format!("shard.{i}.profiles.recomputed"))
                .add(stats.recomputed as u64);
            semrec_obs::counter(&format!("shard.{i}.profiles.reused")).add(stats.reused as u64);
            semrec_obs::histogram(&format!("shard.{i}.rebuild")).observe(elapsed.as_secs_f64());
            sizes.push(shard.len());
            per_shard.push(elapsed);
            shard_arcs.push(Arc::new(shard));
        }
        semrec_obs::gauge("shard.count").set(shards as f64);
        semrec_obs::gauge("shard.partition.cut_fraction").set(if total_edges == 0 {
            0.0
        } else {
            cut as f64 / total_edges as f64
        });

        let report = ShardBuildReport {
            shard_fn: shard_fn.name(),
            sizes,
            cut_edges: cut,
            total_edges,
            per_shard,
            total: started.elapsed(),
        };
        let model = ShardedModel {
            shards: shard_arcs,
            directory,
            local_of,
            config,
            shard_fn,
            threads,
        };
        (model, report)
    }

    /// Reassembles a model from already-built shards (used by persistence
    /// recovery). The caller guarantees `local_of` and every shard's
    /// out-star are consistent with the directory.
    pub(crate) fn from_shards(
        shards: Vec<Arc<Shard>>,
        directory: Directory,
        local_of: Vec<u32>,
        config: RecommenderConfig,
        shard_fn: Arc<dyn ShardFn>,
    ) -> ShardedModel {
        ShardedModel { shards, directory, local_of, config, shard_fn, threads: 1 }
    }

    /// Sets the compute-thread fan-out for per-shard work (builds, batch
    /// serving). Results are byte-identical for any value.
    pub fn with_threads(mut self, threads: usize) -> ShardedModel {
        self.threads = threads.max(1);
        self
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of agents in the universe.
    pub fn agent_count(&self) -> usize {
        self.directory.len()
    }

    /// A shard by index.
    pub fn shard(&self, index: usize) -> &Arc<Shard> {
        &self.shards[index]
    }

    /// The global directory.
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// The active configuration.
    pub fn config(&self) -> &RecommenderConfig {
        &self.config
    }

    /// The partitioning function.
    pub fn shard_fn(&self) -> &Arc<dyn ShardFn> {
        &self.shard_fn
    }

    /// Looks up an agent by URI.
    pub fn agent_by_uri(&self, uri: &str) -> Option<GlobalId> {
        self.directory.by_uri(uri)
    }

    /// Resolves a global ordinal to its owning shard and local id.
    fn locate(&self, agent: GlobalId) -> Result<(usize, AgentId)> {
        if agent.index() >= self.local_of.len() || self.local_of[agent.index()] == u32::MAX {
            return Err(TrustError::UnknownAgent(agent.index()).into());
        }
        let shard = self.directory.shard_of(agent) as usize;
        Ok((shard, AgentId::from_index(self.local_of[agent.index()] as usize)))
    }

    /// The materialized profile of an agent.
    pub fn profile_of(&self, agent: GlobalId) -> Result<ProfileView<'_>> {
        let (shard, local) = self.locate(agent)?;
        Ok(self.shards[shard].profiles.profile(local))
    }

    /// The cross-shard trust topology, keyed by global ordinal.
    pub(crate) fn topology(&self) -> ShardedTopology<'_> {
        ShardedTopology {
            shards: &self.shards,
            directory: &self.directory,
            local_of: &self.local_of,
        }
    }

    /// Runs `semrec-trust`'s Appleseed for `source` with the model's
    /// neighborhood parameters over the cross-shard topology. Ranked
    /// agents are keyed by global ordinal (`AgentId(i)` is `GlobalId(i)`),
    /// so the result equals the unsharded metric's bit for bit.
    ///
    /// Counts the ranked agents owned by a shard other than the source's
    /// into `shard.remote.discovered`: the out-rows a one-node-per-shard
    /// deployment would have to ship to the source's node.
    pub fn trust_ranks(&self, source: GlobalId) -> Result<AppleseedResult> {
        let (source_shard, _) = self.locate(source)?;
        let result = appleseed(
            &self.topology(),
            AgentId::from_index(source.index()),
            &self.config.neighborhood.appleseed,
        )?;
        let remote = result
            .ranks
            .iter()
            .filter(|&&(a, _)| {
                self.directory.shard_of(GlobalId(a.index() as u32)) as usize != source_shard
            })
            .count();
        semrec_obs::counter("shard.remote.discovered").add(remote as u64);
        Ok(result)
    }

    /// Synthesized `(peer, weight)` ranking for a target — the sharded
    /// counterpart of the engine's `peer_weights`.
    pub fn peer_weights(&self, target: GlobalId) -> Result<Vec<(GlobalId, f64)>> {
        let ranks = self.trust_ranks(target)?;
        let neighborhood = TrustNeighborhood::from_ranking(
            AgentId::from_index(target.index()),
            &ranks,
            &self.config.neighborhood,
        );
        let target_profile = self.profile_of(target)?;
        let scores: Vec<PeerScores> = neighborhood
            .normalized()
            .into_iter()
            .map(|(agent, trust)| {
                let (shard, local) =
                    self.locate(GlobalId(agent.index() as u32)).expect("ranked peers exist");
                PeerScores {
                    // The global ordinal doubles as the tie-break id so the
                    // synthesized order matches the unsharded engine.
                    agent,
                    trust,
                    similarity: self
                        .config
                        .similarity
                        .apply(target_profile, self.shards[shard].profiles.profile(local)),
                }
            })
            .collect();
        Ok(synthesize(self.config.synthesis, &scores)
            .into_iter()
            .map(|(agent, weight)| (GlobalId(agent.index() as u32), weight))
            .collect())
    }

    /// Produces the top-`n` recommendations for a target agent.
    pub fn recommend(&self, target: GlobalId, n: usize) -> Result<Vec<Recommendation>> {
        semrec_obs::counter("shard.serve.requests").inc();
        let weighted = self.peer_weights(target)?;
        let (target_shard, target_local) = self.locate(target)?;
        let shard = &self.shards[target_shard];
        let mut recs = self.sharded_vote(target_shard, target_local, &weighted);
        if self.config.novel_categories_only {
            recs = novel_only(&shard.community, shard.profiles.profile(target_local), recs);
        }
        recs.truncate(n);
        Ok(recs)
    }

    /// [`ShardedModel::recommend`] addressed by agent URI.
    pub fn recommend_by_uri(&self, uri: &str, n: usize) -> Result<Vec<Recommendation>> {
        let target = self
            .agent_by_uri(uri)
            .ok_or_else(|| semrec_core::CoreError::from(TrustError::UnknownAgent(usize::MAX)))?;
        self.recommend(target, n)
    }

    /// Recommends for many targets, fanning the independent queries out
    /// over the model's compute threads. Results are in `targets` order and
    /// byte-identical for any thread count.
    pub fn recommend_batch(
        &self,
        targets: &[GlobalId],
        n: usize,
    ) -> Vec<Result<Vec<Recommendation>>> {
        semrec_obs::counter("shard.batch.tasks").add(targets.len() as u64);
        if self.threads <= 1 || targets.len() <= 1 {
            return targets.iter().map(|&t| self.recommend(t, n)).collect();
        }
        let chunk = targets.len().div_ceil(self.threads);
        thread::scope(|scope| {
            let handles: Vec<_> = targets
                .chunks(chunk)
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk.iter().map(|&t| self.recommend(t, n)).collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("batch worker"))
                .collect()
        })
    }

    /// The voting stage over sharded ratings — `semrec_core::recommend::vote`
    /// with each peer's ratings looked up on its owning shard.
    fn sharded_vote(
        &self,
        target_shard: usize,
        target_local: AgentId,
        weighted: &[(GlobalId, f64)],
    ) -> Vec<Recommendation> {
        let params = &self.config.voting;
        let target_community = &self.shards[target_shard].community;
        let mut scores: HashMap<ProductId, (f64, usize)> = HashMap::new();
        for &(peer, weight) in weighted {
            if weight <= 0.0 {
                continue;
            }
            let (peer_shard, peer_local) = match self.locate(peer) {
                Ok(at) => at,
                Err(_) => continue,
            };
            for &(product, rating) in self.shards[peer_shard].community.ratings_of(peer_local) {
                if rating <= params.min_rating {
                    continue;
                }
                if target_community.rating(target_local, product).is_some() {
                    continue; // never recommend what the user already rated
                }
                let vote =
                    if params.rating_weighted_votes { weight * rating } else { weight };
                let entry = scores.entry(product).or_insert((0.0, 0));
                entry.0 += vote;
                entry.1 += 1;
            }
        }
        let mut out: Vec<Recommendation> = scores
            .into_iter()
            .filter(|&(_, (_, voters))| voters >= params.min_voters)
            .map(|(product, (score, voters))| Recommendation { product, score, voters })
            .collect();
        out.sort_by(|a, b| {
            b.score.partial_cmp(&a.score).unwrap().then(a.product.cmp(&b.product))
        });
        out
    }

    /// Advances the model to the `next` community generation, rebuilding
    /// only the shards the delta dirties. Untouched shards are shared by
    /// `Arc` clone and perform **zero** profile recomputation.
    ///
    /// A membership change (agents added or removed) falls back to a
    /// wholesale repartition, like the unsharded engine's wholesale swap.
    pub fn advance(
        &self,
        next: &Community,
        delta: &ModelDelta,
    ) -> (ShardedModel, ShardedAdvanceReport) {
        let started = Instant::now();
        let _span = semrec_obs::span("shard.refresh");
        let n_shards = self.shards.len();

        if !self.membership_stable(next) {
            semrec_obs::counter("shard.advance.wholesale").inc();
            let (mut model, build) = ShardedModel::partition(
                next,
                self.config,
                Arc::clone(&self.shard_fn),
                n_shards,
                self.threads,
            );
            model.threads = self.threads;
            // Every generation counter moves forward: all content may have
            // shifted shards, so no cache entry survives.
            for (i, shard) in model.shards.iter_mut().enumerate() {
                let shard = Arc::get_mut(shard).expect("freshly built shard is unshared");
                shard.model_epoch = self.shards[i].model_epoch + 1;
                shard.serve_epoch = self.shards[i].serve_epoch + 1;
            }
            let report = ShardedAdvanceReport {
                wholesale: true,
                rebuilt: (0..n_shards).collect(),
                serve_dirty: (0..n_shards).collect(),
                per_shard: build.per_shard,
                profiles_recomputed: self.directory.len(),
                profiles_reused: 0,
                total: started.elapsed(),
            };
            return (model, report);
        }

        // Model-dirty shards: those owning an agent the delta touched.
        let mut model_dirty = vec![false; n_shards];
        for uri in delta.ratings_changed.iter().chain(delta.trust_changed.iter()) {
            if let Some(g) = self.directory.by_uri(uri) {
                model_dirty[self.directory.shard_of(g) as usize] = true;
            }
        }
        let dirty_uris: HashSet<&str> =
            delta.ratings_changed.iter().map(String::as_str).collect();

        let rebuilt: Vec<usize> = (0..n_shards).filter(|&s| model_dirty[s]).collect();
        let mut per_shard = vec![Duration::default(); n_shards];
        let mut recomputed = 0;
        let mut reused = 0;
        let mut new_shards: Vec<Arc<Shard>> = Vec::with_capacity(n_shards);
        let assignment: Vec<u32> = (0..self.directory.len())
            .map(|i| self.directory.shard_of(GlobalId(i as u32)))
            .collect();
        for s in 0..n_shards {
            if !model_dirty[s] {
                new_shards.push(Arc::clone(&self.shards[s]));
                continue;
            }
            let shard_started = Instant::now();
            let _shard_span = semrec_obs::span(&format!("shard.{s}.refresh"));
            let (mut shard, stats, _) = build_shard(
                next,
                &assignment,
                &self.local_of,
                &self.shards[s].globals,
                Some(&self.shards[s]),
                &dirty_uris,
                &self.config,
                s as u32,
            );
            shard.model_epoch = self.shards[s].model_epoch + 1;
            shard.serve_epoch = self.shards[s].serve_epoch;
            semrec_obs::counter(&format!("shard.{s}.profiles.recomputed"))
                .add(stats.recomputed as u64);
            semrec_obs::counter(&format!("shard.{s}.profiles.reused")).add(stats.reused as u64);
            recomputed += stats.recomputed;
            reused += stats.reused;
            per_shard[s] = shard_started.elapsed();
            new_shards.push(Arc::new(shard));
        }
        semrec_obs::counter("shard.advance.shards_dirty").add(rebuilt.len() as u64);
        semrec_obs::counter("shard.advance.shards_clean")
            .add((n_shards - rebuilt.len()) as u64);

        // Serve-dirty closure: every shard that can reach a model-dirty
        // shard over boundary edges within the trust horizon — a
        // conservative shard-level superset of the agent-level reverse
        // closure (an h-hop agent path crosses at most h shard boundaries).
        let serve_dirty_flags = serve_dirty_closure(
            &new_shards,
            &self.directory,
            &model_dirty,
            self.config.neighborhood.appleseed.max_range,
        );
        let serve_dirty: Vec<usize> =
            (0..n_shards).filter(|&s| serve_dirty_flags[s]).collect();
        for &s in &serve_dirty {
            let shard = Arc::make_mut(&mut new_shards[s]);
            shard.serve_epoch = self.shards[s].serve_epoch + 1;
        }

        let model = ShardedModel {
            shards: new_shards,
            directory: self.directory.clone(),
            local_of: self.local_of.clone(),
            config: self.config,
            shard_fn: Arc::clone(&self.shard_fn),
            threads: self.threads,
        };
        let report = ShardedAdvanceReport {
            wholesale: false,
            rebuilt,
            serve_dirty,
            per_shard,
            profiles_recomputed: recomputed,
            profiles_reused: reused,
            total: started.elapsed(),
        };
        (model, report)
    }

    /// True when `next` has exactly the agents of the directory, in the
    /// same registration order.
    fn membership_stable(&self, next: &Community) -> bool {
        if next.agent_count() != self.directory.len() {
            return false;
        }
        self.directory.iter().all(|(g, uri, _)| {
            next.agent(AgentId::from_index(g.index()))
                .map(|info| info.uri == uri)
                .unwrap_or(false)
        })
    }
}

// Serving layers share the model across worker threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedModel>();
    assert_send_sync::<Arc<Shard>>();
};

/// Builds the directory, the global→local map, and per-shard member lists
/// from an assignment.
fn index_assignment(
    community: &Community,
    assignment: &[u32],
    shards: usize,
) -> (Directory, Vec<u32>, Vec<Vec<GlobalId>>) {
    let mut directory = Directory::default();
    let mut local_of = vec![u32::MAX; assignment.len()];
    let mut members: Vec<Vec<GlobalId>> = vec![Vec::new(); shards];
    for agent in community.agents() {
        let g = agent.index();
        let shard = assignment[g];
        let uri = community.agent(agent).expect("dense agent ids").uri.clone();
        let global = directory.push(uri, shard);
        local_of[g] = members[shard as usize].len() as u32;
        members[shard as usize].push(global);
    }
    (directory, local_of, members)
}

/// Builds the per-shard models for `order`, fanning out over `threads`.
/// Returns `(shard, profile stats, elapsed)` in shard-index order.
#[allow(clippy::too_many_arguments)]
fn fan_out_build(
    global: &Community,
    assignment: &[u32],
    local_of: &[u32],
    members: &[Vec<GlobalId>],
    previous: &[Arc<Shard>],
    dirty: &HashSet<&str>,
    config: &RecommenderConfig,
    threads: usize,
    order: &[usize],
) -> Vec<(Shard, AdvanceStats, Duration)> {
    let build_one = |s: usize| {
        let started = Instant::now();
        let prev = previous.get(s).map(|arc| arc.as_ref());
        let (shard, stats, _) = build_shard(
            global,
            assignment,
            local_of,
            &members[s],
            prev,
            dirty,
            config,
            s as u32,
        );
        (s, shard, stats, started.elapsed())
    };
    let mut slots: Vec<Option<(Shard, AdvanceStats, Duration)>> =
        (0..members.len()).map(|_| None).collect();
    if threads <= 1 || order.len() == 1 {
        for &s in order {
            let (s, shard, stats, elapsed) = build_one(s);
            slots[s] = Some((shard, stats, elapsed));
        }
    } else {
        let chunk = order.len().div_ceil(threads);
        let produced: Vec<Vec<(usize, Shard, AdvanceStats, Duration)>> = thread::scope(|scope| {
            let handles: Vec<_> = order
                .chunks(chunk)
                .map(|mine| scope.spawn(move || mine.iter().map(|&s| build_one(s)).collect()))
                .collect();
            handles.into_iter().map(|h| h.join().expect("build worker")).collect()
        });
        for (s, shard, stats, elapsed) in produced.into_iter().flatten() {
            slots[s] = Some((shard, stats, elapsed));
        }
    }
    slots.into_iter().map(|slot| slot.expect("every shard built")).collect()
}

/// Derives one shard's local model from the global community.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_shard(
    global: &Community,
    assignment: &[u32],
    local_of: &[u32],
    members: &[GlobalId],
    previous: Option<&Shard>,
    dirty: &HashSet<&str>,
    config: &RecommenderConfig,
    me: u32,
) -> (Shard, AdvanceStats, usize) {
    let mut community = Community::new(global.taxonomy.clone(), global.catalog.clone());
    for &g in members {
        let uri = &global.agent(AgentId::from_index(g.index())).expect("member exists").uri;
        community.add_agent(uri.clone()).expect("unique member URIs");
    }
    let mut outstar: Vec<Vec<StarEdge>> = Vec::with_capacity(members.len());
    let mut boundary_out = 0;
    for (local_idx, &g) in members.iter().enumerate() {
        let global_id = AgentId::from_index(g.index());
        let local_id = AgentId::from_index(local_idx);
        for &(product, rating) in global.ratings_of(global_id) {
            community.set_rating(local_id, product, rating).expect("valid copied rating");
        }
        let mut star = Vec::new();
        for &(trustee, weight) in global.trust.out_edges(global_id) {
            let t = trustee.index();
            if assignment[t] == me {
                let trustee_local = AgentId::from_index(local_of[t] as usize);
                community
                    .trust
                    .set_trust(local_id, trustee_local, weight)
                    .expect("valid copied trust edge");
            } else {
                boundary_out += 1;
            }
            star.push(StarEdge { global: GlobalId(t as u32), weight });
        }
        outstar.push(star);
    }
    let (profiles, stats) = match previous {
        Some(prev) => prev.profiles.advance(&prev.community, &community, dirty),
        None => {
            let profiles = ProfileStore::build(&community, &config.profile);
            let stats = AdvanceStats { recomputed: members.len(), reused: 0 };
            (profiles, stats)
        }
    };
    let shard = Shard {
        community,
        profiles,
        globals: members.to_vec(),
        outstar,
        boundary_out,
        model_epoch: 0,
        serve_epoch: 0,
    };
    (shard, stats, boundary_out)
}

/// Reverse BFS over the shard boundary graph: which shards can reach a
/// model-dirty shard within `horizon` boundary hops (every shard reaches
/// itself in zero hops)?
fn serve_dirty_closure(
    shards: &[Arc<Shard>],
    directory: &Directory,
    model_dirty: &[bool],
    horizon: Option<u32>,
) -> Vec<bool> {
    let n = shards.len();
    // reachers[t] = shards with a boundary edge into t.
    let mut reachers: Vec<HashSet<usize>> = vec![HashSet::new(); n];
    for (s, shard) in shards.iter().enumerate() {
        for star in &shard.outstar {
            for edge in star {
                let t = directory.shard_of(edge.global) as usize;
                if t != s {
                    reachers[t].insert(s);
                }
            }
        }
    }
    let mut dirty: Vec<bool> = model_dirty.to_vec();
    let mut frontier: Vec<usize> = (0..n).filter(|&s| dirty[s]).collect();
    let depth_limit = horizon.map(|h| h as usize).unwrap_or(n);
    let mut depth = 0;
    while !frontier.is_empty() && depth < depth_limit {
        let mut next = Vec::new();
        for &t in &frontier {
            let mut sources: Vec<usize> = reachers[t].iter().copied().collect();
            sources.sort_unstable();
            for s in sources {
                if !dirty[s] {
                    dirty[s] = true;
                    next.push(s);
                }
            }
        }
        frontier = next;
        depth += 1;
    }
    dirty
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::HashShardFn;
    use semrec_taxonomy::fixtures::example1;

    fn world() -> Community {
        let e = example1();
        let products: Vec<ProductId> = e.catalog.iter().collect();
        let mut c = Community::new(e.fig.taxonomy, e.catalog);
        let ids: Vec<AgentId> = (0..12)
            .map(|i| c.add_agent(format!("http://shard.example.org/{i}#me")).unwrap())
            .collect();
        for (i, &a) in ids.iter().enumerate() {
            c.set_rating(a, products[i % products.len()], 0.9).unwrap();
            c.trust.set_trust(a, ids[(i + 1) % ids.len()], 1.0).unwrap();
            c.trust.set_trust(a, ids[(i + 5) % ids.len()], 0.6).unwrap();
        }
        c
    }

    #[test]
    fn partition_preserves_every_agent_and_edge() {
        let c = world();
        let (model, report) = ShardedModel::partition(
            &c,
            RecommenderConfig::default(),
            Arc::new(HashShardFn),
            3,
            1,
        );
        assert_eq!(model.agent_count(), 12);
        assert_eq!(report.sizes.iter().sum::<usize>(), 12);
        let total_star: usize =
            (0..3).map(|s| model.shard(s).outstar.iter().map(Vec::len).sum::<usize>()).sum();
        assert_eq!(total_star, report.total_edges);
        let boundary: usize = (0..3).map(|s| model.shard(s).boundary_out_edges()).sum();
        assert_eq!(boundary, report.cut_edges);
    }

    #[test]
    fn outstar_is_sorted_by_global_ordinal() {
        let c = world();
        let (model, _) = ShardedModel::partition(
            &c,
            RecommenderConfig::default(),
            Arc::new(HashShardFn),
            4,
            1,
        );
        for s in 0..4 {
            for star in &model.shard(s).outstar {
                assert!(star.windows(2).all(|w| w[0].global < w[1].global));
            }
        }
    }

    #[test]
    fn recommend_runs_on_every_shard_count() {
        let c = world();
        for shards in [1, 2, 3] {
            let (model, _) = ShardedModel::partition(
                &c,
                RecommenderConfig::default(),
                Arc::new(HashShardFn),
                shards,
                1,
            );
            let recs = model.recommend(GlobalId(0), 5).unwrap();
            assert!(recs.len() <= 5);
        }
    }

    #[test]
    fn empty_delta_advance_shares_every_shard() {
        let c = world();
        let (model, _) = ShardedModel::partition(
            &c,
            RecommenderConfig::default(),
            Arc::new(HashShardFn),
            3,
            1,
        );
        let (next, report) = model.advance(&c, &ModelDelta::default());
        assert!(!report.wholesale);
        assert!(report.rebuilt.is_empty());
        assert_eq!(report.profiles_recomputed, 0);
        for s in 0..3 {
            assert!(Arc::ptr_eq(model.shard(s), next.shard(s)));
        }
    }
}
