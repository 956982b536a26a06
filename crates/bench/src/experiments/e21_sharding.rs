//! **E21 — Sharded universe scaling** (`semrec-shard`): partition a large
//! synthetic community into N shards and measure how rebuild, incremental
//! refresh, and cross-shard serving scale with the shard count.
//!
//! A single machine runs the sweep, so "speed-up" is reported as
//! **critical-path efficiency**: per-shard work is timed individually and
//! the distributed wall-clock is modeled as the slowest shard — what a
//! one-node-per-shard fleet would observe, since shard builds and
//! refreshes are independent. Efficiency at N shards is
//! `T(1) / (N · max_i T_i(N))`; 1.0 is perfectly linear.
//!
//! Three sweeps per shard count:
//!
//! 1. **Rebuild** — full partition + per-shard model build.
//! 2. **Refresh** — a small rating churn spread across the whole universe;
//!    every shard is dirtied, each rebuilds only itself.
//! 3. **Serve** — a fixed query panel through Appleseed over the
//!    cross-shard topology, counting the ranked agents each query found
//!    on shards other than its target's (`shard.remote.discovered`).
//!
//! A final **localized-delta** run at the largest shard count dirties only
//! shard 0 and asserts the partitioning contract of the incremental path:
//! untouched shards recompute **zero** profiles (their `shard.<i>.
//! profiles.recomputed` counters do not move).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use semrec_core::{Community, ModelDelta, RecommenderConfig};
use semrec_datagen::catalog_gen::CatalogGenConfig;
use semrec_datagen::community::{generate_community, CommunityGenConfig};
use semrec_datagen::taxonomy_gen::TaxonomyGenConfig;
use semrec_eval::table::{fmt, Table};
use semrec_shard::{cut_edges, CommunityShardFn, GlobalId, HashShardFn, ShardFn, ShardedModel};

use crate::Scale;

/// Shape summary pinned by tests and asserted by the CI smoke job.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Universe size.
    pub agents: usize,
    /// Critical-path rebuild efficiency at the largest shard count.
    pub rebuild_efficiency: f64,
    /// Critical-path refresh efficiency at the largest shard count.
    pub refresh_efficiency: f64,
    /// Profiles recomputed on untouched shards during the localized-delta
    /// run — the incremental contract demands exactly zero.
    pub untouched_recomputed: u64,
    /// Ranked agents found on a shard other than the target's during the
    /// serve sweep at the largest shard count (zero would mean no query
    /// crossed a shard boundary).
    pub remote_discovered: u64,
}

/// Runs E21 at the given scale.
pub fn run(scale: Scale) -> Summary {
    let agents = match scale {
        Scale::Small => 20_000,
        Scale::Medium => 200_000,
        Scale::Paper => 1_000_000,
    };
    run_with(agents, 200, 13)
}

fn counters() -> BTreeMap<String, u64> {
    semrec_obs::global().snapshot().counters
}

fn counter_delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, name: &str) -> u64 {
    after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0)
}

/// A deliberately lightened generator configuration: the point is agent
/// *count*, not rating density — a million sparse agents, not twenty
/// thousand dense ones.
fn gen_config(agents: usize, seed: u64) -> CommunityGenConfig {
    CommunityGenConfig {
        agents,
        taxonomy: TaxonomyGenConfig::book_like(400, seed ^ 0xA1),
        catalog: CatalogGenConfig { products: 800, seed: seed ^ 0xB2, ..Default::default() },
        max_interests: 2,
        mean_ratings: 3.0,
        mean_trust_edges: 4.0,
        ..CommunityGenConfig::small(seed)
    }
}

/// Applies a rating flip to every agent in `targets`, returning the next
/// community and the model delta describing it.
fn churn(community: &Community, targets: &[GlobalId]) -> (Community, ModelDelta) {
    let mut next = community.clone();
    let mut uris = Vec::with_capacity(targets.len());
    for &g in targets {
        let agent = semrec_core::AgentId::from_index(g.index());
        let (product, old) = next
            .ratings_of(agent)
            .first()
            .copied()
            .unwrap_or((semrec_taxonomy::ProductId::from_index(0), 0.0));
        let fresh = if old > 0.0 { -0.4 } else { 0.6 };
        next.set_rating(agent, product, fresh).expect("valid churn rating");
        uris.push(next.agent(agent).expect("dense").uri.clone());
    }
    (next, ModelDelta { ratings_changed: uris, trust_changed: Vec::new() })
}

/// The experiment body, parameterized for tests.
pub fn run_with(agents: usize, queries: usize, seed: u64) -> Summary {
    super::header("E21", "sharded universe: partition, cross-shard trust, per-shard refresh");
    println!("generating {agents} agents (lightened density)…");
    let started = Instant::now();
    let generated = generate_community(&gen_config(agents, seed));
    let community = generated.community;
    println!(
        "generated in {:.1}s: {} agents",
        started.elapsed().as_secs_f64(),
        community.agent_count()
    );

    let config = RecommenderConfig::default();
    let shard_counts = [1usize, 2, 4, 8];
    let max_shards = *shard_counts.last().expect("non-empty sweep");

    // Partition-quality aside: boundary fraction, hash vs community-aware.
    let hash_cut = cut_edges(&community, &HashShardFn.partition(&community, max_shards));
    let community_cut = cut_edges(
        &community,
        &CommunityShardFn::default().partition(&community, max_shards),
    );
    println!(
        "cut fraction at {max_shards} shards: hash {:.3}, community-aware {:.3}",
        hash_cut.0 as f64 / hash_cut.1.max(1) as f64,
        community_cut.0 as f64 / community_cut.1.max(1) as f64,
    );

    let mut table = Table::new([
        "shards",
        "rebuild_total_s",
        "rebuild_cp_s",
        "rebuild_eff",
        "refresh_cp_ms",
        "refresh_eff",
        "recomputed",
        "reused",
        "serve_ms_q",
        "remote_q",
    ]);

    // Churn panel: 0.2% of agents, strided across the whole universe so
    // every shard is dirtied at every shard count.
    let churn_size = (agents / 500).max(8);
    let spread: Vec<GlobalId> = (0..churn_size)
        .map(|i| GlobalId((i * (agents / churn_size)) as u32))
        .collect();
    let panel: Vec<GlobalId> =
        (0..queries.min(agents)).map(|i| GlobalId((i * (agents / queries.min(agents))) as u32)).collect();

    let mut base_rebuild_cp = 0.0f64;
    let mut base_refresh_cp = 0.0f64;
    let mut rebuild_eff_at_max = 0.0f64;
    let mut refresh_eff_at_max = 0.0f64;
    let mut remote_at_max = 0u64;

    for &n in &shard_counts {
        let (model, build) =
            ShardedModel::partition(&community, config, Arc::new(HashShardFn), n, 1);
        let rebuild_cp = build.critical_path().as_secs_f64();
        if n == 1 {
            base_rebuild_cp = rebuild_cp;
        }
        let rebuild_eff = base_rebuild_cp / (n as f64 * rebuild_cp).max(f64::MIN_POSITIVE);

        let (next, delta) = churn(&community, &spread);
        let (_, refresh) = model.advance(&next, &delta);
        let refresh_cp = refresh.critical_path().as_secs_f64();
        if n == 1 {
            base_refresh_cp = refresh_cp;
        }
        let refresh_eff = base_refresh_cp / (n as f64 * refresh_cp).max(f64::MIN_POSITIVE);

        let before = counters();
        let serve_started = Instant::now();
        for &target in &panel {
            model.recommend(target, 10).expect("panel target exists");
        }
        let serve_s = serve_started.elapsed().as_secs_f64();
        let after = counters();
        let remote = counter_delta(&before, &after, "shard.remote.discovered");
        if n == max_shards {
            rebuild_eff_at_max = rebuild_eff;
            refresh_eff_at_max = refresh_eff;
            remote_at_max = remote;
        }

        table.row([
            n.to_string(),
            fmt(build.total.as_secs_f64()),
            fmt(rebuild_cp),
            fmt(rebuild_eff),
            fmt(refresh_cp * 1e3),
            fmt(refresh_eff),
            refresh.profiles_recomputed.to_string(),
            refresh.profiles_reused.to_string(),
            fmt(serve_s * 1e3 / panel.len() as f64),
            fmt(remote as f64 / panel.len() as f64),
        ]);
    }
    println!("{}", table.render());

    // Localized delta: dirty only agents hash-routed to shard 0 and prove
    // every other shard's profile work is exactly zero.
    let (model, _) =
        ShardedModel::partition(&community, config, Arc::new(HashShardFn), max_shards, 1);
    let local: Vec<GlobalId> = community
        .agents()
        .filter(|a| {
            let uri = &community.agent(*a).expect("dense").uri;
            HashShardFn.route(uri, max_shards) == 0
        })
        .take(churn_size)
        .map(|a| GlobalId(a.index() as u32))
        .collect();
    let (next, delta) = churn(&community, &local);
    let before = counters();
    let (_, report) = model.advance(&next, &delta);
    let after = counters();
    let untouched: u64 = (1..max_shards)
        .map(|s| counter_delta(&before, &after, &format!("shard.{s}.profiles.recomputed")))
        .sum();
    println!(
        "localized delta ({} agents on shard 0): rebuilt shards {:?}, untouched shards recomputed {} profiles",
        local.len(),
        report.rebuilt,
        untouched
    );
    println!("modeled efficiency is the critical path over per-shard timings — the");
    println!("wall-clock a one-node-per-shard deployment would see (§2's decentralized");
    println!("framing); a single host running all shards in sequence gains nothing.");

    Summary {
        agents: community.agent_count(),
        rebuild_efficiency: rebuild_eff_at_max,
        refresh_efficiency: refresh_eff_at_max,
        untouched_recomputed: untouched,
        remote_discovered: remote_at_max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_holds_at_test_scale() {
        let summary = run_with(2_000, 40, 7);
        assert_eq!(summary.agents, 2_000);
        assert_eq!(
            summary.untouched_recomputed, 0,
            "a shard-0-localized delta must not recompute profiles elsewhere"
        );
        assert!(summary.remote_discovered > 0, "8-shard serving must cross shard boundaries");
        assert!(summary.rebuild_efficiency > 0.0);
        assert!(summary.refresh_efficiency > 0.0);
    }
}
