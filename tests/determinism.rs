//! Determinism regression: for a fixed seed and input, two pipeline runs
//! must produce byte-identical recommendation lists **and** identical
//! counter values. Wall-clock timers (histograms fed by spans) are the one
//! intentionally non-deterministic part of the registry and are excluded.
//!
//! This is the observability layer's determinism contract (see the
//! `semrec-obs` crate docs): counters and gauges record *work done*, which
//! is a pure function of seed + input; histograms record *time*, which is
//! not.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use semrec::core::{recommend_batch, Recommender, RecommenderConfig};
use semrec::datagen::{generate_community, CommunityGenConfig};
use semrec::obs;
use semrec::web::crawler::{
    assemble_community, crawl_resilient, refresh_resilient, CommunityBuilder, CrawlConfig,
};
use semrec::web::fault::{FaultPlan, FaultyWeb};
use semrec::web::policy::FetchPolicy;
use semrec::web::publish::{homepage_turtle, homepage_uri, publish_community};
use semrec::web::store::DocumentWeb;

/// Serializes tests touching the global registry (shared across this
/// binary's test threads).
fn lock() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One full pipeline pass over a freshly generated seeded community:
/// returns the rendered recommendation lists and the counter map.
fn run_once(seed: u64, threads: usize) -> (String, BTreeMap<String, u64>) {
    let generated = generate_community(&CommunityGenConfig::small(seed));
    let recommender = Recommender::new(generated.community, RecommenderConfig::default());
    let agents: Vec<_> = recommender.community().agents().collect();

    obs::global().reset();
    let batch = recommend_batch(&recommender, &agents, 10, threads);

    // Render with full float precision: byte-identical means bit-identical
    // scores, not merely equal after display rounding.
    let mut rendered = String::new();
    for (agent, result) in agents.iter().zip(&batch) {
        rendered.push_str(&format!("{agent:?}:"));
        for rec in result.as_ref().expect("recommendation succeeds") {
            rendered.push_str(&format!(" {:?}={}", rec.product, rec.score.to_bits()));
        }
        rendered.push('\n');
    }
    (rendered, obs::global().snapshot().counters)
}

#[test]
fn same_seed_same_counters_and_byte_identical_recommendations() {
    let _serial = lock();
    let (recs_a, counters_a) = run_once(42, 4);
    let (recs_b, counters_b) = run_once(42, 4);

    assert!(!recs_a.is_empty());
    assert_eq!(recs_a, recs_b, "recommendation lists must be byte-identical");
    assert!(
        counters_a.contains_key("appleseed.iterations")
            && counters_a.contains_key("batch.tasks"),
        "pipeline counters present: {counters_a:?}"
    );
    assert_eq!(counters_a, counters_b, "counter values must be identical across runs");
}

#[test]
fn thread_count_does_not_change_recommendations_or_work_totals() {
    let _serial = lock();
    let (recs_seq, counters_seq) = run_once(7, 1);
    let (recs_par, counters_par) = run_once(7, 4);

    assert_eq!(recs_seq, recs_par, "parallel batch must match the sequential lists");
    // Work totals (everything except the per-worker task split and the
    // thread gauge) are thread-count invariant.
    let totals = |counters: &BTreeMap<String, u64>| -> BTreeMap<String, u64> {
        counters
            .iter()
            .filter(|(name, _)| !name.starts_with("batch.worker."))
            .map(|(name, &count)| (name.clone(), count))
            .collect()
    };
    assert_eq!(totals(&counters_seq), totals(&counters_par));
}

/// One fault-injected end-to-end pass: publish a seeded community, crawl it
/// through a 30% transient-fault web with retries and breakers, assemble
/// the reachable subset, and recommend for every assembled agent. Returns
/// the rendered recommendations (bit-exact scores), the rendered resilience
/// record (retries, give-ups, breaker transitions), and the counter map.
fn run_faulty(seed: u64, threads: usize) -> (String, String, BTreeMap<String, u64>) {
    let generated = generate_community(&CommunityGenConfig::small(seed));
    let community = generated.community;
    let web = DocumentWeb::new();
    publish_community(&community, &web);
    let mut seeds: Vec<String> =
        community.agents().map(|a| community.agent(a).unwrap().uri.clone()).collect();
    seeds.sort();
    seeds.truncate(3);

    obs::global().reset();
    let faulty = FaultyWeb::new(&web, FaultPlan::transient(0.3, seed));
    let (result, breaker) = crawl_resilient(
        &faulty,
        &seeds,
        &CrawlConfig { threads, ..Default::default() },
        &FetchPolicy::default(),
    );
    let resilience = format!(
        "retries={} gave_up={} unreachable={} corrupted={} ticks={} transitions={:?} opened={}",
        result.retries,
        result.gave_up,
        result.unreachable,
        result.corrupted,
        result.ticks,
        result.breaker_transitions,
        breaker.times_opened(),
    );

    let (rebuilt, _) =
        assemble_community(&result.agents, community.taxonomy.clone(), community.catalog.clone());
    let recommender = Recommender::new(rebuilt, RecommenderConfig::default())
        .with_source_health(result.health());
    let agents: Vec<_> = recommender.community().agents().collect();
    let batch = recommend_batch(&recommender, &agents, 10, threads);

    let mut rendered = String::new();
    for (agent, result) in agents.iter().zip(&batch) {
        rendered.push_str(&format!("{agent:?}:"));
        for rec in result.as_ref().expect("recommendation succeeds") {
            rendered.push_str(&format!(" {:?}={}", rec.product, rec.score.to_bits()));
        }
        rendered.push('\n');
    }
    (rendered, resilience, obs::global().snapshot().counters)
}

#[test]
fn fault_injected_runs_are_byte_identical_across_runs() {
    let _serial = lock();
    let (recs_a, res_a, counters_a) = run_faulty(42, 4);
    let (recs_b, res_b, counters_b) = run_faulty(42, 4);

    assert!(!recs_a.is_empty());
    assert_eq!(recs_a, recs_b, "degraded recommendations must be byte-identical");
    assert_eq!(res_a, res_b, "retry counts and breaker transitions must be identical");
    assert!(
        counters_a.get("crawl.fetch.retry").copied().unwrap_or(0) > 0,
        "a 30% fault plan must force retries: {counters_a:?}"
    );
    assert_eq!(counters_a, counters_b, "counter values must be identical across runs");
}

#[test]
fn fault_injection_is_thread_count_invariant() {
    let _serial = lock();
    let (recs_seq, res_seq, counters_seq) = run_faulty(7, 1);
    let (recs_par, res_par, counters_par) = run_faulty(7, 4);

    assert_eq!(recs_seq, recs_par, "thread count must not change degraded recommendations");
    assert_eq!(res_seq, res_par, "thread count must not change the resilience record");
    let totals = |counters: &BTreeMap<String, u64>| -> BTreeMap<String, u64> {
        counters
            .iter()
            .filter(|(name, _)| !name.starts_with("batch.worker."))
            .map(|(name, &count)| (name.clone(), count))
            .collect()
    };
    assert_eq!(totals(&counters_seq), totals(&counters_par));
}

/// One fault-injected *incremental* pass: crawl through a transient-fault
/// web, apply one deterministic churn round, refresh through the same
/// faulty web, and advance the model along the delta path
/// (`CommunityBuilder::apply_delta` + `Recommender::advance`). Returns the
/// rendered recommendations (bit-exact scores), the rendered advance
/// record, and the counter map — all of which must be invariant across
/// runs and thread counts.
fn run_incremental(seed: u64, threads: usize) -> (String, String, BTreeMap<String, u64>) {
    let generated = generate_community(&CommunityGenConfig::small(seed));
    let mut community = generated.community;
    let web = DocumentWeb::new();
    publish_community(&community, &web);
    let seeds: Vec<String> =
        community.agents().map(|a| community.agent(a).unwrap().uri.clone()).collect();

    obs::global().reset();
    let faulty = FaultyWeb::new(&web, FaultPlan::transient(0.3, seed));
    let config = CrawlConfig { threads, ..Default::default() };
    let policy = FetchPolicy::default();
    let (first, mut breaker) = crawl_resilient(&faulty, &seeds, &config, &policy);
    let (initial, _) =
        assemble_community(&first.agents, community.taxonomy.clone(), community.catalog.clone());
    let engine = Recommender::new(initial, RecommenderConfig::default())
        .with_source_health(first.health());

    // Deterministic churn: the first five agents re-rate one product each
    // and republish; everything else stays untouched.
    let products: Vec<_> = community.catalog.iter().collect();
    for (k, agent) in community.agents().take(5).enumerate() {
        community.set_rating(agent, products[k % products.len()], 0.5).expect("valid rating");
        let uri = community.agent(agent).unwrap().uri.clone();
        web.publish(homepage_uri(&uri), homepage_turtle(&community, agent), "text/turtle");
    }

    let second = refresh_resilient(&faulty, &seeds, &config, &policy, &mut breaker, &first);
    let delta = second.delta.clone().expect("refresh always diffs");
    let mut builder = CommunityBuilder::new(&first.agents);
    builder.apply_delta(&delta);
    let (next, _) = builder.build(community.taxonomy.clone(), community.catalog.clone());
    let (advanced, stats) = engine.advance(next, &delta.model_delta(), second.health());
    let record = format!(
        "touched={} reused={} recomputed={} retries={} ticks={}",
        delta.touched(),
        stats.reused,
        stats.recomputed,
        second.retries,
        second.ticks,
    );

    let agents: Vec<_> = advanced.community().agents().collect();
    let batch = recommend_batch(&advanced, &agents, 10, threads);
    let mut rendered = String::new();
    for (agent, result) in agents.iter().zip(&batch) {
        rendered.push_str(&format!("{agent:?}:"));
        for rec in result.as_ref().expect("recommendation succeeds") {
            rendered.push_str(&format!(" {:?}={}", rec.product, rec.score.to_bits()));
        }
        rendered.push('\n');
    }
    (rendered, record, obs::global().snapshot().counters)
}

#[test]
fn incremental_refresh_after_faults_is_byte_identical_across_runs() {
    let _serial = lock();
    let (recs_a, rec_a, counters_a) = run_incremental(42, 4);
    let (recs_b, rec_b, counters_b) = run_incremental(42, 4);

    assert!(!recs_a.is_empty());
    assert_eq!(recs_a, recs_b, "incremental recommendations must be byte-identical");
    assert_eq!(rec_a, rec_b, "the advance record must be identical");
    assert!(
        counters_a.get("refresh.delta.changed").copied().unwrap_or(0) > 0,
        "the churn round must register as changed agents: {counters_a:?}"
    );
    assert!(
        counters_a.get("model.profiles.reused").copied().unwrap_or(0) > 0,
        "untouched agents must reuse their profiles: {counters_a:?}"
    );
    assert_eq!(counters_a, counters_b, "counter values must be identical across runs");
}

#[test]
fn incremental_refresh_is_thread_count_invariant() {
    let _serial = lock();
    let (recs_seq, rec_seq, counters_seq) = run_incremental(7, 1);
    let (recs_par, rec_par, counters_par) = run_incremental(7, 4);

    assert_eq!(recs_seq, recs_par, "thread count must not change incremental recommendations");
    assert_eq!(rec_seq, rec_par, "thread count must not change the advance record");
    let totals = |counters: &BTreeMap<String, u64>| -> BTreeMap<String, u64> {
        counters
            .iter()
            .filter(|(name, _)| !name.starts_with("batch.worker."))
            .map(|(name, &count)| (name.clone(), count))
            .collect()
    };
    assert_eq!(totals(&counters_seq), totals(&counters_par));
}

/// One fault-injected checkpoint→restart→resume pass: crawl through a
/// transient-fault web, checkpoint the model, run one deterministic churn
/// round through the same faulty web appending the delta to the WAL, then
/// *recover from disk* and recommend from the recovered engine. Returns
/// the rendered recommendations (bit-exact scores), the rendered recovery
/// record, and the counter map including the `store.*` namespace — all of
/// which must be invariant across runs and thread counts.
fn run_checkpointed(seed: u64, threads: usize) -> (String, String, BTreeMap<String, u64>) {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let scratch = std::env::temp_dir().join(format!(
        "semrec-determinism-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));

    let generated = generate_community(&CommunityGenConfig::small(seed));
    let mut community = generated.community;
    let web = DocumentWeb::new();
    publish_community(&community, &web);
    let seeds: Vec<String> =
        community.agents().map(|a| community.agent(a).unwrap().uri.clone()).collect();

    obs::global().reset();
    let faulty = FaultyWeb::new(&web, FaultPlan::transient(0.3, seed));
    let config = CrawlConfig { threads, ..Default::default() };
    let policy = FetchPolicy::default();
    let (first, mut breaker) = crawl_resilient(&faulty, &seeds, &config, &policy);
    let builder = CommunityBuilder::new(&first.agents);
    let (initial, _) =
        builder.build(community.taxonomy.clone(), community.catalog.clone());
    let engine = Recommender::new(initial, RecommenderConfig::default())
        .with_source_health(first.health());

    let store = semrec::store::Store::open(&scratch).expect("scratch store opens");
    store.checkpoint(&engine, builder.agents(), 1).expect("checkpoint succeeds");

    // Deterministic churn, as in `run_incremental`.
    let products: Vec<_> = community.catalog.iter().collect();
    for (k, agent) in community.agents().take(5).enumerate() {
        community.set_rating(agent, products[k % products.len()], 0.5).expect("valid rating");
        let uri = community.agent(agent).unwrap().uri.clone();
        web.publish(homepage_uri(&uri), homepage_turtle(&community, agent), "text/turtle");
    }
    let second = refresh_resilient(&faulty, &seeds, &config, &policy, &mut breaker, &first);
    let delta = second.delta.clone().expect("refresh always diffs");
    store.append_delta(&delta, &second.health()).expect("append succeeds");

    // Restart: everything below this line uses only what's on disk.
    let recovery = store.recover().expect("recovery succeeds");
    let record = format!(
        "touched={} replayed={} epoch={} snapshot_seq={} degraded={}",
        delta.touched(),
        recovery.replayed,
        recovery.epoch,
        recovery.snapshot_seq,
        recovery.degraded(),
    );

    let agents: Vec<_> = recovery.engine.community().agents().collect();
    let batch = recommend_batch(&recovery.engine, &agents, 10, threads);
    let mut rendered = String::new();
    for (agent, result) in agents.iter().zip(&batch) {
        rendered.push_str(&format!("{agent:?}:"));
        for rec in result.as_ref().expect("recommendation succeeds") {
            rendered.push_str(&format!(" {:?}={}", rec.product, rec.score.to_bits()));
        }
        rendered.push('\n');
    }
    let counters = obs::global().snapshot().counters;
    std::fs::remove_dir_all(&scratch).ok();
    (rendered, record, counters)
}

#[test]
fn checkpoint_restart_resume_is_byte_identical_across_runs() {
    let _serial = lock();
    let (recs_a, rec_a, counters_a) = run_checkpointed(42, 4);
    let (recs_b, rec_b, counters_b) = run_checkpointed(42, 4);

    assert!(!recs_a.is_empty());
    assert_eq!(recs_a, recs_b, "recovered recommendations must be byte-identical");
    assert_eq!(rec_a, rec_b, "the recovery record must be identical");
    assert!(
        counters_a.get("store.snapshot.write").copied().unwrap_or(0) > 0
            && counters_a.get("store.snapshot.load").copied().unwrap_or(0) > 0
            && counters_a.get("store.wal.appended").copied().unwrap_or(0) > 0
            && counters_a.get("store.wal.replayed").copied().unwrap_or(0) > 0,
        "the store namespace must register the full cycle: {counters_a:?}"
    );
    assert_eq!(
        counters_a, counters_b,
        "counter values (including store.*) must be identical across runs"
    );
}

#[test]
fn checkpoint_restart_resume_is_thread_count_invariant() {
    let _serial = lock();
    let (recs_seq, rec_seq, counters_seq) = run_checkpointed(7, 1);
    let (recs_par, rec_par, counters_par) = run_checkpointed(7, 4);

    assert_eq!(recs_seq, recs_par, "thread count must not change recovered recommendations");
    assert_eq!(rec_seq, rec_par, "thread count must not change the recovery record");
    let totals = |counters: &BTreeMap<String, u64>| -> BTreeMap<String, u64> {
        counters
            .iter()
            .filter(|(name, _)| !name.starts_with("batch.worker."))
            .map(|(name, &count)| (name.clone(), count))
            .collect()
    };
    assert_eq!(totals(&counters_seq), totals(&counters_par));
}

/// One open-loop SLO-controlled serving run in lockstep mode: a flash-crowd
/// trace against a seeded community, with deadline shedding, the pressure
/// controller and the autoscaler all active. Returns the rendered per-class
/// outcome (counts and exact tick percentiles) and the counter map —
/// including every `serve.slo.*` / `serve.class.*` / `serve.workers.*`
/// counter, all of which must be invariant across runs and compute thread
/// counts.
fn run_open_loop_slo(seed: u64, threads: usize) -> (String, BTreeMap<String, u64>) {
    use semrec::serve::{
        run_open_loop, ArrivalProcess, OpenLoopConfig, Priority, ScalerConfig, ServeConfig,
        Server,
    };

    let generated = generate_community(&CommunityGenConfig::small(seed));
    let recommender = Recommender::new(generated.community, RecommenderConfig::default());
    let agents: Vec<_> = recommender.community().agents().collect();

    obs::global().reset();
    let server = Server::start(
        recommender,
        ServeConfig { workers: 0, queue_capacity: 256, ..Default::default() },
    );
    // A deep queue and a capped pool: the spike outruns the drain, waits
    // climb past the deadline budgets, and the SLO machinery has to act.
    let config = OpenLoopConfig {
        ticks: 80,
        process: ArrivalProcess::FlashCrowd {
            base: 2.0,
            spike: 32.0,
            start: 25,
            len: 30,
            hot_agents: 6,
            hot_fraction: 0.7,
        },
        seed,
        class_mix: [0.2, 0.5, 0.3],
        threads,
        scaler: ScalerConfig { max_workers: 4, ..Default::default() },
        ..Default::default()
    };
    let report = run_open_loop(&server, &agents, &config);
    server.shutdown();

    let mut rendered = String::new();
    for class in Priority::ALL {
        let s = report.class.get(class);
        rendered.push_str(&format!(
            "{class}: offered={} admitted={} served={} goodput={} shed_adm={} displaced={} \
             shed_dl={} p50={} p95={} p99={}\n",
            s.offered,
            s.admitted,
            s.served,
            s.goodput,
            s.shed_admission,
            s.displaced,
            s.shed_deadline,
            s.wait_p50,
            s.wait_p95,
            s.wait_p99,
        ));
    }
    rendered.push_str(&format!(
        "ticks={} scale_events={} peak_workers={} lost={}\n",
        report.ticks_run, report.scale_events, report.peak_workers, report.lost
    ));
    (rendered, obs::global().snapshot().counters)
}

#[test]
fn open_loop_slo_run_is_byte_identical_across_runs_and_threads() {
    let _serial = lock();
    let (report_a, counters_a) = run_open_loop_slo(42, 1);
    let (report_b, counters_b) = run_open_loop_slo(42, 1);
    let (report_c, counters_c) = run_open_loop_slo(42, 2);
    let (report_d, counters_d) = run_open_loop_slo(42, 8);

    assert!(!report_a.is_empty());
    assert_eq!(report_a, report_b, "same seed, same threads: identical runs");
    assert_eq!(report_a, report_c, "2 compute threads must not change the outcome");
    assert_eq!(report_a, report_d, "8 compute threads must not change the outcome");
    // The trace must actually exercise the SLO machinery, or the
    // determinism claim is vacuous.
    for required in [
        "serve.slo.violations",
        "serve.workers.scale_events",
        "serve.class.high.served",
        "serve.class.normal.served",
        "serve.class.low.served",
    ] {
        assert!(
            counters_a.get(required).copied().unwrap_or(0) > 0,
            "flash crowd must drive {required}: {counters_a:?}"
        );
    }
    assert_eq!(counters_a, counters_b, "counters identical across runs");
    assert_eq!(counters_a, counters_c, "counters identical at 2 threads");
    assert_eq!(counters_a, counters_d, "counters identical at 8 threads");
}

/// One full sharded pass: partition a seeded community into 4 shards,
/// batch-serve every agent over the cross-shard trust topology, apply one
/// deterministic churn round via the sharded `advance`, and batch-serve
/// again. Returns the rendered recommendation lists (bit-exact scores),
/// the rendered advance record, and the counter map — including the whole
/// `shard.*` namespace, all of which must be invariant across runs and
/// compute thread counts.
fn run_sharded(seed: u64, threads: usize) -> (String, String, BTreeMap<String, u64>) {
    use std::sync::Arc;

    use semrec::core::ModelDelta;
    use semrec::shard::{GlobalId, HashShardFn, ShardedModel};

    let shards = 4usize;
    let generated = generate_community(&CommunityGenConfig::small(seed));
    let community = generated.community;

    obs::global().reset();
    let (model, build) = ShardedModel::partition(
        &community,
        RecommenderConfig::default(),
        Arc::new(HashShardFn),
        shards,
        threads,
    );
    let targets: Vec<GlobalId> =
        (0..model.agent_count()).map(|i| GlobalId(i as u32)).collect();

    let render = |batch: &[semrec::core::Result<Vec<semrec::Recommendation>>]| {
        let mut rendered = String::new();
        for (g, result) in targets.iter().zip(batch) {
            rendered.push_str(&format!("{g:?}:"));
            for rec in result.as_ref().expect("recommendation succeeds") {
                rendered.push_str(&format!(" {:?}={}", rec.product, rec.score.to_bits()));
            }
            rendered.push('\n');
        }
        rendered
    };
    let mut rendered = render(&model.recommend_batch(&targets, 10));

    // Deterministic churn, localized to shard 0 so clean shards exist: the
    // first five shard-0 agents re-rate one product each.
    let products: Vec<_> = community.catalog.iter().collect();
    let mut next = community.clone();
    let mut uris = Vec::new();
    let churned = community
        .agents()
        .filter(|a| model.directory().shard_of(GlobalId(a.index() as u32)) == 0)
        .take(5);
    for (k, agent) in churned.enumerate() {
        next.set_rating(agent, products[k % products.len()], 0.5).expect("valid rating");
        uris.push(community.agent(agent).expect("dense id").uri.clone());
    }
    let (advanced, report) =
        model.advance(&next, &ModelDelta { ratings_changed: uris, trust_changed: Vec::new() });
    let record = format!(
        "sizes={:?} wholesale={} rebuilt={:?} serve_dirty={:?} recomputed={} reused={}",
        build.sizes,
        report.wholesale,
        report.rebuilt,
        report.serve_dirty,
        report.profiles_recomputed,
        report.profiles_reused,
    );
    rendered.push_str(&render(&advanced.recommend_batch(&targets, 10)));
    (rendered, record, obs::global().snapshot().counters)
}

#[test]
fn sharded_pipeline_is_byte_identical_across_runs() {
    let _serial = lock();
    let (recs_a, rec_a, counters_a) = run_sharded(42, 4);
    let (recs_b, rec_b, counters_b) = run_sharded(42, 4);

    assert!(!recs_a.is_empty());
    assert_eq!(recs_a, recs_b, "sharded recommendations must be byte-identical");
    assert_eq!(rec_a, rec_b, "the sharded advance record must be identical");
    assert!(
        counters_a.get("shard.remote.discovered").copied().unwrap_or(0) > 0,
        "serving at 4 shards must cross boundaries: {counters_a:?}"
    );
    assert!(
        counters_a.get("shard.advance.shards_clean").copied().unwrap_or(0) > 0,
        "a five-agent churn must leave shards untouched: {counters_a:?}"
    );
    assert_eq!(
        counters_a, counters_b,
        "counter values (including shard.*) must be identical across runs"
    );
}

#[test]
fn sharded_pipeline_is_thread_count_invariant() {
    let _serial = lock();
    let (recs_1, rec_1, counters_1) = run_sharded(7, 1);
    let (recs_2, rec_2, counters_2) = run_sharded(7, 2);
    let (recs_8, rec_8, counters_8) = run_sharded(7, 8);

    assert_eq!(recs_1, recs_2, "2 compute threads must not change sharded output");
    assert_eq!(recs_1, recs_8, "8 compute threads must not change sharded output");
    assert_eq!(rec_1, rec_2);
    assert_eq!(rec_1, rec_8);
    assert_eq!(counters_1, counters_2, "counters identical at 2 threads");
    assert_eq!(counters_1, counters_8, "counters identical at 8 threads");
}

#[test]
fn different_seeds_diverge() {
    let _serial = lock();
    // Sanity check that the regression above is not vacuous: a different
    // seed produces different work.
    let (recs_a, _) = run_once(42, 4);
    let (recs_c, _) = run_once(43, 4);
    assert_ne!(recs_a, recs_c, "different seeds should give different lists");
}
