//! The workloads: one process runs one workload through every phase and
//! keeps the raw measurements; `report` turns them into the printed
//! end-to-end or per-layer numbers.
//!
//! Phases, in order (each workload runs all of them, so every metric in
//! `BENCHMARK.json` is measured on every workload):
//! 1. set-up, repeated [`SETUP_REPS`] times;
//! 2. [`CYCLES`] cycles of an open-loop segment through `Server` (on
//!    `serve_churn` with a refresh writer beside it), a closed
//!    `recommend_batch` pass and a pass over a 4-shard `ShardedModel`;
//! 3. restart: checkpoints, churn refreshes appended to the WAL, recovers;
//! 4. traced runs only: stage-by-stage rebuild of single queries;
//! 5. after `peak_rss_mb` is read: sharded-vs-unsharded equivalence on the
//!    pinned configuration, whose extra models are not the program's.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use semrec_core::recommend::{novel_only, vote};
use semrec_core::{
    recommend_batch, AgentId, PeerScores, RankContext, Recommendation, Recommender, SharedModel,
    SourceHealth, SwapPlan,
};
use semrec_datagen::zipf::Zipf;
use semrec_serve::{ServeConfig, ServeStats, ServedResponse, Server};
use semrec_shard::{HashShardFn, ShardedModel};
use semrec_store::Store;
use semrec_trust::neighborhood::form_neighborhood_csr;
use semrec_web::crawler::refresh;
use semrec_web::delta::CrawlDelta;

use crate::loadgen::{self, TOP_N};
use crate::trace::Tracer;
use crate::world::{setup, Standing, World, WORLD_SEED};
use crate::{Args, Scale, Workload};

/// Open-loop segments, each followed by a batch and a sharded pass.
pub const CYCLES: usize = 5;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Checkpoints written before the WAL records are appended.
const CHECKPOINT_REPS: usize = 7;
/// Refresh deltas appended to the WAL before recovering (`K`).
pub const WAL_RECORDS: usize = 3;
/// Extra refresh rounds before the checkpoints on `query_paper`, which has
/// no writer, so that `refresh.lag_ms` has more than `K` samples.
const LAG_ROUNDS: usize = 4;
/// Recoveries (with `K` records to replay) per run.
const RECOVER_REPS: usize = 4;
/// Recoveries from a snapshot with an empty WAL per run.
const LOAD_REPS: usize = 3;
/// Served open-loop answers recomputed directly per segment.
const ANSWER_CHECKS: usize = 4;
/// Open-loop targets asked again, from the cache, per run.
const REPEAT_CHECKS: usize = 16;
/// Shards of the sharded phase.
pub const SHARDS: usize = 4;
/// Zipf exponent of `serve_churn`'s read popularity.
pub const ZIPF_EXPONENT: f64 = 1.1;
/// Score tolerance of the sharded-vs-unsharded comparison (the bound
/// `tests/proptest_sharding.rs` pins).
const SHARD_TOLERANCE: f64 = 1e-6;

/// Latency limit the open loop is judged against, ms: the response time
/// up to which a system feels as if it reacted instantly (Nielsen,
/// *Usability Engineering*, 1993, ch. 5).
pub const LIMIT_MS: f64 = 100.0;

/// Sizes of one workload at one scale.
///
/// Paper-scale traffic is set from capacities measured on a 2-vCPU host
/// (release build, `nproc` = 2 workers): every load source is offered
/// about 40% of what it can sustain, so queues stay short and a run
/// measures service rather than backlog.
/// - `query_paper` reads: closed `recommend_batch` at 2 threads completes
///   ~75 cold queries/s (`batch.qps`), so 32 q/s is ~43%.
/// - `serve_churn` reads: a closed loop of 4 clients through `Server` on
///   distinct (cache-missing) targets of the E17 world completes ~8,900
///   q/s, so 3,500 q/s would keep the workers ~40% busy if every read
///   missed, as on `query_paper`. Zipf(1.1) reads hit the cache
///   (`serve.cache.hit_share` ~0.9), so the workers are far less busy;
///   that difference is what the cache buys. On the Zipf mix the same
///   closed loop completes ~70,000 q/s.
/// - `serve_churn` writer: one round takes ~0.25 s beside the reads
///   (`refresh.lag_ms`), so starting one every 0.6 s keeps it ~40% busy.
///
/// Small scale only feeds the smoke mode.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Open-loop offered rate, requests per second.
    pub rate: f64,
    /// Open-loop arrivals (`rate × seconds`).
    pub arrivals: usize,
    /// Targets of the closed batch per cycle, run as `batch_splits`
    /// passes (and the sharded prefix likewise). Sub-millisecond queries
    /// switch between contention modes from pass to pass, so
    /// `serve_churn` samples more, shorter passes.
    pub batch_targets: usize,
    pub batch_splits: usize,
    /// Targets per sharded batch pass (a prefix of each batch pass).
    pub shard_targets: usize,
    /// Agents whose answers are compared after every publish.
    pub panel: usize,
    /// Period of `serve_churn`'s refresh writer.
    pub writer_period: Duration,
    /// Queries rebuilt stage by stage in a traced run.
    pub rebuild_targets: usize,
    /// Targets of the first sharded pass checked on the pinned
    /// configuration: all 100 on `serve_churn`, two on `query_paper`,
    /// where each takes ~3 s (an unbounded walk to convergence 1e-9, once
    /// sharded and once not).
    pub pinned_checks: usize,
}

impl Params {
    /// The sizes for `args`.
    pub fn new(args: &Args) -> Params {
        let (
            rate,
            batch_targets,
            batch_splits,
            shard_targets,
            panel,
            period_ms,
            rebuild_targets,
            pinned_checks,
        ) = match (args.workload, args.scale) {
            (Workload::QueryPaper, Scale::Paper) => (32.0, 48, 1, 10, 4, 0, 100, 2),
            (Workload::ServeChurn, Scale::Paper) => (3500.0, 3000, 3, 300, 32, 600, 1000, 100),
            (Workload::QueryPaper, Scale::Small) => (100.0, 32, 1, 16, 8, 0, 32, 16),
            (Workload::ServeChurn, Scale::Small) => (200.0, 64, 2, 32, 8, 300, 32, 16),
        };
        Params {
            rate,
            arrivals: (rate * args.seconds).ceil() as usize,
            batch_targets,
            batch_splits,
            shard_targets,
            panel,
            writer_period: Duration::from_millis(period_ms),
            rebuild_targets,
            pinned_checks,
        }
    }
}

/// One churn → refresh → publish round.
#[derive(Clone, Debug)]
pub struct Round {
    /// Republish → `publish_delta` returned, ms.
    pub lag_ms: f64,
    /// Documents the refresh fetched, and how many it parsed.
    pub fetched: usize,
    pub parsed: usize,
    pub recomputed: usize,
    pub reused: usize,
    pub dirty: usize,
    pub agents: usize,
    pub carried: usize,
    pub wholesale: bool,
    /// The epoch the round published.
    pub epoch: u64,
    delta: CrawlDelta,
    health: SourceHealth,
}

/// Everything one run measured, before it is turned into metrics.
#[derive(Default)]
pub struct Measurements {
    pub setup_s: Vec<f64>,
    /// Open loop: response time from the scheduled send (failures are
    /// infinite), sender lateness, and queue depth at each send.
    pub latency_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub queue_depth: Vec<f64>,
    /// Response times split on `ServedResponse::cache_hit`.
    pub hit_ms: Vec<f64>,
    pub miss_ms: Vec<f64>,
    /// Closed passes: `(queries, wall ms)` of each.
    pub batch_passes: Vec<(usize, f64)>,
    pub shard_passes: Vec<(usize, f64)>,
    pub partition_ms: f64,
    pub cut_edges: usize,
    pub total_edges: usize,
    pub shard_queries: u64,
    /// Default-config sharded answers compared with unsharded ones, and
    /// how many had another product set.
    pub shard_compared: u64,
    pub shard_mismatched: u64,
    pub exchange_rounds: u64,
    pub rounds: Vec<Round>,
    pub lag_ms: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    pub snapshot_bytes: u64,
    pub wal_append_ms: Vec<f64>,
    pub wal_bytes_per_record: f64,
    /// `recover` + `start_at` + first answer.
    pub restart_ms: Vec<f64>,
    /// Stage-by-stage rebuild (traced runs).
    pub trust_iterations: Vec<f64>,
    pub nodes_explored: Vec<f64>,
    pub peers_compared: Vec<f64>,
    pub direct_ms: Vec<f64>,
    pub serve: ServeStats,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub failures: Vec<String>,
}

impl Measurements {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Shared, read-only context of one run.
struct Ctx<'a> {
    args: &'a Args,
    params: Params,
    tracer: &'a Tracer,
    nproc: usize,
    serve: ServeConfig,
}

/// Runs one workload and returns its measurements and the world's
/// provenance.
pub fn run(args: &Args, tracer: &Tracer) -> (Measurements, World, Params, usize) {
    let nproc = thread::available_parallelism().map_or(1, |n| n.get());
    let params = Params::new(args);
    let ctx = Ctx {
        args,
        params,
        tracer,
        nproc,
        serve: ServeConfig {
            workers: nproc,
            ..Default::default()
        },
    };
    let mut m = Measurements::default();
    let started = Instant::now();
    let progress = |name: &str| {
        eprintln!(
            "semrec-perfbench: {name} done at {:.1} s",
            started.elapsed().as_secs_f64()
        )
    };
    let mut world = World::generate(args.workload, args.scale, args.seed, &args.out_dir);
    progress("world");

    // 1. Set-up, repeated; the last one stays up. Each earlier one is shut
    // down first, so only one model is ever resident.
    let mut kept: Option<(Standing, Server)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((_, old)) = kept.take() {
            old.shutdown();
        }
        let (standing, server, setup_s) = setup(&world, ctx.serve, nproc, tracer, tracer.request());
        let agents = world.source.agent_count();
        m.check(
            standing.crawl.missing == 0 && standing.engine.community().agent_count() == agents,
            || {
                format!(
                    "set-up {rep}: crawl reached {} of {agents} agents",
                    standing.engine.community().agent_count()
                )
            },
        );
        m.setup_s.push(setup_s);
        m.attempted += 1;
        kept = Some((standing, server));
    }
    let (mut standing, server) = kept.expect("at least one set-up");

    // Targets: a fixed permutation of the agents, consumed in order so
    // that at paper scale no cold target repeats across phases. Target
    // sets are part of the fixed data set; the run's seed orders the
    // open-loop targets and draws arrival times, Zipf reads and churn.
    let mut order: Vec<AgentId> = standing.engine.community().agents().collect();
    shuffle(&mut order, &mut StdRng::seed_from_u64(WORLD_SEED));
    let mut cursor = 0usize;
    let mut take = |k: usize| -> Vec<AgentId> {
        (0..k)
            .map(|_| {
                let agent = order[cursor % order.len()];
                cursor += 1;
                agent
            })
            .collect()
    };
    let panel = take(params.panel);

    progress("set-up");
    // 2. Cycles of an open-loop segment, a closed batch pass and a
    // sharded pass, so that each metric's samples spread over the whole
    // run and a host-side stall skews only some of them. Batch and sharded
    // passes run on the engine as set up; on serve_churn the writer moves
    // the served engine on meanwhile.
    let base = standing.engine.clone();
    let ((sharded, report), partition_ms) =
        tracer.span("shard.partition", 0, tracer.request(), |_| {
            ShardedModel::partition(
                base.community(),
                *base.config(),
                Arc::new(HashShardFn),
                SHARDS,
                nproc,
            )
        });
    m.partition_ms = partition_ms;
    m.cut_edges = report.cut_edges;
    m.total_edges = report.total_edges;
    let passes: Vec<Vec<AgentId>> = (0..CYCLES).map(|_| take(params.batch_targets)).collect();

    let offsets = loadgen::poisson_schedule(params.rate, params.arrivals, world.rng());
    let targets: Vec<AgentId> = match args.workload {
        Workload::QueryPaper => {
            let mut targets = take(params.arrivals);
            shuffle(&mut targets, world.rng());
            targets
        }
        Workload::ServeChurn => {
            let zipf = Zipf::new(order.len(), ZIPF_EXPONENT);
            (0..params.arrivals)
                .map(|_| order[zipf.sample(world.rng())])
                .collect()
        }
    };
    // Targets that were answered, for the repeat from the cache.
    let mut answered = Vec::new();
    let per_cycle = params.arrivals.div_ceil(CYCLES);
    for (cycle, pass) in passes.iter().enumerate() {
        let (lo, hi) = (
            (cycle * per_cycle).min(params.arrivals),
            ((cycle + 1) * per_cycle).min(params.arrivals),
        );
        let origin = if lo == 0 {
            Duration::ZERO
        } else {
            offsets[lo - 1]
        };
        let arrivals: Vec<(Duration, AgentId)> = (lo..hi)
            .map(|i| (offsets[i] - origin, targets[i]))
            .collect();
        // Served answers are recomputed on the engines live at the
        // segment's start and end (keeping every generation would hold a
        // model per refresh round).
        let start = (server.epoch(), standing.engine.clone());
        let outcomes = open_loop_segment(
            &ctx,
            &mut m,
            &mut world,
            &mut standing,
            &server,
            &panel,
            &arrivals,
        );
        let engines = [start, (server.epoch(), standing.engine.clone())];
        record_open_loop(&ctx, &mut m, &outcomes, &engines);
        drop(engines);
        answered.extend(
            outcomes
                .iter()
                .filter(|o| o.response.is_some())
                .map(|o| o.agent),
        );
        let split = pass.len().div_ceil(params.batch_splits);
        let lists: Vec<_> = pass
            .chunks(split)
            .flat_map(|part| batch_pass(&ctx, &mut m, &base, part))
            .collect();
        let k = params.shard_targets.min(pass.len());
        let split = k.div_ceil(params.batch_splits);
        for (part, want) in pass[..k].chunks(split).zip(lists.chunks(split)) {
            shard_pass(&ctx, &mut m, &base, &sharded, part, want);
        }
    }
    if args.scale == Scale::Paper {
        let n = m.latency_ms.len();
        m.check(n >= 1000, || {
            format!("open loop kept only {n} samples; p99 needs 1000")
        });
    }
    if args.workload == Workload::QueryPaper {
        repeat_from_cache(&mut m, &server, &standing.engine, &answered);
    }
    drop((base, sharded));
    progress("cycles");

    // 3. Restart: checkpoint, refresh rounds appended to the WAL, recover.
    restart_phase(&ctx, &mut m, &mut world, &mut standing, &server, &panel);

    progress("restart");
    // 4. Traced runs: rebuild single queries stage by stage.
    if tracer.enabled() {
        let targets = take(params.rebuild_targets);
        rebuild_phase(&ctx, &mut m, &standing.engine, &targets);
    }

    m.serve = server.shutdown();
    let (submitted, resolved) = (m.serve.submitted, m.serve.resolved());
    m.check(submitted == resolved, || {
        format!("server lost tickets: {submitted} submitted, {resolved} resolved")
    });
    m.peak_rss_mb = peak_rss_mb();

    // 5. Sharded answers where their equivalence is pinned: the targets of
    // the first sharded pass.
    let split = params.shard_targets.div_ceil(params.batch_splits);
    let pinned = &passes[0][..params.pinned_checks.min(split)];
    shard_equivalence(&ctx, &mut m, &standing.engine, pinned);
    progress("shard");
    (m, world, params, nproc)
}

/// Asks again for a fixed sample of the open loop's answered targets: now
/// answered from the cache, and still bit-identical to a direct recompute.
fn repeat_from_cache(
    m: &mut Measurements,
    server: &Server,
    engine: &Recommender,
    answered: &[AgentId],
) {
    let step = (answered.len() / REPEAT_CHECKS).max(1);
    for &agent in answered.iter().step_by(step).take(REPEAT_CHECKS) {
        let started = Instant::now();
        let answer = server.submit(agent, TOP_N).ok().and_then(|t| t.wait().ok());
        let ms = started.elapsed().as_secs_f64() * 1e3;
        m.attempted += 1;
        let Some(r) = answer else {
            m.failed += 1;
            continue;
        };
        m.check(r.cache_hit, || {
            format!("repeat query for {agent:?} missed the cache")
        });
        let want = engine.recommend(agent, TOP_N).expect("known agent");
        m.check(same_bits(&r.recommendations, &want), || {
            format!("cached answer for {agent:?} differs from a direct recommend")
        });
        if r.cache_hit {
            m.hit_ms.push(ms)
        } else {
            m.miss_ms.push(ms)
        }
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// Sleeps until `deadline` unless `stop` turns true first; returns whether
/// the deadline was reached with `stop` still false.
fn sleep_until(deadline: Instant, stop: impl Fn() -> bool) -> bool {
    loop {
        if stop() {
            return false;
        }
        let now = Instant::now();
        if now >= deadline {
            return true;
        }
        thread::sleep((deadline - now).min(Duration::from_millis(20)));
    }
}

/// Two recommendation lists are bit-for-bit equal.
fn same_bits(a: &[Recommendation], b: &[Recommendation]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.product == y.product && x.score.to_bits() == y.score.to_bits() && x.voters == y.voters
        })
}

/// Two top-n lists hold the same products, in any order.
fn same_products(a: &[Recommendation], b: &[Recommendation]) -> bool {
    let products = |list: &[Recommendation]| {
        let mut products: Vec<_> = list.iter().map(|r| r.product).collect();
        products.sort_unstable();
        products
    };
    products(a) == products(b)
}

/// Top-n lists agree up to score ties at the cut-off, within `tol`.
fn same_top_n(want: &[Recommendation], got: &[Recommendation], tol: f64) -> bool {
    let cutoff = want.last().map_or(0.0, |r| r.score);
    want.len() == got.len()
        && want.iter().zip(got).all(|(w, s)| {
            if w.product == s.product {
                (w.score - s.score).abs() <= tol
            } else {
                (w.score - cutoff).abs() <= tol && (s.score - cutoff).abs() <= tol
            }
        })
}

fn record_open_loop(
    ctx: &Ctx<'_>,
    m: &mut Measurements,
    outcomes: &[loadgen::Outcome],
    engines: &[(u64, Recommender)],
) {
    m.attempted += outcomes.len() as u64;
    for (i, o) in outcomes.iter().enumerate() {
        let request = ctx.tracer.request();
        ctx.tracer.record("request", request, o.scheduled, o.done);
        let latency = o.latency_ms();
        m.latency_ms.push(latency);
        m.late_ms.push(o.late_ms());
        m.queue_depth.push(o.queue_depth as f64);
        let Some(r) = &o.response else {
            m.failed += 1;
            continue;
        };
        if r.cache_hit {
            m.hit_ms.push(latency)
        } else {
            m.miss_ms.push(latency)
        }
        m.check(r.epoch >= o.epoch_at_send, || {
            format!(
                "request {i} answered by epoch {} after epoch {} was live",
                r.epoch, o.epoch_at_send
            )
        });
    }
    // A fixed sample of answers served by a kept engine, compared with a
    // direct recompute on that engine.
    let kept: Vec<(usize, &loadgen::Outcome, &ServedResponse)> = outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, o)| o.response.as_ref().map(|r| (i, o, r)))
        .filter(|(_, _, r)| engines.iter().any(|(epoch, _)| *epoch == r.epoch))
        .collect();
    m.check(!kept.is_empty(), || {
        "no open-loop answer came from the segment's first or last epoch".into()
    });
    let step = (kept.len() / ANSWER_CHECKS).max(1);
    for &(i, o, r) in kept.iter().step_by(step).take(ANSWER_CHECKS) {
        let engine = &engines
            .iter()
            .find(|(epoch, _)| *epoch == r.epoch)
            .expect("kept epoch")
            .1;
        let want = engine.recommend(o.agent, TOP_N).expect("known agent");
        m.check(same_bits(&r.recommendations, &want), || {
            format!(
                "served answer {i} (epoch {}, hit {}) differs from recompute",
                r.epoch, r.cache_hit
            )
        });
    }
}

/// One open-loop segment; on serve_churn with the refresh writer beside it.
fn open_loop_segment(
    ctx: &Ctx<'_>,
    m: &mut Measurements,
    world: &mut World,
    standing: &mut Standing,
    server: &Server,
    panel: &[AgentId],
    arrivals: &[(Duration, AgentId)],
) -> Vec<loadgen::Outcome> {
    if ctx.args.workload == Workload::QueryPaper {
        return loadgen::run(server, arrivals);
    }
    // The writer runs on this thread and the reads on a scoped one: every
    // model generation is then allocated by the thread that built the
    // set-up, and the memory each one frees is reused by the next, not
    // stranded in the allocator arena of a thread that a later segment
    // does not get back (where `peak_rss_mb` would grow with each segment).
    let mut rounds = Vec::new();
    let mut failures = Vec::new();
    let outcomes = thread::scope(|scope| {
        let reads = scope.spawn(|| loadgen::run(server, arrivals));
        let mut next = Instant::now() + ctx.params.writer_period;
        while sleep_until(next, || reads.is_finished()) {
            rounds.push(refresh_round(
                ctx,
                world,
                standing,
                server,
                panel,
                &mut failures,
            ));
            next += ctx.params.writer_period;
        }
        reads.join().expect("open-loop sender panicked")
    });
    m.lag_ms.extend(rounds.iter().map(|r| r.lag_ms));
    m.attempted += (rounds.len() * (1 + panel.len())) as u64;
    m.failures.extend(failures);
    m.rounds.extend(rounds);
    outcomes
}

/// One closed `recommend_batch` pass at `nproc` threads; returns the lists
/// (empty for a failed query).
fn batch_pass(
    ctx: &Ctx<'_>,
    m: &mut Measurements,
    engine: &Recommender,
    pass: &[AgentId],
) -> Vec<Vec<Recommendation>> {
    let tracer = ctx.tracer;
    let (results, ms) = tracer.span("core.batch", 0, tracer.request(), |_| {
        recommend_batch(engine, pass, TOP_N, ctx.nproc)
    });
    m.batch_passes.push((pass.len(), ms));
    m.attempted += pass.len() as u64;
    let mut lists = Vec::with_capacity(results.len());
    for (agent, result) in pass.iter().zip(results) {
        match result {
            Ok(list) => lists.push(list),
            Err(e) => {
                m.failed += 1;
                m.failures
                    .push(format!("batch query for {agent:?} failed: {e}"));
                lists.push(Vec::new());
            }
        }
    }
    for (agent, list) in pass.iter().zip(&lists).take(4) {
        let want = engine.recommend(*agent, TOP_N).expect("known agent");
        m.check(same_bits(list, &want), || {
            format!("batch answer for {agent:?} differs from recommend")
        });
    }
    lists
}

/// One sharded `recommend_batch` pass over `targets`, compared with the
/// unsharded answers `want` of the same engine by product set: at the
/// default Appleseed convergence sharded scores agree only to within the
/// convergence threshold, so scores are not compared here.
fn shard_pass(
    ctx: &Ctx<'_>,
    m: &mut Measurements,
    engine: &Recommender,
    sharded: &ShardedModel,
    targets: &[AgentId],
    want: &[Vec<Recommendation>],
) {
    let tracer = ctx.tracer;
    let community = engine.community();
    let ids: Vec<_> = targets
        .iter()
        .map(|&a| {
            let uri = &community.agent(a).expect("known agent").uri;
            sharded
                .agent_by_uri(uri)
                .expect("every agent is in the directory")
        })
        .collect();
    let exchange = semrec_obs::counter("shard.exchange.rounds");
    let before = exchange.get();
    let (results, ms) = tracer.span("shard.batch", 0, tracer.request(), |_| {
        sharded.recommend_batch(&ids, TOP_N)
    });
    m.exchange_rounds += exchange.get() - before;
    m.shard_queries += ids.len() as u64;
    m.shard_passes.push((ids.len(), ms));
    m.attempted += ids.len() as u64;
    for ((agent, result), want) in targets.iter().zip(results).zip(want) {
        match result {
            Ok(got) => {
                m.shard_compared += 1;
                if !same_products(want, &got) {
                    m.shard_mismatched += 1;
                }
            }
            Err(e) => {
                m.failed += 1;
                m.failures
                    .push(format!("sharded query for {agent:?} failed: {e}"));
            }
        }
    }
    if tracer.enabled() {
        // One span per query, serially, for the per-query time.
        for &id in &ids {
            let (result, _) = tracer.span("shard.query", 0, tracer.request(), |_| {
                sharded.recommend(id, TOP_N)
            });
            m.attempted += 1;
            if result.is_err() {
                m.failed += 1;
            }
        }
    }
}

/// Checks sharded against unsharded answers where
/// `tests/proptest_sharding.rs` pins their equivalence: near-fixpoint
/// Appleseed convergence and no node cap. (At the default convergence the
/// cross-shard protocol stops on a different rule than the global walk, so
/// lists may hold other products; the run counts those in
/// `shard.default_mismatch_share` instead of failing.)
fn shard_equivalence(
    ctx: &Ctx<'_>,
    m: &mut Measurements,
    engine: &Recommender,
    targets: &[AgentId],
) {
    let mut config = *engine.config();
    config.neighborhood.appleseed.convergence = 1e-9;
    config.neighborhood.appleseed.max_nodes = None;
    let community = engine.community();
    let reference = Recommender::new(community.clone(), config);
    let (sharded, _) =
        ShardedModel::partition(community, config, Arc::new(HashShardFn), SHARDS, ctx.nproc);
    for &agent in targets {
        let want = reference.recommend(agent, TOP_N).expect("known agent");
        let id = sharded.agent_by_uri(&community.agent(agent).expect("known agent").uri);
        let got = id.and_then(|id| sharded.recommend(id, TOP_N).ok());
        m.attempted += 2;
        m.check(
            got.as_deref()
                .is_some_and(|got| same_top_n(&want, got, SHARD_TOLERANCE)),
            || {
                format!(
                    "sharded top-{TOP_N} for {agent:?} differs beyond ties: {want:?} vs {got:?}"
                )
            },
        );
    }
}

/// Churn → refresh → apply delta + build → advance → swap plan →
/// `publish_delta`, then the panel check against the new engine.
fn refresh_round(
    ctx: &Ctx<'_>,
    world: &mut World,
    standing: &mut Standing,
    server: &Server,
    panel: &[AgentId],
    failures: &mut Vec<String>,
) -> Round {
    let tracer = ctx.tracer;
    let previous_epoch = server.epoch();
    world.churn();
    let request = tracer.request();
    let (round, lag_ms) = tracer.span("refresh.round", 0, request, |root| {
        let (result, _) = tracer.span("web.refresh", root, request, |_| {
            refresh(
                &world.web,
                &world.seeds,
                &World::crawl_config(ctx.nproc),
                &standing.crawl,
            )
        });
        let delta = result.delta.clone().expect("a refresh always diffs");
        let health = result.health();
        let (community, _) = tracer.span("web.apply_delta_build", root, request, |_| {
            standing.builder.apply_delta(&delta);
            let source = &world.source;
            standing
                .builder
                .build(source.taxonomy.clone(), source.catalog.clone())
                .0
        });
        let ((next, model_delta, stats), _) = tracer.span("core.advance", root, request, |_| {
            let model_delta = delta.model_delta();
            let (next, stats) = standing.engine.advance(community, &model_delta, health);
            (next, model_delta, stats)
        });
        let horizon = world.config.neighborhood.appleseed.max_range;
        let (plan, _) = tracer.span("core.swap_plan", root, request, |_| {
            SwapPlan::compute(
                standing.engine.community(),
                next.community(),
                &model_delta,
                horizon,
                SwapPlan::DEFAULT_MAX_DIRTY_FRACTION,
            )
        });
        let (report, _) = tracer.span("serve.publish_delta", root, request, |_| {
            server.publish_delta(next.clone(), &plan)
        });
        let round = Round {
            lag_ms: 0.0,
            fetched: result.documents_fetched,
            parsed: result.documents_fetched - result.reused,
            recomputed: stats.recomputed,
            reused: stats.reused,
            dirty: plan.dirty_count(),
            agents: next.community().agent_count(),
            carried: report.carried,
            wholesale: report.wholesale,
            epoch: report.epoch,
            delta,
            health,
        };
        standing.engine = next;
        standing.crawl = result;
        round
    });
    let round = Round { lag_ms, ..round };
    if round.epoch <= previous_epoch {
        failures.push(format!(
            "publish went from epoch {previous_epoch} to {}",
            round.epoch
        ));
    }
    for &agent in panel {
        let want = standing
            .engine
            .recommend(agent, TOP_N)
            .expect("known agent");
        match server.submit(agent, TOP_N).map(|t| t.wait()) {
            Ok(Ok(r)) => {
                if r.epoch != round.epoch || !same_bits(&r.recommendations, &want) {
                    failures.push(format!(
                        "after publish of epoch {}: panel answer for {agent:?} (epoch {}, hit {}) \
                         differs from the new engine",
                        round.epoch, r.epoch, r.cache_hit
                    ));
                }
            }
            other => failures.push(format!("panel request for {agent:?} failed: {other:?}")),
        }
    }
    round
}

fn restart_phase(
    ctx: &Ctx<'_>,
    m: &mut Measurements,
    world: &mut World,
    standing: &mut Standing,
    server: &Server,
    panel: &[AgentId],
) {
    let tracer = ctx.tracer;
    let dir = ctx
        .args
        .out_dir
        .join(format!("store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).expect("store directory is writable");

    if ctx.args.workload == Workload::QueryPaper {
        for _ in 0..LAG_ROUNDS {
            let mut failures = Vec::new();
            let round = refresh_round(ctx, world, standing, server, panel, &mut failures);
            m.failures.extend(failures);
            m.attempted += 1 + panel.len() as u64;
            m.lag_ms.push(round.lag_ms);
            m.rounds.push(round);
        }
    }

    let checkpoint = |m: &mut Measurements, standing: &Standing| {
        let (report, ms) = tracer.span("store.checkpoint", 0, tracer.request(), |_| {
            store
                .checkpoint(&standing.engine, standing.builder.agents(), server.epoch())
                .expect("checkpoint succeeds")
        });
        m.checkpoint_ms.push(ms);
        m.snapshot_bytes = report.snapshot_bytes;
        m.attempted += 1;
    };
    for _ in 0..CHECKPOINT_REPS {
        checkpoint(m, standing);
    }

    let wal_before = store.wal_bytes().expect("wal readable");
    for _ in 0..WAL_RECORDS {
        let mut failures = Vec::new();
        let round = refresh_round(ctx, world, standing, server, panel, &mut failures);
        m.failures.extend(failures);
        m.attempted += 1 + panel.len() as u64;
        let ((), ms) = tracer.span("store.append_delta", 0, tracer.request(), |_| {
            store
                .append_delta(&round.delta, &round.health)
                .expect("append succeeds");
        });
        m.wal_append_ms.push(ms);
        m.attempted += 1;
        if ctx.args.workload == Workload::QueryPaper {
            m.lag_ms.push(round.lag_ms);
        }
        m.rounds.push(round);
    }
    let wal_after = store.wal_bytes().expect("wal readable");
    m.wal_bytes_per_record = (wal_after - wal_before) as f64 / WAL_RECORDS as f64;

    let live_epoch = server.epoch();
    for rep in 0..RECOVER_REPS {
        let request = tracer.request();
        let ((recovery, warm, first), total_ms) = tracer.span("restart", 0, request, |root| {
            let (recovery, _) = tracer.span("store.recover", root, request, |_| {
                store.recover().expect("recovery succeeds")
            });
            let ((warm, first), _) = tracer.span("serve.warm_start", root, request, |_| {
                let warm = Server::start_at(recovery.engine.clone(), ctx.serve, recovery.epoch);
                let first = warm
                    .submit(panel[0], TOP_N)
                    .ok()
                    .and_then(|t| t.wait().ok());
                (warm, first)
            });
            (recovery, warm, first)
        });
        warm.shutdown();
        m.restart_ms.push(total_ms);
        m.attempted += 1;
        if rep > 0 {
            continue;
        }
        m.check(recovery.replayed == WAL_RECORDS, || {
            format!(
                "recovery replayed {} records, expected {WAL_RECORDS}",
                recovery.replayed
            )
        });
        m.check(!recovery.degraded(), || {
            format!("recovery degraded: {:?}", recovery.skipped)
        });
        m.check(recovery.epoch == live_epoch, || {
            format!(
                "recovered at epoch {}, live at {live_epoch}",
                recovery.epoch
            )
        });
        m.check(recovery.view == standing.builder.agents(), || {
            "recovered view differs".into()
        });
        for &agent in panel {
            let want = standing
                .engine
                .recommend(agent, TOP_N)
                .expect("known agent");
            let got = recovery
                .engine
                .recommend(agent, TOP_N)
                .expect("known agent");
            m.check(same_bits(&got, &want), || {
                format!("recovered answer for {agent:?} differs")
            });
        }
        let want = standing
            .engine
            .recommend(panel[0], TOP_N)
            .expect("known agent");
        m.check(
            first.is_some_and(|r| same_bits(&r.recommendations, &want)),
            || "first answer of the warm-started server differs".into(),
        );
    }

    // A fresh generation with an empty WAL: recovery is a pure load.
    checkpoint(m, standing);
    for _ in 0..LOAD_REPS {
        let (recovery, _) = tracer.span("store.load", 0, tracer.request(), |_| {
            store.recover().expect("recovery succeeds")
        });
        m.check(recovery.replayed == 0, || {
            "an empty WAL replayed records".into()
        });
        m.attempted += 1;
    }
    std::fs::remove_dir_all(&dir).expect("store directory removable");
}

/// Rebuilds single queries from the public stage calls, each stage in its
/// own span, and checks the result bit-for-bit against
/// `Recommender::recommend_traced` on the same target. The two are run in
/// alternating order so neither always finds the caches warm.
fn rebuild_phase(ctx: &Ctx<'_>, m: &mut Measurements, engine: &Recommender, targets: &[AgentId]) {
    let model = engine.shared();
    for (i, &target) in targets.iter().enumerate() {
        let direct = || {
            let started = Instant::now();
            let (recs, trace) = engine.recommend_traced(target, TOP_N).expect("known agent");
            (recs, trace, started.elapsed().as_secs_f64() * 1e3)
        };
        let ((want, trace, direct_ms), rebuilt) = if i % 2 == 0 {
            let d = direct();
            (d, stage_by_stage(ctx.tracer, &model, target))
        } else {
            let rebuilt = stage_by_stage(ctx.tracer, &model, target);
            (direct(), rebuilt)
        };
        m.attempted += 2;
        m.direct_ms.push(direct_ms);
        m.check(same_bits(&rebuilt.recs, &want), || {
            format!("stage-by-stage rebuild for {target:?} differs from recommend")
        });
        m.check(
            trace.trust_iterations == rebuilt.iterations
                && trace.nodes_explored == rebuilt.nodes_explored,
            || format!("rebuild trust counts for {target:?} differ from the pipeline trace"),
        );
        m.trust_iterations.push(trace.trust_iterations as f64);
        m.nodes_explored.push(trace.nodes_explored as f64);
        m.peers_compared.push(rebuilt.peers as f64);
    }
}

struct Rebuilt {
    recs: Vec<Recommendation>,
    iterations: usize,
    nodes_explored: usize,
    peers: usize,
}

fn stage_by_stage(tracer: &Tracer, model: &SharedModel, target: AgentId) -> Rebuilt {
    let request = tracer.request();
    let config = model.config();
    let (rebuilt, _) = tracer.span("query", 0, request, |root| {
        let (neighborhood, _) = tracer.span("trust.neighborhood", root, request, |_| {
            form_neighborhood_csr(model.trust_csr(), target, &config.neighborhood)
                .expect("known agent")
        });
        let (peers, _) = tracer.span("profiles.similarity", root, request, |_| {
            let own = model.profiles().profile(target);
            neighborhood
                .normalized()
                .into_iter()
                .map(|(agent, trust)| PeerScores {
                    agent,
                    trust,
                    similarity: config
                        .similarity
                        .apply(own, model.profiles().profile(agent)),
                })
                .collect::<Vec<_>>()
        });
        let (ranked, _) = tracer.span("core.rank", root, request, |_| {
            model.ranker().rank(&RankContext {
                target,
                neighborhood: &neighborhood,
                peers: &peers,
                community: model.community(),
                profiles: model.profiles(),
                config,
            })
        });
        let (recs, _) = tracer.span("core.vote", root, request, |_| {
            let weighted: Vec<(AgentId, f64)> =
                ranked.iter().map(|p| (p.agent, p.weight)).collect();
            let mut recs = vote(model.community(), target, &weighted, &config.voting);
            if config.novel_categories_only {
                recs = novel_only(model.community(), model.profiles().profile(target), recs);
            }
            recs.truncate(TOP_N);
            recs
        });
        Rebuilt {
            recs,
            iterations: neighborhood.iterations,
            nodes_explored: neighborhood.nodes_explored,
            peers: peers.len(),
        }
    });
    rebuilt
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}
