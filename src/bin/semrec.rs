//! `semrec` — command-line front end.
//!
//! Materializes a decentralized community as RDF documents on disk — Turtle
//! or 2004-era RDF/XML, the filesystem playing the role of the document
//! web — then answers trust and recommendation queries against it:
//!
//! ```sh
//! semrec generate --scale small --seed 42 --out ./world
//! semrec inspect   --data ./world
//! semrec trust     --data ./world --agent http://community.example.org/agents/0#me
//! semrec recommend --data ./world --agent http://community.example.org/agents/0#me --top 10
//! semrec serve-bench --scale small --seed 42 --workers 4 --clients 8
//! semrec serve-bench --scale small --seed 42 --open-loop flash --ticks 120 --rate 8
//! semrec refresh-bench --scale small --seed 42 --rounds 3 --churn 0.05
//! semrec checkpoint --data ./world --store ./checkpoints
//! semrec recover --store ./checkpoints --top 5
//! semrec store-bench --scale small --seed 42 --rounds 3 --churn 0.05
//! semrec rank-bench --scale small --seed 42 --blend 0.5,0.3,0.2
//! semrec shard-bench --scale small --seed 42 --shards 8 --partitioner hash
//! semrec p2p-bench --scale small --seed 42 --rounds 12 --fanout 3 --fault 0.3 --dead 0.1
//! ```

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use semrec::core::{Community, Recommender, RecommenderConfig, SharedModel, SwapPlan};
use semrec::serve::{run_load, LoadGenConfig, ServeConfig, Server};
use semrec::datagen::community::{generate_community, CommunityGenConfig};
use semrec::eval::Table;
use semrec::trust::appleseed::{appleseed, AppleseedParams};
use semrec::web::extract::extract_agents;
use semrec::web::globals;
use semrec::web::publish::homepage_turtle;

const TAXONOMY_BASE: &str = "http://community.example.org/taxonomy#";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else { usage("missing command") };
    let opts = Options::parse(rest);
    match command.as_str() {
        "generate" => generate(&opts),
        "inspect" => inspect(&opts),
        "trust" => trust(&opts),
        "recommend" => recommend(&opts),
        "serve-bench" => serve_bench(&opts),
        "refresh-bench" => refresh_bench(&opts),
        "checkpoint" => checkpoint(&opts),
        "recover" => recover(&opts),
        "store-bench" => store_bench(&opts),
        "rank-bench" => rank_bench(&opts),
        "shard-bench" => shard_bench(&opts),
        "p2p-bench" => p2p_bench(&opts),
        other => usage(&format!("unknown command `{other}`")),
    }
}

struct Options {
    scale: String,
    format: String,
    seed: u64,
    out: PathBuf,
    data: PathBuf,
    agent: Option<String>,
    top: usize,
    diversify: Option<f64>,
    workers: usize,
    clients: usize,
    requests: usize,
    queue: usize,
    cache: usize,
    rounds: usize,
    churn: f64,
    store: PathBuf,
    blend: Option<String>,
    open_loop: Option<String>,
    shards: usize,
    partitioner: String,
    ticks: u64,
    rate: f64,
    slo_p99: u64,
    min_workers: usize,
    max_workers: usize,
    no_slo: bool,
    fanout: usize,
    cap: usize,
    ttl_hops: u32,
    range: u32,
    fault: f64,
    dead: f64,
}

impl Options {
    fn parse(args: &[String]) -> Self {
        let mut opts = Options {
            scale: "small".into(),
            format: "turtle".into(),
            seed: 42,
            out: PathBuf::from("./world"),
            data: PathBuf::from("./world"),
            agent: None,
            top: 10,
            diversify: None,
            workers: 2,
            clients: 4,
            requests: 100,
            queue: 1024,
            cache: 4096,
            rounds: 3,
            churn: 0.05,
            store: PathBuf::from("./checkpoints"),
            blend: None,
            shards: 8,
            partitioner: "hash".into(),
            open_loop: None,
            ticks: 200,
            rate: 8.0,
            slo_p99: 16,
            min_workers: 1,
            max_workers: 8,
            no_slo: false,
            fanout: 3,
            cap: 32,
            ttl_hops: 32,
            range: 1,
            fault: 0.0,
            dead: 0.0,
        };
        let mut i = 0;
        while i < args.len() {
            let value = |i: &mut usize| -> String {
                *i += 1;
                args.get(*i).cloned().unwrap_or_else(|| usage("missing option value"))
            };
            match args[i].as_str() {
                "--scale" => opts.scale = value(&mut i),
                "--format" => opts.format = value(&mut i),
                "--seed" => opts.seed = value(&mut i).parse().unwrap_or_else(|_| usage("bad seed")),
                "--out" => opts.out = PathBuf::from(value(&mut i)),
                "--data" => opts.data = PathBuf::from(value(&mut i)),
                "--agent" => opts.agent = Some(value(&mut i)),
                "--top" => opts.top = value(&mut i).parse().unwrap_or_else(|_| usage("bad top")),
                "--diversify" => {
                    opts.diversify =
                        Some(value(&mut i).parse().unwrap_or_else(|_| usage("bad theta")))
                }
                "--workers" => {
                    opts.workers = value(&mut i).parse().unwrap_or_else(|_| usage("bad workers"))
                }
                "--clients" => {
                    opts.clients = value(&mut i).parse().unwrap_or_else(|_| usage("bad clients"))
                }
                "--requests" => {
                    opts.requests = value(&mut i).parse().unwrap_or_else(|_| usage("bad requests"))
                }
                "--queue" => {
                    opts.queue = value(&mut i).parse().unwrap_or_else(|_| usage("bad queue"))
                }
                "--cache" => {
                    opts.cache = value(&mut i).parse().unwrap_or_else(|_| usage("bad cache"))
                }
                "--rounds" => {
                    opts.rounds = value(&mut i).parse().unwrap_or_else(|_| usage("bad rounds"))
                }
                "--churn" => {
                    opts.churn = value(&mut i).parse().unwrap_or_else(|_| usage("bad churn"))
                }
                "--store" => opts.store = PathBuf::from(value(&mut i)),
                "--blend" => opts.blend = Some(value(&mut i)),
                "--shards" => {
                    opts.shards = value(&mut i).parse().unwrap_or_else(|_| usage("bad shards"))
                }
                "--partitioner" => opts.partitioner = value(&mut i),
                "--open-loop" => opts.open_loop = Some(value(&mut i)),
                "--ticks" => {
                    opts.ticks = value(&mut i).parse().unwrap_or_else(|_| usage("bad ticks"))
                }
                "--rate" => {
                    opts.rate = value(&mut i).parse().unwrap_or_else(|_| usage("bad rate"))
                }
                "--slo-p99" => {
                    opts.slo_p99 = value(&mut i).parse().unwrap_or_else(|_| usage("bad slo-p99"))
                }
                "--min-workers" => {
                    opts.min_workers =
                        value(&mut i).parse().unwrap_or_else(|_| usage("bad min-workers"))
                }
                "--max-workers" => {
                    opts.max_workers =
                        value(&mut i).parse().unwrap_or_else(|_| usage("bad max-workers"))
                }
                "--no-slo" => opts.no_slo = true,
                "--fanout" => {
                    opts.fanout = value(&mut i).parse().unwrap_or_else(|_| usage("bad fanout"))
                }
                "--cap" => {
                    opts.cap = value(&mut i).parse().unwrap_or_else(|_| usage("bad cap"))
                }
                "--ttl" => {
                    opts.ttl_hops = value(&mut i).parse().unwrap_or_else(|_| usage("bad ttl"))
                }
                "--range" => {
                    opts.range = value(&mut i).parse().unwrap_or_else(|_| usage("bad range"))
                }
                "--fault" => {
                    opts.fault = value(&mut i).parse().unwrap_or_else(|_| usage("bad fault"))
                }
                "--dead" => {
                    opts.dead = value(&mut i).parse().unwrap_or_else(|_| usage("bad dead"))
                }
                other => usage(&format!("unknown option `{other}`")),
            }
            i += 1;
        }
        opts
    }
}

fn usage(reason: &str) -> ! {
    eprintln!("error: {reason}\n");
    eprintln!("usage: semrec <command> [options]");
    eprintln!("  generate  --scale small|medium|paper --seed N --out DIR [--format turtle|rdfxml]");
    eprintln!("  inspect   --data DIR");
    eprintln!("  trust     --data DIR --agent URI [--top N]");
    eprintln!("  recommend --data DIR --agent URI [--top N] [--diversify THETA]");
    eprintln!(
        "  serve-bench --scale small|medium|paper --seed N [--workers N] [--clients N]\n\
         \x20             [--requests N] [--queue N] [--cache N] [--top N]\n\
         \x20             [--open-loop poisson|diurnal|flash] [--ticks N] [--rate F]\n\
         \x20             [--slo-p99 N] [--min-workers N] [--max-workers N] [--no-slo]"
    );
    eprintln!(
        "  refresh-bench --scale small|medium|paper --seed N [--rounds N] [--churn F]\n\
         \x20               [--workers N]"
    );
    eprintln!("  checkpoint --data DIR --store DIR");
    eprintln!("  recover    --store DIR [--agent URI] [--top N]");
    eprintln!(
        "  store-bench --scale small|medium|paper --seed N [--rounds N] [--churn F]\n\
         \x20             [--store DIR]"
    );
    eprintln!(
        "  rank-bench --scale small|medium|paper --seed N [--top N] [--blend S,A,C]"
    );
    eprintln!(
        "  shard-bench --scale small|medium|paper --seed N [--shards N]\n\
         \x20             [--partitioner hash|community] [--requests N] [--top N]\n\
         \x20             [--churn F] [--workers N]"
    );
    eprintln!(
        "  p2p-bench --scale small|medium|paper --seed N [--rounds N] [--fanout N]\n\
         \x20           [--cap N] [--ttl N] [--range N] [--fault F] [--dead F]\n\
         \x20           [--top N] [--workers N]"
    );
    std::process::exit(2);
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

// --- generate ----------------------------------------------------------------

fn generate(opts: &Options) {
    let config = match opts.scale.as_str() {
        "small" => CommunityGenConfig::small(opts.seed),
        "medium" => CommunityGenConfig::medium(opts.seed),
        "paper" => CommunityGenConfig::paper_scale(opts.seed),
        other => usage(&format!("unknown scale `{other}`")),
    };
    println!("Generating {} community (seed {})…", opts.scale, opts.seed);
    let community = generate_community(&config).community;

    let agents_dir = opts.out.join("agents");
    std::fs::create_dir_all(&agents_dir).unwrap_or_else(|e| fail(&e.to_string()));

    let write = |path: &Path, body: &str| {
        std::fs::write(path, body).unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
    };
    write(
        &opts.out.join("taxonomy.ttl"),
        &semrec::rdf::writer::to_turtle(&globals::taxonomy_graph(&community.taxonomy, TAXONOMY_BASE)),
    );
    write(
        &opts.out.join("catalog.ttl"),
        &semrec::rdf::writer::to_turtle(&globals::catalog_graph(&community.catalog, TAXONOMY_BASE)),
    );
    let rdfxml = match opts.format.as_str() {
        "turtle" => false,
        "rdfxml" => true,
        other => usage(&format!("unknown format `{other}`")),
    };
    for agent in community.agents() {
        if rdfxml {
            write(
                &agents_dir.join(format!("{}.rdf", agent.index())),
                &semrec::web::publish::homepage_rdfxml(&community, agent),
            );
        } else {
            write(
                &agents_dir.join(format!("{}.ttl", agent.index())),
                &homepage_turtle(&community, agent),
            );
        }
    }
    println!(
        "Wrote {} agent homepages ({}) + taxonomy.ttl + catalog.ttl to {}",
        community.agent_count(),
        if rdfxml { "RDF/XML" } else { "Turtle" },
        opts.out.display()
    );
}

// --- loading -----------------------------------------------------------------

fn load(data: &Path) -> Community {
    let (taxonomy, catalog, extracted) = load_extracted(data);
    let (community, _) = semrec::web::crawler::assemble_community(&extracted, taxonomy, catalog);
    community
}

fn load_extracted(
    data: &Path,
) -> (semrec::taxonomy::Taxonomy, semrec::taxonomy::Catalog, Vec<semrec::web::extract::ExtractedAgent>)
{
    let read = |name: &str| -> String {
        std::fs::read_to_string(data.join(name))
            .unwrap_or_else(|e| fail(&format!("{}/{name}: {e}", data.display())))
    };
    let taxonomy_graph = semrec::rdf::turtle::parse(&read("taxonomy.ttl"))
        .unwrap_or_else(|e| fail(&format!("taxonomy.ttl: {e}")));
    let taxonomy = globals::extract_taxonomy(&taxonomy_graph, TAXONOMY_BASE)
        .unwrap_or_else(|e| fail(&format!("taxonomy.ttl: {e}")));
    let catalog_graph = semrec::rdf::turtle::parse(&read("catalog.ttl"))
        .unwrap_or_else(|e| fail(&format!("catalog.ttl: {e}")));
    let (catalog, skipped) = globals::extract_catalog(&catalog_graph, &taxonomy, TAXONOMY_BASE);
    if skipped > 0 {
        eprintln!("warning: {skipped} catalog entries skipped");
    }

    let agents_dir = data.join("agents");
    let mut extracted = Vec::new();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&agents_dir)
        .unwrap_or_else(|e| fail(&format!("{}: {e}", agents_dir.display())))
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "ttl" || ext == "rdf"))
        .collect();
    entries.sort();
    let mut parse_errors = 0usize;
    for path in entries {
        let body = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
        let parsed = if path.extension().is_some_and(|ext| ext == "rdf") {
            semrec::rdf::rdfxml::parse(&body)
        } else {
            semrec::rdf::turtle::parse(&body)
        };
        match parsed {
            Ok(graph) => extracted.extend(extract_agents(&graph)),
            Err(_) => parse_errors += 1,
        }
    }
    if parse_errors > 0 {
        eprintln!("warning: {parse_errors} homepages failed to parse");
    }
    (taxonomy, catalog, extracted)
}

fn resolve_agent(community: &Community, opts: &Options) -> semrec::AgentId {
    let Some(uri) = &opts.agent else { usage("--agent is required") };
    community
        .agent_by_uri(uri)
        .unwrap_or_else(|| fail(&format!("unknown agent `{uri}`")))
}

// --- commands ----------------------------------------------------------------

fn inspect(opts: &Options) {
    let community = load(&opts.data);
    let shape = semrec::taxonomy::stats(&community.taxonomy);
    let mut table = Table::new(["statistic", "value"]);
    table.row(["agents".to_string(), community.agent_count().to_string()]);
    table.row(["products".to_string(), community.catalog.len().to_string()]);
    table.row(["topics".to_string(), shape.topics.to_string()]);
    table.row(["taxonomy max depth".to_string(), shape.max_depth.to_string()]);
    table.row(["trust statements".to_string(), community.trust.edge_count().to_string()]);
    table.row(["ratings".to_string(), community.rating_count().to_string()]);
    table.row([
        "mean ratings / agent".to_string(),
        format!("{:.2}", community.mean_ratings_per_agent()),
    ]);
    table.row([
        "mean trust out-degree".to_string(),
        format!("{:.2}", community.trust.mean_out_degree()),
    ]);
    println!("{}", table.render());
}

fn trust(opts: &Options) {
    let community = load(&opts.data);
    let agent = resolve_agent(&community, opts);
    let result = appleseed(&community.trust, agent, &AppleseedParams::default())
        .unwrap_or_else(|e| fail(&e.to_string()));
    println!(
        "Appleseed from {}: {} nodes discovered, {} iterations\n",
        opts.agent.as_deref().unwrap_or(""),
        result.nodes_discovered,
        result.iterations
    );
    let mut table = Table::new(["rank", "agent", "trust"]);
    for (i, &(peer, rank)) in result.top(opts.top).iter().enumerate() {
        table.row([
            (i + 1).to_string(),
            community.agent(peer).map(|a| a.uri.clone()).unwrap_or_default(),
            format!("{rank:.4}"),
        ]);
    }
    println!("{}", table.render());
}

fn recommend(opts: &Options) {
    let community = load(&opts.data);
    let agent = resolve_agent(&community, opts);
    let engine = Recommender::new(community, RecommenderConfig::default());
    let mut recommendations = engine
        .recommend(agent, opts.top.max(20))
        .unwrap_or_else(|e| fail(&e.to_string()));
    if let Some(theta) = opts.diversify {
        recommendations = semrec::core::diversify::diversify(
            &engine.community().taxonomy,
            &engine.community().catalog,
            &recommendations,
            opts.top,
            theta,
        );
    }
    recommendations.truncate(opts.top);

    if recommendations.is_empty() {
        println!("No recommendations — the agent's trust neighborhood is empty.");
        return;
    }
    let mut table = Table::new(["#", "product", "title", "score", "voters"]);
    for (i, rec) in recommendations.iter().enumerate() {
        let product = engine.community().catalog.product(rec.product);
        table.row([
            (i + 1).to_string(),
            product.identifier.clone(),
            product.title.clone(),
            format!("{:.3}", rec.score),
            rec.voters.to_string(),
        ]);
    }
    println!("{}", table.render());
}

fn serve_bench(opts: &Options) {
    let config = match opts.scale.as_str() {
        "small" => CommunityGenConfig::small(opts.seed),
        "medium" => CommunityGenConfig::medium(opts.seed),
        "paper" => CommunityGenConfig::paper_scale(opts.seed),
        other => usage(&format!("unknown scale `{other}`")),
    };
    if let Some(process) = &opts.open_loop {
        return serve_bench_open_loop(opts, &config, process);
    }
    println!(
        "Generating {} community (seed {}) and serving it with {} worker(s)…",
        opts.scale, opts.seed, opts.workers
    );
    let community = generate_community(&config).community;
    let panel: Vec<semrec::AgentId> = community.agents().take(64).collect();
    let engine = Recommender::new(community, RecommenderConfig::default());

    let server = Server::start(
        engine,
        ServeConfig {
            workers: opts.workers,
            queue_capacity: opts.queue,
            cache_capacity: opts.cache,
            ..ServeConfig::default()
        },
    );
    let report = run_load(
        &server,
        &panel,
        &LoadGenConfig {
            clients: opts.clients,
            requests_per_client: opts.requests,
            top_n: opts.top,
            seed: opts.seed,
            ..LoadGenConfig::default()
        },
    );

    let mut table = Table::new(["measure", "value"]);
    table.row(["requests attempted".to_string(), report.attempts.to_string()]);
    table.row(["served".to_string(), report.served.to_string()]);
    table.row(["shed (admission)".to_string(), report.shed_admission.to_string()]);
    table.row(["shed (deadline)".to_string(), report.shed_deadline.to_string()]);
    table.row(["failed".to_string(), report.failed.to_string()]);
    table.row(["throughput (req/s)".to_string(), format!("{:.0}", report.throughput())]);
    table.row(["latency p50 (ms)".to_string(), format!("{:.3}", report.latency.p50 * 1e3)]);
    table.row(["latency p95 (ms)".to_string(), format!("{:.3}", report.latency.p95 * 1e3)]);
    table.row(["latency p99 (ms)".to_string(), format!("{:.3}", report.latency.p99 * 1e3)]);
    table.row(["cache hit rate".to_string(), format!("{:.3}", report.cache_hit_rate())]);
    table.row(["snapshot epoch".to_string(), server.epoch().to_string()]);
    println!("{}", table.render());
}

/// Open-loop serve-bench: drive the lockstep server with an arrival
/// process on the virtual tick axis and report goodput-under-SLO by
/// priority class. Deterministic for a given seed.
fn serve_bench_open_loop(opts: &Options, config: &CommunityGenConfig, process: &str) {
    use semrec::serve::{
        run_open_loop, ArrivalProcess, OpenLoopConfig, Priority, ScalerConfig, SloConfig,
    };

    let process = match process {
        "poisson" => ArrivalProcess::Poisson { rate: opts.rate },
        "diurnal" => ArrivalProcess::Diurnal { base: 1.0, peak: opts.rate },
        "flash" => ArrivalProcess::FlashCrowd {
            base: opts.rate / 4.0,
            spike: opts.rate * 4.0,
            start: opts.ticks / 4,
            len: opts.ticks * 3 / 8,
            hot_agents: 6,
            hot_fraction: 0.7,
        },
        other => usage(&format!("unknown arrival process `{other}`")),
    };
    println!(
        "Generating {} community (seed {}); open-loop {} trace over {} ticks\n\
         (SLO {}, p99 target {} ticks, workers {}–{})…",
        opts.scale,
        opts.seed,
        opts.open_loop.as_deref().unwrap_or("?"),
        opts.ticks,
        if opts.no_slo { "OFF" } else { "on" },
        opts.slo_p99,
        opts.min_workers,
        opts.max_workers,
    );
    let community = generate_community(config).community;
    let panel: Vec<semrec::AgentId> = community.agents().take(64).collect();
    let engine = Recommender::new(community, RecommenderConfig::default());
    let server = Server::start(
        engine,
        ServeConfig {
            workers: 0,
            queue_capacity: opts.queue,
            cache_capacity: opts.cache,
            ..ServeConfig::default()
        },
    );
    let report = run_open_loop(
        &server,
        &panel,
        &OpenLoopConfig {
            ticks: opts.ticks,
            process,
            top_n: opts.top,
            seed: opts.seed,
            slo: SloConfig {
                target_p99_wait_ticks: opts.slo_p99,
                ..SloConfig::default()
            },
            enforce_slo: !opts.no_slo,
            scaler: ScalerConfig {
                min_workers: opts.min_workers.max(1),
                max_workers: opts.max_workers.max(opts.min_workers.max(1)),
                ..ScalerConfig::default()
            },
            ..OpenLoopConfig::default()
        },
    );

    let mut table = Table::new([
        "class", "offered", "admitted", "served", "goodput", "good %", "shed adm", "displ",
        "shed dl", "wait p50", "wait p95", "wait p99",
    ]);
    for class in Priority::ALL {
        let c = report.class.get(class);
        table.row([
            class.label().to_string(),
            c.offered.to_string(),
            c.admitted.to_string(),
            c.served.to_string(),
            c.goodput.to_string(),
            format!("{:.3}", c.goodput_rate()),
            c.shed_admission.to_string(),
            c.displaced.to_string(),
            c.shed_deadline.to_string(),
            c.wait_p50.to_string(),
            c.wait_p95.to_string(),
            c.wait_p99.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "{} offered, {} served, {} goodput-under-SLO; {} scale events (peak {}\n\
         workers), {} ticks run, {} lost.",
        report.offered(),
        report.served(),
        report.goodput(),
        report.scale_events,
        report.peak_workers,
        report.ticks_run,
        report.lost,
    );
    server.shutdown();
}

fn refresh_bench(opts: &Options) {
    use semrec::web::crawler::{crawl, refresh, CommunityBuilder, CrawlConfig};
    use semrec::web::publish::{homepage_turtle, homepage_uri, publish_community};
    use semrec::web::store::DocumentWeb;

    let mut config = match opts.scale.as_str() {
        "small" => CommunityGenConfig::small(opts.seed),
        "medium" => CommunityGenConfig::medium(opts.seed),
        "paper" => CommunityGenConfig::paper_scale(opts.seed),
        other => usage(&format!("unknown scale `{other}`")),
    };
    // Sparse graph + tight horizon: the regime where a small delta's
    // reverse-trust closure stays a small fraction of the community, so the
    // swap can carry cache entries instead of invalidating wholesale.
    config.mean_trust_edges = 2.5;
    let engine_config = RecommenderConfig {
        neighborhood: semrec::trust::neighborhood::NeighborhoodParams {
            appleseed: AppleseedParams { max_range: Some(2), ..Default::default() },
            ..Default::default()
        },
        ..Default::default()
    };
    let horizon = engine_config.neighborhood.appleseed.max_range;

    println!(
        "Generating {} community (seed {}), then {} refresh rounds at churn {:.2}…",
        opts.scale, opts.seed, opts.rounds, opts.churn
    );
    let mut source = generate_community(&config).community;
    let agents = source.agent_count();
    let products: Vec<_> = source.catalog.iter().collect();
    let seeds: Vec<String> =
        source.agents().map(|a| source.agent(a).map(|i| i.uri.clone()).unwrap()).collect();

    let web = DocumentWeb::new();
    publish_community(&source, &web);
    let crawl_config = CrawlConfig::default();
    let mut previous = crawl(&web, &seeds, &crawl_config);
    let mut builder = CommunityBuilder::new(&previous.agents);
    let (community, _) = builder.build(source.taxonomy.clone(), source.catalog.clone());
    let mut engine = Recommender::new(community, engine_config);
    let panel: Vec<semrec::AgentId> = engine.community().agents().take(64).collect();

    let server = Server::start(
        engine.clone(),
        ServeConfig { workers: opts.workers, ..ServeConfig::default() },
    );
    for &agent in &panel {
        let _ = server.submit(agent, opts.top).unwrap_or_else(|e| fail(&e.to_string())).wait();
    }

    let mut table = Table::new([
        "round", "touched", "reused", "recomp", "inc ms", "full ms", "dirty", "swap", "carried",
        "hit rate",
    ]);
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x5eed);
    for round in 1..=opts.rounds {
        let republishers = ((agents as f64 * opts.churn) as usize).max(1);
        for _ in 0..republishers {
            let agent = semrec::AgentId::from_index(rng.random_range(0..agents));
            let product = products[rng.random_range(0..products.len())];
            let rating = -1.0 + 2.0 * rng.random::<f64>();
            source.set_rating(agent, product, rating).unwrap_or_else(|e| fail(&e.to_string()));
            let uri = source.agent(agent).map(|i| i.uri.clone()).unwrap();
            web.publish(homepage_uri(&uri), homepage_turtle(&source, agent), "text/turtle");
        }

        let result = refresh(&web, &seeds, &crawl_config, &previous);
        let delta = result.delta.clone().expect("refresh always diffs");
        let model_delta = delta.model_delta();
        let health = result.health();

        let started = std::time::Instant::now();
        builder.apply_delta(&delta);
        let (next_community, _) = builder.build(source.taxonomy.clone(), source.catalog.clone());
        let (next_engine, stats) = engine.advance(next_community, &model_delta, health);
        let incremental_ms = started.elapsed().as_secs_f64() * 1e3;

        let started = std::time::Instant::now();
        std::hint::black_box(SharedModel::new(next_engine.community().clone(), engine_config));
        let full_ms = started.elapsed().as_secs_f64() * 1e3;

        let plan = SwapPlan::compute(
            engine.community(),
            next_engine.community(),
            &model_delta,
            horizon,
            SwapPlan::DEFAULT_MAX_DIRTY_FRACTION,
        );
        let report = server.publish_delta(next_engine.clone(), &plan);

        let mut hits = 0usize;
        for &agent in &panel {
            let response = server
                .submit(agent, opts.top)
                .unwrap_or_else(|e| fail(&e.to_string()))
                .wait()
                .unwrap_or_else(|e| fail(&e.to_string()));
            if response.cache_hit {
                hits += 1;
            }
        }

        table.row([
            round.to_string(),
            delta.touched().to_string(),
            stats.reused.to_string(),
            stats.recomputed.to_string(),
            format!("{incremental_ms:.2}"),
            format!("{full_ms:.2}"),
            plan.dirty_count().to_string(),
            if report.wholesale { "whole".to_string() } else { "carry".to_string() },
            report.carried.to_string(),
            format!("{:.3}", hits as f64 / panel.len() as f64),
        ]);

        engine = next_engine;
        previous = result;
    }
    println!("{}", table.render());
    let cache = server.cache_stats();
    println!(
        "cache: {} hits, {} misses, {} carried, {} invalidated",
        cache.hits, cache.misses, cache.carried, cache.invalidated
    );
}

fn checkpoint(opts: &Options) {
    use semrec::store::Store;
    use semrec::web::crawler::CommunityBuilder;

    let (taxonomy, catalog, extracted) = load_extracted(&opts.data);
    let builder = CommunityBuilder::new(&extracted);
    let (community, _) = builder.build(taxonomy, catalog);
    let engine = Recommender::new(community, RecommenderConfig::default());

    let store = Store::open(&opts.store).unwrap_or_else(|e| fail(&e.to_string()));
    let report = store
        .checkpoint(&engine, builder.agents(), 1)
        .unwrap_or_else(|e| fail(&e.to_string()));
    println!(
        "Checkpointed {} agents as snapshot {} ({} bytes) in {}",
        engine.community().agent_count(),
        report.seq,
        report.snapshot_bytes,
        opts.store.display()
    );
}

fn recover(opts: &Options) {
    use semrec::store::Store;

    let store = Store::open(&opts.store).unwrap_or_else(|e| fail(&e.to_string()));
    let recovery = store.recover().unwrap_or_else(|e| fail(&e.to_string()));

    let mut table = Table::new(["measure", "value"]);
    table.row(["snapshot seq".to_string(), recovery.snapshot_seq.to_string()]);
    table.row(["snapshot epoch".to_string(), recovery.snapshot_epoch.to_string()]);
    table.row(["wal records replayed".to_string(), recovery.replayed.to_string()]);
    table.row(["resume epoch".to_string(), recovery.epoch.to_string()]);
    table.row(["agents".to_string(), recovery.engine.community().agent_count().to_string()]);
    table.row([
        "snapshots skipped (corrupt)".to_string(),
        recovery.skipped.len().to_string(),
    ]);
    table.row([
        "wal status".to_string(),
        match &recovery.wal_error {
            None => "clean".to_string(),
            Some(e) => format!("degraded: {e}"),
        },
    ]);
    println!("{}", table.render());
    for (seq, error) in &recovery.skipped {
        eprintln!("warning: snapshot {seq} skipped: {error}");
    }

    if opts.agent.is_some() {
        let agent = resolve_agent(recovery.engine.community(), opts);
        let recommendations =
            recovery.engine.recommend(agent, opts.top).unwrap_or_else(|e| fail(&e.to_string()));
        let mut table = Table::new(["#", "product", "score"]);
        for (i, rec) in recommendations.iter().enumerate() {
            let product = recovery.engine.community().catalog.product(rec.product);
            table.row([
                (i + 1).to_string(),
                product.identifier.clone(),
                format!("{:.3}", rec.score),
            ]);
        }
        println!("{}", table.render());
    }
}

fn store_bench(opts: &Options) {
    use semrec::store::Store;
    use semrec::web::crawler::{crawl, refresh, CommunityBuilder, CrawlConfig};
    use semrec::web::publish::{homepage_uri, publish_community};
    use semrec::web::store::DocumentWeb;

    let config = match opts.scale.as_str() {
        "small" => CommunityGenConfig::small(opts.seed),
        "medium" => CommunityGenConfig::medium(opts.seed),
        "paper" => CommunityGenConfig::paper_scale(opts.seed),
        other => usage(&format!("unknown scale `{other}`")),
    };
    println!(
        "Generating {} community (seed {}), checkpointing, then {} WAL rounds at churn {:.2}…",
        opts.scale, opts.seed, opts.rounds, opts.churn
    );
    let mut source = generate_community(&config).community;
    let agents = source.agent_count();
    let products: Vec<_> = source.catalog.iter().collect();
    let seeds: Vec<String> =
        source.agents().map(|a| source.agent(a).map(|i| i.uri.clone()).unwrap()).collect();

    let web = DocumentWeb::new();
    publish_community(&source, &web);
    let crawl_config = CrawlConfig::default();
    let mut previous = crawl(&web, &seeds, &crawl_config);
    let mut builder = CommunityBuilder::new(&previous.agents);
    let (community, _) = builder.build(source.taxonomy.clone(), source.catalog.clone());
    let mut engine = Recommender::new(community, RecommenderConfig::default());

    let store = Store::open(&opts.store).unwrap_or_else(|e| fail(&e.to_string()));
    let report = store
        .checkpoint(&engine, builder.agents(), 1)
        .unwrap_or_else(|e| fail(&e.to_string()));

    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x5704e);
    for _ in 0..opts.rounds {
        let republishers = ((agents as f64 * opts.churn) as usize).max(1);
        for _ in 0..republishers {
            let agent = semrec::AgentId::from_index(rng.random_range(0..agents));
            let product = products[rng.random_range(0..products.len())];
            let rating = -1.0 + 2.0 * rng.random::<f64>();
            source.set_rating(agent, product, rating).unwrap_or_else(|e| fail(&e.to_string()));
            let uri = source.agent(agent).map(|i| i.uri.clone()).unwrap();
            web.publish(homepage_uri(&uri), homepage_turtle(&source, agent), "text/turtle");
        }
        let result = refresh(&web, &seeds, &crawl_config, &previous);
        let delta = result.delta.clone().expect("refresh always diffs");
        let health = result.health();
        store.append_delta(&delta, &health).unwrap_or_else(|e| fail(&e.to_string()));

        builder.apply_delta(&delta);
        let (next, _) = builder.build(source.taxonomy.clone(), source.catalog.clone());
        let (advanced, _) = engine.advance(next, &delta.model_delta(), health);
        engine = advanced;
        previous = result;
    }

    // Cold rebuild: re-derive the whole model from the standing view.
    let started = std::time::Instant::now();
    let rebuilt = CommunityBuilder::new(builder.agents());
    let (cold, _) = rebuilt.build(source.taxonomy.clone(), source.catalog.clone());
    std::hint::black_box(Recommender::new(cold, RecommenderConfig::default()));
    let cold_ms = started.elapsed().as_secs_f64() * 1e3;

    // Warm recovery: snapshot + WAL replay.
    let started = std::time::Instant::now();
    let recovery = store.recover().unwrap_or_else(|e| fail(&e.to_string()));
    let recover_ms = started.elapsed().as_secs_f64() * 1e3;

    let identical = {
        let live: Vec<_> = engine
            .community()
            .agents()
            .flat_map(|a| engine.recommend(a, 5).unwrap_or_default())
            .map(|r| (r.product, r.score.to_bits()))
            .collect();
        let recovered: Vec<_> = recovery
            .engine
            .community()
            .agents()
            .flat_map(|a| recovery.engine.recommend(a, 5).unwrap_or_default())
            .map(|r| (r.product, r.score.to_bits()))
            .collect();
        live == recovered
    };

    let mut table = Table::new(["measure", "value"]);
    table.row(["agents".to_string(), agents.to_string()]);
    table.row(["snapshot bytes".to_string(), report.snapshot_bytes.to_string()]);
    table.row([
        "wal bytes".to_string(),
        store.wal_bytes().unwrap_or_else(|e| fail(&e.to_string())).to_string(),
    ]);
    table.row(["wal records replayed".to_string(), recovery.replayed.to_string()]);
    table.row(["cold rebuild (ms)".to_string(), format!("{cold_ms:.2}")]);
    table.row(["snapshot+wal recovery (ms)".to_string(), format!("{recover_ms:.2}")]);
    table.row([
        "recovered ≡ live (bit-for-bit)".to_string(),
        if identical { "yes".to_string() } else { "NO".to_string() },
    ]);
    println!("{}", table.render());
    if !identical {
        fail("recovered model diverged from the live model");
    }
}

fn rank_bench(opts: &Options) {
    use semrec::core::{BlendWeights, SpreadingActivationRanker, SpreadingParams};
    use std::sync::Arc;

    let config = match opts.scale.as_str() {
        "small" => CommunityGenConfig::small(opts.seed),
        "medium" => CommunityGenConfig::medium(opts.seed),
        "paper" => CommunityGenConfig::paper_scale(opts.seed),
        other => usage(&format!("unknown scale `{other}`")),
    };
    let blend = match &opts.blend {
        None => BlendWeights::default(),
        Some(spec) => {
            let parts: Vec<f64> =
                spec.split(',').map(|p| p.trim().parse().unwrap_or_else(|_| usage("bad blend"))).collect();
            let [similarity, activation, centrality] = parts[..] else {
                usage("--blend wants three comma-separated weights, e.g. 0.5,0.3,0.2")
            };
            BlendWeights { similarity, activation, centrality }
        }
    };
    println!(
        "Generating {} community (seed {}), ranking every agent with both rankers…",
        opts.scale, opts.seed
    );
    let community = generate_community(&config).community;
    let panel: Vec<semrec::AgentId> = community.agents().take(256).collect();

    let baseline = Recommender::new(community.clone(), RecommenderConfig::default());
    let spreading = Recommender::with_ranker(
        community,
        RecommenderConfig::default(),
        Arc::new(SpreadingActivationRanker::new(SpreadingParams {
            blend,
            ..SpreadingParams::default()
        })),
    );

    // (label, engine) × panel → latency + top-N overlap against baseline.
    let time_engine = |engine: &Recommender| -> (f64, Vec<Vec<semrec::ProductId>>) {
        let started = std::time::Instant::now();
        let tops: Vec<Vec<semrec::ProductId>> = panel
            .iter()
            .map(|&agent| {
                engine
                    .recommend(agent, opts.top)
                    .map(|r| r.into_iter().map(|x| x.product).collect())
                    .unwrap_or_default()
            })
            .collect();
        (started.elapsed().as_secs_f64() * 1e6 / panel.len() as f64, tops)
    };
    let (base_us, base_tops) = time_engine(&baseline);
    let (spread_us, spread_tops) = time_engine(&spreading);

    let mut overlap_sum = 0.0;
    let mut compared = 0usize;
    for (b, s) in base_tops.iter().zip(&spread_tops) {
        if b.is_empty() {
            continue;
        }
        let hits = s.iter().filter(|p| b.contains(p)).count();
        overlap_sum += hits as f64 / b.len() as f64;
        compared += 1;
    }
    let norm = blend.normalized();

    let mut table = Table::new(["measure", "similarity", "spreading-activation"]);
    table.row(["ranker".to_string(), baseline.ranker().name().to_string(), spreading.ranker().name().to_string()]);
    table.row([
        "blend (sim/act/cent)".to_string(),
        "1.00/0.00/0.00".to_string(),
        format!("{:.2}/{:.2}/{:.2}", norm.similarity, norm.activation, norm.centrality),
    ]);
    table.row([
        "mean latency (µs/agent)".to_string(),
        format!("{base_us:.1}"),
        format!("{spread_us:.1}"),
    ]);
    table.row([
        format!("overlap@{} vs similarity", opts.top),
        "1.000".to_string(),
        format!("{:.3}", if compared > 0 { overlap_sum / compared as f64 } else { 0.0 }),
    ]);
    table.row([
        "recommendations".to_string(),
        base_tops.iter().map(Vec::len).sum::<usize>().to_string(),
        spread_tops.iter().map(Vec::len).sum::<usize>().to_string(),
    ]);
    println!("{}", table.render());
}

fn p2p_bench(opts: &Options) {
    use semrec::p2p::{centralized_baseline, GossipConfig, P2pSimulation};
    use semrec::web::fault::FaultPlan;
    use semrec::web::publish::publish_community;
    use semrec::web::store::DocumentWeb;

    let config = match opts.scale.as_str() {
        "small" => CommunityGenConfig::small(opts.seed),
        "medium" => CommunityGenConfig::medium(opts.seed),
        "paper" => CommunityGenConfig::paper_scale(opts.seed),
        other => usage(&format!("unknown scale `{other}`")),
    };
    println!(
        "Generating {} community (seed {}); one peer node per agent, crawl range {},\n\
         then {} gossip rounds at fan-out {} (cap {} records, TTL {},\n\
         {:.0}% transient faults, {:.0}% dead peers)…",
        opts.scale,
        opts.seed,
        opts.range,
        opts.rounds,
        opts.fanout,
        opts.cap,
        opts.ttl_hops,
        opts.fault * 100.0,
        opts.dead * 100.0,
    );
    let community = generate_community(&config).community;
    let web = DocumentWeb::new();
    publish_community(&community, &web);

    let mut uris: Vec<String> =
        community.agents().map(|a| community.agent(a).unwrap().uri.clone()).collect();
    uris.sort();
    let panel: Vec<String> =
        uris.iter().step_by((uris.len() / 64).max(1)).cloned().collect();

    let gossip = GossipConfig {
        seed: opts.seed,
        fanout: opts.fanout,
        max_records: opts.cap.max(1),
        ttl: opts.ttl_hops,
        crawl_range: opts.range,
        threads: opts.workers.max(1),
        ..GossipConfig::default()
    };
    let baseline = centralized_baseline(&community, &gossip.neighborhood, &panel, opts.top);
    let plan = FaultPlan {
        transient_rate: opts.fault,
        dead_rate: opts.dead,
        seed: opts.seed,
        ..FaultPlan::none()
    };

    let mut sim = P2pSimulation::bootstrap(&web, &uris, plan, gossip);
    let mut table = Table::new([
        "round",
        &format!("overlap@{}", opts.top),
        "rank corr",
        "known/peer",
        "messages",
        "kB sent",
    ]);
    for round in 0..=opts.rounds as u32 {
        if round > 0 {
            sim.step();
        }
        let c = sim.convergence(&baseline);
        let stats = sim.stats();
        table.row([
            round.to_string(),
            format!("{:.3}", c.mean_overlap),
            format!("{:.3}", c.mean_rho),
            format!("{:.1}", c.mean_known),
            stats.messages_sent.to_string(),
            (stats.bytes_sent / 1024).to_string(),
        ]);
    }
    println!("{}", table.render());

    let stats = sim.stats();
    let dead = sim.peers().iter().filter(|p| p.is_dead()).count();
    println!(
        "{} peers ({} dead); {} exchanges failed, {} suppressed by open breakers,\n\
         {} gossip-phase breaker opens; {} records merged, {} duplicate deliveries.",
        sim.peers().len(),
        dead,
        stats.messages_failed,
        stats.messages_suppressed,
        stats.breaker_opens,
        stats.records_merged,
        stats.records_duplicate,
    );
}

fn shard_bench(opts: &Options) {
    use semrec::core::ModelDelta;
    use semrec::shard::{cut_edges, CommunityShardFn, GlobalId, HashShardFn, ShardFn, ShardedModel};
    use std::sync::Arc;

    let config = match opts.scale.as_str() {
        "small" => CommunityGenConfig::small(opts.seed),
        "medium" => CommunityGenConfig::medium(opts.seed),
        "paper" => CommunityGenConfig::paper_scale(opts.seed),
        other => usage(&format!("unknown scale `{other}`")),
    };
    let shard_fn: Arc<dyn ShardFn> = match opts.partitioner.as_str() {
        "hash" => Arc::new(HashShardFn),
        "community" => Arc::new(CommunityShardFn::default()),
        other => usage(&format!("unknown partitioner `{other}`")),
    };
    let max_shards = opts.shards.max(1);
    println!(
        "Generating {} community (seed {}); sweeping 1..={} shards ({} partitioner)…",
        opts.scale, opts.seed, max_shards, shard_fn.name()
    );
    let community = generate_community(&config).community;
    let agents = community.agent_count();

    // Powers of two up to --shards, always ending on --shards itself.
    let mut sweep = vec![1usize];
    while *sweep.last().unwrap() * 2 < max_shards {
        sweep.push(sweep.last().unwrap() * 2);
    }
    if max_shards > 1 {
        sweep.push(max_shards);
    }

    let panel: Vec<GlobalId> = {
        let queries = opts.requests.min(agents).max(1);
        (0..queries).map(|i| GlobalId((i * (agents / queries)) as u32)).collect()
    };
    let churned = ((agents as f64 * opts.churn) as usize).clamp(1, agents);

    let mut table = Table::new([
        "shards", "cut %", "build cp ms", "build eff", "refresh cp ms", "refresh eff",
        "recomp", "reused", "serve µs/q", "remote/q",
    ]);
    let mut base_build = 0.0f64;
    let mut base_refresh = 0.0f64;
    for &n in &sweep {
        let assignment = shard_fn.partition(&community, n);
        let (cut, total) = cut_edges(&community, &assignment);
        let (model, build) =
            ShardedModel::partition(&community, RecommenderConfig::default(), shard_fn.clone(), n, opts.workers);
        let build_cp = build.critical_path().as_secs_f64();
        if n == 1 {
            base_build = build_cp;
        }

        // Strided churn across the whole universe, then a sharded advance.
        let mut next = community.clone();
        let mut uris = Vec::with_capacity(churned);
        let products: Vec<semrec::ProductId> = next.catalog.iter().collect();
        for k in 0..churned {
            let agent = semrec::AgentId::from_index(k * (agents / churned));
            next.set_rating(agent, products[k % products.len()], 0.5)
                .unwrap_or_else(|e| fail(&e.to_string()));
            uris.push(next.agent(agent).map(|i| i.uri.clone()).unwrap());
        }
        let (_, refresh) = model.advance(
            &next,
            &ModelDelta { ratings_changed: uris, trust_changed: Vec::new() },
        );
        let refresh_cp = refresh.critical_path().as_secs_f64();
        if n == 1 {
            base_refresh = refresh_cp;
        }

        let counter = |name: &str| -> u64 {
            semrec::obs::global().snapshot().counters.get(name).copied().unwrap_or(0)
        };
        let remote_before = counter("shard.remote.discovered");
        let started = std::time::Instant::now();
        let batch = model.recommend_batch(&panel, opts.top);
        let serve_us = started.elapsed().as_secs_f64() * 1e6 / panel.len() as f64;
        for result in &batch {
            result.as_ref().unwrap_or_else(|e| fail(&e.to_string()));
        }
        let remote = counter("shard.remote.discovered") - remote_before;

        table.row([
            n.to_string(),
            format!("{:.1}", 100.0 * cut as f64 / total.max(1) as f64),
            format!("{:.1}", build_cp * 1e3),
            format!("{:.3}", base_build / (n as f64 * build_cp).max(f64::MIN_POSITIVE)),
            format!("{:.1}", refresh_cp * 1e3),
            format!("{:.3}", base_refresh / (n as f64 * refresh_cp).max(f64::MIN_POSITIVE)),
            refresh.profiles_recomputed.to_string(),
            refresh.profiles_reused.to_string(),
            format!("{serve_us:.1}"),
            format!("{:.2}", remote as f64 / panel.len() as f64),
        ]);
    }
    println!("{}", table.render());
    println!(
        "{} agents; efficiency is the modeled critical path T(1)/(N·max_i T_i) —\n\
         the wall-clock a one-node-per-shard deployment would see.",
        agents
    );
}
