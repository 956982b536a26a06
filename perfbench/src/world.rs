//! Seeded synthetic worlds, churn, and the measured set-up path.

use std::fs;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::io::{BufRead as _, BufReader, BufWriter, Write as _};
use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use semrec_core::{AgentId, Community, ProductId, Recommender, RecommenderConfig};
use semrec_datagen::catalog_gen::generate_catalog;
use semrec_datagen::community::{generate_community, CommunityGenConfig};
use semrec_datagen::taxonomy_gen::generate_taxonomy;
use semrec_serve::{ServeConfig, Server};
use semrec_trust::appleseed::AppleseedParams;
use semrec_trust::neighborhood::NeighborhoodParams;
use semrec_web::crawler::{crawl, CommunityBuilder, CrawlConfig, CrawlResult};
use semrec_web::publish::{homepage_turtle, homepage_uri, publish_community};
use semrec_web::store::DocumentWeb;

use crate::trace::Tracer;
use crate::{Scale, Workload};

/// Generator seed of the community. The world is a fixed data set, like
/// the paper's crawl: cold-query cost differs by tens of percent between
/// generated communities, which would swamp every run-to-run comparison.
pub const WORLD_SEED: u64 = 42;

/// Fraction of agents that republish in one churn batch.
pub const CHURN: f64 = 0.01;

/// The published document web plus the source community it was
/// published from (kept to republish churn).
pub struct World {
    /// The ground-truth community the documents were generated from.
    pub source: Community,
    /// The in-memory document web the crawler reads.
    pub web: DocumentWeb,
    /// Homepage URIs the crawl starts from (every agent).
    pub seeds: Vec<String>,
    /// Engine configuration of this workload.
    pub config: RecommenderConfig,
    /// Generator configuration (recorded as provenance).
    pub gen: CommunityGenConfig,
    /// Wall seconds spent generating (or loading) the community; not
    /// part of set-up.
    pub gen_s: f64,
    /// Whether the community came from the cache file.
    pub cached: bool,
    /// Wall seconds spent publishing the homepages (not set-up).
    pub publish_s: f64,
    products: Vec<ProductId>,
    rng: StdRng,
}

impl World {
    /// Generates and publishes the world of `workload` at `scale`. The
    /// community is the same for every run ([`WORLD_SEED`]); `seed` drives
    /// the traffic and churn drawn from [`World::rng`].
    pub fn generate(workload: Workload, scale: Scale, seed: u64, cache_dir: &Path) -> World {
        let started = Instant::now();
        let mut gen = match scale {
            Scale::Paper => CommunityGenConfig::paper_scale(WORLD_SEED),
            Scale::Small => CommunityGenConfig::small(WORLD_SEED),
        };
        let mut config = RecommenderConfig::default();
        if workload == Workload::ServeChurn {
            // E17's regime: a sparse trust graph and a 2-hop horizon, where
            // a 1% delta's reverse-trust closure stays a small share of the
            // community and the swap plan carries the cache.
            gen.mean_trust_edges = 2.5;
            config.neighborhood = NeighborhoodParams {
                appleseed: AppleseedParams {
                    max_range: Some(2),
                    ..Default::default()
                },
                ..Default::default()
            };
        }
        let (source, cached) = load_or_generate(&gen, cache_dir);
        let gen_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let web = DocumentWeb::new();
        publish_community(&source, &web);
        let publish_s = started.elapsed().as_secs_f64();

        let seeds = source
            .agents()
            .map(|a| agent_uri(&source, a).to_string())
            .collect();
        let products = source.catalog.iter().collect();
        World {
            source,
            web,
            seeds,
            config,
            gen,
            gen_s,
            cached,
            publish_s,
            products,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A seeded generator for traffic derived from this world's seed.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Republishes a [`CHURN`] share of agents, each re-rating one product.
    /// Returns how many homepages were republished.
    pub fn churn(&mut self) -> usize {
        let agents = self.source.agent_count();
        let republishers = ((agents as f64 * CHURN) as usize).max(1);
        for _ in 0..republishers {
            let agent = AgentId::from_index(self.rng.random_range(0..agents));
            let product = self.products[self.rng.random_range(0..self.products.len())];
            let rating = -1.0 + 2.0 * self.rng.random::<f64>();
            self.source
                .set_rating(agent, product, rating)
                .expect("generated ids and ratings are valid");
            let uri = homepage_uri(agent_uri(&self.source, agent));
            self.web
                .publish(uri, homepage_turtle(&self.source, agent), "text/turtle");
        }
        republishers
    }

    /// Crawl configuration with the fan-out set to `threads`.
    pub fn crawl_config(threads: usize) -> CrawlConfig {
        CrawlConfig {
            threads,
            ..Default::default()
        }
    }
}

/// Header of the community cache file; bump it when the layout changes.
const CACHE_HEADER: &str = "semrec-perfbench community v2";

/// The community of `gen`, read from the cache file in `cache_dir` when
/// one exists for this executable and this configuration and its
/// fingerprint checks, else generated and written there (replacing the
/// files older builds left). The file holds agents, trust statements and
/// ratings (floats as raw bits, so the load is exact); the taxonomy and
/// catalog are regenerated from their seeds, which is cheap. Generation is
/// harness work, ~8.5 s a run at paper scale, and the community is fixed
/// ([`WORLD_SEED`]).
///
/// The file name carries a hash of this executable's bytes, so a rebuild
/// after any change to the generator or to `Community` generates afresh
/// instead of reading a world an older build wrote.
fn load_or_generate(gen: &CommunityGenConfig, cache_dir: &Path) -> (Community, bool) {
    let Ok(exe) = std::env::current_exe().and_then(fs::read) else {
        return (generate_community(gen).community, false);
    };
    let build = format!("community-{:016x}-", hash_of(&exe));
    let path = cache_dir.join(format!("{build}{:016x}.txt", hash_of(&format!("{gen:?}"))));
    if let Some(community) = load(gen, &path) {
        return (community, true);
    }
    let community = generate_community(gen).community;
    for stale in fs::read_dir(cache_dir).into_iter().flatten().flatten() {
        let name = stale.file_name().to_string_lossy().into_owned();
        if name.starts_with("community-") && !name.starts_with(&build) {
            let _ = fs::remove_file(stale.path());
        }
    }
    if let Err(e) = save(&community, &path) {
        eprintln!(
            "semrec-perfbench: cannot cache the community at {}: {e}",
            path.display()
        );
    }
    (community, false)
}

fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Writes the cache file; its last line is `END` and the fingerprint (a
/// hash of every line before it).
fn save(community: &Community, path: &Path) -> std::io::Result<()> {
    let partial = path.with_extension("partial");
    let mut out = BufWriter::new(fs::File::create(&partial)?);
    let mut fingerprint = DefaultHasher::new();
    let mut line = |text: String| {
        text.hash(&mut fingerprint);
        writeln!(out, "{text}")
    };
    line(CACHE_HEADER.to_string())?;
    for agent in community.agents() {
        line(format!("A {}", agent_uri(community, agent)))?;
    }
    for agent in community.agents() {
        for &(trustee, weight) in community.trust.out_edges(agent) {
            line(format!(
                "T {} {} {:016x}",
                agent.index(),
                trustee.index(),
                weight.to_bits()
            ))?;
        }
        for &(product, rating) in community.ratings_of(agent) {
            line(format!(
                "R {} {} {:016x}",
                agent.index(),
                product.index(),
                rating.to_bits()
            ))?;
        }
    }
    writeln!(out, "END {:016x}", fingerprint.finish())?;
    out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    fs::rename(partial, path)
}

/// Reads a cache file; `None` when it is missing, incomplete, malformed
/// or its fingerprint does not match its lines.
fn load(gen: &CommunityGenConfig, path: &Path) -> Option<Community> {
    let mut lines = BufReader::new(fs::File::open(path).ok()?).lines();
    let header = lines.next()?.ok()?;
    if header != CACHE_HEADER {
        return None;
    }
    let mut fingerprint = DefaultHasher::new();
    header.hash(&mut fingerprint);
    let taxonomy = generate_taxonomy(&gen.taxonomy);
    let catalog = generate_catalog(&taxonomy, &gen.catalog);
    let mut community = Community::new(taxonomy, catalog);
    let parse = |field: Option<&str>| field?.parse::<usize>().ok();
    let float = |field: Option<&str>| Some(f64::from_bits(u64::from_str_radix(field?, 16).ok()?));
    for line in lines {
        let line = line.ok()?;
        if let Some(want) = line.strip_prefix("END ") {
            let matches = u64::from_str_radix(want, 16).ok()? == fingerprint.finish();
            return matches.then_some(community);
        }
        line.hash(&mut fingerprint);
        let (kind, rest) = line.split_once(' ')?;
        let mut fields = rest.split(' ');
        match kind {
            "A" => {
                community.add_agent(rest).ok()?;
            }
            "T" => {
                let (a, b) = (parse(fields.next())?, parse(fields.next())?);
                let weight = float(fields.next())?;
                community
                    .trust
                    .set_trust(AgentId::from_index(a), AgentId::from_index(b), weight)
                    .ok()?;
            }
            "R" => {
                let (a, p) = (parse(fields.next())?, parse(fields.next())?);
                let rating = float(fields.next())?;
                community
                    .set_rating(AgentId::from_index(a), ProductId::from_index(p), rating)
                    .ok()?;
            }
            _ => return None,
        }
    }
    None
}

fn agent_uri(community: &Community, agent: AgentId) -> &str {
    &community.agent(agent).expect("iterated agent id").uri
}

/// The standing model a serving node keeps between refreshes.
pub struct Standing {
    /// The last crawl (the base the next refresh diffs against).
    pub crawl: CrawlResult,
    /// The merged extraction view deltas fold into.
    pub builder: CommunityBuilder,
    /// The engine currently published.
    pub engine: Recommender,
}

/// Crawl → assemble → model build → server start, each timed as a span
/// under one `setup` root. Returns the standing model, the started server
/// and the set-up's wall time in seconds.
pub fn setup(
    world: &World,
    serve: ServeConfig,
    crawl_threads: usize,
    tracer: &Tracer,
    request: u64,
) -> (Standing, Server, f64) {
    let ((standing, server), setup_ms) = tracer.span("setup", 0, request, |root| {
        let (crawl, _) = tracer.span("web.crawl", root, request, |_| {
            crawl(
                &world.web,
                &world.seeds,
                &World::crawl_config(crawl_threads),
            )
        });
        let ((builder, community), _) = tracer.span("web.assemble", root, request, |_| {
            let builder = CommunityBuilder::new(&crawl.agents);
            let (community, _) =
                builder.build(world.source.taxonomy.clone(), world.source.catalog.clone());
            (builder, community)
        });
        let (engine, _) = tracer.span("core.model_build", root, request, |_| {
            Recommender::new(community, world.config)
        });
        let (server, _) = tracer.span("serve.start", root, request, |_| {
            Server::start(engine.clone(), serve)
        });
        (
            Standing {
                crawl,
                builder,
                engine,
            },
            server,
        )
    });
    (standing, server, setup_ms / 1e3)
}
