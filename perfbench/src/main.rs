//! `semrec-perfbench`: runs one benchmark workload and prints its metrics.
//!
//! ```text
//! semrec-perfbench --workload <query_paper|serve_churn> --seed <n>
//!     --seconds <s> --trace <0|1> [--scale paper|small] [--out-dir DIR]
//! ```
//!
//! With `--trace 0` the result line carries the end-to-end metrics, with
//! `--trace 1` the per-layer metrics (and the spans are written to
//! `<out-dir>/trace-<workload>-<seed>.jsonl`). See `README.md` for the
//! workloads, the metrics and the layer→metric map.

mod loadgen;
mod report;
mod stats;
mod trace;
mod workload;
mod world;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;
use trace::Tracer;

/// Which workload a run executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// §4.1 scale, default engine, cold open-loop queries.
    QueryPaper,
    /// E17 regime, Zipf reads through the cache beside a refresh writer.
    ServeChurn,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::QueryPaper => "query_paper",
            Workload::ServeChurn => "serve_churn",
        }
    }
}

/// World size: the paper's deployment, or a smoke-test size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Paper,
    Small,
}

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub out_dir: PathBuf,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let (mut scale, mut out_dir) = (Scale::Paper, PathBuf::from(".bench_out"));
        while let Some(flag) = raw.next() {
            let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "query_paper" => Workload::QueryPaper,
                        "serve_churn" => Workload::ServeChurn,
                        _ => return Err(bad("expected query_paper or serve_churn")),
                    })
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("expected 0 < seconds <= 600"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    })
                }
                "--scale" => {
                    scale = match value.as_str() {
                        "paper" => Scale::Paper,
                        "small" => Scale::Small,
                        _ => return Err(bad("expected paper or small")),
                    }
                }
                "--out-dir" => out_dir = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            scale,
            out_dir,
        })
    }
}

/// Span names every traced run must record.
const SPANS: &[&str] = &[
    "setup",
    "web.crawl",
    "web.assemble",
    "core.model_build",
    "serve.start",
    "request",
    "core.batch",
    "shard.partition",
    "shard.batch",
    "shard.query",
    "refresh.round",
    "web.refresh",
    "web.apply_delta_build",
    "core.advance",
    "core.swap_plan",
    "serve.publish_delta",
    "store.checkpoint",
    "store.append_delta",
    "restart",
    "store.recover",
    "serve.warm_start",
    "store.load",
    "query",
    "trust.neighborhood",
    "profiles.similarity",
    "core.rank",
    "core.vote",
];

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_object(pairs: &[(String, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("semrec-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!(
            "semrec-perfbench: cannot create {}: {e}",
            args.out_dir.display()
        );
        return ExitCode::from(2);
    }
    let tracer = Tracer::new(args.trace);
    let (mut m, world, params, nproc) = workload::run(&args, &tracer);

    let report: Report = if args.trace {
        let names = tracer.names();
        for span in SPANS {
            if !names.contains(span) {
                m.failures
                    .push(format!("traced run recorded no {span:?} span"));
            }
        }
        let path = args.out_dir.join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = tracer.write_jsonl(&path) {
            m.failures
                .push(format!("cannot write {}: {e}", path.display()));
        }
        report::per_layer(&m, &tracer)
    } else {
        report::end_to_end(&m)
    };
    for metric in &report.metrics {
        if !metric.value.is_finite() {
            m.failures.push(format!(
                "metric {} is not finite ({})",
                metric.name, metric.value
            ));
        }
    }

    // Provenance, sample counts and ratio bases: the line before the result.
    let gen = &world.gen;
    let mut details: Vec<(String, String)> = vec![
        ("workload".into(), json_str(args.workload.name())),
        ("seed".into(), args.seed.to_string()),
        ("trace".into(), args.trace.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("nproc".into(), nproc.to_string()),
        (
            "git_rev".into(),
            json_str(&std::env::var("SEMREC_GIT_REV").unwrap_or_else(|_| "unknown".into())),
        ),
        (
            "build_profile".into(),
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "scale".into(),
            json_str(if args.scale == Scale::Paper {
                "paper"
            } else {
                "small"
            }),
        ),
        ("agents".into(), gen.agents.to_string()),
        ("products".into(), gen.catalog.products.to_string()),
        ("topics".into(), world.source.taxonomy.len().to_string()),
        ("mean_trust_edges".into(), gen.mean_trust_edges.to_string()),
        ("data_gen_s".into(), world.gen_s.to_string()),
        ("data_cached".into(), world.cached.to_string()),
        ("publish_s".into(), world.publish_s.to_string()),
        ("threads.crawl".into(), nproc.to_string()),
        ("threads.serve_workers".into(), nproc.to_string()),
        ("threads.batch".into(), nproc.to_string()),
        ("threads.shard".into(), nproc.to_string()),
        ("shards".into(), workload::SHARDS.to_string()),
        ("open_loop.rate_per_s".into(), params.rate.to_string()),
        ("open_loop.arrivals".into(), params.arrivals.to_string()),
        ("open_loop.limit_ms".into(), workload::LIMIT_MS.to_string()),
        ("wal_records".into(), workload::WAL_RECORDS.to_string()),
    ];
    details.extend(report.details.iter().cloned());
    println!(
        "{}",
        json_object(&[("details".into(), json_object(&details))])
    );
    for failure in &m.failures {
        eprintln!("semrec-perfbench: check failed: {failure}");
    }

    let metrics: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|x| {
            let value = report::json_number(x.value);
            (
                x.name.to_string(),
                format!("{{\"value\": {value}, \"unit\": {}}}", json_str(x.unit)),
            )
        })
        .collect();
    let correct = m.failures.is_empty();
    println!(
        "{}",
        json_object(&[
            ("correct".into(), correct.to_string()),
            ("attempted".into(), m.attempted.to_string()),
            ("failed".into(), m.failed.to_string()),
            ("metrics".into(), json_object(&metrics)),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
