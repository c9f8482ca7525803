//! `irlt-serve` — the long-lived optimization server and its client.
//!
//! ```text
//! Server:
//!   irlt-serve --socket PATH [OPTIONS]
//!     --workers N            worker threads (default: one per core)
//!     --high-water N         admission queue slots before backpressure (default 64)
//!     --retry-after-ms N     retry hint on backpressure rejections (default 10)
//!     --default-deadline-ms N  SLO for requests that carry none
//!     --cache-capacity N     shared-cache entries before a sweep
//!     --cache-load PATH      warm-start from an irlt-cache/v3 snapshot
//!     --snapshot PATH        rotate cache snapshots to PATH while serving
//!     --snapshot-every N     rotate after every N finished requests (default 64)
//!     --snapshot-keep N      rotated generations to keep (default 2)
//!   Runs until a client sends {"op":"shutdown"}; prints the summary.
//!
//!   irlt-serve --stdio [OPTIONS]   same protocol over stdin/stdout, one session
//!
//! Client:
//!   irlt-serve --client --socket PATH [CORPUS] [OPTIONS]
//!     CORPUS                 manifest / directory / .nest file
//!     --demo N               built-in demo corpus (default when no corpus: 16)
//!     --goal outer|inner     goal for corpus jobs (default outer)
//!     --max-steps N          sequence length cap (default 3)
//!     --beam N               beam width (default 8)
//!     --deadline-ms N        per-request SLO
//!     --out PATH             write the client artifact JSON to PATH
//!     --check PATH           compare against an irlt-batch artifact;
//!                            exit 1 on any deterministic-field mismatch
//!     --shutdown             drain the server after the corpus
//!
//!   irlt-serve --client --socket PATH --stats      print server stats
//!   irlt-serve --client --socket PATH --shutdown   drain with no corpus
//! ```
//!
//! Every request shares the server's one legality cache, as every job
//! of an `irlt-batch` run does, so a served answer is bit-identical to
//! the batch answer for the same nest.
//!
//! Telemetry (server side) honors `IRLT_TELEMETRY` like `irlt-batch`:
//! when it names a file, the server writes its telemetry report there on
//! exit (drain, or end of the `--stdio` session) — the final `serve/*`
//! counters, the shared-cache counters, and the per-request latency
//! distributions.

use irlt_driver::{demo_corpus, load_manifest, Job};
use irlt_obs::Telemetry;
use irlt_opt::Goal;
use irlt_serve::{client, ClientOptions, ServeConfig, Server, SnapshotPolicy};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

struct Cli {
    // mode
    client: bool,
    stdio: bool,
    // transport
    socket: Option<PathBuf>,
    // server knobs
    workers: usize,
    high_water: usize,
    retry_after_ms: u64,
    default_deadline: Option<Duration>,
    cache_capacity: Option<usize>,
    cache_load: Option<PathBuf>,
    snapshot: Option<PathBuf>,
    snapshot_every: u64,
    snapshot_keep: usize,
    // client knobs
    corpus: Option<PathBuf>,
    demo: Option<usize>,
    goal: Goal,
    max_steps: usize,
    beam: usize,
    deadline_ms: Option<u64>,
    out: Option<PathBuf>,
    check: Option<PathBuf>,
    shutdown: bool,
    stats: bool,
}

fn usage() -> String {
    "usage: irlt-serve --socket PATH [server options] | irlt-serve --stdio | \
     irlt-serve --client --socket PATH [CORPUS|--demo N] [--goal outer|inner] \
     [--max-steps N] [--beam N] [--deadline-ms N] [--out PATH] [--check PATH] \
     [--stats] [--shutdown]   (see --help in the crate docs for all flags)"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        client: false,
        stdio: false,
        socket: None,
        workers: 0,
        high_water: 64,
        retry_after_ms: 10,
        default_deadline: None,
        cache_capacity: None,
        cache_load: None,
        snapshot: None,
        snapshot_every: 64,
        snapshot_keep: 2,
        corpus: None,
        demo: None,
        goal: Goal::OuterParallel,
        max_steps: 3,
        beam: 8,
        deadline_ms: None,
        out: None,
        check: None,
        shutdown: false,
        stats: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        let parse_num =
            |flag: &str, v: String| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match arg.as_str() {
            "--client" => cli.client = true,
            "--stdio" => cli.stdio = true,
            "--socket" => cli.socket = Some(PathBuf::from(value("--socket")?)),
            "--workers" => cli.workers = parse_num("--workers", value("--workers")?)? as usize,
            "--high-water" => {
                cli.high_water = parse_num("--high-water", value("--high-water")?)? as usize;
            }
            "--retry-after-ms" => {
                cli.retry_after_ms = parse_num("--retry-after-ms", value("--retry-after-ms")?)?;
            }
            "--default-deadline-ms" => {
                let ms = parse_num("--default-deadline-ms", value("--default-deadline-ms")?)?;
                cli.default_deadline = Some(Duration::from_millis(ms));
            }
            "--cache-capacity" => {
                cli.cache_capacity =
                    Some(parse_num("--cache-capacity", value("--cache-capacity")?)? as usize);
            }
            "--cache-load" => cli.cache_load = Some(PathBuf::from(value("--cache-load")?)),
            "--snapshot" => cli.snapshot = Some(PathBuf::from(value("--snapshot")?)),
            "--snapshot-every" => {
                cli.snapshot_every = parse_num("--snapshot-every", value("--snapshot-every")?)?;
            }
            "--snapshot-keep" => {
                cli.snapshot_keep =
                    parse_num("--snapshot-keep", value("--snapshot-keep")?)? as usize;
            }
            "--demo" => cli.demo = Some(parse_num("--demo", value("--demo")?)? as usize),
            "--goal" => {
                cli.goal = match value("--goal")?.as_str() {
                    "outer" => Goal::OuterParallel,
                    "inner" => Goal::InnerParallel,
                    other => return Err(format!("--goal: expected outer|inner, got {other}")),
                };
            }
            "--max-steps" => {
                cli.max_steps = parse_num("--max-steps", value("--max-steps")?)? as usize;
            }
            "--beam" => cli.beam = parse_num("--beam", value("--beam")?)? as usize,
            "--deadline-ms" => {
                cli.deadline_ms = Some(parse_num("--deadline-ms", value("--deadline-ms")?)?);
            }
            "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
            "--check" => cli.check = Some(PathBuf::from(value("--check")?)),
            "--shutdown" => cli.shutdown = true,
            "--stats" => cli.stats = true,
            "--help" | "-h" => return Err(usage()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}\n{}", usage()));
            }
            path => {
                if cli.corpus.is_some() {
                    return Err(format!("only one corpus path allowed\n{}", usage()));
                }
                cli.corpus = Some(PathBuf::from(path));
            }
        }
    }
    Ok(cli)
}

fn serve_config(cli: &Cli) -> ServeConfig {
    let mut cfg = ServeConfig {
        workers: cli.workers,
        queue_high_water: cli.high_water,
        retry_after_ms: cli.retry_after_ms,
        default_deadline: cli.default_deadline,
        cache_load: cli.cache_load.clone(),
        snapshot: cli.snapshot.as_ref().map(|path| SnapshotPolicy {
            path: path.clone(),
            every_requests: cli.snapshot_every,
            keep_generations: cli.snapshot_keep,
        }),
        telemetry: Telemetry::from_env(),
        ..ServeConfig::default()
    };
    if let Some(cap) = cli.cache_capacity {
        cfg.cache_capacity = cap;
    }
    cfg
}

fn build_jobs(cli: &Cli) -> Result<Vec<Job>, String> {
    let mut jobs = match (&cli.corpus, cli.demo) {
        (Some(path), _) => load_manifest(Path::new(path), &cli.goal).map_err(|e| e.to_string())?,
        (None, Some(n)) => demo_corpus(n),
        // A client invoked only for --stats/--shutdown has no corpus.
        (None, None) if cli.stats || cli.shutdown => Vec::new(),
        (None, None) => demo_corpus(16),
    };
    for job in &mut jobs {
        job.max_steps = cli.max_steps;
        job.beam_width = cli.beam;
    }
    Ok(jobs)
}

fn run_client(cli: &Cli) -> Result<(), String> {
    let socket = cli
        .socket
        .as_ref()
        .ok_or_else(|| format!("--client needs --socket\n{}", usage()))?;
    let jobs = build_jobs(cli)?;
    if !jobs.is_empty() {
        let opts = ClientOptions {
            deadline_ms: cli.deadline_ms,
            ..ClientOptions::default()
        };
        let report = client::run_jobs(socket, &jobs, &opts).map_err(|e| e.to_string())?;
        for r in &report.results {
            println!(
                "{}: {} best {} ({} tested, {} legal)",
                r.id, r.status, r.seq, r.explored, r.legal
            );
        }
        println!(
            "{} job(s): {} completed, {} timed out, {} retries",
            report.results.len(),
            report.completed(),
            report.timed_out(),
            report.retries
        );
        if let Some(out) = &cli.out {
            std::fs::write(out, report.to_json().to_string_pretty())
                .map_err(|e| format!("{}: {e}", out.display()))?;
            println!("wrote client artifact to {}", out.display());
        }
        if let Some(check) = &cli.check {
            let text =
                std::fs::read_to_string(check).map_err(|e| format!("{}: {e}", check.display()))?;
            let batch =
                irlt_obs::Json::parse(&text).map_err(|e| format!("{}: {e}", check.display()))?;
            report
                .check_against_batch(&batch)
                .map_err(|why| format!("served results diverge from batch artifact: {why}"))?;
            println!(
                "served results match {} bit-for-bit on all deterministic fields",
                check.display()
            );
        }
    }
    if cli.stats {
        let payload = client::stats(socket).map_err(|e| e.to_string())?;
        println!("{}", payload.to_string_pretty());
    }
    if cli.shutdown {
        let served = client::shutdown(socket).map_err(|e| e.to_string())?;
        println!("server drained after serving {served} request(s)");
    }
    Ok(())
}

fn run_server(cli: &Cli) -> Result<(), String> {
    let cfg = serve_config(cli);
    let telemetry = cfg.telemetry.clone();
    let summary = if cli.stdio {
        let stdin = std::io::stdin();
        irlt_serve::serve_stream(cfg, stdin.lock(), Box::new(std::io::stdout()))
    } else {
        let socket = cli
            .socket
            .as_ref()
            .ok_or_else(|| format!("server mode needs --socket (or --stdio)\n{}", usage()))?;
        let handle =
            Server::spawn(cfg, socket).map_err(|e| format!("{}: {e}", socket.display()))?;
        eprintln!("irlt-serve listening on {}", socket.display());
        handle.join()
    };
    eprintln!("{summary}");
    // stdout carries the `--stdio` protocol, so the server logs to stderr.
    if let Some(path) = telemetry
        .write_env_report()
        .map_err(|e| format!("telemetry artifact: {e}"))?
    {
        eprintln!("wrote telemetry to {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = if cli.client {
        run_client(&cli)
    } else {
        run_server(&cli)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
