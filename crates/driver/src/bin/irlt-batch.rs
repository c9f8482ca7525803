//! `irlt-batch` — batch-optimize a corpus of loop nests.
//!
//! ```text
//! irlt-batch [CORPUS] [OPTIONS]
//!
//! CORPUS               manifest file, directory of .nest files, or a
//!                      single .nest file (default: --demo 16)
//!   --demo N           use the built-in N-job demo corpus instead
//!   --goal outer|inner optimization goal for corpus jobs (default outer)
//!   --threads N        worker threads (default: one per core)
//!   --max-steps N      sequence length cap (default 3)
//!   --beam N           beam width (default 8)
//!   --deadline-ms N    per-job wall-clock budget (default: none)
//!   --cache-capacity N shared-cache entries before a sweep
//!   --cache-load PATH  warm-start from an irlt-cache/v3 snapshot
//!                      (a rejected file falls back to a cold start)
//!   --cache-save PATH  save the cache snapshot after the batch
//!   --out PATH         write the batch JSON artifact to PATH
//! ```
//!
//! Every job shares one cross-nest legality cache. A legality verdict is
//! a pure function of its key, so the cache only saves work: each job's
//! result is bit-identical to searching it alone.
//!
//! Telemetry is enabled whenever `--out` is given or `IRLT_TELEMETRY`
//! is set; the artifact embeds the telemetry report, and
//! `IRLT_TELEMETRY=path.json` additionally writes the standalone
//! telemetry artifact.

use irlt_driver::{demo_corpus, load_manifest, BatchConfig, Job};
use irlt_obs::{Json, Telemetry};
use irlt_opt::Goal;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

struct Cli {
    corpus: Option<PathBuf>,
    demo: usize,
    goal: Goal,
    threads: usize,
    max_steps: usize,
    beam: usize,
    deadline: Option<Duration>,
    cache_capacity: Option<usize>,
    cache_load: Option<PathBuf>,
    cache_save: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn usage() -> String {
    "usage: irlt-batch [CORPUS] [--demo N] [--goal outer|inner] [--threads N] \
     [--max-steps N] [--beam N] [--deadline-ms N] \
     [--cache-capacity N] [--cache-load PATH] [--cache-save PATH] \
     [--out PATH]"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        corpus: None,
        demo: 16,
        goal: Goal::OuterParallel,
        threads: 0,
        max_steps: 3,
        beam: 8,
        deadline: None,
        cache_capacity: None,
        cache_load: None,
        cache_save: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--demo" => {
                cli.demo = value("--demo")?
                    .parse()
                    .map_err(|e| format!("--demo: {e}"))?;
            }
            "--goal" => {
                cli.goal = match value("--goal")?.as_str() {
                    "outer" => Goal::OuterParallel,
                    "inner" => Goal::InnerParallel,
                    other => return Err(format!("--goal: expected outer|inner, got {other}")),
                };
            }
            "--threads" => {
                cli.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--max-steps" => {
                cli.max_steps = value("--max-steps")?
                    .parse()
                    .map_err(|e| format!("--max-steps: {e}"))?;
            }
            "--beam" => {
                cli.beam = value("--beam")?
                    .parse()
                    .map_err(|e| format!("--beam: {e}"))?;
            }
            "--deadline-ms" => {
                let ms: u64 = value("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?;
                cli.deadline = Some(Duration::from_millis(ms));
            }
            "--cache-capacity" => {
                cli.cache_capacity = Some(
                    value("--cache-capacity")?
                        .parse()
                        .map_err(|e| format!("--cache-capacity: {e}"))?,
                );
            }
            "--cache-load" => cli.cache_load = Some(PathBuf::from(value("--cache-load")?)),
            "--cache-save" => cli.cache_save = Some(PathBuf::from(value("--cache-save")?)),
            "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
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

fn build_jobs(cli: &Cli) -> Result<Vec<Job>, String> {
    let mut jobs = match &cli.corpus {
        Some(path) => load_manifest(Path::new(path), &cli.goal).map_err(|e| e.to_string())?,
        None => demo_corpus(cli.demo),
    };
    for job in &mut jobs {
        job.max_steps = cli.max_steps;
        job.beam_width = cli.beam;
        job.deadline = cli.deadline;
    }
    Ok(jobs)
}

fn run(args: &[String]) -> Result<(), String> {
    let cli = parse_args(args)?;
    let jobs = build_jobs(&cli)?;
    let telemetry = if cli.out.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::from_env()
    };
    let mut config = BatchConfig {
        threads: cli.threads,
        cache_load: cli.cache_load.clone(),
        cache_save: cli.cache_save.clone(),
        telemetry,
        ..BatchConfig::default()
    };
    if let Some(cap) = cli.cache_capacity {
        config.cache_capacity = cap;
    }
    let result = irlt_driver::run_batch(&jobs, &config);
    for job in &result.jobs {
        println!("{job}");
    }
    println!("{result}");
    if let Some(out) = &cli.out {
        let mut artifact = result.to_json();
        if let Json::Object(fields) = &mut artifact {
            fields.push(("telemetry".to_string(), config.telemetry.report().to_json()));
        }
        std::fs::write(out, artifact.to_string_pretty())
            .map_err(|e| format!("{}: {e}", out.display()))?;
        println!("wrote batch artifact to {}", out.display());
    }
    if let Some(path) = config
        .telemetry
        .write_env_report()
        .map_err(|e| format!("telemetry artifact: {e}"))?
    {
        println!("wrote telemetry to {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
