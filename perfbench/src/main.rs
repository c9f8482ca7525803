//! irlt end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --check <k> [--seed <n>] [--seconds <s>]
//! ```
//!
//! Run mode generates the workload's inputs from the seed, runs them
//! through the entry points users run (`run_batch`, or a live in-process
//! `irlt-serve` socket), checks every answer, and prints one JSON line
//! last: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! they are the per-layer ones from a traced run. The run record (host,
//! answers digest, sample counts, ratio bases, layer table, spans) is
//! written to `perfbench/out/`.
//!
//! Check mode runs every workload `k` times untraced, one process per
//! run, alternating the workload order, and prints each metric's median
//! and quartiles, flagging spreads wider than the bound in
//! `BENCHMARK.json`.

mod batch;
mod check;
mod report;
mod serve;
mod stats;
mod trace;
mod verify;
mod workload;

use std::path::{Path, PathBuf};
use workload::Workload;

const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    check: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: None,
        seconds: None,
        trace: None,
        check: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                args.seconds = Some(s);
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--check" => {
                let k: usize = value()?.parse().map_err(|e| format!("--check: {e}"))?;
                if k == 0 {
                    return Err("--check needs at least one run".into());
                }
                args.check = Some(k);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// A scratch directory for one run's generated files, removed on drop.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_one(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<(), String> {
    // The benchmark reads its own files relative to the checkout root;
    // refuse to run anywhere else rather than scatter files.
    if !Path::new("perfbench/Cargo.toml").is_file() {
        return Err("run from the repository root".into());
    }
    let scratch = Scratch(Path::new(OUT_DIR).join(format!("tmp-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    let host = stats::host_record();
    println!("host {host}");
    let res = match (w, trace) {
        (Workload::ServeMixed, false) => serve::run(seed, seconds, &scratch.0)?,
        (Workload::ServeMixed, true) => serve::run_traced(seed, seconds, &scratch.0)?,
        (_, false) => batch::run(w, seed, seconds, &scratch.0)?,
        (_, true) => batch::run_traced(w, seed, seconds, &scratch.0)?,
    };
    drop(scratch);
    let stem = format!("{}-seed{seed}-trace{}", w.name(), u8::from(trace));
    res.write_record(Path::new(OUT_DIR), &stem, &host)
        .map_err(|e| format!("writing run record: {e}"))?;
    for (id, why) in res.failures.iter().take(10) {
        println!("FAILED {id}: {why}");
    }
    for (k, v) in &res.notes {
        println!("{k} {v}");
    }
    if !res.not_measured.is_empty() {
        println!("not_measured {}", res.not_measured.join(" "));
    }
    if let Some(t) = &res.trace {
        println!(
            "layer self times (traced wall {:.1} ms):",
            t.root_ns() as f64 / 1e6
        );
        for row in t.layers() {
            println!(
                "  {:<12} {:>10.1} ms {:>6.2}% ({} spans)",
                row.layer,
                row.self_ns as f64 / 1e6,
                100.0 * row.self_ns as f64 / t.root_ns().max(1) as f64,
                row.spans
            );
        }
    }
    println!("fail_ratio {}/{}", res.failed, res.attempted);
    for m in &res.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", res.summary_json());
    Ok(())
}

fn main() {
    let result = parse_args().and_then(|args| match (args.check, args.workload) {
        (Some(_), Some(_)) => Err("--check runs every workload; drop --workload".into()),
        (Some(_), None) if args.trace.is_some() => {
            Err("--check runs untraced; drop --trace".into())
        }
        (Some(k), None) => check::run(k, args.seed, args.seconds),
        (None, Some(w)) => run_one(
            w,
            args.seed.unwrap_or(1),
            args.seconds.unwrap_or(10.0),
            args.trace.unwrap_or(false),
        ),
        (None, None) => Err("--workload or --check is required".into()),
    });
    if let Err(why) = result {
        eprintln!("perfbench: {why}");
        std::process::exit(2);
    }
}
