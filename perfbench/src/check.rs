//! Steadiness check: `k` untraced runs of every workload, one process
//! per run, with the workload order alternating between passes. Prints
//! each end-to-end metric's median and quartiles per workload and flags
//! every (workload, metric) pair whose quartile spread, as a share of
//! its median, exceeds the metric's bound in `BENCHMARK.json`. Runs
//! last `run_seconds` from `BENCHMARK.json` unless `--seconds` is given.

use crate::stats::{median, quartiles_exclusive};
use crate::workload::{Workload, ALL};
use irlt_obs::Json;
use std::collections::BTreeMap;
use std::process::Command;

/// `run_seconds` and the bounds of the end-to-end metrics, from
/// `BENCHMARK.json`.
fn benchmark() -> Result<(f64, BTreeMap<String, f64>), String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let seconds = json
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let list = json
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let bounds = list
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    Ok((seconds, bounds))
}

/// Runs this executable once, untraced, and returns its metrics and
/// digest.
fn run_child(
    w: Workload,
    seed: u64,
    seconds: f64,
) -> Result<(BTreeMap<String, f64>, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawning run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{} seed {seed} exited {}: {}",
            w.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("answers_digest "))
        .unwrap_or("-")
        .trim_matches('"')
        .to_string();
    let last = stdout.lines().last().ok_or("run printed nothing")?;
    let json = Json::parse(last).map_err(|e| format!("last line: {e}"))?;
    if json.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{} seed {seed} not correct: {last}", w.name()));
    }
    let metrics = json
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("no metrics")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok((metrics, digest))
}

/// `seed`: run every pass at this seed (to show the answers digest
/// repeats); without it pass `p` runs at seed `p + 1`.
pub fn run(k: usize, seed: Option<u64>, seconds: Option<f64>) -> Result<(), String> {
    let (run_seconds, bounds) = benchmark()?;
    let seconds = seconds.unwrap_or(run_seconds);
    let host = crate::stats::host_record();
    println!("host {host}");
    // (workload, metric) -> values, in run order.
    let mut values: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    let mut digests: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for pass in 0..k {
        let mut order = ALL.to_vec();
        if pass % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let seed = seed.unwrap_or(pass as u64 + 1);
            let (metrics, digest) = run_child(w, seed, seconds)?;
            eprintln!("pass {pass} {} seed {seed}: {metrics:?}", w.name());
            for (m, v) in metrics {
                values.entry((w.name(), m)).or_default().push(v);
            }
            digests.entry(w.name()).or_default().push(digest);
        }
    }
    let mut flagged = 0;
    println!(
        "{:<14} {:<26} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for ((w, m), vs) in &values {
        let med = median(vs);
        let (q1, q3) = quartiles_exclusive(vs);
        let spread = (q3 - q1) / med.abs().max(f64::MIN_POSITIVE);
        let bound = bounds.get(m).copied();
        let flag = match bound {
            Some(b) if spread > b => {
                flagged += 1;
                "  UNSTEADY"
            }
            Some(b) if spread > b / 3.0 => "  (over a third of bound)",
            _ => "",
        };
        println!(
            "{w:<14} {m:<26} {med:>12.4} {q1:>12.4} {q3:>12.4} {spread:>8.4} {:>6}{flag}",
            bound.map_or("-".to_string(), |b| format!("{b}"))
        );
    }
    for (w, ds) in &digests {
        println!("{w:<14} answers_digest per seed: {}", ds.join(" "));
    }
    if flagged > 0 {
        return Err(format!(
            "{flagged} (workload, metric) pair(s) exceed their bound"
        ));
    }
    Ok(())
}
