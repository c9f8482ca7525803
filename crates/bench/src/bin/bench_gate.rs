//! Soft bench regression gate for CI.
//!
//! Reads the one-shot output of the search, driver, locality, legality
//! or depmap benches (the `cargo test`-mode smoke lines printed by
//! `irlt-harness`'s timing runner, e.g.
//! `search/matmul/incremental  21.30 ms (one-shot)`,
//! `driver/corpus64/t4  310 ms (one-shot)`,
//! `locality/search/copy32  22.24 ms (one-shot)` or the two-part
//! `legality/figure7_pipeline  0.21 ms (one-shot)`), compares each wall
//! time against the recorded baseline median for the same
//! workload/engine (a two-part row reads its workload's bare `ms`
//! entry), and emits a GitHub Actions `::warning::` annotation
//! when a one-shot time exceeds the recorded median by more than the
//! tolerance factor
//! (default 3×, generous because CI runners are noisy and a one-shot is
//! a single sample).
//!
//! A row printed more than once (CI runs the legality and depmap bench
//! binaries three times into one file) is gated once, on the minimum of
//! its repeats, so one noisy one-shot cannot annotate a breach on its
//! own.
//!
//! The gate is *soft*: breaches annotate but never fail the build
//! (exit 0). A nonzero exit means the gate itself could not run — missing
//! files, unparseable baseline, or no bench lines found — which *should*
//! fail CI because it means the perf signal silently disappeared.
//!
//! CI runs one step per baseline: `search/` against
//! `BENCH_29_search.json`, `locality/` against `BENCH_29_locality.json`,
//! `driver/` against `BENCH_17_driver.json`, `legality/` against
//! `BENCH_23_legality.json` and `depmap/` against `BENCH_16_depmap.json`.
//! Each baseline records every row its bench prints, so each row is
//! checked exactly once. Rows a baseline does not record are skipped.
//!
//! ```text
//! bench_gate <oneshot.txt> <BENCH_*.json> [tolerance]
//! ```

use irlt_obs::Json;
use std::process::ExitCode;

/// One parsed `name  time (one-shot)` line, time in milliseconds. A
/// two-part row (`group/workload`) has an empty `engine`.
#[derive(Clone, Debug, PartialEq)]
struct OneShot {
    group: String,
    workload: String,
    engine: String,
    ms: f64,
}

impl OneShot {
    /// The row name as the bench printed it.
    fn name(&self) -> String {
        match self.engine.as_str() {
            "" => format!("{}/{}", self.group, self.workload),
            engine => format!("{}/{}/{engine}", self.group, self.workload),
        }
    }
}

/// Parses a duration like `713 ns`, `5.48 µs`, `21.30 ms`, `1.02 s` into
/// milliseconds.
fn parse_duration_ms(num: &str, unit: &str) -> Option<f64> {
    let v: f64 = num.parse().ok()?;
    let scale = match unit {
        "ns" => 1e-6,
        "µs" | "us" => 1e-3,
        "ms" => 1.0,
        "s" => 1e3,
        _ => return None,
    };
    Some(v * scale)
}

/// Extracts `<group>/<workload>/<engine>` and `<group>/<workload>`
/// one-shot lines of the `search`, `driver`, `locality`, `legality` and
/// `depmap` groups from the smoke output; unrelated lines are ignored.
fn parse_oneshot_lines(text: &str) -> Vec<OneShot> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.trim().strip_suffix("(one-shot)") else {
            continue;
        };
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let [name, num, unit] = fields[..] else {
            continue;
        };
        let parts: Vec<&str> = name.split('/').collect();
        let (group, workload, engine) = match parts[..] {
            [group, workload, engine] => (group, workload, engine),
            [group, workload] => (group, workload, ""),
            _ => continue,
        };
        if !matches!(
            group,
            "search" | "driver" | "locality" | "legality" | "depmap"
        ) {
            continue;
        }
        if let Some(ms) = parse_duration_ms(num, unit) {
            out.push(OneShot {
                group: group.to_string(),
                workload: workload.to_string(),
                engine: engine.to_string(),
                ms,
            });
        }
    }
    out
}

/// Collapses repeated rows to one per row name, holding the fastest of
/// its repeats, in first-seen order.
fn min_of_repeats(shots: Vec<OneShot>) -> Vec<OneShot> {
    let mut rows: Vec<OneShot> = Vec::new();
    for shot in shots {
        match rows.iter_mut().find(|r| r.name() == shot.name()) {
            Some(row) => row.ms = row.ms.min(shot.ms),
            None => rows.push(shot),
        }
    }
    rows
}

/// Looks up the recorded median for a workload/engine in the baseline
/// JSON (`workloads.<w>.<engine>_ms.median`, or `workloads.<w>.ms.median`
/// for a two-part row's empty engine).
///
/// Distinguishes the two ways a lookup can come back empty:
///
/// * `Ok(None)` — the baseline simply does not record this
///   workload/engine (older recordings cover fewer rows); the row is
///   skipped, exactly as before.
/// * `Err(..)` — the entry *exists* but is structurally malformed
///   (a `<engine>_ms` stats object without a numeric `median`, or a
///   baseline without a `workloads` object at all). That is a corrupt
///   baseline, and silently skipping it would make the gate pass while
///   checking nothing — the exact failure mode the nonzero-exit
///   contract exists to prevent. The caller must exit 2.
fn baseline_median_ms(
    baseline: &Json,
    workload: &str,
    engine: &str,
) -> Result<Option<f64>, String> {
    let Some(workloads) = baseline.get("workloads") else {
        return Err("baseline has no `workloads` object".into());
    };
    if workloads.as_object().is_none() {
        return Err("baseline `workloads` is not an object".into());
    }
    let Some(entry) = workloads.get(workload) else {
        return Ok(None); // workload not recorded: skip
    };
    let key = match engine {
        "" => "ms".to_string(),
        engine => format!("{engine}_ms"),
    };
    let Some(stats) = entry.get(&key) else {
        if entry.as_object().is_none() {
            return Err(format!("baseline `workloads.{workload}` is not an object"));
        }
        return Ok(None); // engine not recorded: skip
    };
    let Some(median) = stats.get("median") else {
        return Err(format!(
            "baseline `workloads.{workload}.{key}` has no `median`"
        ));
    };
    match median.as_f64() {
        Some(v) => Ok(Some(v)),
        None => Err(format!(
            "baseline `workloads.{workload}.{key}.median` is not a number"
        )),
    }
}

/// The CPU count the baseline was recorded on (`host.cpus`), when the
/// baseline records one.
fn baseline_cpus(baseline: &Json) -> Option<i64> {
    baseline.get("host")?.get("cpus")?.as_i64()
}

/// Whether an engine name is a thread-scaling row: `t<N>` with `N > 1`
/// (`t4`, `t8`, …). `t1`, `fp`, `s16` etc. are not.
fn is_thread_scaling(engine: &str) -> bool {
    engine
        .strip_prefix('t')
        .and_then(|n| n.parse::<u64>().ok())
        .is_some_and(|n| n > 1)
}

/// Compares one-shots against the baseline. Returns
/// `(checked, breaches, informational)`, each message preformatted.
///
/// Thread-scaling rows (`t4`, `t8`, …) are auto-downgraded from breach
/// to informational when either side of the comparison ran on a 1-CPU
/// host — the current one (`host_cpus`) or the baseline's recorded
/// `host.cpus` — because such rows measure pool overhead under core
/// starvation, not parallel scaling, and comparing them across host
/// shapes is noise. This replaces the hand-written per-recording notes
/// BENCH_5/BENCH_6 carried.
fn check(
    oneshots: &[OneShot],
    baseline: &Json,
    tolerance: f64,
    host_cpus: u64,
) -> Result<(usize, Vec<String>, Vec<String>), String> {
    let recorded_cpus = baseline_cpus(baseline).map_or(host_cpus, |c| c.max(1) as u64);
    let single_cpu = host_cpus.min(recorded_cpus) == 1;
    let mut checked = 0;
    let mut breaches = Vec::new();
    let mut informational = Vec::new();
    for shot in oneshots {
        let Some(median) = baseline_median_ms(baseline, &shot.workload, &shot.engine)? else {
            continue;
        };
        checked += 1;
        if shot.ms > median * tolerance {
            if single_cpu && is_thread_scaling(&shot.engine) {
                informational.push(format!(
                    "{} one-shot {:.2} ms exceeds {tolerance}x the recorded median \
                     {median:.2} ms, but this is a thread-scaling row on a 1-CPU comparison \
                     (host {host_cpus} cpu(s), baseline {recorded_cpus}) — informational only",
                    shot.name(),
                    shot.ms
                ));
            } else {
                breaches.push(format!(
                    "{} one-shot {:.2} ms exceeds {tolerance}x the recorded median \
                     {median:.2} ms (baseline)",
                    shot.name(),
                    shot.ms
                ));
            }
        }
    }
    Ok((checked, breaches, informational))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (oneshot_path, baseline_path) = match &args[..] {
        [a, b] | [a, b, _] => (a, b),
        _ => {
            eprintln!("usage: bench_gate <oneshot.txt> <BENCH_*.json> [tolerance]");
            return ExitCode::from(2);
        }
    };
    let tolerance: f64 = match args.get(2) {
        None => 3.0,
        Some(t) => match t.parse() {
            Ok(v) if v > 0.0 => v,
            _ => {
                eprintln!("bench_gate: bad tolerance {t:?}");
                return ExitCode::from(2);
            }
        },
    };
    let oneshot_text = match std::fs::read_to_string(oneshot_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_gate: cannot read {oneshot_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let baseline_text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_gate: cannot read {baseline_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let baseline = match Json::parse(&baseline_text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("bench_gate: {baseline_path} is not valid JSON: {e}");
            return ExitCode::from(2);
        }
    };
    let lines = parse_oneshot_lines(&oneshot_text);
    let line_count = lines.len();
    let oneshots = min_of_repeats(lines);
    if oneshots.is_empty() {
        eprintln!(
            "bench_gate: no `search`, `driver`, `locality`, `legality` or `depmap` one-shot \
             lines in {oneshot_path} — did the bench output format change?"
        );
        return ExitCode::from(2);
    }
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let (checked, breaches, informational) = match check(&oneshots, &baseline, tolerance, host_cpus)
    {
        Ok(result) => result,
        Err(e) => {
            eprintln!("bench_gate: {baseline_path} is corrupt: {e}");
            return ExitCode::from(2);
        }
    };
    if checked == 0 {
        eprintln!("bench_gate: no one-shot matched a baseline entry in {baseline_path}");
        return ExitCode::from(2);
    }
    println!(
        "bench_gate: {checked}/{} row(s) checked against {baseline_path}, each the minimum \
         of its repeats ({line_count} one-shot line(s); tolerance {tolerance}x, host \
         {host_cpus} cpu(s))",
        oneshots.len()
    );
    for msg in &informational {
        println!("::notice title=bench thread-scaling (informational)::{msg}");
        eprintln!("INFO: {msg}");
    }
    for msg in &breaches {
        // GitHub Actions annotation; plain stderr everywhere else.
        println!("::warning title=bench regression (soft gate)::{msg}");
        eprintln!("SLOW: {msg}");
    }
    if breaches.is_empty() {
        println!("bench_gate: all within tolerance");
    } else {
        println!(
            "bench_gate: {} breach(es) — annotated, not failing the build",
            breaches.len()
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
      "workloads": {
        "matmul": {
          "scratch_ms": { "min": 64.87, "median": 79.33, "mean": 77.03 },
          "incremental_ms": { "min": 19.67, "median": 20.72, "mean": 20.94 }
        }
      }
    }"#;

    #[test]
    fn parses_all_duration_units() {
        assert_eq!(parse_duration_ms("713", "ns"), Some(713e-6));
        assert_eq!(parse_duration_ms("5.5", "µs"), Some(0.0055));
        assert_eq!(parse_duration_ms("21.30", "ms"), Some(21.30));
        assert_eq!(parse_duration_ms("1.5", "s"), Some(1500.0));
        assert_eq!(parse_duration_ms("1", "parsec"), None);
    }

    #[test]
    fn extracts_oneshot_lines_and_ignores_noise() {
        let text = "\
warming up\n\
search/matmul/scratch  79.00 ms (one-shot)\n\
search/matmul/incremental  21.30 ms (one-shot)\n\
driver/corpus64/t4  310.0 ms (one-shot)\n\
locality/search/copy32  22.24 ms (one-shot)\n\
legality/figure7_pipeline  210 µs (one-shot)\n\
depmap/template/unimodular  81.6 µs (one-shot)\n\
depmap/a/b/c  1 ms (one-shot)\n\
codegen/fig7  1.2 ms (one-shot)\n\
serve/ping  316 µs (one-shot)\n\
irlt-harness bench smoke: 9 benchmark(s) executed once, 0 filtered out\n";
        let shots = parse_oneshot_lines(text);
        assert_eq!(shots.len(), 6);
        assert_eq!(shots[0].workload, "matmul");
        assert_eq!(shots[1].engine, "incremental");
        assert!((shots[1].ms - 21.30).abs() < 1e-9);
        assert_eq!(shots[2].group, "driver");
        assert_eq!(shots[2].workload, "corpus64");
        assert_eq!(shots[2].engine, "t4");
        assert_eq!(shots[3].group, "locality");
        assert_eq!(shots[3].workload, "search");
        assert_eq!(shots[3].engine, "copy32");
        // A two-part row has an empty engine.
        assert_eq!(shots[4].name(), "legality/figure7_pipeline");
        assert_eq!(shots[4].engine, "");
        assert!((shots[4].ms - 0.21).abs() < 1e-9);
        assert_eq!(shots[5].name(), "depmap/template/unimodular");
    }

    #[test]
    fn repeated_rows_gate_once_on_their_minimum() {
        let text = "\
legality/depth/2  0.90 ms (one-shot)\n\
legality/figure7_pipeline  0.21 ms (one-shot)\n\
legality/depth/2  0.04 ms (one-shot)\n\
legality/figure7_pipeline  0.30 ms (one-shot)\n\
legality/depth/2  60 µs (one-shot)\n";
        let rows = min_of_repeats(parse_oneshot_lines(text));
        assert_eq!(rows.len(), 2, "{rows:?}");
        assert_eq!(rows[0].name(), "legality/depth/2");
        assert!((rows[0].ms - 0.04).abs() < 1e-9, "{rows:?}");
        assert_eq!(rows[1].name(), "legality/figure7_pipeline");
        assert!((rows[1].ms - 0.21).abs() < 1e-9, "{rows:?}");
        // The cold first sample alone would breach 3× a 0.05 ms median;
        // the row's minimum does not, and the row is checked once.
        let baseline = Json::parse(
            r#"{ "workloads": { "depth": { "2_ms": { "median": 0.05 } },
                                "figure7_pipeline": { "ms": { "median": 0.2 } } } }"#,
        )
        .unwrap();
        let (checked, breaches, _) = check(&rows, &baseline, 3.0, 2).unwrap();
        assert_eq!(checked, 2);
        assert!(breaches.is_empty(), "{breaches:?}");
        let (_, cold, _) = check(&parse_oneshot_lines(text)[..1], &baseline, 3.0, 2).unwrap();
        assert_eq!(cold.len(), 1, "{cold:?}");
    }

    #[test]
    fn driver_rows_gate_against_their_own_baseline() {
        let baseline = Json::parse(
            r#"{
              "workloads": {
                "corpus64": {
                  "t1_ms": { "median": 100.0 },
                  "t4_ms": { "median": 90.0 }
                }
              }
            }"#,
        )
        .unwrap();
        let shots = vec![
            OneShot {
                group: "driver".into(),
                workload: "corpus64".into(),
                engine: "t1".into(),
                ms: 120.0,
            },
            OneShot {
                group: "driver".into(),
                workload: "corpus64".into(),
                engine: "t4".into(),
                ms: 400.0,
            },
        ];
        // On a multi-core host the t4 breach is a real warning…
        let (checked, breaches, info) = check(&shots, &baseline, 3.0, 8).unwrap();
        assert_eq!(checked, 2);
        assert_eq!(breaches.len(), 1, "{breaches:?}");
        assert!(breaches[0].contains("driver/corpus64/t4"), "{breaches:?}");
        assert!(info.is_empty(), "{info:?}");
        // …on a 1-CPU host the thread-scaling row downgrades to
        // informational; non-scaling rows would still warn.
        let (checked, breaches, info) = check(&shots, &baseline, 3.0, 1).unwrap();
        assert_eq!(checked, 2);
        assert!(breaches.is_empty(), "{breaches:?}");
        assert_eq!(info.len(), 1, "{info:?}");
        assert!(info[0].contains("informational"), "{info:?}");
    }

    fn shot(group: &str, workload: &str, engine: &str, ms: f64) -> OneShot {
        OneShot {
            group: group.into(),
            workload: workload.into(),
            engine: engine.into(),
            ms,
        }
    }

    #[test]
    fn two_part_rows_gate_against_the_bare_ms_entry() {
        // BENCH_16_legality/depmap.json record a two-part row's median
        // under `ms`, a three-part row's under `<engine>_ms`.
        let baseline = Json::parse(
            r#"{ "workloads": { "figure7_pipeline": { "ms": { "median": 0.2 } },
                                "depth": { "4_ms": { "median": 0.07 } } } }"#,
        )
        .unwrap();
        assert_eq!(baseline_median_ms(&baseline, "depth", "").unwrap(), None);
        let shots = [
            shot("legality", "figure7_pipeline", "", 0.9),
            shot("legality", "depth", "4", 0.1),
        ];
        let (checked, breaches, _) = check(&shots, &baseline, 3.0, 2).unwrap();
        assert_eq!(checked, 2);
        assert_eq!(breaches.len(), 1, "{breaches:?}");
        assert!(
            breaches[0].starts_with(
                "legality/figure7_pipeline one-shot 0.90 ms exceeds 3x the recorded median 0.20 ms"
            ),
            "{breaches:?}"
        );
        // A malformed `ms` entry is as fatal as a malformed `<engine>_ms`.
        let corrupt = Json::parse(r#"{ "workloads": { "w": { "ms": { "min": 1.0 } } } }"#).unwrap();
        let e = baseline_median_ms(&corrupt, "w", "").unwrap_err();
        assert!(e.contains("`workloads.w.ms` has no `median`"), "{e}");
    }

    #[test]
    fn thread_scaling_rows_are_recognized() {
        assert!(is_thread_scaling("t4"));
        assert!(is_thread_scaling("t8"));
        assert!(!is_thread_scaling("t1"));
        assert!(!is_thread_scaling("fp"));
        assert!(!is_thread_scaling("s16"));
        assert!(!is_thread_scaling("fresh"));
        assert!(!is_thread_scaling("two"));
    }

    #[test]
    fn baseline_recorded_on_one_cpu_downgrades_even_on_multicore_hosts() {
        // BENCH_5/BENCH_6 were recorded on 1-CPU containers: their t4/t8
        // medians measure core starvation, so comparing a multi-core
        // host's one-shots against them is informational either way.
        let baseline = Json::parse(
            r#"{
              "host": { "cpus": 1 },
              "workloads": {
                "corpus64": {
                  "t1_ms": { "median": 100.0 },
                  "t8_ms": { "median": 90.0 }
                }
              }
            }"#,
        )
        .unwrap();
        let slow_t8 = OneShot {
            group: "driver".into(),
            workload: "corpus64".into(),
            engine: "t8".into(),
            ms: 400.0,
        };
        let slow_t1 = OneShot {
            group: "driver".into(),
            workload: "corpus64".into(),
            engine: "t1".into(),
            ms: 400.0,
        };
        let (checked, breaches, info) = check(&[slow_t8, slow_t1], &baseline, 3.0, 16).unwrap();
        assert_eq!(checked, 2);
        // t8 downgrades via the recorded host.cpus; t1 is not a
        // thread-scaling row and stays a hard warning.
        assert_eq!(info.len(), 1, "{info:?}");
        assert!(info[0].contains("t8"), "{info:?}");
        assert_eq!(breaches.len(), 1, "{breaches:?}");
        assert!(breaches[0].contains("t1"), "{breaches:?}");
    }

    #[test]
    fn within_tolerance_passes_and_breach_annotates() {
        let baseline = Json::parse(BASELINE).unwrap();
        let shots = vec![
            OneShot {
                group: "search".into(),
                workload: "matmul".into(),
                engine: "scratch".into(),
                ms: 100.0,
            },
            OneShot {
                group: "search".into(),
                workload: "matmul".into(),
                engine: "incremental".into(),
                ms: 90.0,
            },
            // No baseline entry: skipped, not an error.
            OneShot {
                group: "search".into(),
                workload: "matmul".into(),
                engine: "parallel".into(),
                ms: 1.0,
            },
        ];
        let (checked, breaches, info) = check(&shots, &baseline, 3.0, 1).unwrap();
        assert_eq!(checked, 2);
        assert_eq!(breaches.len(), 1, "{breaches:?}");
        assert!(
            breaches[0].contains("search/matmul/incremental"),
            "{breaches:?}"
        );
        assert!(breaches[0].contains("20.72"), "{breaches:?}");
        // `incremental` is not a t<N> row, so 1 CPU downgrades nothing.
        assert!(info.is_empty(), "{info:?}");
    }

    #[test]
    fn missing_baseline_entries_skip_without_error() {
        let baseline = Json::parse(BASELINE).unwrap();
        assert_eq!(
            baseline_median_ms(&baseline, "matmul", "scratch").unwrap(),
            Some(79.33)
        );
        assert_eq!(
            baseline_median_ms(&baseline, "stencil", "scratch").unwrap(),
            None
        );
        assert_eq!(
            baseline_median_ms(&baseline, "matmul", "turbo").unwrap(),
            None
        );
    }

    #[test]
    fn corrupt_bench_8_baseline_is_fatal_in_every_lookup_path() {
        // A BENCH_8.json whose driver rows decayed structurally: the
        // stats object lost its median, the median degenerated to a
        // string, a workload collapsed to a scalar, and finally the
        // whole `workloads` object vanished. Every shape must surface
        // as an error (exit 2 in main), never as a silent skip.
        let corrupt = Json::parse(
            r#"{
              "bench": "driver",
              "host": { "cpus": 1 },
              "workloads": {
                "corpus64": { "t1_ms": { "min": 80.0 } },
                "deep64": { "t1_ms": { "median": "oops" } },
                "shard64": 17
              }
            }"#,
        )
        .unwrap();
        let e = baseline_median_ms(&corrupt, "corpus64", "t1").unwrap_err();
        assert!(e.contains("no `median`"), "{e}");
        let e = baseline_median_ms(&corrupt, "deep64", "t1").unwrap_err();
        assert!(e.contains("not a number"), "{e}");
        let e = baseline_median_ms(&corrupt, "shard64", "t1").unwrap_err();
        assert!(e.contains("not an object"), "{e}");

        let no_workloads = Json::parse(r#"{ "bench": "driver" }"#).unwrap();
        let e = baseline_median_ms(&no_workloads, "corpus64", "t1").unwrap_err();
        assert!(e.contains("no `workloads`"), "{e}");

        // And the corruption propagates out of check(): a one-shot that
        // matches a corrupt row turns the whole run into an error…
        let shot = OneShot {
            group: "driver".into(),
            workload: "deep64".into(),
            engine: "t1".into(),
            ms: 100.0,
        };
        assert!(check(&[shot], &corrupt, 3.0, 8).is_err());
        // …while a one-shot that never touches a corrupt row still
        // skips cleanly (missing workload, healthy `workloads` object).
        let shot = OneShot {
            group: "driver".into(),
            workload: "absent".into(),
            engine: "t1".into(),
            ms: 100.0,
        };
        let (checked, breaches, info) = check(&[shot], &corrupt, 3.0, 8).unwrap();
        assert_eq!((checked, breaches.len(), info.len()), (0, 0, 0));
    }
}
