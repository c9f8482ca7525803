//! Batch-driver throughput: the 64-nest demo corpus through
//! `irlt_driver::run_batch` at 1, 4, and 8 worker threads (every batch
//! shares one cross-nest [`SharedLegalityCache`]), plus a `fresh`
//! baseline, plus a deeper-search workload. `fresh` is no batch: it runs
//! each job serially through `irlt_driver::execute_job` with no cache,
//! the uncached reference the driver tests compare batches against.
//!
//! Four effects are measured:
//!
//! * **Parallelism** (`t1` vs `t4`/`t8`) — wall-clock scaling from the
//!   work-stealing pool; only meaningful on multi-core hosts.
//! * **Cross-nest sharing** (`fresh` vs `t1`) — algorithmic savings from
//!   replaying legality subproblems across structurally identical nests,
//!   independent of core count. The demo corpus repeats each of its 8
//!   nest shapes 8 times, the duplicate-heavy profile real compilation
//!   units show.
//! * **Deep search** (`deep64/fp`) — the same 64 jobs at
//!   acceptance-search settings (max_steps 5, beam 16), where per-probe
//!   key cost dominates; the shared cache keys on interned fingerprint
//!   ids (zero allocation per probe). The retired rendered-string key
//!   representation's `display_ms` row stays in `BENCH_6.json` and
//!   `BENCH_8.json` as history.
//!
//! * **Warm start** (`warmdeep64/cold` vs `warmdeep64/warm`) — the
//!   identical deep-search batch started cold vs started from the
//!   previous run's `irlt-cache/v3` snapshot (`BatchConfig::cache_load`).
//!   The warm row pays the full load path — read, decode, re-intern,
//!   insert — and then replays every legality subproblem from
//!   snapshot-owned entries. The deep workload is where warm start
//!   matters: at acceptance-search settings the first-encounter legality
//!   work dominates, whereas the shallow corpus already amortizes it
//!   across its 8x-repeated shapes.
//!
//! Results are bit-identical across all rows of a workload by the
//! driver's determinism contract (`tests/driver.rs` and the shard-count
//! properties pin this); only time may differ.
//!
//! [`SharedLegalityCache`]: irlt_core::SharedLegalityCache

use irlt_driver::{demo_corpus, execute_job, run_batch, BatchConfig, ExecOptions, Job};
use irlt_harness::timing::{black_box, Runner};
use irlt_obs::Telemetry;

/// The deeper-search workload: the demo corpus re-armed with the
/// matmul acceptance settings (max_steps 5, beam 16).
fn deep_corpus(n: usize) -> Vec<Job> {
    demo_corpus(n)
        .into_iter()
        .map(|job| Job {
            max_steps: 5,
            beam_width: 16,
            ..job
        })
        .collect()
}

fn main() {
    let mut r = Runner::default();
    let telemetry = Telemetry::from_env();
    let jobs = demo_corpus(64);
    let opts = ExecOptions {
        telemetry: telemetry.clone(),
        cancel: None,
    };
    r.bench("driver/corpus64/fresh", || {
        for (k, job) in black_box(&jobs).iter().enumerate() {
            black_box(execute_job(job, k as u64, 0, None, &opts));
        }
    });
    for (name, threads) in [("t1", 1), ("t4", 4), ("t8", 8)] {
        let cfg = BatchConfig {
            threads,
            telemetry: telemetry.clone(),
            ..BatchConfig::default()
        };
        r.bench(&format!("driver/corpus64/{name}"), || {
            black_box(run_batch(black_box(&jobs), &cfg))
        });
    }
    let deep = deep_corpus(64);
    let deep_cfg = BatchConfig {
        threads: 1,
        telemetry: telemetry.clone(),
        ..BatchConfig::default()
    };
    r.bench("driver/deep64/fp", || {
        black_box(run_batch(black_box(&deep), &deep_cfg))
    });
    // Cold vs warm start on the deep workload. One priming run records
    // the snapshot; the warm row then pays read + decode + re-intern +
    // load on every iteration, exactly like a second
    // `irlt-batch --cache-load` process.
    let snapshot = std::env::temp_dir().join(format!("irlt-bench-warm-{}.bin", std::process::id()));
    run_batch(
        &deep,
        &BatchConfig {
            threads: 1,
            cache_save: Some(snapshot.clone()),
            telemetry: telemetry.clone(),
            ..BatchConfig::default()
        },
    );
    let cold_cfg = BatchConfig {
        threads: 1,
        telemetry: telemetry.clone(),
        ..BatchConfig::default()
    };
    r.bench("driver/warmdeep64/cold", || {
        black_box(run_batch(black_box(&deep), &cold_cfg))
    });
    let warm_cfg = BatchConfig {
        threads: 1,
        cache_load: Some(snapshot.clone()),
        telemetry: telemetry.clone(),
        ..BatchConfig::default()
    };
    r.bench("driver/warmdeep64/warm", || {
        black_box(run_batch(black_box(&deep), &warm_cfg))
    });
    let _ = std::fs::remove_file(&snapshot);
    r.finish();
    match telemetry.write_env_report() {
        Ok(Some(path)) => println!("telemetry written to {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("telemetry write failed: {e}"),
    }
}
