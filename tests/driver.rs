//! Concurrency and robustness battery for the batch driver
//! (`irlt-driver`).
//!
//! The driver's contract is that scheduling is *invisible*: per-job
//! results are a pure function of the job, regardless of worker count,
//! submission order, steal interleaving, shared-cache capacity, or
//! telemetry. These tests pin that bit-for-bit, plus the deadline and
//! degradation behaviors.

use irlt::driver::{demo_corpus, execute_job, run_batch, BatchConfig, ExecOptions, Job, JobResult};
use irlt::prelude::*;
use irlt_harness::rng::Rng;
use std::time::Duration;

/// The deterministic fields of a [`JobResult`] (everything except wall
/// time and worker id), normalized for comparison across runs.
fn fingerprint(r: &JobResult) -> (String, String, String, u64, String, usize, usize) {
    (
        r.name.clone(),
        r.status.to_string(),
        r.best.seq.to_string(),
        r.best.score.to_bits(),
        r.best.shape.to_string(),
        r.explored,
        r.legal,
    )
}

/// Fingerprints sorted by job name, so runs with different submission
/// orders are comparable.
fn sorted_fingerprints(
    results: &[JobResult],
) -> Vec<(String, String, String, u64, String, usize, usize)> {
    let mut f: Vec<_> = results.iter().map(fingerprint).collect();
    f.sort();
    f
}

/// The uncached reference: each job searched serially on its own, with
/// no legality cache. Every batch shares one cache, and must reproduce
/// these results bit for bit.
fn uncached_reference(jobs: &[Job]) -> Vec<(String, String, String, u64, String, usize, usize)> {
    let results: Vec<JobResult> = jobs
        .iter()
        .enumerate()
        .map(|(k, job)| execute_job(job, k as u64, 0, None, &ExecOptions::default()))
        .collect();
    sorted_fingerprints(&results)
}

fn config(threads: usize) -> BatchConfig {
    BatchConfig {
        threads,
        ..BatchConfig::default()
    }
}

/// Satellite 1: the same 64-nest corpus yields bit-identical per-nest
/// results at 1, 4, and 8 worker threads and under two different
/// submission orders.
#[test]
fn batch_results_are_deterministic_across_threads_and_orders() {
    let jobs = demo_corpus(64);
    let baseline = run_batch(&jobs, &config(1));
    assert_eq!(baseline.jobs.len(), 64);
    assert_eq!(baseline.completed(), 64);
    let reference = sorted_fingerprints(&baseline.jobs);

    for threads in [4, 8] {
        let r = run_batch(&jobs, &config(threads));
        assert_eq!(r.workers, threads);
        // Results surface in submission order even under stealing…
        let names: Vec<&str> = r.jobs.iter().map(|j| j.name.as_str()).collect();
        let submitted: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
        assert_eq!(
            names, submitted,
            "submission order broken at {threads} threads"
        );
        // …and every deterministic field is bit-identical.
        assert_eq!(
            sorted_fingerprints(&r.jobs),
            reference,
            "results diverged at {threads} threads"
        );
    }

    for seed in [0xdead_beef_u64, 0x1992_051e] {
        let mut shuffled = jobs.clone();
        Rng::new(seed).shuffle(&mut shuffled);
        assert_ne!(
            shuffled.iter().map(|j| &j.name).collect::<Vec<_>>(),
            jobs.iter().map(|j| &j.name).collect::<Vec<_>>(),
            "shuffle with seed {seed:#x} was the identity; pick another seed"
        );
        let r = run_batch(&shuffled, &config(4));
        assert_eq!(
            sorted_fingerprints(&r.jobs),
            reference,
            "results diverged under submission order {seed:#x}"
        );
    }
}

/// Satellite 3: a pathological job with a tiny deadline comes back as
/// `TimedOut` holding a *legal* best-so-far candidate; the other jobs in
/// the batch are unaffected; and the pool joins cleanly (this test
/// returning *is* the join).
#[test]
fn deadline_cuts_one_job_without_disturbing_the_batch() {
    // A deep rectangular nest with a huge search frontier: depth 6 at
    // beam 64 cannot finish inside 5ms even on fast hardware (debug
    // builds take seconds).
    let deep = parse_nest(
        "do i1 = 1, n\n do i2 = 1, n\n  do i3 = 1, n\n   do i4 = 1, n\n    do i5 = 1, n\n     do i6 = 1, n\n      a(i1, i2, i3, i4, i5, i6) = a(i1, i2, i3, i4, i5, i6) + 1\n     enddo\n    enddo\n   enddo\n  enddo\n enddo\nenddo",
    )
    .unwrap();
    let pathological = Job::new("pathological", deep.clone(), Goal::InnerParallel)
        .with_search(8, 64)
        .with_deadline(Duration::from_millis(5));
    let mut jobs = demo_corpus(8);
    jobs.insert(0, pathological);

    let r = run_batch(&jobs, &config(2));
    let bad = &r.jobs[0];
    assert_eq!(bad.name, "pathological");
    assert!(
        !bad.status.is_completed(),
        "a 5ms deadline on a depth-6 beam-64 search must fire: {bad}"
    );
    assert_eq!(r.timed_out(), 1);
    // Best-so-far is a *legal* prefix for the original nest (at worst
    // the identity sequence).
    let deps = analyze_dependences(&deep);
    assert!(
        bad.best.seq.is_legal(&deep, &deps).is_legal(),
        "timed-out best must be legal: {}",
        bad.best.seq
    );

    // The innocent bystanders match a run without the pathological job.
    let clean = run_batch(&demo_corpus(8), &config(2));
    assert_eq!(
        sorted_fingerprints(&r.jobs[1..]),
        sorted_fingerprints(&clean.jobs),
        "deadline on one job leaked into the others"
    );
}

/// Satellite 4: the telemetry sink sees the pool — the pool's steal
/// count, nonzero cross-nest cache hits, and a per-job wall-time
/// histogram — while telemetry on/off keeps results bit-identical.
#[test]
fn telemetry_observes_the_pool_and_never_perturbs_results() {
    let jobs = demo_corpus(64);
    let tel = Telemetry::enabled();
    let observed = run_batch(
        &jobs,
        &BatchConfig {
            threads: 4,
            telemetry: tel.clone(),
            ..BatchConfig::default()
        },
    );
    let report = tel.report();
    assert_eq!(report.counter("driver/jobs"), 64);
    assert_eq!(report.counter("driver/workers"), 4);
    assert_eq!(report.counter("driver/completed"), 64);
    assert_eq!(report.counter("driver/steals"), observed.steals);
    assert!(
        report.counter("driver/cache/cross_hits") > 0,
        "no cross-nest sharing on a duplicate-heavy corpus: {report:?}"
    );
    let wall = report
        .histograms
        .get("driver/job_wall_us")
        .expect("per-job wall-time histogram");
    assert_eq!(wall.values().sum::<u64>(), 64, "one sample per job");
    assert!(report.spans.contains_key("driver/batch"), "{report:?}");

    // Observation must not perturb: a silent run is bit-identical.
    let silent = run_batch(&jobs, &config(4));
    assert_eq!(
        sorted_fingerprints(&observed.jobs),
        sorted_fingerprints(&silent.jobs),
        "telemetry on/off changed results"
    );
}

/// Graceful degradation: a shared cache at its default capacity and one
/// under severe capacity pressure (generational eviction) both yield
/// results bit-identical to the uncached reference, and the pressured
/// run actually evicted.
#[test]
fn cache_pressure_and_cache_off_degrade_gracefully() {
    let jobs = demo_corpus(32);
    let reference = uncached_reference(&jobs);
    let default_run = run_batch(&jobs, &config(2));
    assert!(default_run.cache.unwrap().cross_hits > 0);
    assert_eq!(
        sorted_fingerprints(&default_run.jobs),
        reference,
        "the shared cache changed results"
    );

    let pressured = run_batch(
        &jobs,
        &BatchConfig {
            threads: 2,
            cache_capacity: 8,
            ..BatchConfig::default()
        },
    );
    let stats = pressured.cache.unwrap();
    assert!(
        stats.evictions > 0,
        "capacity 8 over a 32-job corpus must sweep: {stats}"
    );
    assert_eq!(
        sorted_fingerprints(&pressured.jobs),
        reference,
        "eviction pressure changed results"
    );
}

/// The JSON artifact for a batch is parseable and complete: schema tag,
/// per-job entries under their names, summary, and cache stats.
#[test]
fn batch_artifact_round_trips() {
    let jobs = demo_corpus(8);
    let r = run_batch(&jobs, &config(2));
    let artifact = r.to_json();
    let reparsed = irlt::obs::Json::parse(&artifact.to_string_pretty()).unwrap();
    assert_eq!(reparsed, artifact);
    assert_eq!(
        artifact.get("schema").and_then(irlt::obs::Json::as_str),
        Some("irlt-batch/v1")
    );
    let listed = artifact
        .get("jobs")
        .and_then(irlt::obs::Json::as_array)
        .unwrap();
    assert_eq!(listed.len(), 8);
    for (entry, job) in listed.iter().zip(&jobs) {
        assert_eq!(
            entry.get("name").and_then(irlt::obs::Json::as_str),
            Some(job.name.as_str())
        );
        assert_eq!(
            entry.get("status").and_then(irlt::obs::Json::as_str),
            Some("completed")
        );
    }
    assert_eq!(
        artifact
            .get_path(&["summary", "timed_out"])
            .and_then(irlt::obs::Json::as_i64),
        Some(0)
    );
}

/// PR 8 tentpole: lock-striping the shared cache is invisible to batch
/// results — bit-identical per-job results across worker counts (1, 2,
/// 4, which stripe the cache over 4, 8 and 16 shards) and shuffled
/// submission orders, all equal to the uncached serial reference. The
/// 1-shard case is covered by the
/// `shard_counts_are_invisible_on_random_chains` property.
#[test]
fn sharded_batches_match_single_shard_across_threads_and_orders() {
    let jobs = demo_corpus(32);
    let reference = uncached_reference(&jobs);

    for threads in [1, 2, 4] {
        let r = run_batch(&jobs, &config(threads));
        assert_eq!(r.cache.expect("cache on").shards, threads as u64 * 4);
        assert_eq!(
            sorted_fingerprints(&r.jobs),
            reference,
            "results diverged at {threads} threads"
        );
    }

    // Shuffled submission orders under the 16-shard cache.
    for seed in [0x5a5a_5a5a_u64, 0x1992_0802] {
        let mut shuffled = jobs.clone();
        Rng::new(seed).shuffle(&mut shuffled);
        let r = run_batch(&shuffled, &config(4));
        assert_eq!(
            sorted_fingerprints(&r.jobs),
            reference,
            "results diverged under submission order {seed:#x}"
        );
    }
}

/// PR 8 tentpole: a second batch run warm-started from the first run's
/// snapshot produces bit-identical results, replays entirely from
/// snapshot-owned entries (zero misses), and surfaces the cross-run
/// reuse in the artifact (`cache.snapshot_hits`).
#[test]
fn warm_start_replays_cold_results_from_the_snapshot() {
    let jobs = demo_corpus(16);
    let path = std::env::temp_dir().join(format!("irlt-warm-{}.bin", std::process::id()));
    let cold = run_batch(
        &jobs,
        &BatchConfig {
            threads: 2,
            cache_save: Some(path.clone()),
            ..BatchConfig::default()
        },
    );
    assert!(path.is_file(), "cache_save wrote no snapshot");

    let tel = Telemetry::enabled();
    let warm = run_batch(
        &jobs,
        &BatchConfig {
            threads: 2,
            cache_load: Some(path.clone()),
            telemetry: tel.clone(),
            ..BatchConfig::default()
        },
    );
    let _ = std::fs::remove_file(&path);

    assert_eq!(
        sorted_fingerprints(&warm.jobs),
        sorted_fingerprints(&cold.jobs)
    );
    let loaded = warm.snapshot.expect("snapshot accepted");
    assert!(!warm.snapshot_rejected);
    assert!(loaded.entries_loaded > 0, "{loaded:?}");
    let stats = warm.cache.expect("cache on");
    assert!(stats.snapshot_hits > 0, "no cross-run reuse: {stats}");
    assert_eq!(
        stats.misses, 0,
        "a warm start over the same corpus must not recompute: {stats}"
    );
    assert_eq!(tel.report().counter("driver/cache/snapshot_rejected"), 0);
    assert!(
        tel.report().counter("driver/cache/snapshot_hits") > 0,
        "telemetry missed the snapshot hits"
    );

    // The artifact carries the cross-run counters CI asserts on.
    let j = warm.to_json();
    assert!(
        j.get_path(&["cache", "snapshot_hits"])
            .and_then(irlt::obs::Json::as_i64)
            .unwrap_or(0)
            > 0
    );
    assert_eq!(
        j.get_path(&["cache", "snapshot_rejected"]),
        Some(&irlt::obs::Json::Bool(false))
    );
}

/// Satellite 1: truncated, corrupted, wrong-version, or missing snapshot
/// files are rejected with a clean cold-start fallback — results match a
/// cold run, `snapshot_rejected` surfaces in the result and telemetry,
/// and nothing panics.
#[test]
fn rejected_snapshots_fall_back_to_a_clean_cold_start() {
    let jobs = demo_corpus(8);
    let reference = sorted_fingerprints(&run_batch(&jobs, &config(1)).jobs);
    let dir = std::env::temp_dir();
    let pid = std::process::id();

    // A real snapshot to mutilate.
    let good = dir.join(format!("irlt-snap-good-{pid}.bin"));
    run_batch(
        &jobs,
        &BatchConfig {
            threads: 1,
            cache_save: Some(good.clone()),
            ..BatchConfig::default()
        },
    );
    let bytes = std::fs::read(&good).expect("snapshot saved");
    let _ = std::fs::remove_file(&good);

    let mut truncated = bytes.clone();
    truncated.truncate(bytes.len() / 2);
    let mut corrupt = bytes.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xff;
    let mut wrong_version = bytes.clone();
    wrong_version[10] = 0x7f;
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("garbage", b"definitely not an irlt-cache artifact".to_vec()),
        ("truncated", truncated),
        ("checksum-corrupt", corrupt),
        ("wrong-version", wrong_version),
    ];
    for (name, contents) in cases {
        let path = dir.join(format!("irlt-snap-{name}-{pid}.bin"));
        std::fs::write(&path, &contents).unwrap();
        let tel = Telemetry::enabled();
        let r = run_batch(
            &jobs,
            &BatchConfig {
                threads: 1,
                cache_load: Some(path.clone()),
                telemetry: tel.clone(),
                ..BatchConfig::default()
            },
        );
        let _ = std::fs::remove_file(&path);
        assert!(r.snapshot_rejected, "{name}: rejection not surfaced");
        assert!(r.snapshot.is_none(), "{name}");
        assert_eq!(
            sorted_fingerprints(&r.jobs),
            reference,
            "{name}: cold-start fallback changed results"
        );
        assert_eq!(
            r.cache.expect("cache on").snapshot_entries,
            0,
            "{name}: a rejected snapshot must leave the cache untouched"
        );
        assert_eq!(
            tel.report().counter("driver/cache/snapshot_rejected"),
            1,
            "{name}"
        );
        assert_eq!(
            r.to_json().get_path(&["cache", "snapshot_rejected"]),
            Some(&irlt::obs::Json::Bool(true)),
            "{name}"
        );
    }

    // A missing file is the same story.
    let missing = dir.join(format!("irlt-snap-missing-{pid}.bin"));
    let r = run_batch(
        &jobs,
        &BatchConfig {
            threads: 1,
            cache_load: Some(missing),
            ..BatchConfig::default()
        },
    );
    assert!(r.snapshot_rejected);
    assert_eq!(sorted_fingerprints(&r.jobs), reference);
}
