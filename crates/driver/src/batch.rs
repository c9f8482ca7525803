//! The batch runner: hand out jobs, search, aggregate.

use crate::job::{Job, JobResult, JobStatus};
use irlt_core::{KeyMode, SharedCacheStats, SharedLegalityCache, SnapshotLoadStats};
use irlt_dependence::analyze_dependences;
use irlt_obs::{Json, Telemetry};
use irlt_opt::{search, CancelToken, SearchConfig};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Batch-level configuration (per-job settings live on [`Job`]).
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Worker threads: `0` uses one per available core.
    pub threads: usize,
    /// Entry capacity of the [`SharedLegalityCache`] every job of the
    /// batch shares, before a generational sweep — the memory-pressure
    /// degradation knob.
    pub cache_capacity: usize,
    /// Warm-start: load this `irlt-cache/v3` snapshot into the shared
    /// cache before the batch starts. A missing or rejected file
    /// degrades to a clean cold start (warning on stderr,
    /// `driver/cache/snapshot_rejected` counter) — never an error.
    pub cache_load: Option<PathBuf>,
    /// Save the shared cache as an `irlt-cache/v3` snapshot after the
    /// batch, so the next run can `cache_load` it. The write is atomic
    /// (temporary file, fsync, rename): a crash mid-save leaves the
    /// previous snapshot intact.
    pub cache_save: Option<PathBuf>,
    /// One sink for the whole pool; disabled by default (no-op, and the
    /// batch is bit-identical with it on or off).
    pub telemetry: Telemetry,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            threads: 0,
            cache_capacity: SharedLegalityCache::DEFAULT_CAPACITY,
            cache_load: None,
            cache_save: None,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// The outcome of one batch run.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// Per-job results **in submission order** (never scheduler order).
    pub jobs: Vec<JobResult>,
    /// Worker threads the pool actually ran.
    pub workers: usize,
    /// Always 0: workers claim jobs from one shared counter, so nothing
    /// is stolen. The field survives only because perfbench reads it
    /// for its per-layer `driver.steals`.
    pub steals: u64,
    /// Shared-cache counters. Always `Some`: every batch shares one
    /// cache (the `Option` is kept for callers that read it with
    /// `ok_or`).
    pub cache: Option<SharedCacheStats>,
    /// What the warm-start snapshot restored, when one loaded.
    pub snapshot: Option<SnapshotLoadStats>,
    /// Whether a requested warm-start snapshot was rejected (the batch
    /// then ran cold).
    pub snapshot_rejected: bool,
    /// Wall time of the whole batch.
    pub wall: Duration,
}

impl BatchResult {
    /// Jobs that ran to completion.
    pub fn completed(&self) -> usize {
        self.jobs.iter().filter(|j| j.status.is_completed()).count()
    }

    /// Jobs cut short by their deadline.
    pub fn timed_out(&self) -> usize {
        self.jobs.len() - self.completed()
    }

    /// One JSON artifact describing the whole run: per-job results,
    /// pool counters, cache stats, and wall time. Pairs with the
    /// telemetry report (`Telemetry::report().to_json()`) for the full
    /// picture.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("schema".into(), Json::Str("irlt-batch/v1".into())),
            ("workers".into(), Json::Int(self.workers as i64)),
            ("wall_ms".into(), Json::Float(self.wall.as_secs_f64() * 1e3)),
            (
                "summary".into(),
                Json::Object(vec![
                    ("jobs".into(), Json::Int(self.jobs.len() as i64)),
                    ("completed".into(), Json::Int(self.completed() as i64)),
                    ("timed_out".into(), Json::Int(self.timed_out() as i64)),
                ]),
            ),
            (
                "cache".into(),
                self.cache
                    .as_ref()
                    .map_or(Json::Null, |s| cache_json(s, self.snapshot_rejected)),
            ),
            (
                "jobs".into(),
                Json::Array(self.jobs.iter().map(JobResult::to_json).collect()),
            ),
        ])
    }
}

impl fmt::Display for BatchResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} job(s) on {} worker(s) in {:.1} ms: {} completed, {} timed out",
            self.jobs.len(),
            self.workers,
            self.wall.as_secs_f64() * 1e3,
            self.completed(),
            self.timed_out()
        )?;
        if let Some(s) = &self.cache {
            write!(f, "; cache: {s}")?;
        }
        if let Some(s) = &self.snapshot {
            write!(f, "; warm start: {} snapshot entries", s.entries_loaded)?;
        } else if self.snapshot_rejected {
            write!(f, "; warm start rejected (ran cold)")?;
        }
        Ok(())
    }
}

/// The worker count of a pool configured with `threads`: `0` means one
/// per available core.
pub fn worker_count(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Opens the shared legality cache for a pool of `workers` threads and
/// warm-starts it from the `irlt-cache/v3` snapshot at `load`, if any.
///
/// The cache is striped over `next_power_of_two(workers * 4)` shards, so
/// probes rarely collide on a stripe (results are bit-identical for every
/// shard count). Any failure to load — unreadable file, bad
/// magic/version, truncation, checksum mismatch, malformed payload —
/// leaves the cache cold and untouched: the pool starts cold, never
/// refuses to run, and the rejection is reported here, once, as a
/// warning on stderr and the `driver/cache/snapshot_rejected` counter.
/// Returns the cache, what the snapshot restored when it loaded, and
/// whether it was rejected.
pub fn open_cache(
    capacity: usize,
    workers: usize,
    load: Option<&Path>,
    tel: &Telemetry,
) -> (SharedLegalityCache, Option<SnapshotLoadStats>, bool) {
    let shards = (workers * 4).next_power_of_two();
    let cache = SharedLegalityCache::with_config(capacity, shards, KeyMode::default());
    let mut rejected = false;
    let stats = load.and_then(|path| {
        std::fs::read(path)
            .map_err(|e| e.to_string())
            .and_then(|bytes| cache.load_snapshot(&bytes).map_err(|e| e.to_string()))
            .map_err(|why| {
                eprintln!(
                    "warning: cache snapshot {} rejected ({why}); starting cold",
                    path.display()
                );
                tel.incr("driver/cache/snapshot_rejected");
                rejected = true;
            })
            .ok()
    });
    (cache, stats, rejected)
}

/// Publishes a pool's shared-cache counters to `tel`: `driver/cache/*`,
/// `legality/cache/contended`, `legality/cache/shard.N/*` and
/// `legality/key/*`. The cache counts every probe itself, so this runs
/// once, when the pool's report is built — `irlt-batch` after the batch,
/// `irlt-serve` on exit.
pub fn publish_cache_telemetry(tel: &Telemetry, cache: &SharedLegalityCache) {
    let s = cache.stats();
    for (name, value) in [
        ("driver/cache/hits", s.hits),
        ("driver/cache/cross_hits", s.cross_hits),
        ("driver/cache/misses", s.misses),
        ("driver/cache/inserts", s.inserts),
        ("driver/cache/evictions", s.evictions),
        ("driver/cache/snapshot_entries", s.snapshot_entries),
        ("driver/cache/snapshot_hits", s.snapshot_hits),
        ("legality/cache/contended", s.contended),
        ("legality/key/probes", s.key_probes),
        ("legality/key/verifies", s.interner_verifies),
        ("legality/key/collisions", s.interner_collisions),
        ("legality/key/interned", s.interned_values),
        ("legality/key/interner_hits", s.interner_hits),
    ] {
        tel.count(name, value);
    }
    for (n, shard) in cache.shard_stats().iter().enumerate() {
        tel.count(&format!("legality/cache/shard.{n}/hits"), shard.hits);
        tel.count(&format!("legality/cache/shard.{n}/misses"), shard.misses);
        tel.count(
            &format!("legality/cache/shard.{n}/evictions"),
            shard.evictions,
        );
    }
}

/// The `cache` object of the `irlt-batch` artifact and the `irlt-serve`
/// `stats` payload: [`SharedCacheStats::to_json`] plus
/// `snapshot_rejected`.
pub fn cache_json(stats: &SharedCacheStats, snapshot_rejected: bool) -> Json {
    let mut cache = stats.to_json();
    if let Json::Object(fields) = &mut cache {
        fields.push(("snapshot_rejected".into(), Json::Bool(snapshot_rejected)));
    }
    cache
}

/// Runs every job to a result on a pool of `workers` threads. The
/// pool hands out jobs from one shared counter: each worker claims the
/// next unclaimed index, runs that job and fills its slot, and stops once
/// every job is claimed, so a worker that finishes early simply claims
/// more.
///
/// Per-job results are **deterministic**: bit-identical across worker
/// counts, submission orders, claim interleavings, cache capacities, and
/// telemetry on/off. Jobs with deadlines come back as
/// [`JobStatus::TimedOut`] holding the best legal candidate found in
/// budget; everything else in the batch is unaffected. All workers are
/// joined before this returns (`std::thread::scope` — no thread leaks,
/// even if a job panics).
pub fn run_batch(jobs: &[Job], config: &BatchConfig) -> BatchResult {
    let start = Instant::now();
    let workers = worker_count(config.threads);
    let tel = &config.telemetry;
    let (cache, snapshot, snapshot_rejected) = open_cache(
        config.cache_capacity,
        workers,
        config.cache_load.as_deref(),
        tel,
    );
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<JobResult>> = jobs.iter().map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (next, slots, cache) = (&next, &slots, &cache);
            scope.spawn(move || {
                let opts = ExecOptions {
                    telemetry: config.telemetry.clone(),
                    cancel: None,
                };
                loop {
                    // `Relaxed` suffices: `fetch_add` alone makes each
                    // claim unique, and the results are published by the
                    // `OnceLock`s and the scope's join, not by the index.
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(k) else { break };
                    if tel.is_enabled() {
                        tel.observe("driver/queue_depth", (jobs.len() - k - 1) as f64);
                    }
                    let result = execute_job(job, k as u64, w, Some(cache), &opts);
                    slots[k]
                        .set(result)
                        .expect("the counter hands out each job once");
                }
            });
        }
    });
    let results: Vec<JobResult> = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every job was claimed"))
        .collect();
    let result = BatchResult {
        jobs: results,
        workers,
        steals: 0,
        cache: Some(cache.stats()),
        snapshot,
        snapshot_rejected,
        wall: start.elapsed(),
    };
    if tel.is_enabled() {
        for (name, value) in [
            ("driver/jobs", result.jobs.len() as u64),
            ("driver/workers", workers as u64),
            ("driver/completed", result.completed() as u64),
            ("driver/timed_out", result.timed_out() as u64),
        ] {
            tel.count(name, value);
        }
        for r in &result.jobs {
            // Power-of-two microsecond buckets keep the histogram compact
            // across the µs–s range.
            let us = (r.wall.as_micros() as u64).max(1);
            tel.record("driver/job_wall_us", us.next_power_of_two());
            tel.record_span("driver/job", r.wall);
        }
        publish_cache_telemetry(tel, &cache);
        tel.record_span("driver/batch", result.wall);
    }
    // Persist the warmed cache for the next run. A save failure is a
    // warning, not a batch failure — the results are already computed.
    if let Some(path) = &config.cache_save {
        if let Err(why) = cache.save_snapshot_to(path, 0) {
            eprintln!(
                "warning: cache snapshot {} not saved ({why})",
                path.display()
            );
        }
    }
    result
}

/// Per-execution settings for running one job outside a batch — the
/// *request adapter* long-lived services (`irlt-serve`) share with
/// [`run_batch`]. Telemetry never changes a result and an unfired token
/// changes nothing; scheduling (threads, job order) is the caller's
/// business.
#[derive(Clone, Debug, Default)]
pub struct ExecOptions {
    /// Telemetry sink; disabled by default and bit-identical either way.
    pub telemetry: Telemetry,
    /// Cancellation override. When set, this token governs the search
    /// instead of a fresh [`CancelToken::with_deadline`] built from
    /// [`Job::deadline`] — a service arms the token at *admission* so
    /// the SLO covers queueing, not just compute, and can also fire it
    /// on client disconnect or drain.
    pub cancel: Option<CancelToken>,
}

/// Executes one job: analyze dependences, arm the deadline, search
/// serially (parallelism across jobs is the scheduler's job, not the
/// engine's).
///
/// The result's deterministic fields are a pure function of the
/// [`Job`] — independent of `owner`, `worker`, cache contents, and
/// telemetry. A fired cancellation (deadline or
/// [`ExecOptions::cancel`]) returns the best *legal* candidate found
/// so far (at worst the identity) as [`JobStatus::TimedOut`]; it never
/// panics or hangs.
pub fn execute_job(
    job: &Job,
    owner: u64,
    worker: usize,
    cache: Option<&SharedLegalityCache>,
    opts: &ExecOptions,
) -> JobResult {
    let deps = analyze_dependences(&job.nest);
    let cancel = opts
        .cancel
        .clone()
        .or_else(|| job.deadline.map(CancelToken::with_deadline));
    let cfg = SearchConfig {
        catalog: job.catalog.clone(),
        max_steps: job.max_steps,
        beam_width: job.beam_width,
        telemetry: opts.telemetry.clone(),
        shared: cache.cloned(),
        owner,
        cancel,
        ..SearchConfig::default()
    };
    let start = Instant::now();
    let r = search(&job.nest, &deps, &job.goal, &cfg);
    JobResult {
        name: job.name.clone(),
        status: if r.timed_out {
            JobStatus::TimedOut
        } else {
            JobStatus::Completed
        },
        best: r.best,
        explored: r.explored,
        legal: r.legal,
        wall: start.elapsed(),
        worker,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::demo_corpus;

    fn serial() -> BatchConfig {
        BatchConfig {
            threads: 1,
            ..BatchConfig::default()
        }
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let jobs = demo_corpus(6);
        let r = run_batch(&jobs, &serial());
        let names: Vec<&str> = r.jobs.iter().map(|j| j.name.as_str()).collect();
        let expected: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
        assert_eq!(names, expected);
        assert_eq!(r.completed(), 6);
        assert_eq!(r.timed_out(), 0);
        assert_eq!(r.workers, 1);
    }

    #[test]
    fn empty_batch_is_fine() {
        let r = run_batch(&[], &serial());
        assert!(r.jobs.is_empty());
        assert_eq!(r.completed(), 0);
        assert!(r.to_json().get("summary").is_some());
    }

    #[test]
    fn cache_reports_cross_hits_on_duplicates() {
        // demo_corpus cycles 8 distinct nest shapes: jobs 8.. re-derive
        // the subproblems jobs 0..8 deposited.
        let jobs = demo_corpus(16);
        let r = run_batch(&jobs, &serial());
        let stats = r.cache.expect("every batch shares a cache");
        assert!(stats.cross_hits > 0, "{stats}");
        // Replaying shared verdicts changes no result: each job matches
        // a standalone uncached search.
        let uncached = jobs
            .iter()
            .enumerate()
            .map(|(k, job)| execute_job(job, k as u64, 0, None, &ExecOptions::default()));
        for (a, b) in r.jobs.iter().zip(uncached) {
            assert_eq!(a.best.seq.to_string(), b.best.seq.to_string());
            assert_eq!(a.best.score.to_bits(), b.best.score.to_bits());
            assert_eq!(a.explored, b.explored);
        }
    }

    #[test]
    fn json_artifact_has_the_batch_shape() {
        let jobs = demo_corpus(3);
        let r = run_batch(&jobs, &serial());
        let j = r.to_json();
        assert_eq!(
            j.get("schema").and_then(Json::as_str),
            Some("irlt-batch/v1")
        );
        assert_eq!(
            j.get_path(&["summary", "jobs"]).and_then(Json::as_i64),
            Some(3)
        );
        assert_eq!(
            j.get("jobs").and_then(Json::as_array).map(<[Json]>::len),
            Some(3)
        );
        assert!(j.get_path(&["cache", "hits"]).is_some());
        assert!(j.get_path(&["cache", "key_probes"]).is_some());
        assert!(j.get_path(&["cache", "interned"]).is_some());
        let s = r.cache.expect("every batch shares a cache");
        assert!(s.key_probes > 0, "{s}");
        assert!(s.interned_values > 0, "{s}");
        assert_eq!(s.interner_collisions, 0, "{s}");
        // Round-trips through the parser.
        let text = j.to_string_pretty();
        assert_eq!(Json::parse(&text).unwrap(), j);
        assert!(r.to_string().contains("3 job(s)"), "{r}");
    }
}
