//! The batch workloads (`batch-dedup`, `batch-unique`, `locality`):
//! inputs go through `irlt_driver::run_batch`, the entry point
//! `irlt-batch` users run.

use crate::report::{Metric, RunResult};
use crate::stats::{fastest, mean, median, peak_rss_mb, quantile};
use crate::trace::{Recorder, Trace};
use crate::verify::{check_answer, check_batch, Digest, CHECK_PARAMS};
use crate::workload::{self, load_jobs, parallelism, Corpus, Source, Workload};
use irlt_cachesim::{simulate_nest, AddressMap, Order};
use irlt_core::{KeyMode, SharedLegalityCache};
use irlt_dependence::analyze_dependences;
use irlt_driver::{run_batch, BatchConfig, BatchResult, Job};
use irlt_interp::{Executor, Memory, TraceLevel};
use irlt_ir::{parse_nest, LoopNest};
use irlt_obs::Json;
use irlt_opt::{search, SearchConfig, SearchResult};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Set-up samples taken before the warm-up; one more is taken before
/// every `run_batch` call, so the samples spread over the run
/// (`setup_s` is the [`fastest`] of them).
const SETUP_SAMPLES: usize = 3;
/// Jobs in the untimed warm-up batch (the corpus tail).
const WARMUP_JOBS: usize = 16;

fn config() -> BatchConfig {
    BatchConfig {
        threads: parallelism(),
        ..BatchConfig::default()
    }
}

pub struct Prepared {
    pub corpus: Corpus,
    pub jobs: Vec<Job>,
    pub round: usize,
    pub passes: usize,
    pub setup: Vec<f64>,
}

/// One set-up sample: the set-up path run twice back to back, the second
/// one timed. Right after a `run_batch` call the first run reads up to
/// 6× slower, by an amount that varies from call to call; the second
/// reads as it does before the call.
fn time_setup(corpus: &Corpus) -> Result<(Vec<Job>, f64), String> {
    std::hint::black_box(load_jobs(corpus)?);
    let t = Instant::now();
    let jobs = std::hint::black_box(load_jobs(corpus)?);
    Ok((jobs, t.elapsed().as_secs_f64()))
}

/// Writes the corpus (untimed), times the set-up path [`SETUP_SAMPLES`]
/// times, then runs the untimed warm-up: one batch over the corpus tail
/// (run_batch builds a fresh cache per call, so its cache is thrown
/// away).
pub fn prepare(w: Workload, seed: u64, seconds: f64, dir: &Path) -> Result<Prepared, String> {
    let plan = workload::batch_plan(w, seed, seconds);
    let corpus = workload::write_corpus(&dir.join("corpus"), plan.sources)
        .map_err(|e| format!("writing corpus: {e}"))?;
    let mut setup = Vec::new();
    let mut jobs = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        let (j, secs) = time_setup(&corpus)?;
        jobs = j;
        setup.push(secs);
    }
    run_batch(&jobs[jobs.len().saturating_sub(WARMUP_JOBS)..], &config());
    Ok(Prepared {
        corpus,
        jobs,
        round: plan.round,
        passes: plan.passes,
        setup,
    })
}

/// One pass over the corpus: a `run_batch` call per round of jobs. With
/// `setup`, a set-up sample is taken before each call.
fn pass(p: &Prepared, mut setup: Option<&mut Vec<f64>>) -> Result<Vec<(BatchResult, f64)>, String> {
    let cfg = config();
    let mut out = Vec::new();
    for chunk in p.jobs.chunks(p.round) {
        if let Some(samples) = setup.as_deref_mut() {
            samples.push(time_setup(&p.corpus)?.1);
        }
        let t = Instant::now();
        let r = run_batch(chunk, &cfg);
        out.push((r, t.elapsed().as_secs_f64()));
    }
    Ok(out)
}

/// Checks pass 1's answers, and counts the jobs of every pass that did
/// not complete, failed the check, or answered differently from pass 1.
fn failures(
    p: &Prepared,
    passes: &[Vec<(BatchResult, f64)>],
) -> (u64, Vec<(String, String)>, Digest) {
    let answers = |pass: &[(BatchResult, f64)]| -> Vec<irlt_driver::JobResult> {
        pass.iter()
            .flat_map(|(r, _)| r.jobs.iter().cloned())
            .collect()
    };
    let first = answers(&passes[0]);
    let checked = check_batch(&p.jobs, &first);
    let bad: std::collections::HashSet<&str> = checked.iter().map(|(n, _)| n.as_str()).collect();
    let mut failed = 0u64;
    for pass in passes {
        for (a, b) in answers(pass).iter().zip(&first) {
            let same = a.best.seq.to_string() == b.best.seq.to_string()
                && a.best.score.to_bits() == b.best.score.to_bits()
                && a.explored == b.explored
                && a.legal == b.legal;
            if !a.status.is_completed() || bad.contains(a.name.as_str()) || !same {
                failed += 1;
            }
        }
    }
    (failed, checked, Digest::of_batch(&first))
}

/// The untraced run: end-to-end metrics over every `run_batch` call of
/// the timed phase.
pub fn run(w: Workload, seed: u64, seconds: f64, dir: &Path) -> Result<RunResult, String> {
    let mut p = prepare(w, seed, seconds, dir)?;
    let mut setup = std::mem::take(&mut p.setup);
    let passes = (0..p.passes)
        .map(|_| pass(&p, Some(&mut setup)))
        .collect::<Result<Vec<_>, _>>()?;
    // Before the answer checks, which run the interpreter on every answer.
    let rss = peak_rss_mb();
    let calls: Vec<&(BatchResult, f64)> = passes.iter().flatten().collect();
    let attempted: u64 = calls.iter().map(|(r, _)| r.jobs.len() as u64).sum();
    let walls: Vec<f64> = calls.iter().map(|(_, w)| *w).collect();
    let lat_ms: Vec<f64> = calls
        .iter()
        .flat_map(|(r, _)| r.jobs.iter().map(|j| j.wall.as_secs_f64() * 1e3))
        .collect();
    let (failed, checked, digest) = failures(&p, &passes);
    let mut res = RunResult::new(attempted, failed);
    res.metrics = vec![
        Metric::new("setup_s", fastest(&setup), "s"),
        Metric::new(
            "jobs_per_s",
            attempted as f64 / walls.iter().sum::<f64>(),
            "jobs/s",
        ),
        Metric::new("latency_p50_ms", median(&lat_ms), "ms"),
        Metric::new("latency_p99_ms", quantile(&lat_ms, 0.99), "ms"),
        Metric::new("peak_rss_mb", rss, "MB"),
    ];
    res.note("answers_digest", Json::Str(digest.hex()));
    res.note("corpus_jobs", Json::Int(p.jobs.len() as i64));
    res.note("passes", Json::Int(p.passes as i64));
    res.note(
        "call_walls_s",
        Json::Array(walls.iter().map(|&w| Json::Float(w)).collect()),
    );
    res.note(
        "call_jobs_ms",
        Json::Array(
            calls
                .iter()
                .map(|(r, _)| {
                    Json::Array(
                        r.jobs
                            .iter()
                            .map(|j| Json::Float(j.wall.as_secs_f64() * 1e3))
                            .collect(),
                    )
                })
                .collect(),
        ),
    );
    res.note("latency_samples", Json::Int(lat_ms.len() as i64));
    res.note(
        "setup_samples_s",
        Json::Array(setup.iter().map(|&s| Json::Float(s)).collect()),
    );
    res.note("first_call", summary_json(&calls[0].0));
    res.add_failures(checked);
    Ok(res)
}

/// The batch artifact without its per-job array.
fn summary_json(r: &BatchResult) -> Json {
    match r.to_json() {
        Json::Object(fields) => {
            Json::Object(fields.into_iter().filter(|(k, _)| k != "jobs").collect())
        }
        other => other,
    }
}

/// One job's steps, in the order `execute_job` performs them, each
/// wrapped in a span: parse → analyze → search (same shared cache,
/// owner = job index).
pub fn traced_search(
    rec: &mut Recorder,
    k: usize,
    text: &str,
    source: &Source,
    cache: &SharedLegalityCache,
) -> (LoopNest, usize, SearchResult) {
    let id = k as u64;
    rec.span("bench.job", id, |rec| {
        let nest = rec.span("ir.parse", id, |_| {
            parse_nest(text).expect("generated nests parse")
        });
        let deps = rec.span("dependence.analyze", id, |_| analyze_dependences(&nest));
        let job = source.job(workload::job_name(k), nest);
        let cfg = SearchConfig {
            catalog: job.catalog.clone(),
            max_steps: job.max_steps,
            beam_width: job.beam_width,
            threads: 1,
            shared: Some(cache.clone()),
            owner: id,
            ..SearchConfig::default()
        };
        let r = rec.span("opt.search", id, |_| {
            search(&job.nest, &deps, &job.goal, &cfg)
        });
        (job.nest, deps.len(), r)
    })
}

/// A cache like the one `run_batch` builds for `workers` workers.
pub fn batch_cache(workers: usize) -> SharedLegalityCache {
    SharedLegalityCache::with_config(
        SharedLegalityCache::DEFAULT_CAPACITY,
        (workers * 4).next_power_of_two(),
        KeyMode::default(),
    )
}

/// An address map covering every cell a nest touches at `params`,
/// derived from one execution of the nest.
fn covering_map(nest: &LoopNest, params: &[(&str, i64)]) -> Option<AddressMap> {
    let mut ex = Executor::new();
    for &(k, v) in params {
        ex.set_param(k, v);
    }
    ex.trace(TraceLevel::Accesses);
    let run = ex.run(nest, Memory::new()).ok()?;
    let mut boxes: BTreeMap<String, Vec<(i64, i64)>> = BTreeMap::new();
    for e in &run.trace {
        let b = boxes
            .entry(e.array.to_string())
            .or_insert_with(|| e.indices.iter().map(|&i| (i, i)).collect());
        for (r, &i) in b.iter_mut().zip(&e.indices) {
            *r = (r.0.min(i), r.1.max(i));
        }
    }
    let mut map = AddressMap::new(Order::ColMajor, 8);
    for (name, b) in boxes {
        let dims: Vec<u64> = b.iter().map(|&(lo, hi)| (hi - lo + 1) as u64).collect();
        let origin: Vec<i64> = b.iter().map(|&(lo, _)| lo).collect();
        map.declare_with_origin(name.as_str(), &dims, &origin);
    }
    Some(map)
}

/// Per-answer verification, each check in its own span, plus a cache
/// simulation of the original and the answer nest.
pub fn traced_verify(
    rec: &mut Recorder,
    k: usize,
    nest: &LoopNest,
    source: &Source,
    r: &SearchResult,
    accesses: &mut u64,
) -> Result<(), String> {
    let id = k as u64;
    rec.span("bench.verify", id, |rec| {
        let status = if r.timed_out {
            "timed_out"
        } else {
            "completed"
        };
        let answer = check_answer(nest, status, &r.best.seq, Some(&mut *rec), id)?;
        // Locality jobs simulate at their own size and cache; others at
        // the check bindings over a map covering every touched cell.
        let goal = source.goal();
        let (params, map, cache) = match &goal {
            irlt_opt::Goal::Locality(g) => {
                let p: Vec<(&str, i64)> = g.params.iter().map(|(k, v)| (k.as_str(), *v)).collect();
                (p, g.map.clone(), g.cache)
            }
            _ => {
                let params = CHECK_PARAMS.to_vec();
                let map = rec
                    .span("interp.map", id, |_| covering_map(nest, &params))
                    .ok_or("original nest does not execute")?;
                (params, map, workload::LOCALITY_CACHE)
            }
        };
        for n in [nest, &answer] {
            let sim = rec
                .span("cachesim.simulate", id, |_| {
                    simulate_nest(n, &params, &map, cache)
                })
                .map_err(|e| format!("simulate: {e}"))?;
            *accesses += sim.stats.accesses;
        }
        Ok(())
    })
}

/// Everything the traced phase of a batch workload measured.
pub struct TracedBatch {
    pub trace: Trace,
    pub jobs: usize,
    pub search_wall: f64,
    pub explored: Vec<f64>,
    pub legal: Vec<f64>,
    pub vectors: Vec<f64>,
    /// The search's own cache simulations; `None` when no job had a
    /// locality goal, so none could run.
    pub sim_calls_in_search: Option<u64>,
    pub sim_accesses: u64,
    pub failures: Vec<(String, String)>,
    pub snapshot_cache: SharedLegalityCache,
}

/// The traced phase: one pass of decomposed jobs on `parallelism()`
/// threads, in rounds of `round` jobs with a fresh cache each (as the
/// untraced pass), then a traced verification pass over the answers.
pub fn traced_phase(
    texts: &[String],
    sources: &[Source],
    round: usize,
    make_cache: &(dyn Fn() -> SharedLegalityCache + Sync),
) -> TracedBatch {
    let workers = parallelism();
    let epoch = Instant::now();
    let recorders: Mutex<Vec<Recorder>> = Mutex::new(Vec::new());
    let mut out = TracedBatch {
        trace: Trace::default(),
        jobs: texts.len(),
        search_wall: 0.0,
        explored: Vec::new(),
        legal: Vec::new(),
        vectors: Vec::new(),
        sim_calls_in_search: None,
        sim_accesses: 0,
        failures: Vec::new(),
        snapshot_cache: make_cache(),
    };
    let mut answers: Vec<(LoopNest, SearchResult)> = Vec::new();
    for (base, chunk) in (0..texts.len())
        .step_by(round.max(1))
        .zip(texts.chunks(round.max(1)))
    {
        let cache = make_cache();
        let next = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<(LoopNest, usize, SearchResult)>>> =
            chunk.iter().map(|_| Mutex::new(None)).collect();
        let t = Instant::now();
        std::thread::scope(|s| {
            for w in 0..workers {
                let (next, results, cache, recorders) = (&next, &results, &cache, &recorders);
                s.spawn(move || {
                    let mut rec = Recorder::new(epoch, w);
                    rec.span("bench.worker", base as u64, |rec| loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= chunk.len() {
                            break;
                        }
                        let r = traced_search(rec, base + k, &chunk[k], &sources[base + k], cache);
                        *results[k].lock().expect("slot lock") = Some(r);
                    });
                    recorders.lock().expect("recorder lock").push(rec);
                });
            }
        });
        out.search_wall += t.elapsed().as_secs_f64();
        for (k, m) in results.into_iter().enumerate() {
            let (nest, vectors, r) = m.into_inner().expect("slot lock").expect("every job ran");
            out.explored.push(r.explored as f64);
            out.legal.push(r.legal as f64);
            out.vectors.push(vectors as f64);
            if matches!(sources[base + k].goal, workload::GoalSpec::Locality { .. }) {
                *out.sim_calls_in_search.get_or_insert(0) += r.legal as u64 + 1;
            }
            answers.push((nest, r));
        }
        out.snapshot_cache = cache;
    }
    let next = AtomicUsize::new(0);
    let failures = Mutex::new(Vec::new());
    let accesses = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for w in 0..workers {
            let (next, answers, failures, recorders, accesses) =
                (&next, &answers, &failures, &recorders, &accesses);
            s.spawn(move || {
                let mut rec = Recorder::new(epoch, w);
                let mut acc = 0u64;
                rec.span("bench.worker", u64::MAX, |rec| loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some((nest, r)) = answers.get(k) else {
                        break;
                    };
                    if let Err(why) = traced_verify(rec, k, nest, &sources[k], r, &mut acc) {
                        failures
                            .lock()
                            .expect("failure lock")
                            .push((workload::job_name(k), why));
                    }
                });
                accesses.fetch_add(acc as usize, Ordering::Relaxed);
                recorders.lock().expect("recorder lock").push(rec);
            });
        }
    });
    out.sim_accesses = accesses.into_inner() as u64;
    out.failures = failures.into_inner().expect("failure lock");
    out.trace = Trace::merge(recorders.into_inner().expect("recorder lock"));
    out
}

/// Times `load_snapshot` of `bytes` into fresh caches; median ms.
pub fn time_snapshot_load(bytes: &[u8], workers: usize) -> Result<(f64, u64), String> {
    let mut ms = Vec::new();
    let mut entries = 0;
    for _ in 0..3 {
        let cache = batch_cache(workers);
        let t = Instant::now();
        let stats = cache.load_snapshot(bytes).map_err(|e| e.to_string())?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        entries = stats.entries_loaded;
    }
    Ok((median(&ms), entries))
}

/// Per-layer metrics every traced run reports from its decomposed
/// phase (the layers all workloads exercise).
pub fn layer_metrics(t: &TracedBatch) -> Vec<Metric> {
    let us = |name: &str| median(&t.trace.durations_us(name));
    let search_ms: Vec<f64> = t
        .trace
        .durations_us("opt.search")
        .iter()
        .map(|u| u / 1e3)
        .collect();
    let sim_us = t.trace.durations_us("cachesim.simulate");
    let explored: f64 = t.explored.iter().sum();
    let legal: f64 = t.legal.iter().sum();
    let mut out = vec![
        Metric::new("ir.parse_us", us("ir.parse"), "us"),
        Metric::new("dependence.analyze_us", us("dependence.analyze"), "us"),
        Metric::new("dependence.vectors", mean(&t.vectors), "count"),
        Metric::new("core.apply_us", us("core.apply"), "us"),
        Metric::new("core.is_legal_us", us("core.is_legal"), "us"),
        Metric::new("interp.check_us", us("interp.check"), "us"),
        Metric::new("opt.search_p50_ms", median(&search_ms), "ms"),
        Metric::new("opt.search_p90_ms", quantile(&search_ms, 0.9), "ms"),
        Metric::new("opt.explored", mean(&t.explored), "count"),
        Metric::new("opt.legal_ratio", legal / explored.max(1.0), "ratio"),
        Metric::new("cachesim.simulate_ms", median(&sim_us) / 1e3, "ms"),
        Metric::new(
            "cachesim.accesses_per_s",
            t.sim_accesses as f64 / (sim_us.iter().sum::<f64>() / 1e6).max(1e-9),
            "1/s",
        ),
        Metric::new("trace.coverage", t.trace.coverage(), "ratio"),
    ];
    if let Some(calls) = t.sim_calls_in_search {
        out.push(Metric::new("cachesim.calls", calls as f64, "count"));
    }
    out
}

/// `cachesim.calls` when no job of the traced phase had a locality goal.
pub const NO_SEARCH_SIMULATION: (&str, &str) = ("cachesim.calls", "count");

/// The traced run of a batch workload: an untraced `run_batch` phase
/// (cache, driver counters, the base of the overhead ratio), then the
/// decomposed traced phase.
pub fn run_traced(w: Workload, seed: u64, seconds: f64, dir: &Path) -> Result<RunResult, String> {
    // Half the untraced run's work per phase, so the two phases together
    // take about as long as an untraced run.
    let p = prepare(w, seed, seconds / 2.0, dir)?;
    let calls = pass(&p, None)?;
    let untraced_wall: f64 = calls.iter().map(|(_, w)| w).sum();
    let untraced_rate = p.jobs.len() as f64 / untraced_wall;
    let (r0, d0) = &calls[0];
    let busy: f64 =
        r0.jobs.iter().map(|j| j.wall.as_secs_f64()).sum::<f64>() / (r0.workers as f64 * d0);
    let steals: u64 = calls.iter().map(|(r, _)| r.steals).sum();
    let cache = r0.cache.ok_or("run_batch reported no cache")?;

    let texts: Vec<String> = p.corpus.sources.iter().map(|s| s.text.clone()).collect();
    let t = traced_phase(&texts, &p.corpus.sources, p.round, &|| {
        batch_cache(parallelism())
    });
    let traced_rate = t.jobs as f64 / t.search_wall;
    let snapshot = t
        .snapshot_cache
        .save_snapshot()
        .map_err(|e| e.to_string())?;
    let (load_ms, entries) = time_snapshot_load(&snapshot, parallelism())?;

    let failed = t.failures.len() as u64;
    let mut res = RunResult::new(t.jobs as u64, failed);
    res.metrics = layer_metrics(&t);
    let probes = (cache.hits + cache.misses).max(1);
    res.metrics.extend([
        Metric::new(
            "core.cache.hit_ratio",
            cache.hits as f64 / probes as f64,
            "ratio",
        ),
        Metric::new("core.cache.misses", cache.misses as f64, "count"),
        Metric::new("core.cache.evictions", cache.evictions as f64, "count"),
        Metric::new("core.cache.contended", cache.contended as f64, "count"),
        Metric::new("core.snapshot.load_ms", load_ms, "ms"),
        Metric::new("core.snapshot.bytes", snapshot.len() as f64, "bytes"),
        Metric::new("core.snapshot.entries", entries as f64, "count"),
        Metric::new("driver.busy_ratio", busy, "ratio"),
        Metric::new("driver.steals", steals as f64, "count"),
        Metric::new("trace.overhead_ratio", traced_rate / untraced_rate, "ratio"),
    ]);
    // No server runs on a batch workload.
    if t.sim_calls_in_search.is_none() {
        res.not_measured(&[NO_SEARCH_SIMULATION]);
    }
    res.not_measured(&[
        ("serve.overhead_share_p50", "ratio"),
        ("serve.retries", "count"),
        ("serve.rejected", "count"),
    ]);
    res.note(
        "bases",
        Json::Object(vec![
            ("core.cache.hits".into(), Json::Int(cache.hits as i64)),
            ("core.cache.probes".into(), Json::Int(probes as i64)),
            (
                "opt.explored_total".into(),
                Json::Float(t.explored.iter().sum()),
            ),
            ("opt.legal_total".into(), Json::Float(t.legal.iter().sum())),
            ("traced_jobs_per_s".into(), Json::Float(traced_rate)),
            ("untraced_jobs_per_s".into(), Json::Float(untraced_rate)),
            (
                "traced_root_ms".into(),
                Json::Float(t.trace.root_ns() as f64 / 1e6),
            ),
        ]),
    );
    res.trace = Some(t.trace);
    res.add_failures(t.failures);
    Ok(res)
}
