//! The `serve-mixed` workload: a live in-process `irlt-serve` server on
//! a Unix socket, warm-started from a snapshot, under a closed loop of
//! `parallelism()` connections with one request in flight each.

use crate::batch;
use crate::report::{Metric, RunResult};
use crate::stats::{fastest, median, peak_rss_mb, quantile};
use crate::trace::{Recorder, Trace};
use crate::verify::{check_answer, Digest};
use crate::workload::{fresh_at, known_pairs, parallelism, GoalSpec, Source};
use irlt_driver::{execute_job, run_batch, BatchConfig, ExecOptions, JobResult};
use irlt_harness::rng::Rng;
use irlt_ir::parse_nest;
use irlt_obs::Json;
use irlt_serve::protocol::{Event, OptimizeRequest, RejectReason, Request};
use irlt_serve::{client, ServeConfig, ServeSummary, Server, ServerHandle};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Requests per segment. Every segment holds the same mix: `FRESH`
/// fresh nests (equal shares of depth 2, 3, 4 and of both goals) and 25
/// repeats of each of the 16 known (shape, goal) pairs the warm
/// snapshot holds, in seeded order.
const SEGMENT: usize = 500;
const FRESH: usize = 100;
/// Segments per 10 s of `--seconds` (about 7 s of serving on a 2-core
/// host; with set-up, warm-up and checks a run takes about `--seconds`,
/// as a batch run does). The request count is fixed by
/// `(seed, seconds)`, so every run serves the same requests and the
/// answers digest can repeat exactly.
const SEGMENTS_PER_10S: f64 = 7.0;
const WARMUP_REQUESTS: usize = 200;

/// The request stream of a run, drawn from `seed`.
fn requests(seed: u64, seconds: f64) -> Vec<Source> {
    let known = known_pairs(3, 8);
    let mut rng = Rng::new(seed ^ 0x5e7e_0000);
    let segments = ((SEGMENTS_PER_10S * seconds / 10.0).round() as usize).max(2);
    let mut out = Vec::new();
    for _ in 0..segments {
        let mut slots: Vec<Option<usize>> = (0..SEGMENT)
            .map(|k| (k >= FRESH).then(|| k % known.len()))
            .collect();
        rng.shuffle(&mut slots);
        let mut made = 0;
        for slot in slots {
            out.push(match slot {
                Some(pair) => known[pair].clone(),
                None => {
                    made += 1;
                    fresh_at(&mut rng, 2 + made % 3, (made / 3) % 2 == 1)
                }
            });
        }
    }
    out
}

/// Saves the warm snapshot: an untimed batch over the 16 known pairs.
fn warm_snapshot(dir: &Path) -> Result<PathBuf, String> {
    let path = dir.join("warm.snap");
    let jobs: Vec<_> = known_pairs(3, 8)
        .iter()
        .enumerate()
        .map(|(k, s)| {
            s.job(
                format!("known-{k}"),
                parse_nest(&s.text).expect("demo nests parse"),
            )
        })
        .collect();
    let r = run_batch(
        &jobs,
        &BatchConfig {
            threads: parallelism(),
            cache_save: Some(path.clone()),
            ..BatchConfig::default()
        },
    );
    if r.completed() != jobs.len() || !path.is_file() {
        return Err("warm snapshot batch failed".into());
    }
    Ok(path)
}

fn server_config(snapshot: &Path) -> ServeConfig {
    ServeConfig {
        workers: parallelism(),
        cache_load: Some(snapshot.to_path_buf()),
        ..ServeConfig::default()
    }
}

/// The start-up a service user pays: spawn (which loads the warm
/// snapshot) and the first `ping` round trip.
fn start(snapshot: &Path, socket: &Path) -> Result<(ServerHandle, f64), String> {
    let t = Instant::now();
    let server =
        Server::spawn(server_config(snapshot), socket).map_err(|e| format!("spawn: {e}"))?;
    client::ping(socket).map_err(|e| format!("ping: {e}"))?;
    Ok((server, t.elapsed().as_secs_f64()))
}

fn stop(server: ServerHandle, socket: &Path) -> Result<ServeSummary, String> {
    client::shutdown(socket).map_err(|e| format!("shutdown: {e}"))?;
    Ok(server.join())
}

/// One served request as the client saw it.
#[derive(Clone, Debug)]
struct Served {
    status: String,
    seq: String,
    score_bits: Option<u64>,
    explored: u64,
    legal: u64,
    wall_ms: f64,
    latency_ms: f64,
    retries: u32,
}

struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(socket: &Path) -> Result<Conn, String> {
        let writer = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { reader, writer })
    }

    fn send(&mut self, req: &Request) -> Result<(), String> {
        let mut line = req.to_line();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<Event, String> {
        let mut line = String::new();
        loop {
            line.clear();
            if self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("recv: {e}"))?
                == 0
            {
                return Err("server closed the connection".into());
            }
            if !line.trim().is_empty() {
                return Event::parse(line.trim());
            }
        }
    }

    /// Sends one `optimize` and waits for its terminal event; latency
    /// runs from the first write to reading `done`.
    fn optimize(&mut self, id: &str, s: &Source) -> Result<Served, String> {
        let goal = match s.goal {
            GoalSpec::Inner => irlt_serve::GoalSpec::Inner,
            _ => irlt_serve::GoalSpec::Outer,
        };
        let req = Request::Optimize(Box::new(OptimizeRequest {
            id: id.to_string(),
            nest: s.text.clone(),
            goal,
            max_steps: Some(s.max_steps),
            beam_width: Some(s.beam),
            deadline_ms: None,
        }));
        let t = Instant::now();
        let mut retries = 0;
        self.send(&req)?;
        loop {
            let failed = |status: String| Served {
                status,
                seq: String::new(),
                score_bits: None,
                explored: 0,
                legal: 0,
                wall_ms: 0.0,
                latency_ms: t.elapsed().as_secs_f64() * 1e3,
                retries,
            };
            match self.recv()? {
                Event::Done {
                    id: got,
                    status,
                    seq,
                    score,
                    explored,
                    legal,
                    wall_ms,
                    ..
                } if got == id => {
                    return Ok(Served {
                        status,
                        seq,
                        score_bits: score.map(f64::to_bits),
                        explored,
                        legal,
                        wall_ms,
                        latency_ms: t.elapsed().as_secs_f64() * 1e3,
                        retries,
                    })
                }
                Event::Failed { id: got, detail } if got == id => {
                    return Ok(failed(format!("failed:{detail}")))
                }
                Event::Rejected {
                    reason,
                    retry_after_ms,
                    ..
                } => {
                    if reason == RejectReason::Backpressure && retries < 1000 {
                        retries += 1;
                        std::thread::sleep(Duration::from_millis(retry_after_ms.unwrap_or(1)));
                        self.send(&req)?;
                    } else {
                        return Ok(failed(format!("rejected:{reason}")));
                    }
                }
                _ => {}
            }
        }
    }
}

/// Served results in request order, the wall time of each segment, and
/// the per-connection span recorders of a traced loop.
type Looped = (Vec<Served>, Vec<f64>, Vec<Recorder>);

fn request_id(k: usize) -> String {
    format!("r{k:06}")
}

/// The closed loop: connection `c` serves requests `c, c + C, …` of
/// each segment one at a time, and the connections meet at a barrier
/// after every segment of `segment` requests. With a recorder per
/// connection each request becomes a `serve.request` span whose child is
/// the server-reported compute time (`driver.execute_job`). Returns the
/// results in request order and the wall time of each segment.
fn closed_loop(
    socket: &Path,
    reqs: &[Source],
    offset: usize,
    segment: usize,
    epoch: Option<Instant>,
) -> Result<Looped, String> {
    let conns = parallelism();
    let slots: Vec<Mutex<Option<Served>>> = reqs.iter().map(|_| Mutex::new(None)).collect();
    let recorders = Mutex::new(Vec::new());
    let barrier = Barrier::new(conns);
    let marks = Mutex::new(Vec::new());
    let segments: Vec<std::ops::Range<usize>> = (0..reqs.len())
        .step_by(segment.max(1))
        .map(|a| a..(a + segment).min(reqs.len()))
        .collect();
    std::thread::scope(|s| -> Result<(), String> {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (slots, recorders, barrier, marks, segments) =
                    (&slots, &recorders, &barrier, &marks, &segments);
                s.spawn(move || -> Result<(), String> {
                    let mut conn = Conn::open(socket);
                    let mut rec = epoch.map(|e| Recorder::new(e, c));
                    let mut serve = |k: usize, rec: Option<&mut Recorder>| -> Result<(), String> {
                        let conn = conn.as_mut().map_err(|e| e.clone())?;
                        let id = request_id(offset + k);
                        let served = match rec {
                            None => conn.optimize(&id, &reqs[k])?,
                            Some(r) => r.span("serve.request", k as u64, |r| {
                                let start = r.now_ns();
                                let served = conn.optimize(&id, &reqs[k])?;
                                let end = r.now_ns();
                                let wall = (served.wall_ms * 1e6) as u64;
                                r.child("driver.execute_job", k as u64, start, end, wall);
                                Ok::<_, String>(served)
                            })?,
                        };
                        *slots[k].lock().expect("slot lock") = Some(served);
                        Ok(())
                    };
                    // After an error this thread stops serving but keeps
                    // meeting the barrier, so the other connection never
                    // waits for it forever.
                    let mut err = None;
                    let mut run = |mut rec: Option<&mut Recorder>| {
                        if barrier.wait().is_leader() {
                            marks.lock().expect("mark lock").push(Instant::now());
                        }
                        for seg in segments {
                            for k in seg.clone().skip(c).step_by(conns) {
                                if err.is_none() {
                                    err = serve(k, rec.as_deref_mut()).err();
                                }
                            }
                            if barrier.wait().is_leader() {
                                marks.lock().expect("mark lock").push(Instant::now());
                            }
                        }
                    };
                    match rec.as_mut() {
                        None => run(None),
                        Some(r) => r.span("bench.worker", c as u64, |r| run(Some(r))),
                    }
                    if let Some(r) = rec {
                        recorders.lock().expect("recorder lock").push(r);
                    }
                    err.map_or(Ok(()), Err)
                })
            })
            .collect();
        for h in handles {
            h.join()
                .map_err(|_| "client thread panicked".to_string())??;
        }
        Ok(())
    })?;
    let marks = marks.into_inner().expect("mark lock");
    let walls = marks
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64())
        .collect();
    let served = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock")
                .expect("every request served")
        })
        .collect();
    Ok((
        served,
        walls,
        recorders.into_inner().expect("recorder lock"),
    ))
}

fn key(s: &Source) -> (String, bool) {
    (s.text.clone(), matches!(s.goal, GoalSpec::Inner))
}

/// Re-runs every distinct request in-process through `execute_job`,
/// checks each in-process answer, and compares every served answer with
/// it. Returns the failures as `(request id, reason)`.
fn check_served(reqs: &[Source], served: &[Served], offset: usize) -> Vec<(String, String)> {
    let mut distinct: Vec<&Source> = Vec::new();
    let mut index: HashMap<(String, bool), usize> = HashMap::new();
    for s in reqs {
        index.entry(key(s)).or_insert_with(|| {
            distinct.push(s);
            distinct.len() - 1
        });
    }
    let reference: Vec<Mutex<Option<Result<JobResult, String>>>> =
        distinct.iter().map(|_| Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..parallelism() {
            s.spawn(|| loop {
                let k = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(src) = distinct.get(k) else { break };
                let nest = parse_nest(&src.text).expect("generated nests parse");
                let job = src.job(format!("ref-{k}"), nest);
                let r = execute_job(&job, k as u64, 0, None, &ExecOptions::default());
                let verdict =
                    check_answer(&job.nest, &r.status.to_string(), &r.best.seq, None, 0).map(|_| r);
                *reference[k].lock().expect("reference lock") = Some(verdict);
            });
        }
    });
    let reference: Vec<Result<JobResult, String>> = reference
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("reference lock")
                .expect("every reference ran")
        })
        .collect();
    let mut failures = Vec::new();
    for (k, (s, got)) in reqs.iter().zip(served).enumerate() {
        let id = request_id(offset + k);
        let why = match &reference[index[&key(s)]] {
            Err(why) => Some(format!("in-process answer fails its check: {why}")),
            Ok(want) => {
                let want_bits = want
                    .best
                    .score
                    .is_finite()
                    .then(|| want.best.score.to_bits());
                if got.status != "completed" {
                    Some(format!("status {}", got.status))
                } else if got.seq != want.best.seq.to_string()
                    || got.score_bits != want_bits
                    || got.explored != want.explored as u64
                    || got.legal != want.legal as u64
                {
                    Some(format!(
                        "served {} ({}/{}) differs from in-process {} ({}/{})",
                        got.seq, got.explored, got.legal, want.best.seq, want.explored, want.legal
                    ))
                } else {
                    None
                }
            }
        };
        if let Some(why) = why {
            failures.push((id, why));
        }
    }
    failures
}

fn digest(served: &[Served], offset: usize) -> Digest {
    let mut d = Digest::default();
    for (k, s) in served.iter().enumerate() {
        d.add(
            &request_id(offset + k),
            &s.seq,
            s.score_bits.unwrap_or(0),
            s.explored,
            s.legal,
        );
    }
    d
}

/// Warm snapshot, then an untimed warm-up against a throwaway server
/// (its cache is discarded with it).
fn prepare(seed: u64, seconds: f64, dir: &Path) -> Result<(PathBuf, PathBuf, Vec<Source>), String> {
    let snapshot = warm_snapshot(dir)?;
    let socket = dir.join("s.sock");
    let reqs = requests(seed, seconds);
    let (warm, _) = start(&snapshot, &socket)?;
    closed_loop(&socket, &reqs[..WARMUP_REQUESTS], 0, WARMUP_REQUESTS, None)?;
    stop(warm, &socket)?;
    Ok((snapshot, socket, reqs))
}

/// Set-up samples taken before the timed phase (the last one starts the
/// server that serves it); as many again are taken after it, so the
/// samples spread over the run. `setup_s` is the [`fastest`] of them.
const SETUP_SAMPLES: usize = 8;

/// The untraced run: end-to-end metrics over every request of the timed
/// phase.
pub fn run(seed: u64, seconds: f64, dir: &Path) -> Result<RunResult, String> {
    let (snapshot, socket, reqs) = prepare(seed, seconds, dir)?;
    let mut setup = Vec::new();
    for _ in 1..SETUP_SAMPLES {
        let (s, secs) = start(&snapshot, &socket)?;
        setup.push(secs);
        stop(s, &socket)?;
    }
    let (server, secs) = start(&snapshot, &socket)?;
    setup.push(secs);
    let (served, walls, _) = closed_loop(&socket, &reqs, 0, SEGMENT, None)?;
    let summary = stop(server, &socket)?;
    // Before the answer checks, which re-run every distinct request.
    let rss = peak_rss_mb();
    for _ in 0..SETUP_SAMPLES {
        let (s, secs) = start(&snapshot, &socket)?;
        setup.push(secs);
        stop(s, &socket)?;
    }

    let failures = check_served(&reqs, &served, 0);
    let failed_ids: std::collections::HashSet<&str> =
        failures.iter().map(|(id, _)| id.as_str()).collect();
    let lat: Vec<f64> = served.iter().map(|s| s.latency_ms).collect();
    let mut res = RunResult::new(served.len() as u64, failed_ids.len() as u64);
    res.metrics = vec![
        Metric::new("setup_s", fastest(&setup), "s"),
        Metric::new(
            "jobs_per_s",
            lat.len() as f64 / walls.iter().sum::<f64>(),
            "jobs/s",
        ),
        Metric::new("latency_p50_ms", median(&lat), "ms"),
        Metric::new("latency_p99_ms", quantile(&lat, 0.99), "ms"),
        Metric::new("peak_rss_mb", rss, "MB"),
    ];
    res.note("answers_digest", Json::Str(digest(&served, 0).hex()));
    res.note("requests", Json::Int(served.len() as i64));
    res.note(
        "segment_walls_s",
        Json::Array(walls.iter().map(|&w| Json::Float(w)).collect()),
    );
    res.note(
        "segment_latency_ms",
        Json::Array(
            served
                .chunks(SEGMENT)
                .map(|c| Json::Array(c.iter().map(|s| Json::Float(s.latency_ms)).collect()))
                .collect(),
        ),
    );
    res.note("latency_samples", Json::Int(lat.len() as i64));
    res.note(
        "setup_samples_s",
        Json::Array(setup.iter().map(|&s| Json::Float(s)).collect()),
    );
    res.note("server", Json::Str(summary.to_string()));
    res.add_failures(failures);
    Ok(res)
}

/// The traced run: half the requests untraced (the overhead ratio's
/// base), the other half traced from the client, then the decomposed
/// in-process phase over the traced half with a warm cache.
pub fn run_traced(seed: u64, seconds: f64, dir: &Path) -> Result<RunResult, String> {
    let (snapshot, socket, reqs) = prepare(seed, seconds, dir)?;
    let half = reqs.len() / 2;
    let (untraced_reqs, traced_reqs) = reqs.split_at(half);
    let (server, _) = start(&snapshot, &socket)?;
    let (served_u, walls_u, _) = closed_loop(&socket, untraced_reqs, 0, half, None)?;
    let wall_u: f64 = walls_u.iter().sum();
    let epoch = Instant::now();
    let (served_t, walls_t, recorders) =
        closed_loop(&socket, traced_reqs, half, traced_reqs.len(), Some(epoch))?;
    let wall_t: f64 = walls_t.iter().sum();
    let summary = stop(server, &socket)?;

    let bytes = std::fs::read(&snapshot).map_err(|e| e.to_string())?;
    let (load_ms, entries) = batch::time_snapshot_load(&bytes, parallelism())?;
    let make_cache = || {
        let c = batch::batch_cache(parallelism());
        c.load_snapshot(&bytes).expect("warm snapshot loads");
        c
    };
    let texts: Vec<String> = traced_reqs.iter().map(|s| s.text.clone()).collect();
    let mut t = batch::traced_phase(&texts, traced_reqs, texts.len(), &make_cache);
    t.trace.extend(Trace::merge(recorders));

    let mut failures = check_served(untraced_reqs, &served_u, 0);
    failures.extend(check_served(traced_reqs, &served_t, half));
    failures.extend(std::mem::take(&mut t.failures));
    let attempted = (served_u.len() + served_t.len() + t.jobs) as u64;
    let mut res = RunResult::new(attempted, failures.len() as u64);
    res.metrics = batch::layer_metrics(&t);
    let cache = summary.cache.ok_or("server reported no cache")?;
    let probes = (cache.hits + cache.misses).max(1);
    let busy =
        served_u.iter().map(|s| s.wall_ms / 1e3).sum::<f64>() / (parallelism() as f64 * wall_u);
    let share: Vec<f64> = served_t
        .iter()
        .map(|s| (s.latency_ms - s.wall_ms).max(0.0) / s.latency_ms)
        .collect();
    let retries: u32 = served_u.iter().chain(&served_t).map(|s| s.retries).sum();
    let rejected =
        summary.rejected_backpressure + summary.rejected_draining + summary.rejected_bad_request;
    let rate_u = served_u.len() as f64 / wall_u;
    let rate_t = served_t.len() as f64 / wall_t;
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
        Metric::new("core.snapshot.bytes", bytes.len() as f64, "bytes"),
        Metric::new("core.snapshot.entries", entries as f64, "count"),
        Metric::new("driver.busy_ratio", busy, "ratio"),
        Metric::new("serve.overhead_share_p50", median(&share), "ratio"),
        Metric::new("serve.retries", f64::from(retries), "count"),
        Metric::new("serve.rejected", rejected as f64, "count"),
        Metric::new("trace.overhead_ratio", rate_t / rate_u, "ratio"),
    ]);
    // The server's workers take requests from one admission queue, so
    // there is nothing to steal; no request has a locality goal.
    res.not_measured(&[("driver.steals", "count"), batch::NO_SEARCH_SIMULATION]);
    let overhead_ms: Vec<f64> = served_t
        .iter()
        .map(|s| (s.latency_ms - s.wall_ms).max(0.0))
        .collect();
    res.note(
        "bases",
        Json::Object(vec![
            ("core.cache.hits".into(), Json::Int(cache.hits as i64)),
            ("core.cache.probes".into(), Json::Int(probes as i64)),
            (
                "serve.overhead_p50_ms".into(),
                Json::Float(median(&overhead_ms)),
            ),
            ("traced_requests_per_s".into(), Json::Float(rate_t)),
            ("untraced_requests_per_s".into(), Json::Float(rate_u)),
            ("decomposed_jobs".into(), Json::Int(t.jobs as i64)),
        ]),
    );
    res.note("server", Json::Str(summary.to_string()));
    res.trace = Some(t.trace);
    res.add_failures(failures);
    Ok(res)
}
