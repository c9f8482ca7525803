//! Soak and fault-injection battery for the optimization service
//! (`irlt-serve`).
//!
//! The service's contract, pinned here end to end over real Unix
//! sockets:
//!
//! 1. **Served equals batched**: the deterministic fields of every
//!    result are bit-identical to `irlt-batch` on the same corpus,
//!    regardless of how many clients submit concurrently.
//! 2. **Admission is honest**: above the high-water mark requests get a
//!    typed `backpressure` rejection with a retry hint; a request that
//!    was *accepted* is never lost — it reaches a terminal event even
//!    through drains and kills.
//! 3. **SLOs degrade, never fail**: an expired deadline returns the
//!    best-so-far *legal* candidate as `timed_out`.
//! 4. **Faults are contained**: poisoned payloads, mid-request
//!    disconnects, and kills produce typed events and clean thread
//!    joins — the server survives all of them.
//! 5. **Restart is warm**: a rotated snapshot taken mid-serve warm
//!    starts the next server (`snapshot_hits > 0`).

use irlt::driver::{demo_corpus, run_batch, BatchConfig, JobResult};
use irlt::obs::Json;
use irlt::prelude::*;
use irlt::serve::client::{self, ClientOptions, ClientResult};
use irlt::serve::{Event, GoalSpec, OptimizeRequest, RejectReason, Request};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("irlt-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A 3-deep kernel whose search is slow enough to still be running
/// while a test exchanges a few protocol lines with the server.
const MATMUL: &str = "do i = 1, n\n do j = 1, n\n  do k = 1, n\n   c(i, j) = c(i, j) + a(i, k) * b(k, j)\n  enddo\n enddo\nenddo";

/// The deterministic fields of a result, comparable between the batch
/// engine and the wire (`wall_ms` and `worker` are excluded — they are
/// scheduling artifacts on both sides).
type Fingerprint = (String, String, String, Option<u64>, String, u64, u64);

fn fingerprint_batch(r: &JobResult) -> Fingerprint {
    (
        r.name.clone(),
        r.status.to_string(),
        r.best.seq.to_string(),
        r.best.score.is_finite().then(|| r.best.score.to_bits()),
        r.best.shape.to_string(),
        r.explored as u64,
        r.legal as u64,
    )
}

fn fingerprint_served(r: &ClientResult) -> Fingerprint {
    (
        r.id.clone(),
        r.status.clone(),
        r.seq.clone(),
        r.score.map(f64::to_bits),
        r.shape.clone(),
        r.explored,
        r.legal,
    )
}

/// A raw protocol connection, for the fault-injection tests that need
/// to speak lines the polished client harness never would.
struct Raw {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Raw {
    fn open(socket: &Path) -> Raw {
        let writer = UnixStream::connect(socket).unwrap();
        // A bug that swallows an event must fail the test, not hang it.
        writer
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        Raw { reader, writer }
    }

    fn send_line(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
    }

    fn send(&mut self, req: &Request) {
        self.send_line(&req.to_line());
    }

    fn recv(&mut self) -> Event {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.reader.read_line(&mut line).unwrap();
            assert!(n > 0, "server closed the connection unexpectedly");
            if !line.trim().is_empty() {
                return Event::parse(line.trim()).unwrap();
            }
        }
    }
}

fn optimize(id: &str, nest: &str, max_steps: usize, beam: usize) -> Request {
    Request::Optimize(Box::new(OptimizeRequest {
        id: id.into(),
        nest: nest.into(),
        goal: GoalSpec::Outer,
        max_steps: Some(max_steps),
        beam_width: Some(beam),
        deadline_ms: None,
    }))
}

/// Contract clause 1: the 64-nest soak. The same corpus served through
/// 1, 4, and 8 concurrent client connections yields results
/// bit-identical to a serial `irlt-batch` run — status, winning
/// sequence, score bits, shape, explored, legal, per nest.
#[test]
fn soak_64_requests_bit_identical_to_batch_across_client_counts() {
    let jobs = demo_corpus(64);
    let batch = run_batch(
        &jobs,
        &BatchConfig {
            threads: 1,
            ..BatchConfig::default()
        },
    );
    assert_eq!(batch.completed(), 64);
    let mut reference: Vec<Fingerprint> = batch.jobs.iter().map(fingerprint_batch).collect();
    reference.sort();
    let artifact = Json::Object(vec![(
        "jobs".into(),
        Json::Array(batch.jobs.iter().map(JobResult::to_json).collect()),
    )]);

    for clients in [1usize, 4, 8] {
        let dir = scratch(&format!("soak-{clients}"));
        let socket = dir.join("s.sock");
        let server = Server::spawn(
            ServeConfig {
                workers: 4,
                ..ServeConfig::default()
            },
            &socket,
        )
        .unwrap();

        let chunk = jobs.len().div_ceil(clients);
        let mut handles = Vec::new();
        for c in 0..clients {
            let slice: Vec<Job> = jobs.iter().skip(c * chunk).take(chunk).cloned().collect();
            let socket = socket.clone();
            handles.push(std::thread::spawn(move || {
                client::run_jobs(&socket, &slice, &ClientOptions::default()).unwrap()
            }));
        }
        let mut served: Vec<ClientResult> = Vec::new();
        for h in handles {
            let report = h.join().unwrap();
            if clients == 1 {
                // Single-connection order matches submission order, so
                // the CI smoke oracle applies verbatim.
                report.check_against_batch(&artifact).unwrap();
            }
            served.extend(report.results);
        }
        assert_eq!(served.len(), 64);
        let mut got: Vec<Fingerprint> = served.iter().map(fingerprint_served).collect();
        got.sort();
        assert_eq!(
            got, reference,
            "served results diverged from batch at {clients} client(s)"
        );

        let bye = client::shutdown(&socket).unwrap();
        assert_eq!(bye, 64, "bye must report every served request");
        let summary = server.join();
        assert_eq!(summary.accepted, 64, "{summary}");
        assert_eq!(summary.completed, 64, "{summary}");
        assert_eq!(summary.failed, 0, "{summary}");
        assert!(!summary.killed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Contract clause 4a: every flavor of poisoned payload gets a typed
/// `bad_request` rejection (with the request id recovered whenever the
/// line had one), and the *same connection* keeps working afterwards.
#[test]
fn poisoned_payloads_get_typed_rejections_and_the_session_survives() {
    let dir = scratch("poison");
    let socket = dir.join("s.sock");
    let server = Server::spawn(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        &socket,
    )
    .unwrap();
    let mut conn = Raw::open(&socket);

    let expect_bad = |conn: &mut Raw, want_id: Option<&str>, want_detail: &str| match conn.recv() {
        Event::Rejected {
            id,
            reason,
            retry_after_ms,
            detail,
        } => {
            assert_eq!(reason, RejectReason::BadRequest, "{detail}");
            assert_eq!(id.as_deref(), want_id, "{detail}");
            assert_eq!(retry_after_ms, None, "bad requests are not retryable");
            assert!(
                detail.contains(want_detail),
                "detail `{detail}` should mention `{want_detail}`"
            );
        }
        other => panic!("expected bad_request rejection, got {other:?}"),
    };

    // Not JSON at all: anonymous rejection.
    conn.send_line("this is not json");
    expect_bad(&mut conn, None, "JSON");
    // Unknown op: the id is recovered so the client can demultiplex.
    conn.send_line(r#"{"op":"frobnicate","id":"p1"}"#);
    expect_bad(&mut conn, Some("p1"), "frobnicate");
    // Optimize with no id: nothing to address the rejection to.
    conn.send_line(r#"{"op":"optimize","nest":"do i = 1, n\n a(i) = 0\nenddo"}"#);
    expect_bad(&mut conn, None, "id");
    // Unknown goal.
    conn.send_line(
        r#"{"op":"optimize","id":"p2","nest":"do i = 1, n\n a(i) = 0\nenddo","goal":"sideways"}"#,
    );
    expect_bad(&mut conn, Some("p2"), "sideways");
    // Syntactically valid request around a malformed nest.
    conn.send(&optimize("p3", "do i = oops", 2, 4));
    expect_bad(&mut conn, Some("p3"), "nest");
    // Wrong protocol version.
    conn.send_line(r#"{"schema":"irlt-serve/v0","op":"ping"}"#);
    expect_bad(&mut conn, None, "schema");

    // The connection survived all six: liveness, then a real request.
    conn.send(&Request::Ping);
    assert_eq!(conn.recv(), Event::Pong);
    conn.send(&optimize(
        "p-ok",
        "do i = 1, n\n a(i) = b(i) * 2\nenddo",
        2,
        4,
    ));
    assert!(matches!(conn.recv(), Event::Accepted { id, .. } if id == "p-ok"));
    assert!(matches!(conn.recv(), Event::Started { id, .. } if id == "p-ok"));
    match conn.recv() {
        Event::Done { id, status, .. } => {
            assert_eq!(id, "p-ok");
            assert_eq!(status, "completed");
        }
        other => panic!("expected done, got {other:?}"),
    }

    // The counters saw every poison.
    conn.send(&Request::Stats);
    let payload = match conn.recv() {
        Event::Stats(payload) => payload,
        other => panic!("expected stats, got {other:?}"),
    };
    let bad = payload
        .get("rejected")
        .and_then(|r| r.get("bad_request"))
        .and_then(Json::as_i64)
        .unwrap();
    assert_eq!(bad, 6, "all six poisons counted");

    drop(conn);
    let served = client::shutdown(&socket).unwrap();
    assert_eq!(served, 1);
    let summary = server.join();
    assert_eq!(summary.rejected_bad_request, 6, "{summary}");
    assert_eq!(summary.completed, 1, "{summary}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Contract clause 4a, hostile nesting: both parsers a request line
/// reaches (JSON framing, then the nest source) cap their recursion, so
/// a ~4 KB line of nested parentheses and a line of 20,000 nested JSON
/// arrays each get a typed `bad_request` rather than overflowing a
/// connection thread's stack and aborting the server.
#[test]
fn deeply_nested_lines_are_rejected_and_the_server_survives() {
    let dir = scratch("deep");
    let socket = dir.join("s.sock");
    let server = Server::spawn(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        &socket,
    )
    .unwrap();
    let mut conn = Raw::open(&socket);
    let parens = 2_000;
    let deep_nest = format!(
        "do i = 1, {}n{}\n a(i) = 0\nenddo",
        "(".repeat(parens),
        ")".repeat(parens)
    );
    conn.send(&optimize("deep-nest", &deep_nest, 2, 4));
    conn.send_line(&("[".repeat(20_000) + &"]".repeat(20_000)));
    for want_id in [Some("deep-nest"), None] {
        match conn.recv() {
            Event::Rejected {
                id, reason, detail, ..
            } => {
                assert_eq!(reason, RejectReason::BadRequest, "{detail}");
                assert_eq!(id.as_deref(), want_id, "{detail}");
                assert!(detail.contains("deep"), "{detail}");
            }
            other => panic!("expected bad_request rejection, got {other:?}"),
        }
    }
    conn.send(&Request::Ping);
    assert_eq!(conn.recv(), Event::Pong);

    drop(conn);
    client::shutdown(&socket).unwrap();
    let summary = server.join();
    assert_eq!(summary.rejected_bad_request, 2, "{summary}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Contract clause 4b: a client that hangs up mid-request has its
/// outstanding work cancelled (the worker does not finish a search
/// nobody will read), and the server keeps serving other clients.
#[test]
fn client_disconnect_mid_request_cancels_work_and_server_survives() {
    let dir = scratch("disconnect");
    let socket = dir.join("s.sock");
    let server = Server::spawn(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        &socket,
    )
    .unwrap();

    // Submit a deep search and vanish while it runs.
    {
        let mut doomed = Raw::open(&socket);
        doomed.send(&optimize("doomed", MATMUL, 6, 24));
        assert!(matches!(doomed.recv(), Event::Accepted { id, .. } if id == "doomed"));
        assert!(matches!(doomed.recv(), Event::Started { id, .. } if id == "doomed"));
        // Dropped here: the reader thread sees EOF with `doomed` still
        // outstanding and fires its CancelToken.
    }

    // A well-behaved client is served normally afterwards (with one
    // worker, this also proves the cancelled search actually stopped —
    // otherwise these four jobs would wait out the full deep search).
    let report = client::run_jobs(&socket, &demo_corpus(4), &ClientOptions::default()).unwrap();
    assert_eq!(report.completed(), 4);

    client::shutdown(&socket).unwrap();
    let summary = server.join();
    assert!(summary.disconnects >= 1, "{summary}");
    assert!(summary.cancelled_by_disconnect >= 1, "{summary}");
    assert_eq!(summary.failed, 0, "{summary}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Contract clause 5: kill a serving process, restart against its
/// rotated snapshot, and the second server answers out of the restored
/// cache (`snapshot_hits > 0`) — the warm-restart story end to end.
#[test]
fn kill_and_restart_warm_starts_from_rotated_snapshot() {
    let dir = scratch("warm");
    let snap = dir.join("warm.snap");
    let jobs = demo_corpus(8);

    // First life: serve with rotation every 4 requests, then die hard.
    let socket1 = dir.join("s1.sock");
    let server1 = Server::spawn(
        ServeConfig {
            workers: 2,
            snapshot: Some(SnapshotPolicy {
                path: snap.clone(),
                every_requests: 4,
                keep_generations: 2,
            }),
            ..ServeConfig::default()
        },
        &socket1,
    )
    .unwrap();
    let report = client::run_jobs(&socket1, &jobs, &ClientOptions::default()).unwrap();
    assert_eq!(report.completed(), 8);
    let summary1 = server1.kill();
    assert!(summary1.killed);
    assert!(summary1.rotations >= 1, "{summary1}");
    assert!(snap.exists(), "a rotated snapshot must survive the kill");

    // Second life: same corpus against the snapshot the kill left.
    let socket2 = dir.join("s2.sock");
    let server2 = Server::spawn(
        ServeConfig {
            workers: 2,
            cache_load: Some(snap.clone()),
            ..ServeConfig::default()
        },
        &socket2,
    )
    .unwrap();
    let report2 = client::run_jobs(&socket2, &jobs, &ClientOptions::default()).unwrap();
    assert_eq!(report2.completed(), 8);
    let stats = client::stats(&socket2).unwrap();
    let snapshot_hits = stats
        .get("cache")
        .and_then(|c| c.get("snapshot_hits"))
        .and_then(Json::as_i64)
        .unwrap();
    assert!(
        snapshot_hits > 0,
        "restart must answer from the restored snapshot, stats: {stats}"
    );
    client::shutdown(&socket2).unwrap();
    let summary2 = server2.join();
    let restored = summary2
        .snapshot
        .expect("warm start must report load stats");
    assert!(restored.entries_loaded > 0);
    assert!(!summary2.snapshot_rejected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Contract clause 3: a storm of requests whose SLO cannot be met. All
/// of them terminate (`timed_out` with a legal best, at worst the
/// identity) — none hang, none error — and the server serves normal
/// traffic immediately afterwards.
#[test]
fn deadline_storm_times_out_with_legal_best_and_clean_join() {
    let dir = scratch("storm");
    let socket = dir.join("s.sock");
    let server = Server::spawn(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        &socket,
    )
    .unwrap();

    let storm: Vec<Job> = (0..8)
        .map(|k| {
            Job::new(
                format!("storm-{k:02}"),
                parse_nest(MATMUL).unwrap(),
                Goal::OuterParallel,
            )
            .with_search(8, 32)
        })
        .collect();
    let report = client::run_jobs(
        &socket,
        &storm,
        &ClientOptions {
            deadline_ms: Some(1),
            ..ClientOptions::default()
        },
    )
    .unwrap();
    assert_eq!(report.results.len(), 8);
    for r in &report.results {
        assert!(
            r.status == "timed_out" || r.status == "completed",
            "{}: deadline must degrade, not fail: {}",
            r.id,
            r.status
        );
        assert!(
            !r.seq.is_empty(),
            "{}: even an expired SLO returns a legal best",
            r.id
        );
        assert!(
            !r.shape.is_empty(),
            "{}: best candidate carries its shape",
            r.id
        );
    }
    // A 1ms SLO armed at admission cannot cover an 8-step beam-32
    // search over a 3-deep nest, let alone the queue behind 2 workers.
    assert!(
        report.timed_out() >= 6,
        "storm should overwhelmingly time out, got {} of 8",
        report.timed_out()
    );

    // The storm left no wreckage: normal requests complete.
    let calm = client::run_jobs(&socket, &demo_corpus(4), &ClientOptions::default()).unwrap();
    assert_eq!(calm.completed(), 4);

    client::shutdown(&socket).unwrap();
    let summary = server.join();
    assert!(summary.timed_out >= 6, "{summary}");
    assert_eq!(summary.failed, 0, "{summary}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Contract clause 2: with a 1-slot queue and one worker, the third
/// concurrent request is rejected with `backpressure` and a retry hint;
/// a drain that begins mid-flight rejects new work as `draining`; and
/// both requests that *were* accepted reach `done` — zero accepted
/// requests lost.
#[test]
fn backpressure_rejects_above_high_water_and_loses_no_accepted_request() {
    let dir = scratch("backpressure");
    let socket = dir.join("s.sock");
    let server = Server::spawn(
        ServeConfig {
            workers: 1,
            queue_high_water: 1,
            retry_after_ms: 7,
            ..ServeConfig::default()
        },
        &socket,
    )
    .unwrap();
    let mut conn = Raw::open(&socket);

    // X occupies the only worker…
    conn.send(&optimize("bp-x", MATMUL, 5, 16));
    assert!(matches!(conn.recv(), Event::Accepted { id, .. } if id == "bp-x"));
    assert!(matches!(conn.recv(), Event::Started { id, .. } if id == "bp-x"));
    // …Y fills the single queue slot…
    conn.send(&optimize(
        "bp-y",
        "do i = 1, n\n a(i) = b(i) * 2\nenddo",
        2,
        4,
    ));
    match conn.recv() {
        Event::Accepted { id, queue_depth } => {
            assert_eq!(id, "bp-y");
            assert_eq!(queue_depth, 1);
        }
        other => panic!("expected accepted, got {other:?}"),
    }
    // …so Z is over the high-water mark: typed rejection + retry hint.
    conn.send(&optimize(
        "bp-z",
        "do i = 1, n\n a(i) = b(i) * 2\nenddo",
        2,
        4,
    ));
    match conn.recv() {
        Event::Rejected {
            id,
            reason,
            retry_after_ms,
            ..
        } => {
            assert_eq!(id.as_deref(), Some("bp-z"));
            assert_eq!(reason, RejectReason::Backpressure);
            assert_eq!(
                retry_after_ms,
                Some(7),
                "the configured hint rides the event"
            );
        }
        other => panic!("expected backpressure rejection, got {other:?}"),
    }

    // A second connection starts a graceful drain while X still runs.
    let mut closer = Raw::open(&socket);
    closer.send(&Request::Shutdown);
    assert!(matches!(closer.recv(), Event::Draining { .. }));

    // New work during the drain is refused as `draining`, not enqueued.
    conn.send(&optimize(
        "bp-w",
        "do i = 1, n\n a(i) = b(i) * 2\nenddo",
        2,
        4,
    ));
    match conn.recv() {
        Event::Rejected { id, reason, .. } => {
            assert_eq!(id.as_deref(), Some("bp-w"));
            assert_eq!(reason, RejectReason::Draining);
        }
        other => panic!("expected draining rejection, got {other:?}"),
    }

    // Both accepted requests drain to completion: zero lost.
    let mut done = Vec::new();
    while done.len() < 2 {
        match conn.recv() {
            Event::Done { id, status, .. } => {
                assert_eq!(status, "completed", "{id}");
                done.push(id);
            }
            Event::Started { id, .. } => assert_eq!(id, "bp-y"),
            other => panic!("expected done for bp-x/bp-y, got {other:?}"),
        }
    }
    done.sort();
    assert_eq!(done, ["bp-x", "bp-y"]);
    assert!(matches!(closer.recv(), Event::Bye { served: 2 }));

    drop(conn);
    drop(closer);
    let summary = server.join();
    assert_eq!(summary.accepted, 2, "{summary}");
    assert_eq!(summary.completed, 2, "{summary}");
    assert_eq!(summary.rejected_backpressure, 1, "{summary}");
    assert_eq!(summary.rejected_draining, 1, "{summary}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `stats` payload's `cache` object carries the same fields as the
/// `irlt-batch` artifact's, so tooling reads both with one set of names.
#[test]
fn stats_cache_object_has_the_batch_artifact_fields() {
    let keys = |cache: &Json| -> Vec<String> {
        let mut keys: Vec<String> = cache
            .as_object()
            .expect("cache is an object")
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        keys.sort();
        keys
    };
    let batch = run_batch(
        &[],
        &BatchConfig {
            threads: 1,
            ..BatchConfig::default()
        },
    )
    .to_json();

    let dir = scratch("stats-fields");
    let socket = dir.join("s.sock");
    let server = Server::spawn(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        &socket,
    )
    .unwrap();
    let stats = client::stats(&socket).unwrap();
    client::shutdown(&socket).unwrap();
    server.join();

    let served = keys(stats.get("cache").expect("stats has a cache object"));
    assert_eq!(
        served,
        keys(batch.get("cache").expect("artifact has a cache object"))
    );
    assert!(
        served.iter().any(|k| k == "interner_collisions"),
        "{served:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `Write` half that keeps everything written, for driving the stdio
/// transport from memory.
#[derive(Clone, Default)]
struct Captured(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl Write for Captured {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The `--stdio` transport: one session read from memory (ping, two
/// demo-nest optimizes, a malformed line, `stats`, `shutdown`) answers
/// in protocol order with `irlt-batch`'s results, and publishes the
/// final `serve/*` counters to telemetry exactly once, equal to the
/// returned summary.
#[test]
fn stdio_session_answers_like_batch_and_publishes_counters_once() {
    let jobs = demo_corpus(2);
    let batch = run_batch(
        &jobs,
        &BatchConfig {
            threads: 1,
            ..BatchConfig::default()
        },
    );
    let mut input = vec![Request::Ping.to_line()];
    for job in &jobs {
        let goal = match job.goal {
            Goal::InnerParallel => GoalSpec::Inner,
            _ => GoalSpec::Outer,
        };
        input.push(
            Request::Optimize(Box::new(OptimizeRequest {
                id: job.name.clone(),
                nest: job.nest.to_string(),
                goal,
                max_steps: Some(job.max_steps),
                beam_width: Some(job.beam_width),
                deadline_ms: None,
            }))
            .to_line(),
        );
    }
    input.push(r#"{"op":"optimize","#.to_string());
    input.push(Request::Stats.to_line());
    input.push(Request::Shutdown.to_line());
    let input = input.join("\n") + "\n";

    let tel = irlt::obs::Telemetry::enabled();
    let out = Captured::default();
    let summary = irlt::serve::serve_stream(
        ServeConfig {
            workers: 2,
            telemetry: tel.clone(),
            ..ServeConfig::default()
        },
        input.as_bytes(),
        Box::new(out.clone()),
    );
    let text = String::from_utf8(out.0.lock().unwrap().clone()).unwrap();
    let events: Vec<Event> = text.lines().map(|l| Event::parse(l).unwrap()).collect();

    // The connection thread answers its lines in order; the workers'
    // `started`/`done` interleave with them, but each request's own
    // events are ordered and `bye` comes only after every result.
    let (a, b) = (jobs[0].name.as_str(), jobs[1].name.as_str());
    let tag = |e: &Event| -> String {
        match e {
            Event::Pong => "pong".into(),
            Event::Accepted { id, .. } => format!("accepted {id}"),
            Event::Started { id, .. } => format!("started {id}"),
            Event::Done { id, .. } => format!("done {id}"),
            Event::Rejected { id: None, .. } => "rejected".into(),
            Event::Stats(_) => "stats".into(),
            Event::Draining { .. } => "draining".into(),
            Event::Bye { .. } => "bye".into(),
            other => panic!("unexpected event {other:?}"),
        }
    };
    let tags: Vec<String> = events.iter().map(tag).collect();
    let connection: Vec<&str> = tags
        .iter()
        .map(String::as_str)
        .filter(|t| !t.starts_with("started") && !t.starts_with("done"))
        .collect();
    assert_eq!(
        connection,
        [
            "pong".to_string(),
            format!("accepted {a}"),
            format!("accepted {b}"),
            "rejected".into(),
            "stats".into(),
            "draining".into(),
            "bye".into(),
        ],
        "{tags:?}"
    );
    let at = |t: String| tags.iter().position(|x| *x == t).expect(&t);
    for id in [a, b] {
        assert!(
            at(format!("accepted {id}")) < at(format!("started {id}")),
            "{tags:?}"
        );
        assert!(
            at(format!("started {id}")) < at(format!("done {id}")),
            "{tags:?}"
        );
    }
    assert_eq!(tags.last().map(String::as_str), Some("bye"), "{tags:?}");

    // Served equals batched.
    let mut served: Vec<Fingerprint> = events
        .iter()
        .filter_map(|e| match e {
            Event::Done {
                id,
                status,
                seq,
                score,
                shape,
                explored,
                legal,
                ..
            } => Some((
                id.clone(),
                status.clone(),
                seq.clone(),
                score.map(f64::to_bits),
                shape.clone(),
                *explored,
                *legal,
            )),
            _ => None,
        })
        .collect();
    served.sort();
    let mut reference: Vec<Fingerprint> = batch.jobs.iter().map(fingerprint_batch).collect();
    reference.sort();
    assert_eq!(served, reference);

    // The mid-session `stats` saw the two admissions and the malformed
    // line, and reading it published nothing.
    let stats = events
        .iter()
        .find_map(|e| match e {
            Event::Stats(payload) => Some(payload),
            _ => None,
        })
        .unwrap();
    assert_eq!(stats.get("accepted").and_then(Json::as_i64), Some(2));
    assert_eq!(
        stats
            .get_path(&["rejected", "bad_request"])
            .and_then(Json::as_i64),
        Some(1)
    );

    // The final counters, published once on exit, equal the summary.
    assert_eq!(summary.completed, 2, "{summary}");
    assert_eq!(summary.rejected_bad_request, 1, "{summary}");
    let report = tel.report();
    for (name, value) in [
        ("serve/connections", summary.connections),
        ("serve/accepted", summary.accepted),
        ("serve/completed", summary.completed),
        ("serve/timed_out", summary.timed_out),
        ("serve/failed", summary.failed),
        ("serve/rejected/backpressure", summary.rejected_backpressure),
        ("serve/rejected/draining", summary.rejected_draining),
        ("serve/rejected/bad_request", summary.rejected_bad_request),
        ("serve/disconnects", summary.disconnects),
        (
            "serve/cancelled_by_disconnect",
            summary.cancelled_by_disconnect,
        ),
        ("serve/snapshot/rotations", summary.rotations),
        ("serve/snapshot/rotation_failed", summary.rotation_failures),
        // One count per request line, one drain for the shutdown op.
        ("serve/requests", 6),
        ("serve/drains", 1),
    ] {
        assert_eq!(report.counter(name), value, "{name}: {report:?}");
    }
    let cache = summary.cache.expect("cache on by default");
    assert_eq!(report.counter("driver/cache/hits"), cache.hits);
    assert_eq!(report.counter("driver/cache/misses"), cache.misses);
    assert!(cache.misses > 0, "{cache}");
    assert_eq!(report.counter("legality/key/probes"), cache.key_probes);
}
