//! The long-lived optimization server.
//!
//! [`Server::spawn`] binds a Unix domain socket and serves the
//! `irlt-serve/v1` protocol until a client sends `shutdown` (graceful
//! drain) or the handle is [`killed`](ServerHandle::kill). Each
//! connection gets a reader thread; each request flows
//! connection-thread → [`Admission`] queue → worker → back out through
//! the connection's [`Sink`]. The workers reuse the exact batch engine
//! ([`irlt_driver::execute_job`]) over one shared legality cache, so a
//! served result is bit-identical to what `irlt-batch` computes for the
//! same nest.
//!
//! Fault model (each of these is pinned by `tests/serve.rs`):
//!
//! * **Client disconnect** mid-request fires the outstanding requests'
//!   [`CancelToken`]s: the search stops at the next poll, the result is
//!   discarded (the sink is closed), and the worker moves on.
//! * **Poisoned payloads** (bad JSON, unknown ops, malformed nests)
//!   get a typed `rejected` event; the connection stays usable.
//! * **Worker panics** are caught; the request fails with a typed
//!   `failed` event and the worker survives.
//! * **Kill** cancels in-flight work, rejects the unstarted queue
//!   explicitly, and still joins every thread.
//!
//! Snapshot rotation: with a [`SnapshotPolicy`], the shared cache is
//! persisted every `every_requests` finished requests and once more on
//! graceful exit, through [`SharedLegalityCache::save_snapshot_to`] —
//! write-to-temp + atomic rename, shifting `path` → `path.1` → … up to
//! `keep_generations`, so a reader (or a kill) never observes a torn
//! file.

use crate::protocol::{Event, RejectReason, Request};
use crate::queue::{Admission, Gate, Rejection, Ticket};
use irlt_core::{SharedCacheStats, SharedLegalityCache, SnapshotLoadStats};
use irlt_driver::{
    cache_json, execute_job, open_cache, publish_cache_telemetry, worker_count, ExecOptions, Job,
    JobStatus,
};
use irlt_obs::{Json, Telemetry};
use irlt_opt::CancelToken;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// When and how the shared cache is persisted while serving.
#[derive(Clone, Debug)]
pub struct SnapshotPolicy {
    /// Snapshot file; generation `k` rotates to `<path>.k`.
    pub path: PathBuf,
    /// Save after every this many finished requests (`0`: only on
    /// graceful exit).
    pub every_requests: u64,
    /// Rotated generations to keep beside the live file.
    pub keep_generations: usize,
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads; `0` uses one per available core.
    pub workers: usize,
    /// Admission high-water mark: queued-but-unstarted requests beyond
    /// this are rejected with `backpressure`.
    pub queue_high_water: usize,
    /// The `retry_after_ms` hint attached to backpressure rejections.
    pub retry_after_ms: u64,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Entry capacity of the legality cache all requests share.
    pub cache_capacity: usize,
    /// Warm-start snapshot to load before serving (rejected files
    /// degrade to a cold start, like `irlt-batch`).
    pub cache_load: Option<PathBuf>,
    /// Periodic snapshot rotation.
    pub snapshot: Option<SnapshotPolicy>,
    /// One sink for the whole server (`serve/*` namespace); results
    /// are bit-identical with it on or off.
    pub telemetry: Telemetry,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 0,
            queue_high_water: 64,
            retry_after_ms: 10,
            default_deadline: None,
            cache_capacity: SharedLegalityCache::DEFAULT_CAPACITY,
            cache_load: None,
            snapshot: None,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Everything the server counted, returned by
/// [`ServerHandle::join`]/[`ServerHandle::kill`]/[`serve_stream`]. It
/// reads the same atomics as the `stats` payload and the `serve/*`
/// telemetry counters published on exit.
#[derive(Clone, Debug, Default)]
pub struct ServeSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Optimize requests admitted.
    pub accepted: u64,
    /// Requests that ran to completion.
    pub completed: u64,
    /// Requests that hit their deadline (still returned a legal best).
    pub timed_out: u64,
    /// Requests whose worker panicked (typed `failed` event).
    pub failed: u64,
    /// Rejections: queue above high-water.
    pub rejected_backpressure: u64,
    /// Rejections: server draining or killed.
    pub rejected_draining: u64,
    /// Rejections: malformed line/op/nest/goal.
    pub rejected_bad_request: u64,
    /// Connections that dropped with requests still outstanding.
    pub disconnects: u64,
    /// In-flight requests cancelled by those disconnects.
    pub cancelled_by_disconnect: u64,
    /// Snapshot rotations performed, the final save on exit included.
    pub rotations: u64,
    /// Snapshot saves that failed (serving continued).
    pub rotation_failures: u64,
    /// Whether the server ended by kill rather than drain.
    pub killed: bool,
    /// Final shared-cache counters. Always `Some`: every server shares
    /// one cache (the `Option` is kept for callers that read it with
    /// `ok_or`).
    pub cache: Option<SharedCacheStats>,
    /// What the warm-start snapshot restored, when one loaded.
    pub snapshot: Option<SnapshotLoadStats>,
    /// Whether a requested warm-start snapshot was rejected.
    pub snapshot_rejected: bool,
}

impl ServeSummary {
    /// Requests that reached a terminal state.
    pub fn served(&self) -> u64 {
        self.completed + self.timed_out + self.failed
    }
}

impl std::fmt::Display for ServeSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} conn(s), {} accepted, {} completed, {} timed out, {} failed; \
             rejected {} backpressure / {} draining / {} bad; \
             {} disconnect(s), {} rotation(s){}",
            self.connections,
            self.accepted,
            self.completed,
            self.timed_out,
            self.failed,
            self.rejected_backpressure,
            self.rejected_draining,
            self.rejected_bad_request,
            self.disconnects,
            self.rotations,
            if self.killed { " (killed)" } else { "" }
        )?;
        if let Some(c) = &self.cache {
            write!(f, "; cache: {c}")?;
        }
        Ok(())
    }
}

/// The write half of one connection: a locked line writer plus the
/// registry of this connection's outstanding (accepted, not yet
/// terminal) requests — the hook disconnect-cancellation hangs off.
pub struct Sink {
    writer: Mutex<Option<Box<dyn Write + Send>>>,
    closed: AtomicBool,
    outstanding: Mutex<Vec<(String, CancelToken)>>,
}

impl std::fmt::Debug for Sink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sink")
            .field("closed", &self.closed.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Sink {
    /// A sink over `writer` (one connection's write half).
    pub fn new(writer: Box<dyn Write + Send>) -> Sink {
        Sink {
            writer: Mutex::new(Some(writer)),
            closed: AtomicBool::new(false),
            outstanding: Mutex::new(Vec::new()),
        }
    }

    /// A sink that drops everything (for tests and orphaned work).
    pub fn discard() -> Sink {
        let sink = Sink::new(Box::new(std::io::sink()));
        sink.closed.store(true, Ordering::Release);
        sink
    }

    /// Writes one event line. Returns whether it went out; the first
    /// failure closes the sink, and later sends become no-ops (a dead
    /// client must not take a worker down with it).
    pub fn send(&self, event: &Event) -> bool {
        if self.closed.load(Ordering::Acquire) {
            return false;
        }
        let mut line = event.to_line();
        line.push('\n');
        let mut guard = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        let Some(w) = guard.as_mut() else {
            return false;
        };
        let ok = w
            .write_all(line.as_bytes())
            .and_then(|()| w.flush())
            .is_ok();
        if !ok {
            self.closed.store(true, Ordering::Release);
            *guard = None;
        }
        ok
    }

    /// Whether a send has failed (or the peer is known gone).
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Registers an admitted request for disconnect-cancellation.
    pub fn register(&self, id: &str, cancel: CancelToken) {
        self.outstanding
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push((id.to_string(), cancel));
    }

    /// Removes a request once it reached a terminal event.
    pub fn complete(&self, id: &str) {
        self.outstanding
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .retain(|(k, _)| k != id);
    }

    /// Closes the sink and fires every outstanding request's token;
    /// returns how many were cancelled. Called when the reader hits
    /// EOF or error — the client is gone, so best-effort work for it
    /// stops at the next cancellation poll.
    pub fn cancel_outstanding(&self) -> usize {
        self.closed.store(true, Ordering::Release);
        let drained: Vec<_> =
            std::mem::take(&mut *self.outstanding.lock().unwrap_or_else(|p| p.into_inner()));
        for (_, token) in &drained {
            token.cancel();
        }
        drained.len()
    }
}

/// The server's atomic counters. Each event bumps exactly one; the
/// summary, the `stats` payload and the exit-time telemetry all read
/// them (see [`ServeSummary`] for what most of them count).
#[derive(Default)]
struct Counts {
    /// Next search owner id (one per started request).
    owner: AtomicU64,
    /// Finished requests, for the rotation cadence.
    finished: AtomicU64,
    connections: AtomicU64,
    /// Non-empty request lines read, of every op (malformed ones too).
    requests: AtomicU64,
    accepted: AtomicU64,
    completed: AtomicU64,
    timed_out: AtomicU64,
    failed: AtomicU64,
    rejected_backpressure: AtomicU64,
    rejected_draining: AtomicU64,
    rejected_bad_request: AtomicU64,
    disconnects: AtomicU64,
    cancelled_by_disconnect: AtomicU64,
    /// Shutdown ops received.
    drains: AtomicU64,
    rotations: AtomicU64,
    rotation_failures: AtomicU64,
    /// Bytes written by the successful snapshot saves.
    snapshot_bytes: AtomicU64,
}

impl Counts {
    /// Publishes every count under its `serve/*` telemetry name.
    fn publish(&self, tel: &Telemetry) {
        for (name, count) in [
            ("serve/connections", &self.connections),
            ("serve/requests", &self.requests),
            ("serve/accepted", &self.accepted),
            ("serve/completed", &self.completed),
            ("serve/timed_out", &self.timed_out),
            ("serve/failed", &self.failed),
            ("serve/rejected/backpressure", &self.rejected_backpressure),
            ("serve/rejected/draining", &self.rejected_draining),
            ("serve/rejected/bad_request", &self.rejected_bad_request),
            ("serve/disconnects", &self.disconnects),
            (
                "serve/cancelled_by_disconnect",
                &self.cancelled_by_disconnect,
            ),
            ("serve/drains", &self.drains),
            ("serve/snapshot/rotations", &self.rotations),
            ("serve/snapshot/rotation_failed", &self.rotation_failures),
            ("serve/snapshot/bytes", &self.snapshot_bytes),
        ] {
            tel.count(name, count.load(Ordering::Relaxed));
        }
    }
}

/// Shared server state.
struct Inner {
    cfg: ServeConfig,
    socket: Option<PathBuf>,
    admission: Admission,
    cache: SharedLegalityCache,
    tel: Telemetry,
    workers: usize,
    counts: Counts,
    shutdown: AtomicBool,
    killed: AtomicBool,
    rotate: Mutex<()>,
    /// Open connections: the sink (for kill-time cancellation) and the
    /// stream (to unblock parked readers at exit).
    conns: Mutex<Vec<(Arc<Sink>, UnixStream)>>,
    snapshot_loaded: Option<SnapshotLoadStats>,
    snapshot_rejected: bool,
}

impl Inner {
    fn summary(&self) -> ServeSummary {
        let c = &self.counts;
        ServeSummary {
            connections: c.connections.load(Ordering::Relaxed),
            accepted: c.accepted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            timed_out: c.timed_out.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            rejected_backpressure: c.rejected_backpressure.load(Ordering::Relaxed),
            rejected_draining: c.rejected_draining.load(Ordering::Relaxed),
            rejected_bad_request: c.rejected_bad_request.load(Ordering::Relaxed),
            disconnects: c.disconnects.load(Ordering::Relaxed),
            cancelled_by_disconnect: c.cancelled_by_disconnect.load(Ordering::Relaxed),
            rotations: c.rotations.load(Ordering::Relaxed),
            rotation_failures: c.rotation_failures.load(Ordering::Relaxed),
            killed: self.killed.load(Ordering::Relaxed),
            cache: Some(self.cache.stats()),
            snapshot: self.snapshot_loaded,
            snapshot_rejected: self.snapshot_rejected,
        }
    }

    /// The `stats` event payload: live counters plus cache statistics
    /// (same field names as the `irlt-batch` artifact's `cache` object,
    /// so tooling reads both).
    fn stats_json(&self) -> Json {
        let s = self.summary();
        Json::Object(vec![
            ("schema".into(), Json::Str(crate::protocol::SCHEMA.into())),
            (
                "queue_depth".into(),
                Json::Int(self.admission.depth() as i64),
            ),
            ("pending".into(), Json::Int(self.admission.pending() as i64)),
            ("draining".into(), Json::Bool(self.admission.is_draining())),
            ("connections".into(), Json::Int(s.connections as i64)),
            ("accepted".into(), Json::Int(s.accepted as i64)),
            ("completed".into(), Json::Int(s.completed as i64)),
            ("timed_out".into(), Json::Int(s.timed_out as i64)),
            ("failed".into(), Json::Int(s.failed as i64)),
            (
                "rejected".into(),
                Json::Object(vec![
                    (
                        "backpressure".into(),
                        Json::Int(s.rejected_backpressure as i64),
                    ),
                    ("draining".into(), Json::Int(s.rejected_draining as i64)),
                    (
                        "bad_request".into(),
                        Json::Int(s.rejected_bad_request as i64),
                    ),
                ]),
            ),
            ("disconnects".into(), Json::Int(s.disconnects as i64)),
            (
                "cancelled_by_disconnect".into(),
                Json::Int(s.cancelled_by_disconnect as i64),
            ),
            ("rotations".into(), Json::Int(s.rotations as i64)),
            (
                "cache".into(),
                cache_json(&self.cache.stats(), s.snapshot_rejected),
            ),
        ])
    }

    /// The one exit path of every server — socket (drained or killed)
    /// and stdio alike, once all its threads have joined: reads the
    /// final counters and publishes them, with the cache's, to telemetry
    /// exactly once.
    fn finish(&self) -> ServeSummary {
        if self.tel.is_enabled() {
            self.counts.publish(&self.tel);
            publish_cache_telemetry(&self.tel, &self.cache);
        }
        self.summary()
    }
}

/// A running server.
pub struct Server;

/// Handle to a spawned server: join it (after a protocol `shutdown`)
/// or kill it.
pub struct ServerHandle {
    inner: Arc<Inner>,
    main: std::thread::JoinHandle<()>,
    path: PathBuf,
}

impl Server {
    /// Binds `socket` and serves until shutdown. Returns once the
    /// listener is live — a client connecting after this call succeeds.
    pub fn spawn(cfg: ServeConfig, socket: &Path) -> std::io::Result<ServerHandle> {
        let _ = std::fs::remove_file(socket);
        let listener = UnixListener::bind(socket)?;
        let inner = Arc::new(build_inner(cfg, Some(socket.to_path_buf())));
        let main = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || run_server(&inner, &listener))
        };
        Ok(ServerHandle {
            inner,
            main,
            path: socket.to_path_buf(),
        })
    }
}

impl ServerHandle {
    /// The socket the server listens on.
    pub fn socket_path(&self) -> &Path {
        &self.path
    }

    /// Waits for the server to exit (a client must send `shutdown`, or
    /// the process never returns) and reports the final counters.
    pub fn join(self) -> ServeSummary {
        let _ = self.main.join();
        self.inner.finish()
    }

    /// Hard stop: cancels in-flight requests, rejects the unstarted
    /// queue, closes every connection, joins every thread. In-flight
    /// searches stop at their next cancellation poll — kill is prompt,
    /// not instantaneous, and never leaves a detached thread.
    pub fn kill(self) -> ServeSummary {
        self.inner.killed.store(true, Ordering::Release);
        self.inner.shutdown.store(true, Ordering::Release);
        let orphans = self.inner.admission.kill();
        for t in orphans {
            t.cancel.cancel();
            self.inner
                .counts
                .rejected_draining
                .fetch_add(1, Ordering::Relaxed);
            t.sink.send(&Event::Rejected {
                id: Some(t.id.clone()),
                reason: RejectReason::Draining,
                retry_after_ms: None,
                detail: "server killed before the request started".into(),
            });
            t.sink.complete(&t.id);
        }
        // The woken accept loop takes the common exit path, which fires
        // every connection's outstanding requests and unblocks its reader.
        wake_accept(&self.path);
        let _ = self.main.join();
        self.inner.finish()
    }
}

fn build_inner(cfg: ServeConfig, socket: Option<PathBuf>) -> Inner {
    let tel = cfg.telemetry.clone();
    let workers = worker_count(cfg.workers);
    // Warm start, with irlt-batch's degradation contract: any rejected
    // snapshot means a cold start, never a refusal to serve.
    let (cache, snapshot_loaded, snapshot_rejected) =
        open_cache(cfg.cache_capacity, workers, cfg.cache_load.as_deref(), &tel);
    Inner {
        admission: Admission::new(cfg.queue_high_water),
        socket,
        cache,
        tel,
        workers,
        counts: Counts::default(),
        shutdown: AtomicBool::new(false),
        killed: AtomicBool::new(false),
        rotate: Mutex::new(()),
        conns: Mutex::new(Vec::new()),
        snapshot_loaded,
        snapshot_rejected,
        cfg,
    }
}

/// Connects and immediately hangs up, so a parked `accept` returns and
/// re-checks the shutdown flag.
fn wake_accept(path: &Path) {
    let _ = UnixStream::connect(path);
}

fn spawn_workers(inner: &Arc<Inner>) -> Vec<JoinHandle<()>> {
    (0..inner.workers)
        .map(|w| {
            let inner = Arc::clone(inner);
            std::thread::spawn(move || worker_loop(&inner, w))
        })
        .collect()
}

/// Joins the workers, then — unless the server was killed — persists
/// the warmed cache one last time.
fn stop_workers(inner: &Inner, workers: Vec<JoinHandle<()>>) {
    for h in workers {
        let _ = h.join();
    }
    if !inner.killed.load(Ordering::Acquire) {
        save_snapshot(inner, true);
    }
}

fn run_server(inner: &Arc<Inner>, listener: &UnixListener) {
    let workers = spawn_workers(inner);
    let mut conn_handles = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if inner.shutdown.load(Ordering::Acquire) {
                    break;
                }
                continue;
            }
        };
        if inner.shutdown.load(Ordering::Acquire) {
            break;
        }
        inner.counts.connections.fetch_add(1, Ordering::Relaxed);
        let (write_half, registry_half) = match (stream.try_clone(), stream.try_clone()) {
            (Ok(a), Ok(b)) => (a, b),
            _ => continue,
        };
        let sink = Arc::new(Sink::new(Box::new(write_half)));
        inner
            .conns
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push((Arc::clone(&sink), registry_half));
        let inner = Arc::clone(inner);
        conn_handles.push(std::thread::spawn(move || {
            connection_loop(&inner, BufReader::new(stream), &sink);
        }));
    }
    // Exit path: drain (or kill) has already closed admission. After a
    // kill, fire every connection's outstanding requests; unblock any
    // reader still parked on an idle client, then join everything.
    for (sink, stream) in inner.conns.lock().unwrap_or_else(|p| p.into_inner()).iter() {
        if inner.killed.load(Ordering::Acquire) {
            sink.cancel_outstanding();
        }
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
    for h in conn_handles {
        let _ = h.join();
    }
    stop_workers(inner, workers);
    if let Some(path) = &inner.socket {
        let _ = std::fs::remove_file(path);
    }
}

/// Rotation cadence: after every `every_requests` finished requests,
/// whichever worker crosses the boundary saves — `try_lock` so a slow
/// save never stalls a second worker, and the atomic-rename protocol
/// in `save_snapshot_to` keeps readers tear-free throughout.
fn maybe_rotate(inner: &Inner) {
    let n = inner.counts.finished.fetch_add(1, Ordering::Relaxed) + 1;
    let every = inner.cfg.snapshot.as_ref().map_or(0, |p| p.every_requests);
    if every != 0 && n.is_multiple_of(every) {
        save_snapshot(inner, false);
    }
}

/// Saves one snapshot generation under the rotation lock and counts it:
/// the `final_save` on exit waits for the lock, a periodic rotation
/// skips when another save holds it. A failure is a warning, never an
/// outage.
fn save_snapshot(inner: &Inner, final_save: bool) {
    let Some(policy) = &inner.cfg.snapshot else {
        return;
    };
    let _guard = match inner.rotate.try_lock() {
        Ok(guard) => guard,
        Err(_) if final_save => inner.rotate.lock().unwrap_or_else(|p| p.into_inner()),
        Err(_) => return,
    };
    match inner
        .cache
        .save_snapshot_to(&policy.path, policy.keep_generations)
    {
        Ok(stats) => {
            inner.counts.rotations.fetch_add(1, Ordering::Relaxed);
            inner
                .counts
                .snapshot_bytes
                .fetch_add(stats.bytes, Ordering::Relaxed);
        }
        Err(why) => {
            inner
                .counts
                .rotation_failures
                .fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "warning: cache snapshot {} not saved ({why})",
                policy.path.display()
            );
        }
    }
}

fn worker_loop(inner: &Inner, worker: usize) {
    while let Some(ticket) = inner.admission.next() {
        // The connection thread writes `accepted` before opening the
        // gate, so per-request event order is guaranteed even though
        // the queue handoff races the write.
        ticket.gate.wait();
        let queued = ticket.admitted.elapsed();
        if inner.tel.is_enabled() {
            inner.tel.record(
                "serve/queued_us",
                (queued.as_micros() as u64).max(1).next_power_of_two(),
            );
            inner
                .tel
                .observe("serve/queue_depth", inner.admission.depth() as f64);
        }
        ticket.sink.send(&Event::Started {
            id: ticket.id.clone(),
            worker: worker as u64,
            queued_us: queued.as_micros() as u64,
        });
        let owner = inner.counts.owner.fetch_add(1, Ordering::Relaxed);
        let opts = ExecOptions {
            telemetry: inner.tel.clone(),
            cancel: Some(ticket.cancel.clone()),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            execute_job(&ticket.job, owner, worker, Some(&inner.cache), &opts)
        }));
        // Deregister before the terminal event goes out: a client that
        // hangs up the instant it reads its result must not race into
        // the disconnect-cancellation path as a phantom disconnect.
        ticket.sink.complete(&ticket.id);
        match outcome {
            Ok(result) => {
                match result.status {
                    JobStatus::Completed => &inner.counts.completed,
                    JobStatus::TimedOut => &inner.counts.timed_out,
                }
                .fetch_add(1, Ordering::Relaxed);
                if inner.tel.is_enabled() {
                    inner.tel.record(
                        "serve/request_wall_us",
                        (result.wall.as_micros() as u64).max(1).next_power_of_two(),
                    );
                    inner.tel.record_span("serve/request", result.wall);
                }
                ticket.sink.send(&Event::done(&result));
            }
            Err(payload) => {
                let detail = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("opaque panic payload")
                    .to_string();
                inner.counts.failed.fetch_add(1, Ordering::Relaxed);
                ticket.sink.send(&Event::Failed {
                    id: ticket.id.clone(),
                    detail: format!("panic: {detail}"),
                });
            }
        }
        inner.admission.finish();
        maybe_rotate(inner);
    }
}

/// Serves one connection's read half. Generic over the reader so the
/// same loop drives Unix-socket and stdio sessions.
fn connection_loop(inner: &Arc<Inner>, reader: impl BufRead, sink: &Arc<Sink>) {
    for line in reader.lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        inner.counts.requests.fetch_add(1, Ordering::Relaxed);
        match Request::parse(line) {
            Err((id, detail)) => {
                inner
                    .counts
                    .rejected_bad_request
                    .fetch_add(1, Ordering::Relaxed);
                sink.send(&Event::Rejected {
                    id,
                    reason: RejectReason::BadRequest,
                    retry_after_ms: None,
                    detail,
                });
            }
            Ok(Request::Ping) => {
                sink.send(&Event::Pong);
            }
            Ok(Request::Stats) => {
                sink.send(&Event::Stats(inner.stats_json()));
            }
            Ok(Request::Shutdown) => {
                handle_shutdown(inner, sink);
                break;
            }
            Ok(Request::Optimize(req)) => handle_optimize(inner, sink, *req),
        }
    }
    // Reader gone (EOF, error, or shutdown): anything still outstanding
    // was submitted by a client that will never read the answer.
    let cancelled = sink.cancel_outstanding();
    if cancelled > 0 {
        inner.counts.disconnects.fetch_add(1, Ordering::Relaxed);
        inner
            .counts
            .cancelled_by_disconnect
            .fetch_add(cancelled as u64, Ordering::Relaxed);
    }
}

fn handle_optimize(inner: &Arc<Inner>, sink: &Arc<Sink>, req: crate::protocol::OptimizeRequest) {
    let reject = |reason: RejectReason, retry: Option<u64>, detail: String| {
        sink.send(&Event::Rejected {
            id: Some(req.id.clone()),
            reason,
            retry_after_ms: retry,
            detail,
        });
    };
    let nest = match irlt_ir::parse_nest(&req.nest) {
        Ok(nest) => nest,
        Err(e) => {
            inner
                .counts
                .rejected_bad_request
                .fetch_add(1, Ordering::Relaxed);
            reject(RejectReason::BadRequest, None, format!("nest: {e}"));
            return;
        }
    };
    let job = Job::new(req.id.clone(), nest, req.goal.to_goal());
    let steps = req.max_steps.unwrap_or(job.max_steps);
    let beam = req.beam_width.unwrap_or(job.beam_width);
    let job = job.with_search(steps, beam);
    // The SLO clock starts here — admission, not dequeue — so a request
    // that languishes in the queue burns its own budget, not its
    // successors'.
    let deadline = req
        .deadline_ms
        .map(Duration::from_millis)
        .or(inner.cfg.default_deadline);
    let cancel = match deadline {
        Some(d) => CancelToken::with_deadline(d),
        None => CancelToken::new(),
    };
    let gate = Arc::new(Gate::new());
    let ticket = Ticket {
        id: req.id.clone(),
        job,
        cancel: cancel.clone(),
        sink: Arc::clone(sink),
        gate: Arc::clone(&gate),
        admitted: Instant::now(),
    };
    sink.register(&req.id, cancel);
    match inner.admission.offer(ticket) {
        Ok(depth) => {
            inner.counts.accepted.fetch_add(1, Ordering::Relaxed);
            sink.send(&Event::Accepted {
                id: req.id.clone(),
                queue_depth: depth as u64,
            });
            gate.open();
        }
        Err(Rejection::Backpressure) => {
            sink.complete(&req.id);
            inner
                .counts
                .rejected_backpressure
                .fetch_add(1, Ordering::Relaxed);
            reject(
                RejectReason::Backpressure,
                Some(inner.cfg.retry_after_ms),
                format!(
                    "admission queue at high-water mark ({})",
                    inner.cfg.queue_high_water
                ),
            );
        }
        Err(Rejection::Draining) => {
            sink.complete(&req.id);
            inner
                .counts
                .rejected_draining
                .fetch_add(1, Ordering::Relaxed);
            reject(
                RejectReason::Draining,
                None,
                "server is draining; no new work admitted".into(),
            );
        }
    }
}

fn handle_shutdown(inner: &Arc<Inner>, sink: &Arc<Sink>) {
    inner.counts.drains.fetch_add(1, Ordering::Relaxed);
    inner.admission.drain();
    sink.send(&Event::Draining {
        pending: inner.admission.pending() as u64,
    });
    inner.admission.await_drained();
    sink.send(&Event::Bye {
        served: inner.summary().served(),
    });
    inner.shutdown.store(true, Ordering::Release);
    if let Some(path) = &inner.socket {
        wake_accept(path);
    }
}

/// Serves exactly one session over a reader/writer pair (the `--stdio`
/// transport: same protocol, same engine, no socket). Returns at EOF
/// or after a `shutdown` op, with the queue drained and all workers
/// joined.
pub fn serve_stream(
    cfg: ServeConfig,
    reader: impl BufRead,
    writer: Box<dyn Write + Send>,
) -> ServeSummary {
    let inner = Arc::new(build_inner(cfg, None));
    inner.counts.connections.fetch_add(1, Ordering::Relaxed);
    let workers = spawn_workers(&inner);
    let sink = Arc::new(Sink::new(writer));
    connection_loop(&inner, reader, &sink);
    // EOF without a shutdown op still drains gracefully.
    inner.admission.drain();
    inner.admission.await_drained();
    stop_workers(&inner, workers);
    inner.finish()
}
