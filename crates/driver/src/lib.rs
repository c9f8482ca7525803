//! # irlt-driver — the batch optimization service
//!
//! The paper optimizes one loop nest at a time; a production system
//! serves *fleets* of them. This crate turns the [`irlt_opt::search`]
//! beam search into a batch driver:
//!
//! * [`Job`] — one nest plus its goal, search settings, and optional
//!   deadline; [`run_batch`] shards jobs across a **work-stealing worker
//!   pool** and returns one [`JobResult`] per job, in submission order.
//! * **Deadlines + cooperative cancellation** — a job whose
//!   [`CancelToken`](irlt_opt::CancelToken) fires returns its best-so-far
//!   *legal* candidate with [`JobStatus::TimedOut`]; no panic, no hang,
//!   and the rest of the batch is unaffected.
//! * **Cross-nest legality sharing** — all jobs extend candidates through
//!   one [`SharedLegalityCache`](irlt_core::SharedLegalityCache), so a
//!   subproblem discovered in one nest is replayed (bit-identically) when
//!   any other nest reaches the same `(shape, mapped set, template)` key.
//!   On capacity pressure the cache sweeps a generation and jobs fall
//!   back to scratch legality — verdict-identical by construction.
//! * **Determinism** — per-job results are a pure function of the job:
//!   independent of worker count, submission order, steal interleaving,
//!   and cache state. The workspace's `tests/driver.rs` pins this
//!   bit-for-bit at 1/4/8 threads and across shuffled submission orders.
//! * **Telemetry** — one [`Telemetry`](irlt_obs::Telemetry) handle
//!   threads through the pool (`driver/steals`, `driver/queue_depth`,
//!   `driver/cache/cross_hits`, per-job wall-time histograms) and
//!   [`BatchResult::to_json`] renders one JSON artifact describing the
//!   whole run.
//!
//! The `irlt-batch` binary wraps all of this in a CLI over `.nest`
//! corpora (a manifest file, a directory, or the built-in
//! [`demo_corpus`]).
//!
//! # Examples
//!
//! ```
//! use irlt_driver::{demo_corpus, run_batch, BatchConfig};
//!
//! let jobs = demo_corpus(16);
//! let result = run_batch(&jobs, &BatchConfig { threads: 2, ..BatchConfig::default() });
//! assert_eq!(result.jobs.len(), 16);
//! assert!(result.jobs.iter().all(|j| j.status.is_completed()));
//! // Structurally identical nests shared legality work across jobs.
//! assert!(result.cache.unwrap().cross_hits > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod corpus;
mod job;
mod manifest;
mod pool;

pub use batch::{
    cache_json, execute_job, open_cache, publish_cache_telemetry, run_batch, worker_count,
    BatchConfig, BatchResult, ExecOptions,
};
pub use corpus::demo_corpus;
pub use job::{Job, JobResult, JobStatus};
pub use manifest::{load_manifest, ManifestError};
