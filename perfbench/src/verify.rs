//! Answer checks (run after each timed phase, untimed) and the answers
//! digest.
//!
//! An answer passes when its status is `completed`, the paper's
//! reference oracle `TransformSeq::is_legal` accepts its sequence, and
//! the independent interpreter finds the transformed nest equivalent to
//! the original at small parameter bindings.

use crate::trace::{maybe_span, Recorder};
use crate::workload::parallelism;
use irlt_core::TransformSeq;
use irlt_dependence::analyze_dependences;
use irlt_driver::{Job, JobResult};
use irlt_interp::check_equivalence;
use irlt_ir::LoopNest;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Small parameter bindings for the interpreter's equivalence check.
pub const CHECK_PARAMS: [(&str, i64); 2] = [("n", 7), ("m", 6)];

/// Checks one answer against the reference oracle and the interpreter,
/// each step in a span when traced, and returns the transformed nest.
pub fn check_answer(
    nest: &LoopNest,
    status: &str,
    seq: &TransformSeq,
    mut rec: Option<&mut Recorder>,
    id: u64,
) -> Result<LoopNest, String> {
    if status != "completed" {
        return Err(format!("status {status}"));
    }
    let deps = maybe_span(&mut rec, "dependence.analyze", id, || {
        analyze_dependences(nest)
    });
    if !maybe_span(&mut rec, "core.is_legal", id, || seq.is_legal(nest, &deps)).is_legal() {
        return Err(format!("is_legal rejects {seq}"));
    }
    let transformed = maybe_span(&mut rec, "core.apply", id, || seq.apply(nest))
        .map_err(|e| format!("apply: {e}"))?;
    let report = maybe_span(&mut rec, "interp.check", id, || {
        check_equivalence(nest, &transformed, &CHECK_PARAMS, 0x5eed)
    })
    .map_err(|e| format!("interpreter: {e}"))?;
    if !report.is_equivalent() {
        return Err(format!("{seq} on `{nest}` is not equivalent: {report}"));
    }
    Ok(transformed)
}

/// Checks every batch answer on all workers; returns the failures as
/// `(job name, reason)`.
pub fn check_batch(jobs: &[Job], results: &[JobResult]) -> Vec<(String, String)> {
    let next = AtomicUsize::new(0);
    let failures = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..parallelism() {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(r) = results.get(k) else { break };
                let status = r.status.to_string();
                if let Err(why) = check_answer(&jobs[k].nest, &status, &r.best.seq, None, 0) {
                    failures
                        .lock()
                        .expect("no checker panics while holding the lock")
                        .push((r.name.clone(), why));
                }
            });
        }
    });
    let mut out = failures.into_inner().expect("checkers joined");
    out.sort();
    out
}

/// FNV-1a 64 over the deterministic fields of every answer, in order.
/// Wall times, workers and cache counters are left out: they vary from
/// run to run, answers must not.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, name: &str, seq: &str, score_bits: u64, explored: u64, legal: u64) {
        let line = format!("{name}\t{seq}\t{score_bits:016x}\t{explored}\t{legal}\n");
        for &b in line.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn of_batch(results: &[JobResult]) -> Digest {
        let mut d = Digest::default();
        for r in results {
            d.add(
                &r.name,
                &r.best.seq.to_string(),
                r.best.score.to_bits(),
                r.explored as u64,
                r.legal as u64,
            );
        }
        d
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}
