//! Batch optimization of a whole corpus of loop nests: the `irlt-driver`
//! worker pool (workers claim jobs from one shared counter) with per-job
//! deadlines, cooperative cancellation, and one cross-nest shared
//! legality cache.
//!
//! ```text
//! cargo run --example batch_corpus
//! IRLT_TELEMETRY=telemetry.json cargo run --example batch_corpus
//! ```
//!
//! Three acts:
//!
//! 1. a 32-job corpus run on 4 workers, showing cross-nest
//!    legality sharing (structurally identical nests replay each other's
//!    subproblems bit-identically);
//! 2. the same corpus with one pathological deep job on a 5ms deadline —
//!    it comes back `timed_out` holding its best-so-far *legal*
//!    candidate while every other job is untouched;
//! 3. the whole-batch JSON artifact, the machine-readable record a
//!    build system would archive.

use irlt::driver::{demo_corpus, run_batch, BatchConfig, Job};
use irlt::prelude::*;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tel = Telemetry::from_env();

    // Act 1: the corpus. 32 jobs over 8 distinct nest shapes — a
    // duplicate-heavy profile, like a real compilation unit.
    let jobs = demo_corpus(32);
    let config = BatchConfig {
        threads: 4,
        telemetry: tel.clone(),
        ..BatchConfig::default()
    };
    let result = run_batch(&jobs, &config);
    println!("== batch: {result}");
    for job in result.jobs.iter().take(4) {
        println!("   {job}");
    }
    println!("   … ({} more)", result.jobs.len() - 4);
    let stats = result.cache.expect("shared cache is on by default");
    println!(
        "   cross-nest sharing: {} of {} legality extensions replayed from another job's work",
        stats.cross_hits,
        stats.hits + stats.misses
    );

    // Act 2: deadlines. A depth-6 nest at beam 64 cannot finish in 5ms;
    // the deadline fires mid-search and the job returns its best legal
    // prefix, with the rest of the batch bit-identical to act 1.
    let deep = parse_nest(
        "do i1 = 1, n\n do i2 = 1, n\n  do i3 = 1, n\n   do i4 = 1, n\n    do i5 = 1, n\n     do i6 = 1, n\n      a(i1, i2, i3, i4, i5, i6) = a(i1, i2, i3, i4, i5, i6) + 1\n     enddo\n    enddo\n   enddo\n  enddo\n enddo\nenddo",
    )?;
    let mut with_deadline = jobs.clone();
    with_deadline.push(
        Job::new("pathological", deep, Goal::InnerParallel)
            .with_search(8, 64)
            .with_deadline(Duration::from_millis(5)),
    );
    let r2 = run_batch(&with_deadline, &config);
    let bad = r2.jobs.last().expect("pathological job present");
    println!("== deadline: {bad}");
    assert!(
        !bad.status.is_completed(),
        "5ms cannot cover a depth-6 search"
    );
    assert!(
        r2.jobs[..jobs.len()]
            .iter()
            .zip(&result.jobs)
            .all(|(a, b)| a.best.seq.to_string() == b.best.seq.to_string()),
        "other jobs must be unaffected by the timeout"
    );
    println!(
        "   other {} jobs: bit-identical to the deadline-free batch",
        jobs.len()
    );

    // Act 3: the artifact.
    let artifact = r2.to_json();
    println!(
        "== artifact: schema {}, {} bytes pretty-printed",
        artifact
            .get("schema")
            .and_then(irlt::obs::Json::as_str)
            .unwrap_or("?"),
        artifact.to_string_pretty().len()
    );

    if tel.is_enabled() {
        println!("== telemetry ==\n{}", tel.report().render());
        if let Some(path) = tel.write_env_report()? {
            println!("telemetry artifact written to {}", path.display());
        }
    }
    Ok(())
}
