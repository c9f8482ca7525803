//! End-to-end beam-search throughput on the incremental legality engine
//! (prefix-cached dependence mapping + fail-fast, §5's "arbitrary levels
//! of search and undo" made cheap).
//!
//! Three workloads: the Fig. 1(a) stencil (wavefront discovery), the
//! Fig. 6 matrix multiply at the deep acceptance configuration
//! (`max_steps: 5, beam_width: 16`), and a depth-4 rectangular nest.
//! `search/*/incremental` runs the engine (a search is always serial).
//! The retired from-scratch engine, which replayed every candidate
//! through `TransformSeq::is_legal`, is recorded as the `scratch_ms` rows
//! of `BENCH_3.json`, and the retired 4-worker expansion as the
//! `parallel_ms` rows of `BENCH_15.json`.
//!
//! `IRLT_TELEMETRY=path.json` turns the run into a telemetry capture:
//! every search records through one shared handle and the aggregated JSON
//! artifact is written at exit. Unset (the default), the handle is a
//! no-op and the measured numbers are unaffected.

use irlt_bench::{matmul, rectangular, stencil};
use irlt_dependence::analyze_dependences;
use irlt_harness::timing::{black_box, Runner};
use irlt_ir::LoopNest;
use irlt_obs::Telemetry;
use irlt_opt::{search, Goal, MoveCatalog, SearchConfig};

/// One benchmark workload: a nest, a goal, and its search configuration.
struct Workload {
    name: &'static str,
    nest: LoopNest,
    goal: Goal,
    cfg: SearchConfig,
}

fn bench_workload(r: &mut Runner, w: &Workload) {
    let deps = analyze_dependences(&w.nest);
    r.bench(&format!("search/{}/incremental", w.name), || {
        black_box(search(
            black_box(&w.nest),
            black_box(&deps),
            &w.goal,
            &w.cfg,
        ))
    });
}

fn main() {
    let mut r = Runner::default();
    let telemetry = Telemetry::from_env();
    let cfg = |max_steps, beam_width, catalog| SearchConfig {
        max_steps,
        beam_width,
        catalog,
        telemetry: telemetry.clone(),
        ..SearchConfig::default()
    };
    let workloads = [
        Workload {
            name: "stencil",
            nest: stencil(),
            goal: Goal::OuterParallel,
            cfg: cfg(3, 12, MoveCatalog::parallelism()),
        },
        Workload {
            name: "matmul",
            nest: matmul(),
            goal: Goal::OuterParallel,
            cfg: cfg(5, 16, MoveCatalog::default()),
        },
        Workload {
            name: "rect4",
            nest: rectangular(4),
            goal: Goal::InnerParallel,
            cfg: cfg(4, 12, MoveCatalog::default()),
        },
    ];
    for w in &workloads {
        bench_workload(&mut r, w);
    }
    r.finish();
    match telemetry.write_env_report() {
        Ok(Some(path)) => println!("telemetry written to {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("telemetry write failed: {e}"),
    }
}
