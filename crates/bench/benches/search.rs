//! End-to-end beam-search throughput on the incremental legality engine
//! (prefix-cached dependence mapping + fail-fast, §5's "arbitrary levels
//! of search and undo" made cheap).
//!
//! Three workloads: the Fig. 1(a) stencil (wavefront discovery), the
//! Fig. 6 matrix multiply at the deep acceptance configuration
//! (`max_steps: 5, beam_width: 16`), and a depth-4 rectangular nest.
//! `search/*/incremental` and `search/*/parallel` run the engine serially
//! and with 4 workers. The retired from-scratch engine, which replayed
//! every candidate through `TransformSeq::is_legal`, is recorded as the
//! `scratch_ms` rows of `BENCH_3.json`.
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

/// One benchmark workload: a nest, a goal, and the base search
/// configuration every engine variant shares.
struct Workload {
    name: &'static str,
    nest: LoopNest,
    goal: Goal,
    base: SearchConfig,
}

fn engines(base: &SearchConfig) -> [(&'static str, SearchConfig); 2] {
    [("incremental", 1), ("parallel", 4)].map(|(engine, threads)| {
        (
            engine,
            SearchConfig {
                threads,
                ..base.clone()
            },
        )
    })
}

fn bench_workload(r: &mut Runner, w: &Workload) {
    let deps = analyze_dependences(&w.nest);
    for (engine, cfg) in engines(&w.base) {
        r.bench(&format!("search/{}/{engine}", w.name), || {
            black_box(search(black_box(&w.nest), black_box(&deps), &w.goal, &cfg))
        });
    }
}

fn main() {
    let mut r = Runner::default();
    let telemetry = Telemetry::from_env();
    let base = |max_steps, beam_width, catalog| SearchConfig {
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
            base: base(3, 12, MoveCatalog::parallelism()),
        },
        Workload {
            name: "matmul",
            nest: matmul(),
            goal: Goal::OuterParallel,
            base: base(5, 16, MoveCatalog::default()),
        },
        Workload {
            name: "rect4",
            nest: rectangular(4),
            goal: Goal::InnerParallel,
            base: base(4, 12, MoveCatalog::default()),
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
