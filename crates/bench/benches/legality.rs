//! Legality-test scaling: the paper's "single legality test for all
//! iteration-reordering loop transformations", measured against nest depth
//! and dependence-set size, and the incremental engine's cost per
//! candidate move.
//!
//! Rows regenerated: the cost model behind §5's claim that keeping the
//! loop nest unchanged while testing many candidate transformations is
//! cheap ("supporting arbitrary levels of search and undo").

use irlt_bench::{figure7_sequence, matmul, random_deps, rectangular, unimodular_chain};
use irlt_core::{SeqState, SharedLegalityCache};
use irlt_dependence::analyze_dependences;
use irlt_harness::timing::{black_box, Runner};
use irlt_opt::MoveCatalog;

fn legality_vs_depth(r: &mut Runner) {
    for depth in [2usize, 3, 4, 5, 6] {
        let nest = rectangular(depth);
        let deps = random_deps(depth, 8, 42);
        let seq = unimodular_chain(depth, 4, 7);
        r.bench(&format!("legality/depth/{depth}"), || {
            black_box(seq.is_legal(black_box(&nest), black_box(&deps)))
        });
    }
}

fn legality_vs_depset_size(r: &mut Runner) {
    let nest = rectangular(4);
    let seq = unimodular_chain(4, 4, 11);
    for count in [1usize, 8, 64, 256] {
        let deps = random_deps(4, count, 5);
        r.bench(&format!("legality/depset_size/{count}"), || {
            black_box(seq.is_legal(black_box(&nest), black_box(&deps)))
        });
    }
}

fn legality_figure7(r: &mut Runner) {
    let nest = matmul();
    let deps = analyze_dependences(&nest);
    let seq = figure7_sequence();
    r.bench("legality/figure7_pipeline", || {
        black_box(seq.is_legal(black_box(&nest), black_box(&deps)))
    });
}

/// One search step's legality work: a cold root `SeqState` (no shared
/// cache) extended by every move the default catalog offers at its
/// depth. Most of those candidates are rejected, so this is the miss
/// path the search pays on every fresh shape. The `legality/admits`
/// rows decide the same candidates without building children, as the
/// search's last depth does.
fn extend_root_moves(r: &mut Runner) {
    let catalog = MoveCatalog::default();
    for depth in [2usize, 3, 4] {
        let nest = rectangular(depth);
        let deps = random_deps(depth, 8, 42);
        let moves = catalog.moves(depth);
        r.bench(&format!("legality/extend/{depth}"), || {
            let root = SeqState::root(black_box(&nest), black_box(&deps));
            let legal = moves.iter().filter(|t| root.extend(*t).is_ok()).count();
            black_box(legal)
        });
        r.bench(&format!("legality/admits/{depth}"), || {
            let root = SeqState::root(black_box(&nest), black_box(&deps));
            let legal = moves.iter().filter(|t| root.admits(t).is_ok()).count();
            black_box(legal)
        });
    }
}

/// The shared-cache probe on its own, as the search makes it: a root
/// `SeqState` over `rectangular(3)` attached to a cache that already
/// holds an entry for every `MoveCatalog::default()` move at depth 3,
/// probed with those moves keyed once. `legality/probe/hit` makes
/// `PROBE_ROUNDS` passes over the list on one thread; `hit_t2` makes
/// them on each of two scoped threads sharing the cache, so its excess
/// over `hit` is the cost of two workers on one cache (stripe contention
/// plus the thread spawns).
fn probe_warm_cache(r: &mut Runner) {
    const PROBE_ROUNDS: usize = 16;
    let nest = rectangular(3);
    let deps = random_deps(3, 8, 42);
    let cache = SharedLegalityCache::new();
    let root = SeqState::root(&nest, &deps).with_shared(cache, 0);
    let moves = root.key_moves(MoveCatalog::default().moves(3));
    for mv in &moves {
        let _ = root.extend(mv);
    }
    let probe_all = || {
        let mut hits = 0usize;
        for _ in 0..PROBE_ROUNDS {
            for mv in &moves {
                hits += usize::from(root.shared_probe(black_box(mv)) == Some(true));
            }
        }
        assert_eq!(hits, PROBE_ROUNDS * moves.len(), "every probe hits");
        hits
    };
    r.bench("legality/probe/hit", probe_all);
    r.bench("legality/probe/hit_t2", || {
        std::thread::scope(|s| {
            let other = s.spawn(probe_all);
            probe_all() + other.join().expect("probe thread panicked")
        })
    });
}

fn dependence_analysis(r: &mut Runner) {
    let stencil = irlt_bench::stencil();
    r.bench("legality/analysis/stencil", || {
        black_box(analyze_dependences(black_box(&stencil)))
    });
    let mm = matmul();
    r.bench("legality/analysis/matmul", || {
        black_box(analyze_dependences(black_box(&mm)))
    });
    let rect = rectangular(5);
    r.bench("legality/analysis/rect5", || {
        black_box(analyze_dependences(black_box(&rect)))
    });
}

fn main() {
    let mut r = Runner::default();
    legality_vs_depth(&mut r);
    legality_vs_depset_size(&mut r);
    legality_figure7(&mut r);
    extend_root_moves(&mut r);
    probe_warm_cache(&mut r);
    dependence_analysis(&mut r);
    r.finish();
}
