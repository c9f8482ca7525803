//! Locality studies on the cache simulator: tiled vs untiled matmul and
//! interchanged vs original stencil walks, plus two whole
//! `Goal::Locality` searches. A search's time is trial simulation, code
//! generation and legality tests; its last depth is bounded, so the
//! copy search (`copy32`) decides its leaves without trials, and the
//! matmul search (`matmul10`), whose best never reaches the compulsory
//! misses, stops each leaf's trial once it cannot beat the best.
//! The harness measures the simulation throughput; the *miss-rate shape*
//! (who wins, by how much) is asserted here and reported in
//! EXPERIMENTS.md. `BENCH_29_locality.json` records the gated medians.

use irlt_bench::matmul;
use irlt_cachesim::{simulate_nest, AddressMap, CacheConfig, Order};
use irlt_core::TransformSeq;
use irlt_dependence::analyze_dependences;
use irlt_harness::timing::{black_box, Runner};
use irlt_ir::{parse_nest, Expr};
use irlt_opt::{search, Goal, LocalityGoal, MoveCatalog, SearchConfig};

fn map_for_matmul(n: u64) -> AddressMap {
    let mut map = AddressMap::new(Order::ColMajor, 8);
    for a in ["A", "B", "C"] {
        map.declare(a, &[n, n]);
    }
    map
}

const CFG: CacheConfig = CacheConfig {
    size_bytes: 4 * 1024,
    line_bytes: 64,
    associativity: 4,
};

fn matmul_tiling(r: &mut Runner) {
    let nest = matmul();
    let n: i64 = 24;
    let map = map_for_matmul(n as u64);

    // Assert the experiment's shape before timing it: tiling must win.
    let base = simulate_nest(&nest, &[("n", n)], &map, CFG).expect("simulates");
    let tiled_nest = TransformSeq::new(3)
        .block(0, 2, vec![Expr::int(8); 3])
        .expect("valid")
        .apply(&nest)
        .expect("legal");
    let tiled = simulate_nest(&tiled_nest, &[("n", n)], &map, CFG).expect("simulates");
    assert!(
        tiled.stats.misses * 2 < base.stats.misses,
        "tiling should at least halve misses: {} vs {}",
        tiled.stats,
        base.stats
    );

    r.bench("locality/matmul/untiled", || {
        black_box(simulate_nest(&nest, &[("n", n)], &map, CFG).expect("simulates"))
    });
    for bs in [4i64, 8] {
        let t = TransformSeq::new(3)
            .block(0, 2, vec![Expr::int(bs); 3])
            .expect("valid")
            .apply(&nest)
            .expect("legal");
        r.bench(&format!("locality/matmul/tiled{bs}"), || {
            black_box(simulate_nest(&t, &[("n", n)], &map, CFG).expect("simulates"))
        });
    }
}

fn stencil_walk_order(r: &mut Runner) {
    // Column-major array walked row-wise vs column-wise: interchange
    // repairs the stride.
    let bad = parse_nest("do i = 1, n\n do j = 1, n\n  s(1) = s(1) + a(i, j)\n enddo\nenddo")
        .expect("parses");
    let good = TransformSeq::new(2)
        .reverse_permute(vec![false, false], vec![1, 0])
        .expect("valid")
        .apply(&bad)
        .expect("legal");
    let n: i64 = 96;
    let mut map = AddressMap::new(Order::ColMajor, 8);
    map.declare("a", &[n as u64, n as u64]);
    map.declare("s", &[1]);

    let r_bad = simulate_nest(&bad, &[("n", n)], &map, CFG).expect("simulates");
    let r_good = simulate_nest(&good, &[("n", n)], &map, CFG).expect("simulates");
    assert!(
        r_good.stats.misses * 4 < r_bad.stats.misses,
        "interchange should cut misses ≥4×: {} vs {}",
        r_good.stats,
        r_bad.stats
    );

    r.bench("locality/stencil_walk/row_walk_of_colmajor", || {
        black_box(simulate_nest(&bad, &[("n", n)], &map, CFG).expect("simulates"))
    });
    r.bench("locality/stencil_walk/interchanged", || {
        black_box(simulate_nest(&good, &[("n", n)], &map, CFG).expect("simulates"))
    });
}

/// The `locality` benchmark workload's largest copy job: a beam search
/// over the locality moves, scoring each interior candidate by simulating
/// it on a cache smaller than either array. The best at depth 0 already
/// has the copy's compulsory misses, so no leaf runs a trial.
fn copy_search(r: &mut Runner) {
    let nest = parse_nest("do i = 1, n\n do j = 1, n\n  b(i, j) = a(i, j)\n enddo\nenddo")
        .expect("parses");
    let deps = analyze_dependences(&nest);
    let n: i64 = 32;
    let mut map = AddressMap::new(Order::ColMajor, 8);
    map.declare("a", &[n as u64, n as u64]);
    map.declare("b", &[n as u64, n as u64]);
    let goal = Goal::Locality(LocalityGoal {
        params: vec![("n".into(), n)],
        map,
        cache: CacheConfig {
            size_bytes: 2048,
            line_bytes: 64,
            associativity: 2,
        },
    });
    let config = SearchConfig {
        catalog: MoveCatalog::locality(),
        max_steps: 2,
        beam_width: 4,
        ..SearchConfig::default()
    };
    // The row-major walk of column-major arrays is the wrong order: the
    // search must find a better one.
    let found = search(&nest, &deps, &goal, &config);
    assert!(
        found.best.score > goal.score(&nest).expect("scores"),
        "search should beat the original order: {found}"
    );

    r.bench("locality/search/copy32", || {
        black_box(search(&nest, &deps, &goal, &config))
    });
}

/// A matmul locality search whose best is a two-step sequence that never
/// reaches the compulsory misses: each leaf is simulated, and stopped as
/// soon as it cannot beat the best.
fn matmul_search(r: &mut Runner) {
    let nest = matmul();
    let deps = analyze_dependences(&nest);
    let n: i64 = 10;
    let goal = Goal::Locality(LocalityGoal {
        params: vec![("n".into(), n)],
        map: map_for_matmul(n as u64),
        cache: CacheConfig {
            size_bytes: 1024,
            line_bytes: 64,
            associativity: 2,
        },
    });
    let config = SearchConfig {
        catalog: MoveCatalog::locality(),
        max_steps: 2,
        beam_width: 4,
        ..SearchConfig::default()
    };
    let found = search(&nest, &deps, &goal, &config);
    assert_eq!(found.best.seq.len(), 2, "the best is a leaf: {found}");

    r.bench("locality/search/matmul10", || {
        black_box(search(&nest, &deps, &goal, &config))
    });
}

fn main() {
    let mut r = Runner::default();
    matmul_tiling(&mut r);
    stencil_walk_order(&mut r);
    copy_search(&mut r);
    matmul_search(&mut r);
    r.finish();
}
