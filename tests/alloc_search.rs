//! The warm beam search allocates a small, bounded amount per candidate.
//!
//! With a warmed shared legality cache every extension replays a cached
//! verdict and hands back the cache's interned `Arc`s, so the frontier
//! should never deep-copy a candidate's shape or sequence (a
//! [`irlt_opt::Candidate`] is built only for a new best). This binary
//! pins that with a counting `#[global_allocator]`: after one matmul
//! acceptance search (max_steps 5, beam 16, `Goal::OuterParallel`) warms
//! the cache, a second identical search must perform at most
//! [`BUDGET_PER_EXPLORED`] allocations per explored candidate.
//!
//! Allocation counting is process-global, so this file stays a single
//! `#[test]` in its own integration-test binary, and the search runs on
//! one thread.

use irlt_core::SharedLegalityCache;
use irlt_dependence::analyze_dependences;
use irlt_harness::alloc_counter::{count_allocations, install, CountingAlloc};
use irlt_ir::parse_nest;
use irlt_opt::{search, Goal, SearchConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Heap allocations allowed per explored candidate in a warm search.
/// A deep copy of every legal candidate's shape and sequence costs
/// about 22 per candidate on this search; the zero-copy frontier about 7.
const BUDGET_PER_EXPLORED: f64 = 10.0;

#[test]
fn warm_search_allocations_per_candidate_stay_bounded() {
    install(&ALLOC);

    let nest = parse_nest(
        "do i = 1, n\n do j = 1, n\n  do k = 1, n\n   A(i, j) = A(i, j) + B(i, k) * C(k, j)\n  enddo\n enddo\nenddo",
    )
    .unwrap();
    let deps = analyze_dependences(&nest);
    let cfg = SearchConfig {
        max_steps: 5,
        beam_width: 16,
        shared: Some(SharedLegalityCache::new()),
        ..SearchConfig::default()
    };
    let cold = search(&nest, &deps, &Goal::OuterParallel, &cfg);

    let (allocs, warm) = count_allocations(|| search(&nest, &deps, &Goal::OuterParallel, &cfg));
    // The warm search is the same search: the cache changes nothing.
    assert_eq!((warm.explored, warm.legal), (cold.explored, cold.legal));
    assert_eq!(warm.best.seq.to_string(), cold.best.seq.to_string());
    assert!(warm.explored > 1000, "search too small: {warm}");

    let per_explored = allocs as f64 / warm.explored as f64;
    println!(
        "warm matmul search: {allocs} allocations over {} explored candidates \
         ({per_explored:.1} per candidate)",
        warm.explored
    );
    assert!(
        per_explored <= BUDGET_PER_EXPLORED,
        "warm search made {per_explored:.1} allocations per explored candidate \
         ({allocs} over {}); the budget is {BUDGET_PER_EXPLORED}",
        warm.explored
    );
}
