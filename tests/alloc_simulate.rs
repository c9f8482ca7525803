//! Locality scoring allocates nothing per access.
//!
//! `simulate_nest` compiles the nest and sizes the cache once per call,
//! then streams every access's address into the cache with no value
//! memory, trace buffer or per-access allocation. The innermost-loop
//! kernel keeps its per-entry state in buffers it reuses, so a nest with
//! many short inner ranges (tiled) or scalar temporaries (skewed) costs
//! no more allocations than one long range. This binary pins that with a
//! counting `#[global_allocator]`: simulating each nest at `n = 16` and
//! at `n = 64` (16× the accesses) must perform the same number of heap
//! allocations. So must a simulation bounded at half the nest's misses,
//! which stops early, and the pass that counts the lines a nest touches
//! (one bitmap, larger at `n = 64` but allocated once).
//!
//! Allocation counting is process-global, so this file stays a single
//! `#[test]` in its own integration-test binary.

use irlt_cachesim::{
    lines_touched, simulate_nest, simulate_nest_bounded, AddressMap, CacheConfig, Order,
};
use irlt_core::TransformSeq;
use irlt_harness::alloc_counter::{count_allocations, install, CountingAlloc};
use irlt_ir::{parse_nest, Expr};
use irlt_obs::Telemetry;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn simulation_allocations_do_not_grow_with_accesses() {
    install(&ALLOC);

    let copy = parse_nest("do i = 1, n\n do j = 1, n\n  b(i, j) = a(i, j)\n enddo\nenddo").unwrap();
    let tiled = TransformSeq::new(2)
        .block(0, 1, vec![Expr::int(4); 2])
        .unwrap()
        .apply(&copy)
        .unwrap();
    let skewed = parse_nest(
        "do i = 1, n\n do jj = i + 1, n + i\n  j = jj - i\n  b(i, j) = a(i, j)\n enddo\nenddo",
    )
    .unwrap();
    let cache = CacheConfig {
        size_bytes: 2048,
        line_bytes: 64,
        associativity: 2,
    };
    for (label, nest) in [("copy", &copy), ("tiled", &tiled), ("skewed", &skewed)] {
        // Allocations of the whole run, the bounded run and the line count.
        let allocations = |n: i64| {
            let params = [("n", n)];
            let mut map = AddressMap::new(Order::ColMajor, 8);
            map.declare("a", &[n as u64, n as u64])
                .declare("b", &[n as u64, n as u64]);
            let (whole, r) = count_allocations(|| simulate_nest(nest, &params, &map, cache));
            let r = r.unwrap_or_else(|e| panic!("{label} simulates: {e}"));
            assert_eq!(r.stats.accesses, 2 * (n * n) as u64, "{label}");
            let limit = Some(r.stats.misses / 2);
            let disabled = Telemetry::disabled();
            let (bounded, stopped) = count_allocations(|| {
                simulate_nest_bounded(nest, &params, &map, cache, limit, &disabled)
            });
            assert_eq!(stopped, Ok(None), "{label} stops at half its misses");
            let (floor, lines) = count_allocations(|| lines_touched(nest, &params, &map, 64));
            assert_eq!(lines, Ok(2 * (n * n) as u64 / 8), "{label}");
            [whole, bounded, floor]
        };
        let small = allocations(16);
        let large = allocations(64);
        assert_eq!(
            small, large,
            "{label}: [whole, bounded, line count] allocations grew from {small:?} at n = 16 \
             to {large:?} at n = 64"
        );
    }
}
