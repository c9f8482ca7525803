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
//! allocations.
//!
//! Allocation counting is process-global, so this file stays a single
//! `#[test]` in its own integration-test binary.

use irlt_cachesim::{simulate_nest, AddressMap, CacheConfig, Order};
use irlt_core::TransformSeq;
use irlt_harness::alloc_counter::{count_allocations, install, CountingAlloc};
use irlt_ir::{parse_nest, Expr};

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
        let allocations = |n: i64| {
            let mut map = AddressMap::new(Order::ColMajor, 8);
            map.declare("a", &[n as u64, n as u64])
                .declare("b", &[n as u64, n as u64]);
            let (allocs, r) = count_allocations(|| simulate_nest(nest, &[("n", n)], &map, cache));
            let r = r.unwrap_or_else(|e| panic!("{label} simulates: {e}"));
            assert_eq!(r.stats.accesses, 2 * (n * n) as u64, "{label}");
            allocs
        };
        let small = allocations(16);
        let large = allocations(64);
        assert_eq!(
            small, large,
            "{label}: simulate_nest allocations grew from {small} at n = 16 to {large} at n = 64"
        );
    }
}
