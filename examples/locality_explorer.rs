//! Locality exploration: sweep tile sizes for blocked matrix multiply and
//! array-walk orders for a transposition kernel, printing miss-rate tables
//! from the cache simulator. This is the workload the paper's framework is
//! *for*: cheaply evaluating many alternative transformations of one nest
//! ("a loop nest remains unchanged while the transformation system
//! considers the legality and effectiveness of applying various
//! alternative transformations").
//!
//! ```text
//! cargo run --example locality_explorer
//! IRLT_TELEMETRY=telemetry.json cargo run --example locality_explorer
//! ```
//!
//! With `IRLT_TELEMETRY` set, the sweep's cache counters are aggregated
//! (`cachesim/*`) and written to the named JSON artifact.

use irlt::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tel = Telemetry::from_env();
    matmul_tile_sweep(&tel)?;
    transpose_interchange()?;
    hierarchy_view()?;
    if let Some(path) = tel.write_env_report()? {
        println!("telemetry artifact written to {}", path.display());
    }
    Ok(())
}

/// Where does tiling's benefit land? Stream the same address sequences
/// through a two-level hierarchy and compare weighted costs.
fn hierarchy_view() -> Result<(), Box<dyn std::error::Error>> {
    use irlt::cachesim::{Hierarchy, Latencies};

    let nest = parse_nest(
        "do i = 1, n
           do j = 1, n
             do k = 1, n
               A(i, j) = A(i, j) + B(i, k) * C(k, j)
             enddo
           enddo
         enddo",
    )?;
    let tiled = TransformSeq::new(3)
        .block(0, 2, vec![Expr::int(8), Expr::int(8), Expr::int(8)])?
        .apply(&nest)?;

    let n: i64 = 40;
    let mut map = AddressMap::new(Order::ColMajor, 8);
    for a in ["A", "B", "C"] {
        map.declare(a, &[n as u64, n as u64]);
    }
    let l1 = CacheConfig {
        size_bytes: 4 * 1024,
        line_bytes: 64,
        associativity: 4,
    };
    let l2 = CacheConfig {
        size_bytes: 64 * 1024,
        line_bytes: 64,
        associativity: 8,
    };

    println!("\n== two-level view (L1 4 KiB, L2 64 KiB, lat 4/12/100) ==");
    let run = |label: &str, nest: &LoopNest| -> Result<u64, Box<dyn std::error::Error>> {
        let mut h = Hierarchy::new(l1, l2, Latencies::default());
        stream_addresses(nest, &[("n", n)], &map, |addr| h.access(addr))?;
        println!("  {label:<8} {h}");
        Ok(h.cost())
    };
    let base = run("untiled", &nest)?;
    let opt = run("tiled 8", &tiled)?;
    println!("  → weighted cost ratio: {:.2}×", base as f64 / opt as f64);
    assert!(opt < base);
    Ok(())
}

fn matmul_tile_sweep(tel: &Telemetry) -> Result<(), Box<dyn std::error::Error>> {
    let nest = parse_nest(
        "do i = 1, n
           do j = 1, n
             do k = 1, n
               A(i, j) = A(i, j) + B(i, k) * C(k, j)
             enddo
           enddo
         enddo",
    )?;
    let deps = analyze_dependences(&nest);

    let n: i64 = 40;
    let mut map = AddressMap::new(Order::ColMajor, 8);
    for a in ["A", "B", "C"] {
        map.declare(a, &[n as u64, n as u64]);
    }
    let cfg = CacheConfig {
        size_bytes: 4 * 1024,
        line_bytes: 64,
        associativity: 4,
    };

    println!("== blocked matmul: tile-size sweep (n={n}, 4 KiB L1) ==");
    println!(
        "{:<12} {:>12} {:>12} {:>9}",
        "variant", "accesses", "misses", "miss%"
    );
    let base = simulate_nest_observed(&nest, &[("n", n)], &map, cfg, tel)?;
    println!(
        "{:<12} {:>12} {:>12} {:>8.2}%",
        "untiled",
        base.stats.accesses,
        base.stats.misses,
        100.0 * base.stats.miss_ratio()
    );

    let mut best: Option<(i64, u64)> = None;
    for bs in [2, 4, 8, 12, 16, 24] {
        let seq =
            TransformSeq::new(3).block(0, 2, vec![Expr::int(bs), Expr::int(bs), Expr::int(bs)])?;
        // Always legal for matmul's (0,0,+) dependence — the framework
        // confirms rather than assumes.
        assert!(seq.is_legal(&nest, &deps).is_legal());
        let tiled = seq.apply(&nest)?;
        let r = simulate_nest_observed(&tiled, &[("n", n)], &map, cfg, tel)?;
        println!(
            "{:<12} {:>12} {:>12} {:>8.2}%",
            format!("b={bs}"),
            r.stats.accesses,
            r.stats.misses,
            100.0 * r.stats.miss_ratio()
        );
        if best.is_none_or(|(_, m)| r.stats.misses < m) {
            best = Some((bs, r.stats.misses));
        }
    }
    let (bs, misses) = best.expect("swept");
    println!(
        "→ best tile b={bs}: {:.1}× fewer misses than untiled\n",
        base.stats.misses as f64 / misses as f64
    );
    assert!(misses < base.stats.misses);
    Ok(())
}

fn transpose_interchange() -> Result<(), Box<dyn std::error::Error>> {
    // b(i,j) = a(j,i): whichever loop order you pick, one array is walked
    // against its layout; tiling fixes both at once.
    let nest = parse_nest(
        "do i = 1, n
           do j = 1, n
             b(i, j) = a(j, i)
           enddo
         enddo",
    )?;
    let deps = analyze_dependences(&nest);
    assert!(deps.is_empty());

    let n: i64 = 64;
    let mut map = AddressMap::new(Order::ColMajor, 8);
    map.declare("a", &[n as u64, n as u64]);
    map.declare("b", &[n as u64, n as u64]);
    let cfg = CacheConfig {
        size_bytes: 4 * 1024,
        line_bytes: 64,
        associativity: 4,
    };

    println!("== transpose: interchange vs tiling (n={n}, 4 KiB L1) ==");
    let base = simulate_nest(&nest, &[("n", n)], &map, cfg)?;
    println!("original (i,j) : {}", base.stats);

    let swapped = TransformSeq::new(2)
        .reverse_permute(vec![false, false], vec![1, 0])?
        .apply(&nest)?;
    let r_swap = simulate_nest(&swapped, &[("n", n)], &map, cfg)?;
    println!("interchanged   : {}", r_swap.stats);

    let tiled = TransformSeq::new(2)
        .block(0, 1, vec![Expr::int(8), Expr::int(8)])?
        .apply(&nest)?;
    let r_tile = simulate_nest(&tiled, &[("n", n)], &map, cfg)?;
    println!("tiled 8×8      : {}", r_tile.stats);

    // Interchange merely moves the problem from one array to the other;
    // tiling beats both orders.
    assert!(r_tile.stats.misses < base.stats.misses);
    assert!(r_tile.stats.misses < r_swap.stats.misses);
    println!(
        "→ tiling wins: {:.1}× fewer misses than the best untiled order",
        base.stats.misses.min(r_swap.stats.misses) as f64 / r_tile.stats.misses as f64
    );
    Ok(())
}
