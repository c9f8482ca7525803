//! `simulate_nest` streams addresses without executing array values; this
//! suite pins it to the interpreter-trace reference, rebuilt here from
//! public API only (`Executor` with `TraceLevel::Accesses`, then
//! `AddressMap::drive` into a `Cache`). Every input must give an
//! identical `Result<SimResult, SimError>` and, through
//! `stream_addresses`, the identical address sequence; the
//! `cachesim/fallbacks`
//! counter must show which path served it: the streaming executor for
//! every nest whose addresses and control flow are array-value-free and
//! that runs without error, the reference path for everything else.
//! Every input is also simulated with miss limits around its miss count
//! (`simulate_nest_bounded`), which must stop exactly when the whole run
//! reaches the limit and otherwise return the whole run's result.
//!
//! The locality search decides last-depth candidates without trials once
//! its best has the original nest's compulsory misses. That rests on every
//! legal reordering touching exactly the original's lines, which
//! `legal_reorderings_touch_exactly_the_roots_lines` checks.

use irlt_cachesim::{
    lines_touched, simulate_nest_bounded, simulate_nest_observed, stream_addresses, AddressMap,
    Cache, CacheConfig, Order, SimError, SimResult,
};
use irlt_core::{SeqState, TransformSeq};
use irlt_dependence::analyze_dependences;
use irlt_driver::demo_corpus;
use irlt_harness::gen::gen_nest;
use irlt_harness::Rng;
use irlt_interp::{Executor, Memory, TraceLevel};
use irlt_ir::{parse_nest, Expr, Loop, LoopNest, Stmt};
use irlt_obs::Telemetry;
use irlt_opt::MoveCatalog;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The locality workload's cache: smaller than the arrays below.
const SMALL: CacheConfig = CacheConfig {
    size_bytes: 2048,
    line_bytes: 64,
    associativity: 2,
};

const BENCH: CacheConfig = CacheConfig {
    size_bytes: 4 * 1024,
    line_bytes: 64,
    associativity: 4,
};

const COPY: &str = "do i = 1, n\n do j = 1, n\n  b(i, j) = a(i, j)\n enddo\nenddo";
const WAVEFRONT: &str =
    "do i = 2, n\n do j = 2, n\n  a(i, j) = a(i - 1, j) + a(i, j - 1)\n enddo\nenddo";
const MATMUL: &str = "do i = 1, n\n do j = 1, n\n  do k = 1, n\n   \
                      A(i, j) = A(i, j) + B(i, k) * C(k, j)\n  enddo\n enddo\nenddo";

/// The reference address stream and iteration count.
fn reference(
    nest: &LoopNest,
    params: &[(&str, i64)],
    map: &AddressMap,
) -> Result<(Vec<u64>, usize), SimError> {
    let mut ex = Executor::new();
    for &(k, v) in params {
        ex.set_param(k, v);
    }
    ex.trace(TraceLevel::Accesses);
    let run = ex.run(nest, Memory::new()).map_err(SimError::Exec)?;
    let mut addrs = Vec::new();
    map.drive(&run.trace, |addr| addrs.push(addr))
        .map_err(SimError::Address)?;
    Ok((addrs, run.iterations))
}

/// Asserts that `stream_addresses` and `simulate_nest` match the reference
/// on one input, and returns the simulation and whether the reference
/// path served it.
fn check(
    label: &str,
    nest: &LoopNest,
    params: &[(&str, i64)],
    map: &AddressMap,
    config: CacheConfig,
) -> (Result<SimResult, SimError>, bool) {
    let want = reference(nest, params, map);
    let mut addrs = Vec::new();
    let streamed = stream_addresses(nest, params, map, |addr| addrs.push(addr));
    match (&streamed, &want) {
        (Ok(iterations), Ok((want_addrs, want_iterations))) => {
            assert_eq!(iterations, want_iterations, "{label}: iterations\n{nest}");
            assert!(
                addrs == *want_addrs,
                "{label}: address streams differ\n{nest}"
            );
        }
        _ => assert_eq!(
            streamed.as_ref().err(),
            want.as_ref().err(),
            "{label}: errors\n{nest}"
        ),
    }

    let want = want.map(|(addrs, iterations)| {
        let mut cache = Cache::new(config);
        for addr in addrs {
            cache.access(addr);
        }
        SimResult {
            stats: cache.stats(),
            iterations,
        }
    });
    let tel = Telemetry::enabled();
    let got = simulate_nest_observed(nest, params, map, config, &tel);
    assert_eq!(
        got, want,
        "{label}: streaming and reference disagree\n{nest}"
    );
    check_bounded(label, nest, params, map, config, &want);
    (got, tel.report().counter("cachesim/fallbacks") == 1)
}

/// Asserts that a simulation bounded at `m` misses stops exactly when the
/// whole run's misses reach `m`, and otherwise returns `want`, the whole
/// run's result. A run that fails has no miss count: only its unbounded
/// run (the failure) and its limit-0 run (stopped before any access) are
/// determined.
fn check_bounded(
    label: &str,
    nest: &LoopNest,
    params: &[(&str, i64)],
    map: &AddressMap,
    config: CacheConfig,
    want: &Result<SimResult, SimError>,
) {
    let disabled = Telemetry::disabled();
    let bounded = |limit| simulate_nest_bounded(nest, params, map, config, limit, &disabled);
    assert_eq!(
        bounded(None),
        want.clone().map(Some),
        "{label}: no limit\n{nest}"
    );
    let limits = match want {
        Ok(r) => {
            let m = r.stats.misses;
            vec![0, 1, m.saturating_sub(1), m, m + 1]
        }
        Err(_) => vec![0],
    };
    for limit in limits {
        let expected = match want {
            Ok(r) if r.stats.misses < limit => Ok(Some(r.clone())),
            _ => Ok(None),
        };
        assert_eq!(
            bounded(Some(limit)),
            expected,
            "{label}: miss limit {limit}\n{nest}"
        );
    }
}

/// A nest the streaming executor must serve: it falls back only to name
/// an error.
fn check_streamed(
    label: &str,
    nest: &LoopNest,
    params: &[(&str, i64)],
    map: &AddressMap,
    config: CacheConfig,
) -> Result<SimResult, SimError> {
    let (result, fell_back) = check(label, nest, params, map, config);
    assert_eq!(fell_back, result.is_err(), "{label}: wrong path\n{nest}");
    result
}

/// The reference path must serve this nest.
fn check_fallback(label: &str, nest: &LoopNest, params: &[(&str, i64)], map: &AddressMap) {
    let (_, fell_back) = check(label, nest, params, map, SMALL);
    assert!(fell_back, "{label}: should not stream\n{nest}");
}

/// The bounding box of the elements `nest` touches, per array, or `None`
/// when the nest does not execute.
fn touched_boxes(nest: &LoopNest, params: &[(&str, i64)]) -> Option<Boxes> {
    let mut ex = Executor::new();
    for &(k, v) in params {
        ex.set_param(k, v);
    }
    ex.trace(TraceLevel::Accesses);
    let run = ex.run(nest, Memory::new()).ok()?;
    let mut boxes = Boxes::new();
    for e in &run.trace {
        let b = boxes
            .entry(e.array.to_string())
            .or_insert_with(|| e.indices.iter().map(|&i| (i, i)).collect());
        for (r, &i) in b.iter_mut().zip(&e.indices) {
            *r = (r.0.min(i), r.1.max(i));
        }
    }
    Some(boxes)
}

type Boxes = BTreeMap<String, Vec<(i64, i64)>>;

/// Declares every box in `order`; `short` loses the last element of its
/// last dimension.
fn declare(boxes: &Boxes, order: Order, short: Option<&str>) -> AddressMap {
    let mut map = AddressMap::new(order, 8);
    for (name, b) in boxes {
        let mut dims: Vec<u64> = b.iter().map(|&(lo, hi)| (hi - lo + 1) as u64).collect();
        let origin: Vec<i64> = b.iter().map(|&(lo, _)| lo).collect();
        if short == Some(name.as_str()) {
            *dims.last_mut().expect("arrays have rank 1 or more") -= 1;
        }
        map.declare_with_origin(name.as_str(), &dims, &origin);
    }
    map
}

fn covering_map(nest: &LoopNest, params: &[(&str, i64)]) -> AddressMap {
    declare(
        &touched_boxes(nest, params).expect("nest executes"),
        Order::ColMajor,
        None,
    )
}

/// `n × n` column-major arrays, as the locality search declares them.
fn square_map(n: i64, arrays: &[&str]) -> AddressMap {
    let mut map = AddressMap::new(Order::ColMajor, 8);
    for a in arrays {
        map.declare(*a, &[n as u64, n as u64]);
    }
    map
}

/// Checks `nest` against maps covering every element it touches, in both
/// orders, and against maps where one array is an element short, so the
/// last access to that array's edge fails.
fn check_covered(label: &str, nest: &LoopNest, params: &[(&str, i64)]) {
    let Some(boxes) = touched_boxes(nest, params) else {
        let empty = AddressMap::new(Order::ColMajor, 8);
        check_streamed(label, nest, params, &empty, SMALL).unwrap_err();
        return;
    };
    for order in [Order::ColMajor, Order::RowMajor] {
        check_streamed(label, nest, params, &declare(&boxes, order, None), SMALL).expect("covered");
    }
    for (name, b) in &boxes {
        if b.last().is_some_and(|&(lo, hi)| hi > lo) {
            let map = declare(&boxes, Order::ColMajor, Some(name));
            check_streamed(label, nest, params, &map, SMALL).unwrap_err();
        }
    }
}

#[test]
fn demo_corpus_nests_match_the_reference() {
    let mut seen = BTreeSet::new();
    for job in demo_corpus(8) {
        if seen.insert(job.nest.to_string()) {
            check_covered(&job.name, &job.nest, &[("n", 9), ("m", 7)]);
        }
    }
    assert_eq!(seen.len(), 8);
}

#[test]
fn locality_bench_nests_match_the_reference() {
    let matmul = parse_nest(MATMUL).unwrap();
    let map = square_map(24, &["A", "B", "C"]);
    check_streamed("matmul/untiled", &matmul, &[("n", 24)], &map, BENCH).unwrap();
    for bs in [4, 8] {
        let tiled = TransformSeq::new(3)
            .block(0, 2, vec![Expr::int(bs); 3])
            .unwrap()
            .apply(&matmul)
            .unwrap();
        check_streamed("matmul/tiled", &tiled, &[("n", 24)], &map, BENCH).unwrap();
    }
    let bad =
        parse_nest("do i = 1, n\n do j = 1, n\n  s(1) = s(1) + a(i, j)\n enddo\nenddo").unwrap();
    let good = TransformSeq::new(2)
        .reverse_permute(vec![false, false], vec![1, 0])
        .unwrap()
        .apply(&bad)
        .unwrap();
    let mut map = square_map(96, &["a"]);
    map.declare("s", &[1]);
    let r_bad = check_streamed("stencil/row", &bad, &[("n", 96)], &map, BENCH).unwrap();
    let r_good = check_streamed("stencil/col", &good, &[("n", 96)], &map, BENCH).unwrap();
    assert!(r_good.stats.misses * 4 < r_bad.stats.misses);
}

#[test]
fn fuzz_corpus_nests_match_the_reference() {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/fuzz"));
    let entries = irlt_fuzz::load_dir(dir).expect("corpus must parse");
    assert_eq!(entries.len(), 36);
    for (path, entry) in entries {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let nest = &entry.case.nest;
        check_covered(&name, nest, &[]);
        if let Ok(out) = entry.case.seq.apply(nest) {
            check_covered(&format!("{name} transformed"), &out, &[]);
        }
    }
}

#[test]
fn locality_candidates_within_two_steps_match_the_reference() {
    let catalog = MoveCatalog::locality();
    for (src, n, arrays) in [
        (COPY, 12, &["a", "b"][..]),
        (WAVEFRONT, 12, &["a"][..]),
        (MATMUL, 5, &["A", "B", "C"][..]),
    ] {
        let nest = parse_nest(src).unwrap();
        let map = square_map(n, arrays);
        let cache = CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            associativity: 2,
        };
        let mut seen = BTreeSet::new();
        let mut frontier = vec![TransformSeq::new(nest.depth())];
        for _ in 0..2 {
            let mut next = Vec::new();
            for seq in &frontier {
                let depth = seq.apply(&nest).unwrap().depth();
                for t in catalog.moves(depth) {
                    let Ok(cand) = seq.clone().push(t) else {
                        continue;
                    };
                    let Ok(out) = cand.apply(&nest) else { continue };
                    if seen.insert(out.to_string()) {
                        check_streamed(&cand.to_string(), &out, &[("n", n)], &map, cache).unwrap();
                        next.push(cand);
                    }
                }
            }
            frontier = next;
        }
        assert!(seen.len() > 100, "{src}: only {} candidates", seen.len());
    }
}

#[test]
fn streamed_language_matches_the_reference() {
    // Guards, scalar temporaries, inits, built-in calls, negative and
    // symbolic steps, and divisions by read-free divisors all stream.
    let mut nests: Vec<LoopNest> = [
        "do i = 1, n\n do j = 1, i\n  if (i - j) a(i, j) = a(j, i) + 1\n enddo\nenddo",
        "do i = 1, n\n t = i * 2\n a(t - i, 1) = a(i, 1) / (t - i) + a(1, 1) mod 3\nenddo",
        "do ii = 1, n\n i = n + 1 - ii\n a(i, 1) = min(a(i, 1), i, -a(1, 1)) * max(2, i)\nenddo",
        "do i = n, 1, -2\n do j = 1, sqrt(i * i) + abs(0 - 1) - 1, s\n  a(i, j) = sgn(a(j, i))\n enddo\nenddo",
    ]
    .iter()
    .map(|src| parse_nest(src).unwrap_or_else(|e| panic!("{src}: {e}")))
    .collect();
    // No surface syntax for ceiling division.
    let (i, j) = (Expr::var("i"), Expr::var("j"));
    nests.push(LoopNest::new(
        vec![
            Loop::new("i", Expr::int(1), Expr::var("n")),
            Loop::new("j", Expr::int(1), Expr::var("n")),
        ],
        vec![Stmt::array(
            "a",
            vec![i.clone(), j.clone()],
            Expr::ceil_div(Expr::read("a", vec![j, i.clone()]), i),
        )],
    ));
    let params = [("n", 9), ("s", 2)];
    for nest in &nests {
        let map = covering_map(nest, &params);
        check_streamed("language", nest, &params, &map, SMALL).unwrap();
    }
}

#[test]
fn value_dependent_nests_and_errors_match_the_reference() {
    let mut zero_based = AddressMap::new(Order::ColMajor, 8);
    zero_based
        .declare_with_origin("a", &[10], &[0])
        .declare("b", &[10])
        .declare("c", &[10])
        .declare("idx", &[10])
        .declare("mask", &[10]);
    // An array value decides an address, a guard or an error: the
    // reference path serves the nest, and gives the same answer.
    for src in [
        "do i = 1, n\n a(idx(i)) = 0\nenddo",
        "do i = 1, n\n if (mask(i)) a(i) = b(i)\nenddo",
        "do i = 1, n\n a(i) = b(i) / c(i)\nenddo",
        "do i = 1, n\n t = b(i)\n a(i) = t\nenddo",
    ] {
        check_fallback(src, &parse_nest(src).unwrap(), &[("n", 9)], &zero_based);
    }
    // No surface syntax for these: a bound that reads an array, and calls
    // other than the one-argument built-ins, which the reference rejects.
    let i = Expr::var("i");
    for (upper, value) in [
        (Expr::read("b", vec![Expr::int(1)]), Expr::int(0)),
        (Expr::var("n"), Expr::call("colstr", vec![i.clone()])),
        (
            Expr::var("n"),
            Expr::call("abs", vec![i.clone(), i.clone()]),
        ),
    ] {
        let nest = LoopNest::new(
            vec![Loop::new("i", Expr::int(1), upper)],
            vec![Stmt::array("a", vec![i.clone()], value)],
        );
        check_fallback("bound or call", &nest, &[("n", 9)], &zero_based);
    }
    // Errors the streaming run meets are named by the reference path.
    let copy = parse_nest("do i = 1, n\n b(i) = a(i)\nenddo").unwrap();
    let mut map = AddressMap::new(Order::ColMajor, 8);
    map.declare("a", &[8]).declare("b", &[8]);
    let unbound = check_streamed("unbound n", &copy, &[], &map, SMALL).unwrap_err();
    assert!(unbound.to_string().contains("`n`"), "{unbound}");
    let oob = check_streamed("out of bounds", &copy, &[("n", 9)], &map, SMALL).unwrap_err();
    assert!(
        matches!(oob, SimError::Address(ref e) if e.indices == [9]),
        "{oob}"
    );
    let mut undeclared = AddressMap::new(Order::ColMajor, 8);
    undeclared.declare("a", &[8]);
    let e = check_streamed("undeclared", &copy, &[("n", 4)], &undeclared, SMALL).unwrap_err();
    assert!(e.to_string().contains('b'), "{e}");
    let rank = parse_nest("do i = 1, n\n b(i, i) = a(i)\nenddo").unwrap();
    check_streamed("rank", &rank, &[("n", 4)], &map, SMALL).unwrap_err();
    let step = parse_nest("do i = 1, 8, s\n b(i) = a(i)\nenddo").unwrap();
    check_streamed("zero step", &step, &[("s", 0)], &map, SMALL).unwrap_err();
    // A loop index shadowing a parameter leaves it unbound once the loop
    // ends, so the second `i` iteration cannot evaluate `j`'s bound (the
    // parser rejects such a bound; the IR does not).
    let j = Expr::var("j");
    let shadow = LoopNest::new(
        vec![
            Loop::new("i", Expr::int(1), Expr::int(2)),
            Loop::new("j", Expr::int(1), j.clone()),
        ],
        vec![Stmt::array("b", vec![j.clone()], Expr::read("a", vec![j]))],
    );
    check_streamed("shadowed parameter", &shadow, &[("j", 3)], &map, SMALL).unwrap_err();
    let operand = parse_nest("do i = 1, n\n b(i) = a(i) + q\nenddo").unwrap();
    check_streamed("unbound operand", &operand, &[("n", 8)], &map, SMALL).unwrap_err();
    let div = parse_nest("do i = 1, n\n b(i) = a(i) / (i - 3)\nenddo").unwrap();
    check_streamed("division by zero", &div, &[("n", 8)], &map, SMALL).unwrap_err();
    // An execution error after an out-of-bounds access: the interpreter
    // executes the whole nest before addressing it, so the execution
    // error wins.
    let late = parse_nest("do i = 1, n\n b(i + 7) = a(i) / (i - 3)\nenddo").unwrap();
    let e = check_streamed("late exec error", &late, &[("n", 8)], &map, SMALL).unwrap_err();
    assert!(matches!(e, SimError::Exec(_)), "{e}");
}

#[test]
fn innermost_kernel_matches_the_reference() {
    // Innermost bodies of array stores and scalar assignments over affine
    // subscripts run as a strength-reduced kernel; each case pins one
    // edge of it or of its fallback to the walker.
    let params = [("n", 8)];
    for (label, src) in [
        (
            "negative inner step",
            "do i = 1, n\n do j = n, 1, -1\n  b(i, j) = a(j, i)\n enddo\nenddo",
        ),
        (
            "negative symbolic step",
            "do i = 1, n\n do j = n, 1, -s\n  b(j, i) = a(i, j)\n enddo\nenddo",
        ),
        (
            "partly empty inner ranges",
            "do i = 1, n\n do j = i, 5\n  b(i, j) = a(i, j)\n enddo\nenddo",
        ),
        (
            "skewed subscripts",
            "do i = 1, n\n do j = 1, n\n  b(i, 2*j - i) = a(2*i - j, -j) + a(i, -1*j + 2*i)\n enddo\nenddo",
        ),
        (
            "two statements",
            "do i = 1, n\n do j = 1, n\n  b(i, j) = a(i, j)\n  a(j, i) = b(i, j) + a(j, i)\n enddo\nenddo",
        ),
        (
            "triangular inner range",
            "do j = 1, n\n do i = j, n\n  b(i, j) = a(i + j, 2*j)\n enddo\nenddo",
        ),
        // Scalar temporaries, as code generation emits them, are
        // substituted into the subscripts after them.
        (
            "skew temporaries",
            "do i = 1, n\n do jj = i + 1, n + i\n  j = jj - i\n  t = 2*j\n  b(i, t - j) = a(j, i)\n enddo\nenddo",
        ),
        (
            "temporary read before it is assigned",
            "do i = 1, n\n do j = 1, n\n  b(i, t) = a(i, j)\n  t = j\n enddo\nenddo",
        ),
        (
            "temporary assigned from itself",
            "do i = 1, n\n do j = 1, n\n  t = t + 1\n  b(i, t) = a(i, j)\n enddo\nenddo",
        ),
        (
            "temporary that outlives the loop",
            "do i = 1, n\n do j = 1, t\n  t = j + 1\n  b(i, j) = a(i, t)\n enddo\nenddo",
        ),
        (
            "temporary shadowing the outer index",
            "do i = 1, n\n do j = i, n\n  i = j - 1\n  b(i, j) = a(j, i)\n enddo\nenddo",
        ),
        (
            "reassigned temporary",
            "do i = 1, n\n do j = 1, n\n  t = j\n  t = n + 1 - t\n  b(i, t) = a(i, j)\n enddo\nenddo",
        ),
        (
            "inner index reassigned",
            "do i = 1, n\n do j = 1, n\n  j = i + 1\n  b(i, j) = a(j, i)\n enddo\nenddo",
        ),
        (
            "inner index incremented",
            "do i = 1, n\n do j = 1, n, 2\n  j = j + 1\n  b(i, j) = a(j, i)\n enddo\nenddo",
        ),
    ] {
        let nest = parse_nest(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        let params = [params[0], ("s", 3), ("t", 2)];
        check_covered(label, &nest, &params);
    }

    let map = square_map(8, &["a", "b"]);
    // An inner range that is empty on every entry never evaluates its
    // subscripts, so an unbound one is no error.
    let empty =
        parse_nest("do i = 1, n\n do j = n + 1, n\n  b(i, q) = a(i, j)\n enddo\nenddo").unwrap();
    let r = check_streamed("empty inner range", &empty, &params, &map, SMALL).unwrap();
    assert_eq!(r.iterations, 0);
    // Only the last iteration of each inner range is out of bounds: the
    // walker runs the entry and the reference names the error.
    let last =
        parse_nest("do i = 1, n\n do j = 1, n + 1\n  b(i, j) = a(i, j)\n enddo\nenddo").unwrap();
    let e =
        check_streamed("last iteration out of bounds", &last, &params, &map, SMALL).unwrap_err();
    assert!(
        matches!(e, SimError::Address(ref e) if e.indices == [1, 9]),
        "{e}"
    );
    let first = parse_nest("do i = 1, n\n do j = n + 1, 1, -1\n  b(i, j) = a(i, j)\n enddo\nenddo")
        .unwrap();
    check_streamed(
        "first iteration out of bounds",
        &first,
        &params,
        &map,
        SMALL,
    )
    .unwrap_err();
    let unbound =
        parse_nest("do i = 1, n\n do j = 1, n\n  b(i, j + q) = a(i, j)\n enddo\nenddo").unwrap();
    check_streamed("unbound subscript", &unbound, &params, &map, SMALL).unwrap_err();
    // `q - q` is 0, but evaluating it still needs `q`.
    let cancelled =
        parse_nest("do i = 1, n\n do j = 1, n\n  b(i, j + q - q) = a(i, j)\n enddo\nenddo")
            .unwrap();
    check_streamed("cancelled unbound term", &cancelled, &params, &map, SMALL).unwrap_err();
    let unused =
        parse_nest("do i = 1, n\n do j = 1, n\n  t = q\n  b(i, j) = a(i, j)\n enddo\nenddo")
            .unwrap();
    check_streamed("unbound temporary", &unused, &params, &map, SMALL).unwrap_err();

    // Subscripts that overflow i64 at an endpoint. `i + (MAX - 2)` is in
    // bounds until it wraps at the last iteration; `i × 2⁶³` wraps to 0
    // at both endpoints `i = 0` and `i = 2`, but to i64::MIN in between.
    let (i, k) = (Expr::var("i"), Expr::var("k"));
    let outer = || Loop::new("k", Expr::int(1), Expr::int(2));
    let store = |sub: Expr| {
        vec![Stmt::array(
            "b",
            vec![k.clone()],
            Expr::read("a", vec![sub]),
        )]
    };
    let edge_map = |origin: i64, extent: u64| {
        let mut map = AddressMap::new(Order::ColMajor, 8);
        map.declare("b", &[2])
            .declare_with_origin("a", &[extent], &[origin]);
        map
    };
    let wraps_last = LoopNest::new(
        vec![outer(), Loop::new("i", Expr::int(1), Expr::int(3))],
        store(Expr::add(i.clone(), Expr::int(i64::MAX - 2))),
    );
    let map = edge_map(i64::MAX - 1, 2);
    let e = check_streamed(
        "overflow at the last iteration",
        &wraps_last,
        &[],
        &map,
        SMALL,
    )
    .unwrap_err();
    assert!(
        matches!(e, SimError::Address(ref e) if e.indices == [i64::MIN]),
        "{e}"
    );
    let two_62 = Expr::int(1 << 62);
    let wraps_twice = LoopNest::new(
        vec![outer(), Loop::new("i", Expr::int(0), Expr::int(2))],
        store(Expr::mul(Expr::mul(i.clone(), two_62), Expr::int(2))),
    );
    let map = edge_map(0, 1);
    let e =
        check_streamed("overflow at both endpoints", &wraps_twice, &[], &map, SMALL).unwrap_err();
    assert!(
        matches!(e, SimError::Address(ref e) if e.indices == [i64::MIN]),
        "{e}"
    );

    // The 10 M-iteration cap counts every kernel iteration: 3334 entries
    // of 3000 iterations cross it in the middle of the last entry. An
    // empty body keeps the reference's trace empty.
    let capped = LoopNest::new(
        vec![
            Loop::new("i", Expr::int(1), Expr::int(3334)),
            Loop::new("j", Expr::int(1), Expr::int(3000)),
        ],
        Vec::new(),
    );
    let e = check_streamed("iteration cap", &capped, &[], &map, SMALL).unwrap_err();
    assert!(e.to_string().contains("iteration cap"), "{e}");
}

/// The 64-byte lines `nest` touches, from its address stream.
fn line_set(nest: &LoopNest, params: &[(&str, i64)], map: &AddressMap) -> BTreeSet<u64> {
    let mut lines = BTreeSet::new();
    stream_addresses(nest, params, map, |addr| {
        lines.insert(addr / 64);
    })
    .unwrap_or_else(|e| panic!("{e}\n{nest}"));
    lines
}

#[test]
fn legal_reorderings_touch_exactly_the_roots_lines() {
    // Every one- and two-step locality sequence the legality test accepts,
    // on the locality kernels and on random nests (triangular bounds,
    // steps of ±1 and ±2), touches exactly the lines the original does,
    // and `lines_touched` counts them.
    // `(label, nest, n, map)`; random nests have constant bounds.
    let mut cases: Vec<(String, LoopNest, i64, AddressMap)> = vec![
        (
            "copy".into(),
            parse_nest(COPY).unwrap(),
            12,
            square_map(12, &["a", "b"]),
        ),
        (
            "wavefront".into(),
            parse_nest(WAVEFRONT).unwrap(),
            12,
            square_map(12, &["a"]),
        ),
        (
            "matmul".into(),
            parse_nest(MATMUL).unwrap(),
            5,
            square_map(5, &["A", "B", "C"]),
        ),
    ];
    let mut rng = Rng::new(0x25);
    let (mut triangular, mut strided) = (0, 0);
    for k in 0..40 {
        let nest = gen_nest(&mut rng, 2 + k % 2);
        let loops = nest.loops();
        triangular += usize::from(loops.iter().any(|l| matches!(l.upper, Expr::Var(_))));
        strided += usize::from(loops.iter().any(|l| !matches!(l.step, Expr::Const(1 | -1))));
        let map = covering_map(&nest, &[]);
        cases.push((format!("gen_nest #{k}"), nest, 0, map));
    }
    assert!(triangular > 0 && strided > 0, "{triangular} {strided}");

    let catalog = MoveCatalog::locality();
    let mut checked = 0;
    for (label, nest, n, map) in &cases {
        let params = &[("n", *n)];
        let want = line_set(nest, params, map);
        assert_eq!(
            lines_touched(nest, params, map, 64).unwrap(),
            want.len() as u64,
            "{label}"
        );
        let deps = analyze_dependences(nest);
        let mut frontier = vec![SeqState::root(nest, &deps)];
        for _ in 0..2 {
            let mut next = Vec::new();
            for state in &frontier {
                for t in catalog.moves(state.shape().depth()) {
                    let Ok(child) = state.extend(&t) else {
                        continue;
                    };
                    let seq = child.seq();
                    let out = seq
                        .apply(nest)
                        .unwrap_or_else(|e| panic!("{label}: {seq} generates: {e}"));
                    assert!(
                        line_set(&out, params, map) == want,
                        "{label}: {seq} touches other lines\n{nest}\n{out}"
                    );
                    checked += 1;
                    next.push(child);
                }
            }
            frontier = next;
        }
    }
    assert!(checked > 1000, "only {checked} sequences");
}
