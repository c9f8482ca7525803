//! Historical counterexamples, migrated from the retired
//! `tests/properties.proptest-regressions` file into explicit
//! constructions (proptest's `cc` hashes cannot be replayed through the
//! in-tree harness, so the shrunk values recorded in that file are
//! rebuilt verbatim here).
//!
//! Each case once violated the legal ⇒ equivalent contract and was
//! fixed; these tests keep the exact (nest, sequence, seed) triples
//! covered forever, independent of the random corpus. All three are
//! checked through the same oracle the differential fuzzer uses:
//! `irlt_harness::diff::check_pair`.

use irlt::prelude::*;
use irlt_harness::diff::check_pair;

/// The oracle must hold on a historical counterexample: either the
/// legality test now rejects the sequence (fine — that is one way the
/// original bug was fixed) or it accepts it and the differential
/// execution must agree. What it may never do again is accept an
/// inequivalent sequence.
fn assert_contract(nest: &LoopNest, seq: &TransformSeq, seed: u64) {
    match check_pair(nest, seq, seed) {
        Ok(Some(_)) => eprintln!("historical case verified by execution (seed {seed})"),
        Ok(None) => eprintln!("historical case rejected by legality test (seed {seed})"),
        Err(msg) => panic!("historical counterexample re-broke:\n{msg}"),
    }
}

/// proptest-regressions case 1 (shrink of seed 461): reverse the inner
/// loop via ReversePermute, then again via a unimodular reversal, on a
/// nest whose statement read-modifies a single shared cell `A(0)`.
#[test]
fn reverse_twice_on_shared_cell() {
    let nest = LoopNest::new(
        vec![
            Loop::new("i", Expr::int(1), Expr::int(3)),
            Loop::new("j", Expr::int(1), Expr::int(3)),
        ],
        vec![Stmt::array(
            "A",
            vec![Expr::int(0)],
            Expr::read("A", vec![Expr::int(0)]) + Expr::read("B", vec![Expr::int(0)]),
        )],
    );
    let mut rev = IntMatrix::identity(2);
    rev[(1, 1)] = -1;
    let seq = TransformSeq::new(2)
        .reverse_permute(vec![false, true], vec![0, 1])
        .unwrap()
        .unimodular(IntMatrix::identity(2))
        .unwrap()
        .unimodular(rev)
        .unwrap();
    assert_contract(&nest, &seq, 461);
}

/// proptest-regressions case 2 (shrink of seed 132): block the
/// innermost loop of a 3-nest, coalesce the top three of the resulting
/// four, then block the middle of the remaining two.
#[test]
fn block_coalesce_block_chain() {
    let nest = LoopNest::new(
        vec![
            Loop::new("i", Expr::int(1), Expr::int(3)),
            Loop::new("j", Expr::int(1), Expr::int(3)),
            Loop::new("k", Expr::int(1), Expr::int(4)),
        ],
        vec![Stmt::array(
            "A",
            vec![Expr::int(0)],
            Expr::read("A", vec![Expr::int(0)]) + Expr::read("B", vec![Expr::int(0)]),
        )],
    );
    let seq = TransformSeq::new(3)
        .block(2, 2, vec![Expr::int(3)])
        .unwrap()
        .coalesce(0, 2)
        .unwrap()
        .block(1, 1, vec![Expr::int(2)])
        .unwrap();
    assert_contract(&nest, &seq, 132);
}

/// proptest-regressions case 3 (shrink of seed 725): a descending
/// strided outer loop (`do i = 3, 1, -2`), blocked across both levels,
/// then block-loop reversals via a diag(1,−1,1,−1) unimodular step.
#[test]
fn descending_stride_block_reversal() {
    let nest = LoopNest::new(
        vec![
            Loop::new("i", Expr::int(3), Expr::int(1)).with_step(Expr::int(-2)),
            Loop::new("j", Expr::int(1), Expr::int(3)),
        ],
        vec![Stmt::array(
            "A",
            vec![Expr::mul(Expr::int(2), Expr::var("j"))],
            Expr::read("A", vec![Expr::mul(Expr::int(2), Expr::var("j"))])
                + Expr::read("B", vec![Expr::int(0)]),
        )],
    );
    let mut m = IntMatrix::identity(4);
    m[(1, 1)] = -1;
    m[(3, 3)] = -1;
    let seq = TransformSeq::new(2)
        .block(0, 1, vec![Expr::int(2), Expr::int(2)])
        .unwrap()
        .unimodular(m)
        .unwrap();
    assert_contract(&nest, &seq, 725);
}

/// The three historical cases again, under extra execution seeds — the
/// recorded seed caught the original bug, but the contract is
/// seed-universal.
#[test]
fn historical_cases_hold_across_seeds() {
    for seed in [0u64, 1, 99, 461, 132, 725] {
        let nest = LoopNest::new(
            vec![
                Loop::new("i", Expr::int(1), Expr::int(3)),
                Loop::new("j", Expr::int(1), Expr::int(3)),
            ],
            vec![Stmt::array(
                "A",
                vec![Expr::int(0)],
                Expr::read("A", vec![Expr::int(0)]) + Expr::read("B", vec![Expr::int(0)]),
            )],
        );
        let mut rev = IntMatrix::identity(2);
        rev[(1, 1)] = -1;
        let seq = TransformSeq::new(2)
            .reverse_permute(vec![false, true], vec![0, 1])
            .unwrap()
            .unimodular(rev)
            .unwrap();
        assert_contract(&nest, &seq, seed);
    }
}

/// Cross-engine oracle corpus replay: every seed persisted under
/// `tests/corpus/cross_engine.seeds` is re-run ahead of a handful of
/// novel cases, so any disagreement the standing fuzz battery ever
/// finds stays covered forever.
#[test]
fn cross_engine_corpus_replays() {
    use irlt_harness::prop::{corpus_dir_for, Config};
    let cfg = Config {
        corpus_dir: corpus_dir_for(env!("CARGO_MANIFEST_DIR")),
        ..Config::with_cases(32)
    };
    let tel = Telemetry::disabled();
    let report = irlt_harness::run_cross_engine(&cfg, &tel);
    assert_eq!(
        report.agree + report.conservative + report.skipped,
        report.cases,
        "unclassified oracle cases: {report}"
    );
}

/// The documented one-way gap between the engines, pinned exactly:
/// under Θ = reversal(1)·skew(x'₀ = x₀ + x₁) the mapped direction of
/// d = (0⁺, 0⁺) is (0⁺, 0⁻), which Table 2's elementwise rules must
/// reject — but the violation polytope {δ₁+δ₂ = 0, δ ≥ 0, δ ≠ 0} is
/// empty, so the affine engine proves the sequence legal. The oracle
/// classifies this as `Conservative`, never as a mismatch.
#[test]
fn table2_conservatism_on_skewed_unimodular_is_documented() {
    let nest = LoopNest::new(
        vec![
            Loop::new("i", Expr::int(0), Expr::int(9)),
            Loop::new("j", Expr::int(0), Expr::int(9)),
        ],
        vec![Stmt::array("A", vec![Expr::var("i")], Expr::var("j"))],
    );
    let deps = DepSet::from_vectors(vec![DepVector::new(vec![
        DepElem::Dir(Dir::NonNeg),
        DepElem::Dir(Dir::NonNeg),
    ])])
    .unwrap();
    let seq = TransformSeq::new(2)
        .unimodular(IntMatrix::skew(2, 1, 0, 1))
        .unwrap()
        .unimodular(IntMatrix::reversal(2, 1))
        .unwrap();

    // Table 2 is conservative here…
    assert!(!seq.map_deps(&deps).is_legal());
    // …the affine engine is exact and proves legality…
    let report = check_sequence(&nest, &deps, &seq, &AffineOptions::default());
    assert_eq!(report.verdict, OracleVerdict::Legal);
    assert_eq!(report.domain, CompareDomain::OneWay);
    // …and the oracle files the gap as Conservative, not Mismatch.
    let outcome = cross_check(report.domain, false, report.verdict);
    assert_eq!(outcome, CrossCheckOutcome::Conservative);
    let tel = Telemetry::disabled();
    let (outcome, verdict) =
        irlt_harness::cross_check_case(&irlt_harness::OracleCase { nest, deps, seq }, &tel)
            .expect("a documented one-way gap must not be a protocol violation");
    assert_eq!(outcome, CrossCheckOutcome::Conservative);
    assert_eq!(verdict, OracleVerdict::Legal);
}

/// Valid `.nest` text whose constants sit near the `i64` limit: a
/// two-step default-catalog search once panicked a debug build in
/// `Expr::simplify` (`attempt to multiply with overflow`) while
/// normalizing the inner loop's origin. Simplification now returns an
/// expression it cannot fold in `i64` unfolded, with the same value.
#[test]
fn search_survives_bounds_near_the_i64_limit() {
    let nest = parse_nest(
        "do i = -9223372036854775807, n, 3\n do j = i, n, 5\n  a(i, j) = 0\n enddo\nenddo",
    )
    .unwrap();
    let deps = analyze_dependences(&nest);
    let cfg = SearchConfig {
        max_steps: 2,
        ..SearchConfig::default()
    };
    let r = search(&nest, &deps, &Goal::OuterParallel, &cfg);
    assert_eq!((r.explored, r.legal), (180, 100), "{r}");
}
