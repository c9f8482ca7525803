//! Property-based tests (irlt-harness) over randomly generated nests,
//! expressions, and transformation sequences.
//!
//! The headline property is the framework's whole contract: **any
//! sequence the legality test accepts produces an executably equivalent
//! nest**, under every exercised `pardo` order. It runs through the
//! harness's differential equivalence fuzzer with ≥ 200 cases in the
//! default test run; failing seeds persist to `tests/corpus/` and are
//! replayed before any novel case on later runs.

use irlt::core::IllegalReason;
use irlt::prelude::*;
use irlt_harness::diff::shrink_oracle_case;
use irlt_harness::gen::{
    gen_dep_set, gen_exact_sequence, gen_nest, gen_pair, gen_sequence, gen_template,
    gen_unimodular, shrink_pair,
};
use irlt_harness::prop::{check, corpus_dir_for, CaseResult, Config};
use irlt_harness::{cross_check_case, diff, prop_assert, prop_assert_eq, prop_assume, OracleCase};

/// A [`Config`] whose corpus directory is anchored to this crate's
/// *compile-time* manifest path, so `tests/corpus/` seed replay works
/// from the workspace root, from a crate directory, or when the test
/// binary is invoked outside cargo entirely.
fn corpus_cfg(cases: u32) -> Config {
    Config {
        corpus_dir: corpus_dir_for(env!("CARGO_MANIFEST_DIR")),
        ..Config::with_cases(cases)
    }
}

/// Regression: corpus resolution must be absolute-path based (never the
/// working directory) and must survive a missing runtime
/// `CARGO_MANIFEST_DIR` via the compile-time fallback.
#[test]
fn corpus_dir_resolves_from_any_invocation_point() {
    let dir = corpus_dir_for(env!("CARGO_MANIFEST_DIR"))
        .expect("this crate ships tests/corpus with persisted seeds");
    assert!(dir.is_absolute(), "{}", dir.display());
    assert!(dir.ends_with("tests/corpus"), "{}", dir.display());
    assert!(
        dir.join("legal_equivalence.seeds").is_file(),
        "seed file missing under {}",
        dir.display()
    );
    assert_eq!(corpus_cfg(1).corpus_dir.as_deref(), Some(dir.as_path()));
}

/// THE framework contract: legal ⇒ equivalent execution. The fuzzer
/// panics with a shrunk counterexample and replay seed on violation.
#[test]
fn legal_sequences_execute_equivalently() {
    let report = diff::run(&corpus_cfg(256));
    // The ≥200-case floor binds the *default* run; an explicit
    // IRLT_FUZZ_CASES override (e.g. a quick dev iteration at 10 cases)
    // is an intentional choice and may go below it.
    if std::env::var_os("IRLT_FUZZ_CASES").is_none() {
        assert!(
            report.cases >= 200,
            "differential fuzzer under-ran: {report}"
        );
        // Statistical, so only meaningful at full size: a tiny overridden
        // run can legitimately draw mostly-illegal sequences.
        assert!(
            report.legal * 10 >= report.cases,
            "legality test suspiciously strict (<10% legal): {report}"
        );
    }
    eprintln!("differential fuzzer: {report}");
}

/// Simplification preserves value.
#[test]
fn simplify_preserves_value() {
    check(
        "simplify_preserves_value",
        &corpus_cfg(64),
        |rng| {
            let coeffs: Vec<i64> = (0..6).map(|_| rng.gen_range(-3..=3i64)).collect();
            let env: Vec<i64> = (0..3).map(|_| rng.gen_range(-10..=10i64)).collect();
            (coeffs, env)
        },
        |_| Vec::new(),
        |(coeffs, env)| {
            let vars = ["x", "y", "z"];
            // Build a messy expression: Σ c2k·v_k + c(2k+1)·(v_k − 1) …
            let mut e = Expr::int(coeffs[0]);
            for k in 0..3 {
                e = Expr::sub(e, Expr::mul(Expr::int(coeffs[k]), Expr::var(vars[k])));
                e = Expr::add(
                    e,
                    Expr::mul(
                        Expr::int(coeffs[k + 3]),
                        Expr::sub(Expr::var(vars[k]), Expr::int(1)),
                    ),
                );
            }
            let lookup = |s: &Symbol| vars.iter().position(|v| s == v).map(|p| env[p]);
            let nf = |_: &Symbol, _: &[i64]| None;
            let before = e.eval_scalar(&lookup, &nf).unwrap();
            let after = e.simplify().eval_scalar(&lookup, &nf).unwrap();
            prop_assert_eq!(before, after);
            CaseResult::Pass
        },
    );
}

/// Pretty-print → parse is the identity on generated nests.
#[test]
fn pretty_parse_roundtrip() {
    check(
        "pretty_parse_roundtrip",
        &corpus_cfg(64),
        |rng| {
            let depth = rng.gen_range(1..=3usize);
            gen_nest(rng, depth)
        },
        |_| Vec::new(),
        |nest| {
            let printed = nest.to_string();
            let reparsed = parse_nest(&printed).expect("printed nests reparse");
            prop_assert_eq!(nest, &reparsed);
            prop_assert_eq!(printed, reparsed.to_string());
            CaseResult::Pass
        },
    );
}

/// Fusing a sequence never changes how *distance* vectors map.
#[test]
fn fusion_preserves_distance_mapping() {
    check(
        "fusion_preserves_distance_mapping",
        &corpus_cfg(64),
        |rng| {
            let d: Vec<i64> = (0..2).map(|_| rng.gen_range(-3..=3i64)).collect();
            let skew = rng.gen_range(-2..=2i64);
            (d, skew)
        },
        |_| Vec::new(),
        |(d, skew)| {
            let seq = TransformSeq::new(2)
                .unimodular(IntMatrix::skew(2, 0, 1, *skew))
                .unwrap()
                .unimodular(IntMatrix::interchange(2, 0, 1))
                .unwrap()
                .unimodular(IntMatrix::reversal(2, 1))
                .unwrap();
            let fused = seq.fuse();
            prop_assert_eq!(fused.len(), 1);
            let input = DepSet::from_vectors(vec![DepVector::distances(d)]).unwrap();
            prop_assert_eq!(seq.map_deps(&input), fused.map_deps(&input));
            CaseResult::Pass
        },
    );
}

/// Unimodular dependence mapping is sound on sampled tuples: if
/// `t ∈ Tuples(d)` then `M·t ∈ Tuples(M(d))`.
#[test]
fn unimodular_depmap_soundness() {
    use irlt::dependence::{DepElem, Dir};
    let palette = [
        DepElem::Dist(-1),
        DepElem::ZERO,
        DepElem::Dist(2),
        DepElem::POS,
        DepElem::NEG,
        DepElem::Dir(Dir::NonNeg),
        DepElem::Dir(Dir::NonPos),
        DepElem::Dir(Dir::NonZero),
        DepElem::ANY,
    ];
    check(
        "unimodular_depmap_soundness",
        &corpus_cfg(64),
        |rng| {
            let elems: Vec<usize> = (0..3).map(|_| rng.gen_range(0..9usize)).collect();
            let tuple: Vec<i64> = (0..3).map(|_| rng.gen_range(-3..=3i64)).collect();
            let skew = rng.gen_range(-2..=2i64);
            let swap = rng.gen_range(0..3usize);
            (elems, tuple, skew, swap)
        },
        |_| Vec::new(),
        |(elems, tuple, skew, swap)| {
            let d = DepVector::new(elems.iter().map(|&k| palette[k]).collect());
            prop_assume!(d.contains_tuple(tuple));
            let m = IntMatrix::skew(3, 0, 2, *skew).mul(&IntMatrix::interchange(
                3,
                *swap,
                (*swap + 1) % 3,
            ));
            let mapped = irlt::unimodular::map_dep_vector(&m, &d);
            let mt = m.mul_vec(tuple);
            prop_assert!(
                mapped.iter().any(|v| v.contains_tuple(&mt)),
                "lost {tuple:?} -> {mt:?} through {m}"
            );
            CaseResult::Pass
        },
    );
}

/// Random unimodular products stay unimodular and invert exactly.
#[test]
fn unimodular_products_invert() {
    check(
        "unimodular_products_invert",
        &corpus_cfg(64),
        |rng| gen_unimodular(rng, 4, 5),
        |_| Vec::new(),
        |m| {
            prop_assert!(m.is_unimodular());
            let inv = m.inverse().expect("unimodular inverts");
            prop_assert_eq!(m.mul(&inv), IntMatrix::identity(4));
            CaseResult::Pass
        },
    );
}

/// `DepElem::merge` is a least upper bound on sampled values, and
/// `reverse` is a set-level involution.
#[test]
fn dep_elem_lattice_laws() {
    use irlt::dependence::{DepElem, Dir};
    let palette = [
        DepElem::Dist(-1),
        DepElem::ZERO,
        DepElem::Dist(2),
        DepElem::POS,
        DepElem::NEG,
        DepElem::Dir(Dir::NonNeg),
        DepElem::Dir(Dir::NonPos),
        DepElem::Dir(Dir::NonZero),
        DepElem::ANY,
    ];
    check(
        "dep_elem_lattice_laws",
        &corpus_cfg(64),
        |rng| {
            (
                rng.gen_range(0..9usize),
                rng.gen_range(0..9usize),
                rng.gen_range(-5..=5i64),
            )
        },
        |_| Vec::new(),
        |&(a, b, x)| {
            let (ea, eb) = (palette[a], palette[b]);
            let m = ea.merge(eb);
            prop_assert!(!(ea.contains(x) || eb.contains(x)) || m.contains(x));
            prop_assert_eq!(ea.reverse().contains(x), ea.contains(-x));
            prop_assert_eq!(ea.reverse().reverse(), ea);
            CaseResult::Pass
        },
    );
}

/// The parser is total: arbitrary input returns a Result (never
/// panics), and error positions are within the input.
#[test]
fn parser_never_panics() {
    check(
        "parser_never_panics",
        &corpus_cfg(64),
        |rng| {
            // Printable ASCII + newlines, 0–200 chars.
            let len = rng.gen_range(0..=200usize);
            (0..len)
                .map(|_| {
                    if rng.gen_bool(0.05) {
                        '\n'
                    } else {
                        char::from(rng.gen_range(0x20..=0x7ei64) as u8)
                    }
                })
                .collect::<String>()
        },
        |input| {
            // Shrink by halving the string.
            let mut c = Vec::new();
            if input.len() > 1 {
                c.push(input[..input.len() / 2].to_string());
                c.push(input[input.len() / 2..].to_string());
            }
            c
        },
        |input| {
            match parse_nest(input) {
                Ok(nest) => {
                    // Anything accepted must round-trip.
                    let printed = nest.to_string();
                    prop_assert_eq!(parse_nest(&printed).unwrap(), nest);
                }
                Err(e) => {
                    prop_assert!(e.line >= 1, "error line {} out of range", e.line);
                }
            }
            let _ = parse_expr(input);
            CaseResult::Pass
        },
    );
}

/// Script serialization round-trips every generated sequence.
#[test]
fn script_roundtrip() {
    check(
        "script_roundtrip",
        &corpus_cfg(64),
        |rng| {
            let n = rng.gen_range(1..=3usize);
            gen_sequence(rng, n)
        },
        |_| Vec::new(),
        |seq| {
            let script = seq.to_script().expect("builtin sequences serialize");
            let back = TransformSeq::from_script(&script).expect("scripts reparse");
            prop_assert_eq!(back.to_script().unwrap(), script);
            prop_assert_eq!(back.len(), seq.len());
            prop_assert_eq!(back.output_size(), seq.output_size());
            // Same dependence behaviour.
            let deps = DepSet::from_distances(&[&vec![1; seq.input_size()][..]]);
            prop_assert_eq!(seq.map_deps(&deps), back.map_deps(&deps));
            CaseResult::Pass
        },
    );
}

/// The verdict of an extension attempt, for comparing `admits` with
/// `extend`: `None` when legal, else the whole error (kind, step, error
/// and witness).
fn verdict_of<T>(r: &Result<T, ExtendError>) -> Option<String> {
    r.as_ref().err().map(|e| format!("{e:?}"))
}

/// A nest `Unimodular` code generation cannot normalize, with a sequence
/// that reaches a `Unimodular` step on it or on a shape made from it.
/// One loop has a `max`/`min` origin and step ±2 or ±3, the rest run
/// `1, m`, and the body reads `a` at small offsets. The sequence is an
/// optional `Block` or `ReversePermute`, a `Unimodular` step, and an
/// optional random step. `gen_nest` never builds such an origin.
fn gen_unnormalizable_pair(rng: &mut irlt_harness::Rng) -> (LoopNest, TransformSeq) {
    let depth = rng.gen_range(1..=3usize);
    let names = ["i", "j", "k"];
    let odd = rng.index(depth);
    let step = *rng.choose(&[2i64, 3]).expect("nonempty");
    let mut text = String::new();
    for (lvl, v) in names.iter().take(depth).enumerate() {
        let bounds = match (lvl == odd, rng.gen_bool(0.5)) {
            (true, true) => format!("max(1, p), n, {step}"),
            (true, false) => format!("min(n, p), 1, -{step}"),
            (false, _) => "1, m".to_string(),
        };
        text += &format!("do {v} = {bounds}\n");
    }
    let subs = |rng: &mut irlt_harness::Rng| -> String {
        names
            .iter()
            .take(depth)
            .map(|v| format!("{v} + {}", rng.gen_range(-2..=2i64)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let (w, r) = (subs(rng), subs(rng));
    text += &format!("a({w}) = a({r}) + 1\n");
    text += &"enddo\n".repeat(depth);
    let nest = parse_nest(&text).expect("generated nests parse");
    let mut seq = TransformSeq::new(depth);
    let first = match rng.index(3) {
        0 => None,
        1 => {
            let (a, b) = (rng.index(depth), rng.index(depth));
            let (i, j) = (a.min(b), a.max(b));
            Some(Template::block(depth, i, j, vec![Expr::int(2); j - i + 1]).expect("valid range"))
        }
        _ => {
            let rev = (0..depth).map(|_| rng.gen_bool(0.5)).collect();
            Some(Template::reverse_permute(rev, rng.permutation(depth)).expect("valid"))
        }
    };
    if let Some(t) = first {
        seq = seq.push(t).expect("chains on the nest");
    }
    let n = seq.output_size();
    let m = Template::unimodular(gen_unimodular(rng, n, 2)).expect("unimodular");
    seq = seq.push(m).expect("chains");
    if rng.gen_bool(0.5) {
        let t = gen_template(rng, seq.output_size());
        seq = seq.push(t).expect("chains");
    }
    (nest, seq)
}

/// The incremental legality engine (`SeqState`) agrees with the
/// from-scratch `TransformSeq::is_legal` path on every prefix of a random
/// sequence grown extension-by-extension: same verdict at each step, and
/// a cached set holding exactly the members (same length, same vectors)
/// of the from-scratch mapped set after subsumption pruning.
///
/// The verdict-only `SeqState::admits` reports exactly what `extend`
/// reports at every step: without a cache, and through a cache in both
/// orders. `admits` then `extend` must leave an entry that answers
/// `extend` probes (the `admits` entry was replaced), and `extend` then
/// `admits` must answer `admits` from `extend`'s entry (a hit, no miss).
///
/// A quarter of the cases come from [`gen_unnormalizable_pair`], so
/// `Unimodular` steps meet shapes that fail normalization, directly and
/// after a `Block` or `ReversePermute`: there `extend` must report the
/// `CodeGen` rejection `is_legal` reports, and `admits` must too.
#[test]
fn incremental_matches_scratch() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    // `Unimodular` steps rejected in code generation, which after their
    // preconditions means in normalization.
    let unnormalized = AtomicUsize::new(0);
    check(
        "incremental_matches_scratch",
        &corpus_cfg(250),
        |rng| {
            if rng.index(4) == 0 {
                return gen_unnormalizable_pair(rng);
            }
            let depth = rng.gen_range(1..=3usize);
            gen_pair(rng, depth)
        },
        shrink_pair,
        |(nest, seq)| {
            let deps = analyze_dependences(nest);
            let mut state = SeqState::root(nest, &deps);
            let (admits_first, extend_first) =
                (SharedLegalityCache::new(), SharedLegalityCache::new());
            let mut a = SeqState::root(nest, &deps).with_shared(admits_first, 1);
            let mut b = SeqState::root(nest, &deps).with_shared(extend_first.clone(), 1);
            let mut prefix = TransformSeq::new(nest.depth());
            for step in seq.steps() {
                let irlt::core::Step::Builtin(t) = step else {
                    unreachable!("generated sequences are builtin-only")
                };
                prefix = prefix.push(t.clone()).expect("generated sequences chain");
                let scratch = prefix.is_legal(nest, &deps);
                let extended = state.extend(t);
                let want = verdict_of(&extended);
                prop_assert_eq!(verdict_of(&state.admits(t)), want);
                // Through a cache, `admits` first…
                prop_assert_eq!(verdict_of(&a.admits(t)), want);
                let a_next = a.extend(t);
                prop_assert_eq!(verdict_of(&a_next), want);
                prop_assert_eq!(a.shared_probe(t), Some(true));
                // …and `extend` first.
                let b_next = b.extend(t);
                prop_assert_eq!(verdict_of(&b_next), want);
                let before = extend_first.stats();
                prop_assert_eq!(verdict_of(&b.admits(t)), want);
                let after = extend_first.stats();
                prop_assert_eq!((after.hits, after.misses), (before.hits + 1, before.misses));
                if let (Ok(x), Ok(y), Ok(z)) = (&extended, &a_next, &b_next) {
                    prop_assert_eq!(x.shape(), y.shape());
                    prop_assert_eq!(x.shape(), z.shape());
                    prop_assert_eq!(x.mapped_deps(), y.mapped_deps());
                    prop_assert_eq!(x.mapped_deps(), z.mapped_deps());
                    a = y.clone();
                    b = z.clone();
                }
                match extended {
                    Ok(next) => {
                        prop_assert!(
                            scratch.is_legal(),
                            "incremental accepted a prefix is_legal rejects: {prefix}"
                        );
                        let oracle = prefix.map_deps(&deps).prune_subsumed();
                        prop_assert_eq!(next.mapped_deps().len(), oracle.len());
                        for v in next.mapped_deps() {
                            prop_assert!(
                                oracle.vectors().contains(v),
                                "pruned chain holds {v}, the pruned oracle does not: {prefix}"
                            );
                        }
                        prop_assert!(next.mapped_deps().is_legal());
                        state = next;
                    }
                    Err(ExtendError::Sequence(e)) => {
                        return CaseResult::Fail(format!(
                            "generated sequences chain, so only Illegal is possible: {e}"
                        ));
                    }
                    Err(ExtendError::Illegal(reason)) => {
                        let LegalityReport::Illegal(expected) = &scratch else {
                            return CaseResult::Fail(format!(
                                "incremental rejected a prefix is_legal accepts: {prefix} ({reason})"
                            ));
                        };
                        if matches!(reason, IllegalReason::CodeGen { .. })
                            && matches!(t, Template::Unimodular { .. })
                        {
                            unnormalized.fetch_add(1, Ordering::Relaxed);
                        }
                        // Same arm, step and error as the oracle. A
                        // dependence rejection carries the first witness
                        // found, which must be one of the oracle's.
                        match (&reason, expected) {
                            (
                                IllegalReason::Dependences { witnesses },
                                IllegalReason::Dependences { witnesses: all },
                            ) => {
                                prop_assert_eq!(witnesses.len(), 1);
                                prop_assert!(
                                    all.contains(&witnesses[0]),
                                    "witness {} is not among is_legal's: {prefix}",
                                    witnesses[0]
                                );
                            }
                            _ => prop_assert_eq!(&reason, expected),
                        }
                        // A `SeqState` chain only models legal prefixes;
                        // stop here like the beam search does.
                        break;
                    }
                }
            }
            CaseResult::Pass
        },
    );
    if std::env::var_os("IRLT_FUZZ_CASES").is_none() {
        assert!(
            unnormalized.load(Ordering::Relaxed) > 0,
            "no Unimodular step met a shape that fails normalization"
        );
    }
}

/// `SeqState::extend` maps the dependences before it generates code and
/// still reports a code-generation failure first, as `is_legal` does. That
/// is exact because once a `Unimodular` step's preconditions hold, its
/// code generation can fail only in normalizing the input shape
/// (`IterSpace::from_nest`), which `extend` checks before the mapping.
/// This pins the invariant: over generated shapes, hand-written
/// `max`/`min` and symbolic ones, and every shape one `Block`, `Coalesce`
/// or `ReversePermute` step makes of them, a `Unimodular` step that
/// passes its preconditions on a shape that normalizes always generates.
#[test]
fn unimodular_codegen_fails_only_in_normalization() {
    use irlt::unimodular::IterSpace;
    use irlt_harness::Rng;

    let body_less =
        |n: &LoopNest| LoopNest::with_inits(n.loops().to_vec(), n.inits().to_vec(), vec![]);
    let catalog = MoveCatalog {
        tile_sizes: vec![2, 3],
        ..MoveCatalog::default()
    };
    let mut rng = Rng::new(0x5eed_0021);
    let mut roots: Vec<LoopNest> = (0..120).map(|k| gen_nest(&mut rng, 1 + k % 3)).collect();
    for text in [
        "do i = max(1, p), n, 2\n do j = 1, m\n  a(i, j) = a(i - 2, j + 1) + 1\n enddo\nenddo",
        "do i = 1, n\n do j = max(i, 2), min(n, i + 3), 2\n  a(i, j) = 0\n enddo\nenddo",
        "do i = n, 1, -3\n do j = 1, min(n, i + 2)\n  a(i, j) = 0\n enddo\nenddo",
        "do i = 1, n\n do j = 1, i\n  do k = j, m, 2\n   a(i, j, k) = 0\n  enddo\n enddo\nenddo",
    ] {
        roots.push(parse_nest(text).expect("fixture parses"));
    }
    let (mut checked, mut unnormalizable) = (0usize, 0usize);
    for root in &roots {
        let root = body_less(root);
        let mut shapes = vec![root.clone()];
        for t in catalog.moves(root.depth()) {
            if matches!(
                t,
                Template::Block { .. }
                    | Template::Coalesce { .. }
                    | Template::ReversePermute { .. }
            ) {
                if let Ok(out) = t.apply_to(&root) {
                    // Fourier–Motzkin on a blocked 3-deep nest costs
                    // milliseconds per matrix in a debug build, so stop at 4
                    // loops.
                    if out.depth() <= 4 {
                        shapes.push(body_less(&out));
                    }
                }
            }
        }
        for shape in &shapes {
            let n = shape.depth();
            let mut steps: Vec<Template> = catalog
                .moves(n)
                .into_iter()
                .filter(|t| matches!(t, Template::Unimodular { .. }))
                .collect();
            steps.push(Template::unimodular(gen_unimodular(&mut rng, n, 3)).expect("unimodular"));
            for t in steps {
                if t.check_preconditions(shape).is_err() {
                    continue;
                }
                checked += 1;
                match IterSpace::from_nest(shape) {
                    Ok(_) => {
                        if let Err(e) = t.apply_to(shape) {
                            panic!("{t} normalizes but fails codegen ({e}) on\n{shape}");
                        }
                    }
                    Err(_) => unnormalizable += 1,
                }
            }
        }
    }
    // Not vacuous: many checks, and some shapes that do not normalize.
    assert!(checked > 2_000, "only {checked} checks");
    assert!(unnormalizable > 0, "no shape failed normalization");
    eprintln!("unimodular codegen invariant: {checked} checks, {unnormalizable} unnormalizable");
}

/// `Template::output_kinds` is the one definition of loop kinds: on every
/// shape where a template generates code, the kinds it predicts from the
/// input's kinds are the generated nest's kinds. The inputs are
/// generated nests and every one-step `Parallelize`, `Block`, `Coalesce`
/// and `Interleave` shape of them, so they contain `pardo` loops; the
/// templates are every default catalog move plus an `Interleave` per
/// range, which the catalog does not generate.
#[test]
fn output_kinds_match_generated_kinds() {
    use irlt_harness::Rng;

    let interleaves = |n: usize| -> Vec<Template> {
        (0..n)
            .flat_map(|i| (i..n).map(move |j| (i, j)))
            .map(|(i, j)| {
                Template::interleave(n, i, j, vec![Expr::int(2); j - i + 1]).expect("interleave")
            })
            .collect()
    };
    let moves = |n: usize| -> Vec<Template> {
        let mut all = MoveCatalog::default().moves(n);
        all.extend(interleaves(n));
        all
    };
    let mut rng = Rng::new(0x5eed_0022);
    let (mut checked, mut parallel_outputs) = (0usize, 0usize);
    for k in 0..30 {
        let root = gen_nest(&mut rng, 1 + k % 3);
        let mut shapes = vec![root.clone()];
        for t in moves(root.depth())
            .into_iter()
            .chain([Template::parallelize(vec![true; root.depth()])])
        {
            let one_step = matches!(
                t,
                Template::Parallelize { .. }
                    | Template::Block { .. }
                    | Template::Coalesce { .. }
                    | Template::Interleave { .. }
            );
            if let (true, Ok(out)) = (one_step, t.apply_to(&root)) {
                shapes.push(out);
            }
        }
        for shape in &shapes {
            // A blocked 3-deep nest is 6 deep; Fourier–Motzkin over it is
            // slow in a debug build and adds no kind rule.
            if shape.depth() > 4 {
                continue;
            }
            for t in moves(shape.depth()) {
                if let Ok(out) = t.apply_to(shape) {
                    checked += 1;
                    parallel_outputs += usize::from(out.kinds().iter().any(|k| k.is_parallel()));
                    assert_eq!(
                        t.output_kinds(&shape.kinds()),
                        out.kinds(),
                        "{t} on\n{shape}"
                    );
                }
            }
        }
    }
    assert!(
        checked > 2_000 && parallel_outputs > 500,
        "{checked} checks, {parallel_outputs} with pardo loops"
    );
    eprintln!("output kinds: {checked} checks, {parallel_outputs} with pardo loops");
}

/// The driver's cross-nest [`SharedLegalityCache`] is invisible to
/// results: a chain extended through a shared cache that *persists
/// across all generated cases* (so later cases replay subproblems
/// deposited by earlier ones, exactly like jobs in a batch) agrees with
/// a fresh per-case chain on every extension — same accept/reject
/// verdict, the *identical* mapped `DepSet`, and byte-identical
/// rejection messages.
#[test]
fn shared_legality_cache_matches_fresh_chains() {
    let shared = SharedLegalityCache::new();
    let owner = std::cell::Cell::new(0u64);
    check(
        "shared_legality_cache_matches_fresh_chains",
        &corpus_cfg(200),
        |rng| {
            let depth = rng.gen_range(1..=3usize);
            gen_pair(rng, depth)
        },
        shrink_pair,
        |(nest, seq)| {
            owner.set(owner.get() + 1);
            let deps = analyze_dependences(nest);
            let mut fresh = SeqState::root(nest, &deps);
            let mut cached = SeqState::root(nest, &deps).with_shared(shared.clone(), owner.get());
            for step in seq.steps() {
                let irlt::core::Step::Builtin(t) = step else {
                    unreachable!("generated sequences are builtin-only")
                };
                match (fresh.extend(t), cached.extend(t)) {
                    (Ok(f), Ok(c)) => {
                        prop_assert_eq!(f.mapped_deps(), c.mapped_deps());
                        prop_assert_eq!(f.shape(), c.shape());
                        fresh = f;
                        cached = c;
                    }
                    (Err(fe), Err(ce)) => {
                        prop_assert_eq!(fe.to_string(), ce.to_string());
                        break;
                    }
                    (f, c) => {
                        return CaseResult::Fail(format!(
                            "verdicts diverged: fresh {:?} vs shared {:?}",
                            f.map(|s| s.mapped_deps().clone()),
                            c.map(|s| s.mapped_deps().clone()),
                        ));
                    }
                }
            }
            CaseResult::Pass
        },
    );
    let stats = shared.stats();
    assert!(
        stats.hits > 0 && stats.inserts > 0,
        "the cross-case cache never engaged — the property proved nothing: {stats}"
    );
}

/// Set-level legality and the `try_map_vectors` fail-fast mapping agree
/// exactly with a reference computed member-by-member on `DepVector`s,
/// on ≥ 200 random dependence sets mixing all six direction values and
/// distances up to and past ±124.
#[test]
fn fail_fast_mapping_matches_member_reference() {
    use irlt::dependence::{DepElem, Dir};
    let palette = [
        DepElem::Dist(-125),
        DepElem::Dist(-124),
        DepElem::Dist(-2),
        DepElem::Dist(-1),
        DepElem::ZERO,
        DepElem::Dist(1),
        DepElem::Dist(3),
        DepElem::Dist(124),
        DepElem::Dist(200),
        DepElem::POS,
        DepElem::NEG,
        DepElem::Dir(Dir::NonNeg),
        DepElem::Dir(Dir::NonPos),
        DepElem::Dir(Dir::NonZero),
        DepElem::ANY,
    ];
    check(
        "fail_fast_mapping_matches_member_reference",
        &corpus_cfg(200),
        |rng| {
            let arity = rng.gen_range(1..=4usize);
            let count = rng.gen_range(1..=8usize);
            let rows: Vec<Vec<usize>> = (0..count)
                .map(|_| (0..arity).map(|_| rng.gen_range(0..15usize)).collect())
                .collect();
            let m = gen_unimodular(rng, arity, 4);
            (rows, m)
        },
        |_| Vec::new(),
        |(rows, m)| {
            let vectors: Vec<DepVector> = rows
                .iter()
                .map(|row| DepVector::new(row.iter().map(|&k| palette[k]).collect()))
                .collect();
            // 1. Set-level legality is the member-wise test.
            let set = DepSet::from_vectors(vectors.clone()).unwrap();
            prop_assert_eq!(
                set.is_legal(),
                !vectors.iter().any(DepVector::can_be_lex_negative)
            );
            // 2. try_map_vectors: the fail-fast mapping equals a
            // member-by-member reference (same verdict, same witness,
            // same members in the same order after exact-equality dedup).
            let map = |v: &DepVector| irlt::unimodular::map_dep_vector(m, v);
            let reference: Result<Vec<DepVector>, DepVector> = (|| {
                let mut out: Vec<DepVector> = Vec::new();
                for v in &vectors {
                    for image in map(v) {
                        if image.can_be_lex_negative() {
                            return Err(image);
                        }
                        if !out.contains(&image) {
                            out.push(image);
                        }
                    }
                }
                Ok(out)
            })();
            match (set.try_map_vectors(map), reference) {
                (Ok(mapped), Ok(expected)) => {
                    prop_assert_eq!(mapped.vectors(), &expected[..]);
                }
                (Err(witness), Err(expected)) => {
                    prop_assert_eq!(witness, expected);
                }
                (got, expected) => {
                    return CaseResult::Fail(format!(
                        "verdicts diverged: got {got:?} vs reference {expected:?}"
                    ));
                }
            }
            CaseResult::Pass
        },
    );
}

/// Subsumption pruning never changes `DepSet::is_legal()`: the pruned set
/// is a subset of members covering exactly the same tuple set.
#[test]
fn subsumption_pruning_preserves_legality() {
    use irlt::dependence::{DepElem, Dir};
    let palette = [
        DepElem::Dist(-2),
        DepElem::Dist(-1),
        DepElem::ZERO,
        DepElem::Dist(1),
        DepElem::Dist(3),
        DepElem::POS,
        DepElem::NEG,
        DepElem::Dir(Dir::NonNeg),
        DepElem::Dir(Dir::NonPos),
        DepElem::Dir(Dir::NonZero),
        DepElem::ANY,
    ];
    check(
        "subsumption_pruning_preserves_legality",
        &corpus_cfg(200),
        |rng| {
            let arity = rng.gen_range(1..=4usize);
            let count = rng.gen_range(1..=10usize);
            (0..count)
                .map(|_| (0..arity).map(|_| rng.gen_range(0..11usize)).collect())
                .collect::<Vec<Vec<usize>>>()
        },
        |rows| {
            // Shrink by dropping one row at a time.
            (0..rows.len())
                .map(|k| {
                    let mut r = rows.clone();
                    r.remove(k);
                    r
                })
                .filter(|r| !r.is_empty())
                .collect()
        },
        |rows| {
            let d = DepSet::from_vectors(
                rows.iter()
                    .map(|row| DepVector::new(row.iter().map(|&k| palette[k]).collect()))
                    .collect(),
            )
            .unwrap();
            let p = d.prune_subsumed();
            prop_assert_eq!(d.is_legal(), p.is_legal());
            prop_assert!(p.len() <= d.len());
            // Pruned members are original members…
            for v in p.iter() {
                prop_assert!(d.vectors().contains(v), "pruning invented {v}");
            }
            // …and every original member stays covered.
            for v in d.iter() {
                prop_assert!(
                    p.iter().any(|w| v.subsumed_by(w)),
                    "pruning dropped {v} without cover"
                );
            }
            // Spot-check tuple-set equality on a sampled box.
            let arity = d.arity().unwrap();
            let mut tuple = vec![-2i64; arity];
            loop {
                prop_assert!(
                    d.contains_tuple(&tuple) == p.contains_tuple(&tuple),
                    "tuple {tuple:?} membership changed"
                );
                let mut k = 0;
                loop {
                    if k == arity {
                        return CaseResult::Pass;
                    }
                    tuple[k] += 1;
                    if tuple[k] <= 2 {
                        break;
                    }
                    tuple[k] = -2;
                    k += 1;
                }
            }
        },
    );
}

/// The coalesce decode expressions enumerate the original space
/// exactly, for arbitrary (small) bounds and steps.
#[test]
fn coalesce_decode_bijection() {
    check(
        "coalesce_decode_bijection",
        &corpus_cfg(64),
        |rng| {
            let mut dims = || {
                (
                    rng.gen_range(-3..=3i64),
                    rng.gen_range(1..=4i64),
                    rng.gen_range(1..=3i64),
                )
            };
            (dims(), dims())
        },
        |_| Vec::new(),
        |&((lo1, trip1, s1), (lo2, trip2, s2))| {
            let u1 = lo1 + s1 * (trip1 - 1);
            let u2 = lo2 + s2 * (trip2 - 1);
            let nest = LoopNest::new(
                vec![
                    Loop::new("i", Expr::int(lo1), Expr::int(u1)).with_step(Expr::int(s1)),
                    Loop::new("j", Expr::int(lo2), Expr::int(u2)).with_step(Expr::int(s2)),
                ],
                vec![Stmt::array(
                    "A",
                    vec![Expr::var("i"), Expr::var("j")],
                    Expr::int(1),
                )],
            );
            let t = Template::coalesce(2, 0, 1).unwrap();
            let out = t.apply_to(&nest).unwrap();
            let total = out.level(0).upper.as_const().unwrap() + 1;
            prop_assert_eq!(total, trip1 * trip2);
            let cvar = out.level(0).var.clone();
            let mut seen = std::collections::BTreeSet::new();
            for c in 0..total {
                let env = |s: &Symbol| (s == &cvar).then_some(c);
                let nf = |_: &Symbol, _: &[i64]| None;
                let i = out.inits()[0]
                    .value()
                    .unwrap()
                    .eval_scalar(&env, &nf)
                    .unwrap();
                let j = out.inits()[1]
                    .value()
                    .unwrap()
                    .eval_scalar(&env, &nf)
                    .unwrap();
                prop_assert!(seen.insert((i, j)), "duplicate decode ({i},{j})");
                prop_assert!(
                    (i - lo1) % s1 == 0 && (lo1..=u1).contains(&i),
                    "i={i} off-grid"
                );
                prop_assert!(
                    (j - lo2) % s2 == 0 && (lo2..=u2).contains(&j),
                    "j={j} off-grid"
                );
            }
            prop_assert_eq!(seen.len() as i64, trip1 * trip2);
            CaseResult::Pass
        },
    );
}

/// Cross-engine agreement on the *exact* domain (satellite of the
/// affine backend): for sequences built purely from signed
/// permutations — `ReversePermute`, `Parallelize`, and unimodular
/// steps whose matrix is a signed permutation — the affine engine must
/// never answer `Unknown` and must agree with Table 2 verbatim, on
/// both analyzed and synthetic dependence sets.
#[test]
fn cross_engine_exact_domain_agreement() {
    let tel = Telemetry::disabled();
    check(
        "cross_engine_exact_domain",
        &corpus_cfg(200),
        |rng| {
            let depth = rng.gen_range(1..=3usize);
            let nest = gen_nest(rng, depth);
            let deps = if rng.gen_bool(0.5) {
                analyze_dependences(&nest)
            } else {
                gen_dep_set(rng, depth)
            };
            let seq = gen_exact_sequence(rng, depth);
            OracleCase { nest, deps, seq }
        },
        shrink_oracle_case,
        |case| {
            prop_assert_eq!(compare_domain(&case.seq), CompareDomain::Exact);
            match cross_check_case(case, &tel) {
                Ok((outcome, verdict)) => {
                    prop_assert!(
                        verdict != OracleVerdict::Unknown,
                        "affine engine answered Unknown on the exact domain"
                    );
                    prop_assert_eq!(outcome, CrossCheckOutcome::Agree);
                }
                Err(msg) => return CaseResult::Fail(msg),
            }
            CaseResult::Pass
        },
    );
}

/// Cross-engine protocol holds on *general* sequences too: whatever
/// mix of templates the generator draws (blocking, coalescing,
/// interleaving, skews included), the oracle must classify every case
/// as Agree / Conservative / Skipped — a confirmed disagreement is a
/// shrunk, persisted failure.
#[test]
fn cross_engine_general_sequences_never_mismatch() {
    let tel = Telemetry::disabled();
    check(
        "cross_engine_general",
        &corpus_cfg(100),
        |rng| {
            let depth = rng.gen_range(1..=4usize);
            let nest = gen_nest(rng, depth);
            let deps = if rng.gen_bool(0.5) {
                analyze_dependences(&nest)
            } else {
                gen_dep_set(rng, depth)
            };
            let seq = gen_sequence(rng, depth);
            OracleCase { nest, deps, seq }
        },
        shrink_oracle_case,
        |case| match cross_check_case(case, &tel) {
            Ok((outcome, _)) => {
                prop_assert!(outcome != CrossCheckOutcome::Mismatch);
                CaseResult::Pass
            }
            Err(msg) => CaseResult::Fail(msg),
        },
    );
}

/// PR 8 tentpole: lock-striping is invisible to results. Chains extended
/// through shared caches striped into 1, 4, and 16 shards all agree
/// step-for-step with a fresh uncached chain — same verdicts, identical
/// mapped sets and shapes, byte-identical rejections. All three caches
/// persist across
/// the whole 200-case run, so later cases replay entries earlier cases
/// deposited into *different* shard layouts.
#[test]
fn shard_counts_are_invisible_on_random_chains() {
    let caches = [
        SharedLegalityCache::with_shards(1 << 20, 1),
        SharedLegalityCache::with_shards(1 << 20, 4),
        SharedLegalityCache::with_shards(1 << 20, 16),
    ];
    let owner = std::cell::Cell::new(0u64);
    check(
        "shard_counts_are_invisible_on_random_chains",
        &corpus_cfg(200),
        |rng| {
            let depth = rng.gen_range(1..=3usize);
            gen_pair(rng, depth)
        },
        shrink_pair,
        |(nest, seq)| {
            owner.set(owner.get() + 1);
            let deps = analyze_dependences(nest);
            let mut fresh = SeqState::root(nest, &deps);
            let mut chains: Vec<SeqState> = caches
                .iter()
                .map(|c| SeqState::root(nest, &deps).with_shared(c.clone(), owner.get()))
                .collect();
            for step in seq.steps() {
                let irlt::core::Step::Builtin(t) = step else {
                    unreachable!("generated sequences are builtin-only")
                };
                let verdicts: Vec<_> = chains.iter().map(|s| s.extend(t)).collect();
                match fresh.extend(t) {
                    Ok(f) => {
                        let mut next = Vec::with_capacity(verdicts.len());
                        for (k, v) in verdicts.into_iter().enumerate() {
                            let Ok(c) = v else {
                                return CaseResult::Fail(format!(
                                    "fresh chain accepted {t} but cache #{k} rejected it"
                                ));
                            };
                            prop_assert_eq!(f.mapped_deps(), c.mapped_deps());
                            prop_assert_eq!(f.shape(), c.shape());
                            next.push(c);
                        }
                        fresh = f;
                        chains = next;
                    }
                    Err(fe) => {
                        for (k, v) in verdicts.into_iter().enumerate() {
                            let Err(ce) = v else {
                                return CaseResult::Fail(format!(
                                    "fresh chain rejected {t} but cache #{k} accepted it"
                                ));
                            };
                            prop_assert_eq!(fe.to_string(), ce.to_string());
                        }
                        break;
                    }
                }
            }
            CaseResult::Pass
        },
    );
    for (cache, shards) in caches.iter().zip([1u64, 4, 16]) {
        let s = cache.stats();
        assert_eq!(s.shards, shards, "{s}");
        assert!(
            s.hits > 0 && s.inserts > 0,
            "the {shards}-shard cache never engaged — the property proved nothing: {s}"
        );
    }
}

/// PR 8 tentpole: snapshot persistence is invisible to results. A cache
/// warmed from another cache's `irlt-cache/v3` snapshot replays random
/// chains identically to a fresh uncached chain, serving them from
/// snapshot-owned entries (`snapshot_hits`) without recomputing.
#[test]
fn snapshot_warmed_chains_match_fresh_chains() {
    // Phase 1: populate a donor cache over 100 random cases.
    let donor = SharedLegalityCache::with_shards(1 << 20, 4);
    let owner = std::cell::Cell::new(0u64);
    let replay: std::cell::RefCell<Vec<(LoopNest, TransformSeq)>> =
        std::cell::RefCell::new(Vec::new());
    check(
        "snapshot_warmed_chains_match_fresh_chains",
        &corpus_cfg(100),
        |rng| {
            let depth = rng.gen_range(1..=3usize);
            gen_pair(rng, depth)
        },
        shrink_pair,
        |(nest, seq)| {
            owner.set(owner.get() + 1);
            let deps = analyze_dependences(nest);
            let mut s = SeqState::root(nest, &deps).with_shared(donor.clone(), owner.get());
            for step in seq.steps() {
                let irlt::core::Step::Builtin(t) = step else {
                    unreachable!("generated sequences are builtin-only")
                };
                match s.extend(t) {
                    Ok(next) => s = next,
                    Err(_) => break,
                }
            }
            replay.borrow_mut().push((nest.clone(), seq.clone()));
            CaseResult::Pass
        },
    );
    // Phase 2: snapshot → fresh cache, then replay every case against an
    // uncached chain.
    let bytes = donor.save_snapshot().expect("fingerprint caches snapshot");
    let warm = SharedLegalityCache::with_shards(1 << 20, 16);
    let loaded = warm.load_snapshot(&bytes).expect("own snapshot loads");
    assert!(loaded.entries_loaded > 0, "{loaded:?}");
    for (k, (nest, seq)) in replay.borrow().iter().enumerate() {
        let deps = analyze_dependences(nest);
        let mut fresh = SeqState::root(nest, &deps);
        let mut cached = SeqState::root(nest, &deps).with_shared(warm.clone(), k as u64);
        for step in seq.steps() {
            let irlt::core::Step::Builtin(t) = step else {
                unreachable!("generated sequences are builtin-only")
            };
            match (fresh.extend(t), cached.extend(t)) {
                (Ok(f), Ok(c)) => {
                    assert_eq!(f.mapped_deps(), c.mapped_deps());
                    assert_eq!(f.shape(), c.shape());
                    fresh = f;
                    cached = c;
                }
                (Err(fe), Err(ce)) => {
                    assert_eq!(fe.to_string(), ce.to_string());
                    break;
                }
                (f, c) => panic!(
                    "warm-start verdicts diverged on case {k}: fresh {:?} vs warmed {:?}",
                    f.is_ok(),
                    c.is_ok()
                ),
            }
        }
    }
    let stats = warm.stats();
    assert!(
        stats.snapshot_hits > 0,
        "replay never touched a snapshot-owned entry: {stats}"
    );
    assert_eq!(
        stats.misses, 0,
        "a full warm start must replay without recomputing: {stats}"
    );
}
