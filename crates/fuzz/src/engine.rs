//! The campaign driver: execute, absorb coverage, keep, shrink, evolve.
//!
//! One campaign runs one [`Mode`] against one seeded PRNG stream:
//!
//! * [`Mode::Random`] draws every input fresh from the harness
//!   generators — the exact distribution `run_cross_engine` uses.
//!   This is the baseline coverage-guided fuzzing must beat.
//! * [`Mode::Guided`] starts from the same generators but keeps every
//!   input that lights a new coverage bucket, and draws most later
//!   inputs by *mutating* kept ones (`mutate`), with a 25% fresh-input
//!   exploration floor so the corpus never inbreeds.
//!
//! Each input is executed identically in both modes
//! ([`execute_case`]): a [`SeqState`] chain walk (lights
//! `legality/reject/*` and `depmap/*`), the cross-engine oracle
//! (`legality/oracle/*`, and the only adjudicator of correctness),
//! and a shallow beam search over the input's nest
//! (`search/depth.N/*`) — all against a fresh per-case telemetry
//! sink, so the coverage signal is a pure function of the input.
//!
//! A panic anywhere in that stack is caught and reported as a
//! failure, exactly like an oracle mismatch: the fuzzer's job is to
//! surface both. Failures and keepers are first minimized through the
//! harness shrinker (`shrink_with` over `shrink_oracle_case`), so
//! what lands in `tests/corpus/fuzz/` — or in a failure report — is
//! the smallest input with the same behavior.
//!
//! Everything is deterministic for a fixed `(mode, seed, budget)`:
//! the PRNG is the only entropy source, per-case telemetry is
//! order-free, and corpus files are content-addressed.

use crate::corpus::{load_dir, save_case, FuzzCase};
use crate::coverage::CoverageMap;
use crate::mutate::mutate;
use irlt_core::{CrossCheckOutcome, OracleVerdict, SeqState, Step, TransformSeq};
use irlt_dependence::analyze_dependences;
use irlt_harness::gen::{gen_dep_set, gen_nest, gen_sequence};
use irlt_harness::{cross_check_case, OracleCase, OracleReport, Rng};
use irlt_harness::{diff::shrink_oracle_case, prop::shrink_with};
use irlt_obs::{Json, Report, Telemetry};
use irlt_opt::{search, CancelToken, Goal, SearchConfig};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::str::FromStr;

/// How the campaign picks its next input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Coverage-guided: corpus evolution by mutation.
    Guided,
    /// Uniform-random baseline: fresh generator draws only.
    Random,
}

impl Mode {
    /// Lower-case CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Guided => "guided",
            Mode::Random => "random",
        }
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Mode {
    type Err = String;
    fn from_str(s: &str) -> Result<Mode, String> {
        match s.trim() {
            "guided" => Ok(Mode::Guided),
            "random" => Ok(Mode::Random),
            other => Err(format!("unknown mode `{other}` (guided|random)")),
        }
    }
}

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Input selection strategy.
    pub mode: Mode,
    /// PRNG seed — the campaign's only entropy source.
    pub seed: u64,
    /// Hard cap on executed inputs.
    pub max_cases: usize,
    /// Floor honored even after the deadline fires (a campaign that
    /// executes nothing proves nothing).
    pub min_cases: usize,
    /// Cooperative deadline, polled between inputs.
    pub cancel: Option<CancelToken>,
    /// Directories of persisted entries to seed the corpus with.
    pub corpus_in: Vec<PathBuf>,
    /// Where to persist kept inputs (content-addressed `*.case`).
    pub corpus_out: Option<PathBuf>,
    /// Run the shallow beam search per input (the `search/depth.N/*`
    /// coverage dimension; ~the dominant per-case cost).
    pub search_coverage: bool,
    /// Shrink budget per kept/failing input, in predicate calls.
    pub max_shrink_steps: u32,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            mode: Mode::Guided,
            seed: 0x5a4b_1992,
            max_cases: 256,
            min_cases: 0,
            cancel: None,
            corpus_in: Vec::new(),
            corpus_out: None,
            search_coverage: true,
            max_shrink_steps: 64,
        }
    }
}

/// One surfaced defect: an oracle mismatch, an engine inconsistency,
/// or a panic — already shrunk, with a replayable corpus-format body.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The oracle/panic message.
    pub message: String,
    /// The shrunk input in `# irlt-fuzz/v1` text (replayable).
    pub case_text: String,
}

/// What one campaign did and found.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Input selection strategy the campaign ran.
    pub mode: Mode,
    /// Its PRNG seed.
    pub seed: u64,
    /// Inputs executed (seeds + generated + mutants; shrink probes
    /// are not counted).
    pub executed: usize,
    /// Inputs produced by mutation (guided mode only).
    pub mutated: usize,
    /// Inputs kept for lighting new coverage (guided mode only).
    pub kept: usize,
    /// Cross-engine adjudication totals over all executed inputs.
    pub oracle: OracleReport,
    /// Surfaced defects (empty on a clean campaign).
    pub failures: Vec<Failure>,
    /// Every coverage bucket lit, sorted.
    pub buckets: Vec<String>,
    /// Mutation-operator usage (guided mode only).
    pub op_stats: BTreeMap<String, usize>,
}

impl CampaignReport {
    /// Number of lit coverage buckets.
    pub fn covered(&self) -> usize {
        self.buckets.len()
    }

    /// Human-readable summary (the CLI's stdout).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "irlt-fuzz {} seed=0x{:x}: {} executed ({} mutants), {} kept, {} buckets covered\n",
            self.mode,
            self.seed,
            self.executed,
            self.mutated,
            self.kept,
            self.covered(),
        ));
        out.push_str(&format!("oracle: {}\n", self.oracle));
        if !self.op_stats.is_empty() {
            let ops: Vec<String> = self
                .op_stats
                .iter()
                .map(|(op, n)| format!("{op}:{n}"))
                .collect();
            out.push_str(&format!("mutations: {}\n", ops.join(" ")));
        }
        for f in &self.failures {
            out.push_str(&format!("FAILURE: {}\n{}\n", f.message, f.case_text));
        }
        out
    }

    /// Machine-readable summary (the CI artifact).
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("mode".into(), Json::Str(self.mode.name().into())),
            ("seed".into(), Json::Int(self.seed as i64)),
            ("executed".into(), Json::Int(self.executed as i64)),
            ("mutated".into(), Json::Int(self.mutated as i64)),
            ("kept".into(), Json::Int(self.kept as i64)),
            ("failures".into(), Json::Int(self.failures.len() as i64)),
            (
                "oracle".into(),
                Json::Object(vec![
                    ("cases".into(), Json::Int(self.oracle.cases as i64)),
                    ("agree".into(), Json::Int(self.oracle.agree as i64)),
                    (
                        "conservative".into(),
                        Json::Int(self.oracle.conservative as i64),
                    ),
                    ("skipped".into(), Json::Int(self.oracle.skipped as i64)),
                    (
                        "affine_unknown".into(),
                        Json::Int(self.oracle.affine_unknown as i64),
                    ),
                ]),
            ),
            ("covered".into(), Json::Int(self.covered() as i64)),
            (
                "buckets".into(),
                Json::Array(self.buckets.iter().map(|b| Json::Str(b.clone())).collect()),
            ),
        ])
    }

    /// Folds another campaign's results into this one (multi-round
    /// runs; coverage is the set union of bucket names).
    pub fn merge(&mut self, other: &CampaignReport) {
        self.executed += other.executed;
        self.mutated += other.mutated;
        self.kept += other.kept;
        self.oracle.merge(&other.oracle);
        self.failures.extend(other.failures.iter().cloned());
        for b in &other.buckets {
            if !self.buckets.contains(b) {
                self.buckets.push(b.clone());
            }
        }
        self.buckets.sort();
        for (op, n) in &other.op_stats {
            *self.op_stats.entry(op.clone()).or_insert(0) += n;
        }
    }
}

/// Executes one input and returns its per-case telemetry plus the
/// oracle adjudication (`Err` on mismatch, inconsistency, or panic).
pub fn execute_case(
    case: &OracleCase,
    search_coverage: bool,
) -> (Report, Result<(CrossCheckOutcome, OracleVerdict), String>) {
    let tel = Telemetry::enabled();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        // (a) Incremental chain walk: lights the rejection taxonomy and
        // the dependence-mapping fan-out histograms step by step, plus
        // the chain-survival frontier (`fuzz/*`): how deep the chain
        // stayed legal, which template survived at which depth, and how
        // far the mapped set grew. The random generator caps sequences
        // at 3 steps, so depth ≥ 4 buckets are reachable only through
        // mutation lineages — the gradient coverage guidance climbs.
        let mut state = SeqState::root(&case.nest, &case.deps).with_telemetry(tel.clone());
        let mut chain_len = 0u64;
        for step in case.seq.steps() {
            let Step::Builtin(t) = step else { break };
            match state.extend(t) {
                Ok(next) => {
                    chain_len += 1;
                    tel.record(&format!("fuzz/chain/step/{}", t.name()), chain_len);
                    state = next;
                }
                Err(_) => break,
            }
        }
        tel.record("fuzz/chain/len", chain_len);
        tel.record(
            "fuzz/mapped/vectors",
            (state.mapped_deps().len() as u64).next_power_of_two(),
        );
        // (b) Cross-engine adjudication: the correctness oracle, and
        // the `legality/oracle/*` coverage dimension.
        let verdict = cross_check_case(case, &tel);
        // (c) A shallow beam search over the same nest: the
        // `search/depth.N/*` coverage dimension.
        if search_coverage {
            let goal = if case.nest.depth().is_multiple_of(2) {
                Goal::OuterParallel
            } else {
                Goal::InnerParallel
            };
            let cfg = SearchConfig {
                max_steps: 2,
                beam_width: 4,
                telemetry: tel.clone(),
                ..SearchConfig::default()
            };
            let _ = search(&case.nest, &case.deps, &goal, &cfg);
        }
        verdict
    }));
    let outcome = match caught {
        Ok(verdict) => verdict,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("opaque panic payload");
            Err(format!("panic: {msg}"))
        }
    };
    (tel.report(), outcome)
}

/// Initial corpus: the in-repo demo kernels under identity sequences
/// (so every campaign starts from real nests with analyzed
/// dependences), plus any persisted entries from `corpus_in`.
fn seed_corpus(cfg: &CampaignConfig) -> Result<Vec<OracleCase>, String> {
    let mut seeds = Vec::new();
    for job in irlt_driver::demo_corpus(8) {
        let deps = analyze_dependences(&job.nest);
        let seq = TransformSeq::new(job.nest.depth());
        seeds.push(OracleCase {
            nest: job.nest,
            deps,
            seq,
        });
    }
    for dir in &cfg.corpus_in {
        for (_, entry) in load_dir(dir)? {
            seeds.push(entry.case);
        }
    }
    Ok(seeds)
}

fn fresh_case(rng: &mut Rng) -> OracleCase {
    // The exact distribution `run_cross_engine` fuzzes — random mode
    // IS that fuzzer, minus the corpus.
    let depth = rng.gen_range(1..=4usize);
    let nest = gen_nest(rng, depth);
    let deps = if rng.gen_bool(0.5) {
        analyze_dependences(&nest)
    } else {
        gen_dep_set(rng, depth)
    };
    let seq = gen_sequence(rng, depth);
    OracleCase { nest, deps, seq }
}

/// Runs one campaign to completion. `Err` only on corpus I/O failures;
/// oracle findings are reported in [`CampaignReport::failures`].
pub fn run_campaign(cfg: &CampaignConfig) -> Result<CampaignReport, String> {
    let mut rng = Rng::new(cfg.seed);
    let mut map = CoverageMap::new();
    let mut corpus: Vec<OracleCase> = Vec::new();
    let mut pending: VecDeque<OracleCase> = seed_corpus(cfg)?.into();
    let mut report = CampaignReport {
        mode: cfg.mode,
        seed: cfg.seed,
        executed: 0,
        mutated: 0,
        kept: 0,
        oracle: OracleReport::default(),
        failures: Vec::new(),
        buckets: Vec::new(),
        op_stats: BTreeMap::new(),
    };

    while report.executed < cfg.max_cases {
        let deadline_hit = cfg.cancel.as_ref().is_some_and(|c| c.is_cancelled());
        if deadline_hit && report.executed >= cfg.min_cases {
            break;
        }
        // Pick the next input. Seeds drain first in both modes so the
        // two start from identical baseline coverage.
        let case = if let Some(seed) = pending.pop_front() {
            seed
        } else {
            match cfg.mode {
                Mode::Random => fresh_case(&mut rng),
                Mode::Guided => {
                    if corpus.is_empty() || rng.gen_bool(0.25) {
                        fresh_case(&mut rng)
                    } else {
                        // Bias recent keepers: they sit at the coverage
                        // frontier, so their neighborhoods are likelier
                        // to light adjacent buckets.
                        let k = if corpus.len() > 8 && rng.gen_bool(0.5) {
                            corpus.len() - 1 - rng.index(8)
                        } else {
                            rng.index(corpus.len())
                        };
                        let (mutant, op) = mutate(&mut rng, &corpus[k]);
                        report.mutated += 1;
                        *report.op_stats.entry(op.to_string()).or_insert(0) += 1;
                        mutant
                    }
                }
            }
        };

        report.executed += 1;
        let (case_report, outcome) = execute_case(&case, cfg.search_coverage);
        let new_buckets = map.absorb(&case_report);

        match outcome {
            Err(first_msg) => {
                // Shrink to the smallest input that still fails, then
                // report it in replayable corpus text.
                // Shrink candidates must stay inside the generators'
                // validity contract (no lex-negative-capable deps):
                // `shrink_dep_set` weakens entries, and a weakened set
                // can leave the oracle's input domain — producing a
                // "failure" that is really an invalid input.
                let minimal = shrink_with(
                    case,
                    shrink_oracle_case,
                    |c| {
                        crate::mutate::invariants_hold(c)
                            && execute_case(c, cfg.search_coverage).1.is_err()
                    },
                    cfg.max_shrink_steps,
                );
                let message = execute_case(&minimal, cfg.search_coverage)
                    .1
                    .err()
                    .unwrap_or(first_msg);
                if report.failures.len() < 8 {
                    report.failures.push(Failure {
                        message,
                        case_text: crate::corpus::print_case(&FuzzCase {
                            case: minimal,
                            outcome: None,
                        }),
                    });
                }
            }
            Ok((outcome, verdict)) => {
                report.oracle.cases += 1;
                match outcome {
                    CrossCheckOutcome::Agree => report.oracle.agree += 1,
                    CrossCheckOutcome::Conservative => report.oracle.conservative += 1,
                    CrossCheckOutcome::Skipped => report.oracle.skipped += 1,
                    CrossCheckOutcome::Mismatch => {}
                }
                if verdict == OracleVerdict::Unknown {
                    report.oracle.affine_unknown += 1;
                }
                if cfg.mode == Mode::Guided && !new_buckets.is_empty() {
                    // Keep — but first shrink to the smallest input
                    // that (still executing cleanly) lights everything
                    // this one was kept for.
                    let minimal = shrink_with(
                        case,
                        shrink_oracle_case,
                        |c| {
                            if !crate::mutate::invariants_hold(c) {
                                return false; // stay inside the input domain
                            }
                            let (r, o) = execute_case(c, cfg.search_coverage);
                            if o.is_err() {
                                return false;
                            }
                            let keys = crate::coverage::coverage_buckets(&r);
                            new_buckets.iter().all(|b| keys.contains(b))
                        },
                        cfg.max_shrink_steps,
                    );
                    if let Some(dir) = &cfg.corpus_out {
                        let (_, final_outcome) = execute_case(&minimal, cfg.search_coverage);
                        let entry = FuzzCase {
                            case: minimal.clone(),
                            outcome: final_outcome.ok().map(|(o, _)| o),
                        };
                        save_case(dir, &entry)
                            .map_err(|e| format!("persisting to {}: {e}", dir.display()))?;
                    }
                    corpus.push(minimal);
                    report.kept += 1;
                }
            }
        }
    }

    report.buckets = map.buckets().into_iter().map(String::from).collect();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(mode: Mode, cases: usize) -> CampaignConfig {
        CampaignConfig {
            mode,
            seed: 0x1992,
            max_cases: cases,
            search_coverage: false, // keep unit tests fast
            max_shrink_steps: 16,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn campaigns_are_deterministic() {
        let a = run_campaign(&quick(Mode::Guided, 48)).unwrap();
        let b = run_campaign(&quick(Mode::Guided, 48)).unwrap();
        assert_eq!(a.executed, b.executed);
        assert_eq!(a.kept, b.kept);
        assert_eq!(a.buckets, b.buckets);
        assert_eq!(a.oracle, b.oracle);
        assert_eq!(a.op_stats, b.op_stats);
    }

    #[test]
    fn campaigns_execute_and_adjudicate_cleanly() {
        let r = run_campaign(&quick(Mode::Guided, 64)).unwrap();
        assert_eq!(r.executed, 64);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert_eq!(r.oracle.cases, 64);
        assert!(r.oracle.agree > 0, "oracle never agreed: {}", r.oracle);
        assert!(r.kept > 0, "guided mode never kept anything");
        assert!(r.covered() > 10, "suspiciously sparse: {:?}", r.buckets);
    }

    #[test]
    fn random_mode_keeps_nothing_and_mutates_nothing() {
        let r = run_campaign(&quick(Mode::Random, 32)).unwrap();
        assert_eq!(r.executed, 32);
        assert_eq!((r.kept, r.mutated), (0, 0));
        assert!(r.op_stats.is_empty());
        assert!(r.covered() > 0);
    }

    #[test]
    fn min_cases_floor_survives_an_expired_deadline() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let cfg = CampaignConfig {
            cancel: Some(cancel),
            min_cases: 5,
            ..quick(Mode::Random, 1000)
        };
        let r = run_campaign(&cfg).unwrap();
        assert_eq!(r.executed, 5);
    }

    #[test]
    fn mode_parses_from_cli_names() {
        assert_eq!("guided".parse::<Mode>().unwrap(), Mode::Guided);
        assert_eq!("random".parse::<Mode>().unwrap(), Mode::Random);
        assert!("greedy".parse::<Mode>().is_err());
        assert_eq!(Mode::Guided.to_string(), "guided");
    }
}
