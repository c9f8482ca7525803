//! Beam search over transformation sequences.
//!
//! "This flexibility is useful for supporting arbitrary levels of search
//! and undo in an automatic transformation system" (§5): the nest is never
//! mutated; candidates are *sequences*, extended one template
//! instantiation at a time, pruned by the uniform legality test, and
//! scored on a body-less shape (or a trial execution, for locality goals).
//!
//! The inner loop runs on the incremental legality engine
//! ([`irlt_core::SeqState`], always with subsumption pruning): each
//! frontier candidate carries its mapped dependence set and intermediate
//! shape, so extending it by one template costs O(one template) instead
//! of replaying the whole sequence through [`TransformSeq::is_legal`]
//! (the O(k²)→O(k) saving recorded in `BENCH_3.json`). The paper's
//! uniform test stays the reference oracle: the unit tests replay every
//! `(frontier node, move)` pair of two deep searches through it and
//! require the same verdict and shape. A search runs serially on the
//! calling thread, one pass per depth: each `(node, move)` candidate is
//! evaluated and merged into the counters, the dedup set, the best and
//! the next frontier before the next candidate is evaluated. Parallelism
//! is the batch pool's business, across jobs (`irlt_driver::run_batch`),
//! not within one search.
//!
//! The frontier is zero-copy. A node is its `SeqState` plus its score:
//! the sequence and shape stay behind the state's `Arc`s (the cache's
//! pool-canonical ones when a shared cache is attached), candidates are
//! scored by reference, and a public [`Candidate`] is cloned out only for
//! the root and for each node that strictly beats the best so far. Beam
//! dedup keys on [`SeqState::shape_key`], the interned shape id when a
//! shared cache is attached, and each shape depth's move list is built
//! and keyed once per search ([`SeqState::key_moves`]) and borrowed by
//! every node of that depth, so a probe of the shared cache reads each
//! move's template id instead of interning the template.
//!
//! The last depth builds no child states. Its candidates are never
//! extended, so each is decided by [`SeqState::admits`] (the verdict
//! [`SeqState::extend`] would reach, without code generation) and scored
//! without code: a structural goal reads the child's loop kinds from
//! [`Template::output_kinds`], and a locality goal runs its trial on the
//! parent's nest with the template applied. Only a leaf that beats the
//! best so far gets its sequence and shape built. Leaves skip the shape
//! dedup, which cannot change the answer: every shape that enters the
//! dedup set is compared with the best when it enters, and equal shapes
//! score equally (a locality trial nest is the shape plus the untouched
//! body), so a repeated shape never beats the best.
//!
//! The last depth is also bounded. A leaf matters only if it scores
//! strictly above the best so far: the best only rises, and it is
//! replaced only by a strictly greater score. When the best already
//! reaches the goal's ceiling ([`Goal::ceiling`], computed once when the
//! depth starts: for locality, minus the lines the original nest touches,
//! its compulsory misses) no leaf can, so each is decided by
//! [`SeqState::admits`] alone, with no code and no trial. Otherwise a
//! locality leaf's trial stops as soon as its misses reach the best's
//! ([`Goal::score_above`]), so a trial that finishes raises the best. A
//! leaf decided either way still counts as explored and legal; interior
//! nodes always score exactly, because the beam order depends on their
//! scores.

use crate::cancel::CancelToken;
use crate::goal::{Goal, Trial};
use crate::moves::MoveCatalog;
use irlt_core::{
    ExtendError, IllegalReason, KeyedMove, Move, SeqState, SharedLegalityCache, Template,
    TransformSeq,
};
use irlt_dependence::DepSet;
use irlt_ir::LoopNest;
use irlt_obs::Telemetry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Search configuration.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Candidate moves per expansion.
    pub catalog: MoveCatalog,
    /// Maximum sequence length.
    pub max_steps: usize,
    /// States kept per depth.
    pub beam_width: usize,
    /// Ignored: every search runs serially on the calling thread.
    ///
    /// The search neither reads nor branches on it. It survives only
    /// because perfbench sets it when it builds a config.
    pub threads: usize,
    /// Telemetry sink for search observability. The default is the
    /// disabled (no-op) handle: nothing is recorded, nothing is
    /// formatted, and results are bit-identical either way — telemetry
    /// never influences control flow. With an enabled handle the search
    /// records per-depth beam statistics (`search/depth.N/*`: candidates
    /// generated, rejection taxonomy, shape dedups, beam occupancy, the
    /// goal-score distribution), per-depth timings, and — through
    /// [`SeqState`] — the legality-cache and dependence-mapping counters.
    pub telemetry: Telemetry,
    /// Cross-nest shared legality cache: when set, every candidate
    /// extension consults the batch-wide memo table before recomputing,
    /// and deposits what it computes. Replay is bit-identical to
    /// recomputation, so results do not depend on the cache's contents,
    /// on `owner`, or on which jobs ran before.
    pub shared: Option<SharedLegalityCache>,
    /// Identity tag for cross-job hit accounting in [`shared`]; ignored
    /// without a cache.
    ///
    /// [`shared`]: SearchConfig::shared
    pub owner: u64,
    /// Cooperative cancellation: polled once per depth and once per
    /// candidate evaluation. When it fires, the search stops expanding
    /// and returns the best-so-far candidate with
    /// [`SearchResult::timed_out`] set. An unfired (or absent) token
    /// changes nothing — results are bit-identical.
    pub cancel: Option<CancelToken>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            catalog: MoveCatalog::default(),
            max_steps: 3,
            beam_width: 8,
            threads: 1,
            telemetry: Telemetry::disabled(),
            shared: None,
            owner: 0,
            cancel: None,
        }
    }
}

/// One scored candidate.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The sequence.
    pub seq: TransformSeq,
    /// Its score under the goal (higher is better).
    pub score: f64,
    /// The transformed shape it produces (bounds + kinds; empty body).
    pub shape: LoopNest,
}

/// The search outcome.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// The best candidate found (always present: the empty sequence is a
    /// candidate).
    pub best: Candidate,
    /// How many candidate sequences were legality-tested. Extensions that
    /// fail to chain (template arity mismatch) never reach the legality
    /// test and are not counted.
    pub explored: usize,
    /// How many of those passed the legality test.
    pub legal: usize,
    /// True when a [`CancelToken`] fired before the search space was
    /// exhausted: `best` is the best *legal* candidate found up to that
    /// point (at worst the identity sequence), not the full-search
    /// optimum.
    pub timed_out: bool,
}

impl fmt::Display for SearchResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "best {} (score {:.1}); {} candidates tested, {} legal{}",
            self.best.seq,
            self.best.score,
            self.explored,
            self.legal,
            if self.timed_out { " [timed out]" } else { "" }
        )
    }
}

/// A frontier node: a legal prefix's cached legality state and its goal
/// score. The sequence and shape live in the state, behind the
/// (pool-canonical) `Arc`s it already holds; a [`Candidate`] is built
/// from a node only when it becomes the best so far. A locality node also
/// carries its transformed nest, so a child's trial nest is one template
/// applied to it rather than the whole sequence applied to the original.
#[derive(Clone, Debug)]
struct Node {
    state: SeqState,
    score: f64,
    /// The sequence applied to the original nest, for locality goals only.
    nest: Option<Arc<LoopNest>>,
}

impl Node {
    /// The root node of a search of `nest` under `goal`. Locality scoring
    /// must execute the real body (its trial reports through `tel`);
    /// structural goals only need the (body-less) root shape.
    fn root(state: SeqState, nest: &LoopNest, goal: &Goal, tel: &Telemetry) -> Node {
        let (score, nest) = match goal {
            Goal::Locality(_) => (goal.score_observed(nest, tel), Some(Arc::new(nest.clone()))),
            _ => (goal.score(state.shape()), None),
        };
        Node {
            state,
            score: score.unwrap_or(f64::NEG_INFINITY),
            nest,
        }
    }

    fn candidate(&self) -> Candidate {
        Candidate {
            seq: self.state.seq().clone(),
            score: self.score,
            shape: self.state.shape().clone(),
        }
    }
}

/// Which arm of the uniform legality test rejected a candidate — the
/// per-depth taxonomy the telemetry layer reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RejectKind {
    /// A loop-bounds precondition failed on the intermediate shape.
    Precondition,
    /// Bounds mapping / code generation failed.
    CodeGen,
    /// The mapped dependence set admits a lexicographically negative
    /// tuple.
    LexNegative,
}

/// What happened to one `(frontier state, template)` extension.
#[derive(Debug)]
enum Outcome {
    /// The template does not chain (arity mismatch): never reached the
    /// legality test.
    Rejected,
    /// Reached the legality test and failed it.
    Tested(RejectKind),
    /// Legal, but unscorable (code generation or trial scoring failed).
    LegalUnscored,
    /// Legal and scored.
    Legal(Node),
    /// Legal and scored at the last depth, where no child state is
    /// built: the score only.
    Leaf(f64),
    /// Legal at the last depth, and certain not to beat the best: decided
    /// without a full trial.
    Bounded(Bound),
}

/// How a leaf was shown not to beat the best (see [`LastDepth`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Bound {
    /// The best had reached the goal's ceiling: no trial ran.
    Floor,
    /// Its trial stopped once its score could no longer beat the best.
    Cutoff,
}

/// What the last depth knows when it starts, so that a leaf is only
/// scored as far as it could still beat the best so far.
#[derive(Clone, Copy, Debug)]
struct LastDepth {
    /// The goal's ceiling for the searched nest ([`Goal::ceiling`]).
    ceiling: Option<f64>,
}

impl LastDepth {
    /// The last depth of a search of `nest`.
    fn new(goal: &Goal, nest: &LoopNest) -> LastDepth {
        LastDepth {
            ceiling: goal.ceiling(nest),
        }
    }

    /// Whether `best` reaches the ceiling, so that no legal leaf can
    /// score above it.
    fn settled(self, best: f64) -> bool {
        self.ceiling.is_some_and(|ceiling| best >= ceiling)
    }
}

fn reject_kind(reason: &IllegalReason) -> RejectKind {
    match reason {
        IllegalReason::Precondition { .. } => RejectKind::Precondition,
        IllegalReason::CodeGen { .. } => RejectKind::CodeGen,
        IllegalReason::Dependences { .. } => RejectKind::LexNegative,
    }
}

/// Everything one extension evaluation needs besides the `(state, move)`
/// pair itself.
#[derive(Clone, Copy)]
struct EvalCtx<'a> {
    goal: &'a Goal,
    tel: &'a Telemetry,
    /// `Some` at the search's last depth: its legal candidates are never
    /// extended, so they are decided and scored without a child state,
    /// and only as far as they could still beat the best.
    leaf: Option<LastDepth>,
}

/// Evaluates `mv` on `parent`. `best` is the best score so far: a leaf
/// that scores at most it can never replace the best, which is replaced
/// only by a strictly greater score.
fn evaluate<M: Move + ?Sized>(parent: &Node, mv: &M, ctx: EvalCtx<'_>, best: f64) -> Outcome {
    let child = match ctx.leaf {
        Some(_) => parent.state.admits(mv).map(|()| None),
        None => parent.state.extend(mv).map(Some),
    };
    let template = mv.template();
    let child = match child {
        Err(ExtendError::Sequence(_)) => return Outcome::Rejected,
        Err(ExtendError::Illegal(reason)) => return Outcome::Tested(reject_kind(&reason)),
        Ok(child) => child,
    };
    if ctx.leaf.is_some_and(|last| last.settled(best)) {
        return Outcome::Bounded(Bound::Floor);
    }
    let (score, nest) = match ctx.goal {
        // `TransformSeq::apply` folds `apply_to` over the steps, so
        // applying the new template to the parent's nest gives the
        // child's nest exactly.
        Goal::Locality(_) => {
            let parent_nest = parent.nest.as_ref().expect("locality nodes carry a nest");
            let bound = ctx.leaf.map_or(f64::NEG_INFINITY, |_| best);
            match template.apply_to(parent_nest) {
                Ok(out) => match ctx.goal.score_above(&out, ctx.tel, bound) {
                    Trial::Scored(score) => (score, Some(out)),
                    Trial::Cut => return Outcome::Bounded(Bound::Cutoff),
                },
                Err(_) => (None, None),
            }
        }
        // Structural goals read only the child's loop kinds, which the
        // template gives without generating code.
        _ => {
            let kinds = template.output_kinds(&parent.state.shape().kinds());
            (ctx.goal.score_kinds(&kinds), None)
        }
    };
    match (score, child) {
        (None, _) => Outcome::LegalUnscored,
        (Some(score), None) => Outcome::Leaf(score),
        (Some(score), Some(state)) => Outcome::Legal(Node {
            state,
            score,
            nest: nest.map(Arc::new),
        }),
    }
}

/// The candidate a legal last-depth `template` on `parent` stands for,
/// built only when it beats the best so far: its sequence, and its shape
/// generated from the parent's.
fn leaf_candidate(parent: &Node, template: &Template, score: f64) -> Candidate {
    Candidate {
        seq: parent
            .state
            .seq()
            .clone()
            .push(template.clone())
            .expect("an admitted template chains"),
        score,
        shape: template
            .apply_to(parent.state.shape())
            .expect("an admitted template generates"),
    }
}

/// Searches for the best legal transformation of `nest` under `goal`.
///
/// Every candidate is vetted by the framework's full legality test
/// (dependences + bounds preconditions), so the result is safe to apply.
///
/// # Examples
///
/// ```
/// use irlt_dependence::analyze_dependences;
/// use irlt_ir::parse_nest;
/// use irlt_opt::{search, Goal, SearchConfig};
///
/// // A recurrence carried by i only: the optimizer should parallelize j
/// // and pull it outermost.
/// let nest = parse_nest(
///     "do i = 2, n\n  do j = 1, m\n    a(i, j) = a(i - 1, j) + 1\n  enddo\nenddo",
/// )?;
/// let deps = analyze_dependences(&nest);
/// let result = search(&nest, &deps, &Goal::OuterParallel, &SearchConfig::default());
/// let shape = &result.best.shape;
/// assert!(shape.level(0).kind.is_parallel());
/// assert_eq!(shape.level(0).var, "j");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn search(nest: &LoopNest, deps: &DepSet, goal: &Goal, config: &SearchConfig) -> SearchResult {
    let tel = &config.telemetry;
    let mut state = SeqState::root(nest, deps).with_telemetry(tel.clone());
    if let Some(cache) = &config.shared {
        state = state.with_shared(cache.clone(), config.owner);
    }
    let root = Node::root(state, nest, goal, tel);
    if tel.is_enabled() {
        tel.count("search/beam_width", config.beam_width as u64);
        tel.count("search/max_steps", config.max_steps as u64);
    }
    let mut best = root.candidate();
    let mut frontier = vec![root];
    let mut explored = 0usize;
    let mut legal = 0usize;
    let mut timed_out = false;
    // Beam dedup on `SeqState::shape_key`: the interned shape id with a
    // shared cache (exact), the structural fingerprint without one.
    let mut seen_shapes: HashSet<u128> = HashSet::new();
    // The catalog's move list per shape depth, built and keyed once per
    // search (one interner lock for the whole list, none per probe) and
    // borrowed by every frontier node of that depth.
    let mut moves: HashMap<usize, Vec<KeyedMove>> = HashMap::new();
    let cancelled = || {
        config
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
    };

    for depth in 0..config.max_steps {
        if cancelled() {
            timed_out = true;
            break;
        }
        for node in &frontier {
            let d = node.state.shape().depth();
            moves
                .entry(d)
                .or_insert_with(|| node.state.key_moves(config.catalog.moves(d)));
        }
        let ctx = EvalCtx {
            goal,
            tel,
            leaf: (depth + 1 == config.max_steps).then(|| LastDepth::new(goal, nest)),
        };
        let start = tel.is_enabled().then(Instant::now);
        // Per-depth beam statistics, accumulated in plain locals so the
        // loop never touches the sink, then recorded once per depth. The
        // buckets partition the candidates, and they give the totals.
        let (mut n_candidates, mut n_arity, mut n_pre) = (0u64, 0u64, 0u64);
        let (mut n_codegen, mut n_lexneg, mut n_unscored) = (0u64, 0u64, 0u64);
        let (mut n_legal, mut n_deduped, mut n_floor) = (0u64, 0u64, 0u64);
        let mut next: Vec<Node> = Vec::new();
        // Each candidate is evaluated and merged before the next one, in
        // (node, move) order, so a leaf is bounded by the best so far.
        'frontier: for node in &frontier {
            for mv in &moves[&node.state.shape().depth()] {
                // Poll between evaluations, never within one: a fired
                // token ends the depth promptly, but no work is torn
                // mid-step.
                if cancelled() {
                    timed_out = true;
                    break 'frontier;
                }
                n_candidates += 1;
                match evaluate(node, mv, ctx, best.score) {
                    Outcome::Rejected => n_arity += 1,
                    Outcome::Tested(RejectKind::Precondition) => n_pre += 1,
                    Outcome::Tested(RejectKind::CodeGen) => n_codegen += 1,
                    Outcome::Tested(RejectKind::LexNegative) => n_lexneg += 1,
                    Outcome::LegalUnscored => n_unscored += 1,
                    Outcome::Legal(child) => {
                        n_legal += 1;
                        if !seen_shapes.insert(child.state.shape_key()) {
                            n_deduped += 1;
                            continue;
                        }
                        if child.score > best.score {
                            best = child.candidate();
                        }
                        next.push(child);
                    }
                    // A leaf skips the shape dedup: a shape seen before was
                    // compared with `best` when it was first inserted, and
                    // equal shapes score equally, so it cannot beat `best`.
                    Outcome::Leaf(score) => {
                        n_legal += 1;
                        if score > best.score {
                            best = leaf_candidate(node, mv.template(), score);
                        }
                    }
                    Outcome::Bounded(Bound::Floor) => n_floor += 1,
                    // A leaf whose trial stopped at the cutoff was
                    // simulated and is counted with the scored ones.
                    Outcome::Bounded(Bound::Cutoff) => n_legal += 1,
                }
            }
        }
        explored += (n_candidates - n_arity) as usize;
        legal += (n_legal + n_unscored + n_floor) as usize;
        next.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite scores"));
        next.truncate(config.beam_width);
        if let Some(t0) = start {
            let d = format!("search/depth.{depth}");
            tel.count(&format!("{d}/candidates"), n_candidates);
            tel.count(&format!("{d}/arity_rejected"), n_arity);
            tel.count(&format!("{d}/precondition_rejected"), n_pre);
            tel.count(&format!("{d}/codegen_rejected"), n_codegen);
            tel.count(&format!("{d}/lex_negative_rejected"), n_lexneg);
            tel.count(&format!("{d}/legal"), n_legal);
            tel.count(&format!("{d}/legal_unscored"), n_unscored);
            tel.count(&format!("{d}/leaf_bounded"), n_floor);
            tel.count(&format!("{d}/shape_deduped"), n_deduped);
            tel.count(&format!("{d}/beam_kept"), next.len() as u64);
            for node in &next {
                tel.observe("search/score", node.score);
            }
            tel.record_span("search/expand", t0.elapsed());
        }
        if timed_out || next.is_empty() {
            break;
        }
        frontier = next;
    }
    if tel.is_enabled() {
        tel.count("search/explored", explored as u64);
        tel.count("search/legal", legal as u64);
        tel.observe("search/best_score", best.score);
        if timed_out {
            tel.incr("search/timed_out");
        }
    }
    SearchResult {
        best,
        explored,
        legal,
        timed_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irlt_cachesim::{AddressMap, CacheConfig, Order};
    use irlt_core::LegalityReport;
    use irlt_dependence::analyze_dependences;
    use irlt_interp::check_equivalence;
    use irlt_ir::parse_nest;

    const STENCIL: &str =
        "do i = 2, n - 1\n do j = 2, n - 1\n  a(i, j) = a(i - 1, j) + a(i, j - 1)\n enddo\nenddo";
    const MATMUL: &str = "do i = 1, n\n do j = 1, n\n  do k = 1, n\n   A(i, j) = A(i, j) + B(i, k) * C(k, j)\n  enddo\n enddo\nenddo";
    const COPY: &str = "do i = 1, n\n do j = 1, n\n  b(i, j) = a(i, j)\n enddo\nenddo";
    const WAVEFRONT: &str =
        "do i = 2, n\n do j = 2, n\n  a(i, j) = a(i - 1, j) + a(i, j - 1)\n enddo\nenddo";

    #[test]
    fn finds_inner_parallelism_for_vectorization() {
        // j carries nothing: InnerParallel should pardo the innermost loop.
        let nest =
            parse_nest("do i = 2, n\n do j = 1, m\n  a(i, j) = a(i - 1, j) + 1\n enddo\nenddo")
                .unwrap();
        let deps = analyze_dependences(&nest);
        let r = search(&nest, &deps, &Goal::InnerParallel, &SearchConfig::default());
        let shape = &r.best.shape;
        assert!(shape.level(shape.depth() - 1).kind.is_parallel(), "{shape}");
        // The found sequence is genuinely legal and equivalent.
        let out = r.best.seq.apply(&nest).unwrap();
        let ok = check_equivalence(&nest, &out, &[("n", 7), ("m", 6)], 3).unwrap();
        assert!(ok.is_equivalent());
    }

    #[test]
    fn wavefront_discovered_for_stencil() {
        // Both loops carry dependences; outer parallelism needs a skew (or
        // equivalent) before parallelizing — the search must discover a
        // multi-step sequence.
        let nest = parse_nest(STENCIL).unwrap();
        let deps = analyze_dependences(&nest);
        let cfg = SearchConfig {
            catalog: MoveCatalog::parallelism(),
            max_steps: 3,
            beam_width: 12,
            ..SearchConfig::default()
        };
        let r = search(&nest, &deps, &Goal::OuterParallel, &cfg);
        assert!(
            r.best.shape.loops().iter().any(|l| l.kind.is_parallel()),
            "search found no parallelism: {r}"
        );
        assert!(
            r.best.seq.len() >= 2,
            "parallelism requires enabling steps: {r}"
        );
        // Verify the discovered transformation by execution.
        let out = r.best.seq.apply(&nest).unwrap();
        let ok = check_equivalence(&nest, &out, &[("n", 9)], 11).unwrap();
        assert!(ok.is_equivalent(), "{ok}\n{out}");
    }

    #[test]
    fn locality_search_fixes_walk_order() {
        // Note: a scalar reduction (`s = s + a(i,j)`) would make *every*
        // reordering illegal under the dependence model; use an
        // independent elementwise kernel instead.
        let nest = parse_nest("do i = 1, n\n do j = 1, n\n  b(i, j) = a(i, j) + 1\n enddo\nenddo")
            .unwrap();
        let deps = analyze_dependences(&nest);
        let mut map = AddressMap::new(Order::ColMajor, 8);
        map.declare("a", &[48, 48]).declare("b", &[48, 48]);
        let goal = Goal::Locality(crate::LocalityGoal {
            params: vec![("n".into(), 48)],
            map,
            cache: CacheConfig {
                size_bytes: 2048,
                line_bytes: 64,
                associativity: 2,
            },
        });
        let cfg = SearchConfig {
            catalog: MoveCatalog::locality(),
            max_steps: 1,
            beam_width: 8,
            ..SearchConfig::default()
        };
        let r = search(&nest, &deps, &goal, &cfg);
        // The best single move is the interchange (or an equivalent
        // permutation): it must beat the original score.
        let base = goal.score(&nest).unwrap();
        assert!(r.best.score > base, "{} vs {base}", r.best.score);
        assert_eq!(r.best.shape.level(0).var, "j", "{}", r.best.shape);
    }

    #[test]
    fn empty_search_space_returns_identity() {
        let nest = parse_nest("do i = 2, n\n a(i) = a(i - 1) + 1\nenddo").unwrap();
        let deps = analyze_dependences(&nest);
        // Parallelism-only moves on a fully sequential recurrence: nothing
        // legal improves the score; identity wins.
        let cfg = SearchConfig {
            catalog: MoveCatalog {
                interchanges: false,
                reversals: false,
                blocks: false,
                coalesces: false,
                skew_factors: vec![],
                ..MoveCatalog::default()
            },
            max_steps: 2,
            beam_width: 4,
            ..SearchConfig::default()
        };
        let r = search(&nest, &deps, &Goal::OuterParallel, &cfg);
        assert!(r.best.seq.is_empty(), "{r}");
        assert!(r.explored > 0);
        assert_eq!(r.legal, 0);
    }

    #[test]
    fn result_display() {
        let nest = parse_nest("do i = 1, n\n a(i) = 0\nenddo").unwrap();
        let deps = analyze_dependences(&nest);
        let r = search(&nest, &deps, &Goal::OuterParallel, &SearchConfig::default());
        let s = r.to_string();
        assert!(s.contains("candidates tested"), "{s}");
    }

    /// Every shared-cache state used below must agree bit-for-bit.
    fn run_all_modes(
        nest: &LoopNest,
        deps: &DepSet,
        goal: &Goal,
        base: &SearchConfig,
    ) -> Vec<SearchResult> {
        let mut out = vec![search(nest, deps, goal, base)];
        // Shared-cache modes: a cold cache, then a fully warm one (every
        // extension replays a deposit) — both must still be bit-identical.
        let cache = SharedLegalityCache::new();
        for owner in [0, 1] {
            let cfg = SearchConfig {
                shared: Some(cache.clone()),
                owner,
                ..base.clone()
            };
            out.push(search(nest, deps, goal, &cfg));
        }
        out
    }

    fn assert_identical(results: &[SearchResult]) {
        let r0 = &results[0];
        for (k, r) in results.iter().enumerate().skip(1) {
            assert_eq!(r.explored, r0.explored, "mode {k}: explored diverged");
            assert_eq!(r.legal, r0.legal, "mode {k}: legal diverged");
            assert_eq!(
                r.best.seq.to_string(),
                r0.best.seq.to_string(),
                "mode {k}: best sequence diverged"
            );
            assert_eq!(
                r.best.score.to_bits(),
                r0.best.score.to_bits(),
                "mode {k}: score diverged"
            );
            assert_eq!(r.best.shape, r0.best.shape, "mode {k}: shape diverged");
            assert_eq!(r.timed_out, r0.timed_out, "mode {k}: timed_out diverged");
        }
    }

    #[test]
    fn cache_states_bit_identical_on_stencil() {
        let nest = parse_nest(STENCIL).unwrap();
        let deps = analyze_dependences(&nest);
        let base = SearchConfig {
            catalog: MoveCatalog::parallelism(),
            max_steps: 3,
            beam_width: 12,
            ..SearchConfig::default()
        };
        assert_identical(&run_all_modes(&nest, &deps, &Goal::OuterParallel, &base));
    }

    #[test]
    fn matmul_acceptance_config_is_pinned() {
        // The acceptance configuration: Fig. 6 matmul, max_steps 5,
        // beam 16. Every cache state returns the result the from-scratch
        // engine (`is_legal` per candidate) produced before it was
        // retired — pinned here as literals.
        let nest = parse_nest(MATMUL).unwrap();
        let deps = analyze_dependences(&nest);
        let base = SearchConfig {
            max_steps: 5,
            beam_width: 16,
            ..SearchConfig::default()
        };
        let results = run_all_modes(&nest, &deps, &Goal::OuterParallel, &base);
        assert_identical(&results);
        let r = &results[0];
        assert_eq!((r.explored, r.legal), (2264, 1415));
        assert_eq!(
            r.best.seq.to_string(),
            "⟨Parallelize(n=3, parflag=[1 0 0]); Coalesce(n=3, i=1, j=2)⟩"
        );
        assert_eq!(r.best.score.to_bits(), 0x408f_3c00_0000_0000);
    }

    #[test]
    fn best_found_at_the_last_depth_is_built_from_its_sequence() {
        // Matmul's best two-step sequence is a leaf of a two-step search:
        // it was decided and scored without a child state, and its shape
        // was generated only once it beat the best so far.
        let nest = parse_nest(MATMUL).unwrap();
        let deps = analyze_dependences(&nest);
        let base = SearchConfig {
            max_steps: 2,
            beam_width: 16,
            ..SearchConfig::default()
        };
        let results = run_all_modes(&nest, &deps, &Goal::OuterParallel, &base);
        assert_identical(&results);
        let best = &results[0].best;
        assert_eq!(best.seq.len(), base.max_steps, "{}", results[0]);
        let shape0 = LoopNest::with_inits(nest.loops().to_vec(), Vec::new(), Vec::new());
        assert_eq!(best.shape, best.seq.apply(&shape0).unwrap());
        assert_eq!(
            Some(best.score),
            Goal::OuterParallel.score(&best.seq.apply(&nest).unwrap())
        );
    }

    /// What one `(frontier node, move)` evaluation decided, in a form
    /// both engines can produce.
    #[derive(Debug, PartialEq)]
    enum Verdict {
        Rejected,
        Tested(RejectKind),
        LegalUnscored,
        Legal {
            seq: String,
            shape: LoopNest,
            score_bits: u64,
        },
    }

    /// What `outcome` of `template` on `parent` decided. A leaf's
    /// sequence and shape are the ones [`search`] would return for it.
    fn verdict(outcome: Outcome, parent: &Node, template: &Template) -> Verdict {
        let legal = |c: Candidate| Verdict::Legal {
            seq: c.seq.to_string(),
            shape: c.shape,
            score_bits: c.score.to_bits(),
        };
        match outcome {
            Outcome::Rejected => Verdict::Rejected,
            Outcome::Tested(kind) => Verdict::Tested(kind),
            Outcome::LegalUnscored => Verdict::LegalUnscored,
            Outcome::Legal(node) => legal(node.candidate()),
            Outcome::Leaf(score) => legal(leaf_candidate(parent, template, score)),
            Outcome::Bounded(_) => unreachable!("bounded leaves are checked on their own"),
        }
    }

    /// The from-scratch reference: push the move onto the parent's
    /// sequence, run the paper's uniform legality test on the whole
    /// sequence, and rebuild the shape by applying it to the root shape.
    fn reference_evaluate(
        parent: &TransformSeq,
        template: Template,
        nest: &LoopNest,
        deps: &DepSet,
        goal: &Goal,
    ) -> Verdict {
        let Ok(seq) = parent.clone().push(template) else {
            return Verdict::Rejected;
        };
        if let LegalityReport::Illegal(reason) = seq.is_legal(nest, deps) {
            return Verdict::Tested(reject_kind(&reason));
        }
        let shape0 = LoopNest::with_inits(nest.loops().to_vec(), Vec::new(), Vec::new());
        let Ok(shape) = seq.apply(&shape0) else {
            return Verdict::LegalUnscored;
        };
        // Locality trials run on the whole sequence applied from scratch.
        let score = match goal {
            Goal::Locality(_) => seq.apply(nest).ok().and_then(|out| goal.score(&out)),
            _ => goal.score(&shape),
        };
        match score {
            None => Verdict::LegalUnscored,
            Some(score) => Verdict::Legal {
                seq: seq.to_string(),
                shape,
                score_bits: score.to_bits(),
            },
        }
    }

    /// The totals of one [`check_every_pair_against_is_legal`] walk.
    #[derive(Debug, Default)]
    struct Walk {
        explored: usize,
        legal: usize,
        /// Leaves decided by the floor, with no trial.
        floor: usize,
        /// Leaves whose trial stopped at the cutoff.
        cutoff: usize,
        /// Leaves that raised the best.
        rises: usize,
    }

    /// Walks the search's frontier depth by depth (same dedup, ordering,
    /// truncation, best tracking and last-depth leaf evaluation as
    /// [`search`]) and checks every `(frontier node, move)` pair against
    /// [`reference_evaluate`]. A scored pair must match it exactly; a
    /// bounded leaf is accepted only if the full reference trial could not
    /// beat the best so far: it is unscorable or scores at most the best.
    fn check_every_pair_against_is_legal(nest: &LoopNest, goal: &Goal, cfg: &SearchConfig) -> Walk {
        let deps = analyze_dependences(nest);
        let tel = Telemetry::disabled();
        let mut frontier = vec![Node::root(SeqState::root(nest, &deps), nest, goal, &tel)];
        let mut best = frontier[0].score;
        let mut walk = Walk::default();
        let mut seen = HashSet::new();
        for depth in 0..cfg.max_steps {
            let ctx = EvalCtx {
                goal,
                tel: &tel,
                leaf: (depth + 1 == cfg.max_steps).then(|| LastDepth::new(goal, nest)),
            };
            let mut next = Vec::new();
            for node in &frontier {
                for t in cfg.catalog.moves(node.state.shape().depth()) {
                    let expected =
                        reference_evaluate(node.state.seq(), t.clone(), nest, &deps, goal);
                    let outcome = evaluate(node, &t, ctx, best);
                    if let Outcome::Bounded(kind) = outcome {
                        assert!(ctx.leaf.is_some(), "only leaves are bounded");
                        assert!(
                            match &expected {
                                Verdict::LegalUnscored => true,
                                Verdict::Legal { score_bits, .. } => {
                                    f64::from_bits(*score_bits) <= best
                                }
                                _ => false,
                            },
                            "{} + {t}: {kind:?} leaf, best {best}, reference {expected:?}",
                            node.state.seq()
                        );
                        walk.explored += 1;
                        walk.legal += 1;
                        match kind {
                            Bound::Floor => walk.floor += 1,
                            Bound::Cutoff => walk.cutoff += 1,
                        }
                        continue;
                    }
                    if let Outcome::Legal(child) = &outcome {
                        if seen.insert(child.state.shape_key()) {
                            next.push(child.clone());
                        }
                    }
                    let got = verdict(outcome, node, &t);
                    assert_eq!(got, expected, "{} + {t}", node.state.seq());
                    walk.explored += usize::from(got != Verdict::Rejected);
                    walk.legal += usize::from(matches!(
                        got,
                        Verdict::Legal { .. } | Verdict::LegalUnscored
                    ));
                    if let Verdict::Legal { score_bits, .. } = got {
                        let score = f64::from_bits(score_bits);
                        if score > best {
                            best = score;
                            walk.rises += usize::from(ctx.leaf.is_some());
                        }
                    }
                }
            }
            next.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap());
            next.truncate(cfg.beam_width);
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        walk
    }

    #[test]
    fn every_frontier_pair_matches_the_uniform_legality_test() {
        let cfg = SearchConfig {
            max_steps: 5,
            beam_width: 16,
            ..SearchConfig::default()
        };
        for src in [STENCIL, MATMUL] {
            let nest = parse_nest(src).unwrap();
            let walk = check_every_pair_against_is_legal(&nest, &Goal::OuterParallel, &cfg);
            // The walk is the search's own frontier: same counters.
            let r = search(
                &nest,
                &analyze_dependences(&nest),
                &Goal::OuterParallel,
                &cfg,
            );
            assert_eq!((walk.explored, walk.legal), (r.explored, r.legal), "{src}");
            // Both verdicts occur, so both arms were compared.
            assert!(walk.legal > 0 && walk.legal < walk.explored, "{src}");
            // Structural leaves are cheap to score and never bounded.
            assert_eq!((walk.floor, walk.cutoff), (0, 0), "{src}");
        }
    }

    /// A goal for `n × n` column-major `arrays` on a 64 B-line, 2-way
    /// cache of `size_bytes`.
    fn locality_goal_sized(n: i64, arrays: &[&str], size_bytes: usize) -> Goal {
        let mut map = AddressMap::new(Order::ColMajor, 8);
        for a in arrays {
            map.declare(*a, &[n as u64, n as u64]);
        }
        Goal::Locality(crate::LocalityGoal {
            params: vec![("n".into(), n)],
            map,
            cache: CacheConfig {
                size_bytes,
                line_bytes: 64,
                associativity: 2,
            },
        })
    }

    fn locality_goal(n: i64, arrays: &[&str]) -> Goal {
        locality_goal_sized(n, arrays, 512)
    }

    /// The locality workload's search configuration.
    fn locality_config() -> SearchConfig {
        SearchConfig {
            catalog: MoveCatalog::locality(),
            max_steps: 2,
            beam_width: 4,
            ..SearchConfig::default()
        }
    }

    #[test]
    fn locality_children_score_as_the_whole_sequence_applied_from_scratch() {
        // A locality node applies one template to its parent's nest; the
        // reference applies the child's whole sequence to the original.
        // The copy's best reaches the floor at depth 0, so its leaves are
        // decided without trials; the stencil's and matmul's do not, so
        // their leaves' trials stop at the cutoff.
        let cfg = locality_config();
        let mut bounded = Walk::default();
        for (src, n, arrays) in [
            (COPY, 12, &["a", "b"][..]),
            (STENCIL, 12, &["a"][..]),
            (MATMUL, 6, &["A", "B", "C"][..]),
        ] {
            let nest = parse_nest(src).unwrap();
            let goal = locality_goal(n, arrays);
            let walk = check_every_pair_against_is_legal(&nest, &goal, &cfg);
            let results = run_all_modes(&nest, &analyze_dependences(&nest), &goal, &cfg);
            assert_identical(&results);
            assert_eq!(
                (walk.explored, walk.legal),
                (results[0].explored, results[0].legal),
                "{src}"
            );
            assert!(walk.legal > 0, "{src}");
            bounded.floor += walk.floor;
            bounded.cutoff += walk.cutoff;
        }
        // Both bounds were exercised.
        assert!(bounded.floor > 0 && bounded.cutoff > 0, "{bounded:?}");
    }

    /// The perfbench `locality` classes and a matmul whose best never
    /// reaches the floor: `(label, source, n, arrays, cache bytes)`.
    const LOCALITY_PINS: [(&str, &str, i64, &[&str], usize); 6] = [
        ("copy17", COPY, 17, &["a", "b"], 2048),
        ("copy24", COPY, 24, &["a", "b"], 2048),
        ("copy32", COPY, 32, &["a", "b"], 2048),
        ("wavefront24", WAVEFRONT, 24, &["a"], 2048),
        ("wavefront32", WAVEFRONT, 32, &["a"], 2048),
        ("matmul10", MATMUL, 10, &["A", "B", "C"], 1024),
    ];

    #[test]
    fn locality_searches_return_what_unbounded_leaves_returned() {
        // Each search's result before its last depth was bounded: the
        // best sequence, its score bits, and the explored and legal
        // counts, pinned as literals.
        let pins: [(&str, u64, usize, usize); 6] = [
            (
                "⟨ReversePermute(n=2, rev=[F F], perm=[1 0])⟩",
                0xc052_8000_0000_0000,
                173,
                166,
            ),
            (
                "⟨ReversePermute(n=2, rev=[F F], perm=[1 0])⟩",
                0xc062_0000_0000_0000,
                173,
                166,
            ),
            (
                "⟨ReversePermute(n=2, rev=[F F], perm=[1 0])⟩",
                0xc070_0000_0000_0000,
                129,
                124,
            ),
            (
                "⟨ReversePermute(n=2, rev=[F F], perm=[1 0])⟩",
                0xc052_0000_0000_0000,
                129,
                98,
            ),
            (
                "⟨ReversePermute(n=2, rev=[F F], perm=[1 0])⟩",
                0xc060_0000_0000_0000,
                129,
                98,
            ),
            (
                "⟨ReversePermute(n=3, rev=[F F F], perm=[2 1 0]); \
                 ReversePermute(n=3, rev=[F F F], perm=[1 0 2])⟩",
                0xc076_9000_0000_0000,
                293,
                255,
            ),
        ];
        for ((label, src, n, arrays, size_bytes), (seq, score_bits, explored, legal)) in
            LOCALITY_PINS.into_iter().zip(pins)
        {
            let nest = parse_nest(src).unwrap();
            let goal = locality_goal_sized(n, arrays, size_bytes);
            let r = search(
                &nest,
                &analyze_dependences(&nest),
                &goal,
                &locality_config(),
            );
            assert_eq!(r.best.seq.to_string(), seq, "{label}");
            assert_eq!(r.best.score.to_bits(), score_bits, "{label}");
            assert_eq!((r.explored, r.legal), (explored, legal), "{label}");
        }
    }

    #[test]
    fn last_depth_settles_exactly_at_the_ceiling() {
        // The copy's ceiling is minus its 256 compulsory misses.
        let (_, src, n, arrays, size_bytes) = LOCALITY_PINS[2];
        let nest = parse_nest(src).unwrap();
        let goal = locality_goal_sized(n, arrays, size_bytes);
        let last = LastDepth::new(&goal, &nest);
        assert!(last.settled(-256.0));
        assert!(!last.settled(-257.0));
        assert!(!LastDepth::new(&Goal::OuterParallel, &nest).settled(f64::INFINITY));
    }

    #[test]
    fn copy32_leaves_run_no_trials() {
        // The best at depth 0 already has the copy's compulsory misses, so
        // every trial is the root's or an interior node's, and every legal
        // leaf is decided by the floor.
        let (_, src, n, arrays, size_bytes) = LOCALITY_PINS[2];
        let nest = parse_nest(src).unwrap();
        let tel = Telemetry::enabled();
        let cfg = SearchConfig {
            telemetry: tel.clone(),
            ..locality_config()
        };
        let goal = locality_goal_sized(n, arrays, size_bytes);
        let r = search(&nest, &analyze_dependences(&nest), &goal, &cfg);
        let t = tel.report();
        let interior =
            t.counter("search/depth.0/legal") + t.counter("search/depth.0/legal_unscored");
        assert!(interior > 0, "{t:?}");
        assert_eq!(t.counter("cachesim/simulations"), 1 + interior, "{t:?}");
        assert_eq!(t.counter("cachesim/bounded"), 0, "{t:?}");
        assert_eq!(
            t.counter("search/depth.1/leaf_bounded"),
            r.legal as u64 - interior
        );
        assert_eq!(t.counter("search/depth.1/legal"), 0, "{t:?}");
    }

    #[test]
    fn every_finished_leaf_trial_raises_the_best() {
        // A leaf's trial stops once it cannot beat the best so far, so a
        // last-depth trial that finishes is one that raised the best.
        for (label, src, n, arrays, size_bytes) in LOCALITY_PINS {
            let nest = parse_nest(src).unwrap();
            let goal = locality_goal_sized(n, arrays, size_bytes);
            let tel = Telemetry::enabled();
            let cfg = SearchConfig {
                telemetry: tel.clone(),
                ..locality_config()
            };
            search(&nest, &analyze_dependences(&nest), &goal, &cfg);
            let t = tel.report();
            // Every trial before the last depth finishes: the root's and
            // one per scored depth-0 candidate.
            let finished =
                t.counter("cachesim/simulations") - 1 - t.counter("search/depth.0/legal");
            // A cut leaf is counted under `legal` and `cachesim/bounded`.
            let scored = t.counter("search/depth.1/legal") - t.counter("cachesim/bounded");
            assert_eq!(finished, scored, "{label}: {t:?}");
            let walk = check_every_pair_against_is_legal(&nest, &goal, &locality_config());
            assert_eq!(finished, walk.rises as u64, "{label}: {walk:?}");
            if label == "matmul10" {
                // Its best is a two-step leaf, and the only leaf whose
                // trial finishes.
                assert_eq!(finished, 1, "{label}: {t:?}");
            }
        }
    }

    #[test]
    fn counters_pinned_on_hand_countable_space() {
        // Depth-1 nest, parallelize-only catalog: exactly one move per
        // round. Round 1 tests and accepts `pardo i`; round 2 re-tests it
        // (explored + legal count) but dedups the identical shape, so the
        // frontier empties and the search stops — explored == legal == 2.
        let nest = parse_nest("do i = 1, n\n a(i) = 0\nenddo").unwrap();
        let deps = analyze_dependences(&nest);
        let base = SearchConfig {
            catalog: MoveCatalog {
                interchanges: false,
                reversals: false,
                blocks: false,
                coalesces: false,
                skew_factors: vec![],
                ..MoveCatalog::default()
            },
            max_steps: 4,
            beam_width: 4,
            ..SearchConfig::default()
        };
        let results = run_all_modes(&nest, &deps, &Goal::OuterParallel, &base);
        assert_identical(&results);
        assert_eq!(results[0].explored, 2);
        assert_eq!(results[0].legal, 2);
    }

    #[test]
    fn push_arity_rejection_never_reaches_legality_test() {
        // A template whose input size cannot chain onto the root must
        // yield `Rejected` — the outcome `search` excludes from
        // `explored`.
        let nest = parse_nest("do i = 1, n\n a(i) = 0\nenddo").unwrap();
        let deps = analyze_dependences(&nest);
        let tel = Telemetry::disabled();
        let root = Node::root(
            SeqState::root(&nest, &deps),
            &nest,
            &Goal::OuterParallel,
            &tel,
        );
        let last = LastDepth { ceiling: None };
        for leaf in [None, Some(last)] {
            let ctx = EvalCtx {
                goal: &Goal::OuterParallel,
                tel: &tel,
                leaf,
            };
            let template = Template::parallelize(vec![true, false]);
            let outcome = evaluate(&root, &template, ctx, f64::NEG_INFINITY);
            assert!(matches!(outcome, Outcome::Rejected), "{outcome:?}");
        }
    }

    #[test]
    fn telemetry_records_per_depth_beam_stats_without_changing_results() {
        let nest = parse_nest(STENCIL).unwrap();
        let deps = analyze_dependences(&nest);
        let base = SearchConfig {
            catalog: MoveCatalog::parallelism(),
            max_steps: 3,
            beam_width: 12,
            ..SearchConfig::default()
        };
        let off = search(&nest, &deps, &Goal::OuterParallel, &base);
        let tel = Telemetry::enabled();
        let cfg = SearchConfig {
            telemetry: tel.clone(),
            ..base.clone()
        };
        let on = search(&nest, &deps, &Goal::OuterParallel, &cfg);
        // Bit-identity: telemetry never influences control flow.
        assert_eq!(on.explored, off.explored);
        assert_eq!(on.legal, off.legal);
        assert_eq!(on.best.seq.to_string(), off.best.seq.to_string());
        assert_eq!(on.best.score.to_bits(), off.best.score.to_bits());
        let r = tel.report();
        // The per-depth taxonomy partitions the candidates exactly.
        for depth in 0..3 {
            let d = format!("search/depth.{depth}");
            let parts = r.counter(&format!("{d}/arity_rejected"))
                + r.counter(&format!("{d}/precondition_rejected"))
                + r.counter(&format!("{d}/codegen_rejected"))
                + r.counter(&format!("{d}/lex_negative_rejected"))
                + r.counter(&format!("{d}/legal"))
                + r.counter(&format!("{d}/legal_unscored"))
                + r.counter(&format!("{d}/leaf_bounded"));
            assert_eq!(
                parts,
                r.counter(&format!("{d}/candidates")),
                "depth {depth}: {r:?}"
            );
        }
        assert_eq!(
            r.counter("search/explored") as usize,
            off.explored,
            "telemetry total matches the public counter"
        );
        // The stencil rejects interchange on dependences: the taxonomy
        // must show lex-negative rejections, and the incremental engine
        // must report cache hits past depth 0.
        assert!(r.counter_sum("search/") > 0);
        assert!(
            r.counter("search/depth.0/lex_negative_rejected") > 0,
            "{r:?}"
        );
        assert!(r.counter("legality/cache/hits") > 0, "{r:?}");
        assert!(r.spans.contains_key("search/expand"), "{r:?}");
        assert!(r.stats.contains_key("search/score"), "{r:?}");
    }

    #[test]
    fn prefired_cancel_returns_identity_timed_out() {
        let nest = parse_nest(STENCIL).unwrap();
        let deps = analyze_dependences(&nest);
        let token = CancelToken::new();
        token.cancel();
        let cfg = SearchConfig {
            cancel: Some(token),
            ..SearchConfig::default()
        };
        let r = search(&nest, &deps, &Goal::OuterParallel, &cfg);
        assert!(r.timed_out);
        assert!(r.best.seq.is_empty(), "{r}");
        assert_eq!(r.explored, 0);
        assert!(r.to_string().contains("[timed out]"), "{r}");
    }

    #[test]
    fn unfired_cancel_token_changes_nothing() {
        let nest = parse_nest(STENCIL).unwrap();
        let deps = analyze_dependences(&nest);
        let base = SearchConfig {
            catalog: MoveCatalog::parallelism(),
            max_steps: 3,
            beam_width: 12,
            ..SearchConfig::default()
        };
        let plain = search(&nest, &deps, &Goal::OuterParallel, &base);
        let cfg = SearchConfig {
            cancel: Some(CancelToken::with_deadline(std::time::Duration::from_secs(
                3600,
            ))),
            ..base
        };
        let tokened = search(&nest, &deps, &Goal::OuterParallel, &cfg);
        assert!(!tokened.timed_out);
        assert_identical(&[plain, tokened]);
    }
}
