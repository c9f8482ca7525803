//! The incremental legality engine: prefix-cached dependence mapping and
//! shape extension.
//!
//! [`TransformSeq::is_legal`] replays the whole sequence — it remaps the
//! dependence set through `t₁…t_k` and re-walks every intermediate shape.
//! That is the right semantics for a one-shot query, but a beam search
//! extends thousands of candidates that *share prefixes*: the parent's
//! mapped set `D_{k−1}`, its intermediate shape, and (implicitly) the
//! bound-type lattice state of that shape have all been computed already.
//!
//! [`SeqState`] caches exactly that triple. Extending a candidate by one
//! template instantiation costs **one** precondition check, **one**
//! fail-fast dependence-mapping step over the cached set, and, only if
//! the mapping lets the candidate through, **one** bounds-mapping step —
//! O(one template) instead of O(sequence length).
//!
//! # Dependences before code generation
//!
//! An extension runs in this order: shared-cache lookup, preconditions,
//! fail-fast dependence mapping, code generation. Most candidates of a
//! search die in the mapping, and code generation (Fourier–Motzkin for
//! `Unimodular`) is the most expensive step, so it runs only for the
//! survivors. [`TransformSeq::is_legal`] reports a code-generation
//! failure ahead of a dependence failure, and the reordered engine still
//! gives the same verdict, rejection kind, step and error:
//!
//! * `ReversePermute`, `Parallelize`, `Block`, `Coalesce` and
//!   `Interleave` cannot fail code generation once their preconditions
//!   hold.
//! * A `Unimodular` step that passes its preconditions can fail only in
//!   normalizing the input shape (`IterSpace::from_nest`: `NotAffine`,
//!   `NonConstStep`, `CompositeOrigin`). Fourier–Motzkin cannot then
//!   report `Unbounded`: every normalized loop has a lower and an upper
//!   constraint over its outer variables, and `M` is invertible. So a
//!   `Unimodular` extension checks normalization *before* the mapping.
//!   That check depends only on the parent shape, so a state computes it
//!   at most once, on the first `Unimodular` extension that needs it.
//!
//! The precedence is pinned by a unit test below, the invariant by
//! `unimodular_codegen_fails_only_in_normalization`, and every rejection's
//! kind, step and error by `incremental_matches_scratch`, all in the
//! workspace test suite. The order changes no telemetry either: the
//! mapping runs for exactly the candidates it ran for before.
//!
//! # Verdicts without children
//!
//! [`SeqState::admits`] runs the same decision as [`SeqState::extend`]
//! — chaining, cache probe, preconditions, normalization check and
//! fail-fast mapping, one private step both call — and stops before code
//! generation, pruning and interning. It reports exactly `extend`'s
//! verdict, kind, step and error: code generation cannot fail once the
//! decision passes (see above). A search asks it for the candidates it
//! will never extend, those of its last depth. Through a
//! [`SharedLegalityCache`], a legal `admits` verdict is deposited as an
//! entry that answers only later `admits` probes; an `extend` probe
//! that finds it counts a miss, builds the child and replaces it.
//!
//! # Equivalence with the from-scratch test
//!
//! §3.2 allows *intermediate* stages of a sequence to be illegal; only the
//! final mapped set matters. The fail-fast mapping inside
//! [`SeqState::extend`] would wrongly reject such sequences if it were
//! used to evaluate an arbitrary sequence in one go. It is sound here
//! because a `SeqState` only ever holds a **legal** prefix: the parent's
//! cached set is legal, dependence mapping composes step-wise
//! (`D_k = t_k(D_{k−1})`), so the extension's final set is legal iff no
//! image of the single new step can be lexicographically negative. For
//! chains grown extension-by-extension — the search frontier — the verdict
//! at every step equals `TransformSeq::is_legal` on the corresponding
//! prefix (pinned by the `incremental_matches_scratch` differential
//! property in the workspace test suite).
//!
//! # Subsumption pruning
//!
//! Cached sets are always kept subsumption-free: the root prunes the
//! input set and every extension prunes its mapped set, dropping each
//! member whose tuple set is covered by another member. Pruning preserves
//! `Tuples(D)` at the point it is applied, and it stays exact through
//! every later extension because `SeqState` only takes built-in
//! templates and every Table 2 rule is monotone in value-set inclusion
//! (if `Tuples(v) ⊆ Tuples(w)` then every image of `v` is subsumed by
//! some image of `w` — distances embed into their sign classes,
//! `blockmap`/`imap` rows nest the same way, and the unimodular rule is
//! interval arithmetic, which is monotone). User-defined
//! [`KernelTemplate`](crate::KernelTemplate)s need not be monotone; they
//! go through [`TransformSeq::is_legal`], the reference oracle.

use crate::codegen::{unimodular_normalization, ApplyError};
use crate::sequence::{IllegalReason, SequenceError, TransformSeq};
use crate::shared::{
    CachedOutcome, KeyedMove, MoveKey, SharedLegalityCache, StateKey, TemplateKey,
};
use crate::template::Template;
use irlt_dependence::{DepSet, Fingerprint128 as _};
use irlt_ir::LoopNest;
use irlt_obs::Telemetry;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A candidate step for [`SeqState::extend`] and [`SeqState::admits`]:
/// a built-in template, plus the template id a [`SharedLegalityCache`]
/// issued for it, if any.
///
/// A bare [`Template`] has no key, and a state with a cache interns it on
/// every probe. A [`KeyedMove`] from the state's own cache skips that.
/// Both give the same verdict, shape and mapped set.
pub trait Move {
    /// The template this move instantiates.
    fn template(&self) -> &Template;
    /// The key a cache issued for the template, if any.
    fn key(&self) -> Option<MoveKey>;
}

impl Move for Template {
    fn template(&self) -> &Template {
        self
    }

    fn key(&self) -> Option<MoveKey> {
        None
    }
}

impl<M: Move + ?Sized> Move for &M {
    fn template(&self) -> &Template {
        (**self).template()
    }

    fn key(&self) -> Option<MoveKey> {
        (**self).key()
    }
}

/// Cached legality state of one legal sequence prefix: the sequence, the
/// shape it produces, and the dependence set mapped through it.
///
/// # Examples
///
/// ```
/// use irlt_core::{SeqState, Template};
/// use irlt_dependence::DepSet;
/// use irlt_ir::parse_nest;
///
/// let nest = parse_nest(
///     "do i = 2, n\n  do j = 1, m\n    a(i, j) = a(i - 1, j) + 1\n  enddo\nenddo",
/// )?;
/// let deps = DepSet::from_distances(&[&[1, 0]]);
/// let root = SeqState::root(&nest, &deps);
/// // j carries nothing: parallelizing it is a legal extension…
/// let s = root.extend(&Template::parallelize(vec![false, true]))?;
/// assert_eq!(s.seq().len(), 1);
/// assert!(s.shape().level(1).kind.is_parallel());
/// // …while parallelizing i is rejected with the witness.
/// assert!(root.extend(&Template::parallelize(vec![true, false])).is_err());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct SeqState {
    seq: TransformSeq,
    /// Behind an `Arc` so cache replays and interner hits share one
    /// allocation per distinct shape across every job of a batch.
    shape: Arc<LoopNest>,
    /// Likewise pool-shared when a [`SharedLegalityCache`] is attached.
    /// Always subsumption-pruned (see the module docs).
    mapped: Arc<DepSet>,
    telemetry: Telemetry,
    /// Cross-nest memo table (see [`SharedLegalityCache`]); `None` keeps
    /// every extension local.
    shared: Option<SharedLegalityCache>,
    /// Identity tag for cross-job hit accounting in the shared cache.
    owner: u64,
    /// This state's precomputed cache key (interned ids); kept in
    /// lock-step with `(shape, mapped)` whenever `shared` is attached.
    skey: Option<StateKey>,
    /// Whether `shape` normalizes for `Unimodular` code generation: set
    /// by the first `Unimodular` extension that reaches the check and
    /// read by every later one.
    normalization: OnceLock<Result<(), ApplyError>>,
}

impl SeqState {
    /// The root state: the identity sequence on `nest`, a body-less copy
    /// of its shape, and `deps` unmapped but subsumption-pruned.
    ///
    /// The root is *not* legality-checked — mirroring the search
    /// convention that the identity transformation is always admissible.
    pub fn root(nest: &LoopNest, deps: &DepSet) -> SeqState {
        SeqState {
            seq: TransformSeq::new(nest.depth()),
            shape: Arc::new(LoopNest::with_inits(
                nest.loops().to_vec(),
                Vec::new(),
                Vec::new(),
            )),
            mapped: Arc::new(deps.prune_subsumed()),
            telemetry: Telemetry::disabled(),
            shared: None,
            owner: 0,
            skey: None,
            normalization: OnceLock::new(),
        }
    }

    /// Re-derives this state's cache key (and adopts the pool-canonical
    /// `Arc`s) from the attached cache; no-op when no cache is attached.
    fn rekey(&mut self) {
        if let Some(cache) = &self.shared {
            let (key, shape, mapped) =
                cache.intern_state(Arc::clone(&self.shape), Arc::clone(&self.mapped));
            self.skey = Some(key);
            self.shape = shape;
            self.mapped = mapped;
        }
    }

    /// Attaches a telemetry handle; every state derived through
    /// [`SeqState::extend`] inherits it. With the handle enabled, each
    /// extension records legality-cache reuse (`legality/cache/hits`,
    /// `legality/cache/steps_saved`), rejection taxonomy counters
    /// (`legality/reject/*`), subsumption-pruning work
    /// (`legality/prune/*`), and the dependence layer's per-template
    /// fan-out histograms. The default (disabled) handle records nothing
    /// and adds no work to the hot path.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> SeqState {
        self.telemetry = telemetry;
        self
    }

    /// Attaches a cross-nest [`SharedLegalityCache`]; every state derived
    /// through [`SeqState::extend`] inherits it. `owner` tags deposits so
    /// the cache can distinguish same-job from cross-job hits — pass a
    /// per-job id (any convention works as long as concurrent jobs
    /// differ).
    ///
    /// Cached extensions replay the deposited verdict, shape, and mapped
    /// set **exactly** (see the cache's module docs); results are
    /// bit-identical with and without the cache attached.
    #[must_use]
    pub fn with_shared(mut self, cache: SharedLegalityCache, owner: u64) -> SeqState {
        self.shared = Some(cache);
        self.owner = owner;
        self.rekey();
        self
    }

    /// The (legal-prefix) sequence accumulated so far.
    pub fn seq(&self) -> &TransformSeq {
        &self.seq
    }

    /// The shape the sequence produces: loops (bounds, kinds) plus the
    /// accumulated initialization statements, with an empty body — exactly
    /// `self.seq().apply(shape₀)` for the body-less root shape, computed
    /// incrementally.
    pub fn shape(&self) -> &LoopNest {
        &self.shape
    }

    /// The dependence set mapped through the whole prefix
    /// (`D_k = t_k(…t₁(D)…)`), subsumption-pruned.
    pub fn mapped_deps(&self) -> &DepSet {
        &self.mapped
    }

    /// A 128-bit key for deduplicating states by shape. With a
    /// [`SharedLegalityCache`] attached it is the shape's interned id
    /// (exact: equal keys ⟺ equal shapes, and free to read); without one
    /// it is the shape's 128-bit structural fingerprint. Keys of states
    /// with and without a cache are not comparable with each other.
    pub fn shape_key(&self) -> u128 {
        match self.skey {
            Some(key) => u128::from(key.shape),
            None => self.shape.fingerprint128(),
        }
    }

    /// The shared handle behind [`SeqState::shape`] (pool-canonical when
    /// a cache is attached).
    #[cfg(test)]
    pub(crate) fn shape_arc(&self) -> &Arc<LoopNest> {
        &self.shape
    }

    /// The shared handle behind [`SeqState::mapped_deps`].
    #[cfg(test)]
    pub(crate) fn mapped_arc(&self) -> &Arc<DepSet> {
        &self.mapped
    }

    /// Decomposes the state into `(sequence, shape, mapped set)`.
    pub fn into_parts(self) -> (TransformSeq, LoopNest, DepSet) {
        let shape = Arc::try_unwrap(self.shape).unwrap_or_else(|a| (*a).clone());
        let mapped = Arc::try_unwrap(self.mapped).unwrap_or_else(|a| (*a).clone());
        (self.seq, shape, mapped)
    }

    /// Keys a move list: with a cache attached, interns every template
    /// under one pool lock and stamps each move with its id and the
    /// cache's identity; without one the moves carry no key. Every state
    /// derived from this one shares its cache, so one list serves a whole
    /// search depth.
    pub fn key_moves(&self, templates: Vec<Template>) -> Vec<KeyedMove> {
        match &self.shared {
            Some(cache) => cache.key_moves(templates),
            None => templates.into_iter().map(KeyedMove::unkeyed).collect(),
        }
    }

    /// Performs exactly the shared-cache probe the extension hot path
    /// performs — template key plus map lookup — without extending.
    /// Returns `None` when no shared cache is attached, otherwise whether
    /// the `(state, move)` pair is resident for an `extend`.
    ///
    /// Exists so the allocation-counting test and the legality bench can
    /// measure the probe path in isolation; not part of the supported API.
    #[doc(hidden)]
    pub fn shared_probe<M: Move + ?Sized>(&self, mv: &M) -> Option<bool> {
        let cache = self.shared.as_ref()?;
        let skey = self.skey?;
        let tkey = cache.template_key(mv.template(), mv.key());
        Some(cache.lookup(skey, tkey, self.owner, true).is_some())
    }

    /// Extends the prefix by one built-in template instantiation (a
    /// [`Move`]), revalidating **only the new step**, in this order: its
    /// size chaining, its loop-bounds preconditions on the cached shape (plus,
    /// for `Unimodular`, whether that shape normalizes), the fail-fast
    /// dependence mapping of the cached set, and last its bounds mapping
    /// (see the module docs for why this order reports exactly what
    /// [`TransformSeq::is_legal`] reports).
    ///
    /// # Errors
    ///
    /// [`ExtendError::Sequence`] if the template does not chain (the
    /// candidate never reaches the legality test);
    /// [`ExtendError::Illegal`] with the same [`IllegalReason`] taxonomy
    /// as [`TransformSeq::is_legal`] otherwise.
    pub fn extend<M: Move + ?Sized>(&self, mv: &M) -> Result<SeqState, ExtendError> {
        let template = mv.template();
        let (mapped, probe) = match self.decide(template, mv.key(), true)? {
            Admission::Replayed { shape, mapped, key } => {
                return Ok(self.child(template, shape, mapped, Some(key)));
            }
            Admission::Admitted => unreachable!("an extend probe never replays Admitted"),
            Admission::Decided { mapped, probe } => (mapped, probe),
        };
        let shape = match template.generate(&self.shape) {
            Ok(shape) => shape,
            Err(error) => {
                let step = self.seq.len();
                return Err(self.reject(probe, IllegalReason::CodeGen { step, error }));
            }
        };
        let tel = &self.telemetry;
        let before = mapped.len();
        let mapped = mapped.prune_subsumed();
        if tel.is_enabled() {
            tel.incr("legality/prune/calls");
            tel.count(
                "legality/prune/vectors_dropped",
                (before - mapped.len()) as u64,
            );
        }
        let (skey, shape, mapped) = if let Some(cache) = &self.shared {
            // Intern the child pair once (this also computes its state
            // key for *its* future extensions) and adopt the canonical
            // pool Arcs so identical children across jobs alias.
            let (child_key, shape, mapped) = cache.intern_state(Arc::new(shape), Arc::new(mapped));
            if let Some((pkey, tkey)) = probe {
                cache.insert(
                    pkey,
                    tkey,
                    CachedOutcome::Legal {
                        shape: Arc::clone(&shape),
                        mapped: Arc::clone(&mapped),
                        key: child_key,
                    },
                    self.owner,
                );
            }
            (Some(child_key), shape, mapped)
        } else {
            (None, Arc::new(shape), Arc::new(mapped))
        };
        Ok(self.child(template, shape, mapped, skey))
    }

    /// The verdict [`SeqState::extend`] would reach, without building the
    /// child: the same chaining check, cache probe, preconditions,
    /// normalization check and fail-fast dependence mapping, but no code
    /// generation, pruning or interning. It returns exactly the error
    /// `extend` returns (kind, step and witness), and `Ok` exactly when
    /// `extend` succeeds (code generation cannot fail once these checks
    /// pass; see the module docs).
    ///
    /// With a [`SharedLegalityCache`] attached, a legal verdict it
    /// computes is deposited as an entry that answers later `admits`
    /// probes only; a later `extend` of the same pair recomputes the
    /// child and replaces it. `admits` also replays `extend`'s entries.
    ///
    /// # Errors
    ///
    /// As [`SeqState::extend`].
    pub fn admits<M: Move + ?Sized>(&self, mv: &M) -> Result<(), ExtendError> {
        let probe = match self.decide(mv.template(), mv.key(), false)? {
            Admission::Decided { probe, .. } => probe,
            Admission::Replayed { .. } | Admission::Admitted => None,
        };
        if let (Some(cache), Some((skey, tkey))) = (&self.shared, probe) {
            cache.insert(skey, tkey, CachedOutcome::Admitted, self.owner);
        }
        Ok(())
    }

    /// The legality decision [`SeqState::extend`] and
    /// [`SeqState::admits`] share: chaining, the cache probe, the
    /// preconditions, the `Unimodular` normalization check and the
    /// fail-fast dependence mapping, in that order. Every rejection is
    /// counted and deposited here. `issued` is the move's key, if any;
    /// `need_child` marks an `extend` probe, which an `Admitted` entry
    /// cannot answer.
    fn decide(
        &self,
        template: &Template,
        issued: Option<MoveKey>,
        need_child: bool,
    ) -> Result<Admission, ExtendError> {
        let tel = &self.telemetry;
        let k = self.seq.len();
        self.seq
            .check_chain(template.input_size())
            .map_err(ExtendError::Sequence)?;
        if tel.is_enabled() {
            // Every extension past the chaining check reuses this state's
            // cached mapped set and shape — for a non-root prefix that is
            // a legality-cache hit saving k replayed mapping steps.
            tel.incr("legality/extensions");
            if k > 0 {
                tel.incr("legality/cache/hits");
                tel.count("legality/cache/steps_saved", k as u64);
            }
        }
        // Cross-nest replay: the extension outcome is a pure function of
        // the (shape, mapped, template) key, so a deposited entry — from
        // this job or any other — substitutes for the whole
        // precondition/mapping/codegen pipeline below. The state key was
        // computed when this state was created. The template key comes
        // with the move when this state's cache issued it (the search
        // keys each depth's move list once), so such a probe takes no
        // interner lock; any other move is interned here. Either key is
        // reused by the lookup and any deposit. Nothing on this path
        // renders a string, and nothing here counts the probe: the cache
        // does, and the pool publishes those counters once.
        let probe = match (&self.shared, self.skey) {
            (Some(cache), Some(skey)) => Some((skey, cache.template_key(template, issued))),
            _ => None,
        };
        if let (Some(cache), Some((skey, tkey))) = (&self.shared, probe) {
            if let Some(outcome) = cache.lookup(skey, tkey, self.owner, need_child) {
                return match outcome {
                    CachedOutcome::Legal { shape, mapped, key } => {
                        Ok(Admission::Replayed { shape, mapped, key })
                    }
                    CachedOutcome::Admitted => Ok(Admission::Admitted),
                    CachedOutcome::Illegal(reason) => {
                        let reason = restamp(reason, k);
                        tel.incr(reject_counter(&reason));
                        Err(ExtendError::Illegal(reason))
                    }
                };
            }
        }
        if let Err(error) = template.check_preconditions(&self.shape) {
            return Err(self.reject(probe, IllegalReason::Precondition { step: k, error }));
        }
        // `is_legal` reports a code-generation failure ahead of the
        // dependences. The one generator that can still fail here fails
        // only in normalizing this shape, so that is checked (once per
        // state) before the mapping, and the codegen in `extend` runs only
        // for candidates the mapping let through.
        if let Template::Unimodular { .. } = template {
            let normalization = self
                .normalization
                .get_or_init(|| unimodular_normalization(&self.shape));
            if let Err(error) = normalization {
                let error = error.clone();
                return Err(self.reject(probe, IllegalReason::CodeGen { step: k, error }));
            }
        }
        let mapped = self.mapped.try_map_vectors_observed(
            |v| template.map_dep_vector(v),
            tel,
            template.name(),
        );
        match mapped {
            Ok(mapped) => Ok(Admission::Decided { mapped, probe }),
            Err(w) => Err(self.reject(probe, IllegalReason::Dependences { witnesses: vec![w] })),
        }
    }

    /// Counts a rejection, deposits it under `probe` when a cache is
    /// attached, and wraps it.
    fn reject(&self, probe: Option<(StateKey, TemplateKey)>, reason: IllegalReason) -> ExtendError {
        self.telemetry.incr(reject_counter(&reason));
        if let (Some(cache), Some((skey, tkey))) = (&self.shared, probe) {
            cache.insert(
                skey,
                tkey,
                CachedOutcome::Illegal(reason.clone()),
                self.owner,
            );
        }
        ExtendError::Illegal(reason)
    }

    /// The state this one becomes after `template`, given the child's
    /// shape, mapped set and (with a cache) state key. The only place an
    /// extension clones its template.
    fn child(
        &self,
        template: &Template,
        shape: Arc<LoopNest>,
        mapped: Arc<DepSet>,
        skey: Option<StateKey>,
    ) -> SeqState {
        SeqState {
            seq: self
                .seq
                .clone()
                .push(template.clone())
                .expect("decide checked the chaining"),
            shape,
            mapped,
            telemetry: self.telemetry.clone(),
            shared: self.shared.clone(),
            owner: self.owner,
            skey,
            normalization: OnceLock::new(),
        }
    }
}

/// What [`SeqState::decide`] found for an extension that passed.
enum Admission {
    /// A `Legal` entry: the child's shape, mapped set and state key.
    Replayed {
        shape: Arc<LoopNest>,
        mapped: Arc<DepSet>,
        key: StateKey,
    },
    /// An `Admitted` entry (only an `admits` probe takes one).
    Admitted,
    /// Computed here: the mapped set, not yet pruned, and the probe key
    /// any deposit goes under.
    Decided {
        mapped: DepSet,
        probe: Option<(StateKey, TemplateKey)>,
    },
}

/// The `legality/reject/*` counter a rejection bumps.
fn reject_counter(reason: &IllegalReason) -> &'static str {
    match reason {
        IllegalReason::Precondition { .. } => "legality/reject/precondition",
        IllegalReason::CodeGen { .. } => "legality/reject/codegen",
        IllegalReason::Dependences { .. } => "legality/reject/dependences",
    }
}

/// Rewrites the step index inside a cached rejection to the caller's
/// prefix length: the same `(shape, mapped, template)` subproblem can sit
/// at different depths in different jobs' sequences.
fn restamp(reason: IllegalReason, step: usize) -> IllegalReason {
    match reason {
        IllegalReason::Precondition { error, .. } => IllegalReason::Precondition { step, error },
        IllegalReason::CodeGen { error, .. } => IllegalReason::CodeGen { step, error },
        r @ IllegalReason::Dependences { .. } => r,
    }
}

/// Why [`SeqState::extend`] rejected an extension.
#[derive(Clone, Debug)]
pub enum ExtendError {
    /// The step does not chain onto the prefix (size mismatch): the
    /// candidate never reached the legality test.
    Sequence(SequenceError),
    /// The extension fails the uniform legality test. For dependence
    /// rejections the witness list holds the first offending image found
    /// (fail-fast), not the exhaustive list `TransformSeq::is_legal`
    /// reports.
    Illegal(IllegalReason),
}

impl ExtendError {
    /// True when the extension reached — and failed — the legality test.
    pub fn is_illegal(&self) -> bool {
        matches!(self, ExtendError::Illegal(_))
    }
}

impl fmt::Display for ExtendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtendError::Sequence(e) => write!(f, "{e}"),
            ExtendError::Illegal(r) => write!(f, "illegal: {r}"),
        }
    }
}

impl std::error::Error for ExtendError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::LegalityReport;
    use irlt_ir::{parse_nest, Expr};
    use irlt_unimodular::{FmError, IntMatrix, UnimodularError};

    fn stencil() -> (LoopNest, DepSet) {
        let nest = parse_nest(
            "do i = 2, n - 1\n do j = 2, n - 1\n  a(i, j) = a(i - 1, j) + a(i, j - 1)\n enddo\nenddo",
        )
        .unwrap();
        (nest, DepSet::from_distances(&[&[1, 0], &[0, 1]]))
    }

    /// True when `a` and `b` hold the same member vectors (in any order).
    fn same_members(a: &DepSet, b: &DepSet) -> bool {
        a.len() == b.len() && a.iter().all(|v| b.vectors().contains(v))
    }

    /// Grows a chain step by step; every verdict must match the
    /// from-scratch path on the corresponding prefix, and every cached set
    /// must hold exactly the members of the pruned from-scratch set.
    fn assert_chain_matches_scratch(nest: &LoopNest, deps: &DepSet, templates: Vec<Template>) {
        let shape0 = LoopNest::with_inits(nest.loops().to_vec(), Vec::new(), Vec::new());
        let mut state = SeqState::root(nest, deps);
        for t in templates {
            let scratch_seq = state.seq().clone().push(t.clone()).unwrap();
            let scratch = scratch_seq.is_legal(nest, deps);
            match state.extend(&t) {
                Ok(next) => {
                    assert!(scratch.is_legal(), "incremental accepted, scratch rejected");
                    let oracle = scratch_seq.map_deps(deps).prune_subsumed();
                    assert!(
                        same_members(next.mapped_deps(), &oracle),
                        "{:?} vs {oracle:?}",
                        next.mapped_deps()
                    );
                    assert_eq!(next.shape(), &scratch_seq.apply(&shape0).unwrap());
                    state = next;
                }
                Err(e) => {
                    assert!(
                        !scratch.is_legal(),
                        "incremental rejected legal prefix: {e}"
                    );
                    return;
                }
            }
        }
    }

    #[test]
    fn figure1_chain_matches_scratch() {
        let (nest, deps) = stencil();
        assert_chain_matches_scratch(
            &nest,
            &deps,
            vec![
                Template::unimodular(IntMatrix::skew(2, 0, 1, 1)).unwrap(),
                Template::unimodular(IntMatrix::interchange(2, 0, 1)).unwrap(),
                Template::parallelize(vec![false, true]),
            ],
        );
    }

    #[test]
    fn block_chain_matches_scratch() {
        let (nest, deps) = stencil();
        assert_chain_matches_scratch(
            &nest,
            &deps,
            vec![
                Template::block(2, 0, 1, vec![Expr::int(4), Expr::int(4)]).unwrap(),
                Template::parallelize(vec![false; 4]),
                Template::coalesce(4, 0, 1).unwrap(),
            ],
        );
    }

    #[test]
    fn illegal_extension_reports_witness() {
        let (nest, _) = stencil();
        let deps = DepSet::from_distances(&[&[1, -1]]);
        let root = SeqState::root(&nest, &deps);
        let swap = Template::reverse_permute(vec![false, false], vec![1, 0]).unwrap();
        match root.extend(&swap) {
            Err(ExtendError::Illegal(IllegalReason::Dependences { witnesses })) => {
                assert_eq!(witnesses.len(), 1);
                assert!(witnesses[0].can_be_lex_negative());
            }
            other => panic!("expected dependence rejection, got {other:?}"),
        }
    }

    /// The dependences are mapped before code generation, yet a step that
    /// fails both reports `CodeGen`, as `is_legal` does; a step whose
    /// code generation cannot fail reports `Dependences`. Both hold on a
    /// fresh state and on a replay through the shared cache.
    #[test]
    fn codegen_rejection_takes_precedence_over_dependences() {
        let nest = parse_nest(
            "do i = max(1, p), n, 2\n do j = 1, m\n  a(i, j) = a(i - 2, j + 1) + 1\n enddo\nenddo",
        )
        .unwrap();
        let deps = DepSet::from_distances(&[&[2, -1]]);
        let interchange = Template::unimodular(IntMatrix::interchange(2, 0, 1)).unwrap();
        // The mapped set is illegal…
        assert!(!interchange.map_dep_set(&deps).is_legal());
        // …and the shape does not normalize: a step-2 loop with a max origin.
        assert!(matches!(
            unimodular_normalization(&nest),
            Err(ApplyError::Unimodular(UnimodularError::Fm(
                FmError::CompositeOrigin { level: 0 }
            )))
        ));
        let swap = Template::reverse_permute(vec![false, false], vec![1, 0]).unwrap();
        let block = Template::block(2, 0, 1, vec![Expr::int(2), Expr::int(2)]).unwrap();
        let cache = SharedLegalityCache::new();
        for root in [
            SeqState::root(&nest, &deps),
            SeqState::root(&nest, &deps).with_shared(cache.clone(), 1),
            SeqState::root(&nest, &deps).with_shared(cache.clone(), 2),
        ] {
            for t in [&interchange, &swap, &block] {
                let expected = TransformSeq::new(2)
                    .push(t.clone())
                    .unwrap()
                    .is_legal(&nest, &deps);
                let got = root.extend(t).unwrap_err();
                assert_eq!(
                    format!("{:?}", root.admits(t).unwrap_err()),
                    format!("{got:?}")
                );
                match (&got, &expected) {
                    (
                        ExtendError::Illegal(IllegalReason::CodeGen { step: 0, error }),
                        LegalityReport::Illegal(IllegalReason::CodeGen {
                            step: 0,
                            error: want,
                        }),
                    ) => {
                        assert!(matches!(t, Template::Unimodular { .. }));
                        assert_eq!(error, want);
                    }
                    (
                        ExtendError::Illegal(IllegalReason::Dependences { .. }),
                        LegalityReport::Illegal(IllegalReason::Dependences { .. }),
                    ) => assert!(!matches!(t, Template::Unimodular { .. })),
                    _ => panic!("{t}: extend {got:?}, is_legal {expected:?}"),
                }
            }
        }
    }

    /// `admits` runs the decision `extend` runs and stops there: the
    /// extension is counted, but nothing is pruned or generated, and a
    /// cache holds a verdict-only entry that `extend` later replaces.
    #[test]
    fn admits_decides_without_building_a_child() {
        let (nest, deps) = stencil();
        let tel = Telemetry::enabled();
        let cache = SharedLegalityCache::new();
        let root = SeqState::root(&nest, &deps)
            .with_telemetry(tel.clone())
            .with_shared(cache.clone(), 0);
        let skew = Template::unimodular(IntMatrix::skew(2, 0, 1, 1)).unwrap();
        root.admits(&skew).unwrap();
        assert!(root
            .admits(&Template::parallelize(vec![true, true]))
            .is_err());
        let r = tel.report();
        assert_eq!(r.counter("legality/extensions"), 2);
        assert_eq!(r.counter("legality/reject/dependences"), 1);
        assert_eq!(r.counter("legality/prune/calls"), 0);
        // The skew's entry answers `admits`, not `extend`.
        assert_eq!(root.shared_probe(&skew), Some(false));
        let child = root.extend(&skew).unwrap();
        assert_eq!(root.shared_probe(&skew), Some(true));
        assert_eq!(child.shape(), root.extend(&skew).unwrap().shape());
        assert_eq!(tel.report().counter("legality/prune/calls"), 1);
    }

    #[test]
    fn size_mismatch_is_not_illegal() {
        let (nest, deps) = stencil();
        let root = SeqState::root(&nest, &deps);
        let err = root
            .extend(&Template::parallelize(vec![true; 3]))
            .unwrap_err();
        assert!(!err.is_illegal());
        assert!(err.to_string().contains("3-deep"));
        let err = root
            .admits(&Template::parallelize(vec![true; 3]))
            .unwrap_err();
        assert!(!err.is_illegal());
    }

    #[test]
    fn precondition_rejection_reports_step_index() {
        let nest = parse_nest("do i = 1, n\n do j = 1, i\n  a(i, j) = 0\n enddo\nenddo").unwrap();
        let root = SeqState::root(&nest, &DepSet::new());
        let s = root
            .extend(&Template::parallelize(vec![false, false]))
            .unwrap();
        let swap = Template::reverse_permute(vec![false, false], vec![1, 0]).unwrap();
        match s.extend(&swap) {
            Err(ExtendError::Illegal(IllegalReason::Precondition { step, .. })) => {
                assert_eq!(step, 1)
            }
            other => panic!("expected precondition rejection, got {other:?}"),
        }
    }

    #[test]
    fn pruning_preserves_verdicts_and_tuples() {
        let (nest, _) = stencil();
        // (+, *) covers (1, 2): a set with redundancy.
        let deps = DepSet::from_vectors(vec![
            irlt_dependence::DepVector::distances(&[1, 2]),
            irlt_dependence::DepVector::new(vec![
                irlt_dependence::DepElem::POS,
                irlt_dependence::DepElem::ANY,
            ]),
            irlt_dependence::DepVector::distances(&[0, 1]),
        ])
        .unwrap();
        let root = SeqState::root(&nest, &deps);
        assert_eq!(root.mapped_deps().len(), 2);
        let swap = Template::unimodular(IntMatrix::interchange(2, 0, 1)).unwrap();
        let skew = Template::unimodular(IntMatrix::skew(2, 0, 1, 1)).unwrap();
        for t in [skew, swap] {
            let seq = TransformSeq::new(2).push(t.clone()).unwrap();
            let extended = root.extend(&t);
            assert_eq!(extended.is_ok(), seq.is_legal(&nest, &deps).is_legal());
            if let Ok(s) = extended {
                let oracle = seq.map_deps(&deps).prune_subsumed();
                assert!(same_members(s.mapped_deps(), &oracle), "{oracle:?}");
            }
        }
    }

    #[test]
    fn telemetry_counts_cache_hits_and_rejections() {
        let (nest, deps) = stencil();
        let tel = Telemetry::enabled();
        let root = SeqState::root(&nest, &deps).with_telemetry(tel.clone());
        // Legal chain of two steps: skew then interchange.
        let s1 = root
            .extend(&Template::unimodular(IntMatrix::skew(2, 0, 1, 1)).unwrap())
            .unwrap();
        let s2 = s1
            .extend(&Template::unimodular(IntMatrix::interchange(2, 0, 1)).unwrap())
            .unwrap();
        // A dependence-illegal extension from the root (both loops carried).
        assert!(root
            .extend(&Template::parallelize(vec![true, true]))
            .is_err());
        // An arity mismatch: never reaches the legality test or counters.
        assert!(s2.extend(&Template::parallelize(vec![true; 3])).is_err());
        let r = tel.report();
        assert_eq!(r.counter("legality/extensions"), 3);
        // Only the extension of a non-root prefix is a cache hit.
        assert_eq!(r.counter("legality/cache/hits"), 1);
        assert_eq!(r.counter("legality/cache/steps_saved"), 1);
        assert_eq!(r.counter("legality/reject/dependences"), 1);
        assert_eq!(r.counter("depmap/failfast_short_circuits"), 1);
        // Pruning ran after each successful extension.
        assert_eq!(r.counter("legality/prune/calls"), 2);
        // Fan-out histograms are labelled by template.
        assert!(
            r.histograms.contains_key("depmap/fanout/Unimodular"),
            "{:?}",
            r.histograms
        );
        // The handle is inherited: s2 still records into the same sink.
        assert!(s2.extend(&Template::parallelize(vec![false, true])).is_ok());
        assert_eq!(tel.report().counter("legality/extensions"), 4);
    }

    #[test]
    fn telemetry_disabled_by_default_and_results_identical() {
        let (nest, deps) = stencil();
        let tel = Telemetry::enabled();
        let plain = SeqState::root(&nest, &deps);
        let observed = SeqState::root(&nest, &deps).with_telemetry(tel.clone());
        let t = Template::unimodular(IntMatrix::skew(2, 0, 1, 1)).unwrap();
        let a = plain.extend(&t).unwrap();
        let b = observed.extend(&t).unwrap();
        assert_eq!(a.mapped_deps(), b.mapped_deps());
        assert_eq!(a.shape(), b.shape());
        assert_eq!(a.seq().to_string(), b.seq().to_string());
        // The default state never recorded anything anywhere.
        assert!(plain.telemetry.report().counters.is_empty());
        assert!(tel.report().counter("legality/extensions") > 0);
    }

    #[test]
    fn shape_key_identifies_shapes_with_and_without_a_cache() {
        let (nest, deps) = stencil();
        let skew = Template::unimodular(IntMatrix::skew(2, 0, 1, 1)).unwrap();
        let swap = Template::reverse_permute(vec![false, false], vec![1, 0]).unwrap();
        let cache = SharedLegalityCache::new();
        for root in [
            SeqState::root(&nest, &deps),
            SeqState::root(&nest, &deps).with_shared(cache.clone(), 0),
        ] {
            let skewed = root.extend(&skew).unwrap();
            // Reaching the same shape again gives the same key…
            assert_eq!(skewed.shape_key(), root.extend(&skew).unwrap().shape_key());
            // …a different shape a different one.
            assert_ne!(skewed.shape_key(), root.shape_key());
            let swapped = root.extend(&swap).unwrap();
            assert_ne!(swapped.shape_key(), skewed.shape_key());
        }
        // Without a cache the key is the shape's structural fingerprint.
        let plain = SeqState::root(&nest, &deps);
        assert_eq!(plain.shape_key(), plain.shape().fingerprint128());
    }

    /// The verdict, shape and mapped set an extension reaches, for
    /// comparing two ways of extending.
    fn outcome(r: Result<SeqState, ExtendError>) -> Result<(LoopNest, DepSet), String> {
        r.map(|s| (s.shape().clone(), s.mapped_deps().clone()))
            .map_err(|e| format!("{e:?}"))
    }

    /// A key is an id in its own cache's pool only. Cache `a` gives id 0
    /// to the skew and cache `b` to the parallelization, and `b` holds
    /// entries for both, so a move keyed by `a` that `b` read by its id
    /// would replay the other template's outcome. It must instead
    /// extend exactly as the bare template does.
    #[test]
    fn moves_keyed_by_another_cache_extend_as_unkeyed() {
        let (nest, deps) = stencil();
        let skew = Template::unimodular(IntMatrix::skew(2, 0, 1, 1)).unwrap();
        let par = Template::parallelize(vec![true, false]);
        let (a, b) = (SharedLegalityCache::new(), SharedLegalityCache::new());
        let from_a = a.key_moves(vec![skew.clone(), par.clone()]);
        let from_b = b.key_moves(vec![par.clone(), skew.clone()]);
        assert_eq!(from_a[0].key().map(|k| k.template), Some(TemplateKey(0)));
        assert_eq!(from_b[0].key().map(|k| k.template), Some(TemplateKey(0)));
        let plain = SeqState::root(&nest, &deps);
        let on_b = SeqState::root(&nest, &deps).with_shared(b.clone(), 0);
        // Deposit both outcomes in `b`: the skew is legal, parallelizing
        // the carried outer loop is not.
        assert!(on_b.extend(&from_b[1]).is_ok());
        assert!(on_b.extend(&from_b[0]).is_err());
        for (mv, bare) in from_a.iter().zip([&skew, &par]) {
            let want = outcome(plain.extend(bare));
            assert_eq!(outcome(on_b.extend(mv)), want, "{bare}");
            assert_eq!(outcome(on_b.extend(bare)), want, "{bare}");
            assert_eq!(
                format!("{:?}", on_b.admits(mv)),
                format!("{:?}", plain.admits(bare)),
                "{bare}"
            );
        }
    }

    /// A move keyed by the state's own cache reaches the same outcome as
    /// the bare template, and probing it takes nothing from the pools.
    #[test]
    fn own_keyed_moves_skip_the_interner() {
        let (nest, deps) = stencil();
        let cache = SharedLegalityCache::new();
        let root = SeqState::root(&nest, &deps).with_shared(cache.clone(), 0);
        let templates = vec![
            Template::unimodular(IntMatrix::skew(2, 0, 1, 1)).unwrap(),
            Template::parallelize(vec![true, false]),
        ];
        let keyed = root.key_moves(templates.clone());
        let plain = SeqState::root(&nest, &deps);
        for (mv, bare) in keyed.iter().zip(&templates) {
            assert_eq!(outcome(root.extend(mv)), outcome(plain.extend(bare)));
        }
        let pools = |c: &SharedLegalityCache| {
            let s = c.stats();
            (s.interned_values, s.interner_hits, s.interner_verifies)
        };
        let before = pools(&cache);
        for mv in &keyed {
            assert!(root.shared_probe(mv).unwrap());
            assert!(root.admits(mv).is_ok() == (mv.template() == &templates[0]));
        }
        assert_eq!(pools(&cache), before);
        // A bare template pays one pool lookup per probe.
        for bare in &templates {
            assert!(root.shared_probe(bare).unwrap());
        }
        assert_eq!(cache.stats().interner_hits, before.1 + 2);
        // Without a cache the moves carry no key.
        assert!(plain.key_moves(templates).iter().all(|m| m.key().is_none()));
    }

    #[test]
    fn into_parts_roundtrip() {
        let (nest, _) = stencil();
        // Only the i-carried dependence: j is free to parallelize, and
        // `parmap` leaves (1, 0) unchanged.
        let deps = DepSet::from_distances(&[&[1, 0]]);
        let s = SeqState::root(&nest, &deps)
            .extend(&Template::parallelize(vec![false, true]))
            .unwrap();
        let (seq, shape, mapped) = s.into_parts();
        assert_eq!(seq.len(), 1);
        assert_eq!(shape.depth(), 2);
        assert_eq!(mapped, deps);
    }
}
