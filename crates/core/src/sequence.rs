//! The sequence representation of iteration-reordering transformations
//! (§2) and the uniform legality test (§§3–4).
//!
//! An iteration-reordering transformation is a sequence
//! `T = ⟨t₁, …, t_k⟩` of template instantiations. Composition of
//! transformations is **sequence concatenation** — the system is closed
//! under composition by construction — with an optional peephole *fusion*
//! pass that merges adjacent compatible instantiations (two `Unimodular`s
//! multiply into one, two `ReversePermute`s compose, two `Parallelize`s
//! union).
//!
//! The uniform legality test [`TransformSeq::is_legal`] has the paper's two
//! parts: (a) map the dependence set through the whole sequence and reject
//! iff the *final* set admits a lexicographically negative tuple —
//! intermediate stages need not be legal; (b) check each instantiation's
//! loop-bounds preconditions against the (intermediate) nest it applies to.

use crate::codegen::ApplyError;
use crate::precond::PrecondError;
use crate::template::{Template, TemplateError};
use irlt_dependence::{DepSet, DepVector};
use irlt_ir::{Expr, LoopNest, Stmt};
use irlt_unimodular::IntMatrix;
use std::fmt;
use std::sync::Arc;

/// An extensible kernel template: implement this to add a new
/// transformation to the framework ("ease of addition of new
/// transformations by specifying new rules").
///
/// The three rule families of §2 map onto the three required methods:
/// dependence-vector mapping, precondition checking (the loop-bounds
/// rules' guard), and code generation (bounds mapping + initialization
/// statements).
pub trait KernelTemplate: fmt::Debug + Send + Sync {
    /// Template name for diagnostics.
    fn template_name(&self) -> String;
    /// Input nest size.
    fn input_size(&self) -> usize;
    /// Output nest size.
    fn output_size(&self) -> usize;
    /// The dependence-vector mapping rule.
    fn map_dep_vector(&self, d: &DepVector) -> Vec<DepVector>;
    /// The loop-bounds precondition rule.
    ///
    /// # Errors
    ///
    /// Returns the first violated precondition.
    fn check_preconditions(&self, nest: &LoopNest) -> Result<(), PrecondError>;
    /// The code-generation rule (bounds mapping + initializations).
    ///
    /// # Errors
    ///
    /// Returns [`ApplyError`] when the nest cannot be transformed.
    fn apply_to(&self, nest: &LoopNest) -> Result<LoopNest, ApplyError>;
}

impl KernelTemplate for Template {
    fn template_name(&self) -> String {
        self.name().to_string()
    }

    fn input_size(&self) -> usize {
        Template::input_size(self)
    }

    fn output_size(&self) -> usize {
        Template::output_size(self)
    }

    fn map_dep_vector(&self, d: &DepVector) -> Vec<DepVector> {
        Template::map_dep_vector(self, d)
    }

    fn check_preconditions(&self, nest: &LoopNest) -> Result<(), PrecondError> {
        Template::check_preconditions(self, nest)
    }

    fn apply_to(&self, nest: &LoopNest) -> Result<LoopNest, ApplyError> {
        Template::apply_to(self, nest)
    }
}

/// One element of a sequence: a built-in kernel template or a user
/// extension.
#[derive(Clone, Debug)]
pub enum Step {
    /// One of the six Table 1 templates.
    Builtin(Template),
    /// A user-defined template.
    Custom(Arc<dyn KernelTemplate>),
}

impl Step {
    /// Diagnostic name.
    pub fn name(&self) -> String {
        match self {
            Step::Builtin(t) => t.name().to_string(),
            Step::Custom(t) => t.template_name(),
        }
    }

    /// Input nest size.
    pub fn input_size(&self) -> usize {
        match self {
            Step::Builtin(t) => t.input_size(),
            Step::Custom(t) => t.input_size(),
        }
    }

    /// Output nest size.
    pub fn output_size(&self) -> usize {
        match self {
            Step::Builtin(t) => t.output_size(),
            Step::Custom(t) => t.output_size(),
        }
    }

    /// Dependence mapping for a whole set.
    ///
    /// # Panics
    ///
    /// Panics if the set arity differs from the step's input size.
    pub fn map_dep_set(&self, deps: &DepSet) -> DepSet {
        match self {
            Step::Builtin(t) => t.map_dep_set(deps),
            Step::Custom(t) => deps.map_vectors(|v| t.map_dep_vector(v)),
        }
    }

    /// [`Step::map_dep_set`] with telemetry: records the per-vector image
    /// fan-out histogram under `depmap/fanout/<template name>` plus the
    /// `depmap/*` mapping counters. Identical to `map_dep_set` when the
    /// handle is disabled.
    ///
    /// # Panics
    ///
    /// Panics if the set arity differs from the step's input size.
    pub fn map_dep_set_observed(&self, deps: &DepSet, tel: &irlt_obs::Telemetry) -> DepSet {
        deps.map_vectors_observed(|v| self.map_dep_vector(v), tel, &self.name())
    }

    /// Dependence mapping for a single vector (the per-step rule).
    pub fn map_dep_vector(&self, d: &DepVector) -> Vec<DepVector> {
        match self {
            Step::Builtin(t) => t.map_dep_vector(d),
            Step::Custom(t) => t.map_dep_vector(d),
        }
    }

    /// Precondition check.
    ///
    /// # Errors
    ///
    /// Returns the first violated precondition.
    pub fn check_preconditions(&self, nest: &LoopNest) -> Result<(), PrecondError> {
        match self {
            Step::Builtin(t) => t.check_preconditions(nest),
            Step::Custom(t) => t.check_preconditions(nest),
        }
    }

    /// Code generation.
    ///
    /// # Errors
    ///
    /// Returns [`ApplyError`] when the nest cannot be transformed.
    pub fn apply_to(&self, nest: &LoopNest) -> Result<LoopNest, ApplyError> {
        match self {
            Step::Builtin(t) => t.apply_to(nest),
            Step::Custom(t) => t.apply_to(nest),
        }
    }

    /// Code generation after the caller has checked the preconditions: a
    /// built-in template skips its re-check, a user template runs its own
    /// `apply_to`.
    fn generate(&self, nest: &LoopNest) -> Result<LoopNest, ApplyError> {
        match self {
            Step::Builtin(t) => t.generate(nest),
            Step::Custom(t) => t.apply_to(nest),
        }
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Builtin(t) => write!(f, "{t}"),
            Step::Custom(t) => write!(f, "{}(custom)", t.template_name()),
        }
    }
}

/// A sequence-structure chaining error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SequenceError {
    /// A step's input size does not match the previous step's output size.
    SizeMismatch {
        /// 0-based position of the offending step.
        step: usize,
        /// Output size of the previous step (or the sequence input size).
        expected: usize,
        /// Input size of the offending step.
        found: usize,
    },
    /// Invalid template parameters.
    Template(TemplateError),
}

impl fmt::Display for SequenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SequenceError::SizeMismatch {
                step,
                expected,
                found,
            } => write!(
                f,
                "step {step} expects a {found}-deep nest but the running nest size is {expected}"
            ),
            SequenceError::Template(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SequenceError {}

impl From<TemplateError> for SequenceError {
    fn from(e: TemplateError) -> Self {
        SequenceError::Template(e)
    }
}

/// A transformation: a validated sequence of template instantiations.
///
/// # Examples
///
/// The Appendix A matrix-multiply transformation as a five-step sequence:
///
/// ```
/// use irlt_core::TransformSeq;
/// use irlt_ir::Expr;
///
/// let b = |s: &str| Expr::var(s);
/// let t = TransformSeq::new(3)
///     .reverse_permute(vec![false; 3], vec![2, 0, 1])?   // (i,j,k) → (j,k,i)
///     .block(0, 2, vec![b("bj"), b("bk"), b("bi")])?     // 3 → 6 loops
///     .parallelize(vec![true, false, true, false, false, false])?
///     .reverse_permute(vec![false; 6], vec![0, 2, 1, 3, 4, 5])?
///     .coalesce(0, 1)?;                                  // 6 → 5 loops
/// assert_eq!(t.output_size(), 5);
/// assert_eq!(t.len(), 5);
/// # Ok::<(), irlt_core::SequenceError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct TransformSeq {
    input_size: usize,
    steps: Vec<Step>,
}

impl TransformSeq {
    /// The empty (identity) transformation on nests of depth `n`.
    pub fn new(n: usize) -> TransformSeq {
        TransformSeq {
            input_size: n,
            steps: Vec::new(),
        }
    }

    /// Input nest size.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Output nest size (after the last step).
    pub fn output_size(&self) -> usize {
        self.steps.last().map_or(self.input_size, Step::output_size)
    }

    /// Number of template instantiations.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True for the identity sequence.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The steps.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Appends a template instantiation, checking size chaining.
    ///
    /// # Errors
    ///
    /// Returns [`SequenceError::SizeMismatch`] if the template's input size
    /// differs from the running output size.
    pub fn push(mut self, template: Template) -> Result<TransformSeq, SequenceError> {
        self.push_step(Step::Builtin(template))?;
        Ok(self)
    }

    /// Appends a user-defined template.
    ///
    /// # Errors
    ///
    /// Returns [`SequenceError::SizeMismatch`] on size mismatch.
    pub fn push_custom(
        mut self,
        template: Arc<dyn KernelTemplate>,
    ) -> Result<TransformSeq, SequenceError> {
        self.push_step(Step::Custom(template))?;
        Ok(self)
    }

    fn push_step(&mut self, step: Step) -> Result<(), SequenceError> {
        self.check_chain(step.input_size())?;
        self.steps.push(step);
        Ok(())
    }

    /// The chaining check [`TransformSeq::push`] runs, without pushing: a
    /// next step must take this sequence's output size as its input size.
    pub(crate) fn check_chain(&self, input_size: usize) -> Result<(), SequenceError> {
        let expected = self.output_size();
        if input_size != expected {
            return Err(SequenceError::SizeMismatch {
                step: self.steps.len(),
                expected,
                found: input_size,
            });
        }
        Ok(())
    }

    /// Appends `Unimodular(n, M)`.
    ///
    /// # Errors
    ///
    /// Returns [`SequenceError`] on an invalid matrix or size mismatch.
    pub fn unimodular(self, matrix: IntMatrix) -> Result<TransformSeq, SequenceError> {
        self.push(Template::unimodular(matrix)?)
    }

    /// Appends `ReversePermute(n, rev, perm)`.
    ///
    /// # Errors
    ///
    /// Returns [`SequenceError`] on invalid parameters or size mismatch.
    pub fn reverse_permute(
        self,
        rev: Vec<bool>,
        perm: Vec<usize>,
    ) -> Result<TransformSeq, SequenceError> {
        self.push(Template::reverse_permute(rev, perm)?)
    }

    /// Appends `Parallelize(n, parflag)`.
    ///
    /// # Errors
    ///
    /// Returns [`SequenceError::SizeMismatch`] on size mismatch.
    pub fn parallelize(self, parflag: Vec<bool>) -> Result<TransformSeq, SequenceError> {
        self.push(Template::parallelize(parflag))
    }

    /// Appends `Block(n, i, j, bsize)` over the current nest size.
    ///
    /// # Errors
    ///
    /// Returns [`SequenceError`] on invalid parameters.
    pub fn block(
        self,
        i: usize,
        j: usize,
        bsize: Vec<Expr>,
    ) -> Result<TransformSeq, SequenceError> {
        let n = self.output_size();
        self.push(Template::block(n, i, j, bsize)?)
    }

    /// Appends `Coalesce(n, i, j)` over the current nest size.
    ///
    /// # Errors
    ///
    /// Returns [`SequenceError`] on invalid parameters.
    pub fn coalesce(self, i: usize, j: usize) -> Result<TransformSeq, SequenceError> {
        let n = self.output_size();
        self.push(Template::coalesce(n, i, j)?)
    }

    /// Appends `Interleave(n, i, j, isize)` over the current nest size.
    ///
    /// # Errors
    ///
    /// Returns [`SequenceError`] on invalid parameters.
    pub fn interleave(
        self,
        i: usize,
        j: usize,
        isize_: Vec<Expr>,
    ) -> Result<TransformSeq, SequenceError> {
        let n = self.output_size();
        self.push(Template::interleave(n, i, j, isize_)?)
    }

    /// Composition by sequence concatenation (§2: `U ∘ T` is
    /// `⟨t₁ … t_k, u₁ … u_l⟩`).
    ///
    /// # Errors
    ///
    /// Returns [`SequenceError::SizeMismatch`] if `other`'s input size
    /// differs from `self`'s output size.
    pub fn then(mut self, other: TransformSeq) -> Result<TransformSeq, SequenceError> {
        if other.input_size != self.output_size() {
            return Err(SequenceError::SizeMismatch {
                step: self.steps.len(),
                expected: self.output_size(),
                found: other.input_size,
            });
        }
        self.steps.extend(other.steps);
        Ok(self)
    }

    /// Peephole fusion ("for the sake of efficiency, the concatenated
    /// sequence can be reduced in length"): adjacent `Unimodular`s multiply
    /// into one, adjacent `ReversePermute`s compose, adjacent
    /// `Parallelize`s union. Iterates to a fixed point. The fused sequence
    /// denotes the same transformation.
    #[must_use]
    pub fn fuse(&self) -> TransformSeq {
        let mut steps: Vec<Step> = Vec::with_capacity(self.steps.len());
        for step in &self.steps {
            let fused = match (steps.last(), &step) {
                (Some(Step::Builtin(prev)), Step::Builtin(next)) => fuse_pair(prev, next),
                _ => None,
            };
            match fused {
                Some(t) => {
                    steps.pop();
                    steps.push(Step::Builtin(t));
                }
                None => steps.push(step.clone()),
            }
        }
        TransformSeq {
            input_size: self.input_size,
            steps,
        }
    }

    /// Maps a dependence set through the whole sequence
    /// (`D_i = t_i(D_{i−1})`).
    ///
    /// # Panics
    ///
    /// Panics if `deps`' arity differs from the sequence input size.
    pub fn map_deps(&self, deps: &DepSet) -> DepSet {
        let mut d = deps.clone();
        for step in &self.steps {
            d = step.map_dep_set(&d);
        }
        d
    }

    /// The paper's uniform legality test `IsLegal(T, N)`.
    ///
    /// Part (a): the dependence set mapped through the *whole* sequence
    /// must admit no lexicographically negative tuple (individual stages
    /// need not be legal). Part (b): each instantiation's loop-bounds
    /// preconditions must hold on the intermediate nest it applies to.
    ///
    /// # Panics
    ///
    /// Panics if `deps`' arity differs from the nest depth.
    pub fn is_legal(&self, nest: &LoopNest, deps: &DepSet) -> LegalityReport {
        // Part (b): walk a body-less shape through the sequence, checking
        // preconditions — this is the cheap "matrix representation" pass:
        // the loop body is never copied or rewritten.
        let mut shape = LoopNest::with_inits(nest.loops().to_vec(), Vec::new(), Vec::new());
        for (k, step) in self.steps.iter().enumerate() {
            if let Err(e) = step.check_preconditions(&shape) {
                return LegalityReport::Illegal(IllegalReason::Precondition { step: k, error: e });
            }
            match step.generate(&shape) {
                Ok(next) => {
                    shape = LoopNest::with_inits(next.loops().to_vec(), Vec::new(), Vec::new());
                }
                Err(e) => {
                    return LegalityReport::Illegal(IllegalReason::CodeGen { step: k, error: e })
                }
            }
        }
        // Part (a): final dependence set.
        let mapped = self.map_deps(deps);
        if mapped.is_legal() {
            LegalityReport::Legal
        } else {
            let witnesses = mapped
                .lex_negative_witnesses()
                .into_iter()
                .cloned()
                .collect();
            LegalityReport::Illegal(IllegalReason::Dependences { witnesses })
        }
    }

    /// Generates code: applies every step's bounds mapping and collects the
    /// initialization statements in `INIT_k, …, INIT_1` order.
    ///
    /// # Errors
    ///
    /// Returns the first failing step and its error.
    pub fn apply(&self, nest: &LoopNest) -> Result<LoopNest, SeqApplyError> {
        let mut current = nest.clone();
        for (k, step) in self.steps.iter().enumerate() {
            current = step
                .apply_to(&current)
                .map_err(|error| SeqApplyError { step: k, error })?;
        }
        Ok(current)
    }

    /// Applies the sequence and also returns the mapped dependence set —
    /// "this avoids recomputing the dependence vectors for the transformed
    /// loop nest, which is in general an expensive operation."
    ///
    /// # Errors
    ///
    /// Returns the first failing step and its error.
    pub fn apply_with_deps(
        &self,
        nest: &LoopNest,
        deps: &DepSet,
    ) -> Result<(LoopNest, DepSet), SeqApplyError> {
        Ok((self.apply(nest)?, self.map_deps(deps)))
    }
}

impl fmt::Display for TransformSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (k, s) in self.steps.iter().enumerate() {
            if k > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "⟩")
    }
}

/// Fuses two adjacent built-in instantiations when an equivalent single
/// instantiation exists.
fn fuse_pair(prev: &Template, next: &Template) -> Option<Template> {
    match (prev, next) {
        (Template::Unimodular { matrix: m1 }, Template::Unimodular { matrix: m2 }) => {
            Some(Template::Unimodular { matrix: m2.mul(m1) })
        }
        (
            Template::ReversePermute { rev: r1, perm: p1 },
            Template::ReversePermute { rev: r2, perm: p2 },
        ) => {
            // Loop k: reversed by r1[k], lands at p1[k]; then reversed by
            // r2[p1[k]], lands at p2[p1[k]].
            let rev = (0..r1.len())
                .map(|k| r1[k] ^ r2[p1.new_position(k)])
                .collect();
            Some(Template::ReversePermute {
                rev,
                perm: p1.then(p2),
            })
        }
        (Template::Parallelize { parflag: f1 }, Template::Parallelize { parflag: f2 }) => {
            Some(Template::Parallelize {
                parflag: f1.iter().zip(f2).map(|(&a, &b)| a || b).collect(),
            })
        }
        _ => None,
    }
}

/// Outcome of [`TransformSeq::is_legal`].
#[derive(Clone, Debug, PartialEq)]
pub enum LegalityReport {
    /// Both parts of the test pass.
    Legal,
    /// The transformation is illegal for this nest.
    Illegal(IllegalReason),
}

impl LegalityReport {
    /// True if the transformation may be applied.
    pub fn is_legal(&self) -> bool {
        matches!(self, LegalityReport::Legal)
    }
}

impl fmt::Display for LegalityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LegalityReport::Legal => f.write_str("legal"),
            LegalityReport::Illegal(r) => write!(f, "illegal: {r}"),
        }
    }
}

/// Why a transformation was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum IllegalReason {
    /// The final mapped dependence set admits a lexicographically negative
    /// tuple.
    Dependences {
        /// The offending mapped vectors.
        witnesses: Vec<DepVector>,
    },
    /// A step's loop-bounds precondition failed.
    Precondition {
        /// 0-based step index.
        step: usize,
        /// The violation.
        error: PrecondError,
    },
    /// A step's code generation failed on the intermediate nest.
    CodeGen {
        /// 0-based step index.
        step: usize,
        /// The failure.
        error: ApplyError,
    },
}

impl fmt::Display for IllegalReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IllegalReason::Dependences { witnesses } => {
                write!(
                    f,
                    "transformed dependence set admits a lexicographically negative tuple: "
                )?;
                for (k, w) in witnesses.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{w}")?;
                }
                Ok(())
            }
            IllegalReason::Precondition { step, error } => {
                write!(f, "step {step}: {error}")
            }
            IllegalReason::CodeGen { step, error } => write!(f, "step {step}: {error}"),
        }
    }
}

/// A code-generation failure inside a sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct SeqApplyError {
    /// 0-based step index.
    pub step: usize,
    /// The failure.
    pub error: ApplyError,
}

impl fmt::Display for SeqApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "step {}: {}", self.step, self.error)
    }
}

impl std::error::Error for SeqApplyError {}

/// Convenience: checks whether a statement list is a pure prefix of scalar
/// initializations (used in tests and by the interpreter's decoding).
pub fn init_prefix(stmts: &[Stmt]) -> usize {
    stmts
        .iter()
        .take_while(|s| matches!(s.target(), Some(irlt_ir::Target::Scalar(_))))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    use irlt_ir::parse_nest;

    fn stencil() -> (LoopNest, DepSet) {
        let nest = parse_nest(
            "do i = 2, n - 1\n do j = 2, n - 1\n  a(i, j) = a(i - 1, j) + a(i, j - 1)\n enddo\nenddo",
        )
        .unwrap();
        let deps = DepSet::from_distances(&[&[1, 0], &[0, 1]]);
        (nest, deps)
    }

    #[test]
    fn size_chaining_enforced() {
        let err = TransformSeq::new(2)
            .parallelize(vec![true, false, false])
            .unwrap_err();
        assert_eq!(
            err,
            SequenceError::SizeMismatch {
                step: 0,
                expected: 2,
                found: 3
            }
        );
        // Block grows the size; the next step must match.
        let t = TransformSeq::new(2)
            .block(0, 1, vec![Expr::int(4), Expr::int(4)])
            .unwrap();
        assert_eq!(t.output_size(), 4);
        assert!(t.clone().parallelize(vec![true; 4]).is_ok());
        assert!(t.parallelize(vec![true; 2]).is_err());
    }

    #[test]
    fn composition_is_concatenation() {
        let a = TransformSeq::new(2).parallelize(vec![true, false]).unwrap();
        let b = TransformSeq::new(2)
            .reverse_permute(vec![false, false], vec![1, 0])
            .unwrap();
        let ab = a.then(b).unwrap();
        assert_eq!(ab.len(), 2);
        assert_eq!(ab.output_size(), 2);
        let c = TransformSeq::new(3);
        assert!(ab.then(c).is_err());
    }

    #[test]
    fn figure1_sequence_skew_then_interchange() {
        // Fig. 1: skew j by i (Unimodular), then interchange (either
        // template). Dependences (1,0) and (0,1) stay legal.
        let (nest, deps) = stencil();
        let t = TransformSeq::new(2)
            .unimodular(IntMatrix::skew(2, 0, 1, 1))
            .unwrap()
            .unimodular(IntMatrix::interchange(2, 0, 1))
            .unwrap();
        assert!(t.is_legal(&nest, &deps).is_legal());
        let mapped = t.map_deps(&deps);
        assert!(mapped.vectors().contains(&DepVector::distances(&[1, 1])));
        assert!(mapped.vectors().contains(&DepVector::distances(&[1, 0])));
        let out = t.apply(&nest).unwrap();
        assert_eq!(out.depth(), 2);
    }

    #[test]
    fn intermediate_illegality_is_allowed() {
        // §3.2: "each individual transformation stage need not be legal,
        // only that the final result be legal." Interchange alone is
        // illegal on (1,−1); interchanging twice is the identity and legal.
        let nest =
            parse_nest("do i = 2, n\n do j = 1, n - 1\n  a(i, j) = a(i - 1, j + 1)\n enddo\nenddo")
                .unwrap();
        let deps = DepSet::from_distances(&[&[1, -1]]);
        let swap_once = TransformSeq::new(2)
            .reverse_permute(vec![false, false], vec![1, 0])
            .unwrap();
        assert!(!swap_once.is_legal(&nest, &deps).is_legal());
        let swap_twice = swap_once
            .then(
                TransformSeq::new(2)
                    .reverse_permute(vec![false, false], vec![1, 0])
                    .unwrap(),
            )
            .unwrap();
        assert!(swap_twice.is_legal(&nest, &deps).is_legal());
    }

    #[test]
    fn dependence_rejection_reports_witnesses() {
        let nest =
            parse_nest("do i = 2, n\n do j = 1, n - 1\n  a(i, j) = a(i - 1, j + 1)\n enddo\nenddo")
                .unwrap();
        let deps = DepSet::from_distances(&[&[1, -1]]);
        let t = TransformSeq::new(2)
            .reverse_permute(vec![false, false], vec![1, 0])
            .unwrap();
        match t.is_legal(&nest, &deps) {
            LegalityReport::Illegal(IllegalReason::Dependences { witnesses }) => {
                assert_eq!(witnesses, vec![DepVector::distances(&[-1, 1])]);
            }
            other => panic!("expected dependence rejection, got {other:?}"),
        }
    }

    #[test]
    fn precondition_rejection_reports_step() {
        // Interchanging a triangular nest with ReversePermute violates its
        // invariance precondition at step 1 (after a no-op parallelize).
        let nest = parse_nest("do i = 1, n\n do j = 1, i\n  a(i, j) = 0\n enddo\nenddo").unwrap();
        let deps = DepSet::new();
        let t = TransformSeq::new(2)
            .parallelize(vec![false, false])
            .unwrap()
            .reverse_permute(vec![false, false], vec![1, 0])
            .unwrap();
        match t.is_legal(&nest, &deps) {
            LegalityReport::Illegal(IllegalReason::Precondition { step, .. }) => {
                assert_eq!(step, 1);
            }
            other => panic!("expected precondition rejection, got {other:?}"),
        }
    }

    #[test]
    fn fuse_unimodular_pairs() {
        let t = TransformSeq::new(2)
            .unimodular(IntMatrix::skew(2, 0, 1, 1))
            .unwrap()
            .unimodular(IntMatrix::interchange(2, 0, 1))
            .unwrap();
        let fused = t.fuse();
        assert_eq!(fused.len(), 1);
        match &fused.steps()[0] {
            Step::Builtin(Template::Unimodular { matrix }) => {
                assert_eq!(matrix, &IntMatrix::from_rows(&[&[1, 1], &[1, 0]]));
            }
            other => panic!("expected fused Unimodular, got {other:?}"),
        }
        // Same dependence mapping.
        let d = DepSet::from_distances(&[&[1, 0], &[0, 1]]);
        assert_eq!(t.map_deps(&d), fused.map_deps(&d));
    }

    #[test]
    fn fuse_reverse_permute_pairs() {
        // Reverse j + interchange, then interchange back: net effect is
        // reverse j in place.
        let t = TransformSeq::new(2)
            .reverse_permute(vec![false, true], vec![1, 0])
            .unwrap()
            .reverse_permute(vec![false, false], vec![1, 0])
            .unwrap();
        let fused = t.fuse();
        assert_eq!(fused.len(), 1);
        match &fused.steps()[0] {
            Step::Builtin(Template::ReversePermute { rev, perm }) => {
                assert_eq!(rev, &vec![false, true]);
                assert!(perm.is_identity());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fuse_double_reversal_cancels() {
        let t = TransformSeq::new(1)
            .reverse_permute(vec![true], vec![0])
            .unwrap()
            .reverse_permute(vec![true], vec![0])
            .unwrap();
        let fused = t.fuse();
        match &fused.steps()[0] {
            Step::Builtin(Template::ReversePermute { rev, perm }) => {
                assert_eq!(rev, &vec![false]);
                assert!(perm.is_identity());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fuse_parallelize_unions() {
        let t = TransformSeq::new(2)
            .parallelize(vec![true, false])
            .unwrap()
            .parallelize(vec![false, true])
            .unwrap();
        let fused = t.fuse();
        assert_eq!(fused.len(), 1);
        match &fused.steps()[0] {
            Step::Builtin(Template::Parallelize { parflag }) => {
                assert_eq!(parflag, &vec![true, true]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fuse_stops_at_incompatible_neighbors() {
        let t = TransformSeq::new(2)
            .unimodular(IntMatrix::identity(2))
            .unwrap()
            .parallelize(vec![true, false])
            .unwrap()
            .unimodular(IntMatrix::identity(2))
            .unwrap();
        assert_eq!(t.fuse().len(), 3);
    }

    #[test]
    fn fusion_preserves_codegen_semantics() {
        let (nest, _) = stencil();
        let t = TransformSeq::new(2)
            .reverse_permute(vec![true, false], vec![0, 1])
            .unwrap()
            .reverse_permute(vec![true, false], vec![0, 1])
            .unwrap();
        let fused = t.fuse();
        // Double reversal fused = identity ReversePermute: bounds exactly
        // as the original.
        let out = fused.apply(&nest).unwrap();
        assert_eq!(out.level(0).lower, nest.level(0).lower);
        assert_eq!(out.level(0).upper, nest.level(0).upper);
    }

    #[test]
    fn apply_reports_failing_step() {
        let nest = parse_nest("do i = 1, n\n do j = 1, i\n  a(i, j) = 0\n enddo\nenddo").unwrap();
        let t = TransformSeq::new(2)
            .parallelize(vec![false; 2])
            .unwrap()
            .reverse_permute(vec![false, false], vec![1, 0])
            .unwrap();
        let err = t.apply(&nest).unwrap_err();
        assert_eq!(err.step, 1);
        assert!(matches!(err.error, ApplyError::Precond(_)));
    }

    #[test]
    fn empty_sequence_is_identity() {
        let (nest, deps) = stencil();
        let t = TransformSeq::new(2);
        assert!(t.is_legal(&nest, &deps).is_legal());
        assert_eq!(t.apply(&nest).unwrap(), nest);
        assert_eq!(t.map_deps(&deps), deps);
        assert!(t.is_empty());
    }

    #[test]
    fn display_renders_sequence() {
        let t = TransformSeq::new(2)
            .parallelize(vec![true, false])
            .unwrap()
            .coalesce(0, 1)
            .unwrap();
        let s = t.to_string();
        assert!(s.contains("Parallelize") && s.contains("Coalesce"), "{s}");
    }

    #[test]
    fn custom_template_participates() {
        // A trivial user extension: "identity" template.
        #[derive(Debug)]
        struct Nop(usize);
        impl KernelTemplate for Nop {
            fn template_name(&self) -> String {
                "Nop".into()
            }
            fn input_size(&self) -> usize {
                self.0
            }
            fn output_size(&self) -> usize {
                self.0
            }
            fn map_dep_vector(&self, d: &DepVector) -> Vec<DepVector> {
                vec![d.clone()]
            }
            fn check_preconditions(&self, _nest: &LoopNest) -> Result<(), PrecondError> {
                Ok(())
            }
            fn apply_to(&self, nest: &LoopNest) -> Result<LoopNest, ApplyError> {
                Ok(nest.clone())
            }
        }
        let (nest, _) = stencil();
        // Only the i-carried dependence: the inner loop is parallelizable.
        let deps = DepSet::from_distances(&[&[1, 0]]);
        let t = TransformSeq::new(2)
            .push_custom(Arc::new(Nop(2)))
            .unwrap()
            .parallelize(vec![false, true])
            .unwrap();
        assert!(t.is_legal(&nest, &deps).is_legal());
        let out = t.apply(&nest).unwrap();
        assert!(out.level(1).kind.is_parallel());
        assert!(t.to_string().contains("Nop(custom)"));
    }

    #[test]
    fn init_prefix_counts_scalars() {
        let stmts = vec![
            Stmt::scalar("i", Expr::int(0)),
            Stmt::scalar("j", Expr::int(0)),
            Stmt::array("a", vec![Expr::var("i")], Expr::int(1)),
        ];
        assert_eq!(init_prefix(&stmts), 2);
    }

    #[test]
    fn block_then_parallelize_dependence_flow() {
        // Matmul-like deps (0,0,1): block all three then parallelize the
        // two block loops that do NOT carry the k dependence — legal.
        let deps = DepSet::from_distances(&[&[0, 0, 1]]);
        let t = TransformSeq::new(3)
            .block(0, 2, vec![Expr::var("b"); 3])
            .unwrap()
            .parallelize(vec![true, true, false, false, false, false])
            .unwrap();
        let mapped = t.map_deps(&deps);
        assert!(mapped.is_legal(), "{mapped}");
        // Parallelizing the third block loop (which carries k) is illegal.
        let t = TransformSeq::new(3)
            .block(0, 2, vec![Expr::var("b"); 3])
            .unwrap()
            .parallelize(vec![false, false, true, false, false, false])
            .unwrap();
        assert!(!t.map_deps(&deps).is_legal());
    }
}
