//! Code generation for the kernel templates (the second column of
//! Tables 3 and 4).
//!
//! Each template maps an input [`LoopNest`] to an output [`LoopNest`]
//! (possibly with a different number of loops) by rewriting loop bounds and
//! prepending *initialization statements* that define the consumed index
//! variables as functions of the new ones (Fig. 3). The loop body itself is
//! never touched — that is what makes these *iteration-reordering*
//! transformations.

mod block;
mod coalesce;
mod interleave;
mod reverse_permute;

use crate::precond::PrecondError;
use crate::template::Template;
use irlt_ir::{Expr, LoopNest, Symbol};
use irlt_unimodular::{IterSpace, UnimodularError, UnimodularTransform};
use std::fmt;

/// An error applying a template to a nest.
#[derive(Clone, Debug, PartialEq)]
pub enum ApplyError {
    /// A loop-bounds precondition was violated.
    Precond(PrecondError),
    /// The unimodular backend failed (nonlinear bounds discovered during
    /// scanning, unbounded transformed space, …).
    Unimodular(UnimodularError),
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::Precond(e) => write!(f, "precondition violated: {e}"),
            ApplyError::Unimodular(e) => write!(f, "unimodular code generation failed: {e}"),
        }
    }
}

impl std::error::Error for ApplyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ApplyError::Precond(e) => Some(e),
            ApplyError::Unimodular(e) => Some(e),
        }
    }
}

impl From<PrecondError> for ApplyError {
    fn from(e: PrecondError) -> Self {
        ApplyError::Precond(e)
    }
}

impl From<UnimodularError> for ApplyError {
    fn from(e: UnimodularError) -> Self {
        ApplyError::Unimodular(e)
    }
}

impl Template {
    /// Applies this template instantiation to a nest, checking its
    /// preconditions first.
    ///
    /// The output nest has [`Template::output_size`] loops; its `inits`
    /// are this template's new initialization statements followed by any
    /// inherited ones (the paper's `INIT_k, …, INIT_1` order).
    ///
    /// # Errors
    ///
    /// Returns [`ApplyError`] when a precondition fails or code generation
    /// is impossible.
    ///
    /// # Examples
    ///
    /// ```
    /// use irlt_core::Template;
    /// use irlt_ir::parse_nest;
    ///
    /// let nest = parse_nest("do i = 1, n\n  a(i) = a(i) + 1\nenddo")?;
    /// let t = Template::parallelize(vec![true]);
    /// let out = t.apply_to(&nest)?;
    /// assert!(out.level(0).kind.is_parallel());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn apply_to(&self, nest: &LoopNest) -> Result<LoopNest, ApplyError> {
        self.check_preconditions(nest)?;
        self.generate(nest)
    }

    /// Code generation without the precondition check, for the two
    /// legality engines ([`crate::SeqState::extend`] and
    /// [`crate::TransformSeq::is_legal`]), which have just run
    /// [`Template::check_preconditions`] on `nest` themselves.
    ///
    /// Once the preconditions hold, only `Unimodular` can fail, and only
    /// in normalizing `nest` ([`unimodular_normalization`]).
    ///
    /// The generators below write bounds, names and initializations; the
    /// kind of every output loop is then set from
    /// [`Template::output_kinds`], the one definition of kinds.
    pub(crate) fn generate(&self, nest: &LoopNest) -> Result<LoopNest, ApplyError> {
        let out = match self {
            Template::Unimodular { matrix } => {
                // The constructor validated the matrix: no determinant
                // re-check per call.
                UnimodularTransform::from_validated(matrix.clone()).apply(nest)?
            }
            Template::ReversePermute { rev, perm } => reverse_permute::apply(rev, perm, nest),
            Template::Parallelize { .. } => nest.clone(),
            Template::Block { i, j, bsize, .. } => block::apply(*i, *j, bsize, nest),
            Template::Coalesce { i, j, .. } => coalesce::apply(*i, *j, nest),
            Template::Interleave { i, j, isize_, .. } => interleave::apply(*i, *j, isize_, nest),
        };
        Ok(out.with_kinds(&self.output_kinds(&nest.kinds())))
    }
}

/// The `Unimodular` code generator's first step on `nest`: normalizing it
/// to a unit-step iteration space (`IterSpace::from_nest`). Returns the
/// error `Template::apply_to` would report if it fails.
///
/// On a nest that passes the `Unimodular` preconditions this is the only
/// step of that generator that can fail: depth and `pardo` loops are
/// precondition checks, and Fourier–Motzkin cannot report `Unbounded`
/// (argued in the `incremental` module docs).
pub(crate) fn unimodular_normalization(nest: &LoopNest) -> Result<(), ApplyError> {
    match IterSpace::from_nest(nest) {
        Ok(_) => Ok(()),
        Err(e) => Err(ApplyError::Unimodular(UnimodularError::Fm(e))),
    }
}

/// Derives a fresh outer-variable name from a loop variable: single-letter
/// names double (`i` → `ii`, matching the paper's `ii`/`jj`/`kk`),
/// longer names get a numeric suffix; collisions freshen further.
pub(crate) fn derived_name(base: &Symbol, nest: &LoopNest, also_taken: &[Symbol]) -> Symbol {
    let name = base.as_str();
    let candidate = if name.len() == 1 {
        Symbol::new(format!("{name}{name}"))
    } else {
        Symbol::new(format!("{name}2"))
    };
    let taken = nest.all_scalar_symbols();
    candidate.freshen(|s| taken.contains(s) || also_taken.contains(s))
}

/// `abs(e)`, folded for constants.
pub(crate) fn abs_expr(e: &Expr) -> Expr {
    match e.as_const() {
        Some(c) => Expr::int(c.abs()),
        None => Expr::call("abs", vec![e.clone()]),
    }
}

/// `sgn(e)`, folded for constants.
pub(crate) fn sgn_expr(e: &Expr) -> Expr {
    match e.as_const() {
        Some(c) => Expr::int(c.signum()),
        None => Expr::call("sgn", vec![e.clone()]),
    }
}

/// Trip count of a loop: `⌊(u − l)/s⌋ + 1` (empty loops are a run-time
/// concern; the framework assumes each loop executes, as the paper does).
pub(crate) fn trip_count(l: &Expr, u: &Expr, s: &Expr) -> Expr {
    Expr::add(
        Expr::floor_div(Expr::sub(u.clone(), l.clone()).simplify(), s.clone()),
        Expr::int(1),
    )
    .simplify()
}

#[cfg(test)]
mod tests {
    use super::*;
    use irlt_ir::parse_nest;

    #[test]
    fn parallelize_flips_kinds_only() {
        let nest = parse_nest("do i = 1, n\n do j = 1, i\n  a(i, j) = 0\n enddo\nenddo").unwrap();
        let t = Template::parallelize(vec![false, true]);
        let out = t.apply_to(&nest).unwrap();
        assert!(!out.level(0).kind.is_parallel());
        assert!(out.level(1).kind.is_parallel());
        assert_eq!(out.level(1).upper, nest.level(1).upper);
        assert_eq!(out.body(), nest.body());
        assert!(out.inits().is_empty());
    }

    #[test]
    fn trip_count_folds() {
        assert_eq!(
            trip_count(&Expr::int(1), &Expr::int(10), &Expr::int(3)),
            Expr::int(4)
        );
        assert_eq!(
            trip_count(&Expr::int(10), &Expr::int(1), &Expr::int(-4)),
            Expr::int(3)
        );
        let symbolic = trip_count(&Expr::int(1), &Expr::var("n"), &Expr::int(1));
        assert_eq!(symbolic.to_string(), "n"); // (n−1)/1+1 folds
    }

    #[test]
    fn abs_sgn_fold() {
        assert_eq!(abs_expr(&Expr::int(-3)), Expr::int(3));
        assert_eq!(sgn_expr(&Expr::int(-3)), Expr::int(-1));
        assert_eq!(sgn_expr(&Expr::int(0)), Expr::int(0));
        assert_eq!(abs_expr(&Expr::var("s")).to_string(), "abs(s)");
    }

    #[test]
    fn derived_names_avoid_collisions() {
        let nest = parse_nest("do i = 1, n\n do ii = 1, i\n  a(i, ii) = 0\n enddo\nenddo").unwrap();
        let d = derived_name(&Symbol::new("i"), &nest, &[]);
        assert_eq!(d, "ii_1");
        let d2 = derived_name(&Symbol::new("i"), &nest, std::slice::from_ref(&d));
        assert_eq!(d2, "ii_2");
    }
}
