//! Iteration spaces as linear inequality systems and Fourier–Motzkin
//! elimination.
//!
//! The `Unimodular(n, M)` template's code generation (Table 3, citing
//! Irigoin's hyperplane code generation and Wolf & Lam) works by
//!
//! 1. normalizing each loop to step 1 ("if the (constant) step value is ≠ 1,
//!    then the bounds are normalized to step = 1 before applying the
//!    unimodular transformation"),
//! 2. expressing the iteration space as a system of linear inequalities
//!    `coeffs · x + rest ≥ 0` (with `rest` an arbitrary loop-invariant
//!    expression — the symbolic "(i, 0) entry" of the paper's matrices),
//! 3. changing basis to `y = M·x` (so `x = M⁻¹·y`, exact because `M` is
//!    unimodular), and
//! 4. scanning the transformed polytope with Fourier–Motzkin elimination:
//!    bounds of the innermost variable are read off, the variable is
//!    eliminated, and the process repeats outward. Multiple bounds become
//!    `max`/`min` expressions with `ceil`/`floor` divisions — exactly the
//!    special bound form §4.1 classifies as linear.

use crate::matrix::IntMatrix;
use irlt_ir::{bound_linear_terms, BoundSide, Expr, LinearForm, LoopNest, Symbol};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A linear inequality `coeffs · vars + rest ≥ 0` over an ordered variable
/// list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinIneq {
    /// Integer coefficients, one per variable (outermost first).
    pub coeffs: Vec<i64>,
    /// Loop-invariant remainder expression.
    pub rest: Expr,
}

impl LinIneq {
    /// Creates an inequality.
    pub fn new(coeffs: Vec<i64>, rest: Expr) -> LinIneq {
        LinIneq { coeffs, rest }
    }

    /// True if every variable coefficient is zero.
    pub fn is_variable_free(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }

    /// Evaluates `coeffs · point + rest` with `rest` required constant.
    ///
    /// # Panics
    ///
    /// Panics if `rest` is not a literal constant or arities mismatch.
    pub fn eval_const(&self, point: &[i64]) -> i64 {
        assert_eq!(point.len(), self.coeffs.len(), "arity mismatch");
        let rest = self.rest.as_const().expect("constant rest");
        self.coeffs
            .iter()
            .zip(point)
            .map(|(&c, &x)| c * x)
            .sum::<i64>()
            + rest
    }

    fn combine(pos: &LinIneq, neg: &LinIneq, k: usize) -> LinIneq {
        // pos has coeffs[k] > 0, neg has coeffs[k] < 0; the combination
        // (−neg_k)·pos + (pos_k)·neg eliminates variable k.
        let a = pos.coeffs[k];
        let b = neg.coeffs[k];
        debug_assert!(a > 0 && b < 0);
        let coeffs: Vec<i64> = pos
            .coeffs
            .iter()
            .zip(&neg.coeffs)
            .map(|(&p, &q)| (-b) * p + a * q)
            .collect();
        debug_assert_eq!(coeffs[k], 0);
        let rest = Expr::add(
            Expr::mul(Expr::int(-b), pos.rest.clone()),
            Expr::mul(Expr::int(a), neg.rest.clone()),
        );
        LinIneq { coeffs, rest }
    }
}

impl fmt::Display for LinIneq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, &c) in self.coeffs.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if first {
                write!(f, "{c}·x{k}")?;
                first = false;
            } else {
                write!(f, " + {c}·x{k}")?;
            }
        }
        if first {
            write!(f, "{} >= 0", self.rest)
        } else {
            write!(f, " + {} >= 0", self.rest)
        }
    }
}

/// Errors from iteration-space construction or bound generation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FmError {
    /// A bound expression is not (special-case) linear in the indices.
    NotAffine {
        /// 0-based loop level.
        level: usize,
        /// Which bound failed.
        side: BoundSide,
    },
    /// A step expression is not a nonzero compile-time constant.
    NonConstStep {
        /// 0-based loop level.
        level: usize,
    },
    /// A non-unit-step loop has a `max`/`min` bound on the side used as the
    /// normalization origin; normalization needs a single expression.
    CompositeOrigin {
        /// 0-based loop level.
        level: usize,
    },
    /// Fourier–Motzkin found no lower or upper bound for a variable — the
    /// transformed space is unbounded (the transformation matrix does not
    /// scan a finite polytope).
    Unbounded {
        /// 0-based variable index lacking a bound.
        level: usize,
    },
}

impl fmt::Display for FmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FmError::NotAffine { level, side } => {
                write!(f, "bound {side:?} of loop {level} is not affine in the loop indices")
            }
            FmError::NonConstStep { level } => {
                write!(f, "step of loop {level} is not a nonzero compile-time constant")
            }
            FmError::CompositeOrigin { level } => write!(
                f,
                "loop {level} has a non-unit step and a max/min bound at its origin; cannot normalize"
            ),
            FmError::Unbounded { level } => {
                write!(f, "variable {level} has no finite bound after transformation")
            }
        }
    }
}

impl std::error::Error for FmError {}

/// An iteration space over unit-step variables, as inequalities.
#[derive(Clone, Debug)]
pub struct IterSpace {
    names: Vec<Symbol>,
    ineqs: Vec<LinIneq>,
}

/// Result of [`IterSpace::from_nest`]: the space plus the substitutions
/// rebinding original index variables in terms of the normalized ones
/// (empty when every step is already 1).
#[derive(Clone, Debug)]
pub struct NormalizedSpace {
    /// The unit-step iteration space.
    pub space: IterSpace,
    /// `original variable ↦ expression over normalized variables`, for
    /// loops whose step was not 1.
    pub rebinds: Vec<(Symbol, Expr)>,
}

impl IterSpace {
    /// Builds the unit-step inequality system of a nest, normalizing
    /// non-unit constant steps (`x_k = l_k + s_k · z_k`, `z_k ≥ 0`).
    ///
    /// # Errors
    ///
    /// Returns [`FmError`] if a step is not a nonzero constant, a bound is
    /// not (special-case §4.1) linear, or a non-unit-step loop has a
    /// composite origin bound.
    pub fn from_nest(nest: &LoopNest) -> Result<NormalizedSpace, FmError> {
        let n = nest.depth();
        let mut names: Vec<Symbol> = Vec::with_capacity(n);
        let mut ineqs: Vec<LinIneq> = Vec::new();
        let mut rebinds: Vec<(Symbol, Expr)> = Vec::new();
        // original variable -> expression over normalized names
        let mut subst: BTreeMap<Symbol, Expr> = BTreeMap::new();
        // The nest's scalar symbols, collected on the first non-unit step
        // and shared by every later one.
        let mut taken: Option<BTreeSet<Symbol>> = None;

        for (k, l) in nest.loops().iter().enumerate() {
            let step = l
                .step
                .as_const()
                .ok_or(FmError::NonConstStep { level: k })?;
            if step == 0 {
                return Err(FmError::NonConstStep { level: k });
            }
            let subst_fn = |s: &Symbol| subst.get(s).cloned();
            let lower = l.lower.substitute(&subst_fn);
            let upper = l.upper.substitute(&subst_fn);
            let lower_terms = bound_linear_terms(&lower, BoundSide::Lower, step > 0, &names)
                .ok_or(FmError::NotAffine {
                    level: k,
                    side: BoundSide::Lower,
                })?;
            let upper_terms = bound_linear_terms(&upper, BoundSide::Upper, step > 0, &names)
                .ok_or(FmError::NotAffine {
                    level: k,
                    side: BoundSide::Upper,
                })?;

            if step == 1 {
                let name = l.var.clone();
                names.push(name);
                // x_k − lo ≥ 0 for every lower term; up − x_k ≥ 0 for every
                // upper term.
                for t in &lower_terms {
                    ineqs.push(var_minus_form(k, n, t, &names));
                }
                for t in &upper_terms {
                    ineqs.push(form_minus_var(k, n, t, &names));
                }
            } else {
                // Normalize: x = origin + step·z with z ≥ 0 counting
                // iterations. The origin is always the loop's *start* —
                // the header's first bound — whatever the step's sign
                // (`do x = 10, 1, -3` starts at 10).
                let [origin_form] = &lower_terms[..] else {
                    return Err(FmError::CompositeOrigin { level: k });
                };
                let taken = taken.get_or_insert_with(|| nest.all_scalar_symbols());
                let name = l.var.freshen(|s| names.contains(s) || taken.contains(s));
                names.push(name.clone());
                // z_k ≥ 0.
                let mut zpos = vec![0i64; n];
                zpos[k] = 1;
                ineqs.push(LinIneq::new(zpos, Expr::int(0)));
                // End-bound constraint(s), one per (possibly min/max-split)
                // upper term t:
                //   step > 0 (x ≤ t):  t − origin − step·z ≥ 0
                //   step < 0 (x ≥ t):  origin + step·z − t ≥ 0
                for t in &upper_terms {
                    let mut coeffs = vec![0i64; n];
                    let rest = if step > 0 {
                        for (v, c) in &t.coeffs {
                            coeffs[pos_of(&names, v)] += c;
                        }
                        for (v, c) in &origin_form.coeffs {
                            coeffs[pos_of(&names, v)] -= c;
                        }
                        coeffs[k] -= step;
                        Expr::sub(t.rest.clone(), origin_form.rest.clone())
                    } else {
                        for (v, c) in &origin_form.coeffs {
                            coeffs[pos_of(&names, v)] += c;
                        }
                        for (v, c) in &t.coeffs {
                            coeffs[pos_of(&names, v)] -= c;
                        }
                        coeffs[k] += step;
                        Expr::sub(origin_form.rest.clone(), t.rest.clone())
                    };
                    ineqs.push(LinIneq::new(coeffs, rest));
                }
                // Rebind: x_k = origin + step·z_k (origin already
                // substituted in terms of normalized variables).
                let rebind = Expr::add(
                    lower.clone(),
                    Expr::mul(Expr::int(step), Expr::var(name.clone())),
                );
                subst.insert(l.var.clone(), rebind.clone());
                rebinds.push((l.var.clone(), rebind));
            }
        }
        Ok(NormalizedSpace {
            space: IterSpace { names, ineqs },
            rebinds,
        })
    }

    /// Builds a space directly from names and inequalities.
    ///
    /// # Panics
    ///
    /// Panics if an inequality's arity differs from `names.len()`.
    pub fn from_ineqs(names: Vec<Symbol>, ineqs: Vec<LinIneq>) -> IterSpace {
        assert!(
            ineqs.iter().all(|i| i.coeffs.len() == names.len()),
            "arity mismatch"
        );
        IterSpace { names, ineqs }
    }

    /// The variable names, outermost first.
    pub fn names(&self) -> &[Symbol] {
        &self.names
    }

    /// The inequalities.
    pub fn ineqs(&self) -> &[LinIneq] {
        &self.ineqs
    }

    /// Changes basis to `y = M·x` (so each inequality's coefficient row is
    /// multiplied by `M⁻¹` on the right), renaming variables to
    /// `new_names`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not unimodular of matching dimension or
    /// `new_names.len()` differs.
    pub fn change_basis(&self, m: &IntMatrix, new_names: Vec<Symbol>) -> IterSpace {
        let n = self.names.len();
        assert!(m.is_square() && m.rows() == n, "matrix dimension mismatch");
        let minv = m.inverse().expect("matrix must be unimodular");
        self.change_basis_by_inverse(&minv, new_names)
    }

    /// [`IterSpace::change_basis`] given `M⁻¹` instead of `M`, for a
    /// caller that has already inverted the matrix.
    pub(crate) fn change_basis_by_inverse(
        &self,
        minv: &IntMatrix,
        new_names: Vec<Symbol>,
    ) -> IterSpace {
        let n = self.names.len();
        assert_eq!(new_names.len(), n, "name count mismatch");
        let ineqs = self
            .ineqs
            .iter()
            .map(|i| {
                let coeffs: Vec<i64> = (0..n)
                    .map(|j| (0..n).map(|k| i.coeffs[k] * minv[(k, j)]).sum())
                    .collect();
                LinIneq::new(coeffs, i.rest.clone())
            })
            .collect();
        IterSpace {
            names: new_names,
            ineqs,
        }
    }

    /// Generates loop bounds by Fourier–Motzkin elimination from the
    /// innermost variable outward. Returns `(lower, upper)` expressions per
    /// level; multiple constraints become `max`/`min` of `ceil`/`floor`
    /// divisions. Candidates provably dominated by another candidate (via a
    /// constraint already in the system) are pruned, so e.g. interchanging
    /// a triangular nest yields `do i = j, n` rather than
    /// `do i = max(1, j), n` (Fig. 4(b)).
    ///
    /// # Errors
    ///
    /// Returns [`FmError::Unbounded`] if some variable has no lower or no
    /// upper constraint.
    pub fn generate_bounds(&self) -> Result<Vec<(Expr, Expr)>, FmError> {
        let n = self.names.len();
        let mut system: Vec<LinIneq> = self
            .ineqs
            .iter()
            .filter(|i| !i.is_variable_free())
            .cloned()
            .collect();
        let mut bounds: Vec<(Expr, Expr)> = vec![(Expr::int(0), Expr::int(0)); n];
        for k in (0..n).rev() {
            let mut lowers: Vec<Cand> = Vec::new();
            let mut uppers: Vec<Cand> = Vec::new();
            for ineq in system.iter().filter(|i| i.coeffs[k] != 0) {
                debug_assert!(
                    ineq.coeffs[k + 1..].iter().all(|&c| c == 0),
                    "inner variables must already be eliminated"
                );
                let c = ineq.coeffs[k];
                // c·y_k + (outer terms + rest) ≥ 0
                let mut tail = ineq.rest.clone();
                for j in 0..k {
                    tail = Expr::add(
                        tail,
                        Expr::mul(Expr::int(ineq.coeffs[j]), Expr::var(self.names[j].clone())),
                    );
                }
                if c > 0 {
                    // y_k ≥ ceil(−tail / c)
                    let num = Expr::neg(tail).simplify();
                    let (expr, form) = if c == 1 {
                        let coeffs: Vec<i64> = ineq.coeffs[..k].iter().map(|&x| -x).collect();
                        (num, Some((coeffs, Expr::neg(ineq.rest.clone()).simplify())))
                    } else {
                        (Expr::ceil_div(num, Expr::int(c)), None)
                    };
                    push_cand(&mut lowers, Cand { expr, form });
                } else {
                    // y_k ≤ floor(tail / −c)
                    let den = -c;
                    let t = tail.simplify();
                    let (expr, form) = if den == 1 {
                        let coeffs: Vec<i64> = ineq.coeffs[..k].to_vec();
                        (t, Some((coeffs, ineq.rest.clone().simplify())))
                    } else {
                        (Expr::floor_div(t, Expr::int(den)), None)
                    };
                    push_cand(&mut uppers, Cand { expr, form });
                }
            }
            if lowers.is_empty() || uppers.is_empty() {
                return Err(FmError::Unbounded { level: k });
            }
            let outer: Vec<&LinIneq> = system.iter().filter(|i| i.coeffs[k] == 0).collect();
            prune_dominated(&mut lowers, &outer, k, true);
            prune_dominated(&mut uppers, &outer, k, false);
            bounds[k] = (
                Expr::max_of(lowers.into_iter().map(|c| c.expr).collect()),
                Expr::min_of(uppers.into_iter().map(|c| c.expr).collect()),
            );
            system = eliminate(&system, k);
        }
        Ok(bounds)
    }
}

/// A bound candidate: the expression plus, when it is an undivided linear
/// bound, its linear form over the outer variables (for dominance pruning).
#[derive(Clone, Debug, PartialEq)]
struct Cand {
    expr: Expr,
    form: Option<(Vec<i64>, Expr)>,
}

fn push_cand(items: &mut Vec<Cand>, c: Cand) {
    if !items.iter().any(|x| x.expr == c.expr) {
        items.push(c);
    }
}

/// Removes candidates provably dominated by another candidate. For lower
/// bounds, `B` is dominated by `A` when `A − B ≥ 0` everywhere in the
/// space; for upper bounds when `B − A ≥ 0`. "Provably" means the
/// difference is a nonnegative constant, or matches (up to nonnegative
/// constant slack) an inequality already present among the outer
/// constraints.
fn prune_dominated(cands: &mut Vec<Cand>, outer: &[&LinIneq], k: usize, is_lower: bool) {
    let mut keep = vec![true; cands.len()];
    for b in 0..cands.len() {
        for a in 0..cands.len() {
            if a == b || !keep[a] || !keep[b] {
                continue;
            }
            let (Some((ca, ra)), Some((cb, rb))) = (&cands[a].form, &cands[b].form) else {
                continue;
            };
            // diff = A − B (lower) or B − A (upper), which must be ≥ 0.
            let (cx, rx, cy, ry) = if is_lower {
                (ca, ra, cb, rb)
            } else {
                (cb, rb, ca, ra)
            };
            let dcoeffs: Vec<i64> = cx.iter().zip(cy).map(|(&x, &y)| x - y).collect();
            let drest = Expr::sub(rx.clone(), ry.clone()).simplify();
            let implied = if dcoeffs.iter().all(|&c| c == 0) {
                matches!(drest.as_const(), Some(c) if c >= 0)
            } else {
                outer.iter().any(|j| {
                    j.coeffs[..k] == dcoeffs[..]
                        && matches!(
                            Expr::sub(drest.clone(), j.rest.clone()).simplify().as_const(),
                            Some(c) if c >= 0
                        )
                })
            };
            if implied {
                keep[b] = false;
            }
        }
    }
    let mut it = keep.iter();
    cands.retain(|_| *it.next().expect("lengths match"));
}

/// Eliminates variable `k` from the system by Fourier–Motzkin combination.
///
/// Variable-free rows — whether already present or freshly derived by a
/// combination — are **retained**, because they carry the system's
/// feasibility: over the rationals, a system is empty exactly when
/// exhaustive elimination derives a variable-free row whose constant is
/// negative (`0 ≥ c` with `c > 0`). [`rational_feasibility`] builds its
/// emptiness test on precisely this property. Exact duplicate rows are
/// dropped.
pub fn eliminate(system: &[LinIneq], k: usize) -> Vec<LinIneq> {
    let mut out: Vec<LinIneq> = Vec::new();
    let (pos, rest): (Vec<&LinIneq>, Vec<&LinIneq>) = system.iter().partition(|i| i.coeffs[k] > 0);
    let (neg, zero): (Vec<&LinIneq>, Vec<&LinIneq>) =
        rest.into_iter().partition(|i| i.coeffs[k] < 0);
    for i in zero {
        if !out.contains(i) {
            out.push(i.clone());
        }
    }
    for p in &pos {
        for q in &neg {
            let c = LinIneq::combine(p, q, k);
            if !out.contains(&c) {
                out.push(c);
            }
        }
    }
    out
}

/// Rational feasibility of a [`LinIneq`] system, as decided by
/// [`rational_feasibility`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Feasibility {
    /// No rational point satisfies the system: elimination derived a
    /// variable-free row with a negative constant (a contradiction
    /// `0 ≥ c`, `c > 0`).
    Empty,
    /// Some rational point satisfies the system. Fourier–Motzkin is
    /// exact over ℚ, so eliminating every variable without deriving a
    /// contradiction is a proof of satisfiability.
    NonEmpty,
    /// Not decided: a variable-free row's `rest` did not simplify to a
    /// constant (free symbolic parameters), or the system outgrew the
    /// size guards that keep the `i64` arithmetic exact.
    Undecided,
}

/// Upper bound on coefficient / constant magnitude kept through
/// [`rational_feasibility`]'s eliminations. Any two in-bound values can
/// be cross-multiplied and summed in `i64` without overflow
/// (`2·(2³⁰)² < 2⁶³`), so staying under the bound keeps every
/// [`LinIneq::combine`] exact.
const FEAS_MAX_MAG: i64 = 1 << 30;

/// Row-count guard for [`rational_feasibility`]; a system that blows up
/// past this during elimination is reported [`Feasibility::Undecided`]
/// rather than ground through.
const FEAS_MAX_ROWS: usize = 20_000;

/// Decides whether `coeffs · x + rest ≥ 0` systems have a **rational**
/// solution, by exhaustive Fourier–Motzkin elimination.
///
/// Each elimination round strips the variable-free rows that
/// [`eliminate`] retains: a row with a provably negative constant is a
/// contradiction (the system is [`Feasibility::Empty`]); a row whose
/// `rest` does not simplify to a constant leaves the verdict
/// [`Feasibility::Undecided`] unless a contradiction is found anyway.
/// Rows are reduced by the GCD of their coefficients and constant, and
/// the whole check bails out to `Undecided` (never a wrong answer) if
/// magnitudes or row counts outgrow the exact-`i64` guards.
///
/// Over the rationals Fourier–Motzkin is complete, so for systems with
/// constant `rest`s the answer is always `Empty` or `NonEmpty`. Note
/// this is feasibility over ℚ: an integer-infeasible but
/// rationally-feasible system reports `NonEmpty`.
pub fn rational_feasibility(system: &[LinIneq]) -> Feasibility {
    let nvars = system.first().map_or(0, |i| i.coeffs.len());
    let mut undecided = false;
    // Scans rows into `kept`, consuming variable-free rows: Some(true)
    // when a contradiction is found.
    let strip = |rows: Vec<LinIneq>, kept: &mut Vec<LinIneq>, undecided: &mut bool| -> bool {
        for row in rows {
            if row.is_variable_free() {
                match row.rest.simplify().as_const() {
                    Some(c) if c < 0 => return true,
                    Some(_) => {}
                    None => *undecided = true,
                }
            } else {
                let simplified = LinIneq::new(row.coeffs, row.rest.simplify());
                let reduced = reduce_row(simplified);
                if !kept.contains(&reduced) {
                    kept.push(reduced);
                }
            }
        }
        false
    };

    let mut sys: Vec<LinIneq> = Vec::with_capacity(system.len());
    if strip(system.to_vec(), &mut sys, &mut undecided) {
        return Feasibility::Empty;
    }
    for k in 0..nvars {
        if sys.len() > FEAS_MAX_ROWS || !rows_in_bounds(&sys) {
            return Feasibility::Undecided;
        }
        let eliminated = eliminate(&sys, k);
        sys = Vec::with_capacity(eliminated.len());
        if strip(eliminated, &mut sys, &mut undecided) {
            return Feasibility::Empty;
        }
    }
    debug_assert!(sys.is_empty(), "all variables eliminated");
    if undecided {
        Feasibility::Undecided
    } else {
        Feasibility::NonEmpty
    }
}

/// Divides a row by the GCD of its coefficients and constant `rest`
/// (when the rest is constant and the GCD divides it), keeping
/// elimination products small. Exact over ℚ: `g > 0` scales an
/// inequality without changing its solution set.
fn reduce_row(row: LinIneq) -> LinIneq {
    let mut g = 0i64;
    for &c in &row.coeffs {
        g = gcd(g, c);
    }
    if g <= 1 {
        return row;
    }
    match row.rest.as_const() {
        Some(c) if c % g == 0 => LinIneq::new(
            row.coeffs.iter().map(|&x| x / g).collect(),
            Expr::int(c / g),
        ),
        _ => row,
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// True when every coefficient and constant rest in the system is small
/// enough for one more exact [`LinIneq::combine`].
fn rows_in_bounds(sys: &[LinIneq]) -> bool {
    sys.iter().all(|i| {
        i.coeffs.iter().all(|c| c.abs() < FEAS_MAX_MAG)
            && i.rest.as_const().is_none_or(|c| c.abs() < FEAS_MAX_MAG)
    })
}

fn pos_of(names: &[Symbol], v: &Symbol) -> usize {
    names
        .iter()
        .position(|n| n == v)
        .expect("bound references a known outer variable")
}

/// `x_k − form ≥ 0` as an inequality over `n` variables; the form's
/// coefficients are resolved to positions via `names` (which contains the
/// outer variables already processed).
fn var_minus_form(k: usize, n: usize, form: &LinearForm, names: &[Symbol]) -> LinIneq {
    let mut coeffs = vec![0i64; n];
    coeffs[k] = 1;
    for (v, c) in &form.coeffs {
        coeffs[pos_of(names, v)] -= c;
    }
    LinIneq::new(coeffs, Expr::neg(form.rest.clone()))
}

/// `form − x_k ≥ 0`.
fn form_minus_var(k: usize, n: usize, form: &LinearForm, names: &[Symbol]) -> LinIneq {
    let mut coeffs = vec![0i64; n];
    coeffs[k] = -1;
    for (v, c) in &form.coeffs {
        coeffs[pos_of(names, v)] += c;
    }
    LinIneq::new(coeffs, form.rest.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use irlt_ir::parse_nest;

    fn names(list: &[&str]) -> Vec<Symbol> {
        list.iter().copied().map(Symbol::new).collect()
    }

    #[test]
    fn combine_eliminates_variable() {
        // x ≥ 2  (x − 2 ≥ 0)  and  3x ≤ n  (−3x + n ≥ 0)
        let a = LinIneq::new(vec![1], Expr::int(-2));
        let b = LinIneq::new(vec![-3], Expr::var("n"));
        let c = LinIneq::combine(&a, &b, 0);
        assert_eq!(c.coeffs, vec![0]);
        // 3·(−2) + 1·n = n − 6 ≥ 0.
        assert_eq!(c.rest.simplify().to_string(), "n - 6");
        assert!(c.is_variable_free());
    }

    #[test]
    fn eliminate_pairs_and_keeps_zero_rows() {
        // Over (x, y): x ≥ 1, x ≤ 5, y ≥ 0, y ≤ x.
        let system = vec![
            LinIneq::new(vec![1, 0], Expr::int(-1)),
            LinIneq::new(vec![-1, 0], Expr::int(5)),
            LinIneq::new(vec![0, 1], Expr::int(0)),
            LinIneq::new(vec![-0, -1], Expr::int(0)), // y ≤ 0 … then also
            LinIneq::new(vec![1, -1], Expr::int(0)),  // y ≤ x
        ];
        let reduced = eliminate(&system, 1);
        // All remaining inequalities only involve x.
        assert!(reduced.iter().all(|i| i.coeffs[1] == 0));
        // x bounds survive: x ≥ 1, x ≤ 5, plus combinations like x ≥ 0.
        assert!(reduced.iter().any(|i| i.coeffs[0] == 1));
        assert!(reduced.iter().any(|i| i.coeffs[0] == -1));
    }

    #[test]
    fn eliminate_infeasible_system_yields_contradictory_constant_row() {
        // x ≥ 3 and x ≤ 1: rationally empty. Eliminating the only
        // variable must surface the contradiction as a retained
        // variable-free row with negative constant (0 ≥ 2 ⇒ −2 ≥ 0).
        let system = vec![
            LinIneq::new(vec![1], Expr::int(-3)), // x − 3 ≥ 0
            LinIneq::new(vec![-1], Expr::int(1)), // 1 − x ≥ 0
        ];
        let reduced = eliminate(&system, 0);
        assert!(reduced
            .iter()
            .any(|i| i.is_variable_free() && i.rest.simplify().as_const().unwrap() < 0));
        assert_eq!(rational_feasibility(&system), Feasibility::Empty);
    }

    #[test]
    fn rational_feasibility_nonempty_box() {
        // 1 ≤ x ≤ 5, 0 ≤ y ≤ x: plainly satisfiable.
        let system = vec![
            LinIneq::new(vec![1, 0], Expr::int(-1)),
            LinIneq::new(vec![-1, 0], Expr::int(5)),
            LinIneq::new(vec![0, 1], Expr::int(0)),
            LinIneq::new(vec![1, -1], Expr::int(0)),
        ];
        assert_eq!(rational_feasibility(&system), Feasibility::NonEmpty);
    }

    #[test]
    fn rational_feasibility_empty_triangular() {
        // x + y ≥ 4, x ≤ 1, y ≤ 2: 4 ≤ x + y ≤ 3 is a contradiction
        // only visible after pairing rows across both variables.
        let system = vec![
            LinIneq::new(vec![1, 1], Expr::int(-4)),
            LinIneq::new(vec![-1, 0], Expr::int(1)),
            LinIneq::new(vec![0, -1], Expr::int(2)),
        ];
        assert_eq!(rational_feasibility(&system), Feasibility::Empty);
    }

    #[test]
    fn rational_feasibility_rational_point_counts() {
        // 2x ≥ 1, 2x ≤ 1: only x = 1/2 works — nonempty over ℚ even
        // though no integer satisfies it.
        let system = vec![
            LinIneq::new(vec![2], Expr::int(-1)),
            LinIneq::new(vec![-2], Expr::int(1)),
        ];
        assert_eq!(rational_feasibility(&system), Feasibility::NonEmpty);
    }

    #[test]
    fn rational_feasibility_symbolic_rest_undecided() {
        // x ≥ 0, x ≤ n: feasibility depends on the free symbol n.
        let system = vec![
            LinIneq::new(vec![1], Expr::int(0)),
            LinIneq::new(vec![-1], Expr::var("n")),
        ];
        assert_eq!(rational_feasibility(&system), Feasibility::Undecided);
        // …but a contradiction among the constant rows still wins: the
        // symbolic row cannot rescue x ≥ 3 ∧ x ≤ 1.
        let system = vec![
            LinIneq::new(vec![1], Expr::int(-3)),
            LinIneq::new(vec![-1], Expr::int(1)),
            LinIneq::new(vec![-1], Expr::var("n")),
        ];
        assert_eq!(rational_feasibility(&system), Feasibility::Empty);
    }

    #[test]
    fn rational_feasibility_empty_system_is_nonempty() {
        assert_eq!(rational_feasibility(&[]), Feasibility::NonEmpty);
    }

    #[test]
    fn rational_feasibility_overflow_guard_undecided() {
        // Coefficients at the guard boundary refuse to combine rather
        // than risk wrapping in release mode.
        let big = FEAS_MAX_MAG;
        let system = vec![
            LinIneq::new(vec![big, 1], Expr::int(0)),
            LinIneq::new(vec![-big, -1], Expr::int(0)),
        ];
        assert_eq!(rational_feasibility(&system), Feasibility::Undecided);
    }

    #[test]
    fn from_nest_rectangular() {
        let nest = parse_nest("do i = 1, n\n do j = i, m\n  a(i, j) = 0\n enddo\nenddo").unwrap();
        let norm = IterSpace::from_nest(&nest).unwrap();
        assert!(norm.rebinds.is_empty());
        assert_eq!(norm.space.names(), names(&["i", "j"]).as_slice());
        // Four inequalities: i≥1, i≤n, j≥i, j≤m.
        assert_eq!(norm.space.ineqs().len(), 4);
        let bounds = norm.space.generate_bounds().unwrap();
        assert_eq!(bounds[0].0.to_string(), "1");
        assert_eq!(bounds[1].0.to_string(), "i");
        assert_eq!(bounds[1].1.to_string(), "m");
    }

    #[test]
    fn from_nest_splits_minmax_bounds() {
        let nest = parse_nest("do i = max(2, p), min(n, m)\n a(i) = 0\nenddo").unwrap();
        let norm = IterSpace::from_nest(&nest).unwrap();
        // 2 lower + 2 upper inequalities.
        assert_eq!(norm.space.ineqs().len(), 4);
        let bounds = norm.space.generate_bounds().unwrap();
        assert!(matches!(bounds[0].0, Expr::Max(_)));
        assert!(matches!(bounds[0].1, Expr::Min(_)));
    }

    #[test]
    fn from_nest_rejects_symbolic_step() {
        let nest = parse_nest("do i = 1, n, s\n a(i) = 0\nenddo").unwrap();
        assert_eq!(
            IterSpace::from_nest(&nest).unwrap_err(),
            FmError::NonConstStep { level: 0 }
        );
    }

    #[test]
    fn from_nest_rejects_composite_origin_with_step() {
        let nest = parse_nest("do i = max(1, p), n, 2\n a(i) = 0\nenddo").unwrap();
        assert_eq!(
            IterSpace::from_nest(&nest).unwrap_err(),
            FmError::CompositeOrigin { level: 0 }
        );
    }

    #[test]
    fn unbounded_space_detected() {
        // A skew basis change can keep things bounded, but dropping the
        // upper constraint leaves y unbounded.
        let space = IterSpace::from_ineqs(
            names(&["x"]),
            vec![LinIneq::new(vec![1], Expr::int(0))], // x ≥ 0 only
        );
        assert_eq!(
            space.generate_bounds().unwrap_err(),
            FmError::Unbounded { level: 0 }
        );
    }

    #[test]
    fn change_basis_rewrites_coefficients() {
        // x ∈ [0, n]; y = −x (reversal): y ∈ [−n, 0].
        let space = IterSpace::from_ineqs(
            names(&["x"]),
            vec![
                LinIneq::new(vec![1], Expr::int(0)),
                LinIneq::new(vec![-1], Expr::var("n")),
            ],
        );
        let m = IntMatrix::reversal(1, 0);
        let y = space.change_basis(&m, names(&["y"]));
        let bounds = y.generate_bounds().unwrap();
        assert_eq!(bounds[0].0.simplify().to_string(), "-n");
        assert_eq!(bounds[0].1.to_string(), "0");
    }

    #[test]
    fn error_displays() {
        assert!(FmError::Unbounded { level: 2 }
            .to_string()
            .contains("variable 2"));
        assert!(FmError::NonConstStep { level: 1 }
            .to_string()
            .contains("step"));
        assert!(FmError::CompositeOrigin { level: 0 }
            .to_string()
            .contains("normalize"));
        let i = LinIneq::new(vec![2, 0, -1], Expr::var("n"));
        let text = i.to_string();
        assert!(text.contains("2·x0") && text.contains(">= 0"), "{text}");
    }

    #[test]
    fn eval_const_checks() {
        let i = LinIneq::new(vec![2, -1], Expr::int(3));
        assert_eq!(i.eval_const(&[4, 1]), 10);
    }
}
