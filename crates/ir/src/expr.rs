//! Symbolic integer expressions.
//!
//! Loop bounds, steps, array subscripts, and statement right-hand sides are
//! all [`Expr`] values. The expression language is deliberately the one the
//! paper needs and no more: integer constants, variables, `+ - *`, *floor*
//! division, `mod`, `min`/`max` with any arity, opaque function calls
//! (`sqrt(i)`, `colstr(j)` — the paper's "arbitrary expression that is only
//! evaluated at run-time"), and array reads.
//!
//! Smart constructors perform light canonicalization (constant folding,
//! neutral-element elimination, `min`/`max` flattening) so that generated
//! code stays readable; they never change the value of an expression.

use crate::symbol::Symbol;
use std::collections::BTreeSet;
use std::fmt;

/// A reference to an array element, e.g. `A(i, j+1)`.
///
/// Appears both as an assignment target and (wrapped in
/// [`Expr::ArrayRead`]) inside expressions.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ArrayRef {
    /// Name of the array.
    pub array: Symbol,
    /// One subscript expression per dimension.
    pub subscripts: Vec<Expr>,
}

impl ArrayRef {
    /// Creates an array reference.
    ///
    /// # Examples
    ///
    /// ```
    /// use irlt_ir::{ArrayRef, Expr};
    ///
    /// let a = ArrayRef::new("A", vec![Expr::var("i"), Expr::var("j")]);
    /// assert_eq!(a.to_string(), "A(i, j)");
    /// ```
    pub fn new(array: impl Into<Symbol>, subscripts: Vec<Expr>) -> Self {
        ArrayRef {
            array: array.into(),
            subscripts,
        }
    }

    /// Applies a substitution to every subscript.
    pub fn substitute(&self, subst: &dyn Fn(&Symbol) -> Option<Expr>) -> ArrayRef {
        ArrayRef {
            array: self.array.clone(),
            subscripts: self
                .subscripts
                .iter()
                .map(|s| s.substitute(subst))
                .collect(),
        }
    }

    /// Collects the free variables of all subscripts into `out`.
    pub fn collect_vars(&self, out: &mut BTreeSet<Symbol>) {
        for s in &self.subscripts {
            s.collect_vars(out);
        }
    }
}

impl fmt::Display for ArrayRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.array)?;
        for (k, s) in self.subscripts.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, ")")
    }
}

/// A symbolic integer expression.
///
/// Construct expressions with the smart constructors ([`Expr::add`],
/// [`Expr::mul`], [`Expr::min2`], …) or the overloaded `+ - *` operators;
/// both canonicalize lightly. Pattern-match on the enum to inspect structure.
///
/// # Examples
///
/// ```
/// use irlt_ir::Expr;
///
/// let e = Expr::var("i") + Expr::int(2) * Expr::var("n");
/// assert_eq!(e.to_string(), "i + 2*n");
/// assert_eq!(Expr::int(3) + Expr::int(4), Expr::int(7));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Expr {
    /// An integer literal.
    Const(i64),
    /// An index variable or loop-invariant parameter.
    Var(Symbol),
    /// Binary addition.
    Add(Box<Expr>, Box<Expr>),
    /// Binary subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Binary multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Floor division: `FloorDiv(a, b)` is ⌊a/b⌋ (round toward −∞).
    FloorDiv(Box<Expr>, Box<Expr>),
    /// Ceiling division: `CeilDiv(a, b)` is ⌈a/b⌉ (round toward +∞).
    CeilDiv(Box<Expr>, Box<Expr>),
    /// Euclidean-style modulo paired with [`Expr::FloorDiv`]:
    /// `a mod b = a − b·⌊a/b⌋`.
    Mod(Box<Expr>, Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// `min` of one or more operands.
    Min(Vec<Expr>),
    /// `max` of one or more operands.
    Max(Vec<Expr>),
    /// An opaque (uninterpreted) function call such as `sqrt(i)` or
    /// `colstr(j)`. The framework treats these as black boxes of type
    /// *nonlinear* unless all arguments are invariant.
    Call(Symbol, Vec<Expr>),
    /// A read of an array element inside an expression.
    ArrayRead(ArrayRef),
}

// The associated `add`/`sub`/`mul`/`neg` constructors intentionally mirror
// the operator impls below: operators for ergonomic call sites, associated
// functions for contexts that need a function value or explicit
// canonicalization.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Const(v)
    }

    /// Variable reference.
    pub fn var(name: impl Into<Symbol>) -> Expr {
        Expr::Var(name.into())
    }

    /// Opaque function call.
    pub fn call(name: impl Into<Symbol>, args: Vec<Expr>) -> Expr {
        Expr::Call(name.into(), args)
    }

    /// Array read.
    pub fn read(array: impl Into<Symbol>, subscripts: Vec<Expr>) -> Expr {
        Expr::ArrayRead(ArrayRef::new(array, subscripts))
    }

    /// Canonicalizing addition.
    pub fn add(a: Expr, b: Expr) -> Expr {
        match (a, b) {
            (Expr::Const(x), Expr::Const(y)) => Expr::Const(x.wrapping_add(y)),
            (Expr::Const(0), e) | (e, Expr::Const(0)) => e,
            // Fold `(e + c1) + c2` into `e + (c1+c2)` to keep bounds tidy.
            (Expr::Add(e, c1), Expr::Const(c2)) if matches!(*c1, Expr::Const(_)) => {
                let Expr::Const(c1) = *c1 else { unreachable!() };
                Expr::add(*e, Expr::Const(c1.wrapping_add(c2)))
            }
            (Expr::Sub(e, c1), Expr::Const(c2)) if matches!(*c1, Expr::Const(_)) => {
                let Expr::Const(c1) = *c1 else { unreachable!() };
                Expr::add(*e, Expr::Const(c2.wrapping_sub(c1)))
            }
            (a, Expr::Const(c)) if c < 0 && c != i64::MIN => {
                Expr::Sub(Box::new(a), Box::new(Expr::Const(-c)))
            }
            (a, Expr::Neg(b)) => Expr::sub(a, *b),
            (a, b) => Expr::Add(Box::new(a), Box::new(b)),
        }
    }

    /// Canonicalizing subtraction.
    pub fn sub(a: Expr, b: Expr) -> Expr {
        match (a, b) {
            (Expr::Const(x), Expr::Const(y)) => Expr::Const(x.wrapping_sub(y)),
            (e, Expr::Const(0)) => e,
            (a, Expr::Const(c)) if c < 0 && c != i64::MIN => Expr::add(a, Expr::Const(-c)),
            (a, Expr::Neg(b)) => Expr::add(a, *b),
            (a, b) if a == b => Expr::Const(0),
            (a, b) => Expr::Sub(Box::new(a), Box::new(b)),
        }
    }

    /// Canonicalizing multiplication.
    pub fn mul(a: Expr, b: Expr) -> Expr {
        match (a, b) {
            (Expr::Const(x), Expr::Const(y)) => Expr::Const(x.wrapping_mul(y)),
            (Expr::Const(0), _) | (_, Expr::Const(0)) => Expr::Const(0),
            (Expr::Const(1), e) | (e, Expr::Const(1)) => e,
            (Expr::Const(-1), e) | (e, Expr::Const(-1)) => Expr::neg(e),
            // Keep constants on the left for a stable rendering (`2*n`).
            (a, b @ Expr::Const(_)) => Expr::Mul(Box::new(b), Box::new(a)),
            (a, b) => Expr::Mul(Box::new(a), Box::new(b)),
        }
    }

    /// Canonicalizing floor division.
    ///
    /// # Panics
    ///
    /// Panics if `b` is the literal constant zero.
    pub fn floor_div(a: Expr, b: Expr) -> Expr {
        match (a, b) {
            (_, Expr::Const(0)) => panic!("division by constant zero"),
            (Expr::Const(x), Expr::Const(y)) => Expr::Const(floor_div_i64(x, y)),
            (e, Expr::Const(1)) => e,
            (a, b) => Expr::FloorDiv(Box::new(a), Box::new(b)),
        }
    }

    /// Canonicalizing ceiling division.
    ///
    /// # Panics
    ///
    /// Panics if `b` is the literal constant zero.
    pub fn ceil_div(a: Expr, b: Expr) -> Expr {
        match (a, b) {
            (_, Expr::Const(0)) => panic!("division by constant zero"),
            (Expr::Const(x), Expr::Const(y)) => Expr::Const(ceil_div_i64(x, y)),
            (e, Expr::Const(1)) => e,
            (a, b) => Expr::CeilDiv(Box::new(a), Box::new(b)),
        }
    }

    /// Canonicalizing modulo (`a mod b = a − b·⌊a/b⌋`).
    ///
    /// # Panics
    ///
    /// Panics if `b` is the literal constant zero.
    pub fn modulo(a: Expr, b: Expr) -> Expr {
        match (a, b) {
            (_, Expr::Const(0)) => panic!("modulo by constant zero"),
            (Expr::Const(x), Expr::Const(y)) => Expr::Const(mod_floor_i64(x, y)),
            (_, Expr::Const(1)) => Expr::Const(0),
            (a, b) => Expr::Mod(Box::new(a), Box::new(b)),
        }
    }

    /// Canonicalizing negation.
    pub fn neg(a: Expr) -> Expr {
        match a {
            Expr::Const(x) => Expr::Const(x.wrapping_neg()),
            Expr::Neg(e) => *e,
            Expr::Sub(a, b) => Expr::Sub(b, a),
            e => Expr::Neg(Box::new(e)),
        }
    }

    /// `min` of two operands, flattening nested `min`s and folding constants.
    pub fn min2(a: Expr, b: Expr) -> Expr {
        Expr::min_of(vec![a, b])
    }

    /// `max` of two operands, flattening nested `max`s and folding constants.
    pub fn max2(a: Expr, b: Expr) -> Expr {
        Expr::max_of(vec![a, b])
    }

    /// `min` of one or more operands.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn min_of(items: Vec<Expr>) -> Expr {
        Expr::fold_minmax(items, true)
    }

    /// `max` of one or more operands.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn max_of(items: Vec<Expr>) -> Expr {
        Expr::fold_minmax(items, false)
    }

    /// Shared worker for [`Expr::min_of`] / [`Expr::max_of`]: flattens
    /// same-kind nesting, folds all constants into one (kept at the
    /// position of the first constant operand, matching the paper's
    /// `max(2, jj - n + 1)` rendering), and drops duplicates.
    fn fold_minmax(items: Vec<Expr>, is_min: bool) -> Expr {
        assert!(!items.is_empty(), "min/max of zero operands");
        let mut flat: Vec<Expr> = Vec::with_capacity(items.len());
        let mut best_const: Option<i64> = None;
        let mut const_slot: Option<usize> = None;
        {
            let mut note_const = |flat: &mut Vec<Expr>, c: i64| {
                best_const = Some(match best_const {
                    Some(b) => {
                        if is_min {
                            b.min(c)
                        } else {
                            b.max(c)
                        }
                    }
                    None => c,
                });
                if const_slot.is_none() {
                    const_slot = Some(flat.len());
                }
            };
            for item in items {
                let inner: Vec<Expr> = match item {
                    Expr::Min(inner) if is_min => inner,
                    Expr::Max(inner) if !is_min => inner,
                    other => vec![other],
                };
                for e in inner {
                    match e {
                        Expr::Const(c) => note_const(&mut flat, c),
                        other => push_unique(&mut flat, other),
                    }
                }
            }
        }
        if let (Some(c), Some(slot)) = (best_const, const_slot) {
            if !flat.contains(&Expr::Const(c)) {
                flat.insert(slot, Expr::Const(c));
            }
        }
        if flat.len() == 1 {
            flat.pop().expect("nonempty")
        } else if is_min {
            Expr::Min(flat)
        } else {
            Expr::Max(flat)
        }
    }

    /// Returns the constant value if the expression is a literal.
    pub fn as_const(&self) -> Option<i64> {
        match self {
            Expr::Const(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the variable if the expression is a bare variable reference.
    pub fn as_var(&self) -> Option<&Symbol> {
        match self {
            Expr::Var(s) => Some(s),
            _ => None,
        }
    }

    /// True if the expression contains an [`Expr::ArrayRead`] anywhere.
    pub fn reads_arrays(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(e, Expr::ArrayRead(_)) {
                found = true;
            }
        });
        found
    }

    /// Visits every sub-expression (pre-order).
    pub fn visit(&self, f: &mut dyn FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Const(_) | Expr::Var(_) => {}
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::FloorDiv(a, b)
            | Expr::CeilDiv(a, b)
            | Expr::Mod(a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Expr::Neg(a) => a.visit(f),
            Expr::Min(items) | Expr::Max(items) | Expr::Call(_, items) => {
                for e in items {
                    e.visit(f);
                }
            }
            Expr::ArrayRead(r) => {
                for s in &r.subscripts {
                    s.visit(f);
                }
            }
        }
    }

    /// Collects every free variable (index variables, parameters, but not
    /// array or function names) into `out`.
    pub fn collect_vars(&self, out: &mut BTreeSet<Symbol>) {
        self.visit(&mut |e| {
            if let Expr::Var(s) = e {
                out.insert(s.clone());
            }
        });
    }

    /// Returns the set of free variables.
    ///
    /// # Examples
    ///
    /// ```
    /// use irlt_ir::Expr;
    ///
    /// let e = Expr::var("i") + Expr::var("n");
    /// let vars = e.free_vars();
    /// assert!(vars.contains("i") && vars.contains("n"));
    /// ```
    pub fn free_vars(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    /// True if the expression mentions `var`.
    pub fn mentions(&self, var: &Symbol) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if let Expr::Var(s) = e {
                if s == var {
                    found = true;
                }
            }
        });
        found
    }

    /// Capture-free substitution: each variable `v` with
    /// `subst(v) = Some(e)` is replaced by `e`. Rebuilds with the smart
    /// constructors, so the result is re-canonicalized.
    pub fn substitute(&self, subst: &dyn Fn(&Symbol) -> Option<Expr>) -> Expr {
        match self {
            Expr::Const(v) => Expr::Const(*v),
            Expr::Var(s) => subst(s).unwrap_or_else(|| Expr::Var(s.clone())),
            Expr::Add(a, b) => Expr::add(a.substitute(subst), b.substitute(subst)),
            Expr::Sub(a, b) => Expr::sub(a.substitute(subst), b.substitute(subst)),
            Expr::Mul(a, b) => Expr::mul(a.substitute(subst), b.substitute(subst)),
            Expr::FloorDiv(a, b) => Expr::floor_div(a.substitute(subst), b.substitute(subst)),
            Expr::CeilDiv(a, b) => Expr::ceil_div(a.substitute(subst), b.substitute(subst)),
            Expr::Mod(a, b) => Expr::modulo(a.substitute(subst), b.substitute(subst)),
            Expr::Neg(a) => Expr::neg(a.substitute(subst)),
            Expr::Min(items) => Expr::min_of(items.iter().map(|e| e.substitute(subst)).collect()),
            Expr::Max(items) => Expr::max_of(items.iter().map(|e| e.substitute(subst)).collect()),
            Expr::Call(name, args) => Expr::Call(
                name.clone(),
                args.iter().map(|e| e.substitute(subst)).collect(),
            ),
            Expr::ArrayRead(r) => Expr::ArrayRead(r.substitute(subst)),
        }
    }

    /// Replaces a single variable by an expression.
    pub fn subst_var(&self, var: &Symbol, replacement: &Expr) -> Expr {
        self.substitute(&|s| {
            if s == var {
                Some(replacement.clone())
            } else {
                None
            }
        })
    }

    /// Normalizes the expression by collecting linear terms: constants
    /// fold, equal atoms merge (`(n - 1) + (n - 1)` becomes `2*n - 2`,
    /// `jj - (n - 1)` becomes `jj - n + 1`), and non-linear subtrees
    /// (`min`, calls, divisions, …) are simplified recursively and treated
    /// as atomic terms. The value is unchanged: an expression whose
    /// coefficients or constant would overflow `i64` is returned
    /// unfolded.
    ///
    /// # Examples
    ///
    /// ```
    /// use irlt_ir::Expr;
    ///
    /// let n = Expr::var("n");
    /// let e = (n.clone() - Expr::int(1)) + (n.clone() - Expr::int(1));
    /// assert_eq!(e.simplify().to_string(), "2*n - 2");
    /// ```
    pub fn simplify(&self) -> Expr {
        let mut terms: Vec<(Expr, i64)> = Vec::new();
        let mut konst: i64 = 0;
        if collect_linear(self, 1, &mut terms, &mut konst).is_none() {
            return self.clone();
        }
        terms.retain(|(_, c)| *c != 0);
        // Positive-coefficient terms first for a natural rendering
        // (`jj - n + 1` rather than `-n + jj + 1`).
        terms.sort_by_key(|(_, c)| *c < 0);
        let mut acc: Option<Expr> = None;
        for (atom, c) in terms {
            let t = Expr::mul(Expr::int(c), atom);
            acc = Some(match acc {
                None => t,
                Some(a) => Expr::add(a, t),
            });
        }
        match acc {
            None => Expr::int(konst),
            Some(a) => Expr::add(a, Expr::int(konst)),
        }
    }

    /// Evaluates a *scalar* expression (no array reads) given a variable
    /// environment and an interpretation for opaque function calls.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] for unbound variables, array reads, unknown
    /// functions, or division/modulo by zero.
    pub fn eval_scalar(
        &self,
        vars: &dyn Fn(&Symbol) -> Option<i64>,
        funcs: &dyn Fn(&Symbol, &[i64]) -> Option<i64>,
    ) -> Result<i64, EvalError> {
        match self {
            Expr::Const(v) => Ok(*v),
            Expr::Var(s) => vars(s).ok_or_else(|| EvalError::UnboundVariable(s.clone())),
            Expr::Add(a, b) => Ok(a
                .eval_scalar(vars, funcs)?
                .wrapping_add(b.eval_scalar(vars, funcs)?)),
            Expr::Sub(a, b) => Ok(a
                .eval_scalar(vars, funcs)?
                .wrapping_sub(b.eval_scalar(vars, funcs)?)),
            Expr::Mul(a, b) => Ok(a
                .eval_scalar(vars, funcs)?
                .wrapping_mul(b.eval_scalar(vars, funcs)?)),
            Expr::FloorDiv(a, b) => {
                let d = b.eval_scalar(vars, funcs)?;
                if d == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                Ok(floor_div_i64(a.eval_scalar(vars, funcs)?, d))
            }
            Expr::CeilDiv(a, b) => {
                let d = b.eval_scalar(vars, funcs)?;
                if d == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                Ok(ceil_div_i64(a.eval_scalar(vars, funcs)?, d))
            }
            Expr::Mod(a, b) => {
                let d = b.eval_scalar(vars, funcs)?;
                if d == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                Ok(mod_floor_i64(a.eval_scalar(vars, funcs)?, d))
            }
            Expr::Neg(a) => Ok(a.eval_scalar(vars, funcs)?.wrapping_neg()),
            Expr::Min(items) => {
                let mut best = i64::MAX;
                for e in items {
                    best = best.min(e.eval_scalar(vars, funcs)?);
                }
                Ok(best)
            }
            Expr::Max(items) => {
                let mut best = i64::MIN;
                for e in items {
                    best = best.max(e.eval_scalar(vars, funcs)?);
                }
                Ok(best)
            }
            Expr::Call(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval_scalar(vars, funcs)?);
                }
                funcs(name, &vals).ok_or_else(|| EvalError::UnknownFunction(name.clone()))
            }
            Expr::ArrayRead(r) => Err(EvalError::ArrayReadInScalar(r.array.clone())),
        }
    }
}

/// Accumulates `mult · e` into a linear combination of atomic terms, or
/// returns `None` if a coefficient or the constant overflows `i64`.
fn collect_linear(
    e: &Expr,
    mult: i64,
    terms: &mut Vec<(Expr, i64)>,
    konst: &mut i64,
) -> Option<()> {
    match e {
        Expr::Const(v) => *konst = konst.checked_add(mult.checked_mul(*v)?)?,
        Expr::Add(a, b) => {
            collect_linear(a, mult, terms, konst)?;
            collect_linear(b, mult, terms, konst)?;
        }
        Expr::Sub(a, b) => {
            collect_linear(a, mult, terms, konst)?;
            collect_linear(b, mult.checked_neg()?, terms, konst)?;
        }
        Expr::Neg(a) => collect_linear(a, mult.checked_neg()?, terms, konst)?,
        Expr::Mul(a, b) => match (a.as_const(), b.as_const()) {
            (Some(c), _) => collect_linear(b, mult.checked_mul(c)?, terms, konst)?,
            (_, Some(c)) => collect_linear(a, mult.checked_mul(c)?, terms, konst)?,
            _ => add_term(terms, Expr::mul(a.simplify(), b.simplify()), mult)?,
        },
        Expr::Var(_) => add_term(terms, e.clone(), mult)?,
        Expr::FloorDiv(a, b) => add_term(terms, Expr::floor_div(a.simplify(), b.simplify()), mult)?,
        Expr::CeilDiv(a, b) => add_term(terms, Expr::ceil_div(a.simplify(), b.simplify()), mult)?,
        Expr::Mod(a, b) => add_term(terms, Expr::modulo(a.simplify(), b.simplify()), mult)?,
        Expr::Min(items) => add_term(
            terms,
            Expr::min_of(items.iter().map(Expr::simplify).collect()),
            mult,
        )?,
        Expr::Max(items) => add_term(
            terms,
            Expr::max_of(items.iter().map(Expr::simplify).collect()),
            mult,
        )?,
        Expr::Call(name, args) => add_term(
            terms,
            Expr::Call(name.clone(), args.iter().map(Expr::simplify).collect()),
            mult,
        )?,
        Expr::ArrayRead(r) => add_term(terms, Expr::ArrayRead(r.clone()), mult)?,
    }
    Some(())
}

/// Adds `coeff · atom` to `terms`, or returns `None` if the atom's
/// coefficient overflows `i64`.
fn add_term(terms: &mut Vec<(Expr, i64)>, atom: Expr, coeff: i64) -> Option<()> {
    if let Some((_, c)) = terms.iter_mut().find(|(a, _)| *a == atom) {
        *c = c.checked_add(coeff)?;
    } else {
        terms.push((atom, coeff));
    }
    Some(())
}

/// Floor division on `i64` (round toward −∞), correct for either sign of
/// either operand. `i64::div_euclid` differs for negative divisors, so this
/// is spelled out.
///
/// # Panics
///
/// Panics if `b == 0`.
pub fn floor_div_i64(a: i64, b: i64) -> i64 {
    let q = a / b;
    if a % b != 0 && (a < 0) != (b < 0) {
        q - 1
    } else {
        q
    }
}

/// Ceiling division on `i64` (round toward +∞).
///
/// # Panics
///
/// Panics if `b == 0`.
pub fn ceil_div_i64(a: i64, b: i64) -> i64 {
    let q = a / b;
    if a % b != 0 && (a < 0) == (b < 0) {
        q + 1
    } else {
        q
    }
}

/// Floor-division modulo paired with [`floor_div_i64`]:
/// `mod_floor_i64(a, b) = a − b·⌊a/b⌋`. The result has the divisor's sign.
///
/// # Panics
///
/// Panics if `b == 0`.
pub fn mod_floor_i64(a: i64, b: i64) -> i64 {
    a - b * floor_div_i64(a, b)
}

/// An error produced by [`Expr::eval_scalar`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// A variable had no binding in the environment.
    UnboundVariable(Symbol),
    /// An opaque function had no interpretation.
    UnknownFunction(Symbol),
    /// Division or modulo by zero at run time.
    DivisionByZero,
    /// An array read appeared where a scalar expression was required
    /// (e.g. in a loop bound).
    ArrayReadInScalar(Symbol),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVariable(s) => write!(f, "unbound variable `{s}`"),
            EvalError::UnknownFunction(s) => write!(f, "unknown function `{s}`"),
            EvalError::DivisionByZero => write!(f, "division by zero"),
            EvalError::ArrayReadInScalar(s) => {
                write!(f, "array `{s}` read inside a scalar expression")
            }
        }
    }
}

impl std::error::Error for EvalError {}

fn push_unique(items: &mut Vec<Expr>, e: Expr) {
    if !items.contains(&e) {
        items.push(e);
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Self {
        Expr::Const(v)
    }
}

impl From<Symbol> for Expr {
    fn from(s: Symbol) -> Self {
        Expr::Var(s)
    }
}

impl From<&Symbol> for Expr {
    fn from(s: &Symbol) -> Self {
        Expr::Var(s.clone())
    }
}

impl std::ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::add(self, rhs)
    }
}

impl std::ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::sub(self, rhs)
    }
}

impl std::ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::mul(self, rhs)
    }
}

impl std::ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::neg(self)
    }
}

// ---------------------------------------------------------------------------
// Display
// ---------------------------------------------------------------------------

/// Precedence levels for printing (higher binds tighter).
fn precedence(e: &Expr) -> u8 {
    match e {
        Expr::Add(..) | Expr::Sub(..) => 1,
        Expr::Mul(..) | Expr::FloorDiv(..) | Expr::CeilDiv(..) | Expr::Mod(..) => 2,
        Expr::Neg(..) => 3,
        _ => 4,
    }
}

fn fmt_child(f: &mut fmt::Formatter<'_>, child: &Expr, parent_prec: u8) -> fmt::Result {
    if precedence(child) < parent_prec {
        write!(f, "({child})")
    } else {
        write!(f, "{child}")
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Var(s) => write!(f, "{s}"),
            Expr::Add(a, b) => {
                fmt_child(f, a, 1)?;
                write!(f, " + ")?;
                fmt_child(f, b, 2)
            }
            Expr::Sub(a, b) => {
                fmt_child(f, a, 1)?;
                write!(f, " - ")?;
                fmt_child(f, b, 2)
            }
            Expr::Mul(a, b) => {
                fmt_child(f, a, 2)?;
                write!(f, "*")?;
                fmt_child(f, b, 3)
            }
            Expr::FloorDiv(a, b) => {
                fmt_child(f, a, 2)?;
                write!(f, " / ")?;
                fmt_child(f, b, 3)
            }
            Expr::CeilDiv(a, b) => {
                write!(f, "ceil(")?;
                write!(f, "{a}, {b}")?;
                write!(f, ")")
            }
            Expr::Mod(a, b) => {
                fmt_child(f, a, 2)?;
                write!(f, " mod ")?;
                fmt_child(f, b, 3)
            }
            Expr::Neg(a) => {
                write!(f, "-")?;
                fmt_child(f, a, 3)
            }
            Expr::Min(items) => {
                write!(f, "min(")?;
                for (k, e) in items.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::Max(items) => {
                write!(f, "max(")?;
                for (k, e) in items.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (k, e) in args.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::ArrayRead(r) => write!(f, "{r}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(name: &str) -> Expr {
        Expr::var(name)
    }

    #[test]
    fn constant_folding() {
        assert_eq!(Expr::int(2) + Expr::int(3), Expr::int(5));
        assert_eq!(Expr::int(2) - Expr::int(3), Expr::int(-1));
        assert_eq!(Expr::int(2) * Expr::int(3), Expr::int(6));
        assert_eq!(Expr::floor_div(Expr::int(7), Expr::int(2)), Expr::int(3));
        assert_eq!(Expr::floor_div(Expr::int(-7), Expr::int(2)), Expr::int(-4));
        assert_eq!(Expr::ceil_div(Expr::int(7), Expr::int(2)), Expr::int(4));
        assert_eq!(Expr::ceil_div(Expr::int(-7), Expr::int(2)), Expr::int(-3));
        assert_eq!(Expr::modulo(Expr::int(-7), Expr::int(3)), Expr::int(2));
    }

    #[test]
    fn neutral_elements() {
        assert_eq!(v("i") + Expr::int(0), v("i"));
        assert_eq!(v("i") * Expr::int(1), v("i"));
        assert_eq!(v("i") * Expr::int(0), Expr::int(0));
        assert_eq!(v("i") - Expr::int(0), v("i"));
        assert_eq!(Expr::floor_div(v("i"), Expr::int(1)), v("i"));
        assert_eq!(Expr::modulo(v("i"), Expr::int(1)), Expr::int(0));
    }

    #[test]
    fn add_constant_chains_fold() {
        let e = (v("i") + Expr::int(3)) + Expr::int(4);
        assert_eq!(e.to_string(), "i + 7");
        let e = (v("i") - Expr::int(3)) + Expr::int(1);
        assert_eq!(e.to_string(), "i - 2");
    }

    #[test]
    fn negative_constants_render_as_subtraction() {
        let e = v("n") + Expr::int(-1);
        assert_eq!(e.to_string(), "n - 1");
    }

    #[test]
    fn self_subtraction_cancels() {
        assert_eq!(v("i") - v("i"), Expr::int(0));
    }

    #[test]
    fn double_negation_cancels() {
        assert_eq!(-(-v("i")), v("i"));
    }

    #[test]
    fn min_max_flatten_and_fold() {
        let e = Expr::min2(Expr::min2(v("a"), Expr::int(5)), Expr::int(3));
        assert_eq!(e, Expr::Min(vec![v("a"), Expr::int(3)]));
        let e = Expr::max_of(vec![Expr::int(1), Expr::int(7), v("b")]);
        assert_eq!(e, Expr::Max(vec![Expr::int(7), v("b")]));
        // The folded constant keeps the position of the first constant
        // operand, so paper bounds render as written: max(2, jj - n + 1).
        let e = Expr::max2(Expr::int(2), v("jj") - v("n") + Expr::int(1));
        assert_eq!(e.to_string(), "max(2, jj - n + 1)");
        // Singleton collapses.
        assert_eq!(Expr::min_of(vec![v("x")]), v("x"));
        // Duplicates collapse.
        assert_eq!(Expr::min2(v("x"), v("x")), v("x"));
    }

    #[test]
    fn display_precedence() {
        let e = (v("i") + v("j")) * Expr::int(2);
        assert_eq!(e.to_string(), "2*(i + j)");
        let e = v("i") + v("j") * Expr::int(2);
        assert_eq!(e.to_string(), "i + 2*j");
        let e = Expr::floor_div(v("i") - Expr::int(1), v("b"));
        assert_eq!(e.to_string(), "(i - 1) / b");
        let e = v("i") - (v("j") - v("k"));
        assert_eq!(e.to_string(), "i - (j - k)");
    }

    #[test]
    fn substitution_rebuilds_canonically() {
        let e = v("i") + v("j");
        let r = e.subst_var(&Symbol::new("j"), &Expr::int(0));
        assert_eq!(r, v("i"));
        let r = e.subst_var(&Symbol::new("i"), &(v("jj") - v("ii")));
        assert_eq!(r.to_string(), "jj - ii + j");
    }

    #[test]
    fn free_vars_and_mentions() {
        let e = Expr::min2(v("i") + v("n"), Expr::call("f", vec![v("k")]));
        let vars = e.free_vars();
        assert_eq!(
            vars.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
            ["i", "k", "n"]
        );
        assert!(e.mentions(&Symbol::new("k")));
        assert!(!e.mentions(&Symbol::new("z")));
    }

    #[test]
    fn eval_scalar_full_language() {
        let env = |s: &Symbol| match s.as_str() {
            "i" => Some(7),
            "n" => Some(10),
            _ => None,
        };
        let funcs =
            |name: &Symbol, args: &[i64]| (name.as_str() == "sq").then(|| args[0] * args[0]);
        let e = Expr::min2(v("i") * Expr::int(3), v("n") + Expr::int(100));
        assert_eq!(e.eval_scalar(&env, &funcs), Ok(21));
        let e = Expr::call("sq", vec![v("i")]);
        assert_eq!(e.eval_scalar(&env, &funcs), Ok(49));
        let e = Expr::modulo(Expr::neg(v("i")), Expr::int(3));
        assert_eq!(e.eval_scalar(&env, &funcs), Ok(2));
        assert_eq!(
            v("zz").eval_scalar(&env, &funcs),
            Err(EvalError::UnboundVariable(Symbol::new("zz")))
        );
        let e = Expr::call("unknown", vec![]);
        assert_eq!(
            e.eval_scalar(&env, &funcs),
            Err(EvalError::UnknownFunction(Symbol::new("unknown")))
        );
    }

    #[test]
    fn eval_scalar_rejects_array_reads() {
        let e = Expr::read("A", vec![v("i")]);
        assert_eq!(
            e.eval_scalar(&|_| Some(0), &|_, _| None),
            Err(EvalError::ArrayReadInScalar(Symbol::new("A")))
        );
        assert!(e.reads_arrays());
        assert!(!v("i").reads_arrays());
    }

    #[test]
    fn eval_scalar_division_by_zero() {
        let zero = |_: &Symbol| Some(0);
        let nf = |_: &Symbol, _: &[i64]| None;
        let e = Expr::FloorDiv(Box::new(v("x")), Box::new(v("x")));
        assert_eq!(e.eval_scalar(&zero, &nf), Err(EvalError::DivisionByZero));
    }

    #[test]
    fn simplify_leaves_what_overflows_i64_unfolded() {
        let max = Expr::int(i64::MAX);
        let at = |e: &Expr, n: i64| e.eval_scalar(&|_| Some(n), &|_, _| None).unwrap();
        // The constant -2·MAX and the coefficient MAX + 2 do not fit.
        let konst = v("n") - max.clone() - max.clone();
        let coeff = max.clone() * v("n") + Expr::int(2) * v("n") - Expr::int(3) * v("n");
        for (e, n, value) in [(konst, i64::MAX, -i64::MAX), (coeff, 1, i64::MAX - 1)] {
            assert_eq!(e.simplify(), e);
            assert_eq!(at(&e.simplify(), n), value, "{e}");
        }
        // A constant of exactly i64::MIN folds, but has no negation to
        // render as a subtraction.
        let e = (v("n") - max - Expr::int(1)).simplify();
        assert_eq!(e, v("n") + Expr::int(i64::MIN));
        assert_eq!(at(&e, i64::MAX), -1);
    }

    #[test]
    fn ceil_div_i64_matches_mathematical_ceiling() {
        for a in -20..=20 {
            for b in [-7, -3, -1, 1, 2, 5] {
                let expected = (a as f64 / b as f64).ceil() as i64;
                assert_eq!(ceil_div_i64(a, b), expected, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn array_ref_display_and_subst() {
        let r = ArrayRef::new("A", vec![v("i") + Expr::int(1), v("j")]);
        assert_eq!(r.to_string(), "A(i + 1, j)");
        let r2 = r.substitute(&|s| (s == &Symbol::new("i")).then(|| v("ii")));
        assert_eq!(r2.to_string(), "A(ii + 1, j)");
    }
}
