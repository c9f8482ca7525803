//! Perfect loop nests.
//!
//! A [`LoopNest`] is the unit every transformation in the framework consumes
//! and produces: a stack of [`Loop`] headers (each `do` or `pardo`, with
//! lower/upper/step bound expressions), an optional block of
//! *initialization statements* that rebind original index variables in terms
//! of the new ones (the paper's `INIT` statements, Fig. 3), and a body of
//! ordinary statements.

use crate::expr::Expr;
use crate::stmt::Stmt;
use crate::symbol::Symbol;
use std::collections::BTreeSet;
use std::fmt;

/// Whether a loop executes its iterations sequentially or in parallel.
///
/// The paper writes these as `do` and `pardo`; `Parallelize` is "just
/// another iteration-reordering transformation" that flips this flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum LoopKind {
    /// Sequential `do` loop.
    #[default]
    Do,
    /// Parallel `pardo` loop: iterations may execute in any order or
    /// concurrently.
    ParDo,
}

impl LoopKind {
    /// True for `pardo`.
    pub fn is_parallel(self) -> bool {
        matches!(self, LoopKind::ParDo)
    }

    /// Keyword used in concrete syntax.
    pub fn keyword(self) -> &'static str {
        match self {
            LoopKind::Do => "do",
            LoopKind::ParDo => "pardo",
        }
    }
}

impl fmt::Display for LoopKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// One loop header: `do var = lower, upper, step`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Loop {
    /// Index variable bound by this loop.
    pub var: Symbol,
    /// Lower bound expression `l_k`.
    pub lower: Expr,
    /// Upper bound expression `u_k` (inclusive, Fortran-style).
    pub upper: Expr,
    /// Step expression `s_k`; must evaluate nonzero at run time.
    pub step: Expr,
    /// Sequential or parallel.
    pub kind: LoopKind,
}

impl Loop {
    /// Creates a sequential loop with unit step.
    ///
    /// # Examples
    ///
    /// ```
    /// use irlt_ir::{Expr, Loop};
    ///
    /// let l = Loop::new("i", Expr::int(1), Expr::var("n"));
    /// assert_eq!(l.to_string(), "do i = 1, n, 1");
    /// ```
    pub fn new(var: impl Into<Symbol>, lower: Expr, upper: Expr) -> Loop {
        Loop {
            var: var.into(),
            lower,
            upper,
            step: Expr::int(1),
            kind: LoopKind::Do,
        }
    }

    /// Sets the step expression (builder style).
    #[must_use]
    pub fn with_step(mut self, step: Expr) -> Loop {
        self.step = step;
        self
    }

    /// Sets the loop kind (builder style).
    #[must_use]
    pub fn with_kind(mut self, kind: LoopKind) -> Loop {
        self.kind = kind;
        self
    }

    /// Creates a parallel loop with unit step.
    pub fn parallel(var: impl Into<Symbol>, lower: Expr, upper: Expr) -> Loop {
        Loop::new(var, lower, upper).with_kind(LoopKind::ParDo)
    }

    /// Collects the free variables of the three bound expressions.
    pub fn collect_bound_vars(&self, out: &mut BTreeSet<Symbol>) {
        self.lower.collect_vars(out);
        self.upper.collect_vars(out);
        self.step.collect_vars(out);
    }
}

impl fmt::Display for Loop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} = {}, {}, {}",
            self.kind, self.var, self.lower, self.upper, self.step
        )
    }
}

/// A perfect loop nest: loops from outermost to innermost, initialization
/// statements, and a body.
///
/// Invariants (checked by [`LoopNest::validate`]):
/// * at least one loop; index variables are pairwise distinct;
/// * a bound of loop `k` may reference only indices of loops `1..k` and
///   loop-invariant parameters;
/// * bound expressions never read arrays (a bound with a side effect would
///   make the nest imperfect, §4).
///
/// # Examples
///
/// ```
/// use irlt_ir::{Expr, Loop, LoopNest, Stmt};
///
/// let nest = LoopNest::new(
///     vec![
///         Loop::new("i", Expr::int(1), Expr::var("n")),
///         Loop::new("j", Expr::int(1), Expr::var("i")),
///     ],
///     vec![Stmt::array("A", vec![Expr::var("i"), Expr::var("j")], Expr::int(0))],
/// );
/// assert_eq!(nest.depth(), 2);
/// nest.validate().unwrap();
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LoopNest {
    loops: Vec<Loop>,
    inits: Vec<Stmt>,
    body: Vec<Stmt>,
}

impl LoopNest {
    /// Creates a nest from loops (outermost first) and a body, with no
    /// initialization statements.
    ///
    /// # Panics
    ///
    /// Panics if `loops` is empty.
    pub fn new(loops: Vec<Loop>, body: Vec<Stmt>) -> LoopNest {
        assert!(!loops.is_empty(), "a loop nest needs at least one loop");
        LoopNest {
            loops,
            inits: Vec::new(),
            body,
        }
    }

    /// Creates a nest with initialization statements (the generated
    /// `x_i = f(x'_1, …)` bindings that precede the body).
    ///
    /// # Panics
    ///
    /// Panics if `loops` is empty.
    pub fn with_inits(loops: Vec<Loop>, inits: Vec<Stmt>, body: Vec<Stmt>) -> LoopNest {
        assert!(!loops.is_empty(), "a loop nest needs at least one loop");
        LoopNest { loops, inits, body }
    }

    /// Number of loops (the paper's `n`).
    pub fn depth(&self) -> usize {
        self.loops.len()
    }

    /// The loops, outermost first.
    pub fn loops(&self) -> &[Loop] {
        &self.loops
    }

    /// The `k`-th loop, 0-based from the outermost.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.depth()`.
    pub fn level(&self, k: usize) -> &Loop {
        &self.loops[k]
    }

    /// Generated initialization statements (empty for source nests).
    pub fn inits(&self) -> &[Stmt] {
        &self.inits
    }

    /// Body statements (excluding initializations).
    pub fn body(&self) -> &[Stmt] {
        &self.body
    }

    /// Index variables, outermost first.
    pub fn index_vars(&self) -> Vec<Symbol> {
        self.loops.iter().map(|l| l.var.clone()).collect()
    }

    /// Loop kinds, outermost first.
    pub fn kinds(&self) -> Vec<LoopKind> {
        self.loops.iter().map(|l| l.kind).collect()
    }

    /// This nest with loop `k`'s kind set to `kinds[k]`, in place.
    ///
    /// # Panics
    ///
    /// Panics if `kinds.len()` differs from the depth.
    #[must_use]
    pub fn with_kinds(mut self, kinds: &[LoopKind]) -> LoopNest {
        assert_eq!(kinds.len(), self.loops.len(), "one kind per loop");
        for (l, &kind) in self.loops.iter_mut().zip(kinds) {
            l.kind = kind;
        }
        self
    }

    /// Position of an index variable, if it binds a loop in this nest.
    pub fn level_of(&self, var: &Symbol) -> Option<usize> {
        self.loops.iter().position(|l| &l.var == var)
    }

    /// All symbols that appear anywhere in the nest (indices, parameters,
    /// arrays are *not* included — only scalar variables).
    pub fn all_scalar_symbols(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        for l in &self.loops {
            out.insert(l.var.clone());
            l.collect_bound_vars(&mut out);
        }
        for s in self.inits.iter().chain(&self.body) {
            s.collect_uses(&mut out);
            if let Some(crate::stmt::Target::Scalar(t)) = s.target() {
                out.insert(t.clone());
            }
        }
        out
    }

    /// Free parameters: scalar variables used by bounds or body that are not
    /// bound by any loop and not defined by an initialization statement.
    ///
    /// These are the symbols a caller must supply values for when executing
    /// the nest (`n`, block sizes, …).
    pub fn parameters(&self) -> BTreeSet<Symbol> {
        let indices: BTreeSet<Symbol> = self.index_vars().into_iter().collect();
        let defined: BTreeSet<Symbol> = self
            .inits
            .iter()
            .filter_map(|s| match s.target() {
                Some(crate::stmt::Target::Scalar(t)) => Some(t.clone()),
                _ => None,
            })
            .collect();
        let mut used = BTreeSet::new();
        for l in &self.loops {
            l.collect_bound_vars(&mut used);
        }
        for s in self.inits.iter().chain(&self.body) {
            s.collect_uses(&mut used);
        }
        used.into_iter()
            .filter(|s| !indices.contains(s) && !defined.contains(s))
            .collect()
    }

    /// Array names referenced anywhere in the body (reads or writes).
    pub fn arrays(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        for s in self.inits.iter().chain(&self.body) {
            for (r, _) in s.array_refs() {
                out.insert(r.array.clone());
            }
        }
        out
    }

    /// Checks the perfect-nest invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`ValidateError`].
    pub fn validate(&self) -> Result<(), ValidateError> {
        let mut seen: BTreeSet<&Symbol> = BTreeSet::new();
        for l in &self.loops {
            if !seen.insert(&l.var) {
                return Err(ValidateError::DuplicateIndex(l.var.clone()));
            }
        }
        let mut visible: BTreeSet<&Symbol> = BTreeSet::new();
        let all_indices: BTreeSet<&Symbol> = self.loops.iter().map(|l| &l.var).collect();
        for (k, l) in self.loops.iter().enumerate() {
            for bound in [&l.lower, &l.upper, &l.step] {
                if bound.reads_arrays() {
                    return Err(ValidateError::ArrayReadInBound {
                        level: k,
                        var: l.var.clone(),
                    });
                }
                for used in bound.free_vars() {
                    if all_indices.contains(&used) && !visible.contains(&used) {
                        return Err(ValidateError::ForwardIndexInBound {
                            level: k,
                            var: l.var.clone(),
                            offending: used,
                        });
                    }
                }
            }
            if l.step.as_const() == Some(0) {
                return Err(ValidateError::ZeroStep {
                    level: k,
                    var: l.var.clone(),
                });
            }
            visible.insert(&l.var);
        }
        Ok(())
    }
}

/// A violated [`LoopNest`] invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidateError {
    /// Two loops bind the same index variable.
    DuplicateIndex(Symbol),
    /// A bound of loop `level` references the index of an equal-or-inner
    /// loop.
    ForwardIndexInBound {
        /// 0-based loop level whose bound is invalid.
        level: usize,
        /// Index variable of that loop.
        var: Symbol,
        /// The illegally referenced index variable.
        offending: Symbol,
    },
    /// A bound expression reads an array.
    ArrayReadInBound {
        /// 0-based loop level whose bound is invalid.
        level: usize,
        /// Index variable of that loop.
        var: Symbol,
    },
    /// A step is the literal constant zero.
    ZeroStep {
        /// 0-based loop level.
        level: usize,
        /// Index variable of that loop.
        var: Symbol,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::DuplicateIndex(v) => {
                write!(f, "duplicate index variable `{v}`")
            }
            ValidateError::ForwardIndexInBound { level, var, offending } => write!(
                f,
                "bound of loop {level} (`{var}`) references index `{offending}` of an equal-or-inner loop"
            ),
            ValidateError::ArrayReadInBound { level, var } => {
                write!(f, "bound of loop {level} (`{var}`) reads an array")
            }
            ValidateError::ZeroStep { level, var } => {
                write!(f, "loop {level} (`{var}`) has constant zero step")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

impl fmt::Display for LoopNest {
    /// Pretty-prints in the paper's concrete syntax:
    ///
    /// ```text
    /// do jj = 4, n + n - 2, 1
    ///   do ii = max(2, jj - n + 1), min(n - 1, jj - 2), 1
    ///     j = jj - ii
    ///     i = ii
    ///     a(i, j) = …
    ///   enddo
    /// enddo
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.loops.len();
        for (k, l) in self.loops.iter().enumerate() {
            writeln!(f, "{:indent$}{l}", "", indent = 2 * k)?;
        }
        for s in self.inits.iter().chain(&self.body) {
            writeln!(f, "{:indent$}{s}", "", indent = 2 * n)?;
        }
        for k in (0..n).rev() {
            writeln!(f, "{:indent$}enddo", "", indent = 2 * k)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(name: &str) -> Expr {
        Expr::var(name)
    }

    fn triangular() -> LoopNest {
        LoopNest::new(
            vec![
                Loop::new("i", Expr::int(1), v("n")),
                Loop::new("j", Expr::int(1), v("i")),
            ],
            vec![Stmt::array("A", vec![v("i"), v("j")], Expr::int(0))],
        )
    }

    #[test]
    fn accessors() {
        let nest = triangular();
        assert_eq!(nest.depth(), 2);
        assert_eq!(nest.level(1).var, "j");
        assert_eq!(nest.level_of(&Symbol::new("j")), Some(1));
        assert_eq!(nest.level_of(&Symbol::new("z")), None);
        assert_eq!(
            nest.index_vars()
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>(),
            ["i", "j"]
        );
    }

    #[test]
    fn parameters_excludes_indices_and_init_definitions() {
        let nest = LoopNest::with_inits(
            vec![Loop::new("ii", Expr::int(1), v("n"))],
            vec![Stmt::scalar("i", v("ii"))],
            vec![Stmt::array("A", vec![v("i")], v("c"))],
        );
        let params: Vec<String> = nest
            .parameters()
            .iter()
            .map(|s| s.as_str().to_string())
            .collect();
        assert_eq!(params, ["c", "n"]);
    }

    #[test]
    fn arrays_found() {
        let nest = LoopNest::new(
            vec![Loop::new("i", Expr::int(1), v("n"))],
            vec![Stmt::array(
                "A",
                vec![v("i")],
                Expr::read("B", vec![v("i")]),
            )],
        );
        let arrays: Vec<String> = nest
            .arrays()
            .iter()
            .map(|s| s.as_str().to_string())
            .collect();
        assert_eq!(arrays, ["A", "B"]);
    }

    #[test]
    fn validate_accepts_triangular() {
        triangular().validate().unwrap();
    }

    #[test]
    fn validate_rejects_duplicate_indices() {
        let nest = LoopNest::new(
            vec![
                Loop::new("i", Expr::int(1), v("n")),
                Loop::new("i", Expr::int(1), v("n")),
            ],
            vec![],
        );
        assert_eq!(
            nest.validate(),
            Err(ValidateError::DuplicateIndex(Symbol::new("i")))
        );
    }

    #[test]
    fn validate_rejects_forward_reference() {
        let nest = LoopNest::new(
            vec![
                Loop::new("i", Expr::int(1), v("j")),
                Loop::new("j", Expr::int(1), v("n")),
            ],
            vec![],
        );
        assert!(matches!(
            nest.validate(),
            Err(ValidateError::ForwardIndexInBound { level: 0, .. })
        ));
    }

    #[test]
    fn validate_rejects_self_reference() {
        let nest = LoopNest::new(vec![Loop::new("i", Expr::int(1), v("i"))], vec![]);
        assert!(matches!(
            nest.validate(),
            Err(ValidateError::ForwardIndexInBound { .. })
        ));
    }

    #[test]
    fn validate_rejects_array_read_in_bound() {
        let nest = LoopNest::new(
            vec![Loop::new(
                "i",
                Expr::int(1),
                Expr::read("lim", vec![Expr::int(0)]),
            )],
            vec![],
        );
        assert!(matches!(
            nest.validate(),
            Err(ValidateError::ArrayReadInBound { level: 0, .. })
        ));
    }

    #[test]
    fn validate_rejects_zero_step() {
        let nest = LoopNest::new(
            vec![Loop::new("i", Expr::int(1), v("n")).with_step(Expr::int(0))],
            vec![],
        );
        assert!(matches!(
            nest.validate(),
            Err(ValidateError::ZeroStep { .. })
        ));
    }

    #[test]
    fn display_matches_paper_syntax() {
        let nest = LoopNest::with_inits(
            vec![
                Loop::new("jj", Expr::int(4), v("n") + v("n") - Expr::int(2)),
                Loop::new(
                    "ii",
                    Expr::max2(Expr::int(2), v("jj") - v("n") + Expr::int(1)),
                    Expr::min2(v("n") - Expr::int(1), v("jj") - Expr::int(2)),
                ),
            ],
            vec![
                Stmt::scalar("j", v("jj") - v("ii")),
                Stmt::scalar("i", v("ii")),
            ],
            vec![Stmt::array("a", vec![v("i"), v("j")], Expr::int(0))],
        );
        let text = nest.to_string();
        let expected = "\
do jj = 4, n + n - 2, 1
  do ii = max(2, jj - n + 1), min(n - 1, jj - 2), 1
    j = jj - ii
    i = ii
    a(i, j) = 0
  enddo
enddo
";
        assert_eq!(text, expected);
    }

    #[test]
    fn pardo_renders() {
        let nest = LoopNest::new(
            vec![Loop::parallel("i", Expr::int(1), v("n"))],
            vec![Stmt::array("A", vec![v("i")], Expr::int(1))],
        );
        assert!(nest.to_string().starts_with("pardo i = 1, n, 1"));
        assert!(nest.level(0).kind.is_parallel());
    }
}
