//! The *unimodular framework* as a standalone transformation engine.
//!
//! This is both the backend for the paper's `Unimodular(n, M)` template and
//! the **baseline** the paper argues against (§5): a framework in which a
//! transformation *is* a matrix, composition is matrix product, legality is
//! `M·d` lexicographic positivity, and code generation scans the
//! transformed polytope. It cannot express `Parallelize`, `Block`,
//! `Coalesce`, or `Interleave` — that inexpressiveness is demonstrated in
//! the benchmark suite.

use crate::depmap::map_dep_set;
use crate::fm::{FmError, IterSpace};
use crate::matrix::IntMatrix;
use irlt_dependence::DepSet;
use irlt_ir::{Expr, Loop, LoopKind, LoopNest, Stmt, Symbol};
use std::fmt;

/// A unimodular iteration-reordering transformation.
///
/// # Examples
///
/// ```
/// use irlt_unimodular::{IntMatrix, UnimodularTransform};
/// use irlt_dependence::DepSet;
/// use irlt_ir::parse_nest;
///
/// // Fig. 1: skew j by i, then interchange.
/// let m = IntMatrix::interchange(2, 0, 1).mul(&IntMatrix::skew(2, 0, 1, 1));
/// let t = UnimodularTransform::new(m)?;
/// let deps = DepSet::from_distances(&[&[1, 0], &[0, 1]]);
/// assert!(t.is_legal(&deps));
///
/// let nest = parse_nest("do i = 2, n - 1\n do j = 2, n - 1\n  a(i, j) = a(i - 1, j) + a(i, j - 1)\n enddo\nenddo")?;
/// let out = t.apply(&nest)?;
/// assert_eq!(out.depth(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnimodularTransform {
    matrix: IntMatrix,
}

/// Errors from constructing or applying a [`UnimodularTransform`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnimodularError {
    /// The matrix is not square-integral with determinant ±1.
    NotUnimodular,
    /// The nest depth does not match the matrix dimension.
    DepthMismatch {
        /// Matrix dimension.
        expected: usize,
        /// Nest depth.
        found: usize,
    },
    /// The unimodular framework only transforms fully sequential nests;
    /// `Parallelize` in the general framework handles `pardo` loops.
    ParallelLoop {
        /// 0-based level of the offending loop.
        level: usize,
    },
    /// Bound/step preconditions failed or the space is unbounded.
    Fm(FmError),
}

impl fmt::Display for UnimodularError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnimodularError::NotUnimodular => {
                f.write_str("matrix is not unimodular (square, integral, det ±1)")
            }
            UnimodularError::DepthMismatch { expected, found } => {
                write!(
                    f,
                    "matrix is {expected}-dimensional but the nest has {found} loops"
                )
            }
            UnimodularError::ParallelLoop { level } => {
                write!(
                    f,
                    "loop {level} is pardo; the unimodular framework is sequential-only"
                )
            }
            UnimodularError::Fm(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for UnimodularError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            UnimodularError::Fm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FmError> for UnimodularError {
    fn from(e: FmError) -> Self {
        UnimodularError::Fm(e)
    }
}

impl UnimodularTransform {
    /// Wraps a matrix, validating unimodularity.
    ///
    /// # Errors
    ///
    /// Returns [`UnimodularError::NotUnimodular`] otherwise.
    pub fn new(matrix: IntMatrix) -> Result<UnimodularTransform, UnimodularError> {
        if matrix.is_unimodular() {
            Ok(UnimodularTransform { matrix })
        } else {
            Err(UnimodularError::NotUnimodular)
        }
    }

    /// Wraps a matrix the caller has already validated (a
    /// `Template::Unimodular` checks its matrix at construction), without
    /// recomputing the determinant. Debug builds still check it.
    pub fn from_validated(matrix: IntMatrix) -> UnimodularTransform {
        debug_assert!(matrix.is_unimodular(), "matrix is not unimodular");
        UnimodularTransform { matrix }
    }

    /// The identity transformation on `n` loops.
    pub fn identity(n: usize) -> UnimodularTransform {
        UnimodularTransform {
            matrix: IntMatrix::identity(n),
        }
    }

    /// The transformation matrix.
    pub fn matrix(&self) -> &IntMatrix {
        &self.matrix
    }

    /// Nest depth this transformation applies to.
    pub fn dim(&self) -> usize {
        self.matrix.rows()
    }

    /// Sequential composition: apply `self` first, then `next`
    /// (`next.matrix · self.matrix` — the unimodular framework's one-matrix
    /// composition the paper contrasts with sequence concatenation).
    pub fn then(&self, next: &UnimodularTransform) -> UnimodularTransform {
        UnimodularTransform {
            matrix: next.matrix.mul(&self.matrix),
        }
    }

    /// Maps a dependence set through the matrix.
    ///
    /// # Panics
    ///
    /// Panics if the set arity differs from the matrix dimension.
    pub fn map_deps(&self, deps: &DepSet) -> DepSet {
        map_dep_set(&self.matrix, deps)
    }

    /// Dependence legality: the mapped set must admit no lexicographically
    /// negative tuple.
    pub fn is_legal(&self, deps: &DepSet) -> bool {
        self.map_deps(deps).is_legal()
    }

    /// Applies the transformation to a nest: normalizes steps, changes
    /// basis, regenerates bounds by Fourier–Motzkin, and emits
    /// initialization statements `x = M⁻¹·y` for the original index
    /// variables (reusing original names where the mapping is the
    /// identity on that variable, per the paper's "special effort").
    ///
    /// # Errors
    ///
    /// Returns [`UnimodularError`] if preconditions fail (nonlinear bounds,
    /// symbolic steps, parallel loops) or the transformed space is
    /// unbounded.
    pub fn apply(&self, nest: &LoopNest) -> Result<LoopNest, UnimodularError> {
        self.apply_named(nest, None)
    }

    /// Like [`UnimodularTransform::apply`], with explicit names for the new
    /// index variables (e.g. the paper's `jj`, `ii` in Fig. 1(b)). Pass
    /// `None` to derive names automatically.
    ///
    /// # Errors
    ///
    /// See [`UnimodularTransform::apply`].
    pub fn apply_named(
        &self,
        nest: &LoopNest,
        new_names: Option<Vec<Symbol>>,
    ) -> Result<LoopNest, UnimodularError> {
        let n = nest.depth();
        if n != self.dim() {
            return Err(UnimodularError::DepthMismatch {
                expected: self.dim(),
                found: n,
            });
        }
        if let Some(level) = nest.loops().iter().position(|l| l.kind.is_parallel()) {
            return Err(UnimodularError::ParallelLoop { level });
        }
        let normalized = IterSpace::from_nest(nest)?;
        let z_names = normalized.space.names().to_vec();

        let minv = self.matrix.inverse().expect("validated unimodular");
        // z_k = Σ_j M⁻¹[k][j] · y_j. When row k is the unit vector e_j, the
        // new variable j can simply reuse z_k's name (no init needed).
        let names = match new_names {
            Some(names) => {
                assert_eq!(names.len(), n, "need one name per loop");
                names
            }
            None => derive_names(&minv, &z_names, nest),
        };

        let y_space = normalized
            .space
            .change_basis_by_inverse(&minv, names.clone());
        let bounds = y_space.generate_bounds()?;

        let mut inits: Vec<Stmt> = Vec::new();
        for (k, z_name) in z_names.iter().enumerate() {
            let expr = row_expr(&minv, k, &names).simplify();
            if expr.as_var() == Some(z_name) && names.contains(z_name) {
                // Name reused: z_k literally is some y_j.
                continue;
            }
            inits.push(Stmt::scalar(z_name.clone(), expr));
        }
        // Rebinds from step normalization (original x in terms of z).
        for (var, expr) in &normalized.rebinds {
            inits.push(Stmt::scalar(var.clone(), expr.simplify()));
        }
        // Initialization statements from earlier transformations in a
        // sequence reference the variables just rebound; they follow the
        // new INITs (the paper's INIT_k, …, INIT_1 emission order).
        inits.extend(nest.inits().iter().cloned());

        let loops: Vec<Loop> = names
            .iter()
            .zip(&bounds)
            .map(|(name, (lo, up))| Loop {
                var: name.clone(),
                lower: lo.clone(),
                upper: up.clone(),
                step: Expr::int(1),
                kind: LoopKind::Do,
            })
            .collect();
        Ok(LoopNest::with_inits(loops, inits, nest.body().to_vec()))
    }
}

/// Derives new index-variable names: if `M⁻¹` row `k` is the unit vector
/// `e_j`, new variable `j` reuses old name `k`; otherwise the dominant old
/// variable's name is doubled (`j` → `jj`) and freshened.
fn derive_names(minv: &IntMatrix, old: &[Symbol], nest: &LoopNest) -> Vec<Symbol> {
    let n = old.len();
    let mut names: Vec<Option<Symbol>> = vec![None; n];
    // Pass 1: exact reuses. z_k = y_j exactly when row k of M⁻¹ is e_j.
    for (k, old_name) in old.iter().enumerate() {
        if let Some(j) = unit_row(minv, k) {
            if names[j].is_none() {
                names[j] = Some(old_name.clone());
            }
        }
    }
    // Pass 2: derived names for the rest.
    let taken_base: Vec<Symbol> = nest.all_scalar_symbols().into_iter().collect();
    for j in 0..n {
        if names[j].is_some() {
            continue;
        }
        // Dominant old variable of new variable j: the old k with the
        // largest |M⁻¹[k][j]| (ties: innermost).
        let k_dom = (0..n)
            .max_by_key(|&k| (minv[(k, j)].abs(), k))
            .expect("n > 0");
        let base = old[k_dom].as_str();
        let candidate = if base.len() == 1 {
            Symbol::new(format!("{base}{base}"))
        } else {
            Symbol::new(format!("{base}2"))
        };
        let fresh = candidate.freshen(|s| {
            // Taken: every symbol of the source nest, every normalized
            // (z) variable — the init statements still bind those — and
            // every name already chosen.
            taken_base.contains(s) || old.contains(s) || names.iter().flatten().any(|t| t == s)
        });
        names[j] = Some(fresh);
    }
    names
        .into_iter()
        .map(|s| s.expect("all assigned"))
        .collect()
}

/// Is row `k` of `m` a unit vector? Returns the column of the 1.
fn unit_row(m: &IntMatrix, k: usize) -> Option<usize> {
    let row = m.row(k);
    let mut pos = None;
    for (j, &c) in row.iter().enumerate() {
        match c {
            0 => {}
            1 if pos.is_none() => pos = Some(j),
            _ => return None,
        }
    }
    pos
}

/// Builds `Σ_j m[k][j] · names[j]` as an expression.
fn row_expr(m: &IntMatrix, k: usize, names: &[Symbol]) -> Expr {
    let mut acc = Expr::int(0);
    for (j, name) in names.iter().enumerate() {
        acc = Expr::add(
            acc,
            Expr::mul(Expr::int(m[(k, j)]), Expr::var(name.clone())),
        );
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use irlt_ir::parse_nest;

    fn stencil() -> LoopNest {
        parse_nest(
            "do i = 2, n - 1\n do j = 2, n - 1\n  a(i, j) = (a(i, j) + a(i - 1, j) + a(i, j - 1) + a(i + 1, j) + a(i, j + 1)) / 5\n enddo\nenddo",
        )
        .unwrap()
    }

    #[test]
    fn constructor_validates() {
        assert!(UnimodularTransform::new(IntMatrix::from_rows(&[&[2, 0], &[0, 1]])).is_err());
        assert!(UnimodularTransform::new(IntMatrix::interchange(2, 0, 1)).is_ok());
    }

    #[test]
    fn composition_is_matrix_product() {
        let skew = UnimodularTransform::new(IntMatrix::skew(2, 0, 1, 1)).unwrap();
        let inter = UnimodularTransform::new(IntMatrix::interchange(2, 0, 1)).unwrap();
        let both = skew.then(&inter);
        assert_eq!(both.matrix(), &IntMatrix::from_rows(&[&[1, 1], &[1, 0]]));
    }

    #[test]
    fn legality_figure2() {
        let deps = DepSet::from_distances(&[&[1, -1]]);
        let inter = UnimodularTransform::new(IntMatrix::interchange(2, 0, 1)).unwrap();
        assert!(!inter.is_legal(&deps));
        // Reverse loop j first, then interchange: legal.
        let rev = UnimodularTransform::new(IntMatrix::reversal(2, 1)).unwrap();
        assert!(rev.then(&inter).is_legal(&deps));
    }

    #[test]
    fn figure1_skew_interchange_codegen() {
        // Skew j by i then interchange; explicit paper names jj, ii.
        let m = IntMatrix::interchange(2, 0, 1).mul(&IntMatrix::skew(2, 0, 1, 1));
        let t = UnimodularTransform::new(m).unwrap();
        let out = t
            .apply_named(&stencil(), Some(vec![Symbol::new("jj"), Symbol::new("ii")]))
            .unwrap();
        let text = out.to_string();
        // Fig. 1(b): do jj = 4, n+n−2; do ii = max(2, jj−n+1), min(n−1, jj−2);
        //            j = jj − ii; i = ii.
        assert!(text.contains("do jj = 4, 2*n - 2, 1"), "{text}");
        assert!(
            text.contains("do ii = max(2, jj - n + 1), min(n - 1, jj - 2), 1"),
            "{text}"
        );
        assert!(text.contains("j = jj - ii"), "{text}");
        assert!(text.contains("i = ii"), "{text}");
    }

    #[test]
    fn identity_transform_reuses_names_and_bounds() {
        let t = UnimodularTransform::identity(2);
        let out = t.apply(&stencil()).unwrap();
        assert!(out.inits().is_empty(), "{out}");
        assert_eq!(out.level(0).var, "i");
        assert_eq!(out.level(1).var, "j");
        assert_eq!(out.level(0).lower, Expr::int(2));
    }

    #[test]
    fn interchange_triangular_figure4() {
        // Fig. 4(a)→(b): do i = 1,n; do j = 1,i  ⇒  do j = 1,n; do i = j,n.
        let nest = parse_nest("do i = 1, n\n do j = 1, i\n  a(i, j) = 0\n enddo\nenddo").unwrap();
        let t = UnimodularTransform::new(IntMatrix::interchange(2, 0, 1)).unwrap();
        let out = t.apply(&nest).unwrap();
        let text = out.to_string();
        assert!(text.contains("do j = 1, n, 1"), "{text}");
        assert!(text.contains("do i = j, n, 1"), "{text}");
        // Names reused: no inits.
        assert!(out.inits().is_empty(), "{text}");
    }

    #[test]
    fn reversal_codegen() {
        let nest = parse_nest("do i = 1, n\n a(i) = i\nenddo").unwrap();
        let t = UnimodularTransform::new(IntMatrix::reversal(1, 0)).unwrap();
        let out = t.apply(&nest).unwrap();
        let text = out.to_string();
        // New variable ii runs from −n to −1 with i = −ii.
        assert!(text.contains("do ii = -n, -1, 1"), "{text}");
        assert!(text.contains("i = -ii"), "{text}");
    }

    #[test]
    fn parallel_loop_rejected() {
        let nest = parse_nest("pardo i = 1, n\n a(i) = 0\nenddo").unwrap();
        let t = UnimodularTransform::identity(1);
        assert_eq!(
            t.apply(&nest),
            Err(UnimodularError::ParallelLoop { level: 0 })
        );
    }

    #[test]
    fn depth_mismatch_rejected() {
        let nest = parse_nest("do i = 1, n\n a(i) = 0\nenddo").unwrap();
        let t = UnimodularTransform::identity(2);
        assert!(matches!(
            t.apply(&nest),
            Err(UnimodularError::DepthMismatch { .. })
        ));
    }

    #[test]
    fn nonlinear_bound_rejected() {
        let nest = irlt_ir::Parser::new(
            "do i = 1, n\n do j = 1, n\n  do k = colstr(j), colstr(j + 1) - 1\n   a(i, j) = a(i, j) + c(k)\n  enddo\n enddo\nenddo",
        )
        .with_function("colstr")
        .parse_nest()
        .unwrap();
        let t = UnimodularTransform::identity(3);
        assert!(matches!(
            t.apply(&nest),
            Err(UnimodularError::Fm(FmError::NotAffine { .. }))
        ));
    }

    #[test]
    fn step_normalization_round_trip() {
        // do i = 1, 10, 3 → normalized then identity-transformed: the new
        // loop counts iterations and i is rebound.
        let nest = parse_nest("do i = 1, 10, 3\n a(i) = i\nenddo").unwrap();
        let t = UnimodularTransform::identity(1);
        let out = t.apply(&nest).unwrap();
        let text = out.to_string();
        assert!(
            text.contains("i = 3*i_1 + 1") || text.contains("i = 1 + 3*i_1"),
            "{text}"
        );
        assert!(text.contains("do i_1 = 0, 3, 1"), "{text}");
    }

    #[test]
    fn negative_step_normalization_regression() {
        // Found by proptest: `do j = 3, 1, -1` normalized with the wrong
        // origin produced an empty loop. The normalized loop must count
        // three iterations with j = 3 − z.
        let nest = parse_nest("do j = 3, 1, -1\n a(j) = j\nenddo").unwrap();
        let t = UnimodularTransform::identity(1);
        let out = t.apply(&nest).unwrap();
        let text = out.to_string();
        assert!(text.contains("do j_1 = 0, 2, 1"), "{text}");
        assert!(
            text.contains("j = 3 - j_1") || text.contains("j = -j_1 + 3"),
            "{text}"
        );
        // And reversing it scans the same three values ascending.
        let rev = UnimodularTransform::new(IntMatrix::reversal(1, 0)).unwrap();
        let out = rev.apply(&nest).unwrap();
        let text = out.to_string();
        assert!(text.contains("do j_12 = -2, 0, 1"), "{text}");
    }

    #[test]
    fn derived_names_avoid_normalized_variables() {
        // Found by proptest: reversing a single-letter-named unit loop in
        // a nest that also contains its doubled name (jj) and normalized
        // z-variables (jj_1) must not reuse `jj_1` as a loop name.
        let nest = parse_nest(
            "do ii = 3, 1, -4\n do jj = 1, 6, 2\n  do i = 3, 1, -2\n   do j = 1, 3\n    A(2*j) = A(2*j) + 1\n   enddo\n  enddo\n enddo\nenddo",
        )
        .unwrap();
        let m = IntMatrix::reversal(4, 1).mul(&IntMatrix::reversal(4, 3));
        let t = UnimodularTransform::new(m).unwrap();
        let out = t.apply(&nest).unwrap();
        // No loop variable may collide with an init-defined variable.
        let loop_vars: Vec<_> = out.loops().iter().map(|l| l.var.clone()).collect();
        for init in out.inits() {
            if let Some(irlt_ir::Target::Scalar(defined)) = init.target() {
                assert!(
                    !loop_vars.contains(defined),
                    "loop var collides with init `{defined}`:\n{out}"
                );
            }
        }
        // And the nest executes equivalently.
        let r = irlt_interp::check_equivalence(&nest, &out, &[], 5).unwrap();
        assert!(r.is_equivalent(), "{r}\n{out}");
    }

    #[test]
    fn error_display() {
        let e = UnimodularError::DepthMismatch {
            expected: 2,
            found: 3,
        };
        assert!(e.to_string().contains("2-dimensional"));
        assert!(UnimodularError::NotUnimodular
            .to_string()
            .contains("unimodular"));
    }
}
