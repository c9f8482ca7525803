//! Exact integer matrices and unimodularity.
//!
//! A transformation matrix in the paper's `Unimodular(n, M)` template must
//! be square, integral, and have determinant ±1. This module provides the
//! matrix type, elementary generators (reversal, interchange/permutation,
//! skew — "the three most commonly used unimodular transformations"),
//! exact determinants, and exact inverses (integral for unimodular
//! matrices).

use std::fmt;

/// A dense, row-major integer matrix.
///
/// # Examples
///
/// ```
/// use irlt_unimodular::IntMatrix;
///
/// let m = IntMatrix::interchange(2, 0, 1);
/// assert!(m.is_unimodular());
/// assert_eq!(m.mul(&m), IntMatrix::identity(2));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct IntMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i64>,
}

impl IntMatrix {
    /// Creates a matrix from rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or ragged.
    pub fn from_rows(rows: &[&[i64]]) -> IntMatrix {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix needs at least one column");
        assert!(rows.iter().all(|r| r.len() == cols), "ragged rows");
        IntMatrix {
            rows: rows.len(),
            cols,
            data: rows.iter().flat_map(|r| r.iter().copied()).collect(),
        }
    }

    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> IntMatrix {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        IntMatrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> IntMatrix {
        let mut m = IntMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1;
        }
        m
    }

    /// Loop **interchange** generator: identity with rows `i` and `j`
    /// swapped.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn interchange(n: usize, i: usize, j: usize) -> IntMatrix {
        let mut m = IntMatrix::identity(n);
        assert!(i < n && j < n, "interchange indices out of range");
        if i != j {
            m[(i, i)] = 0;
            m[(j, j)] = 0;
            m[(i, j)] = 1;
            m[(j, i)] = 1;
        }
        m
    }

    /// Loop **reversal** generator: identity with entry `(i, i) = −1`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn reversal(n: usize, i: usize) -> IntMatrix {
        let mut m = IntMatrix::identity(n);
        assert!(i < n, "reversal index out of range");
        m[(i, i)] = -1;
        m
    }

    /// Loop **skew** generator: `x'_j = x_j + f · x_i` (identity plus `f`
    /// at `(j, i)`).
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either is out of range.
    pub fn skew(n: usize, i: usize, j: usize, f: i64) -> IntMatrix {
        assert!(i < n && j < n && i != j, "invalid skew indices");
        let mut m = IntMatrix::identity(n);
        m[(j, i)] = f;
        m
    }

    /// **Permutation** generator: new position of old loop `k` is
    /// `perm[k]` (row `perm[k]` has a 1 in column `k`, so `y = P·x` puts
    /// `x_k` at position `perm[k]`).
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..perm.len()`.
    pub fn permutation(perm: &[usize]) -> IntMatrix {
        let n = perm.len();
        let mut m = IntMatrix::zeros(n, n);
        let mut seen = vec![false; n];
        for (old, &new) in perm.iter().enumerate() {
            assert!(new < n && !seen[new], "not a permutation");
            seen[new] = true;
            m[(new, old)] = 1;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[i64] {
        assert!(i < self.rows, "row out of range");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are incompatible.
    pub fn mul(&self, other: &IntMatrix) -> IntMatrix {
        assert_eq!(self.cols, other.rows, "dimension mismatch in product");
        let mut out = IntMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[i64]) -> Vec<i64> {
        assert_eq!(v.len(), self.cols, "vector length mismatch");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(&a, &x)| a * x).sum())
            .collect()
    }

    /// Transpose.
    pub fn transpose(&self) -> IntMatrix {
        let mut out = IntMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Exact determinant by fraction-free (Bareiss) elimination, with
    /// every intermediate step checked in `i128`: `None` if one
    /// overflows or the determinant does not fit `i64`. Matrices from
    /// untrusted input (scripts, snapshots) go through this, so large
    /// entries are answered, never a panic or a silently wrapped value.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn checked_det(&self) -> Option<i64> {
        assert!(self.is_square(), "determinant of a non-square matrix");
        let n = self.rows;
        let mut a: Vec<i128> = self.data.iter().map(|&x| x as i128).collect();
        let idx = |i: usize, j: usize| i * n + j;
        let mut sign = 1i128;
        let mut prev = 1i128;
        for k in 0..n - 1 {
            if a[idx(k, k)] == 0 {
                // Pivot: find a row below with a nonzero entry.
                match (k + 1..n).find(|&r| a[idx(r, k)] != 0) {
                    Some(r) => {
                        for j in 0..n {
                            a.swap(idx(k, j), idx(r, j));
                        }
                        sign = -sign;
                    }
                    None => return Some(0),
                }
            }
            for i in k + 1..n {
                for j in k + 1..n {
                    let lhs = a[idx(i, j)].checked_mul(a[idx(k, k)])?;
                    let rhs = a[idx(i, k)].checked_mul(a[idx(k, j)])?;
                    a[idx(i, j)] = lhs.checked_sub(rhs)?.checked_div(prev)?;
                }
                a[idx(i, k)] = 0;
            }
            prev = a[idx(k, k)];
        }
        i64::try_from(a[idx(n - 1, n - 1)].checked_mul(sign)?).ok()
    }

    /// True if square, integral (by construction), and `det = ±1`. A
    /// matrix whose determinant overflows is not unimodular.
    pub fn is_unimodular(&self) -> bool {
        self.is_square() && matches!(self.checked_det(), Some(1 | -1))
    }

    /// True if this is a *signed permutation* matrix: square, with
    /// exactly one nonzero entry per row and per column, each `±1`.
    ///
    /// Products of interchange and reversal generators are exactly the
    /// signed permutations; skews are unimodular but not signed
    /// permutations. On this subclass the paper's per-entry Table-2
    /// dependence mapping is exact, which is what makes it the
    /// "exact domain" of the cross-engine oracle.
    pub fn is_signed_permutation(&self) -> bool {
        if !self.is_square() {
            return false;
        }
        let n = self.rows;
        let mut col_used = vec![false; n];
        for i in 0..n {
            let mut hit = None;
            for j in 0..n {
                match self[(i, j)] {
                    0 => {}
                    1 | -1 if hit.is_none() => hit = Some(j),
                    _ => return false,
                }
            }
            match hit {
                Some(j) if !col_used[j] => col_used[j] = true,
                _ => return false,
            }
        }
        true
    }

    /// Exact inverse.
    ///
    /// Returns `None` if the matrix is singular **or** the inverse is not
    /// integral. For unimodular matrices the inverse always exists and is
    /// integral (and itself unimodular).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn inverse(&self) -> Option<IntMatrix> {
        assert!(self.is_square(), "inverse of a non-square matrix");
        let n = self.rows;
        // Gauss–Jordan over exact rationals.
        let mut a: Vec<Rat> = Vec::with_capacity(n * 2 * n);
        for i in 0..n {
            for j in 0..n {
                a.push(Rat::int(self[(i, j)] as i128));
            }
            for j in 0..n {
                a.push(Rat::int(i128::from(i == j)));
            }
        }
        let w = 2 * n;
        let idx = |i: usize, j: usize| i * w + j;
        for col in 0..n {
            let pivot = (col..n).find(|&r| !a[idx(r, col)].is_zero())?;
            if pivot != col {
                for j in 0..w {
                    a.swap(idx(col, j), idx(pivot, j));
                }
            }
            let p = a[idx(col, col)];
            for j in 0..w {
                a[idx(col, j)] = a[idx(col, j)].div(p);
            }
            for r in 0..n {
                if r == col || a[idx(r, col)].is_zero() {
                    continue;
                }
                let f = a[idx(r, col)];
                for j in 0..w {
                    let v = a[idx(col, j)].mul(f);
                    a[idx(r, j)] = a[idx(r, j)].sub(v);
                }
            }
        }
        let mut out = IntMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let r = a[idx(i, n + j)];
                if r.den != 1 {
                    return None; // inverse not integral
                }
                out[(i, j)] = i64::try_from(r.num).ok()?;
            }
        }
        Some(out)
    }
}

impl std::ops::Index<(usize, usize)> for IntMatrix {
    type Output = i64;
    fn index(&self, (i, j): (usize, usize)) -> &i64 {
        assert!(i < self.rows && j < self.cols, "index out of range");
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for IntMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut i64 {
        assert!(i < self.rows && j < self.cols, "index out of range");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for IntMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IntMatrix({}x{}) {}", self.rows, self.cols, self)
    }
}

impl fmt::Display for IntMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for i in 0..self.rows {
            if i > 0 {
                write!(f, "; ")?;
            }
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{}", self[(i, j)])?;
            }
        }
        write!(f, "]")
    }
}

/// A tiny exact rational for Gauss–Jordan (always kept in lowest terms
/// with positive denominator).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Rat {
    num: i128,
    den: i128,
}

impl Rat {
    fn int(v: i128) -> Rat {
        Rat { num: v, den: 1 }
    }

    fn is_zero(self) -> bool {
        self.num == 0
    }

    fn norm(mut self) -> Rat {
        if self.den < 0 {
            self.num = -self.num;
            self.den = -self.den;
        }
        let g = gcd128(self.num.abs(), self.den);
        if g > 1 {
            self.num /= g;
            self.den /= g;
        }
        self
    }

    fn mul(self, o: Rat) -> Rat {
        Rat {
            num: self.num * o.num,
            den: self.den * o.den,
        }
        .norm()
    }

    fn div(self, o: Rat) -> Rat {
        Rat {
            num: self.num * o.den,
            den: self.den * o.num,
        }
        .norm()
    }

    fn sub(self, o: Rat) -> Rat {
        Rat {
            num: self.num * o.den - o.num * self.den,
            den: self.den * o.den,
        }
        .norm()
    }
}

fn gcd128(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = IntMatrix::from_rows(&[&[1, 2], &[3, 4]]);
        assert_eq!(m[(0, 1)], 2);
        assert_eq!(m.row(1), &[3, 4]);
        assert_eq!((m.rows(), m.cols()), (2, 2));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rejected() {
        IntMatrix::from_rows(&[&[1, 2], &[3]]);
    }

    #[test]
    fn identity_and_product() {
        let i3 = IntMatrix::identity(3);
        let m = IntMatrix::from_rows(&[&[1, 2, 0], &[0, 1, 5], &[0, 0, 1]]);
        assert_eq!(i3.mul(&m), m);
        assert_eq!(m.mul(&i3), m);
    }

    #[test]
    fn product_is_associative() {
        let a = IntMatrix::from_rows(&[&[1, 1], &[0, 1]]);
        let b = IntMatrix::from_rows(&[&[0, 1], &[1, 0]]);
        let c = IntMatrix::from_rows(&[&[-1, 0], &[0, 1]]);
        assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
    }

    #[test]
    fn mul_vec_matches_mul() {
        let m = IntMatrix::from_rows(&[&[1, 1], &[0, 1]]);
        assert_eq!(m.mul_vec(&[2, 3]), vec![5, 3]);
    }

    #[test]
    fn signed_permutation_classification() {
        assert!(IntMatrix::identity(3).is_signed_permutation());
        assert!(IntMatrix::interchange(3, 0, 2).is_signed_permutation());
        assert!(IntMatrix::reversal(2, 1).is_signed_permutation());
        assert!(IntMatrix::reversal(2, 0)
            .mul(&IntMatrix::interchange(2, 0, 1))
            .is_signed_permutation());
        // Skews are unimodular but not signed permutations.
        let skew = IntMatrix::skew(2, 1, 0, 1);
        assert!(skew.is_unimodular());
        assert!(!skew.is_signed_permutation());
        // Entry magnitude 2, a row with two nonzeros, and a repeated
        // column are each rejected.
        assert!(!IntMatrix::from_rows(&[&[2, 0], &[0, 1]]).is_signed_permutation());
        assert!(!IntMatrix::from_rows(&[&[1, 1], &[0, 1]]).is_signed_permutation());
        assert!(!IntMatrix::from_rows(&[&[1, 0], &[1, 0]]).is_signed_permutation());
    }

    #[test]
    fn determinants() {
        assert_eq!(IntMatrix::identity(4).checked_det(), Some(1));
        for (rows, det) in [
            ([[2, 0], [0, 3]], 6),
            ([[0, 1], [1, 0]], -1),
            ([[1, 2], [2, 4]], 0),
        ] {
            let m = IntMatrix::from_rows(&[&rows[0], &rows[1]]);
            assert_eq!(m.checked_det(), Some(det), "{m}");
        }
        // Needs a pivot swap.
        assert_eq!(
            IntMatrix::from_rows(&[&[0, 1, 0], &[1, 0, 0], &[0, 0, 1]]).checked_det(),
            Some(-1)
        );
        // A 4x4 with known determinant (block triangular).
        let m = IntMatrix::from_rows(&[&[1, 7, 0, 0], &[0, 1, 0, 0], &[3, 3, 2, 1], &[5, 1, 1, 1]]);
        assert_eq!(m.checked_det(), Some(1));
    }

    #[test]
    fn determinant_overflow_is_reported_not_panicked() {
        let max = i64::MAX;
        // The determinant itself does not fit i64.
        let diag = IntMatrix::from_rows(&[&[max, 0], &[0, max]]);
        assert_eq!(diag.checked_det(), None);
        assert!(!diag.is_unimodular());
        // An intermediate Bareiss product overflows i128.
        let tri = IntMatrix::from_rows(&[&[max, 1, 0], &[1, max, 1], &[0, 1, max]]);
        assert_eq!(tri.checked_det(), None);
        assert!(!tri.is_unimodular());
        // Large entries alone are fine when the arithmetic fits.
        let skew = IntMatrix::from_rows(&[&[1, max], &[0, 1]]);
        assert_eq!(skew.checked_det(), Some(1));
        assert!(skew.is_unimodular());
        let min = IntMatrix::from_rows(&[&[i64::MIN]]);
        assert_eq!(min.checked_det(), Some(i64::MIN));
    }

    #[test]
    fn generators_are_unimodular() {
        assert!(IntMatrix::interchange(4, 1, 3).is_unimodular());
        assert!(IntMatrix::reversal(3, 2).is_unimodular());
        assert!(IntMatrix::skew(3, 0, 1, 42).is_unimodular());
        assert!(IntMatrix::permutation(&[2, 0, 1]).is_unimodular());
        assert!(!IntMatrix::from_rows(&[&[2, 0], &[0, 1]]).is_unimodular());
    }

    #[test]
    fn permutation_semantics() {
        // perm[k] = new position of old k: old 0 → pos 2, old 1 → 0, old 2 → 1.
        let p = IntMatrix::permutation(&[2, 0, 1]);
        assert_eq!(p.mul_vec(&[10, 20, 30]), vec![20, 30, 10]);
    }

    #[test]
    fn skew_semantics() {
        // x'_1 = x_1 + 1·x_0 (skew j by i): the paper's Fig. 1 skew.
        let s = IntMatrix::skew(2, 0, 1, 1);
        assert_eq!(s.mul_vec(&[3, 4]), vec![3, 7]);
    }

    #[test]
    fn inverse_of_unimodular_is_integral() {
        let cases = [
            IntMatrix::identity(3),
            IntMatrix::interchange(3, 0, 2),
            IntMatrix::reversal(3, 1),
            IntMatrix::skew(3, 0, 2, 7),
            // Fig. 1 composite: interchange ∘ skew.
            IntMatrix::interchange(2, 0, 1).mul(&IntMatrix::skew(2, 0, 1, 1)),
        ];
        for m in cases {
            let inv = m.inverse().expect("unimodular inverse exists");
            assert_eq!(m.mul(&inv), IntMatrix::identity(m.rows()), "{m}");
            assert_eq!(inv.mul(&m), IntMatrix::identity(m.rows()), "{m}");
            assert!(inv.is_unimodular());
        }
    }

    #[test]
    fn singular_has_no_inverse() {
        assert_eq!(IntMatrix::from_rows(&[&[1, 2], &[2, 4]]).inverse(), None);
    }

    #[test]
    fn non_unimodular_integral_matrix_inverse() {
        // det 2: inverse exists over rationals but is not integral.
        assert_eq!(IntMatrix::from_rows(&[&[2, 0], &[0, 1]]).inverse(), None);
        // det -2 with integral-looking entries.
        assert_eq!(IntMatrix::from_rows(&[&[0, 2], &[1, 0]]).inverse(), None);
    }

    #[test]
    fn transpose_involution() {
        let m = IntMatrix::from_rows(&[&[1, 2, 3], &[4, 5, 6]]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], 6);
    }

    #[test]
    fn display_format() {
        let m = IntMatrix::from_rows(&[&[1, 0], &[-1, 1]]);
        assert_eq!(m.to_string(), "[1 0; -1 1]");
    }

    #[test]
    fn det_via_permutation_products() {
        // Products of generators: det multiplies.
        let m = IntMatrix::interchange(3, 0, 1)
            .mul(&IntMatrix::reversal(3, 2))
            .mul(&IntMatrix::skew(3, 1, 2, -4));
        assert!(matches!(m.checked_det(), Some(1 | -1)));
        assert!(m.is_unimodular());
    }
}
