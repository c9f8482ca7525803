//! The kernel set of transformation templates (Table 1).
//!
//! A *transformation template* has parameters; supplying values creates a
//! *template instantiation*. The kernel set in the paper is:
//!
//! | Template | Parameters |
//! |---|---|
//! | `Unimodular(n, M)` | `M` an `n×n` unimodular matrix |
//! | `ReversePermute(n, rev, perm)` | reverse mask + permutation map |
//! | `Parallelize(n, parflag)` | which loops become `pardo` |
//! | `Block(n, i, j, bsize)` | contiguous range to tile + block sizes |
//! | `Coalesce(n, i, j)` | contiguous range to collapse into one loop |
//! | `Interleave(n, i, j, isize)` | contiguous range + interleave factors |
//!
//! The set is *extensible*: anything implementing
//! [`KernelTemplate`](crate::KernelTemplate) participates in sequences.

use irlt_ir::{Expr, LoopKind};
use irlt_unimodular::IntMatrix;
use std::fmt;

/// A validated permutation map: `perm[k]` is the **new position** of old
/// loop `k` (the paper's "loop `i` should be moved to position `perm[i]`").
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Permutation(Vec<usize>);

impl Permutation {
    /// Validates and wraps a permutation of `0..map.len()`.
    ///
    /// # Errors
    ///
    /// Returns [`TemplateError::NotAPermutation`] if `map` repeats or skips
    /// a position.
    ///
    /// # Examples
    ///
    /// ```
    /// use irlt_core::Permutation;
    ///
    /// let p = Permutation::new(vec![2, 0, 1])?;
    /// assert_eq!(p.new_position(0), 2);
    /// assert_eq!(p.inverse().new_position(2), 0);
    /// # Ok::<(), irlt_core::TemplateError>(())
    /// ```
    pub fn new(map: Vec<usize>) -> Result<Permutation, TemplateError> {
        let n = map.len();
        let mut seen = vec![false; n];
        for &p in &map {
            if p >= n || seen[p] {
                return Err(TemplateError::NotAPermutation { map: map.clone() });
            }
            seen[p] = true;
        }
        Ok(Permutation(map))
    }

    /// The identity permutation on `n` loops.
    pub fn identity(n: usize) -> Permutation {
        Permutation((0..n).collect())
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the permutation is empty (never for validated instances of
    /// positive size).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// New position of old index `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn new_position(&self, k: usize) -> usize {
        self.0[k]
    }

    /// The raw map.
    pub fn as_slice(&self) -> &[usize] {
        &self.0
    }

    /// The inverse permutation: `inverse()[p] = k` iff `self[k] = p`.
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0; self.0.len()];
        for (old, &new) in self.0.iter().enumerate() {
            inv[new] = old;
        }
        Permutation(inv)
    }

    /// Composition: first `self`, then `then` (`result[k] = then[self[k]]`).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn then(&self, then: &Permutation) -> Permutation {
        assert_eq!(self.len(), then.len(), "permutation size mismatch");
        Permutation(self.0.iter().map(|&p| then.0[p]).collect())
    }

    /// True if this is the identity.
    pub fn is_identity(&self) -> bool {
        self.0.iter().enumerate().all(|(k, &p)| k == p)
    }
}

impl fmt::Display for Permutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (k, p) in self.0.iter().enumerate() {
            if k > 0 {
                write!(f, " ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "]")
    }
}

/// One instantiation of a kernel transformation template (Table 1).
///
/// Construct via the validating constructors ([`Template::unimodular`],
/// [`Template::block`], …); the fields are then guaranteed well-formed.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Template {
    /// `Unimodular(n, M)`: apply the unimodular matrix `M` to the
    /// iteration space.
    Unimodular {
        /// The `n×n` unimodular transformation matrix.
        matrix: IntMatrix,
    },
    /// `ReversePermute(n, rev, perm)`: reverse the loops with
    /// `rev[k] = true`, then move loop `k` to position `perm[k]`.
    ReversePermute {
        /// Which loops to reverse (before permuting).
        rev: Vec<bool>,
        /// Where each loop moves.
        perm: Permutation,
    },
    /// `Parallelize(n, parflag)`: make loop `k` a `pardo` where
    /// `parflag[k] = true`.
    Parallelize {
        /// Which loops become parallel.
        parflag: Vec<bool>,
    },
    /// `Block(n, i, j, bsize)`: tile the contiguous loops `i..=j` with
    /// block sizes `bsize` (one expression per loop in the range).
    Block {
        /// Nest size.
        n: usize,
        /// First (outermost) blocked loop, 0-based.
        i: usize,
        /// Last blocked loop, 0-based (`i <= j`).
        j: usize,
        /// Block-size expression per loop in `i..=j`.
        bsize: Vec<Expr>,
    },
    /// `Coalesce(n, i, j)`: collapse the contiguous loops `i..=j` into a
    /// single loop.
    Coalesce {
        /// Nest size.
        n: usize,
        /// First coalesced loop, 0-based.
        i: usize,
        /// Last coalesced loop, 0-based (`i <= j`).
        j: usize,
    },
    /// `Interleave(n, i, j, isize)`: split each loop in `i..=j` into an
    /// interleave-class selector and a strided element loop.
    Interleave {
        /// Nest size.
        n: usize,
        /// First interleaved loop, 0-based.
        i: usize,
        /// Last interleaved loop, 0-based (`i <= j`).
        j: usize,
        /// Interleave factor per loop in `i..=j`.
        isize_: Vec<Expr>,
    },
}

/// Invalid template parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TemplateError {
    /// The matrix is not square-integral with determinant ±1.
    NotUnimodular,
    /// The map is not a permutation of `0..n`.
    NotAPermutation {
        /// The offending map.
        map: Vec<usize>,
    },
    /// A mask/size vector has the wrong length.
    ArityMismatch {
        /// What was expected.
        expected: usize,
        /// What was provided.
        found: usize,
    },
    /// A loop range `i..=j` is empty or out of bounds.
    BadRange {
        /// Start of the range.
        i: usize,
        /// End of the range.
        j: usize,
        /// Nest size.
        n: usize,
    },
}

impl fmt::Display for TemplateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemplateError::NotUnimodular => {
                f.write_str("matrix is not unimodular (square, integral, det ±1)")
            }
            TemplateError::NotAPermutation { map } => {
                write!(f, "{map:?} is not a permutation")
            }
            TemplateError::ArityMismatch { expected, found } => {
                write!(f, "expected {expected} entries, found {found}")
            }
            TemplateError::BadRange { i, j, n } => {
                write!(f, "loop range {i}..={j} invalid for nest of size {n}")
            }
        }
    }
}

impl std::error::Error for TemplateError {}

impl Template {
    /// Creates a `Unimodular(n, M)` instantiation.
    ///
    /// # Errors
    ///
    /// Returns [`TemplateError::NotUnimodular`] if `matrix` fails the
    /// unimodularity check.
    pub fn unimodular(matrix: IntMatrix) -> Result<Template, TemplateError> {
        if matrix.is_unimodular() {
            Ok(Template::Unimodular { matrix })
        } else {
            Err(TemplateError::NotUnimodular)
        }
    }

    /// Creates a `ReversePermute(n, rev, perm)` instantiation.
    ///
    /// # Errors
    ///
    /// Returns [`TemplateError`] if `perm` is not a permutation or `rev`
    /// has a different length.
    pub fn reverse_permute(rev: Vec<bool>, perm: Vec<usize>) -> Result<Template, TemplateError> {
        let perm = Permutation::new(perm)?;
        if rev.len() != perm.len() {
            return Err(TemplateError::ArityMismatch {
                expected: perm.len(),
                found: rev.len(),
            });
        }
        Ok(Template::ReversePermute { rev, perm })
    }

    /// Creates a `Parallelize(n, parflag)` instantiation.
    pub fn parallelize(parflag: Vec<bool>) -> Template {
        Template::Parallelize { parflag }
    }

    /// Creates a `Block(n, i, j, bsize)` instantiation.
    ///
    /// # Errors
    ///
    /// Returns [`TemplateError`] if the range is invalid or `bsize` does
    /// not have `j − i + 1` entries.
    pub fn block(
        n: usize,
        i: usize,
        j: usize,
        bsize: Vec<Expr>,
    ) -> Result<Template, TemplateError> {
        check_range(n, i, j)?;
        if bsize.len() != j - i + 1 {
            return Err(TemplateError::ArityMismatch {
                expected: j - i + 1,
                found: bsize.len(),
            });
        }
        Ok(Template::Block { n, i, j, bsize })
    }

    /// Creates a `Coalesce(n, i, j)` instantiation.
    ///
    /// # Errors
    ///
    /// Returns [`TemplateError::BadRange`] if the range is invalid.
    pub fn coalesce(n: usize, i: usize, j: usize) -> Result<Template, TemplateError> {
        check_range(n, i, j)?;
        Ok(Template::Coalesce { n, i, j })
    }

    /// Creates an `Interleave(n, i, j, isize)` instantiation.
    ///
    /// # Errors
    ///
    /// Returns [`TemplateError`] if the range is invalid or `isize_` does
    /// not have `j − i + 1` entries.
    pub fn interleave(
        n: usize,
        i: usize,
        j: usize,
        isize_: Vec<Expr>,
    ) -> Result<Template, TemplateError> {
        check_range(n, i, j)?;
        if isize_.len() != j - i + 1 {
            return Err(TemplateError::ArityMismatch {
                expected: j - i + 1,
                found: isize_.len(),
            });
        }
        Ok(Template::Interleave { n, i, j, isize_ })
    }

    /// The template's name as in Table 1.
    pub fn name(&self) -> &'static str {
        match self {
            Template::Unimodular { .. } => "Unimodular",
            Template::ReversePermute { .. } => "ReversePermute",
            Template::Parallelize { .. } => "Parallelize",
            Template::Block { .. } => "Block",
            Template::Coalesce { .. } => "Coalesce",
            Template::Interleave { .. } => "Interleave",
        }
    }

    /// Input nest size `n`.
    pub fn input_size(&self) -> usize {
        match self {
            Template::Unimodular { matrix } => matrix.rows(),
            Template::ReversePermute { perm, .. } => perm.len(),
            Template::Parallelize { parflag } => parflag.len(),
            Template::Block { n, .. }
            | Template::Coalesce { n, .. }
            | Template::Interleave { n, .. } => *n,
        }
    }

    /// Output nest size `n'` (Tables 3–4): `Block`/`Interleave` add
    /// `j − i + 1` loops, `Coalesce` removes `j − i`, all others preserve
    /// the size.
    pub fn output_size(&self) -> usize {
        let n = self.input_size();
        match self {
            Template::Block { i, j, .. } | Template::Interleave { i, j, .. } => n + (j - i + 1),
            Template::Coalesce { i, j, .. } => n - (j - i),
            _ => n,
        }
    }

    /// The loop kinds of the output nest, given the input nest's kinds
    /// (Tables 3–4). This is the one definition of output kinds: code
    /// generation stamps it onto every nest it builds, and the search
    /// scores a last-depth candidate from it without generating code.
    ///
    /// * `Unimodular` emits sequential loops (its input has no `pardo`).
    /// * `ReversePermute` moves loop `k`'s kind to `perm[k]`.
    /// * `Parallelize` makes loop `k` a `pardo` where `parflag[k]`.
    /// * `Block` and `Interleave` give both new loops of `k ∈ i..=j` the
    ///   kind of loop `k`.
    /// * `Coalesce` makes the collapsed loop a `pardo` only if every loop
    ///   in `i..=j` was one.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from [`Template::input_size`].
    pub fn output_kinds(&self, input: &[LoopKind]) -> Vec<LoopKind> {
        assert_eq!(input.len(), self.input_size(), "one kind per input loop");
        match self {
            Template::Unimodular { .. } => vec![LoopKind::Do; input.len()],
            Template::ReversePermute { perm, .. } => {
                let mut out = vec![LoopKind::Do; input.len()];
                for (k, &kind) in input.iter().enumerate() {
                    out[perm.new_position(k)] = kind;
                }
                out
            }
            Template::Parallelize { parflag } => input
                .iter()
                .zip(parflag)
                .map(|(&kind, &par)| if par { LoopKind::ParDo } else { kind })
                .collect(),
            Template::Block { i, j, .. } | Template::Interleave { i, j, .. } => {
                let range = &input[*i..=*j];
                let mut out = Vec::with_capacity(self.output_size());
                out.extend_from_slice(&input[..*i]);
                out.extend_from_slice(range);
                out.extend_from_slice(range);
                out.extend_from_slice(&input[j + 1..]);
                out
            }
            Template::Coalesce { i, j, .. } => {
                let all_parallel = input[*i..=*j].iter().all(|k| k.is_parallel());
                let mut out = Vec::with_capacity(self.output_size());
                out.extend_from_slice(&input[..*i]);
                out.push(if all_parallel {
                    LoopKind::ParDo
                } else {
                    LoopKind::Do
                });
                out.extend_from_slice(&input[j + 1..]);
                out
            }
        }
    }
}

fn check_range(n: usize, i: usize, j: usize) -> Result<(), TemplateError> {
    if i <= j && j < n {
        Ok(())
    } else {
        Err(TemplateError::BadRange { i, j, n })
    }
}

/// Structural fingerprint over the derived [`Hash`] — used by the shared
/// legality cache's template interner ([`crate::SharedLegalityCache`]).
impl irlt_dependence::Fingerprint128 for Template {
    fn fingerprint128(&self) -> u128 {
        irlt_dependence::fp128(self)
    }
}

impl fmt::Display for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Template::Unimodular { matrix } => {
                write!(f, "Unimodular(n={}, M={matrix})", matrix.rows())
            }
            Template::ReversePermute { rev, perm } => {
                write!(f, "ReversePermute(n={}, rev=[", rev.len())?;
                for (k, r) in rev.iter().enumerate() {
                    if k > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{}", if *r { "T" } else { "F" })?;
                }
                write!(f, "], perm={perm})")
            }
            Template::Parallelize { parflag } => {
                write!(f, "Parallelize(n={}, parflag=[", parflag.len())?;
                for (k, p) in parflag.iter().enumerate() {
                    if k > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{}", i32::from(*p))?;
                }
                write!(f, "])")
            }
            Template::Block { n, i, j, bsize } => {
                write!(f, "Block(n={n}, i={i}, j={j}, bsize=[")?;
                for (k, b) in bsize.iter().enumerate() {
                    if k > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{b}")?;
                }
                write!(f, "])")
            }
            Template::Coalesce { n, i, j } => write!(f, "Coalesce(n={n}, i={i}, j={j})"),
            Template::Interleave { n, i, j, isize_ } => {
                write!(f, "Interleave(n={n}, i={i}, j={j}, isize=[")?;
                for (k, b) in isize_.iter().enumerate() {
                    if k > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{b}")?;
                }
                write!(f, "])")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_validation() {
        assert!(Permutation::new(vec![0, 1, 2]).is_ok());
        assert!(Permutation::new(vec![2, 0, 1]).is_ok());
        assert!(matches!(
            Permutation::new(vec![0, 0, 1]),
            Err(TemplateError::NotAPermutation { .. })
        ));
        assert!(Permutation::new(vec![0, 3, 1]).is_err());
    }

    #[test]
    fn permutation_inverse_and_compose() {
        let p = Permutation::new(vec![2, 0, 1]).unwrap();
        let inv = p.inverse();
        assert!(p.then(&inv).is_identity());
        assert!(inv.then(&p).is_identity());
        assert_eq!(p.to_string(), "[2 0 1]");
        assert!(Permutation::identity(4).is_identity());
    }

    #[test]
    fn constructors_validate() {
        assert!(Template::unimodular(IntMatrix::identity(3)).is_ok());
        assert!(Template::unimodular(IntMatrix::from_rows(&[&[2]])).is_err());
        assert!(Template::reverse_permute(vec![false, true], vec![1, 0]).is_ok());
        assert!(matches!(
            Template::reverse_permute(vec![false], vec![1, 0]),
            Err(TemplateError::ArityMismatch {
                expected: 2,
                found: 1
            })
        ));
        assert!(Template::block(3, 0, 1, vec![Expr::int(8), Expr::int(8)]).is_ok());
        assert!(Template::block(3, 0, 1, vec![Expr::int(8)]).is_err());
        assert!(Template::block(3, 2, 1, vec![]).is_err());
        assert!(Template::coalesce(3, 0, 2).is_ok());
        assert!(Template::coalesce(3, 0, 3).is_err());
        assert!(Template::interleave(2, 0, 0, vec![Expr::int(4)]).is_ok());
    }

    #[test]
    fn sizes_per_table() {
        let b = Template::block(3, 0, 2, vec![Expr::int(4); 3]).unwrap();
        assert_eq!(b.input_size(), 3);
        assert_eq!(b.output_size(), 6);
        let c = Template::coalesce(6, 0, 1).unwrap();
        assert_eq!(c.output_size(), 5);
        let i = Template::interleave(2, 1, 1, vec![Expr::int(4)]).unwrap();
        assert_eq!(i.output_size(), 3);
        let p = Template::parallelize(vec![true, false]);
        assert_eq!(p.output_size(), 2);
        let u = Template::unimodular(IntMatrix::identity(2)).unwrap();
        assert_eq!((u.input_size(), u.output_size()), (2, 2));
    }

    #[test]
    fn display_forms() {
        let t = Template::reverse_permute(vec![false, true], vec![1, 0]).unwrap();
        assert_eq!(t.to_string(), "ReversePermute(n=2, rev=[F T], perm=[1 0])");
        let t = Template::parallelize(vec![true, false]);
        assert_eq!(t.to_string(), "Parallelize(n=2, parflag=[1 0])");
        let t = Template::block(2, 0, 1, vec![Expr::var("bi"), Expr::var("bj")]).unwrap();
        assert_eq!(t.to_string(), "Block(n=2, i=0, j=1, bsize=[bi bj])");
        let t = Template::coalesce(4, 1, 2).unwrap();
        assert_eq!(t.to_string(), "Coalesce(n=4, i=1, j=2)");
    }

    #[test]
    fn names() {
        assert_eq!(Template::parallelize(vec![true]).name(), "Parallelize");
        assert_eq!(Template::coalesce(2, 0, 1).unwrap().name(), "Coalesce");
    }
}
