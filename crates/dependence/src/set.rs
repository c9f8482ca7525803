//! Sets of dependence vectors and the summary-expansion pass.
//!
//! `Tuples(D)` is the union of the tuple sets of the members, and the
//! framework's dependence legality test is: *the transformed `D` must admit
//! no lexicographically negative tuple* (§3.2).

use crate::fingerprint::{Fingerprint128, Fp128Hasher};
use crate::vector::{DepElem, DepVector, Dir};
use irlt_obs::Telemetry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A set of dependence vectors for one loop nest, all of the same arity.
///
/// Membership is tracked by a hash index, so [`DepSet::insert`] dedups in
/// O(1) expected time even under the `2^(j−i+1)` image fan-out of `Block`
/// and `Interleave` mapping.
///
/// # Examples
///
/// ```
/// use irlt_dependence::{DepSet, DepVector};
///
/// let d = DepSet::from_vectors(vec![
///     DepVector::distances(&[1, -1]),
///     DepVector::distances(&[0, 1]),
/// ]).unwrap();
/// assert!(d.is_legal()); // no lexicographically negative tuple
/// ```
#[derive(Clone, Default)]
pub struct DepSet {
    vectors: Vec<DepVector>,
    /// Vector hash → indices into `vectors` (collision bucket). Exact
    /// equality is re-verified on lookup, so a 64-bit collision can never
    /// drop a genuinely distinct vector.
    index: HashMap<u64, Vec<u32>>,
}

/// Equality is over the member vectors (in insertion order); the hash
/// index is a derived acceleration structure and never observable.
impl PartialEq for DepSet {
    fn eq(&self, other: &Self) -> bool {
        self.vectors == other.vectors
    }
}

impl Eq for DepSet {}

impl fmt::Debug for DepSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DepSet")
            .field("vectors", &self.vectors)
            .finish()
    }
}

/// The index hash. The crate's fingerprint hasher is cheaper than SipHash
/// on vectors of a few entries, and a collision only costs the exact
/// comparison `insert` always makes.
fn hash_vector(v: &DepVector) -> u64 {
    let mut h = Fp128Hasher::new();
    v.hash(&mut h);
    h.finish()
}

impl DepSet {
    /// The empty set (a nest with no cross-iteration dependences).
    pub fn new() -> DepSet {
        DepSet::default()
    }

    /// Builds a set, checking that all vectors have equal arity and
    /// dropping exact duplicates.
    ///
    /// # Errors
    ///
    /// Returns [`ArityMismatch`] if two vectors have different lengths.
    pub fn from_vectors(vectors: Vec<DepVector>) -> Result<DepSet, ArityMismatch> {
        let mut set = DepSet::new();
        for v in vectors {
            set.insert(v)?;
        }
        Ok(set)
    }

    /// Convenience constructor from distance tuples.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths.
    pub fn from_distances(rows: &[&[i64]]) -> DepSet {
        DepSet::from_vectors(rows.iter().map(|r| DepVector::distances(r)).collect())
            .expect("uniform arity")
    }

    /// Inserts a vector (ignored if an exact duplicate).
    ///
    /// # Errors
    ///
    /// Returns [`ArityMismatch`] if the arity differs from existing members.
    pub fn insert(&mut self, v: DepVector) -> Result<(), ArityMismatch> {
        if let Some(first) = self.vectors.first() {
            if first.len() != v.len() {
                return Err(ArityMismatch {
                    expected: first.len(),
                    found: v.len(),
                });
            }
        }
        let bucket = self.index.entry(hash_vector(&v)).or_default();
        if !bucket.iter().any(|&i| self.vectors[i as usize] == v) {
            bucket.push(u32::try_from(self.vectors.len()).expect("set size fits u32"));
            self.vectors.push(v);
        }
        Ok(())
    }

    /// The member vectors.
    pub fn vectors(&self) -> &[DepVector] {
        &self.vectors
    }

    /// Number of member vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// True if there are no member vectors.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Arity of the member vectors (`None` when empty).
    pub fn arity(&self) -> Option<usize> {
        self.vectors.first().map(DepVector::len)
    }

    /// Iterates over the member vectors.
    pub fn iter(&self) -> std::slice::Iter<'_, DepVector> {
        self.vectors.iter()
    }

    /// Membership of a tuple in `Tuples(D)` (union over members).
    pub fn contains_tuple(&self, tuple: &[i64]) -> bool {
        self.vectors.iter().any(|v| v.contains_tuple(tuple))
    }

    /// The framework's dependence legality test: `Tuples(D)` contains no
    /// lexicographically negative tuple.
    pub fn is_legal(&self) -> bool {
        !self.vectors.iter().any(DepVector::can_be_lex_negative)
    }

    /// The members that admit a lexicographically negative tuple (the
    /// witnesses reported when a transformation is rejected).
    pub fn lex_negative_witnesses(&self) -> Vec<&DepVector> {
        self.vectors
            .iter()
            .filter(|v| v.can_be_lex_negative())
            .collect()
    }

    /// Expands every summary direction (`≥ ≤ ≠ *`) into the equivalent set
    /// of vectors containing only distances `0` and directions `+`/`−`
    /// (recommended by §3.1 "to obtain the best precision possible").
    ///
    /// Each summary entry triples the worst case:
    /// `* ↦ {−, 0, +}`, `≥ ↦ {0, +}`, `≤ ↦ {−, 0}`, `≠ ↦ {−, +}`.
    ///
    /// # Examples
    ///
    /// ```
    /// use irlt_dependence::{DepElem, DepSet, DepVector, Dir};
    ///
    /// let d = DepSet::from_vectors(vec![DepVector::new(vec![
    ///     DepElem::Dir(Dir::NonNeg),
    ///     DepElem::Dist(1),
    /// ])]).unwrap();
    /// let e = d.expand_summaries();
    /// assert_eq!(e.len(), 2); // (0,1) and (+,1)
    /// ```
    pub fn expand_summaries(&self) -> DepSet {
        let mut out = DepSet::new();
        for v in &self.vectors {
            let choices: Vec<Vec<DepElem>> = v
                .elems()
                .iter()
                .map(|e| match e {
                    DepElem::Dir(Dir::NonNeg) => vec![DepElem::ZERO, DepElem::POS],
                    DepElem::Dir(Dir::NonPos) => vec![DepElem::NEG, DepElem::ZERO],
                    DepElem::Dir(Dir::NonZero) => vec![DepElem::NEG, DepElem::POS],
                    DepElem::Dir(Dir::Any) => {
                        vec![DepElem::NEG, DepElem::ZERO, DepElem::POS]
                    }
                    other => vec![*other],
                })
                .collect();
            let mut acc: Vec<Vec<DepElem>> = vec![Vec::with_capacity(v.len())];
            for options in &choices {
                let mut next = Vec::with_capacity(acc.len() * options.len());
                for prefix in &acc {
                    for opt in options {
                        let mut row = prefix.clone();
                        row.push(*opt);
                        next.push(row);
                    }
                }
                acc = next;
            }
            for row in acc {
                self_insert_infallible(&mut out, DepVector::new(row));
            }
        }
        out
    }

    /// For each loop level, can that loop be made `pardo` *on its own*
    /// (leaving every other loop sequential)?
    ///
    /// Loop `k` is parallelizable iff making its entry sign-symmetric
    /// (iterations may execute in any relative order, so `S(d_k)` becomes
    /// `S(d_k) ∪ −S(d_k)`) leaves every vector lexicographically
    /// non-negative — the same rule the framework's `Parallelize` template
    /// applies (Table 2's `parmap`).
    ///
    /// # Examples
    ///
    /// ```
    /// use irlt_dependence::DepSet;
    ///
    /// // The k-carried matmul reduction: i and j parallelize, k does not.
    /// let d = DepSet::from_distances(&[&[0, 0, 1]]);
    /// assert_eq!(d.parallelizable_loops(), vec![true, true, false]);
    /// ```
    pub fn parallelizable_loops(&self) -> Vec<bool> {
        let Some(n) = self.arity() else {
            return Vec::new();
        };
        (0..n)
            .map(|k| {
                self.vectors.iter().all(|v| {
                    let mut elems = v.elems().to_vec();
                    elems[k] = elems[k].merge(elems[k].reverse());
                    !DepVector::new(elems).can_be_lex_negative()
                })
            })
            .collect()
    }

    /// The levels that carry at least one dependence (possibly — for
    /// imprecise vectors every possible carrier counts).
    pub fn carrying_levels(&self) -> Vec<usize> {
        let mut levels: Vec<usize> = Vec::new();
        for v in &self.vectors {
            for p in v.possible_carried_levels() {
                if !levels.contains(&p) {
                    levels.push(p);
                }
            }
        }
        levels.sort_unstable();
        levels
    }

    /// Removes members whose tuple set is covered by another member.
    pub fn normalize(&self) -> DepSet {
        self.prune_subsumed()
    }

    /// Subsumption pruning: drops every member `v` whose `Tuples(v)` is
    /// contained in another member's (e.g. `(1)` subsumed by `(+)`,
    /// anything by `(*)`).
    ///
    /// Because `Tuples(D)` is a union over members, the pruned set has
    /// exactly the same tuple set — and therefore exactly the same
    /// [`DepSet::is_legal`] verdict — as the original. Members are
    /// exact-duplicate-free by construction and no two distinct
    /// [`DepElem`] representations denote the same value set, so mutual
    /// subsumption between distinct members is impossible: dropping `v`
    /// always leaves a strictly larger `w` behind.
    ///
    /// # Examples
    ///
    /// ```
    /// use irlt_dependence::{DepElem, DepSet, DepVector};
    ///
    /// let d = DepSet::from_vectors(vec![
    ///     DepVector::new(vec![DepElem::Dist(1)]),
    ///     DepVector::new(vec![DepElem::POS]),
    /// ]).unwrap();
    /// assert_eq!(d.prune_subsumed().len(), 1); // (1) ⊆ (+)
    /// ```
    pub fn prune_subsumed(&self) -> DepSet {
        let mut out = DepSet::new();
        'outer: for (i, v) in self.vectors.iter().enumerate() {
            for (j, w) in self.vectors.iter().enumerate() {
                if i != j && v.subsumed_by(w) {
                    continue 'outer;
                }
            }
            self_insert_infallible(&mut out, v.clone());
        }
        out
    }

    /// Maps every member through a per-vector image rule, unioning the
    /// images with hashed dedup (the shape of every Table 2 rule):
    /// [`DepSet::map_vectors_observed`] with telemetry off.
    ///
    /// # Panics
    ///
    /// Panics if `f` produces images of differing arity.
    pub fn map_vectors<F>(&self, f: F) -> DepSet
    where
        F: FnMut(&DepVector) -> Vec<DepVector>,
    {
        self.map_vectors_observed(f, &Telemetry::disabled(), "")
    }

    /// [`DepSet::map_vectors`] with telemetry: records, under
    /// `depmap/fanout/<label>`, the exact histogram of images produced
    /// per input vector — the `2^(j−i+1)` Block/Interleave expansion made
    /// visible — plus the `depmap/vectors_mapped`, `depmap/images`, and
    /// `depmap/images_deduped` counters. With a disabled handle nothing
    /// is formatted or recorded.
    ///
    /// # Panics
    ///
    /// Panics if `f` produces images of differing arity.
    pub fn map_vectors_observed<F>(&self, mut f: F, tel: &Telemetry, label: &str) -> DepSet
    where
        F: FnMut(&DepVector) -> Vec<DepVector>,
    {
        let fanout_key = tel.is_enabled().then(|| format!("depmap/fanout/{label}"));
        let mut out = DepSet::new();
        let mut images = 0u64;
        for v in &self.vectors {
            let mapped = f(v);
            if let Some(key) = &fanout_key {
                tel.record(key, mapped.len() as u64);
            }
            images += mapped.len() as u64;
            for m in mapped {
                out.insert(m).expect("uniform image arity");
            }
        }
        tel.count("depmap/vectors_mapped", self.vectors.len() as u64);
        tel.count("depmap/images", images);
        tel.count("depmap/images_deduped", images - out.len() as u64);
        out
    }

    /// Fail-fast mapping mode: like [`DepSet::map_vectors`], but
    /// short-circuits the moment an image admits a lexicographically
    /// negative tuple, returning that image as the witness;
    /// [`DepSet::try_map_vectors_observed`] with telemetry off.
    ///
    /// On `Ok`, the result is exactly `map_vectors(f)` and is legal. Note
    /// the asymmetry with the framework's whole-sequence test (§3.2 allows
    /// illegal *intermediate* stages): fail-fast is only a sound legality
    /// test for the **final** mapping step of a sequence whose earlier
    /// image is already known legal — which is precisely the beam-search
    /// extension case.
    ///
    /// # Errors
    ///
    /// Returns the first lexicographically-negative-capable image.
    ///
    /// # Panics
    ///
    /// Panics if `f` produces images of differing arity.
    pub fn try_map_vectors<F>(&self, f: F) -> Result<DepSet, DepVector>
    where
        F: FnMut(&DepVector) -> Vec<DepVector>,
    {
        self.try_map_vectors_observed(f, &Telemetry::disabled(), "")
    }

    /// [`DepSet::try_map_vectors`] with telemetry: the same fail-fast
    /// semantics, recording the per-vector fan-out histogram under
    /// `depmap/fanout/<label>`, the mapping counters of
    /// [`DepSet::map_vectors_observed`], and — when the short-circuit
    /// fires — `depmap/failfast_short_circuits` together with
    /// `depmap/vectors_skipped` (members never mapped because an earlier
    /// image was already lexicographically negative). With a disabled
    /// handle nothing is formatted or recorded.
    ///
    /// # Errors
    ///
    /// Returns the first lexicographically-negative-capable image.
    ///
    /// # Panics
    ///
    /// Panics if `f` produces images of differing arity.
    pub fn try_map_vectors_observed<F>(
        &self,
        mut f: F,
        tel: &Telemetry,
        label: &str,
    ) -> Result<DepSet, DepVector>
    where
        F: FnMut(&DepVector) -> Vec<DepVector>,
    {
        let fanout_key = tel.is_enabled().then(|| format!("depmap/fanout/{label}"));
        let mut out = DepSet::new();
        let mut images = 0u64;
        for (k, v) in self.vectors.iter().enumerate() {
            let mapped = f(v);
            if let Some(key) = &fanout_key {
                tel.record(key, mapped.len() as u64);
            }
            images += mapped.len() as u64;
            for m in mapped {
                if m.can_be_lex_negative() {
                    tel.count("depmap/vectors_mapped", (k + 1) as u64);
                    tel.count(
                        "depmap/vectors_skipped",
                        (self.vectors.len() - k - 1) as u64,
                    );
                    tel.count("depmap/images", images);
                    tel.incr("depmap/failfast_short_circuits");
                    return Err(m);
                }
                out.insert(m).expect("uniform image arity");
            }
        }
        tel.count("depmap/vectors_mapped", self.vectors.len() as u64);
        tel.count("depmap/images", images);
        tel.count("depmap/images_deduped", images - out.len() as u64);
        Ok(out)
    }
}

fn self_insert_infallible(set: &mut DepSet, v: DepVector) {
    set.insert(v).expect("uniform arity by construction");
}

/// The structural fingerprint hashes the member count and then each
/// member in order. Consistent with [`PartialEq`]: equal sets have
/// identical member sequences, hence equal fingerprints.
impl Fingerprint128 for DepSet {
    fn fingerprint128(&self) -> u128 {
        let mut h = Fp128Hasher::new();
        h.write_usize(self.vectors.len());
        for v in &self.vectors {
            v.hash(&mut h);
        }
        h.finish128()
    }
}

impl fmt::Display for DepSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, v) in self.vectors.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<DepVector> for DepSet {
    /// # Panics
    ///
    /// Panics on arity mismatch; use [`DepSet::from_vectors`] to handle the
    /// error.
    fn from_iter<T: IntoIterator<Item = DepVector>>(iter: T) -> Self {
        DepSet::from_vectors(iter.into_iter().collect()).expect("uniform arity")
    }
}

impl<'a> IntoIterator for &'a DepSet {
    type Item = &'a DepVector;
    type IntoIter = std::slice::Iter<'a, DepVector>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl std::str::FromStr for DepSet {
    type Err = crate::vector::DepParseError;

    /// Parses the [`fmt::Display`] form of a set: `{(1, +), (0, *)}`
    /// (braces optional). The parse∘print fixpoint
    /// `d.to_string().parse() == d` holds for every set, including the
    /// empty one (`{}`).
    fn from_str(s: &str) -> Result<DepSet, Self::Err> {
        use crate::vector::parse_err;
        let t = s.trim();
        let inner = match t.strip_prefix('{') {
            Some(rest) => rest
                .strip_suffix('}')
                .ok_or_else(|| parse_err(format!("unterminated `{{` in `{t}`")))?,
            None => t,
        }
        .trim();
        let mut vectors = Vec::new();
        let mut rest = inner;
        while !rest.is_empty() {
            let open = rest
                .find('(')
                .ok_or_else(|| parse_err(format!("expected `(` in `{rest}`")))?;
            if !rest[..open].trim().trim_matches(',').trim().is_empty() {
                return Err(parse_err(format!("stray text before `(` in `{rest}`")));
            }
            let close = rest[open..]
                .find(')')
                .map(|k| open + k)
                .ok_or_else(|| parse_err(format!("unterminated `(` in `{rest}`")))?;
            vectors.push(rest[open..=close].parse::<DepVector>()?);
            rest = rest[close + 1..].trim().trim_start_matches(',').trim();
        }
        DepSet::from_vectors(vectors).map_err(|e| parse_err(e.to_string()))
    }
}

/// Two dependence vectors of different arity were mixed in one set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArityMismatch {
    /// Arity of the existing members.
    pub expected: usize,
    /// Arity of the offending vector.
    pub found: usize,
}

impl fmt::Display for ArityMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dependence vector arity mismatch: expected {}, found {}",
            self.expected, self.found
        )
    }
}

impl std::error::Error for ArityMismatch {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_parse_is_the_inverse_of_display() {
        let d = DepSet::from_vectors(vec![
            "(1, 0, >=)".parse().unwrap(),
            "(0, +, *)".parse().unwrap(),
            "(-2, !=, <=)".parse().unwrap(),
        ])
        .unwrap();
        assert_eq!(d.to_string().parse::<DepSet>().unwrap(), d);
        // Empty set round-trips too.
        assert_eq!(DepSet::new().to_string(), "{}");
        assert_eq!("{}".parse::<DepSet>().unwrap(), DepSet::new());
        // Arity mixing and junk are rejected.
        assert!("{(1), (1, 2)}".parse::<DepSet>().is_err());
        assert!("{(1, 2) junk (3, 4)}".parse::<DepSet>().is_err());
        assert!("{(1, 2)".parse::<DepSet>().is_err());
    }

    #[test]
    fn duplicates_dropped() {
        let d = DepSet::from_distances(&[&[1, 0], &[1, 0], &[0, 1]]);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn arity_mismatch_detected() {
        let mut d = DepSet::new();
        d.insert(DepVector::distances(&[1, 0])).unwrap();
        let err = d.insert(DepVector::distances(&[1])).unwrap_err();
        assert_eq!(
            err,
            ArityMismatch {
                expected: 2,
                found: 1
            }
        );
        assert!(err.to_string().contains("expected 2"));
    }

    #[test]
    fn legality_over_members() {
        let legal = DepSet::from_distances(&[&[1, -5], &[0, 2]]);
        assert!(legal.is_legal());
        assert!(legal.lex_negative_witnesses().is_empty());
        let illegal = DepSet::from_distances(&[&[1, -5], &[0, -1]]);
        assert!(!illegal.is_legal());
        let w = illegal.lex_negative_witnesses();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0], &DepVector::distances(&[0, -1]));
    }

    #[test]
    fn empty_set_is_legal() {
        assert!(DepSet::new().is_legal());
        assert!(DepSet::new().is_empty());
        assert_eq!(DepSet::new().arity(), None);
    }

    #[test]
    fn expansion_eliminates_summaries() {
        let d = DepSet::from_vectors(vec![DepVector::new(vec![
            DepElem::ANY,
            DepElem::Dir(Dir::NonZero),
        ])])
        .unwrap();
        let e = d.expand_summaries();
        assert_eq!(e.len(), 6); // 3 × 2
        for v in e.iter() {
            assert!(v.elems().iter().all(|x| !x.is_summary()));
        }
        // The expansion covers exactly the same tuples.
        for x in -2..=2 {
            for y in -2..=2 {
                assert_eq!(
                    d.contains_tuple(&[x, y]),
                    e.contains_tuple(&[x, y]),
                    "({x},{y})"
                );
            }
        }
    }

    #[test]
    fn expansion_preserves_legality_verdict() {
        let d = DepSet::from_vectors(vec![DepVector::new(vec![
            DepElem::Dir(Dir::NonNeg),
            DepElem::NEG,
        ])])
        .unwrap();
        let e = d.expand_summaries();
        assert_eq!(d.is_legal(), e.is_legal());
        assert!(!d.is_legal());
    }

    #[test]
    fn normalize_removes_subsumed() {
        let d = DepSet::from_vectors(vec![
            DepVector::new(vec![DepElem::Dist(1)]),
            DepVector::new(vec![DepElem::POS]),
            DepVector::new(vec![DepElem::NEG]),
        ])
        .unwrap();
        let n = d.normalize();
        assert_eq!(n.len(), 2);
        assert!(n.vectors().contains(&DepVector::new(vec![DepElem::POS])));
        assert!(n.vectors().contains(&DepVector::new(vec![DepElem::NEG])));
    }

    #[test]
    fn normalize_keeps_one_of_equals() {
        let d = DepSet::from_vectors(vec![
            DepVector::new(vec![DepElem::POS]),
            DepVector::new(vec![DepElem::POS]),
        ])
        .unwrap();
        assert_eq!(d.len(), 1); // deduped at insert
        assert_eq!(d.normalize().len(), 1);
    }

    #[test]
    fn parallelizable_loops_matmul() {
        let d = DepSet::from_distances(&[&[0, 0, 1]]);
        assert_eq!(d.parallelizable_loops(), vec![true, true, false]);
        let d = DepSet::from_distances(&[&[1, 0], &[0, 1]]);
        assert_eq!(d.parallelizable_loops(), vec![false, false]);
        // Outer-carried dependence frees the inner loop.
        let d = DepSet::from_distances(&[&[1, -2]]);
        assert_eq!(d.parallelizable_loops(), vec![false, true]);
        assert!(DepSet::new().parallelizable_loops().is_empty());
    }

    #[test]
    fn carrying_levels_union() {
        let d = DepSet::from_vectors(vec![
            DepVector::distances(&[0, 1]),
            DepVector::new(vec![DepElem::Dir(Dir::NonNeg), DepElem::POS]),
        ])
        .unwrap();
        assert_eq!(d.carrying_levels(), vec![0, 1]);
    }

    #[test]
    fn display() {
        let d = DepSet::from_distances(&[&[1, -1], &[0, 1]]);
        assert_eq!(d.to_string(), "{(1, -1), (0, 1)}");
    }

    #[test]
    fn hashed_dedup_scales_and_preserves_order() {
        let mut d = DepSet::new();
        for round in 0..3 {
            for a in -8..8i64 {
                for b in -8..8i64 {
                    d.insert(DepVector::distances(&[a, b])).unwrap();
                }
            }
            assert_eq!(d.len(), 256, "round {round}");
        }
        // Insertion order is preserved (first occurrence wins).
        assert_eq!(d.vectors()[0], DepVector::distances(&[-8, -8]));
        // Equality ignores the index structure.
        let mut e = DepSet::new();
        for v in d.iter() {
            e.insert(v.clone()).unwrap();
        }
        assert_eq!(d, e);
    }

    #[test]
    fn prune_subsumed_keeps_maximal_members() {
        let d = DepSet::from_vectors(vec![
            DepVector::new(vec![DepElem::Dist(1), DepElem::Dist(2)]),
            DepVector::new(vec![DepElem::POS, DepElem::Dir(Dir::NonNeg)]),
            DepVector::new(vec![DepElem::NEG, DepElem::ANY]),
        ])
        .unwrap();
        let p = d.prune_subsumed();
        assert_eq!(p.len(), 2);
        // Tuple set unchanged over a sampled box.
        for x in -3..=3 {
            for y in -3..=3 {
                assert_eq!(
                    d.contains_tuple(&[x, y]),
                    p.contains_tuple(&[x, y]),
                    "({x},{y})"
                );
            }
        }
        assert_eq!(d.is_legal(), p.is_legal());
    }

    #[test]
    fn prune_subsumed_preserves_illegal_verdict() {
        let d = DepSet::from_vectors(vec![
            DepVector::new(vec![DepElem::Dist(-1)]),
            DepVector::new(vec![DepElem::NEG]),
        ])
        .unwrap();
        let p = d.prune_subsumed();
        assert_eq!(p.len(), 1);
        assert!(!p.is_legal());
    }

    #[test]
    fn map_vectors_unions_images() {
        let d = DepSet::from_distances(&[&[1], &[2]]);
        // Every member maps to its negation and a shared (+) summary.
        let out = d.map_vectors(|v| {
            let neg = match v.elems()[0] {
                DepElem::Dist(x) => DepElem::Dist(-x),
                e => e,
            };
            vec![
                DepVector::new(vec![neg]),
                DepVector::new(vec![DepElem::POS]),
            ]
        });
        assert_eq!(out.len(), 3); // (-1), (+), (-2) — (+) deduped
    }

    #[test]
    fn observed_mapping_matches_plain_and_records_fanout() {
        let d = DepSet::from_distances(&[&[1, 1], &[0, 2], &[0, 0]]);
        // A blockmap-like rule: nonzero entries produce two images.
        let rule = |v: &DepVector| {
            if v.elems().iter().all(|e| *e == DepElem::ZERO) {
                vec![v.clone()]
            } else {
                vec![v.clone(), DepVector::new(vec![DepElem::POS, DepElem::ANY])]
            }
        };
        let tel = Telemetry::enabled();
        let observed = d.map_vectors_observed(rule, &tel, "Block");
        assert_eq!(observed, d.map_vectors(rule));
        let r = tel.report();
        // Fan-out histogram: two vectors mapped to 2 images, one to 1.
        assert_eq!(r.histograms["depmap/fanout/Block"][&2], 2);
        assert_eq!(r.histograms["depmap/fanout/Block"][&1], 1);
        assert_eq!(r.counter("depmap/vectors_mapped"), 3);
        assert_eq!(r.counter("depmap/images"), 5);
        assert_eq!(r.counter("depmap/images_deduped"), 1); // shared (+,*) image
                                                           // Disabled handle: identical result, nothing recorded.
        let off = Telemetry::disabled();
        assert_eq!(d.map_vectors_observed(rule, &off, "Block"), observed);
        assert!(off.report().counters.is_empty());
    }

    #[test]
    fn observed_try_map_records_short_circuit() {
        let d = DepSet::from_distances(&[&[1], &[2], &[3]]);
        let rule = |v: &DepVector| match v.elems()[0] {
            DepElem::Dist(2) => vec![DepVector::distances(&[-7])],
            _ => vec![v.clone()],
        };
        let tel = Telemetry::enabled();
        let err = d
            .try_map_vectors_observed(rule, &tel, "ReversePermute")
            .unwrap_err();
        assert_eq!(err, DepVector::distances(&[-7]));
        let r = tel.report();
        assert_eq!(r.counter("depmap/failfast_short_circuits"), 1);
        assert_eq!(r.counter("depmap/vectors_mapped"), 2);
        assert_eq!(r.counter("depmap/vectors_skipped"), 1);
        // The all-legal path agrees with the unobserved variant.
        let tel2 = Telemetry::enabled();
        let ok = d
            .try_map_vectors_observed(|v| vec![v.clone()], &tel2, "Parallelize")
            .unwrap();
        assert_eq!(ok, d.try_map_vectors(|v| vec![v.clone()]).unwrap());
        assert_eq!(tel2.report().counter("depmap/failfast_short_circuits"), 0);
    }

    #[test]
    fn fingerprint_is_structural() {
        use crate::fingerprint::Fingerprint128;
        let a = DepSet::from_distances(&[&[1, 0], &[0, 1]]);
        let b = DepSet::from_distances(&[&[1, 0], &[0, 1]]);
        let c = DepSet::from_distances(&[&[0, 1], &[1, 0]]); // order matters
        let d = DepSet::from_distances(&[&[1, 0]]);
        assert_eq!(a.fingerprint128(), b.fingerprint128());
        assert_ne!(a.fingerprint128(), c.fingerprint128());
        assert_ne!(a.fingerprint128(), d.fingerprint128());
        // Large distances fingerprint deterministically.
        let big1 = DepSet::from_distances(&[&[1_000_000]]);
        let big2 = DepSet::from_distances(&[&[1_000_000]]);
        let big3 = DepSet::from_distances(&[&[1_000_001]]);
        assert_eq!(big1.fingerprint128(), big2.fingerprint128());
        assert_ne!(big1.fingerprint128(), big3.fingerprint128());
    }

    #[test]
    fn try_map_vectors_short_circuits_on_negative_image() {
        let d = DepSet::from_distances(&[&[1], &[2], &[3]]);
        let mut calls = 0;
        let r = d.try_map_vectors(|v| {
            calls += 1;
            match v.elems()[0] {
                DepElem::Dist(2) => vec![DepVector::new(vec![DepElem::Dist(-7)])],
                _ => vec![v.clone()],
            }
        });
        assert_eq!(r, Err(DepVector::distances(&[-7])));
        assert_eq!(calls, 2); // (3) never mapped
                              // The all-legal path returns the full union.
        let ok = d.try_map_vectors(|v| vec![v.clone()]).unwrap();
        assert_eq!(ok, d);
    }
}
