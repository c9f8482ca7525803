//! Optimization goals: how a candidate (transformed) nest is scored.
//!
//! The paper closes with "the main direction for future work would be in
//! using this framework in an automatic transformation system, so as to
//! optimize loop nests for data locality, parallel execution, and vector
//! execution" — these are exactly the three goals here.

use irlt_cachesim::{lines_touched, simulate_nest_bounded, AddressMap, CacheConfig};
use irlt_ir::{LoopKind, LoopNest};
use irlt_obs::Telemetry;
use std::fmt;

/// What the search optimizes. Higher scores are better.
#[derive(Clone)]
pub enum Goal {
    /// Parallel execution: prefer a `pardo` loop as far *out* as possible
    /// (coarse-grained parallelism), then more parallel loops.
    OuterParallel,
    /// Vector execution: prefer a `pardo` *innermost* loop (vectorizable),
    /// then fewer sequential loops inside it.
    InnerParallel,
    /// Data locality: minimize simulated cache misses on a concrete
    /// instantiation.
    Locality(LocalityGoal),
}

impl fmt::Debug for Goal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Goal::OuterParallel => f.write_str("OuterParallel"),
            Goal::InnerParallel => f.write_str("InnerParallel"),
            Goal::Locality(_) => f.write_str("Locality(..)"),
        }
    }
}

/// Concrete setup for locality scoring: the executor parameters, the
/// array layout, and the cache geometry.
#[derive(Clone)]
pub struct LocalityGoal {
    /// Parameter bindings for the trial execution (`n`, tile sizes, …).
    pub params: Vec<(String, i64)>,
    /// Array declarations.
    pub map: AddressMap,
    /// Cache geometry.
    pub cache: CacheConfig,
}

impl LocalityGoal {
    fn params(&self) -> Vec<(&str, i64)> {
        self.params.iter().map(|(k, v)| (k.as_str(), *v)).collect()
    }
}

/// What a trial that only matters above a bound decided (see
/// [`Goal::score_above`]).
#[derive(Debug, PartialEq)]
pub(crate) enum Trial {
    /// The exact score ([`Goal::score_observed`]): `None` when the
    /// candidate cannot be scored.
    Scored(Option<f64>),
    /// The candidate scores at most the bound, if it can be scored at
    /// all: its trial stopped as soon as that was certain.
    Cut,
}

impl Goal {
    /// Scores a transformed nest (higher is better). Locality scoring
    /// executes the nest; structural goals inspect loop kinds only.
    /// Returns `None` when the candidate cannot be scored (e.g. its trial
    /// execution fails), which the search treats as "discard".
    pub fn score(&self, nest: &LoopNest) -> Option<f64> {
        self.score_observed(nest, &Telemetry::disabled())
    }

    /// [`Goal::score`] fed by the observability layer: locality trials
    /// export their cache counters through `tel` under `cachesim/*`. With
    /// a disabled handle this is exactly [`Goal::score`].
    pub fn score_observed(&self, nest: &LoopNest, tel: &Telemetry) -> Option<f64> {
        match self.score_above(nest, tel, f64::NEG_INFINITY) {
            Trial::Scored(score) => score,
            Trial::Cut => unreachable!("no trial is cut without a bound"),
        }
    }

    /// [`Goal::score_observed`] for a candidate that matters only if it
    /// scores above `bound`. A locality trial stops as soon as its misses
    /// reach `-bound`, since misses only grow and the score is minus the
    /// misses; a structural goal always scores exactly.
    pub(crate) fn score_above(&self, nest: &LoopNest, tel: &Telemetry, bound: f64) -> Trial {
        let Goal::Locality(cfg) = self else {
            return Trial::Scored(self.score_kinds(&nest.kinds()));
        };
        let miss_limit = bound.is_finite().then(|| (-bound) as u64);
        match simulate_nest_bounded(nest, &cfg.params(), &cfg.map, cfg.cache, miss_limit, tel) {
            Ok(Some(r)) => Trial::Scored(Some(-(r.stats.misses as f64))),
            Ok(None) => Trial::Cut,
            Err(_) => Trial::Scored(None),
        }
    }

    /// A score no legal transformation of `nest` can beat, when the goal
    /// knows one cheaply. For locality it is minus the lines `nest`
    /// touches: a legal sequence only reorders the iterations of an
    /// untouched body, so every candidate touches exactly those lines,
    /// and from a cold cache each of them misses at least once.
    pub(crate) fn ceiling(&self, nest: &LoopNest) -> Option<f64> {
        let Goal::Locality(cfg) = self else {
            return None;
        };
        let lines = lines_touched(nest, &cfg.params(), &cfg.map, cfg.cache.line_bytes).ok()?;
        Some(-(lines as f64))
    }

    /// Scores a nest's loop kinds (outermost first) under a structural
    /// goal, which reads nothing else of the nest: this is
    /// [`Goal::score`] for [`Goal::OuterParallel`] and
    /// [`Goal::InnerParallel`]. Returns `None` for [`Goal::Locality`],
    /// whose score needs the whole nest.
    pub(crate) fn score_kinds(&self, kinds: &[LoopKind]) -> Option<f64> {
        let n = kinds.len();
        let count = kinds.iter().filter(|k| k.is_parallel()).count() as f64;
        match self {
            Goal::OuterParallel => {
                // Normalized: 1000 for an outermost pardo regardless of
                // depth (an un-normalized `n − p` metric lets the search
                // game the score by deepening the nest with Block), small
                // bonus for more parallel loops, small penalty for depth.
                let n = n as f64;
                Some(match kinds.iter().position(|k| k.is_parallel()) {
                    Some(p) => 1000.0 * (1.0 - p as f64 / n) + count / n - 0.5 * n,
                    None => -0.5 * n,
                })
            }
            Goal::InnerParallel => {
                let innermost_parallel = kinds[n - 1].is_parallel();
                Some(
                    if innermost_parallel { 1000.0 } else { 0.0 } + count / n as f64
                        - 0.5 * n as f64,
                )
            }
            Goal::Locality(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irlt_cachesim::Order;
    use irlt_ir::parse_nest;

    #[test]
    fn outer_parallel_prefers_outermost() {
        let seq = parse_nest("do i = 1, 4\n do j = 1, 4\n  a(i, j) = 0\n enddo\nenddo").unwrap();
        let outer =
            parse_nest("pardo i = 1, 4\n do j = 1, 4\n  a(i, j) = 0\n enddo\nenddo").unwrap();
        let inner =
            parse_nest("do i = 1, 4\n pardo j = 1, 4\n  a(i, j) = 0\n enddo\nenddo").unwrap();
        let g = Goal::OuterParallel;
        let (s_seq, s_outer, s_inner) = (
            g.score(&seq).unwrap(),
            g.score(&outer).unwrap(),
            g.score(&inner).unwrap(),
        );
        assert!(s_outer > s_inner, "{s_outer} vs {s_inner}");
        assert!(s_inner > s_seq);
    }

    #[test]
    fn inner_parallel_prefers_innermost() {
        let outer =
            parse_nest("pardo i = 1, 4\n do j = 1, 4\n  a(i, j) = 0\n enddo\nenddo").unwrap();
        let inner =
            parse_nest("do i = 1, 4\n pardo j = 1, 4\n  a(i, j) = 0\n enddo\nenddo").unwrap();
        let g = Goal::InnerParallel;
        assert!(g.score(&inner).unwrap() > g.score(&outer).unwrap());
    }

    #[test]
    fn locality_scores_by_misses() {
        let by_col =
            parse_nest("do j = 1, n\n do i = 1, n\n  s(1) = s(1) + a(i, j)\n enddo\nenddo")
                .unwrap();
        let by_row =
            parse_nest("do i = 1, n\n do j = 1, n\n  s(1) = s(1) + a(i, j)\n enddo\nenddo")
                .unwrap();
        let mut map = AddressMap::new(Order::ColMajor, 8);
        map.declare("a", &[64, 64]).declare("s", &[1]);
        let g = Goal::Locality(LocalityGoal {
            params: vec![("n".into(), 64)],
            map,
            cache: CacheConfig {
                size_bytes: 2048,
                line_bytes: 64,
                associativity: 2,
            },
        });
        assert!(g.score(&by_col).unwrap() > g.score(&by_row).unwrap());
    }

    #[test]
    fn locality_bounds_are_exact_at_their_edges() {
        // Walked column by column, the copy misses each of its
        // 2 × 32 × 32 × 8 B / 64 B = 256 lines exactly once: its score is
        // its ceiling.
        let nest =
            parse_nest("do j = 1, n\n do i = 1, n\n  b(i, j) = a(i, j)\n enddo\nenddo").unwrap();
        let mut map = AddressMap::new(Order::ColMajor, 8);
        map.declare("a", &[32, 32]).declare("b", &[32, 32]);
        let g = Goal::Locality(LocalityGoal {
            params: vec![("n".into(), 32)],
            map,
            cache: CacheConfig {
                size_bytes: 2048,
                line_bytes: 64,
                associativity: 2,
            },
        });
        assert_eq!(g.ceiling(&nest), Some(-256.0));
        assert_eq!(g.score(&nest), Some(-256.0));
        // A trial is cut exactly when it cannot score above the bound.
        let tel = Telemetry::disabled();
        assert_eq!(
            g.score_above(&nest, &tel, -257.0),
            Trial::Scored(Some(-256.0))
        );
        assert_eq!(g.score_above(&nest, &tel, -256.0), Trial::Cut);
        assert_eq!(Goal::OuterParallel.ceiling(&nest), None);
    }

    #[test]
    fn locality_unscoreable_is_none() {
        let nest = parse_nest("do i = 1, n\n q(i) = 0\nenddo").unwrap();
        let g = Goal::Locality(LocalityGoal {
            params: vec![], // n unbound → execution fails → None
            map: AddressMap::new(Order::RowMajor, 8),
            cache: CacheConfig::l1(),
        });
        assert_eq!(g.score(&nest), None);
    }
}
