//! A set-associative LRU cache model.
//!
//! Iteration-reordering transformations are "used extensively … for
//! optimizing data locality" (§1); this model is the measuring instrument:
//! feed it the memory-access trace of a nest before and after a
//! transformation and compare miss counts.

use std::fmt;

/// Cache geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line (block) size in bytes.
    pub line_bytes: usize,
    /// Ways per set (1 = direct-mapped; `size/line` = fully associative).
    pub associativity: usize,
}

impl CacheConfig {
    /// A small L1-like default: 32 KiB, 64-byte lines, 8-way.
    pub fn l1() -> CacheConfig {
        CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 64,
            associativity: 8,
        }
    }

    /// A larger L2-like default: 512 KiB, 64-byte lines, 8-way.
    pub fn l2() -> CacheConfig {
        CacheConfig {
            size_bytes: 512 * 1024,
            line_bytes: 64,
            associativity: 8,
        }
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (zero sizes, capacity not a
    /// multiple of `line × ways`).
    pub fn num_sets(&self) -> usize {
        assert!(self.size_bytes > 0 && self.line_bytes > 0 && self.associativity > 0);
        let lines = self.size_bytes / self.line_bytes;
        assert_eq!(
            lines * self.line_bytes,
            self.size_bytes,
            "capacity not line-aligned"
        );
        assert_eq!(lines % self.associativity, 0, "lines not divisible by ways");
        lines / self.associativity
    }
}

/// Hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]` (0 when no accesses).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} misses ({:.2}%)",
            self.accesses,
            self.misses,
            100.0 * self.miss_ratio()
        )
    }
}

/// A set-associative LRU cache.
///
/// The tags live in one flat `sets × ways` array. Each set's slice is kept
/// most-recently-used first, with a per-set fill count, so an access is a
/// short scan plus a loop that shifts the more recent tags down by one.
/// An address's line is `addr / line_bytes` and its set `line % sets`, for
/// every geometry: shift-and-mask indexing for power-of-two geometries
/// measured faster per access in isolation but moved no end-to-end
/// locality figure beyond noise (`BENCH_15_locality.json`,
/// `BENCH_19_locality.json`), so there is one indexing path.
///
/// # Examples
///
/// ```
/// use irlt_cachesim::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig { size_bytes: 128, line_bytes: 32, associativity: 2 });
/// assert!(!c.access(0));   // cold miss
/// assert!(c.access(8));    // same line
/// assert_eq!(c.stats().misses, 1);
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// Set `s` owns `tags[s * ways .. (s + 1) * ways]`, MRU first; only
    /// its first `fill[s]` entries are valid.
    tags: Vec<u64>,
    fill: Vec<usize>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (see [`CacheConfig::num_sets`]).
    pub fn new(config: CacheConfig) -> Cache {
        let num_sets = config.num_sets();
        Cache {
            config,
            tags: vec![0; num_sets * config.associativity],
            fill: vec![0; num_sets],
            stats: CacheStats::default(),
        }
    }

    /// The geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accesses one byte address; returns `true` on hit. Reads and writes
    /// behave identically (write-allocate, no write-back modelling —
    /// miss counts are what locality studies compare).
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.config.line_bytes as u64;
        let set_idx = (line % self.fill.len() as u64) as usize;
        let ways = self.config.associativity;
        let fill = self.fill[set_idx];
        let set = &mut self.tags[set_idx * ways..(set_idx + 1) * ways];
        self.stats.accesses += 1;
        // On a hit, the tags more recent than `line` shift down one slot;
        // on a miss, every valid tag does (the LRU one falls off a full
        // set). Either way `line` becomes the MRU entry.
        let (hit, shifted) = match set[..fill].iter().position(|&t| t == line) {
            Some(pos) => (true, pos),
            None => {
                if fill < ways {
                    self.fill[set_idx] = fill + 1;
                }
                (false, fill.min(ways - 1))
            }
        };
        for k in (1..=shifted).rev() {
            set[k] = set[k - 1];
        }
        set[0] = line;
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears contents and counters.
    pub fn reset(&mut self) {
        self.fill.fill(0);
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 lines of 16 bytes, 2-way → 2 sets.
        Cache::new(CacheConfig {
            size_bytes: 64,
            line_bytes: 16,
            associativity: 2,
        })
    }

    #[test]
    fn geometry() {
        assert_eq!(tiny().config().num_sets(), 2);
        assert_eq!(CacheConfig::l1().num_sets(), 64);
    }

    #[test]
    #[should_panic(expected = "ways")]
    fn inconsistent_geometry_rejected() {
        Cache::new(CacheConfig {
            size_bytes: 64,
            line_bytes: 16,
            associativity: 3,
        });
    }

    #[test]
    fn spatial_locality_hits_within_line() {
        let mut c = tiny();
        assert!(!c.access(0));
        for b in 1..16 {
            assert!(c.access(b), "byte {b} shares the line");
        }
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().accesses, 16);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set 0 holds lines with even line numbers (line % 2 == 0):
        // lines 0, 2, 4 → addresses 0, 32, 64.
        c.access(0); // line 0
        c.access(32); // line 2
        c.access(0); // touch line 0 again → line 2 is now LRU
        c.access(64); // line 4 evicts line 2
        assert!(c.access(0), "line 0 retained");
        assert!(!c.access(32), "line 2 was evicted");
    }

    #[test]
    fn temporal_reuse_after_capacity_exceeded() {
        let mut c = tiny();
        // Stream 8 distinct lines (> capacity 4), then re-touch the first.
        for k in 0..8u64 {
            c.access(k * 16);
        }
        assert!(!c.access(0), "line 0 evicted by the stream");
    }

    #[test]
    fn miss_ratio_and_display() {
        let mut c = tiny();
        c.access(0);
        c.access(0);
        let s = c.stats();
        assert_eq!(s.miss_ratio(), 0.5);
        assert!(s.to_string().contains("50.00%"));
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }

    /// The straightforward model the flat array replaced: one `VecDeque`
    /// per set, MRU at the front.
    struct DequeModel {
        line_bytes: u64,
        ways: usize,
        sets: Vec<std::collections::VecDeque<u64>>,
    }

    impl DequeModel {
        fn new(config: CacheConfig) -> DequeModel {
            DequeModel {
                line_bytes: config.line_bytes as u64,
                ways: config.associativity,
                sets: vec![std::collections::VecDeque::new(); config.num_sets()],
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            let line = addr / self.line_bytes;
            let n = self.sets.len() as u64;
            let set = &mut self.sets[(line % n) as usize];
            let hit = match set.iter().position(|&t| t == line) {
                Some(pos) => {
                    set.remove(pos);
                    true
                }
                None => {
                    if set.len() == self.ways {
                        set.pop_back();
                    }
                    false
                }
            };
            set.push_front(line);
            hit
        }
    }

    #[test]
    fn flat_lru_matches_the_deque_model_on_random_streams() {
        let geometries = [
            (64, 16, 2),        // 2 sets
            (2048, 64, 2),      // the locality workload's cache
            (4096, 64, 4),      // the locality bench's cache
            (128, 32, 4),       // fully associative: one set
            (64, 16, 1),        // direct-mapped
            (192, 16, 4),       // 3 sets: not a power of two
            (480, 24, 2),       // 24 B lines, 10 sets
            (32 * 1024, 64, 8), // L1
        ];
        // splitmix64: a fixed, dependency-free address stream.
        let mut state = 0x15u64;
        let mut next_u64 = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for (size_bytes, line_bytes, associativity) in geometries {
            let config = CacheConfig {
                size_bytes,
                line_bytes,
                associativity,
            };
            // Address ranges a few times the capacity, so both hits and
            // evictions are common.
            for span in [size_bytes as u64 / 2, 3 * size_bytes as u64, 1 << 40] {
                let mut flat = Cache::new(config);
                let mut model = DequeModel::new(config);
                for k in 0..20_000 {
                    let addr = next_u64() % span;
                    assert_eq!(
                        flat.access(addr),
                        model.access(addr),
                        "{config:?}, span {span}: access {k} at {addr}"
                    );
                }
                let s = flat.stats();
                assert_eq!(s.accesses, 20_000);
                assert!(s.misses > 0, "{config:?}, span {span}");
                if span < (1 << 40) {
                    assert!(s.hits > 0, "{config:?}, span {span}");
                }
            }
        }
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = tiny();
        c.access(0);
        c.reset();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(!c.access(0), "cold again after reset");
    }
}
