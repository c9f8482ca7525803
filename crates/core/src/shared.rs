//! The cross-nest shared legality cache.
//!
//! [`SeqState::extend`](crate::SeqState::extend) is a **pure function** of
//! the parent's `(shape, mapped dependence set)` pair and the new
//! template instantiation: the chaining check depends only on the
//! shape's depth, the preconditions and bounds mapping only on the shape,
//! and the dependence mapping only on the mapped set. Nothing about *how*
//! the parent state was reached — which nest it came from, which prefix
//! produced it — enters the computation.
//!
//! [`SharedLegalityCache`] exploits that purity across a whole batch of
//! nests: the first job to extend a given `(state, template)` pair pays
//! the mapping cost and deposits the outcome; every later job — same nest
//! or a structurally identical one — replays the deposited outcome
//! verbatim. [`SeqState::admits`](crate::SeqState::admits), which decides
//! an extension without building the child, deposits a legal verdict as
//! an `Admitted` entry: it answers later `admits` probes, and the first
//! `extend` of the pair replaces it with the child.
//!
//! # Keying: interned structural ids
//!
//! The shape, the mapped set, and the template are interned into
//! per-cache pools ([`irlt_dependence::Interner`]) keyed by 128-bit
//! structural fingerprints with exact-equality verification on every
//! bucket hit. A probe key is then three machine words — `(shape_id,
//! mapped_id, template_id)`, all `Copy` — and because interned
//! ids are *exact* (equal ids ⟺ equal values), a hit can never conflate
//! two distinct subproblems: verdicts and mapped sets out of the cache
//! are bit-identical to recomputation, which the workspace's
//! `shared_legality_cache_matches_fresh_chains` differential property asserts over
//! generated corpora. No string is rendered and no allocation happens on
//! the probe path; interning happens once per *state* (not per probe),
//! and cross-nest hits share one `Arc` per distinct shape and mapped set.
//!
//! A template is interned once per *move list*, not per probe:
//! [`SeqState::key_moves`](crate::SeqState::key_moves) turns a list of
//! templates into [`KeyedMove`]s under one pool lock, and each keyed move
//! carries its template id plus the process-unique id of the cache that
//! issued it. A probe with such a move reads the id and never touches the
//! pools. A bare [`Template`], or a move keyed by another cache, is
//! interned on the probe instead; both paths reach the same exact id.
//!
//! # Sharding
//!
//! The memo table is split into `N` lock-striped shards (`N` a power of
//! two; the batch and serve pools always use
//! `next_power_of_two(workers * 4)`). A probe hashes its key through [`irlt_dependence::fp128`] and
//! masks the low bits to pick a shard, so concurrent workers touching
//! different keys contend on different mutexes; the fingerprint is used
//! *only* for stripe selection (never persisted — see
//! `irlt_dependence::fingerprint`), and within a shard the full key is
//! still compared exactly, so sharding cannot change any verdict. Shard
//! locks are taken `try_lock`-first: a failed `try_lock` increments the
//! shard's `contended` counter before falling back to a blocking `lock`,
//! which makes stripe contention directly observable
//! (`legality/cache/shard.N/*` and `legality/cache/contended` in the
//! batch telemetry). One probe touches exactly one shard, and shard
//! selection allocates nothing, so the zero-allocation probe guarantee
//! (pinned by the `alloc_probe` CI gate) holds at any shard count.
//!
//! # Degradation
//!
//! The cache is capacity-bounded **per shard** (total capacity divided
//! evenly). When an insert would overflow a shard, that shard's resident
//! generation is dropped wholesale (a "generational" sweep: no LRU
//! bookkeeping on the hot path) and the eviction is counted; other shards
//! are untouched. Because entries only ever *replay* what recomputation
//! would produce, eviction is invisible to results — jobs fall back to
//! scratch legality work and produce verdict-identical output. The
//! interner pools are **not** swept: live [`SeqState`]s hold interned
//! ids, and recycling an id could alias two distinct states; the pools
//! grow with the number of *distinct* structures seen.
//!
//! # Persistence
//!
//! A cache can be serialized to a versioned
//! `irlt-cache/v3` artifact and re-loaded in a later process
//! ([`SharedLegalityCache::save_snapshot`] /
//! [`SharedLegalityCache::load_snapshot`], format spec in
//! [`crate::snapshot`]): the snapshot stores structural *values* (pools +
//! entries), never fingerprints or raw ids, and loading re-interns
//! everything so a warm start is exact by the same argument as a cold
//! one. Entries restored from a snapshot are owned by
//! [`SharedLegalityCache::SNAPSHOT_OWNER`]; hits on them are counted
//! separately (`snapshot_hits`) so cross-run amortization is observable.
//!
//! Only built-in templates reach the cache: [`SeqState`] takes nothing
//! else (custom [`KernelTemplate`](crate::KernelTemplate)s go through
//! [`TransformSeq::is_legal`](crate::TransformSeq::is_legal)).
//!
//! [`SeqState`]: crate::SeqState

use crate::incremental::Move;
use crate::sequence::IllegalReason;
use crate::template::Template;
use irlt_dependence::{fp128, DepSet, Interner, InternerStats};
use irlt_ir::LoopNest;
use irlt_obs::Json;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

/// How the cache keys its entries: always interned structural
/// fingerprints (see the [module docs](self)).
///
/// The enum has one variant and the cache neither stores nor branches on
/// it. It survives only so that
/// [`with_config`](SharedLegalityCache::with_config) keeps its
/// `(capacity, shards, KeyMode)` signature for existing callers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KeyMode {
    /// Interned structural fingerprints: `Copy` probe keys, no rendering,
    /// no allocation on the probe path.
    #[default]
    Fingerprint,
}

/// A state's identity: `(shape_id, mapped_id)`, ids from this cache's
/// interners.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct StateKey {
    pub(crate) shape: u32,
    pub(crate) mapped: u32,
}

/// A template's interned id (exact: equal ids ⟺ equal templates).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct TemplateKey(pub(crate) u32);

/// Source of the process-unique [`SharedLegalityCache`] ids that
/// [`MoveKey`]s carry. A counter, not an address: a dropped cache's
/// address can be reused by a new one, its id cannot.
static NEXT_CACHE_ID: AtomicU64 = AtomicU64::new(0);

/// A template id together with the identity of the cache whose pool
/// issued it. The id means nothing to any other cache, so a probe uses
/// it only when the cache ids match.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MoveKey {
    pub(crate) cache: u64,
    pub(crate) template: TemplateKey,
}

/// A candidate step whose template was interned once, when its move list
/// was built ([`SeqState::key_moves`](crate::SeqState::key_moves)), so
/// probing it costs no interner lock. A move built without a cache
/// carries no key.
#[derive(Clone, Debug)]
pub struct KeyedMove {
    template: Template,
    key: Option<MoveKey>,
}

impl KeyedMove {
    /// A move with no key: every probe interns its template.
    pub(crate) fn unkeyed(template: Template) -> KeyedMove {
        KeyedMove {
            template,
            key: None,
        }
    }
}

impl Move for KeyedMove {
    fn template(&self) -> &Template {
        &self.template
    }

    fn key(&self) -> Option<MoveKey> {
        self.key
    }
}

/// The composite map key: state key × template key, flattened into a few
/// `Copy` words with derived `Hash`, so building one never allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct ProbeKey {
    pub(crate) shape: u32,
    pub(crate) mapped: u32,
    pub(crate) template: u32,
}

impl ProbeKey {
    pub(crate) fn new(state: StateKey, template: TemplateKey) -> ProbeKey {
        ProbeKey {
            shape: state.shape,
            mapped: state.mapped,
            template: template.0,
        }
    }
}

/// The outcome of one cached extension: the child triple on success, the
/// rejection reason otherwise.
///
/// Step indices inside a cached [`IllegalReason`] are re-stamped with the
/// *caller's* prefix length on replay (the same shape can sit at
/// different depths in different nests' sequences).
#[derive(Clone, Debug)]
pub(crate) enum CachedOutcome {
    /// Legal: the child's shape, mapped set (interned — shared across
    /// every job that hits this entry), and ready-made state key.
    Legal {
        shape: Arc<LoopNest>,
        mapped: Arc<DepSet>,
        key: StateKey,
    },
    /// Legal, deposited by [`SeqState::admits`](crate::SeqState::admits),
    /// which decides without building the child. It answers `admits`
    /// probes only: an `extend` probe that finds it is a miss, and the
    /// `Legal` entry that extension deposits replaces it. An `Admitted`
    /// deposit never replaces a resident entry.
    Admitted,
    /// Illegal, with the reason (step index unset; re-stamped on replay).
    Illegal(IllegalReason),
}

/// Snapshot of the cache's counters, all monotone within one batch run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Hits where the entry was deposited by a *different* job — the
    /// cross-nest amortization the cache exists for.
    pub cross_hits: u64,
    /// Lookups that found nothing (the extension was then recomputed).
    pub misses: u64,
    /// Entries deposited.
    pub inserts: u64,
    /// Entries dropped by (per-shard) generational eviction.
    pub evictions: u64,
    /// Entries currently resident, summed over shards.
    pub entries: u64,
    /// Map probes: `hits + misses`, since every lookup counts exactly one
    /// of the two (`irlt_driver::publish_cache_telemetry` reports it as
    /// `legality/key/probes`).
    pub key_probes: u64,
    /// Distinct values resident across the three interner pools
    /// (shapes + mapped sets + templates).
    pub interned_values: u64,
    /// Interning requests answered by an existing entry (storage shared).
    /// Templates are interned once per keyed move list, so probes with
    /// keyed moves add nothing here.
    pub interner_hits: u64,
    /// Exact-equality comparisons run on fingerprint-bucket candidates.
    pub interner_verifies: u64,
    /// Verifies that failed: two distinct values shared a 128-bit
    /// fingerprint. Expected to stay 0 in practice.
    pub interner_collisions: u64,
    /// Number of lock-striped shards.
    pub shards: u64,
    /// Shard-lock probes whose `try_lock` failed (another worker held the
    /// stripe) before the blocking fallback acquired it.
    pub contended: u64,
    /// Entries restored from a snapshot (`load_snapshot`).
    pub snapshot_entries: u64,
    /// Hits on snapshot-restored entries — the cross-*run* amortization
    /// warm starts exist for.
    pub snapshot_hits: u64,
}

impl fmt::Display for SharedCacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits ({} cross-job, {} snapshot), {} misses, {} inserts, {} evictions, \
             {} resident in {} shards ({} contended locks, {} snapshot-loaded); \
             {} probes, {} interned ({} pool hits, {} verifies, {} collisions)",
            self.hits,
            self.cross_hits,
            self.snapshot_hits,
            self.misses,
            self.inserts,
            self.evictions,
            self.entries,
            self.shards,
            self.contended,
            self.snapshot_entries,
            self.key_probes,
            self.interned_values,
            self.interner_hits,
            self.interner_verifies,
            self.interner_collisions,
        )
    }
}

impl SharedCacheStats {
    /// The counters as one JSON object — the `cache` object of both the
    /// `irlt-batch` artifact and the `irlt-serve` `stats` payload, so
    /// tooling reads both with one set of field names.
    pub fn to_json(&self) -> Json {
        let int = |v: u64| Json::Int(v as i64);
        Json::Object(vec![
            ("hits".into(), int(self.hits)),
            ("cross_hits".into(), int(self.cross_hits)),
            ("misses".into(), int(self.misses)),
            ("inserts".into(), int(self.inserts)),
            ("evictions".into(), int(self.evictions)),
            ("entries".into(), int(self.entries)),
            ("shards".into(), int(self.shards)),
            ("contended".into(), int(self.contended)),
            ("snapshot_entries".into(), int(self.snapshot_entries)),
            ("snapshot_hits".into(), int(self.snapshot_hits)),
            ("key_probes".into(), int(self.key_probes)),
            ("interned".into(), int(self.interned_values)),
            ("interner_hits".into(), int(self.interner_hits)),
            ("interner_verifies".into(), int(self.interner_verifies)),
            ("interner_collisions".into(), int(self.interner_collisions)),
        ])
    }
}

/// Per-shard counter snapshot (see [`SharedLegalityCache::shard_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Lookups on this shard that found an entry.
    pub hits: u64,
    /// Lookups on this shard that found nothing.
    pub misses: u64,
    /// Entries this shard dropped by generational eviction.
    pub evictions: u64,
    /// `try_lock` failures on this shard's stripe.
    pub contended: u64,
    /// Entries currently resident in this shard.
    pub entries: u64,
}

/// The three interner pools backing the cache keys.
#[derive(Default)]
pub(crate) struct Pools {
    pub(crate) shapes: Interner<LoopNest>,
    pub(crate) deps: Interner<DepSet>,
    pub(crate) templates: Interner<Template>,
}

impl Pools {
    fn stats(&self) -> (u64, u64, u64, u64) {
        let mut total = InternerStats::default();
        for s in [
            self.shapes.stats(),
            self.deps.stats(),
            self.templates.stats(),
        ] {
            total.len += s.len;
            total.hits += s.hits;
            total.verifies += s.verifies;
            total.collision_misses += s.collision_misses;
        }
        (
            total.len,
            total.hits,
            total.verifies,
            total.collision_misses,
        )
    }
}

/// One lock stripe: a map segment plus its contention-visible counters.
struct Shard {
    map: Mutex<HashMap<ProbeKey, Entry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    contended: AtomicU64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }

    /// `try_lock` first so stripe contention is observable; a poisoned
    /// lock only means another thread panicked mid-insert — the map is
    /// still a valid (possibly partial) memo table, so keep serving.
    fn lock(&self) -> MutexGuard<'_, HashMap<ProbeKey, Entry>> {
        match self.map.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                self.lock_uncounted()
            }
        }
    }

    /// Blocking lock for observability and maintenance paths (`stats`,
    /// `len`, snapshot walks): those are not probe traffic, so they do
    /// not count toward the contention telemetry.
    fn lock_uncounted(&self) -> MutexGuard<'_, HashMap<ProbeKey, Entry>> {
        self.map
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

struct Inner {
    /// Process-unique identity, stamped into every [`MoveKey`] this
    /// cache issues.
    id: u64,
    shards: Box<[Shard]>,
    /// `shards.len() - 1`; shard index is `fp128(key) & mask`.
    shard_mask: u128,
    /// Per-shard entry bound (total capacity divided evenly, min 1).
    shard_capacity: usize,
    pools: Mutex<Pools>,
    capacity: usize,
    cross_hits: AtomicU64,
    inserts: AtomicU64,
    snapshot_entries: AtomicU64,
    snapshot_hits: AtomicU64,
}

pub(crate) struct Entry {
    pub(crate) outcome: CachedOutcome,
    /// The job that paid for this entry (see [`SeqState::with_shared`]'s
    /// owner tag); hits from any other owner count as cross-job.
    ///
    /// [`SeqState::with_shared`]: crate::SeqState::with_shared
    pub(crate) owner: u64,
}

/// A clone-shared, thread-safe memo table for [`SeqState`] extensions,
/// shared across every job of a batch run.
///
/// Cloning is cheap (an [`Arc`] bump); all clones observe one table and
/// one set of counters. See the [module docs](self) for the key design,
/// the sharding layout, and the exactness argument.
///
/// [`SeqState`]: crate::SeqState
///
/// # Examples
///
/// ```
/// use irlt_core::{SeqState, SharedLegalityCache, Template};
/// use irlt_dependence::DepSet;
/// use irlt_ir::parse_nest;
///
/// let cache = SharedLegalityCache::with_capacity(1024);
/// let nest = parse_nest(
///     "do i = 2, n\n  do j = 1, m\n    a(i, j) = a(i - 1, j) + 1\n  enddo\nenddo",
/// )?;
/// let deps = DepSet::from_distances(&[&[1, 0]]);
/// let t = Template::parallelize(vec![false, true]);
///
/// // Job 0 computes and deposits; job 1 replays.
/// let a = SeqState::root(&nest, &deps).with_shared(cache.clone(), 0);
/// let b = SeqState::root(&nest, &deps).with_shared(cache.clone(), 1);
/// let x = a.extend(&t)?;
/// let y = b.extend(&t)?;
/// assert_eq!(x.mapped_deps(), y.mapped_deps());
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.cross_hits, stats.misses), (1, 1, 1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone)]
pub struct SharedLegalityCache {
    inner: Arc<Inner>,
}

impl fmt::Debug for SharedLegalityCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedLegalityCache")
            .field("capacity", &self.inner.capacity)
            .field("shards", &self.inner.shards.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for SharedLegalityCache {
    fn default() -> Self {
        SharedLegalityCache::new()
    }
}

/// Shard count for `shards == 0`: `next_power_of_two(threads * 4)`,
/// bounded so a huge host doesn't allocate thousands of near-empty
/// stripes.
fn auto_shards() -> usize {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    (threads * 4).next_power_of_two().clamp(1, 256)
}

impl SharedLegalityCache {
    /// Default entry capacity before a generational sweep.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Owner tag for entries restored by
    /// [`load_snapshot`](SharedLegalityCache::load_snapshot): never a real
    /// job id, so every snapshot hit also counts as a cross-job hit.
    pub const SNAPSHOT_OWNER: u64 = u64::MAX;

    /// A cache with the default capacity and fingerprint keys.
    pub fn new() -> SharedLegalityCache {
        SharedLegalityCache::with_capacity(SharedLegalityCache::DEFAULT_CAPACITY)
    }

    /// A fingerprint-keyed cache holding at most `capacity` entries
    /// (minimum 1), striped over an automatic shard count
    /// (`next_power_of_two(available_parallelism * 4)`). Inserting past a
    /// shard's bound drops that shard's resident generation first.
    pub fn with_capacity(capacity: usize) -> SharedLegalityCache {
        SharedLegalityCache::with_config(capacity, 0, KeyMode::default())
    }

    /// A fingerprint-keyed cache with an explicit shard count (`0` =
    /// automatic; otherwise rounded up to the next power of two).
    pub fn with_shards(capacity: usize, shards: usize) -> SharedLegalityCache {
        SharedLegalityCache::with_config(capacity, shards, KeyMode::default())
    }

    /// The fully explicit constructor: capacity and shard count (`0` =
    /// automatic, otherwise rounded up to a power of two and capped at
    /// 4096). The [`KeyMode`] argument has a single value and is ignored.
    pub fn with_config(capacity: usize, shards: usize, _mode: KeyMode) -> SharedLegalityCache {
        let shards = if shards == 0 {
            auto_shards()
        } else {
            shards.next_power_of_two().min(4096)
        };
        let capacity = capacity.max(1);
        let shard_capacity = (capacity / shards).max(1);
        SharedLegalityCache {
            inner: Arc::new(Inner {
                id: NEXT_CACHE_ID.fetch_add(1, Ordering::Relaxed),
                shards: (0..shards).map(|_| Shard::new()).collect(),
                shard_mask: (shards - 1) as u128,
                shard_capacity,
                pools: Mutex::new(Pools::default()),
                capacity,
                cross_hits: AtomicU64::new(0),
                inserts: AtomicU64::new(0),
                snapshot_entries: AtomicU64::new(0),
                snapshot_hits: AtomicU64::new(0),
            }),
        }
    }

    /// Number of lock-striped shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The shard a probe key stripes to. The fingerprint is computed over
    /// the full key and only the low bits select the stripe; it is never
    /// stored, so stripe assignment is free to change across versions.
    fn shard_for(&self, probe: ProbeKey) -> &Shard {
        &self.inner.shards[(fp128(&probe) & self.inner.shard_mask) as usize]
    }

    pub(crate) fn lock_pools(&self) -> MutexGuard<'_, Pools> {
        self.inner
            .pools
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Computes a state's key by interning the shape and mapped set.
    /// Returns the key plus the canonical (pool-shared) `Arc`s — callers
    /// should adopt them so structurally identical states across jobs
    /// share one allocation.
    ///
    /// This is the **only** place state-key cost is paid: once per new
    /// state, never per probe.
    pub(crate) fn intern_state(
        &self,
        shape: Arc<LoopNest>,
        mapped: Arc<DepSet>,
    ) -> (StateKey, Arc<LoopNest>, Arc<DepSet>) {
        let mut pools = self.lock_pools();
        let s = pools.shapes.intern_arc(shape);
        let d = pools.deps.intern_arc(mapped);
        (
            StateKey {
                shape: s.id,
                mapped: d.id,
            },
            s.value,
            d.value,
        )
    }

    /// Keys a move list: interns every template under one pool lock and
    /// stamps each with its id and this cache's identity. A search keys
    /// each depth's list once; its probes then read the ids lock-free.
    pub(crate) fn key_moves(&self, templates: Vec<Template>) -> Vec<KeyedMove> {
        let mut pools = self.lock_pools();
        templates
            .into_iter()
            .map(|template| {
                let id = TemplateKey(pools.templates.intern_ref(&template).id);
                KeyedMove {
                    template,
                    key: Some(MoveKey {
                        cache: self.inner.id,
                        template: id,
                    }),
                }
            })
            .collect()
    }

    /// A template's key (its interned id), shared by the lookup and any
    /// subsequent insert of one extension. A key this cache issued is
    /// read as is; without one (or with another cache's) the template is
    /// interned here, which clones it only on first sight.
    pub(crate) fn template_key(&self, template: &Template, issued: Option<MoveKey>) -> TemplateKey {
        match issued {
            Some(key) if key.cache == self.inner.id => key.template,
            _ => TemplateKey(self.lock_pools().templates.intern_ref(template).id),
        }
    }

    /// Looks up `(state, template)`, counting a hit (and a cross-job hit
    /// when the depositor differs from `owner`) or a miss on the key's
    /// shard. With `need_child` (an `extend` probe) an
    /// [`Admitted`](CachedOutcome::Admitted) entry cannot answer, so it
    /// counts as a miss and returns `None`.
    ///
    /// The probe key is a few `Copy` words and this path performs **no
    /// allocation** — including shard selection, which is a streaming
    /// hash over those words. Interned ids are exact, so no per-hit
    /// re-verification is needed either, and a hit hands back the
    /// interned `Arc`s (a refcount bump, shared storage).
    pub(crate) fn lookup(
        &self,
        state: StateKey,
        template: TemplateKey,
        owner: u64,
        need_child: bool,
    ) -> Option<CachedOutcome> {
        let probe = ProbeKey::new(state, template);
        let shard = self.shard_for(probe);
        let map = shard.lock();
        match map.get(&probe) {
            Some(entry) if !(need_child && matches!(entry.outcome, CachedOutcome::Admitted)) => {
                shard.hits.fetch_add(1, Ordering::Relaxed);
                if entry.owner != owner {
                    self.inner.cross_hits.fetch_add(1, Ordering::Relaxed);
                }
                if entry.owner == SharedLegalityCache::SNAPSHOT_OWNER {
                    self.inner.snapshot_hits.fetch_add(1, Ordering::Relaxed);
                }
                Some(entry.outcome.clone())
            }
            _ => {
                shard.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Deposits the outcome of one extension, sweeping the key's shard
    /// first if that shard is full. An [`Admitted`](CachedOutcome::Admitted)
    /// outcome is dropped when the key is already resident: it must not
    /// replace the `Legal` entry a concurrent `extend` deposited.
    pub(crate) fn insert(
        &self,
        state: StateKey,
        template: TemplateKey,
        outcome: CachedOutcome,
        owner: u64,
    ) {
        let key = ProbeKey::new(state, template);
        let shard = self.shard_for(key);
        let mut map = shard.lock();
        if matches!(outcome, CachedOutcome::Admitted) && map.contains_key(&key) {
            return;
        }
        if map.len() >= self.inner.shard_capacity {
            shard
                .evictions
                .fetch_add(map.len() as u64, Ordering::Relaxed);
            map.clear();
        }
        map.insert(key, Entry { outcome, owner });
        self.inner.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Restores one snapshot entry under [`Self::SNAPSHOT_OWNER`].
    /// Returns `false` (entry skipped) when the target shard is already
    /// full — loading never evicts live entries — or when the slot is
    /// already occupied.
    pub(crate) fn load_entry(&self, probe: ProbeKey, outcome: CachedOutcome) -> bool {
        let shard = self.shard_for(probe);
        let mut map = shard.lock();
        if map.len() >= self.inner.shard_capacity || map.contains_key(&probe) {
            return false;
        }
        map.insert(
            probe,
            Entry {
                outcome,
                owner: SharedLegalityCache::SNAPSHOT_OWNER,
            },
        );
        self.inner.snapshot_entries.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Visits every resident entry (snapshot serialization walks the
    /// shards in order; iteration order within a shard is unspecified).
    pub(crate) fn for_each_entry(&self, mut f: impl FnMut(&ProbeKey, &Entry)) {
        for shard in self.inner.shards.iter() {
            let map = shard.lock_uncounted();
            for (k, e) in map.iter() {
                f(k, e);
            }
        }
    }

    /// A consistent snapshot of the counters plus the resident entry
    /// count and interner-pool totals.
    pub fn stats(&self) -> SharedCacheStats {
        let mut hits = 0;
        let mut misses = 0;
        let mut evictions = 0;
        let mut contended = 0;
        let mut entries = 0;
        for shard in self.inner.shards.iter() {
            hits += shard.hits.load(Ordering::Relaxed);
            misses += shard.misses.load(Ordering::Relaxed);
            evictions += shard.evictions.load(Ordering::Relaxed);
            contended += shard.contended.load(Ordering::Relaxed);
            entries += shard.lock_uncounted().len() as u64;
        }
        let (interned_values, interner_hits, interner_verifies, interner_collisions) =
            self.lock_pools().stats();
        SharedCacheStats {
            hits,
            cross_hits: self.inner.cross_hits.load(Ordering::Relaxed),
            misses,
            inserts: self.inner.inserts.load(Ordering::Relaxed),
            evictions,
            entries,
            key_probes: hits + misses,
            interned_values,
            interner_hits,
            interner_verifies,
            interner_collisions,
            shards: self.inner.shards.len() as u64,
            contended,
            snapshot_entries: self.inner.snapshot_entries.load(Ordering::Relaxed),
            snapshot_hits: self.inner.snapshot_hits.load(Ordering::Relaxed),
        }
    }

    /// Per-shard counter snapshots, indexed by shard number — the source
    /// of the `legality/cache/shard.N/*` telemetry rows.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.inner
            .shards
            .iter()
            .map(|shard| ShardStats {
                hits: shard.hits.load(Ordering::Relaxed),
                misses: shard.misses.load(Ordering::Relaxed),
                evictions: shard.evictions.load(Ordering::Relaxed),
                contended: shard.contended.load(Ordering::Relaxed),
                entries: shard.lock_uncounted().len() as u64,
            })
            .collect()
    }

    /// The configured total capacity bound.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Number of resident entries across all shards.
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|shard| shard.lock_uncounted().len())
            .sum()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::SeqState;
    use crate::template::Template;
    use irlt_ir::parse_nest;

    fn stencil() -> (LoopNest, DepSet) {
        let nest = parse_nest(
            "do i = 2, n - 1\n do j = 2, n - 1\n  a(i, j) = a(i - 1, j) + a(i, j - 1)\n enddo\nenddo",
        )
        .unwrap();
        (nest, DepSet::from_distances(&[&[1, 0], &[0, 1]]))
    }

    #[test]
    fn replay_is_bit_identical_to_recompute() {
        let (nest, deps) = stencil();
        let cache = SharedLegalityCache::with_capacity(1 << 16);
        let plain = SeqState::root(&nest, &deps);
        let shared = SeqState::root(&nest, &deps).with_shared(cache.clone(), 0);
        let replayed = SeqState::root(&nest, &deps).with_shared(cache.clone(), 1);
        let t = Template::unimodular(irlt_unimodular::IntMatrix::skew(2, 0, 1, 1)).unwrap();
        let a = plain.extend(&t).unwrap();
        let b = shared.extend(&t).unwrap();
        let c = replayed.extend(&t).unwrap();
        for s in [&b, &c] {
            assert_eq!(s.mapped_deps(), a.mapped_deps());
            assert_eq!(s.shape(), a.shape());
            assert_eq!(s.seq().to_string(), a.seq().to_string());
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.cross_hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.inserts, 1);
        assert_eq!(stats.key_probes, 2);
        assert_eq!(stats.snapshot_hits, 0);
    }

    #[test]
    fn illegal_replay_restamps_step_index() {
        let (nest, _) = stencil();
        let deps = DepSet::from_distances(&[&[1, -1]]);
        let cache = SharedLegalityCache::new();
        let swap = Template::reverse_permute(vec![false, false], vec![1, 0]).unwrap();
        // Deposit the rejection from a root-level extension…
        let root = SeqState::root(&nest, &deps).with_shared(cache.clone(), 0);
        let e0 = root.extend(&swap).unwrap_err();
        // …then replay it one step deeper in a different job: the reason
        // must match what recomputation reports at that depth.
        let deep = SeqState::root(&nest, &deps)
            .with_shared(cache.clone(), 1)
            .extend(&Template::parallelize(vec![false, false]))
            .unwrap();
        let fresh = SeqState::root(&nest, &deps)
            .extend(&Template::parallelize(vec![false, false]))
            .unwrap();
        let replayed = deep.extend(&swap).unwrap_err();
        let recomputed = fresh.extend(&swap).unwrap_err();
        assert_eq!(format!("{replayed}"), format!("{recomputed}"));
        assert_eq!(format!("{e0}"), format!("{recomputed}"));
        assert!(cache.stats().cross_hits >= 1);
    }

    #[test]
    fn generational_eviction_counts_and_recovers() {
        let (nest, deps) = stencil();
        // A single shard pins the PR 5 semantics: capacity 1 total means
        // the second insert must sweep the first entry.
        let cache = SharedLegalityCache::with_shards(1, 1);
        let t1 = Template::unimodular(irlt_unimodular::IntMatrix::skew(2, 0, 1, 1)).unwrap();
        let t2 = Template::unimodular(irlt_unimodular::IntMatrix::interchange(2, 0, 1)).unwrap();
        let root = SeqState::root(&nest, &deps).with_shared(cache.clone(), 0);
        root.extend(&t1).unwrap();
        root.extend(&t2).unwrap(); // sweeps the first entry
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 1);
        // Evicted subproblems recompute to the same result.
        let again = SeqState::root(&nest, &deps)
            .with_shared(cache, 1)
            .extend(&t1)
            .unwrap();
        let plain = SeqState::root(&nest, &deps).extend(&t1).unwrap();
        assert_eq!(again.mapped_deps(), plain.mapped_deps());
        assert_eq!(again.shape(), plain.shape());
    }

    #[test]
    fn shard_counts_round_to_powers_of_two() {
        assert_eq!(SharedLegalityCache::with_shards(64, 1).shard_count(), 1);
        assert_eq!(SharedLegalityCache::with_shards(64, 3).shard_count(), 4);
        assert_eq!(SharedLegalityCache::with_shards(64, 16).shard_count(), 16);
        let auto = SharedLegalityCache::with_capacity(64).shard_count();
        assert!(auto.is_power_of_two());
        // Stats report the stripe count.
        assert_eq!(SharedLegalityCache::with_shards(64, 8).stats().shards, 8u64);
    }

    #[test]
    fn eviction_sweeps_only_the_full_shard() {
        let (nest, deps) = stencil();
        // 16 shards × shard_capacity 1: distinct templates stripe to
        // distinct shards with overwhelming probability, so filling many
        // shards and overflowing one must not clear the others.
        let cache = SharedLegalityCache::with_shards(16, 16);
        let root = SeqState::root(&nest, &deps).with_shared(cache.clone(), 0);
        // 8 distinct skew templates → 8 deposits spread over shards.
        for s in 1..=8 {
            let t = Template::unimodular(irlt_unimodular::IntMatrix::skew(2, 0, 1, s)).unwrap();
            root.extend(&t).unwrap();
        }
        let before = cache.stats();
        assert_eq!(before.inserts, 8);
        // Unless several templates collided into one stripe, nothing has
        // been evicted yet and most entries are still resident.
        assert!(
            before.entries >= 5,
            "expected most of 8 entries resident, got {}",
            before.entries
        );
        let per_shard: u64 = cache.shard_stats().iter().map(|s| s.entries).sum();
        assert_eq!(per_shard, before.entries);
    }

    #[test]
    fn contended_shard_locks_are_counted() {
        let (nest, deps) = stencil();
        let cache = SharedLegalityCache::with_shards(1 << 10, 4);
        let t = Template::unimodular(irlt_unimodular::IntMatrix::skew(2, 0, 1, 1)).unwrap();
        SeqState::root(&nest, &deps)
            .with_shared(cache.clone(), 0)
            .extend(&t)
            .unwrap();
        assert_eq!(cache.stats().contended, 0);
        // Hold every shard's stripe, then probe from another thread: its
        // try_lock must fail and be counted before the blocking fallback.
        let guards: Vec<_> = cache.inner.shards.iter().map(|s| s.map.lock()).collect();
        let worker = {
            let cache = cache.clone();
            let nest = nest.clone();
            let deps = deps.clone();
            std::thread::spawn(move || {
                SeqState::root(&nest, &deps)
                    .with_shared(cache, 1)
                    .extend(&t)
                    .unwrap();
            })
        };
        // The worker bumps `contended` *before* blocking on the stripe;
        // read the counters directly (calling `stats()` here would block
        // on the very locks this thread is holding).
        let contended = |c: &SharedLegalityCache| -> u64 {
            c.inner
                .shards
                .iter()
                .map(|s| s.contended.load(Ordering::Relaxed))
                .sum()
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while contended(&cache) == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "worker never contended"
            );
            std::thread::yield_now();
        }
        drop(guards);
        worker.join().unwrap();
        let stats = cache.stats();
        assert!(stats.contended >= 1);
        assert_eq!(stats.hits, 1, "contended probe still replays correctly");
    }

    #[test]
    fn sharded_and_single_shard_caches_agree() {
        let (nest, deps) = stencil();
        let templates = vec![
            Template::unimodular(irlt_unimodular::IntMatrix::skew(2, 0, 1, 1)).unwrap(),
            Template::unimodular(irlt_unimodular::IntMatrix::interchange(2, 0, 1)).unwrap(),
            Template::parallelize(vec![false, true]),
        ];
        let single = SharedLegalityCache::with_shards(1 << 12, 1);
        let sharded = SharedLegalityCache::with_shards(1 << 12, 16);
        let mut a = SeqState::root(&nest, &deps).with_shared(single.clone(), 0);
        let mut b = SeqState::root(&nest, &deps).with_shared(sharded.clone(), 0);
        for t in templates {
            a = a.extend(&t).unwrap();
            b = b.extend(&t).unwrap();
            assert_eq!(a.mapped_deps(), b.mapped_deps());
            assert_eq!(a.shape(), b.shape());
        }
        let (sa, sb) = (single.stats(), sharded.stats());
        assert_eq!((sa.hits, sa.misses), (sb.hits, sb.misses));
        assert_eq!((sa.shards, sb.shards), (1, 16));
    }

    #[test]
    fn interned_state_keys_separate_shapes() {
        let (nest, deps) = stencil();
        let other = parse_nest("do i = 1, n\n a(i) = 0\nenddo").unwrap();
        let cache = SharedLegalityCache::new();
        let mk = |shape: &LoopNest| {
            cache
                .intern_state(Arc::new(shape.clone()), Arc::new(deps.clone()))
                .0
        };
        let k1 = mk(&nest);
        let k2 = mk(&other);
        assert_ne!(k1, k2);
        // Re-interning the same state yields the identical key and shares
        // the pooled storage.
        assert_eq!(k1, mk(&nest));
        let stats = cache.stats();
        assert!(stats.interner_hits > 0, "{stats}");
        assert_eq!(stats.interner_collisions, 0);
    }

    #[test]
    fn cross_job_hits_share_interned_storage() {
        let (nest, deps) = stencil();
        let cache = SharedLegalityCache::new();
        let t = Template::unimodular(irlt_unimodular::IntMatrix::skew(2, 0, 1, 1)).unwrap();
        let a = SeqState::root(&nest, &deps)
            .with_shared(cache.clone(), 0)
            .extend(&t)
            .unwrap();
        let b = SeqState::root(&nest, &deps)
            .with_shared(cache.clone(), 1)
            .extend(&t)
            .unwrap();
        // The replayed child points at the very same allocations the
        // computing job deposited.
        assert!(Arc::ptr_eq(a.shape_arc(), b.shape_arc()));
        assert!(Arc::ptr_eq(a.mapped_arc(), b.mapped_arc()));
    }

    #[test]
    fn debug_and_display_render_stats() {
        let cache = SharedLegalityCache::with_shards(8, 2);
        assert!(format!("{cache:?}").contains("capacity: 8"));
        assert!(format!("{cache:?}").contains("shards: 2"));
        assert!(cache.stats().to_string().contains("0 hits"));
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), 8);
        assert_eq!(cache.shard_stats().len(), 2);
    }
}
