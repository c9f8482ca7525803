//! Satellite 5 (PR 6): the shared-cache probe path is allocation-free.
//!
//! The tentpole claim is that rekeying the [`SharedLegalityCache`] on
//! interned fingerprint ids removes *all* heap traffic from the probe
//! path — no rendered state strings, no template `to_string`, no key
//! clones. This binary pins that claim with a counting
//! `#[global_allocator]` ([`irlt_harness::alloc_counter`]): a warmed
//! probe must perform **zero** allocations, for a hit and for a miss,
//! while the first-ever probe of a template demonstrably allocates (the
//! interner clones it into its pool), which proves the counter is live.
//! The same holds for keyed moves, the search's probe path: a warmed
//! keyed hit or miss allocates nothing, and keying a template the cache
//! has never seen allocates.
//!
//! Allocation counting is process-global, so this file stays a single
//! `#[test]` in its own integration-test binary — nothing else runs
//! concurrently to muddy the counts.

use irlt_core::{SeqState, SharedLegalityCache, Template};
use irlt_dependence::analyze_dependences;
use irlt_harness::alloc_counter::{count_allocations, install, CountingAlloc};
use irlt_ir::parse_nest;
use irlt_unimodular::IntMatrix;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn warmed_probes_do_not_allocate_in_fingerprint_mode() {
    install(&ALLOC);

    let nest = parse_nest(
        "do i = 2, n - 1\n  do j = 2, n - 1\n    a(i, j) = a(i - 1, j) + a(i, j - 1)\n  enddo\nenddo",
    )
    .unwrap();
    let deps = analyze_dependences(&nest);
    let skew = Template::unimodular(IntMatrix::skew(2, 0, 1, 1)).unwrap();
    let interchange = Template::unimodular(IntMatrix::interchange(2, 0, 1)).unwrap();
    let reversal = Template::unimodular(IntMatrix::reversal(2, 0)).unwrap();

    let cache = SharedLegalityCache::with_capacity(1 << 16);
    let state = SeqState::root(&nest, &deps).with_shared(cache.clone(), 0);

    // Deposit (root, skew) and (root, interchange); leave reversal
    // uncached so the miss path is exercised too.
    let _ = state.extend(&skew).unwrap();
    let _ = state.extend(&interchange).unwrap();
    // Warm every template through the interner once: first sight of a
    // template legitimately clones it into the pool.
    assert_eq!(state.shared_probe(&skew), Some(true));
    assert_eq!(state.shared_probe(&reversal), Some(false));

    // The pinned claim: warmed probes — hit or miss — touch the heap
    // zero times.
    let (allocs, outcome) = count_allocations(|| state.shared_probe(&skew));
    assert_eq!(outcome, Some(true), "warmed probe must still hit");
    assert_eq!(allocs, 0, "cache hit allocated on the probe path");

    let (allocs, outcome) = count_allocations(|| state.shared_probe(&interchange));
    assert_eq!(outcome, Some(true));
    assert_eq!(allocs, 0, "second distinct template hit allocated");

    let (allocs, outcome) = count_allocations(|| state.shared_probe(&reversal));
    assert_eq!(outcome, Some(false), "reversal was never deposited");
    assert_eq!(allocs, 0, "cache miss allocated on the probe path");

    // PR 8: shard selection is a streaming hash over `Copy` words, so
    // the guarantee holds at any stripe count — pin the extremes
    // explicitly (the default cache above auto-shards per host). The
    // search probes with keyed moves (template ids issued once per move
    // list), so the keyed probe is pinned at both extremes too.
    for shards in [1usize, 64] {
        let striped = SharedLegalityCache::with_shards(1 << 16, shards);
        let sstate = SeqState::root(&nest, &deps).with_shared(striped.clone(), 0);
        let keyed = sstate.key_moves(vec![skew.clone(), reversal.clone()]);
        let _ = sstate.extend(&keyed[0]).unwrap();
        assert_eq!(sstate.shared_probe(&skew), Some(true));
        assert_eq!(sstate.shared_probe(&reversal), Some(false));

        let (allocs, outcome) = count_allocations(|| sstate.shared_probe(&skew));
        assert_eq!(outcome, Some(true));
        assert_eq!(allocs, 0, "hit allocated at {shards} shard(s)");

        let (allocs, outcome) = count_allocations(|| sstate.shared_probe(&reversal));
        assert_eq!(outcome, Some(false));
        assert_eq!(allocs, 0, "miss allocated at {shards} shard(s)");

        let (allocs, outcome) = count_allocations(|| sstate.shared_probe(&keyed[0]));
        assert_eq!(outcome, Some(true));
        assert_eq!(allocs, 0, "keyed hit allocated at {shards} shard(s)");

        let (allocs, outcome) = count_allocations(|| sstate.shared_probe(&keyed[1]));
        assert_eq!(outcome, Some(false));
        assert_eq!(allocs, 0, "keyed miss allocated at {shards} shard(s)");
    }

    // Contrast (and proof the counter is live): the first sight of a
    // template clones it into the interner pool, so that probe must
    // allocate.
    let unseen = Template::unimodular(IntMatrix::skew(2, 0, 1, 2)).unwrap();
    let (allocs, outcome) = count_allocations(|| state.shared_probe(&unseen));
    assert_eq!(
        outcome,
        Some(false),
        "the unseen template was never deposited"
    );
    assert!(allocs > 0, "first-sight probe unexpectedly alloc-free");

    // Keying is where a keyed move pays for first sight instead: keying
    // a template the cache has never seen clones it into the pool, on
    // top of the list both keyings allocate.
    let seen = vec![skew.clone()];
    let unseen = vec![Template::unimodular(IntMatrix::skew(2, 0, 1, 3)).unwrap()];
    let (seen_allocs, _) = count_allocations(|| state.key_moves(seen));
    let (unseen_allocs, keyed) = count_allocations(|| state.key_moves(unseen));
    assert!(
        unseen_allocs > seen_allocs,
        "keying an unseen template allocated {unseen_allocs} times, a seen one {seen_allocs}"
    );
    assert_eq!(state.shared_probe(&keyed[0]), Some(false));
}
