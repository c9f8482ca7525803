//! 128-bit structural fingerprints for cache keys and interner buckets.
//!
//! The shared legality cache (irlt-core) keys its cross-nest memo on the
//! *structure* of a `(prune, shape, mapped)` state. PR 5 rendered that
//! structure through `Display` and keyed on strings; BENCH_5 showed the
//! rendering dominating replay cost. This module provides the replacement:
//! a deterministic, allocation-free 128-bit fingerprint computed by
//! streaming a value's [`Hash`] impl through two independently-mixed
//! 64-bit lanes.
//!
//! # Why 128 bits *and* exact verification
//!
//! A 64-bit fingerprint over the millions of states a long batched run
//! can visit leaves a birthday-bound collision probability that is small
//! but not negligible — and a silent collision in the legality cache
//! would replay the *wrong* transformed nest, violating the bit-identical
//! determinism contract. 128 bits pushes the collision probability below
//! any practical concern (~2⁻⁶⁴ even at billions of states), and the
//! interner ([`crate::intern`]) still verifies exact equality on every
//! bucket hit, so even an adversarial collision degrades to a wasted
//! comparison, never a wrong answer.
//!
//! The fingerprint is deterministic across runs, threads, and platforms
//! for a fixed code version (it has no random seed), which is what lets
//! fingerprint-keyed caches preserve the serial ≡ parallel replay
//! contract. It is **not** a stable serialization format: a compiler or
//! code change may change fingerprints, and nothing may persist them.

use std::hash::{Hash, Hasher};

/// Two independent 64-bit mixing lanes exposing a 128-bit digest.
///
/// Implements [`std::hash::Hasher`] so any `#[derive(Hash)]` type can be
/// fingerprinted without bespoke traversal code. Each absorbed word is
/// mixed into both lanes with different odd multipliers and rotations
/// (splitmix64-style finalization at the end), so the lanes do not
/// correlate in practice.
///
/// ```
/// use irlt_dependence::fingerprint::{fp128, Fp128Hasher};
/// use std::hash::{Hash, Hasher};
///
/// let a = fp128(&(1u32, "x"));
/// let b = fp128(&(1u32, "x"));
/// assert_eq!(a, b); // deterministic
/// assert_ne!(a, fp128(&(2u32, "x")));
///
/// let mut h = Fp128Hasher::new();
/// 7u64.hash(&mut h);
/// assert_eq!(h.finish(), (h.finish128() & u64::MAX as u128) as u64);
/// ```
#[derive(Clone, Debug)]
pub struct Fp128Hasher {
    lo: u64,
    hi: u64,
    len: u64,
}

/// Odd constants from splitmix64 / xxhash families; the exact values are
/// unimportant beyond being odd and avalanche-tested.
const M0: u64 = 0x9e37_79b9_7f4a_7c15;
const M1: u64 = 0xbf58_476d_1ce4_e5b9;
const M2: u64 = 0x94d0_49bb_1331_11eb;
const M3: u64 = 0x2545_f491_4f6c_dd1d;

#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(M1);
    x ^= x >> 27;
    x = x.wrapping_mul(M2);
    x ^ (x >> 31)
}

impl Fp128Hasher {
    /// A fresh hasher with the fixed (seedless) initial state.
    pub fn new() -> Fp128Hasher {
        Fp128Hasher {
            lo: 0x6a09_e667_f3bc_c908, // frac(sqrt(2)), SHA-512 IV word
            hi: 0xbb67_ae85_84ca_a73b, // frac(sqrt(3))
            len: 0,
        }
    }

    #[inline]
    fn absorb(&mut self, word: u64) {
        self.len = self.len.wrapping_add(1);
        self.lo = (self.lo ^ word).wrapping_mul(M0).rotate_left(23);
        self.hi = (self.hi ^ word.wrapping_mul(M3))
            .wrapping_mul(M1)
            .rotate_left(41);
    }

    /// The full 128-bit digest (low lane in the low 64 bits).
    pub fn finish128(&self) -> u128 {
        // Finalize copies so `finish128` stays idempotent and consistent
        // with `Hasher::finish`.
        let lo = mix64(self.lo ^ self.len);
        let hi = mix64(self.hi ^ self.len.wrapping_mul(M0) ^ lo);
        ((hi as u128) << 64) | lo as u128
    }
}

impl Default for Fp128Hasher {
    fn default() -> Fp128Hasher {
        Fp128Hasher::new()
    }
}

impl Hasher for Fp128Hasher {
    #[inline]
    fn finish(&self) -> u64 {
        (self.finish128() & u64::MAX as u128) as u64
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Absorb 8 bytes at a time; the tail is length-tagged so "ab","c"
        // vs "a","bc" still differ through the per-call tail word.
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.absorb(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            tail[7] = rem.len() as u8 | 0x80;
            self.absorb(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.absorb(i as u64 ^ (1 << 8));
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.absorb(i as u64 ^ (1 << 17));
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.absorb(i as u64 ^ (1 << 33));
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.absorb(i);
    }
    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.absorb(i as u64);
        self.absorb((i >> 64) as u64);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.absorb(i as u64);
    }
    #[inline]
    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }
    #[inline]
    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }
    #[inline]
    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }
    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }
    #[inline]
    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }
    #[inline]
    fn write_isize(&mut self, i: isize) {
        self.write_usize(i as usize);
    }
}

/// Fingerprints any [`Hash`] value through [`Fp128Hasher`].
pub fn fp128<T: Hash + ?Sized>(value: &T) -> u128 {
    let mut h = Fp128Hasher::new();
    value.hash(&mut h);
    h.finish128()
}

/// Types with a canonical 128-bit structural fingerprint.
///
/// The usual rule is `fp128(self)` over `#[derive(Hash)]`; types without a
/// derived `Hash` (e.g. [`crate::DepSet`], which hashes its members and
/// skips its dedup index) implement it by hand, **but must stay
/// consistent with equality**: `a == b` ⟹
/// `a.fingerprint128() == b.fingerprint128()`.
pub trait Fingerprint128 {
    /// The structural fingerprint.
    fn fingerprint128(&self) -> u128;
}

impl Fingerprint128 for irlt_ir::LoopNest {
    fn fingerprint128(&self) -> u128 {
        fp128(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_distinct() {
        assert_eq!(fp128(&[1u8, 2, 3]), fp128(&[1u8, 2, 3]));
        assert_ne!(fp128(&[1u8, 2, 3]), fp128(&[1u8, 2, 4]));
        assert_ne!(fp128(&0u64), fp128(&1u64));
    }

    #[test]
    fn boundary_sensitive_byte_stream() {
        // Different split of the same bytes through separate write calls
        // is allowed to collide per the Hasher contract, but a length
        // change must not.
        assert_ne!(fp128(&b"abc"[..]), fp128(&b"abcd"[..]));
        assert_ne!(fp128(&b""[..]), fp128(&b"\0"[..]));
    }

    #[test]
    fn lanes_do_not_mirror() {
        for i in 0..64u64 {
            let d = fp128(&i);
            assert_ne!((d >> 64) as u64, d as u64, "lanes equal for {i}");
        }
    }

    #[test]
    fn finish_matches_low_lane() {
        let mut h = Fp128Hasher::new();
        "hello".hash(&mut h);
        assert_eq!(h.finish() as u128, h.finish128() & u64::MAX as u128);
    }

    #[test]
    fn no_trivial_64bit_lane_collisions_on_small_ints() {
        use std::collections::HashSet;
        let mut lows = HashSet::new();
        let mut highs = HashSet::new();
        for i in 0..10_000u64 {
            let d = fp128(&i);
            assert!(lows.insert(d as u64));
            assert!(highs.insert((d >> 64) as u64));
        }
    }

    #[test]
    fn nest_fingerprint_tracks_structure() {
        use irlt_ir::parse_nest;
        let a = parse_nest("do i = 1, 10\n  a(i) = a(i - 1)\nenddo").unwrap();
        let b = parse_nest("do i = 1, 10\n  a(i) = a(i - 1)\nenddo").unwrap();
        let c = parse_nest("do i = 1, 11\n  a(i) = a(i - 1)\nenddo").unwrap();
        assert_eq!(a.fingerprint128(), b.fingerprint128());
        assert_ne!(a.fingerprint128(), c.fingerprint128());
    }
}
