//! A bounded, deterministic memo cache, and the fixed-key [`FixedMap`].
//!
//! [`MemoCache`] remembers the outcome of expensive computations — its
//! one user holds the HMAC tags a simulated sender shares with its
//! receivers (`turquois-harness`'s link-tag pool) — keyed by the full
//! input identity, so a re-delivery of the same bytes costs a map probe
//! instead of a SHA-256 chain. Sound because the key includes every
//! byte the recomputation would read, so equal keys are the same
//! computation.
//!
//! Determinism: the index is a [`FixedMap`] (a constant-key hasher,
//! never `RandomState`) that is only ever probed, never iterated for
//! output, and eviction is FIFO through an insertion-order queue — so
//! the cache's contents depend only on the lookup sequence, never on
//! hash seeds or addresses. Bounded: capacity eviction keeps a flood
//! of distinct keys from growing memory, and an evicted entry merely
//! costs a recomputation, never a wrong answer.
//!
//! Results must never depend on the cache. Builds with debug assertions
//! (every `cargo test` run) hold it to that: a hit re-runs its closure
//! and asserts the cached value equals the recomputation (a read-only
//! [`MemoCache::peek`] hit must pass the recheck its caller supplies).

use std::collections::{hash_map::Entry, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A fixed-key hasher: rustc's `FxHasher` rotate-xor-multiply mix, a
/// 64-bit word at a time. A key costs a few multiplies, not SipHash's
/// rounds; it resists no collision attack, which no index here needs.
#[derive(Clone, Copy, Debug, Default)]
pub struct FixedHasher(u64);

impl Hasher for FixedHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        if let tail @ [_, ..] = words.remainder() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26) // tables index by the low bits; the mix fills the high ones
    }
}

/// The hash map of every crate under `crates/`: std's, under
/// [`FixedHasher`]; clippy (`crates/clippy.toml`) allows no other.
#[allow(clippy::disallowed_types)]
pub type FixedMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FixedHasher>>;

/// Bounded memoization of `key -> value` computations. See the module
/// docs for the determinism and soundness argument.
#[derive(Clone, Debug)]
pub struct MemoCache<K: Hash + Eq + Clone, V> {
    entries: FixedMap<K, V>,
    order: VecDeque<K>,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone + PartialEq + std::fmt::Debug> MemoCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        MemoCache {
            entries: FixedMap::default(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Memoized evaluation of `compute` for `key`: a hit returns the
    /// cached value without running `compute` (except to cross-check it
    /// under debug assertions), a miss runs it and caches the result.
    /// `compute` must be a pure function of `key`.
    pub fn lookup(&mut self, key: K, compute: impl FnOnce() -> V) -> V {
        match self.entries.entry(key) {
            Entry::Occupied(hit) => {
                debug_assert_eq!(compute(), *hit.get(), "memo cache disagrees with recomputation");
                hit.get().clone()
            }
            Entry::Vacant(slot) => {
                let result = compute();
                self.order.push_back(slot.key().clone());
                slot.insert(result.clone());
                // `order` holds exactly the live keys, oldest first; the
                // one evicted is never the entry just inserted, because
                // the capacity is at least 1.
                if self.entries.len() > self.capacity {
                    let oldest = self.order.pop_front().expect("a full cache has an oldest key");
                    self.entries.remove(&oldest);
                }
                result
            }
        }
    }

    /// The cached value for `key`, if any, without computing or caching
    /// one: for a reader that can use a value but not produce all of
    /// it. `recheck` stands in for [`MemoCache::lookup`]'s recomputation
    /// — under debug assertions a hit must pass it.
    pub fn peek(&self, key: &K, recheck: impl FnOnce(&V) -> bool) -> Option<&V> {
        let hit = self.entries.get(key);
        debug_assert!(hit.is_none_or(recheck), "memo cache disagrees with recomputation");
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_positive_and_negative_results() {
        let mut cache = MemoCache::new(8);
        let mut misses = 0;
        for _ in 0..3 {
            for (key, verdict) in [(1u32, true), (2, false)] {
                let before = cache.len();
                assert_eq!(cache.lookup(key, || verdict), verdict);
                misses += cache.len() - before;
            }
        }
        assert_eq!(misses, 2, "each key inserted exactly once");
    }

    /// The hit recheck is the memo differential: a closure that no
    /// longer computes what the cache holds fails the run.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "memo cache disagrees with recomputation")]
    fn hit_that_disagrees_with_recomputation_panics() {
        let mut cache = MemoCache::new(8);
        cache.lookup(1u32, || true);
        cache.lookup(1u32, || false);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "memo cache disagrees with recomputation")]
    fn peek_that_fails_its_recheck_panics() {
        let mut cache = MemoCache::new(8);
        cache.lookup(1u32, || true);
        cache.peek(&1, |held| !held);
    }

    /// The index hasher is fixed-key: any two caches hash a key alike,
    /// so nothing about a cache differs between runs (`RandomState`
    /// fails this).
    #[test]
    fn index_hasher_is_not_randomly_seeded() {
        use std::hash::BuildHasher;
        let (a, b) = (
            MemoCache::<u32, bool>::new(1),
            MemoCache::<u32, bool>::new(1),
        );
        assert_eq!(a.entries.hasher().hash_one(7u32), b.entries.hasher().hash_one(7u32));
    }

    /// Every byte of a key reaches the hash, the tail past the last
    /// whole word included, and so does its length.
    #[test]
    fn fixed_hasher_reads_every_byte() {
        use std::hash::BuildHasher;
        let state = BuildHasherDefault::<FixedHasher>::default();
        let base = *b"0123456789abcdefXYZ";
        let mut seen = vec![state.hash_one(&base[..])];
        for at in 0..base.len() {
            let mut key = base;
            key[at] ^= 1;
            seen.push(state.hash_one(&key[..]));
        }
        seen.push(state.hash_one(&base[..base.len() - 1]));
        seen.push(state.hash_one(&[0u8; 0][..]));
        seen.push(state.hash_one(&[0u8; 1][..]));
        let distinct: std::collections::BTreeSet<u64> = seen.iter().copied().collect();
        assert_eq!(distinct.len(), seen.len());
    }

    /// What one lookup key maps to in the model proptest: any pure
    /// function of the key will do.
    fn f(k: u8) -> u32 {
        u32::from(k).wrapping_mul(2654435761) % 97
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The cache against a `VecDeque` FIFO model under arbitrary
        /// interleavings of lookups and peeks at capacities 1..8: every
        /// lookup returns `f(k)`, the closure runs exactly on a model
        /// miss, a peek sees exactly the live entries and changes
        /// nothing, the cache never exceeds its capacity, and eviction
        /// order is the model's.
        #[test]
        fn matches_fifo_model(
            capacity in 1usize..8,
            // (key, op selector: 0 = peek, else lookup)
            ops in proptest::collection::vec((0u8..12, 0u8..5), 1..80),
        ) {
            let mut cache: MemoCache<u8, u32> = MemoCache::new(capacity);
            let mut model: VecDeque<u8> = VecDeque::new();
            let model_insert = |model: &mut VecDeque<u8>, k: u8| {
                if model.len() == capacity {
                    model.pop_front();
                }
                model.push_back(k);
            };
            for (key, op) in ops {
                match op {
                    0 => {
                        let held = model.contains(&key).then(|| f(key));
                        proptest::prop_assert_eq!(cache.peek(&key, |v| *v == f(key)).copied(), held);
                    }
                    _ => {
                        let hit = model.contains(&key);
                        let mut ran = false;
                        let got = cache.lookup(key, || {
                            ran = true;
                            f(key)
                        });
                        proptest::prop_assert_eq!(got, f(key));
                        // A hit runs the closure only for the recheck.
                        proptest::prop_assert_eq!(ran, !hit || cfg!(debug_assertions));
                        if !hit {
                            model_insert(&mut model, key);
                        }
                    }
                }
                proptest::prop_assert!(cache.len() <= capacity);
                proptest::prop_assert_eq!(&cache.order, &model);
                proptest::prop_assert!(
                    cache.entries.keys().all(|k| model.contains(k)) && cache.len() == model.len()
                );
            }
        }
    }
}
