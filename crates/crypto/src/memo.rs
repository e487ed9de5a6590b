//! A bounded, deterministic memo cache for verification results.
//!
//! [`MemoCache`] remembers the outcome of expensive computations —
//! boolean verdicts of HMAC threshold-share checks, or full HMAC tags
//! shared between a simulated sender and receiver — keyed by the full
//! input identity, so re-deliveries of the same signed bytes cost a map
//! probe instead of a SHA-256 chain. It caches *negative* results too:
//! a forged signature rejected once is rejected from the cache
//! thereafter — sound because the key includes every byte the
//! recomputation would read, so equal keys are the same computation.
//!
//! Determinism: backed by a `BTreeMap` plus FIFO insertion-order
//! eviction, so behaviour depends only on the lookup sequence — never
//! on hash seeds or addresses. Bounded: Byzantine senders can mint
//! unlimited distinct invalid signatures; capacity eviction keeps a
//! flood from growing memory, and an evicted entry merely costs a
//! recomputation, never a wrong answer.
//!
//! Results must never depend on the cache. Builds with debug assertions
//! (every `cargo test` run) hold it to that: a hit re-runs its closure
//! and asserts the cached value equals the recomputation.

use std::collections::{BTreeMap, VecDeque};

/// Bounded memoization of `key -> value` computations (verification
/// verdicts by default). See the module docs for the determinism and
/// soundness argument.
#[derive(Clone, Debug)]
pub struct MemoCache<K: Ord + Clone, V = bool> {
    entries: BTreeMap<K, V>,
    order: VecDeque<K>,
    capacity: usize,
}

impl<K: Ord + Clone, V: Clone + PartialEq + std::fmt::Debug> MemoCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        MemoCache {
            entries: BTreeMap::new(),
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
        if let Some(cached) = self.entries.get(&key) {
            debug_assert_eq!(compute(), *cached, "memo cache disagrees with recomputation");
            return cached.clone();
        }
        let result = compute();
        self.insert(key, result.clone());
        result
    }

    /// Batch counterpart of [`MemoCache::lookup`]: computes the values
    /// of every requested key the cache does not hold in **one**
    /// `compute_many` call (one value per input, in order) and caches
    /// them, so the per-key lookups that follow hit. Requests whose key
    /// is already cached never reach `compute_many`, which is not
    /// called at all when nothing misses.
    pub fn fill_misses<R>(
        &mut self,
        requests: impl IntoIterator<Item = (K, R)>,
        compute_many: impl FnOnce(&[R]) -> Vec<V>,
    ) {
        let (keys, inputs): (Vec<K>, Vec<R>) = requests
            .into_iter()
            .filter(|(key, _)| !self.entries.contains_key(key))
            .unzip();
        if keys.is_empty() {
            return;
        }
        let values = compute_many(&inputs);
        assert_eq!(values.len(), keys.len(), "compute_many must return one value per input");
        for (key, value) in keys.into_iter().zip(values) {
            // A key requested twice in one batch is cached once.
            if !self.entries.contains_key(&key) {
                self.insert(key, value);
            }
        }
    }

    /// Caches `value` under the absent `key`, evicting FIFO at capacity.
    fn insert(&mut self, key: K, value: V) {
        if self.entries.len() == self.capacity {
            // `order` holds exactly the live keys, oldest first.
            let oldest = self.order.pop_front().expect("a full cache has an oldest key");
            self.entries.remove(&oldest);
        }
        self.entries.insert(key.clone(), value);
        self.order.push_back(key);
    }

    /// Drops every entry whose key fails `keep` (garbage collection —
    /// callers tie this to their protocol's GC floor).
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        self.entries.retain(|k, _| keep(k));
        let entries = &self.entries;
        self.order.retain(|k| entries.contains_key(k));
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
    fn fill_misses_computes_only_absent_keys_in_one_call() {
        let mut cache: MemoCache<u32, String> = MemoCache::new(8);
        cache.lookup(3, || "D".to_string());
        let mut calls = 0;
        cache.fill_misses(vec![(1, "a"), (2, "b"), (1, "a"), (3, "d")], |inputs| {
            calls += 1;
            assert_eq!(inputs, ["a", "b", "a"], "3 is cached; order kept");
            inputs.iter().map(|s| s.to_uppercase()).collect()
        });
        assert_eq!(calls, 1);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.order, [3, 1, 2], "a duplicate request is cached once");
        // Everything requested now hits.
        cache.fill_misses(vec![(1, "a"), (2, "b")], |_| unreachable!("no misses, no batch"));
        cache.fill_misses(Vec::<(u32, &str)>::new(), |_| unreachable!("empty batch"));
        assert_eq!(cache.lookup(2, || "B".to_string()), "B");
    }

    #[test]
    #[should_panic(expected = "one value per input")]
    fn fill_misses_rejects_a_short_batch_result() {
        MemoCache::<u32, u8>::new(8).fill_misses(vec![(1, ())], |_| Vec::new());
    }

    /// What one lookup key maps to in the model proptest: any pure
    /// function of the key will do.
    fn f(k: u8) -> u32 {
        u32::from(k).wrapping_mul(2654435761) % 97
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The cache against a `VecDeque` FIFO model under arbitrary
        /// interleavings of lookups, batch fills and garbage collection
        /// at capacities 1..8: every lookup returns `f(k)`, the closure
        /// runs exactly on a model miss, the cache never exceeds its
        /// capacity, and eviction order — including after `retain` —
        /// is the model's.
        #[test]
        fn matches_fifo_model(
            capacity in 1usize..8,
            // (key, op selector: 0 = retain(k >= key), 1 = fill three
            // keys from `key`, else lookup)
            ops in proptest::collection::vec((0u8..12, 0u8..10), 1..80),
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
                        cache.retain(|&k| k >= key);
                        model.retain(|&k| k >= key);
                    }
                    1 => {
                        let batch = [key, key + 1, key + 2];
                        let expected: Vec<u8> =
                            batch.iter().copied().filter(|k| !model.contains(k)).collect();
                        let mut computed = Vec::new();
                        cache.fill_misses(batch.map(|k| (k, k)), |misses| {
                            computed = misses.to_vec();
                            misses.iter().map(|&k| f(k)).collect()
                        });
                        proptest::prop_assert_eq!(&computed, &expected);
                        for k in expected {
                            if !model.contains(&k) {
                                model_insert(&mut model, k);
                            }
                        }
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
