//! Shared threshold keys and the bounded LRU map behind the decision cache.
//!
//! * **Quantized threshold keys** — [`quantize`] maps a candidate threshold
//!   to an integer bucket (absolute 1e-9 resolution for linear spaces,
//!   relative 1e-6 for logarithmic ones). Key equality is the single
//!   definition of "same candidate": the strategies' grid dedup and the
//!   gradient descent's revisit lookup both reduce to it.
//! * **A bounded LRU map** — [`EvalCache`] keeps at most `capacity`
//!   entries, evicting the least-recently *touched* key when full. It is
//!   generic over its key (quantized thresholds by default) and backs the
//!   decision cache: every exact and near map of
//!   [`crate::threshold_cache::ThresholdCache`] is one `EvalCache`.

use std::collections::HashMap;
use std::hash::Hash;

use crate::framework::ThresholdSpace;

/// Quantizes a threshold into its integer bucket for `space`. Two
/// thresholds share a bucket exactly when the pre-existing tolerant
/// comparison (`|a − b| < 1e-9` linear, `|a/b − 1| < 1e-6` logarithmic)
/// would call them equal for grid-separated candidates; grids keep
/// candidates many buckets apart, so the two definitions never disagree on
/// real search sequences.
#[must_use]
pub fn quantize(t: f64, space: &ThresholdSpace) -> i64 {
    if space.logarithmic {
        (t.max(1e-300).ln() / 1e-6).round() as i64
    } else {
        (t * 1e9).round() as i64
    }
}

/// A bounded least-recently-used map from keys (quantized thresholds by
/// default) to cached values.
#[derive(Debug)]
pub struct EvalCache<V, K = i64> {
    capacity: usize,
    tick: u64,
    map: HashMap<K, (V, u64)>,
}

impl<V: Clone, K: Copy + Eq + Hash> EvalCache<V, K> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        EvalCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&key).map(|entry| {
            entry.1 = tick;
            entry.0.clone()
        })
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-touched
    /// entry first when the cache is full.
    pub fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            // O(capacity) eviction scan: insertions are rare relative to
            // lookups, and capacity is small.
            if let Some(&oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, tick))| *tick)
                .map(|(k, _)| k)
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (value, self.tick));
    }

    /// Removes `key`, returning its value if it was cached.
    pub fn remove(&mut self, key: K) -> Option<V> {
        self.map.remove(&key).map(|(value, _)| value)
    }

    /// Number of cached entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear() -> ThresholdSpace {
        ThresholdSpace::percentage()
    }

    fn log_space() -> ThresholdSpace {
        ThresholdSpace::degrees(1.0, 4096.0)
    }

    #[test]
    fn quantize_separates_grid_candidates() {
        let s = linear();
        let grid: Vec<i64> = (0..=100).map(|t| quantize(f64::from(t), &s)).collect();
        let mut dedup = grid.clone();
        dedup.dedup();
        assert_eq!(grid, dedup);
        // Sub-tolerance perturbations share the bucket.
        assert_eq!(quantize(42.0, &s), quantize(42.0 + 1e-13, &s));
    }

    #[test]
    fn quantize_is_relative_on_log_spaces() {
        let s = log_space();
        assert_eq!(quantize(1000.0, &s), quantize(1000.0 * (1.0 + 1e-9), &s));
        assert_ne!(quantize(1000.0, &s), quantize(1000.0 * 1.05, &s));
        assert_ne!(quantize(2.0, &s), quantize(2.0 * 1.05, &s));
    }

    #[test]
    fn get_and_insert_round_trip() {
        let mut c: EvalCache<u32> = EvalCache::new(8);
        assert!(c.is_empty());
        assert_eq!(c.get(5), None);
        c.insert(5, 50);
        assert_eq!(c.get(5), Some(50));
        c.insert(5, 51); // refresh overwrites
        assert_eq!(c.get(5), Some(51));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_removes_least_recently_touched() {
        let mut c: EvalCache<u32> = EvalCache::new(3);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30);
        // Touch 1 so 2 becomes the oldest.
        assert_eq!(c.get(1), Some(10));
        c.insert(4, 40);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(2), None, "LRU entry evicted");
        assert_eq!(c.get(1), Some(10));
        assert_eq!(c.get(3), Some(30));
        assert_eq!(c.get(4), Some(40));
    }

    #[test]
    fn refresh_insert_does_not_evict() {
        let mut c: EvalCache<u32> = EvalCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(2, 21); // full, but key already present
        assert_eq!(c.get(1), Some(10));
        assert_eq!(c.get(2), Some(21));
    }

    #[test]
    fn remove_drops_only_that_key() {
        let mut c: EvalCache<u32, (u8, u8)> = EvalCache::new(2);
        c.insert((1, 0), 10);
        c.insert((2, 0), 20);
        assert_eq!(c.remove((1, 0)), Some(10));
        assert_eq!(c.remove((1, 0)), None);
        assert_eq!(c.len(), 1);
        // The freed slot takes a new key without evicting the survivor.
        c.insert((3, 0), 30);
        assert_eq!(c.get((2, 0)), Some(20));
        assert_eq!(c.get((3, 0)), Some(30));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _: EvalCache<u32> = EvalCache::new(0);
    }
}
