use std::collections::{HashMap, VecDeque};

use awsad_linalg::Vector;

use crate::{BatchScratch, Deadline, DeadlineEstimator, Result};

/// Configuration of a [`DeadlineCache`].
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Maximum number of retained entries; the oldest entry is evicted
    /// (FIFO) once the bound is reached.
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { capacity: 4096 }
    }
}

impl CacheConfig {
    /// A cache with the given capacity.
    pub fn exact(capacity: usize) -> Self {
        CacheConfig { capacity }
    }
}

/// Counters describing cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that ran the full deadline search.
    pub misses: u64,
    /// Entries evicted to honor the capacity bound.
    pub evictions: u64,
    /// Entries currently retained.
    pub len: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; `0` before any query.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Memoization layer over [`DeadlineEstimator::checked_deadline`].
///
/// The deadline search is the dominant per-step cost of the adaptive
/// detector — `O(w_m · n²)` per query — yet consecutive control steps
/// frequently query identical trusted states (steady-state operation,
/// convergent regulation). The cache maps a trusted state and radius,
/// keyed on their exact f64 bit patterns, to its deadline, bounded by
/// a FIFO eviction policy. A hit returns exactly what the walk would,
/// so detection decisions are unchanged.
///
/// There is one miss path: [`DeadlineCache::lookup`] counts the miss,
/// the caller walks (one state through
/// [`DeadlineEstimator::checked_deadline_with`], or many through one
/// batched walk), and [`DeadlineCache::insert_computed`] stores the
/// answer. [`DeadlineCache::deadline`] runs that sequence for one
/// state; [`DeadlineCache::prewarm`] runs the batched walk and the
/// inserts for many states ahead of their lookups.
#[derive(Debug, Clone)]
pub struct DeadlineCache {
    /// Retained-entry bound (at least 1).
    capacity: usize,
    entries: HashMap<Vec<u64>, Deadline>,
    order: VecDeque<Vec<u64>>,
    stats: CacheStats,
    /// Reusable key buffer so hit-path lookups allocate nothing.
    key_scratch: Vec<u64>,
}

/// Builds the cache key for `(x0, r0)` into `key` (cleared first):
/// the exact f64 bit patterns of `x0` with `r0`'s bits appended.
fn build_key(x0: &Vector, r0: f64, key: &mut Vec<u64>) {
    key.clear();
    key.reserve(x0.len() + 1);
    key.extend(x0.as_slice().iter().map(|v| v.to_bits()));
    key.push(r0.to_bits());
}

impl DeadlineCache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let capacity = config.capacity.max(1);
        DeadlineCache {
            capacity,
            entries: HashMap::with_capacity(capacity.min(1024)),
            order: VecDeque::new(),
            stats: CacheStats::default(),
            key_scratch: Vec::new(),
        }
    }

    /// Effectiveness counters accumulated since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            len: self.entries.len(),
            ..self.stats
        }
    }

    /// The deadline from `x0` with initial-state radius `r0`, answered
    /// from the cache when possible: [`DeadlineCache::lookup`], then on
    /// a miss the walk and [`DeadlineCache::insert_computed`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::ReachError::DimensionMismatch`] for a
    /// wrong-length `x0` (the miss is counted, nothing is stored).
    pub fn deadline(
        &mut self,
        estimator: &DeadlineEstimator,
        x0: &Vector,
        r0: f64,
    ) -> Result<Deadline> {
        if let Some(hit) = self.lookup(x0, r0) {
            return Ok(hit);
        }
        let deadline = estimator.checked_deadline(x0, r0)?;
        self.insert_computed(x0, r0, deadline);
        Ok(deadline)
    }

    /// The first step of the miss path: builds the key in a reusable
    /// buffer and returns the cached deadline, counting a hit — or
    /// counts a miss and returns `None`, leaving the walk to the
    /// caller. A hit allocates nothing.
    ///
    /// The caller answers a miss with a plain walk from `(x0, r0)`
    /// (one state through [`DeadlineEstimator::checked_deadline_with`]
    /// or a group through one batched walk, bit-identical per state)
    /// and hands it back through [`DeadlineCache::insert_computed`]
    /// with the same `(x0, r0)`.
    pub fn lookup(&mut self, x0: &Vector, r0: f64) -> Option<Deadline> {
        build_key(x0, r0, &mut self.key_scratch);
        if let Some(&hit) = self.entries.get(self.key_scratch.as_slice()) {
            self.stats.hits += 1;
            return Some(hit);
        }
        self.stats.misses += 1;
        None
    }

    /// The last step of the miss path: stores a deadline the caller
    /// walked for a [`DeadlineCache::lookup`] miss on the same
    /// `(x0, r0)`. Counts nothing — the lookup already counted the
    /// miss.
    pub fn insert_computed(&mut self, x0: &Vector, r0: f64, deadline: Deadline) {
        build_key(x0, r0, &mut self.key_scratch);
        let key = self.key_scratch.clone();
        self.insert(key, deadline);
    }

    /// Speculatively fills the cache for a batch of states with one
    /// [`DeadlineEstimator::deadline_batch_refs_with`] walk over the
    /// borrowed states.
    ///
    /// States already cached (or duplicated within `states`) are
    /// skipped; the rest are walked together, and each entry is
    /// bit-identical to the one the per-state miss path would store.
    /// Each computed entry counts as a miss (the later lookup that
    /// consumes it then counts as a hit, which keeps hit-rate
    /// accounting aligned with the per-state miss path).
    ///
    /// Returns the number of entries computed.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ReachError::DimensionMismatch`] if any state
    /// has the wrong length; nothing is inserted in that case.
    pub fn prewarm(
        &mut self,
        estimator: &DeadlineEstimator,
        states: &[&Vector],
        r0: f64,
    ) -> Result<usize> {
        let mut keys: Vec<Vec<u64>> = Vec::new();
        let mut fresh: Vec<&Vector> = Vec::new();
        for &s in states {
            build_key(s, r0, &mut self.key_scratch);
            if self.entries.contains_key(self.key_scratch.as_slice())
                || keys.contains(&self.key_scratch)
            {
                continue;
            }
            keys.push(self.key_scratch.clone());
            fresh.push(s);
        }
        if fresh.is_empty() {
            return Ok(0);
        }
        let mut deadlines = Vec::with_capacity(fresh.len());
        estimator.deadline_batch_refs_with(&fresh, r0, &mut BatchScratch::new(), &mut deadlines)?;
        let count = deadlines.len();
        for (key, deadline) in keys.into_iter().zip(deadlines) {
            self.stats.misses += 1;
            self.insert(key, deadline);
        }
        Ok(count)
    }

    /// Drops all entries (counters are preserved).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }

    fn insert(&mut self, key: Vec<u64>, deadline: Deadline) {
        while self.entries.len() >= self.capacity {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.entries.remove(&oldest);
            self.stats.evictions += 1;
        }
        if self.entries.insert(key.clone(), deadline).is_none() {
            self.order.push_back(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReachConfig;
    use awsad_linalg::Matrix;
    use awsad_sets::BoxSet;

    /// Pure integrator: x_{t+1} = x_t + u_t, |u| <= 1, safe |x| <= 5.
    fn integrator() -> DeadlineEstimator {
        let a = Matrix::identity(1);
        let b = Matrix::from_rows(&[&[1.0]]).unwrap();
        let cfg = ReachConfig::new(
            BoxSet::from_bounds(&[-1.0], &[1.0]).unwrap(),
            0.0,
            BoxSet::from_bounds(&[-5.0], &[5.0]).unwrap(),
            100,
        )
        .unwrap();
        DeadlineEstimator::new(&a, &b, cfg).unwrap()
    }

    fn v(x: f64) -> Vector {
        Vector::from_slice(&[x])
    }

    #[test]
    fn exact_mode_matches_uncached_and_counts_hits() {
        let est = integrator();
        let mut cache = DeadlineCache::new(CacheConfig::exact(64));
        for x in [0.0, 3.0, 0.0, 3.0, 0.0] {
            let cached = cache.deadline(&est, &v(x), 0.0).unwrap();
            assert_eq!(cached, est.checked_deadline(&v(x), 0.0).unwrap());
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.len, 2);
        assert!((stats.hit_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn lookup_insert_computed_reproduces_deadline_exactly() {
        let est = integrator();
        let mut split = DeadlineCache::new(CacheConfig::exact(64));
        let mut fused = DeadlineCache::new(CacheConfig::exact(64));
        let mut scratch = crate::DeadlineScratch::new();
        for x in [0.0, 3.0, 0.0, -2.5, 3.0, 0.0] {
            let reference = fused.deadline(&est, &v(x), 0.0).unwrap();
            let got = match split.lookup(&v(x), 0.0) {
                Some(hit) => hit,
                None => {
                    let d = est.checked_deadline_with(&v(x), 0.0, &mut scratch).unwrap();
                    split.insert_computed(&v(x), 0.0, d);
                    d
                }
            };
            assert_eq!(got, reference, "x={x}");
        }
        assert_eq!(split.stats(), fused.stats());
    }

    #[test]
    fn exact_mode_distinguishes_radii() {
        let est = integrator();
        let mut cache = DeadlineCache::new(CacheConfig::exact(64));
        let a = cache.deadline(&est, &v(3.0), 0.0).unwrap();
        let b = cache.deadline(&est, &v(3.0), 1.0).unwrap();
        assert!(b.is_tighter_than(a));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn capacity_bound_evicts_fifo() {
        let est = integrator();
        let mut cache = DeadlineCache::new(CacheConfig::exact(4));
        for i in 0..10 {
            cache.deadline(&est, &v(i as f64 * 0.1), 0.0).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.len, 4);
        assert_eq!(stats.evictions, 6);
        // The oldest keys were evicted: re-querying them misses.
        cache.deadline(&est, &v(0.0), 0.0).unwrap();
        assert_eq!(cache.stats().misses, 11);
    }

    #[test]
    fn clear_preserves_counters() {
        let est = integrator();
        let mut cache = DeadlineCache::new(CacheConfig::exact(8));
        cache.deadline(&est, &v(1.0), 0.0).unwrap();
        cache.clear();
        assert_eq!(cache.stats().len, 0);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn dimension_mismatch_propagates() {
        let est = integrator();
        let mut cache = DeadlineCache::new(CacheConfig::default());
        assert!(cache.deadline(&est, &Vector::zeros(2), 0.0).is_err());
    }

    #[test]
    fn prewarm_turns_lookups_into_hits() {
        let est = integrator();
        let mut cache = DeadlineCache::new(CacheConfig::exact(64));
        let states = [v(0.0), v(3.0), v(0.0), v(-2.0)];
        let refs: Vec<&Vector> = states.iter().collect();
        // 4 states, 3 distinct: exactly 3 batch computations.
        assert_eq!(cache.prewarm(&est, &refs, 0.0).unwrap(), 3);
        assert_eq!(cache.stats().misses, 3);
        for s in &states {
            let cached = cache.deadline(&est, s, 0.0).unwrap();
            assert_eq!(cached, est.checked_deadline(s, 0.0).unwrap());
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 4, "all post-prewarm lookups must hit");
        assert_eq!(stats.misses, 3);
        // Prewarming again computes nothing.
        assert_eq!(cache.prewarm(&est, &refs, 0.0).unwrap(), 0);
    }

    #[test]
    fn prewarm_dimension_mismatch_inserts_nothing() {
        let est = integrator();
        let mut cache = DeadlineCache::new(CacheConfig::exact(64));
        let good = v(1.0);
        let bad = Vector::zeros(2);
        assert!(cache.prewarm(&est, &[&good, &bad], 0.0).is_err());
        assert_eq!(cache.stats().len, 0);
        assert_eq!(cache.stats().misses, 0);
    }
}
