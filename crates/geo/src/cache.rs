//! A memoizing [`Metric`] wrapper for repeated distance queries.
//!
//! One dispatch frame asks for the same distances many times: the
//! preference matrices, stage-1 pair/triple routing and stage-3 group
//! evaluation all touch `D(t, r^s)` and `D(r^s, r^d)` for overlapping
//! `(point, point)` pairs. For cheap closed-form metrics that barely
//! matters, but for a [`RoadNetwork`](crate::RoadNetwork) each query is a
//! shortest-path search, so memoizing within a frame is a large win.
//!
//! [`DistanceCache`] wraps any inner metric and memoizes `distance`
//! queries in a sharded hash map. Because a cached value is always the
//! number the inner metric returned for that exact pair of points,
//! wrapping a metric never changes any computed result — only how often
//! the inner metric runs. Call [`DistanceCache::clear`] at every frame
//! boundary so stale geometry (e.g. after a road-network update) cannot
//! leak across frames and the map cannot grow without bound.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::{Metric, Point};

/// Cheap fixed-width hasher for the point-bits keys: one rotate-xor-
/// multiply round per `u64` (fx-hash style). The keys are raw `f64` bit
/// patterns of city coordinates — high-entropy in the mantissa bits — so
/// a full SipHash pass per lookup is wasted work on the hottest path of
/// the frame loop (a cache *hit* costs little more than this hash).
#[derive(Default, Clone, Copy)]
struct BitsHasher(u64);

impl std::hash::Hasher for BitsHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
}

/// One cache shard: distances keyed by the two endpoints' raw bits.
type Shard = Mutex<HashMap<(u64, u64, u64, u64), f64, std::hash::BuildHasherDefault<BitsHasher>>>;

/// Number of independently locked shards. A power of two so shard
/// selection is a mask; 16 keeps contention low at the thread counts the
/// dispatch pipeline uses without wasting memory on empty maps.
const SHARDS: usize = 16;

/// Cache hit/miss counters of a [`DistanceCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that ran the inner metric.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of queries answered from the cache (0 when empty).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A [`Metric`] that memoizes `distance` queries of an inner metric.
///
/// Thread-safe: shards its map across [`SHARDS`] mutexes so parallel
/// pipeline stages can share one cache. Deterministic: a hit returns
/// exactly the value the inner metric produced for that ordered pair of
/// points, so results are bit-identical with and without the cache.
#[derive(Debug)]
pub struct DistanceCache<M> {
    inner: M,
    shards: [Shard; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<M: Metric> DistanceCache<M> {
    /// Wraps `inner` with an empty cache.
    #[must_use]
    pub fn new(inner: M) -> Self {
        DistanceCache {
            inner,
            shards: std::array::from_fn(|_| Mutex::new(HashMap::default())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The wrapped metric.
    #[must_use]
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Drops every memoized distance (call at frame boundaries).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache shard poisoned").clear();
        }
    }

    /// Number of memoized distances.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// Whether the cache currently holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss counters since construction (they survive [`clear`]).
    ///
    /// [`clear`]: DistanceCache::clear
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// The key is the exact bit pattern of both points, ordered, so two
    /// queries collide only when they are bitwise-identical queries.
    fn key(a: Point, b: Point) -> (u64, u64, u64, u64) {
        (a.x.to_bits(), a.y.to_bits(), b.x.to_bits(), b.y.to_bits())
    }

    fn shard_of(key: &(u64, u64, u64, u64)) -> usize {
        // Cheap mix of the low point bits; the mantissa low bits of real
        // coordinates are close to uniform.
        let h = key
            .0
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(key.2.rotate_left(32))
            .wrapping_add(key.1 ^ key.3);
        (h >> 56) as usize & (SHARDS - 1)
    }
}

impl<M: Metric> Metric for DistanceCache<M> {
    fn distance(&self, a: Point, b: Point) -> f64 {
        let key = Self::key(a, b);
        let shard = &self.shards[Self::shard_of(&key)];
        if let Some(&d) = shard.lock().expect("cache shard poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return d;
        }
        // Compute outside the lock: shortest-path queries can be slow and
        // holding the shard would serialize exactly the work we are
        // parallelizing. Two threads may race to compute the same pair;
        // both compute the same value, so last-write-wins is still
        // deterministic.
        let d = self.inner.distance(a, b);
        self.misses.fetch_add(1, Ordering::Relaxed);
        shard.lock().expect("cache shard poisoned").insert(key, d);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Euclidean;

    /// A metric that counts how often it runs.
    #[derive(Debug)]
    struct Counting {
        calls: AtomicU64,
    }

    impl Metric for Counting {
        fn distance(&self, a: Point, b: Point) -> f64 {
            self.calls.fetch_add(1, Ordering::Relaxed);
            Euclidean.distance(a, b)
        }
    }

    #[test]
    fn caches_and_matches_inner() {
        let cache = DistanceCache::new(Counting {
            calls: AtomicU64::new(0),
        });
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(cache.distance(a, b), 5.0);
        assert_eq!(cache.distance(a, b), 5.0);
        assert_eq!(cache.inner().calls.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn directed_pairs_are_distinct_keys() {
        let cache = DistanceCache::new(Euclidean);
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!(cache.distance(a, b), cache.distance(b, a));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn clear_resets_entries_but_not_stats() {
        let cache = DistanceCache::new(Euclidean);
        cache.distance(Point::ORIGIN, Point::new(1.0, 0.0));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn zero_and_negative_zero_do_not_collide() {
        // -0.0 == 0.0 numerically but has a different bit pattern; the
        // bitwise key must treat them as different queries (both still
        // return correct distances).
        let cache = DistanceCache::new(Euclidean);
        let d1 = cache.distance(Point::new(0.0, 0.0), Point::new(1.0, 0.0));
        let d2 = cache.distance(Point::new(-0.0, 0.0), Point::new(1.0, 0.0));
        assert_eq!(d1, d2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn shared_across_threads() {
        let cache = DistanceCache::new(Counting {
            calls: AtomicU64::new(0),
        });
        let points: Vec<(Point, Point)> = (0..64)
            .map(|i| {
                (
                    Point::new(f64::from(i % 8), 0.0),
                    Point::new(0.0, f64::from(i % 8)),
                )
            })
            .collect();
        let cache = &cache;
        std::thread::scope(|scope| {
            for chunk in points.chunks(16) {
                scope.spawn(move || {
                    for &(a, b) in chunk {
                        assert_eq!(cache.distance(a, b), Euclidean.distance(a, b));
                    }
                });
            }
        });
        // 8 distinct pairs; racing threads may each compute a pair once,
        // but far fewer than the 64 queries.
        assert!(cache.len() == 8);
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 64);
        assert!(stats.misses >= 8);
    }

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Model-based check: interleaved queries and frame-boundary
        /// clears over a small recurring point pool. Every answer must
        /// equal the bare metric's, every query must hit or miss exactly
        /// as a shadow-model map predicts, and the cache must always hold
        /// exactly the model's entries.
        #[test]
        fn queries_and_clears_match_a_shadow_model(
            seed in any::<u64>(),
            ops in 10usize..120,
            pool_size in 2usize..8,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let points: Vec<Point> = (0..pool_size)
                .map(|_| Point::new(rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)))
                .collect();
            let cache = DistanceCache::new(Counting {
                calls: AtomicU64::new(0),
            });
            let mut model: std::collections::HashMap<(u64, u64, u64, u64), f64> =
                std::collections::HashMap::new();
            for _ in 0..ops {
                if rng.gen_bool(0.2) {
                    cache.clear();
                    model.clear();
                } else {
                    let a = points[rng.gen_range(0..points.len())];
                    let b = points[rng.gen_range(0..points.len())];
                    let key = (a.x.to_bits(), a.y.to_bits(), b.x.to_bits(), b.y.to_bits());
                    let expect_hit = model.contains_key(&key);
                    let before = cache.stats();
                    let d = cache.distance(a, b);
                    prop_assert_eq!(d, Euclidean.distance(a, b));
                    let after = cache.stats();
                    if expect_hit {
                        prop_assert_eq!(after.hits, before.hits + 1);
                        prop_assert_eq!(after.misses, before.misses);
                    } else {
                        prop_assert_eq!(after.misses, before.misses + 1);
                        model.insert(key, d);
                    }
                }
                prop_assert_eq!(cache.len(), model.len());
            }
            // Every recorded miss is backed by exactly one inner call.
            prop_assert_eq!(
                cache.stats().misses,
                cache.inner().calls.load(Ordering::Relaxed)
            );
        }
    }
}
