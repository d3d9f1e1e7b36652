//! Parallel ≡ sequential: the parallel stages must produce bit-identical
//! results for every thread count.
//!
//! The parallel maps in `o2o-par` preserve input order and every cell of
//! the pick-up and evaluation matrices is an independent computation, so
//! nothing — not even float rounding — may differ between
//! `Parallelism::sequential()` and `Parallelism::fixed(n)`. These tests
//! pin that contract over random frames for the sharing dispatcher and the
//! engine's pick-up matrix. The non-sharing dispatcher runs each frame on
//! one thread.

use o2o_core::{PickupDistances, PreferenceParams, SharingDispatcher};
use o2o_geo::{DistanceCache, Euclidean, Metric, Point};
use o2o_par::Parallelism;
use o2o_trace::{Request, RequestId, Taxi, TaxiId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_frame(seed: u64, nt: usize, nr: usize) -> (Vec<Taxi>, Vec<Request>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let taxis = (0..nt)
        .map(|i| {
            Taxi::new(
                TaxiId(i as u64),
                Point::new(rng.gen_range(-6.0..6.0), rng.gen_range(-6.0..6.0)),
            )
        })
        .collect();
    let requests = (0..nr)
        .map(|j| {
            Request::new(
                RequestId(j as u64),
                0,
                Point::new(rng.gen_range(-6.0..6.0), rng.gen_range(-6.0..6.0)),
                Point::new(rng.gen_range(-6.0..6.0), rng.gen_range(-6.0..6.0)),
            )
        })
        .collect();
    (taxis, requests)
}

const THREAD_COUNTS: [usize; 3] = [2, 4, 7];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharing_pipeline_is_thread_count_invariant(
        seed in any::<u64>(), nt in 1usize..8, nr in 2usize..12,
    ) {
        let (taxis, requests) = random_frame(seed, nt, nr);
        let params = PreferenceParams::unbounded().with_detour_threshold(2.5);
        let seq = SharingDispatcher::new(Euclidean, params);
        let groups0 = seq.feasible_groups(&requests);
        let pack0 = seq.pack(&requests);
        let p0 = seq.dispatch_passenger_optimal(&taxis, &requests);
        let t0 = seq.dispatch_taxi_optimal(&taxis, &requests);
        for threads in THREAD_COUNTS {
            let par = SharingDispatcher::new(Euclidean, params)
                .with_parallelism(Parallelism::fixed(threads));
            prop_assert_eq!(&par.feasible_groups(&requests), &groups0);
            prop_assert_eq!(&par.pack(&requests), &pack0);
            prop_assert_eq!(&par.dispatch_passenger_optimal(&taxis, &requests), &p0);
            prop_assert_eq!(&par.dispatch_taxi_optimal(&taxis, &requests), &t0);
        }
    }

    #[test]
    fn distance_cache_changes_nothing(
        seed in any::<u64>(), nt in 1usize..8, nr in 2usize..10,
    ) {
        let (taxis, requests) = random_frame(seed, nt, nr);
        let params = PreferenceParams::unbounded().with_detour_threshold(2.5);
        let plain = SharingDispatcher::new(Euclidean, params);
        let cached = SharingDispatcher::new(DistanceCache::new(Euclidean), params)
            .with_parallelism(Parallelism::fixed(4));
        prop_assert_eq!(
            &cached.dispatch_passenger_optimal(&taxis, &requests),
            &plain.dispatch_passenger_optimal(&taxis, &requests)
        );
        // The cache really deduplicated queries (same pair asked twice).
        let stats = cached.metric().stats();
        prop_assert!(stats.hits > 0 || requests.len() < 2);
    }
}

/// The matrix the simulator precomputes is exactly the metric's answers.
#[test]
fn pickup_distances_match_metric() {
    let (taxis, requests) = random_frame(99, 7, 11);
    for threads in [1, 2, 4] {
        let pd =
            PickupDistances::compute(&Euclidean, &taxis, &requests, Parallelism::fixed(threads));
        assert_eq!(pd.shape(), (11, 7));
        for (j, r) in requests.iter().enumerate() {
            for (i, t) in taxis.iter().enumerate() {
                assert_eq!(pd.get(j, i), Euclidean.distance(t.location, r.pickup));
            }
        }
    }
}
