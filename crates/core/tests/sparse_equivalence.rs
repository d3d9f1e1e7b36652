//! Sparse ≡ dense: threshold pruning must not change a single bit.
//!
//! The sparse candidate path (`SparsePreferenceModel`) enumerates only
//! taxis within `min(θ_p, θ_t + α·trip)` of each pick-up via the grid
//! index, instead of scoring the full |T|×|R| product. Every pair it
//! drops is *mutually unacceptable* — at least one side ranks the other
//! below its dummy partner — and such pairs are no-ops in deferred
//! acceptance and in BreakDispatch (Theorem 2, rural hospitals: the set
//! of matched agents is invariant across stable matchings, and an
//! unacceptable pair can never block). Costs on surviving pairs are
//! recomputed with the identical float expressions, so the dispatch
//! schedules must be **bit-identical**, at every thread count, for every
//! threshold setting.

use o2o_core::{
    build_taxi_grid, CandidateMode, IncrementalState, NonSharingDispatcher, PreferenceParams,
    SparsePreferenceModel,
};
use o2o_geo::{Euclidean, Point};
use o2o_par::Parallelism;
use o2o_trace::{Request, RequestId, Taxi, TaxiId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_frame(seed: u64, nt: usize, nr: usize, span: f64) -> (Vec<Taxi>, Vec<Request>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let taxis = (0..nt)
        .map(|i| {
            let mut t = Taxi::new(
                TaxiId(i as u64),
                Point::new(rng.gen_range(-span..span), rng.gen_range(-span..span)),
            );
            // Vary capacity so the seat filter participates too.
            t.seats = rng.gen_range(1..=4);
            t
        })
        .collect();
    let requests = (0..nr)
        .map(|j| {
            let mut r = Request::new(
                RequestId(j as u64),
                0,
                Point::new(rng.gen_range(-span..span), rng.gen_range(-span..span)),
                Point::new(rng.gen_range(-span..span), rng.gen_range(-span..span)),
            );
            r.passengers = rng.gen_range(1..=3);
            r
        })
        .collect();
    (taxis, requests)
}

/// Threshold settings swept by every test: the paper's calibration, a
/// tight pair that prunes aggressively, a taxi-side-only bound, and the
/// unbounded setting where the sparse path must degrade to dense.
fn param_grid() -> Vec<PreferenceParams> {
    vec![
        PreferenceParams::paper(),
        PreferenceParams::paper()
            .with_passenger_threshold(3.0)
            .with_taxi_threshold(0.5),
        PreferenceParams::unbounded().with_taxi_threshold(1.0),
        PreferenceParams::unbounded(),
    ]
}

const THREAD_COUNTS: [usize; 3] = [2, 4, 7];

/// A churned frame sequence from `random_frame`: between frames some
/// taxis move or leave, a fresh taxi may join, some requests leave and
/// new ones arrive — taxis stay in id order, as the engine keeps them.
fn churned_frames(seed: u64, frames: usize) -> Vec<(Vec<Taxi>, Vec<Request>)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00C4_0A2D);
    let nt = rng.gen_range(1..14);
    let nr = rng.gen_range(1..16);
    let (mut taxis, mut requests) = random_frame(seed, nt, nr, 8.0);
    let (mut next_taxi, mut next_request) = (nt as u64, nr as u64);
    let mut out = Vec::with_capacity(frames);
    for _ in 0..frames {
        out.push((taxis.clone(), requests.clone()));
        taxis.retain(|_| !rng.gen_bool(0.15));
        for t in &mut taxis {
            if rng.gen_bool(0.2) {
                t.location = Point::new(rng.gen_range(-8.0..8.0), rng.gen_range(-8.0..8.0));
            }
        }
        if rng.gen_bool(0.5) {
            let (mut joined, _) = random_frame(rng.gen(), 1, 0, 8.0);
            joined[0].id = TaxiId(next_taxi);
            next_taxi += 1;
            taxis.extend(joined);
        }
        requests.retain(|_| !rng.gen_bool(0.25));
        let (_, mut arrivals) = random_frame(rng.gen(), 0, rng.gen_range(0..4), 8.0);
        for r in &mut arrivals {
            r.id = RequestId(next_request);
            next_request += 1;
        }
        requests.extend(arrivals);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// NSTD-P and NSTD-T produce bit-identical schedules under
    /// `CandidateMode::Sparse`, across thresholds and thread counts.
    #[test]
    fn sparse_dispatch_matches_dense(
        seed in any::<u64>(), nt in 1usize..14, nr in 1usize..16,
    ) {
        let (taxis, requests) = random_frame(seed, nt, nr, 8.0);
        for params in param_grid() {
            let dense = NonSharingDispatcher::new(Euclidean, params)
                .with_candidate_mode(CandidateMode::Dense);
            let p0 = dense.passenger_optimal(&taxis, &requests);
            let t0 = dense.taxi_optimal(&taxis, &requests);
            let sparse_seq = NonSharingDispatcher::new(Euclidean, params)
                .with_candidate_mode(CandidateMode::Sparse);
            prop_assert_eq!(&sparse_seq.passenger_optimal(&taxis, &requests), &p0);
            prop_assert_eq!(&sparse_seq.taxi_optimal(&taxis, &requests), &t0);
            for threads in THREAD_COUNTS {
                let sparse = NonSharingDispatcher::new(Euclidean, params)
                    .with_candidate_mode(CandidateMode::Sparse)
                    .with_parallelism(Parallelism::fixed(threads));
                prop_assert_eq!(&sparse.passenger_optimal(&taxis, &requests), &p0);
                prop_assert_eq!(&sparse.taxi_optimal(&taxis, &requests), &t0);
            }
        }
    }

    /// A pre-built shared taxi grid (the simulator's per-frame reuse
    /// path) gives the same schedules as letting the dispatcher build
    /// its own.
    #[test]
    fn shared_grid_matches_owned_grid(
        seed in any::<u64>(), nt in 1usize..12, nr in 1usize..14,
    ) {
        let (taxis, requests) = random_frame(seed, nt, nr, 8.0);
        let grid = build_taxi_grid(&taxis);
        for params in param_grid() {
            let d = NonSharingDispatcher::new(Euclidean, params);
            let p0 = d.passenger_optimal(&taxis, &requests);
            let t0 = d.taxi_optimal(&taxis, &requests);
            prop_assert_eq!(
                &d.passenger_optimal_with_grid(&taxis, &requests, Some(&grid)), &p0
            );
            prop_assert_eq!(&d.taxi_optimal_with_grid(&taxis, &requests, Some(&grid)), &t0);
        }
    }

    /// The full stable set and the median matching — both computed via
    /// BreakDispatch on the sparse instance — agree with dense.
    #[test]
    fn sparse_stable_set_matches_dense(
        seed in any::<u64>(), nt in 1usize..8, nr in 1usize..10,
    ) {
        let (taxis, requests) = random_frame(seed, nt, nr, 6.0);
        for params in param_grid() {
            let dense = NonSharingDispatcher::new(Euclidean, params)
                .with_candidate_mode(CandidateMode::Dense);
            let sparse = NonSharingDispatcher::new(Euclidean, params)
                .with_candidate_mode(CandidateMode::Sparse);
            prop_assert_eq!(
                &sparse.all_schedules(&taxis, &requests, None),
                &dense.all_schedules(&taxis, &requests, None)
            );
            prop_assert_eq!(
                &sparse.median(&taxis, &requests, None),
                &dense.median(&taxis, &requests, None)
            );
        }
    }

    /// The production warm path — candidate rows from the previous
    /// frame's stability certificate, keyed deferred acceptance, a shared
    /// per-frame taxi grid — agrees with the dense cold reference over
    /// churned frame sequences, for NSTD-P and NSTD-T, across thresholds
    /// and thread counts.
    #[test]
    fn warm_path_matches_dense_over_churned_frames(seed in any::<u64>()) {
        let frames = churned_frames(seed, 6);
        for params in param_grid() {
            let dense = NonSharingDispatcher::new(Euclidean, params)
                .with_candidate_mode(CandidateMode::Dense);
            let parallelisms = std::iter::once(Parallelism::sequential())
                .chain(THREAD_COUNTS.iter().map(|&t| Parallelism::fixed(t)));
            for par in parallelisms {
                let warm = NonSharingDispatcher::new(Euclidean, params).with_parallelism(par);
                let mut p_state = IncrementalState::new();
                let mut t_state = IncrementalState::new();
                for (taxis, requests) in &frames {
                    let grid = build_taxi_grid(taxis);
                    prop_assert_eq!(
                        &warm.passenger_optimal_incremental(
                            taxis, requests, Some(&grid), &mut p_state
                        ),
                        &dense.passenger_optimal(taxis, requests)
                    );
                    prop_assert_eq!(
                        &warm.taxi_optimal_incremental(taxis, requests, Some(&grid), &mut t_state),
                        &dense.taxi_optimal(taxis, requests)
                    );
                }
            }
        }
    }

    /// The sparse preference model's lists are exactly the dense lists
    /// restricted to mutually acceptable pairs, with identical costs
    /// — at every thread count.
    #[test]
    fn sparse_model_is_thread_count_invariant(
        seed in any::<u64>(), nt in 1usize..12, nr in 1usize..14,
    ) {
        let (taxis, requests) = random_frame(seed, nt, nr, 8.0);
        for params in param_grid() {
            let seq = SparsePreferenceModel::build_with(
                &Euclidean, &params, &taxis, &requests, Parallelism::sequential(), None,
            );
            for threads in THREAD_COUNTS {
                let par = SparsePreferenceModel::build_with(
                    &Euclidean, &params, &taxis, &requests,
                    Parallelism::fixed(threads), None,
                );
                prop_assert_eq!(
                    par.instance.proposers(), seq.instance.proposers()
                );
                prop_assert_eq!(
                    par.instance.reviewers(), seq.instance.reviewers()
                );
                for j in 0..seq.instance.proposers() {
                    prop_assert_eq!(
                        par.instance.proposer_list(j), seq.instance.proposer_list(j)
                    );
                }
                for i in 0..seq.instance.reviewers() {
                    prop_assert_eq!(
                        par.instance.reviewer_list(i), seq.instance.reviewer_list(i)
                    );
                }
                prop_assert_eq!(&par.pickup_costs, &seq.pickup_costs);
                prop_assert_eq!(&par.score_costs, &seq.score_costs);
            }
        }
    }
}

/// Paper-scale thresholds over a wide city: sparse prunes hard (the
/// point of the exercise) and still agrees with dense exactly.
#[test]
fn sparse_matches_dense_at_paper_thresholds_wide_city() {
    let (taxis, requests) = random_frame(2017, 60, 80, 40.0);
    let params = PreferenceParams::paper();
    let dense = NonSharingDispatcher::new(Euclidean, params)
        .with_candidate_mode(CandidateMode::Dense)
        .with_parallelism(Parallelism::fixed(4));
    let sparse = NonSharingDispatcher::new(Euclidean, params)
        .with_candidate_mode(CandidateMode::Sparse)
        .with_parallelism(Parallelism::fixed(4));
    assert_eq!(
        sparse.passenger_optimal(&taxis, &requests),
        dense.passenger_optimal(&taxis, &requests)
    );
    assert_eq!(
        sparse.taxi_optimal(&taxis, &requests),
        dense.taxi_optimal(&taxis, &requests)
    );
    // The sweep is only meaningful if pruning actually happened.
    let spd = o2o_core::SparsePickupDistances::compute(
        &Euclidean,
        &params,
        &taxis,
        &requests,
        &build_taxi_grid(&taxis),
        Parallelism::sequential(),
    );
    assert!(
        spd.candidate_count() < taxis.len() * requests.len(),
        "expected pruning at paper thresholds over a 80×80 city"
    );
}
