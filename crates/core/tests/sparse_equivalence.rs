//! Sparse ≡ dense: threshold pruning must not change a single bit.
//!
//! `NonSharingDispatcher::dispatch` in `CandidateMode::Sparse` (the
//! production path) enumerates only taxis within `min(θ_p, θ_t + α·trip)`
//! of each pick-up via the grid index, keeps the mutually acceptable pairs
//! and solves them with keyed deferred acceptance, instead of scoring the
//! full |T|×|R| product into rank tables. Every pair it drops is
//! *mutually unacceptable* — at least one side ranks the other below its
//! dummy partner — and such pairs are no-ops in deferred acceptance (an
//! unacceptable pair can never block). Costs on surviving pairs are
//! computed with the identical float expressions, so the dispatch
//! schedules must be **bit-identical** to the dense reference
//! (`CandidateMode::Dense`) for every threshold setting, with a fresh
//! state and with the state carried across frames.

use o2o_core::{
    build_taxi_grid, CandidateMode, IncrementalState, NonSharingDispatcher, PickupDistances,
    PreferenceParams, Proposing, Schedule, TimeBudget,
};
use o2o_geo::{Euclidean, GridIndex, Point};
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

const SIDES: [Proposing; 2] = [Proposing::Rows, Proposing::Columns];

/// One frame with `side` proposing and an unlimited budget.
fn dispatch(
    d: &NonSharingDispatcher<Euclidean>,
    taxis: &[Taxi],
    requests: &[Request],
    grid: Option<&GridIndex<usize>>,
    pickup: Option<&PickupDistances>,
    state: &mut IncrementalState,
    side: Proposing,
) -> Schedule {
    let unlimited = TimeBudget::unlimited();
    d.dispatch(taxis, requests, grid, pickup, state, side, &unlimited)
        .0
}

/// The dense reference schedule of one frame.
fn dense_reference(
    params: PreferenceParams,
    taxis: &[Taxi],
    requests: &[Request],
    side: Proposing,
) -> Schedule {
    let dense =
        NonSharingDispatcher::new(Euclidean, params).with_candidate_mode(CandidateMode::Dense);
    dispatch(
        &dense,
        taxis,
        requests,
        None,
        None,
        &mut IncrementalState::new(),
        side,
    )
}

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

    /// NSTD-P and NSTD-T on a fresh state produce the dense reference's
    /// schedules, across thresholds, whether the dispatcher builds its
    /// own taxi grid or reuses the engine's; and the dense path gives the
    /// same schedules from the engine's precomputed pick-up matrix.
    #[test]
    fn sparse_dispatch_matches_dense(
        seed in any::<u64>(), nt in 1usize..14, nr in 1usize..16,
    ) {
        let (taxis, requests) = random_frame(seed, nt, nr, 8.0);
        let grid = build_taxi_grid(&taxis);
        let pickup = PickupDistances::compute(&Euclidean, &taxis, &requests, Parallelism::sequential());
        for params in param_grid() {
            let sparse = NonSharingDispatcher::new(Euclidean, params);
            let dense = NonSharingDispatcher::new(Euclidean, params)
                .with_candidate_mode(CandidateMode::Dense);
            for side in SIDES {
                let want = dense_reference(params, &taxis, &requests, side);
                for shared in [None, Some(&grid)] {
                    let mut fresh = IncrementalState::new();
                    prop_assert_eq!(
                        &dispatch(&sparse, &taxis, &requests, shared, None, &mut fresh, side),
                        &want
                    );
                }
                let mut unused = IncrementalState::new();
                prop_assert_eq!(
                    &dispatch(&dense, &taxis, &requests, None, Some(&pickup), &mut unused, side),
                    &want
                );
                let one_shot = match side {
                    Proposing::Rows => sparse.passenger_optimal(&taxis, &requests),
                    Proposing::Columns => sparse.taxi_optimal(&taxis, &requests),
                };
                prop_assert_eq!(&one_shot, &want);
            }
        }
    }

    /// The production path — candidate rows from the previous frame's
    /// stability certificate, keyed deferred acceptance, a shared
    /// per-frame taxi grid — agrees with the dense reference over churned
    /// frame sequences, for NSTD-P and NSTD-T, across thresholds.
    #[test]
    fn warm_path_matches_dense_over_churned_frames(seed in any::<u64>()) {
        let frames = churned_frames(seed, 6);
        for params in param_grid() {
            let warm = NonSharingDispatcher::new(Euclidean, params);
            for side in SIDES {
                let mut state = IncrementalState::new();
                for (taxis, requests) in &frames {
                    let grid = build_taxi_grid(taxis);
                    prop_assert_eq!(
                        &dispatch(&warm, taxis, requests, Some(&grid), None, &mut state, side),
                        &dense_reference(params, taxis, requests, side)
                    );
                }
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
    let sparse = NonSharingDispatcher::new(Euclidean, params);
    assert_eq!(
        sparse.passenger_optimal(&taxis, &requests),
        dense_reference(params, &taxis, &requests, Proposing::Rows)
    );
    assert_eq!(
        sparse.taxi_optimal(&taxis, &requests),
        dense_reference(params, &taxis, &requests, Proposing::Columns)
    );
    // The sweep is only meaningful if pruning actually happened.
    let spd = o2o_core::SparsePickupDistances::compute(
        &Euclidean,
        &params,
        &taxis,
        &requests,
        &build_taxi_grid(&taxis),
    );
    assert!(
        spd.candidate_count() < taxis.len() * requests.len(),
        "expected pruning at paper thresholds over a 80×80 city"
    );
}
