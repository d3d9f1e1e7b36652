//! Warm ≡ cold: incremental dispatch must not change a single bit.
//!
//! `NonSharingDispatcher::dispatch` builds each frame's candidate rows from
//! the stability certificate of the last solved frame (kept across frames
//! by `IncrementalState`) and runs keyed deferred acceptance on them.
//! Correctness never rests on the frames being related: a request skips a
//! taxi only when the certified frame held both unchanged — same id,
//! bit-identical positions, same party and seats — and left both
//! unmatched, which stability rules out as a pair; every other taxi is
//! re-tested and every other request built fresh. So any frame delta —
//! taxis moving, leaving or joining the idle set, requests served, expired
//! or newly arrived, matched pairs left in place — yields schedules, and
//! proposal counts, bit-identical to a cold start (a fresh state), at every
//! threshold setting, and both equal the dense reference
//! (`CandidateMode::Dense`). `tests/row_certificate.rs` rolls frames that
//! apply their schedules, as the dispatch loop does.

use o2o_core::{
    CandidateMode, IncrementalState, NonSharingDispatcher, PreferenceParams, Proposing, Schedule,
    TimeBudget,
};
use o2o_geo::{Euclidean, Point};
use o2o_obs as obs;
use o2o_trace::{Request, RequestId, Taxi, TaxiId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One rolling run: a sequence of frames where each frame is a random
/// delta of the previous one (taxi moves/leaves/joins, request
/// removals/arrivals), precomputed so every params setting replays the
/// identical sequence.
fn rolling_frames(
    seed: u64,
    frames: usize,
    span: f64,
    churn: f64,
) -> Vec<(Vec<Taxi>, Vec<Request>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let point =
        |rng: &mut StdRng| Point::new(rng.gen_range(-span..span), rng.gen_range(-span..span));
    let nt = rng.gen_range(1..14);
    let nr = rng.gen_range(1..16);
    let mut taxis: Vec<Taxi> = (0..nt)
        .map(|i| {
            let mut t = Taxi::new(TaxiId(i as u64), point(&mut rng));
            t.seats = rng.gen_range(1..=4);
            t
        })
        .collect();
    let mut next_taxi_id = nt as u64;
    let mut next_request_id = 0u64;
    let new_request = |rng: &mut StdRng, id: &mut u64| {
        let mut r = Request::new(RequestId(*id), 0, point(rng), point(rng));
        *id += 1;
        r.passengers = rng.gen_range(1..=3);
        r
    };
    let mut requests: Vec<Request> = (0..nr)
        .map(|_| new_request(&mut rng, &mut next_request_id))
        .collect();

    let mut out = Vec::with_capacity(frames);
    for _ in 0..frames {
        out.push((taxis.clone(), requests.clone()));
        // Taxi delta: each idle taxi may move (drop-off elsewhere) or be
        // dispatched away; occasionally a taxi re-enters the idle set.
        let mut kept = Vec::with_capacity(taxis.len());
        for mut t in taxis.drain(..) {
            if rng.gen_bool(churn) {
                if rng.gen_bool(0.5) {
                    t.location = point(&mut rng);
                    kept.push(t);
                }
            } else {
                kept.push(t);
            }
        }
        if rng.gen_bool(churn.max(0.1)) {
            let mut t = Taxi::new(TaxiId(next_taxi_id), point(&mut rng));
            next_taxi_id += 1;
            t.seats = rng.gen_range(1..=4);
            kept.push(t);
        }
        taxis = kept;
        // Request delta: some are served/expired, some arrive.
        requests.retain(|_| !rng.gen_bool(churn));
        let arrivals = rng.gen_range(0..3);
        for _ in 0..arrivals {
            requests.push(new_request(&mut rng, &mut next_request_id));
        }
    }
    out
}

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

/// One frame on `state` with `side` proposing and an unlimited budget.
fn dispatch(
    d: &NonSharingDispatcher<Euclidean>,
    frame: &(Vec<Taxi>, Vec<Request>),
    state: &mut IncrementalState,
    side: Proposing,
) -> Schedule {
    let unlimited = TimeBudget::unlimited();
    let (taxis, requests) = frame;
    d.dispatch(taxis, requests, None, None, state, side, &unlimited)
        .0
}

const SIDES: [Proposing; 2] = [Proposing::Rows, Proposing::Columns];

/// Runs `f` on a scoped recorder and returns its result with the
/// `(match.proposals, match.rejections)` it recorded.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let rec = obs::Recorder::new();
    let out = {
        let _scope = obs::scope(&rec);
        f()
    };
    (
        out,
        (
            rec.counter("match.proposals"),
            rec.counter("match.rejections"),
        ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// NSTD-P and NSTD-T across randomized frame deltas are bit-identical
    /// to cold starts — schedules and proposal counts — for every
    /// threshold setting.
    #[test]
    fn warm_dispatch_matches_cold_across_frame_deltas(
        seed in any::<u64>(), churn_pct in 0u32..=60,
    ) {
        let frames = rolling_frames(seed, 6, 8.0, f64::from(churn_pct) / 100.0);
        for params in param_grid() {
            let d = NonSharingDispatcher::new(Euclidean, params);
            for side in SIDES {
                let mut state = IncrementalState::new();
                for frame in &frames {
                    let (warm, warm_counts) = counted(|| dispatch(&d, frame, &mut state, side));
                    let (cold, cold_counts) =
                        counted(|| dispatch(&d, frame, &mut IncrementalState::new(), side));
                    prop_assert_eq!(&warm, &cold, "{:?}", side);
                    prop_assert_eq!(warm_counts, cold_counts, "{:?} counters", side);
                }
            }
        }
    }

    /// The certificate holds which requests and taxis were matched, not
    /// the matching: one state may serve both proposing sides in turn,
    /// and clearing it mid-run (a cold restart) changes nothing.
    #[test]
    fn carry_serves_both_sides_and_clear_is_harmless(seed in any::<u64>()) {
        let frames = rolling_frames(seed, 5, 8.0, 0.3);
        let d = NonSharingDispatcher::new(Euclidean, PreferenceParams::paper());
        let mut state = IncrementalState::new();
        for (k, frame) in frames.iter().enumerate() {
            if k == 2 {
                state.clear();
            }
            let side = SIDES[k % 2];
            let cold = dispatch(&d, frame, &mut IncrementalState::new(), side);
            prop_assert_eq!(&dispatch(&d, frame, &mut state, side), &cold);
        }
    }

    /// Dense mode as the cross-check: the warm sparse path (NSTD-P and
    /// NSTD-T) agrees with the dense reference frame by frame, for every
    /// threshold setting.
    #[test]
    fn warm_sparse_matches_dense_cold(seed in any::<u64>(), churn_pct in 0u32..=40) {
        let frames = rolling_frames(seed, 6, 8.0, f64::from(churn_pct) / 100.0);
        for params in param_grid() {
            let sparse = NonSharingDispatcher::new(Euclidean, params);
            let dense = NonSharingDispatcher::new(Euclidean, params)
                .with_candidate_mode(CandidateMode::Dense);
            for side in SIDES {
                let mut state = IncrementalState::new();
                for frame in &frames {
                    prop_assert_eq!(
                        &dispatch(&sparse, frame, &mut state, side),
                        &dispatch(&dense, frame, &mut IncrementalState::new(), side)
                    );
                }
            }
        }
    }
}
