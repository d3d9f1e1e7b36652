//! Incremental cross-frame dispatch vs the cold per-frame pipeline.
//!
//! Replays rolling frame sequences — a fixed fleet whose taxis relocate
//! and whose requests turn over at a swept churn rate — through two
//! arms over a road-network metric:
//!
//! * **cold** (the previous pipeline): every frame clears the distance
//!   cache, rebuilds the idle-taxi grid from scratch and runs deferred
//!   acceptance cold;
//! * **warm** (the incremental pipeline): the distance cache is cleared
//!   and the grid rebuilt per frame as in the cold arm, unchanged
//!   requests patch their candidate rows from the previous frame instead
//!   of re-querying grid and metric, and keyed deferred acceptance runs
//!   on those rows directly (no rank tables).
//!
//! Every frame of every row first asserts the warm schedule **equal** to
//! the cold one — the speedup is exact, not approximate. Reported per
//! row: frame-loop wall-clock for both arms, the speedup, and both arms'
//! metric query counts.
//!
//! Output: `results/BENCH_incremental.json`.

use o2o_bench::{bench_envelope, emit_bench_json, ExperimentOpts, Json};
use o2o_core::{build_taxi_grid, IncrementalState, NonSharingDispatcher, PreferenceParams};
use o2o_geo::{DistanceCache, Point, RoadNetwork};
use o2o_trace::{Request, RequestId, Taxi, TaxiId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// A rolling frame sequence: each frame, every taxi relocates with
/// probability `churn` (dispatched away and returned elsewhere) and every
/// request is replaced by a fresh arrival with probability `churn`
/// (served; a new passenger appears). At churn 0 everything is
/// stationary; at churn 1 every frame is brand new.
fn rolling_frames(
    seed: u64,
    frames: usize,
    n_taxis: usize,
    n_requests: usize,
    side: f64,
    churn: f64,
) -> Vec<(Vec<Taxi>, Vec<Request>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pt = |rng: &mut StdRng| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
    let mut taxis: Vec<Taxi> = (0..n_taxis)
        .map(|i| Taxi::new(TaxiId(i as u64), pt(&mut rng)))
        .collect();
    let mut next_id = n_requests as u64;
    let new_request = |rng: &mut StdRng, id: u64| {
        let pickup = pt(rng);
        let len = rng.gen_range(1.0..6.0);
        let angle = rng.gen_range(0.0..std::f64::consts::TAU);
        let dropoff = Point::new(pickup.x + len * angle.cos(), pickup.y + len * angle.sin());
        Request::new(RequestId(id), 0, pickup, dropoff)
    };
    let mut requests: Vec<Request> = (0..n_requests as u64)
        .map(|j| new_request(&mut rng, j))
        .collect();

    let mut out = Vec::with_capacity(frames);
    for _ in 0..frames {
        out.push((taxis.clone(), requests.clone()));
        for t in &mut taxis {
            if rng.gen_bool(churn) {
                t.location = pt(&mut rng);
            }
        }
        for r in &mut requests {
            if rng.gen_bool(churn) {
                *r = new_request(&mut rng, next_id);
                next_id += 1;
            }
        }
    }
    out
}

type Cache = Arc<DistanceCache<Arc<RoadNetwork>>>;

fn fresh_arm(
    net: &Arc<RoadNetwork>,
    params: PreferenceParams,
) -> (Cache, NonSharingDispatcher<Cache>) {
    let cache = Arc::new(DistanceCache::new(Arc::clone(net)));
    let d = NonSharingDispatcher::new(Arc::clone(&cache), params);
    (cache, d)
}

/// The previous pipeline: per-frame cache clear, fresh grid, cold DA.
/// Returns the schedules and the total metric queries issued.
fn run_cold(
    net: &Arc<RoadNetwork>,
    params: PreferenceParams,
    frames: &[(Vec<Taxi>, Vec<Request>)],
) -> (Vec<o2o_core::Schedule>, u64) {
    let (cache, d) = fresh_arm(net, params);
    let out = frames
        .iter()
        .map(|(taxis, requests)| {
            cache.clear();
            let grid = build_taxi_grid(taxis);
            d.passenger_optimal_with_grid(taxis, requests, Some(&grid))
        })
        .collect();
    let stats = cache.stats();
    (out, stats.hits + stats.misses)
}

/// The incremental pipeline: per-frame cache clear, fresh grid,
/// carried candidate rows, keyed DA. Returns the schedules and the total
/// metric queries issued (the carry answers unchanged pairs from the
/// previous frame's rows without touching the metric at all).
fn run_warm(
    net: &Arc<RoadNetwork>,
    params: PreferenceParams,
    frames: &[(Vec<Taxi>, Vec<Request>)],
) -> (Vec<o2o_core::Schedule>, u64) {
    let (cache, d) = fresh_arm(net, params);
    let mut state = IncrementalState::new();
    let out = frames
        .iter()
        .map(|(taxis, requests)| {
            cache.clear();
            let grid = build_taxi_grid(taxis);
            d.passenger_optimal_incremental(taxis, requests, Some(&grid), &mut state)
        })
        .collect();
    let stats = cache.stats();
    (out, stats.hits + stats.misses)
}

/// Times `a` and `b` interleaved (a, b, a, b, …) so slow phases of a
/// shared machine hit both arms alike; returns each arm's
/// `(min, median)` in milliseconds.
fn time_pair_ms(reps: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> ((f64, f64), (f64, f64)) {
    let mut sa = Vec::with_capacity(reps);
    let mut sb = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        a();
        sa.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        b();
        sb.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let summarize = |s: &mut Vec<f64>| {
        s.sort_by(|x, y| x.partial_cmp(y).expect("finite timings"));
        (s[0], s[s.len() / 2])
    };
    (summarize(&mut sa), summarize(&mut sb))
}

fn main() {
    let opts = ExperimentOpts::from_args(1.0);
    let n_taxis = (250.0 * opts.scale) as usize;
    let n_requests = (200.0 * opts.scale) as usize;
    let side = 18.0;
    let params = opts.params;

    let frame_counts = [20usize, 40];
    let churns = [0.0f64, 0.05, 0.10, 0.25, 0.50];

    println!(
        "{:>7} {:>7} {:>9} {:>9} {:>12} {:>12} {:>8} {:>9}",
        "frames", "churn", "q_cold", "q_warm", "cold_ms", "warm_ms", "speedup", "exact"
    );
    let mut rows = Vec::new();
    for (fi, &frames) in frame_counts.iter().enumerate() {
        for (ci, &churn) in churns.iter().enumerate() {
            let seed = opts.seed.wrapping_add((fi * churns.len() + ci) as u64);
            let seq = rolling_frames(seed, frames, n_taxis, n_requests, side, churn);
            // A synthetic street grid, rebuilt per row so its internal
            // shortest-path memo starts identically for every row; road
            // distances make every cache miss pay a genuine query, as in
            // the trace-driven figures.
            let net = Arc::new(RoadNetwork::grid(25, 25, side / 24.0));

            // Exactness first: the warm pipeline must be bit-identical to
            // the cold one on every frame.
            let (cold_schedules, cold_queries) = run_cold(&net, params, &seq);
            let (warm_schedules, warm_queries) = run_warm(&net, params, &seq);
            assert_eq!(
                warm_schedules, cold_schedules,
                "warm diverged from cold at frames={frames} churn={churn}"
            );

            let ((cold_min, cold_med), (warm_min, warm_med)) = time_pair_ms(
                5,
                || {
                    std::hint::black_box(run_cold(&net, params, &seq));
                },
                || {
                    std::hint::black_box(run_warm(&net, params, &seq));
                },
            );
            let speedup = cold_min / warm_min;
            println!(
                "{frames:>7} {churn:>7.2} {cold_queries:>9} {warm_queries:>9} \
                 {cold_min:>12.2} {warm_min:>12.2} {speedup:>8.2} {:>9}",
                "yes"
            );
            rows.push(Json::obj(vec![
                ("frames", frames.into()),
                ("churn", churn.into()),
                ("n_taxis", n_taxis.into()),
                ("n_requests", n_requests.into()),
                ("cold_queries", cold_queries.into()),
                ("warm_queries", warm_queries.into()),
                ("cold_ms_min", cold_min.into()),
                ("cold_ms_median", cold_med.into()),
                ("warm_ms_min", warm_min.into()),
                ("warm_ms_median", warm_med.into()),
                ("speedup_min", speedup.into()),
                ("schedules_match", true.into()),
            ]));
        }
    }

    emit_bench_json(
        "incremental",
        &bench_envelope("incremental", &opts, vec![("rows", Json::Arr(rows))]),
    );
}
