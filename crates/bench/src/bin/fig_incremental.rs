//! Incremental cross-frame dispatch vs a cold start every frame.
//!
//! Replays rolling frame sequences of a dispatch loop — a fixed fleet
//! whose matched taxis leave the idle set and come back at their
//! passengers' drop-offs, whose served requests leave the queue, and
//! whose idle taxis and waiting requests also turn over at a swept churn
//! rate — through two arms over a road-network metric:
//!
//! * **cold**: every frame clears the distance cache, rebuilds the
//!   idle-taxi grid from scratch and runs `NonSharingDispatcher::dispatch`
//!   on a fresh `IncrementalState`, so every request walks the grid and
//!   queries the metric for every taxi near it;
//! * **warm** (the production pipeline): the distance cache is cleared
//!   and the grid rebuilt per frame as in the cold arm, but the state is
//!   carried: a request the previous frame left unchanged and unmatched
//!   tests only the taxis that are new, moved or were matched — the
//!   stability certificate — instead of walking the grid and querying
//!   the metric.
//!
//! Both arms solve the rows with keyed deferred acceptance.
//!
//! Each frame applies its schedule as the engine does, so the sequence
//! is generated by dispatching it once (the cold arm's schedules, which
//! the warm arm must reproduce). Every frame of every row first asserts
//! the warm schedule **equal** to the cold one — the speedup is exact,
//! not approximate. Reported per row: frame-loop wall-clock for both
//! arms, the speedup, and both arms' metric query counts.
//!
//! Output: `results/BENCH_incremental.json`.

use o2o_bench::{bench_envelope, emit_bench_json, ExperimentOpts, Json};
use o2o_core::{
    build_taxi_grid, IncrementalState, NonSharingDispatcher, PreferenceParams, Proposing,
    TimeBudget,
};
use o2o_geo::{DistanceCache, Point, RoadNetwork};
use o2o_trace::{Request, RequestId, Taxi, TaxiId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// A rolling dispatch loop of `frames` frames over a fleet of `n_taxis`
/// and a queue refilled to `n_requests`. Each frame is dispatched with
/// NSTD-P on `d` and its schedule applied: matched taxis leave the idle
/// set for two to five frames and return at the drop-off, served requests
/// leave the queue. Then every idle taxi relocates with probability
/// `churn`, every waiting request is replaced by a fresh arrival with
/// probability `churn`, and new arrivals refill the queue.
fn rolling_frames(
    d: &NonSharingDispatcher<Cache>,
    seed: u64,
    frames: usize,
    n_taxis: usize,
    n_requests: usize,
    side: f64,
    churn: f64,
) -> Vec<(Vec<Taxi>, Vec<Request>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pt = |rng: &mut StdRng| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
    let mut idle: Vec<Taxi> = (0..n_taxis)
        .map(|i| Taxi::new(TaxiId(i as u64), pt(&mut rng)))
        .collect();
    let mut busy: Vec<(usize, Taxi)> = Vec::new();
    let mut next_id = 0u64;
    let mut new_request = |rng: &mut StdRng| {
        let pickup = pt(rng);
        let len = rng.gen_range(1.0..6.0);
        let angle = rng.gen_range(0.0..std::f64::consts::TAU);
        let dropoff = Point::new(pickup.x + len * angle.cos(), pickup.y + len * angle.sin());
        next_id += 1;
        Request::new(RequestId(next_id - 1), 0, pickup, dropoff)
    };
    let mut pending: Vec<Request> = (0..n_requests).map(|_| new_request(&mut rng)).collect();

    let mut out = Vec::with_capacity(frames);
    for _ in 0..frames {
        let schedule = d.passenger_optimal(&idle, &pending);
        out.push((idle.clone(), pending.clone()));
        // Apply the schedule; busy taxis count down and come back.
        let mut kept = Vec::with_capacity(idle.len());
        for mut t in idle.drain(..) {
            match schedule.request_of(t.id) {
                Some(rid) => {
                    let r = pending.iter().find(|r| r.id == rid).expect("pending");
                    t.location = r.dropoff;
                    busy.push((rng.gen_range(2..6), t));
                }
                None => kept.push(t),
            }
        }
        pending.retain(|r| schedule.assignment_of(r.id).taxi().is_none());
        busy.retain_mut(|(left, t)| {
            *left -= 1;
            if *left == 0 {
                kept.push(*t);
            }
            *left > 0
        });
        idle = kept;
        for t in &mut idle {
            if rng.gen_bool(churn) {
                t.location = pt(&mut rng);
            }
        }
        for r in &mut pending {
            if rng.gen_bool(churn) {
                *r = new_request(&mut rng);
            }
        }
        while pending.len() < n_requests {
            pending.push(new_request(&mut rng));
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

/// One arm: per-frame cache clear, fresh grid, NSTD-P through
/// `dispatch` with the state carried across frames (`warm`) or fresh each
/// frame. Returns the schedules and the total metric queries issued (warm,
/// a request left unchanged and unmatched queries only the taxis that are
/// new, moved or were matched, and reuses its trip).
fn run(
    net: &Arc<RoadNetwork>,
    params: PreferenceParams,
    frames: &[(Vec<Taxi>, Vec<Request>)],
    warm: bool,
) -> (Vec<o2o_core::Schedule>, u64) {
    let (cache, d) = fresh_arm(net, params);
    let unlimited = TimeBudget::unlimited();
    let mut state = IncrementalState::new();
    let out = frames
        .iter()
        .map(|(taxis, requests)| {
            cache.clear();
            if !warm {
                state = IncrementalState::new();
            }
            let grid = build_taxi_grid(taxis);
            let rows = Proposing::Rows;
            d.dispatch(
                taxis,
                requests,
                Some(&grid),
                None,
                &mut state,
                rows,
                &unlimited,
            )
            .0
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
            // A synthetic street grid, rebuilt per row so its internal
            // shortest-path memo starts identically for every row; road
            // distances make every cache miss pay a genuine query, as in
            // the trace-driven figures.
            let net = Arc::new(RoadNetwork::grid(25, 25, side / 24.0));
            let seq = {
                let (_, d) = fresh_arm(&net, params);
                rolling_frames(&d, seed, frames, n_taxis, n_requests, side, churn)
            };
            let net = Arc::new(RoadNetwork::grid(25, 25, side / 24.0));

            // Exactness first: the warm pipeline must be bit-identical to
            // the cold one on every frame.
            let (cold_schedules, cold_queries) = run(&net, params, &seq, false);
            let (warm_schedules, warm_queries) = run(&net, params, &seq, true);
            assert_eq!(
                warm_schedules, cold_schedules,
                "warm diverged from cold at frames={frames} churn={churn}"
            );

            let ((cold_min, cold_med), (warm_min, warm_med)) = time_pair_ms(
                5,
                || {
                    std::hint::black_box(run(&net, params, &seq, false));
                },
                || {
                    std::hint::black_box(run(&net, params, &seq, true));
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
