//! Sparse vs dense candidate generation: frame-dispatch wall-clock as
//! instance size and threshold density grow.
//!
//! Sweeps |T| × |R| frames at constant city density (the area grows with
//! the fleet, as it does when a trace is scaled up), across three dummy
//! threshold settings. For every point the sparse schedule is asserted
//! **equal** to the dense one — the speedup is exact, not approximate —
//! and the pruning ratio (surviving candidate pairs / |T|·|R|) is
//! reported alongside min/median timings.
//!
//! Output: `results/BENCH_sparse_scaling.json`.

use o2o_bench::{bench_envelope, emit_bench_json, ExperimentOpts, Json};
use o2o_core::{
    build_taxi_grid, CandidateMode, NonSharingDispatcher, PreferenceParams, SparsePickupDistances,
};
use o2o_geo::{Euclidean, Point};
use o2o_trace::{Request, RequestId, Taxi, TaxiId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// One frame: `n` taxis and `m` requests uniform over a square city
/// whose side keeps taxi density constant as `n` grows (20 km at 250
/// taxis). Trips are urban-length (1–6 km straight-line, like the
/// paper's traces) rather than corner-to-corner: the taxi-side dummy
/// bound `θ_t + α·trip` only prunes when trips are short, exactly as in
/// the real workload.
fn frame(seed: u64, n: usize, m: usize) -> (Vec<Taxi>, Vec<Request>, f64) {
    let side = 20.0 * (n as f64 / 250.0).sqrt();
    let mut rng = StdRng::seed_from_u64(seed);
    let pt = |rng: &mut StdRng| {
        Point::new(
            rng.gen_range(-side / 2.0..side / 2.0),
            rng.gen_range(-side / 2.0..side / 2.0),
        )
    };
    let taxis = (0..n)
        .map(|i| Taxi::new(TaxiId(i as u64), pt(&mut rng)))
        .collect();
    let requests = (0..m)
        .map(|j| {
            let pickup = pt(&mut rng);
            let len = rng.gen_range(1.0..6.0);
            let angle = rng.gen_range(0.0..std::f64::consts::TAU);
            let dropoff = Point::new(pickup.x + len * angle.cos(), pickup.y + len * angle.sin());
            Request::new(RequestId(j as u64), 0, pickup, dropoff)
        })
        .collect();
    (taxis, requests, side)
}

fn time_ms(reps: usize, mut f: impl FnMut()) -> (f64, f64) {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    (samples[0], samples[samples.len() / 2])
}

fn main() {
    let opts = ExperimentOpts::from_args(1.0);
    let sizes = [(250, 250), (500, 500), (1000, 1000), (2000, 2000)];
    let thresholds = [
        ("paper", PreferenceParams::paper()),
        (
            "tight",
            PreferenceParams::paper()
                .with_passenger_threshold(5.0)
                .with_taxi_threshold(1.0),
        ),
        (
            "wide",
            PreferenceParams::paper()
                .with_passenger_threshold(40.0)
                .with_taxi_threshold(10.0),
        ),
    ];

    println!(
        "{:>6} {:>6} {:>7} {:>7} {:>10} {:>12} {:>12} {:>8}",
        "|T|", "|R|", "thresh", "city_km", "pairs_kept", "dense_ms", "sparse_ms", "speedup"
    );
    let mut rows = Vec::new();
    for (ci, &(n, m)) in sizes.iter().enumerate() {
        let (taxis, requests, side) = frame(opts.seed.wrapping_add(ci as u64), n, m);
        for (label, params) in thresholds {
            let dense = NonSharingDispatcher::new(Euclidean, params)
                .with_candidate_mode(CandidateMode::Dense);
            let sparse = NonSharingDispatcher::new(Euclidean, params)
                .with_candidate_mode(CandidateMode::Sparse);

            // Exactness first: both NSTD variants, bit for bit.
            let p_dense = dense.passenger_optimal(&taxis, &requests);
            assert_eq!(
                sparse.passenger_optimal(&taxis, &requests),
                p_dense,
                "sparse NSTD-P diverged at {n}x{m}/{label}"
            );
            assert_eq!(
                sparse.taxi_optimal(&taxis, &requests),
                dense.taxi_optimal(&taxis, &requests),
                "sparse NSTD-T diverged at {n}x{m}/{label}"
            );

            let reps = if n >= 1000 { 3 } else { 5 };
            let (dense_min, dense_med) = time_ms(reps, || {
                std::hint::black_box(dense.passenger_optimal(&taxis, &requests));
            });
            let (sparse_min, sparse_med) = time_ms(reps, || {
                std::hint::black_box(sparse.passenger_optimal(&taxis, &requests));
            });

            let spd = SparsePickupDistances::compute(
                &Euclidean,
                &params,
                &taxis,
                &requests,
                &build_taxi_grid(&taxis),
            );
            let kept = spd.candidate_count();
            let pruning = kept as f64 / (n * m) as f64;
            let speedup = dense_min / sparse_min;
            println!(
                "{n:>6} {m:>6} {label:>7} {side:>7.1} {pruning:>10.4} {dense_min:>12.2} \
                 {sparse_min:>12.2} {speedup:>8.2}"
            );
            rows.push(Json::obj(vec![
                ("n_taxis", n.into()),
                ("n_requests", m.into()),
                ("thresholds", label.into()),
                ("passenger_threshold", params.passenger_threshold.into()),
                ("taxi_threshold", params.taxi_threshold.into()),
                ("city_km", side.into()),
                ("candidate_pairs", kept.into()),
                ("dense_pairs", (n * m).into()),
                ("pruning_ratio", pruning.into()),
                ("dense_ms_min", dense_min.into()),
                ("dense_ms_median", dense_med.into()),
                ("sparse_ms_min", sparse_min.into()),
                ("sparse_ms_median", sparse_med.into()),
                ("speedup_min", speedup.into()),
                ("schedules_match", true.into()),
            ]));
        }
    }

    emit_bench_json(
        "sparse_scaling",
        &bench_envelope("sparse_scaling", &opts, vec![("rows", Json::Arr(rows))]),
    );
}
