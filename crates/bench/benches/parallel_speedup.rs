//! Sequential vs parallel dispatch pipeline, plus distance caching.
//!
//! Measures the two parallelized stages — the engine's pick-up matrix and
//! Algorithm 3's stage 1 — at `threads = 1, 2, 4` over the same frame — results are bit-identical across thread counts, so the
//! only thing compared is wall-clock — and the per-frame distance cache
//! over an artificially expensive metric (standing in for a road-network
//! shortest-path query). Speedups are derived from the medians and
//! written to `results/BENCH_parallel_speedup.json`; on a single-core
//! machine expect ratios near 1.0 for threads and > 1 for the cache.

use criterion::{BenchmarkId, Criterion};
use o2o_bench::{emit_bench_json, Json};
use o2o_core::{PickupDistances, PreferenceParams, SharingDispatcher};
use o2o_geo::{DistanceCache, Euclidean, Metric, Point};
use o2o_par::Parallelism;
use o2o_trace::{Request, RequestId, Taxi, TaxiId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREADS: [usize; 3] = [1, 2, 4];

fn random_frame(seed: u64, nt: usize, nr: usize) -> (Vec<Taxi>, Vec<Request>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let taxis = (0..nt)
        .map(|i| {
            Taxi::new(
                TaxiId(i as u64),
                Point::new(rng.gen_range(-7.0..7.0), rng.gen_range(-7.0..7.0)),
            )
        })
        .collect();
    let requests = (0..nr)
        .map(|j| {
            let s = Point::new(rng.gen_range(-7.0..7.0), rng.gen_range(-7.0..7.0));
            Request::new(
                RequestId(j as u64),
                0,
                s,
                Point::new(
                    s.x + rng.gen_range(-3.0..3.0),
                    s.y + rng.gen_range(-3.0..3.0),
                ),
            )
        })
        .collect();
    (taxis, requests)
}

/// A deliberately expensive metric: Euclidean, but integrated over many
/// segments — the cost profile of a shortest-path query without needing
/// a road graph in a micro-benchmark.
#[derive(Debug, Clone, Copy)]
struct ExpensiveMetric;

impl Metric for ExpensiveMetric {
    fn distance(&self, a: Point, b: Point) -> f64 {
        let steps = 64;
        let mut total = 0.0;
        let mut prev = a;
        for i in 1..=steps {
            let t = f64::from(i) / f64::from(steps);
            let p = Point::new(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t);
            total += prev.euclidean(p);
            prev = p;
        }
        total
    }
}

fn bench_pickup_matrix(c: &mut Criterion) {
    let (taxis, requests) = random_frame(22, 400, 400);
    let mut group = c.benchmark_group("pickup_matrix");
    group.sample_size(10);
    for threads in THREADS {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("threads_{threads}")),
            &Parallelism::fixed(threads),
            |b, &par| b.iter(|| PickupDistances::compute(&Euclidean, &taxis, &requests, par)),
        );
    }
    group.finish();
}

fn bench_sharing_stage1(c: &mut Criterion) {
    let (_, requests) = random_frame(23, 1, 150);
    let params = PreferenceParams::paper().with_detour_threshold(5.0);
    let mut group = c.benchmark_group("sharing_stage1");
    group.sample_size(10);
    for threads in THREADS {
        let d =
            SharingDispatcher::new(Euclidean, params).with_parallelism(Parallelism::fixed(threads));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("threads_{threads}")),
            &requests,
            |b, requests| b.iter(|| d.feasible_groups(requests)),
        );
    }
    group.finish();
}

fn bench_distance_cache(c: &mut Criterion) {
    let (taxis, requests) = random_frame(24, 20, 60);
    let params = PreferenceParams::paper().with_detour_threshold(5.0);
    let mut group = c.benchmark_group("distance_cache");
    group.sample_size(10);
    let plain = SharingDispatcher::new(ExpensiveMetric, params);
    group.bench_function("uncached", |b| {
        b.iter(|| plain.dispatch_passenger_optimal(&taxis, &requests))
    });
    let cached = SharingDispatcher::new(DistanceCache::new(ExpensiveMetric), params);
    group.bench_function("cached", |b| {
        b.iter(|| {
            // Cleared every iteration: each measured pass pays the same
            // cold-start a fresh frame would.
            cached.metric().clear();
            cached.dispatch_passenger_optimal(&taxis, &requests)
        })
    });
    group.finish();
}

/// `group/x` median in nanoseconds, if measured.
fn median_ns(c: &Criterion, key: &str) -> Option<f64> {
    c.results()
        .iter()
        .find(|(name, _)| name == key)
        .map(|(_, s)| s.median.as_nanos() as f64)
}

fn emit_results(c: &Criterion) {
    let measurements = Json::Obj(
        c.results()
            .iter()
            .map(|(name, s)| {
                (
                    name.clone(),
                    Json::obj(vec![
                        ("min_ns", (s.min.as_nanos() as f64).into()),
                        ("median_ns", (s.median.as_nanos() as f64).into()),
                        ("mean_ns", (s.mean.as_nanos() as f64).into()),
                    ]),
                )
            })
            .collect(),
    );
    // Speedups of each parallel configuration over its own sequential
    // baseline (median over median).
    let mut speedups = Vec::new();
    for group in ["pickup_matrix", "sharing_stage1"] {
        if let Some(base) = median_ns(c, &format!("{group}/threads_1")) {
            for threads in THREADS.iter().skip(1) {
                if let Some(par) = median_ns(c, &format!("{group}/threads_{threads}")) {
                    speedups.push((format!("{group}/threads_{threads}"), Json::Num(base / par)));
                }
            }
        }
    }
    if let (Some(plain), Some(cached)) = (
        median_ns(c, "distance_cache/uncached"),
        median_ns(c, "distance_cache/cached"),
    ) {
        speedups.push(("distance_cache".into(), Json::Num(plain / cached)));
    }
    let payload = Json::obj(vec![
        ("bench", "parallel_speedup".into()),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map(|n| Json::from(n.get()))
                .unwrap_or(Json::Null),
        ),
        ("measurements", measurements),
        ("speedup_vs_sequential", Json::Obj(speedups)),
    ]);
    emit_bench_json("parallel_speedup", &payload);
}

fn main() {
    let mut c = Criterion::default();
    bench_pickup_matrix(&mut c);
    bench_sharing_stage1(&mut c);
    bench_distance_cache(&mut c);
    emit_results(&c);
}
