//! Hot-path pass: per-frame dispatch wall-clock for the flattened
//! pipeline (candidate rows from the stability certificate + keyed
//! deferred acceptance + batched distance kernels) against the cold
//! pipelines it replaced.
//!
//! Replays rolling frame sequences (fixed fleet, churned locations and
//! request turnover) at the paper's thresholds and measures each frame's
//! dispatch wall-clock — the quantity the engine reports as
//! `frame.dispatch_ms` — under three arms:
//!
//! * **dense_cold** — dense candidate generation, fresh grid, cold
//!   deferred acceptance every frame (the pre-sparse pipeline);
//! * **sparse_cold** — threshold-pruned candidates, fresh grid, cold
//!   deferred acceptance every frame;
//! * **hot** — threshold-pruned candidates over the batched distance
//!   kernel, fresh grid, rows built from the previous frame's stability
//!   certificate, keyed deferred acceptance on the flat candidate buffer
//!   (no rank tables). These frames do not apply their schedules, so a
//!   request matched in one frame is still pending in the next and
//!   builds a fresh row there.
//!
//! Every frame of every row first asserts all three schedules **equal**
//! — the speedup is exact, not approximate. Two further sections isolate
//! the matching layer (rank-table build + propose for the hashmap
//! reference, CSR and dense layouts on the same frame-derived lists) and
//! the anytime NSTD-T enumeration (measured optimality gap per node
//! budget, with the unlimited run asserted equal to `taxi_optimal`).
//!
//! Output: `results/BENCH_hot_path.json`.

use o2o_bench::{bench_envelope, emit_bench_json, ExperimentOpts, Json};
use o2o_core::{
    build_taxi_grid, CandidateMode, IncrementalState, NonSharingDispatcher, PreferenceParams,
};
use o2o_geo::{Euclidean, Metric, Point};
use o2o_matching::{MatchScratch, PreferenceError, StableInstance, TimeBudgetSpec};
use o2o_par::Parallelism;
use o2o_trace::{Request, RequestId, Taxi, TaxiId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Per-frame taxi relocation / request turnover probability.
const CHURN: f64 = 0.15;
/// Frames per rolling sequence.
const FRAMES: usize = 8;

/// One frame's policy-visible sets: the idle taxis and pending requests.
type Frame = (Vec<Taxi>, Vec<Request>);

/// A rolling frame sequence over a square city whose side keeps taxi
/// density constant as `n` grows (20 km at 250 taxis), as in the
/// sparse-scaling figure; trips are urban-length so the dummy bounds
/// prune exactly as in the real workload.
fn rolling_frames(seed: u64, n: usize, m: usize) -> (Vec<Frame>, f64) {
    let side = 20.0 * (n as f64 / 250.0).sqrt();
    let mut rng = StdRng::seed_from_u64(seed);
    let pt = |rng: &mut StdRng| {
        Point::new(
            rng.gen_range(-side / 2.0..side / 2.0),
            rng.gen_range(-side / 2.0..side / 2.0),
        )
    };
    let new_request = |rng: &mut StdRng, id: u64| {
        let pickup = pt(rng);
        let len = rng.gen_range(1.0..6.0);
        let angle = rng.gen_range(0.0..std::f64::consts::TAU);
        let dropoff = Point::new(pickup.x + len * angle.cos(), pickup.y + len * angle.sin());
        Request::new(RequestId(id), 0, pickup, dropoff)
    };
    let mut taxis: Vec<Taxi> = (0..n)
        .map(|i| Taxi::new(TaxiId(i as u64), pt(&mut rng)))
        .collect();
    let mut requests: Vec<Request> = (0..m as u64).map(|j| new_request(&mut rng, j)).collect();
    let mut next_id = m as u64;
    let mut out = Vec::with_capacity(FRAMES);
    for _ in 0..FRAMES {
        out.push((taxis.clone(), requests.clone()));
        for t in &mut taxis {
            if rng.gen_bool(CHURN) {
                t.location = pt(&mut rng);
            }
        }
        for r in &mut requests {
            if rng.gen_bool(CHURN) {
                *r = new_request(&mut rng, next_id);
                next_id += 1;
            }
        }
    }
    (out, side)
}

/// Runs a cold arm over the sequence, pushing one per-frame dispatch
/// time (ms) per frame into `samples`; returns the schedules.
fn run_cold(
    d: &NonSharingDispatcher<Euclidean>,
    seq: &[Frame],
    samples: &mut Vec<f64>,
) -> Vec<o2o_core::Schedule> {
    seq.iter()
        .map(|(taxis, requests)| {
            let t = Instant::now();
            let grid = build_taxi_grid(taxis);
            let s = d.passenger_optimal_with_grid(taxis, requests, Some(&grid));
            samples.push(t.elapsed().as_secs_f64() * 1e3);
            s
        })
        .collect()
}

/// Runs the hot arm (fresh grid, rows from the certificate, keyed
/// deferred acceptance) over the sequence; per-frame times into
/// `samples`.
fn run_hot(
    d: &NonSharingDispatcher<Euclidean>,
    seq: &[Frame],
    samples: &mut Vec<f64>,
) -> Vec<o2o_core::Schedule> {
    let mut state = IncrementalState::new();
    seq.iter()
        .map(|(taxis, requests)| {
            let t = Instant::now();
            let grid = build_taxi_grid(taxis);
            let s = d.passenger_optimal_incremental(taxis, requests, Some(&grid), &mut state);
            samples.push(t.elapsed().as_secs_f64() * 1e3);
            s
        })
        .collect()
}

fn summarize(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    (samples[0], samples[samples.len() / 2])
}

/// Frame-derived truncated preference lists mirroring the sparse
/// candidate model: a `(request, taxi)` pair is a candidate when the
/// pick-up distance clears the passenger threshold **and** the driver
/// score `d − α·trip` clears the taxi threshold (non-mutual pairs can
/// never match or block, so the dispatch path drops them too). Requests
/// rank candidates by distance, taxis by score. The same lists feed all
/// three rank-table layouts.
fn frame_lists(
    params: &PreferenceParams,
    taxis: &[Taxi],
    requests: &[Request],
) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let by_key = |mut v: Vec<(f64, usize)>| -> Vec<usize> {
        v.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)));
        v.into_iter().map(|(_, i)| i).collect()
    };
    let candidate = |r: &Request, t: &Taxi| -> Option<(f64, f64)> {
        let d = Euclidean.distance(r.pickup, t.location);
        let score = d - params.alpha * r.trip_distance(&Euclidean);
        (d <= params.passenger_threshold && score <= params.taxi_threshold).then_some((d, score))
    };
    let p_lists = requests
        .iter()
        .map(|r| {
            by_key(
                taxis
                    .iter()
                    .enumerate()
                    .filter_map(|(i, t)| candidate(r, t).map(|(d, _)| (d, i)))
                    .collect(),
            )
        })
        .collect();
    let r_lists = taxis
        .iter()
        .map(|t| {
            by_key(
                requests
                    .iter()
                    .enumerate()
                    .filter_map(|(j, r)| candidate(r, t).map(|(_, s)| (s, j)))
                    .collect(),
            )
        })
        .collect();
    (p_lists, r_lists)
}

fn main() {
    let opts = ExperimentOpts::from_args(1.0);
    let params = opts.params;
    let sizes = [(500, 500), (1000, 1000), (2000, 2000)];

    println!(
        "{:>6} {:>6} {:>7} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "|T|", "|R|", "city_km", "dense_ms", "sparse_ms", "hot_ms", "x_dense", "x_sparse"
    );
    let mut rows = Vec::new();
    for (ci, &(n0, m0)) in sizes.iter().enumerate() {
        let n = ((n0 as f64 * opts.scale).round() as usize).max(8);
        let m = ((m0 as f64 * opts.scale).round() as usize).max(8);
        let (seq, side) = rolling_frames(opts.seed.wrapping_add(ci as u64), n, m);
        let dense = NonSharingDispatcher::new(Euclidean, params)
            .with_candidate_mode(CandidateMode::Dense)
            .with_parallelism(Parallelism::auto());
        let sparse = NonSharingDispatcher::new(Euclidean, params)
            .with_candidate_mode(CandidateMode::Sparse)
            .with_parallelism(Parallelism::auto());

        // Exactness first: all three arms, bit for bit, on every frame.
        let mut scrap = Vec::new();
        let s_dense = run_cold(&dense, &seq, &mut scrap);
        assert_eq!(
            run_cold(&sparse, &seq, &mut scrap),
            s_dense,
            "sparse-cold diverged from dense at {n}x{m}"
        );
        assert_eq!(
            run_hot(&sparse, &seq, &mut scrap),
            s_dense,
            "hot diverged from dense at {n}x{m}"
        );

        let reps = if n >= 1000 { 2 } else { 4 };
        let (mut sd, mut ss, mut sh) = (Vec::new(), Vec::new(), Vec::new());
        // Interleaved so slow phases of a shared machine hit all arms
        // alike; per-frame samples pool across reps.
        for _ in 0..reps {
            std::hint::black_box(run_cold(&dense, &seq, &mut sd));
            std::hint::black_box(run_cold(&sparse, &seq, &mut ss));
            std::hint::black_box(run_hot(&sparse, &seq, &mut sh));
        }
        let (dense_min, dense_med) = summarize(&mut sd);
        let (sparse_min, sparse_med) = summarize(&mut ss);
        let (hot_min, hot_med) = summarize(&mut sh);
        let x_dense = dense_med / hot_med;
        let x_sparse = sparse_med / hot_med;
        println!(
            "{n:>6} {m:>6} {side:>7.1} {dense_med:>12.3} {sparse_med:>12.3} {hot_med:>12.3} \
             {x_dense:>9.2} {x_sparse:>9.2}"
        );
        rows.push(Json::obj(vec![
            ("n_taxis", n.into()),
            ("n_requests", m.into()),
            ("city_km", side.into()),
            ("frames", FRAMES.into()),
            ("churn", CHURN.into()),
            ("dense_ms_min", dense_min.into()),
            ("dense_ms_median", dense_med.into()),
            ("sparse_cold_ms_min", sparse_min.into()),
            ("sparse_cold_ms_median", sparse_med.into()),
            ("hot_ms_min", hot_min.into()),
            ("hot_ms_median", hot_med.into()),
            ("speedup_median_vs_dense", x_dense.into()),
            ("speedup_median_vs_sparse_cold", x_sparse.into()),
            ("schedules_match", true.into()),
        ]));
    }

    // ── Matching layer: rank-table layouts on the same lists ──────────
    // Build + propose for the hashmap reference, CSR, and dense layouts,
    // plus CSR through the reusable scratch arena, all on preference
    // lists derived from the largest frame.
    let (n0, m0) = sizes[sizes.len() - 1];
    let n = ((n0 as f64 * opts.scale).round() as usize).max(8);
    let m = ((m0 as f64 * opts.scale).round() as usize).max(8);
    let (seq, _) = rolling_frames(opts.seed.wrapping_add(99), n, m);
    let (p_lists, r_lists) = frame_lists(&params, &seq[0].0, &seq[0].1);
    type LayoutCtor =
        fn(Vec<Vec<usize>>, Vec<Vec<usize>>) -> Result<StableInstance, PreferenceError>;
    let layouts: [(&str, LayoutCtor); 3] = [
        ("hashmap", StableInstance::new_sparse_reference),
        ("csr", StableInstance::new_sparse),
        ("dense", StableInstance::new),
    ];
    let mut matching_rows = Vec::new();
    println!(
        "\n{:>8} {:>12} {:>12} {:>14}",
        "layout", "build_ms", "propose_ms", "propose_arena"
    );
    for (label, build) in layouts {
        let reps = 9;
        let mut build_ms = Vec::with_capacity(reps);
        let mut propose_ms = Vec::with_capacity(reps);
        let mut arena_ms = Vec::with_capacity(reps);
        let mut scratch = MatchScratch::new();
        for _ in 0..reps {
            let (p, r) = (p_lists.clone(), r_lists.clone());
            let t = Instant::now();
            let inst = build(p, r).expect("frame-derived lists are valid");
            build_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            std::hint::black_box(inst.propose());
            propose_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            std::hint::black_box(inst.propose_with(&mut scratch));
            arena_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let (_, build_med) = summarize(&mut build_ms);
        let (_, propose_med) = summarize(&mut propose_ms);
        let (_, arena_med) = summarize(&mut arena_ms);
        println!("{label:>8} {build_med:>12.3} {propose_med:>12.3} {arena_med:>14.3}");
        matching_rows.push(Json::obj(vec![
            ("layout", label.into()),
            ("n_proposers", p_lists.len().into()),
            ("n_reviewers", r_lists.len().into()),
            ("build_ms_median", build_med.into()),
            ("propose_ms_median", propose_med.into()),
            ("propose_arena_ms_median", arena_med.into()),
        ]));
    }

    // ── Anytime NSTD-T: measured optimality gap per node budget ───────
    let (seq, _) = rolling_frames(opts.seed.wrapping_add(7), n.min(400), m.min(400));
    let (taxis, requests) = &seq[0];
    let sparse = NonSharingDispatcher::new(Euclidean, params)
        .with_candidate_mode(CandidateMode::Sparse)
        .with_parallelism(Parallelism::auto());
    let exact = sparse.taxi_optimal(taxis, requests);
    let mut anytime_rows = Vec::new();
    println!(
        "\n{:>10} {:>10} {:>10} {:>6} {:>10} {:>9}",
        "node_cap", "taxi_cost", "bound", "gap", "nodes", "truncated"
    );
    for cap in [Some(0u64), Some(4), Some(32), Some(256), Some(2048), None] {
        let budget = match cap {
            Some(c) => TimeBudgetSpec::unlimited().with_node_cap(c).start(),
            None => o2o_matching::TimeBudget::unlimited(),
        };
        let t = Instant::now();
        let (schedule, outcome) = sparse.taxi_optimal_anytime(taxis, requests, None, &budget);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if cap.is_none() {
            assert_eq!(
                schedule, exact,
                "unlimited anytime diverged from taxi_optimal"
            );
            assert!(!outcome.truncated, "unlimited anytime reported truncation");
        }
        let cap_label = cap.map_or("inf".to_string(), |c| c.to_string());
        println!(
            "{cap_label:>10} {:>10} {:>10} {:>6} {:>10} {:>9}",
            outcome.taxi_cost,
            outcome.lower_bound,
            outcome.gap(),
            outcome.nodes,
            outcome.truncated
        );
        anytime_rows.push(Json::obj(vec![
            ("node_cap", cap.map_or(Json::Null, Json::from)),
            ("taxi_cost", outcome.taxi_cost.into()),
            ("lower_bound", outcome.lower_bound.into()),
            ("gap", outcome.gap().into()),
            ("nodes", outcome.nodes.into()),
            ("truncated", outcome.truncated.into()),
            ("ms", ms.into()),
            ("matches_taxi_optimal", (schedule == exact).into()),
        ]));
    }

    emit_bench_json(
        "hot_path",
        &bench_envelope(
            "hot_path",
            &opts,
            vec![
                ("rows", Json::Arr(rows)),
                ("matching_layer", Json::Arr(matching_rows)),
                ("anytime", Json::Arr(anytime_rows)),
            ],
        ),
    );
}
