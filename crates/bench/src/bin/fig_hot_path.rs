//! Hot-path pass: per-frame dispatch wall-clock of the production NSTD
//! path (candidate rows from the stability certificate + keyed deferred
//! acceptance + batched distance kernels) against the dense reference.
//!
//! Replays rolling frame sequences (fixed fleet, churned locations and
//! request turnover) at the paper's thresholds and measures each frame's
//! dispatch wall-clock — the quantity the engine reports as
//! `frame.dispatch_ms` — under two arms, both through
//! `NonSharingDispatcher::dispatch`:
//!
//! * **dense_cold** — `CandidateMode::Dense`: the full preference matrix
//!   and rank tables, deferred acceptance every frame (the pre-sparse
//!   pipeline);
//! * **hot** — threshold-pruned candidates over the batched distance
//!   kernel, fresh grid, rows built from the previous frame's stability
//!   certificate, keyed deferred acceptance on the flat candidate buffer
//!   (no rank tables). These frames do not apply their schedules, so a
//!   request matched in one frame is still pending in the next and
//!   builds a fresh row there.
//!
//! Every frame of every row first asserts both schedules **equal** — the
//! speedup is exact, not approximate. A further section measures the
//! anytime NSTD-T enumeration on the dense model (measured optimality gap
//! per node budget, with the unlimited run asserted equal to
//! `taxi_optimal`).
//!
//! Output: `results/BENCH_hot_path.json`.

use o2o_bench::{bench_envelope, emit_bench_json, ExperimentOpts, Json};
use o2o_core::{
    build_taxi_grid, CandidateMode, IncrementalState, NonSharingDispatcher, Proposing, TimeBudget,
};
use o2o_geo::{Euclidean, Point};
use o2o_matching::TimeBudgetSpec;
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

/// Runs NSTD-P over the sequence through `dispatch`, with the state
/// carried across frames (`warm`) or fresh each frame, pushing one
/// per-frame dispatch time (ms) per frame into `samples`; returns the
/// schedules.
fn run(
    d: &NonSharingDispatcher<Euclidean>,
    seq: &[Frame],
    warm: bool,
    samples: &mut Vec<f64>,
) -> Vec<o2o_core::Schedule> {
    let unlimited = TimeBudget::unlimited();
    let mut state = IncrementalState::new();
    seq.iter()
        .map(|(taxis, requests)| {
            let t = Instant::now();
            if !warm {
                state = IncrementalState::new();
            }
            let grid = build_taxi_grid(taxis);
            let (s, _) = d.dispatch(
                taxis,
                requests,
                Some(&grid),
                None,
                &mut state,
                Proposing::Rows,
                &unlimited,
            );
            samples.push(t.elapsed().as_secs_f64() * 1e3);
            s
        })
        .collect()
}

fn summarize(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    (samples[0], samples[samples.len() / 2])
}

fn main() {
    let opts = ExperimentOpts::from_args(1.0);
    let params = opts.params;
    let sizes = [(500, 500), (1000, 1000), (2000, 2000)];

    println!(
        "{:>6} {:>6} {:>7} {:>12} {:>12} {:>9}",
        "|T|", "|R|", "city_km", "dense_ms", "hot_ms", "x_dense"
    );
    let mut rows = Vec::new();
    let (mut n, mut m) = (0, 0);
    for (ci, &(n0, m0)) in sizes.iter().enumerate() {
        n = ((n0 as f64 * opts.scale).round() as usize).max(8);
        m = ((m0 as f64 * opts.scale).round() as usize).max(8);
        let (seq, side) = rolling_frames(opts.seed.wrapping_add(ci as u64), n, m);
        let dense =
            NonSharingDispatcher::new(Euclidean, params).with_candidate_mode(CandidateMode::Dense);
        let sparse = NonSharingDispatcher::new(Euclidean, params);

        // Exactness first: both arms, bit for bit, on every frame.
        let mut scrap = Vec::new();
        assert_eq!(
            run(&sparse, &seq, true, &mut scrap),
            run(&dense, &seq, false, &mut scrap),
            "hot diverged from dense at {n}x{m}"
        );

        let reps = if n >= 1000 { 2 } else { 4 };
        let (mut sd, mut sh) = (Vec::new(), Vec::new());
        // Interleaved so slow phases of a shared machine hit both arms
        // alike; per-frame samples pool across reps.
        for _ in 0..reps {
            std::hint::black_box(run(&dense, &seq, false, &mut sd));
            std::hint::black_box(run(&sparse, &seq, true, &mut sh));
        }
        let (dense_min, dense_med) = summarize(&mut sd);
        let (hot_min, hot_med) = summarize(&mut sh);
        let x_dense = dense_med / hot_med;
        println!("{n:>6} {m:>6} {side:>7.1} {dense_med:>12.3} {hot_med:>12.3} {x_dense:>9.2}");
        rows.push(Json::obj(vec![
            ("n_taxis", n.into()),
            ("n_requests", m.into()),
            ("city_km", side.into()),
            ("frames", FRAMES.into()),
            ("churn", CHURN.into()),
            ("dense_ms_min", dense_min.into()),
            ("dense_ms_median", dense_med.into()),
            ("hot_ms_min", hot_min.into()),
            ("hot_ms_median", hot_med.into()),
            ("speedup_median_vs_dense", x_dense.into()),
            ("schedules_match", true.into()),
        ]));
    }

    // ── Anytime NSTD-T: measured optimality gap per node budget ───────
    let (seq, _) = rolling_frames(opts.seed.wrapping_add(7), n.min(400), m.min(400));
    let (taxis, requests) = &seq[0];
    let d = NonSharingDispatcher::new(Euclidean, params);
    let exact = d.taxi_optimal(taxis, requests);
    let mut anytime_rows = Vec::new();
    println!(
        "\n{:>10} {:>10} {:>10} {:>6} {:>10} {:>9}",
        "node_cap", "taxi_cost", "bound", "gap", "nodes", "truncated"
    );
    for cap in [Some(0u64), Some(4), Some(32), Some(256), Some(2048), None] {
        let budget = match cap {
            Some(c) => TimeBudgetSpec::unlimited().with_node_cap(c).start(),
            None => TimeBudget::unlimited(),
        };
        let t = Instant::now();
        let (schedule, outcome) = d.taxi_optimal_anytime(taxis, requests, &budget);
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
                ("anytime", Json::Arr(anytime_rows)),
            ],
        ),
    );
}
