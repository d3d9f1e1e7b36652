//! Algorithm 3's production paths against the references they replaced.
//!
//! *Stage 3.* The production stage 3 evaluates a packed group only
//! against the taxis its per-plan radius queries find, and runs keyed
//! deferred acceptance on the mutually acceptable pairs. The reference
//! below is the dense stage 3 it replaced: every group evaluated against
//! every taxi, full preference lists on both sides, and a rank-table
//! [`StableInstance`]. Every pair the sparse path skips is mutually
//! unacceptable, and such pairs are no-ops in deferred acceptance, so the
//! two must produce the same [`SharingSchedule`] — routes, wait
//! distances, detours, both costs and `unserved` — while the sparse path
//! makes no more proposals.
//!
//! *Stage 1.* The candidate pairs of the production pair scan must equal
//! those of the grid gather it replaced, and every length and plan routed
//! from the frame's leg table must equal a fresh route search on the
//! metric, bit for bit, on a metric whose legs differ by direction.

use super::*;
use crate::shared_route::routes_by_first_pickup;
use o2o_geo::{Euclidean, Point};
use o2o_matching::{Matching, StableInstance};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

impl<M: Metric> SharingDispatcher<M> {
    /// The dense stage 3: the full `(group × taxi)` evaluation matrix,
    /// both sides' lists sorted by `(key, index)`, and deferred acceptance
    /// on a [`StableInstance`].
    fn dispatch_dense(
        &self,
        taxis: &[Taxi],
        requests: &[Request],
        taxi_optimal: bool,
    ) -> SharingSchedule {
        if requests.is_empty() || taxis.is_empty() {
            return SharingSchedule {
                assignments: Vec::new(),
                unserved: requests.iter().map(|r| r.id).collect(),
            };
        }
        let (frame, packed) = self.packed(requests);
        let groups: Vec<GroupData> = packed
            .into_iter()
            .map(|members| self.group_data(requests, &frame, members))
            .collect();
        let evals: Vec<Vec<Eval>> = groups
            .iter()
            .map(|g| taxis.iter().map(|t| self.evaluate(g, t)).collect())
            .collect();
        let by_key = |a: f64, b: f64| a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal);
        let group_lists: Vec<Vec<usize>> = groups
            .iter()
            .enumerate()
            .map(|(gi, g)| {
                let mut list: Vec<usize> = (0..taxis.len())
                    .filter(|&ti| {
                        Self::fits(g, &taxis[ti])
                            && evals[gi][ti].passenger_cost <= self.params.passenger_threshold
                    })
                    .collect();
                list.sort_by(|&a, &b| {
                    by_key(evals[gi][a].passenger_cost, evals[gi][b].passenger_cost).then(a.cmp(&b))
                });
                list
            })
            .collect();
        let taxi_lists: Vec<Vec<usize>> = taxis
            .iter()
            .enumerate()
            .map(|(ti, t)| {
                let mut list: Vec<usize> = (0..groups.len())
                    .filter(|&gi| {
                        Self::fits(&groups[gi], t)
                            && evals[gi][ti].taxi_cost <= self.params.taxi_threshold
                    })
                    .collect();
                list.sort_by(|&a, &b| {
                    by_key(evals[a][ti].taxi_cost, evals[b][ti].taxi_cost).then(a.cmp(&b))
                });
                list
            })
            .collect();
        let instance = StableInstance::new(group_lists, taxi_lists)
            .expect("generated lists are in range and duplicate-free");
        let matching: Matching = if taxi_optimal {
            instance.reviewer_optimal()
        } else {
            instance.propose()
        };
        self.schedule(taxis, requests, &groups, |gi| {
            matching.proposer_partner(gi).map(|ti| {
                let e = &evals[gi][ti];
                (ti, e.plan_idx, e.taxi_cost)
            })
        })
    }
}

impl<M: Metric> SharingDispatcher<M> {
    /// Stage 1's candidate pairs as the grid gather before the pair scan
    /// found them: a 48 × 48 grid over the pick-ups, one radius query of
    /// `trip + θ` per request whose radius is finite, every later request
    /// for one whose radius is not, then a sort and dedup.
    fn grid_candidate_pairs(&self, requests: &[Request]) -> Vec<(usize, usize)> {
        let n = requests.len();
        let Some(bbox) = o2o_geo::BBox::from_points(requests.iter().map(|r| r.pickup)) else {
            return Vec::new();
        };
        let cell = (bbox.width().max(bbox.height()) / 48.0).max(0.1);
        let mut index = o2o_geo::GridIndex::new(bbox, cell);
        for (i, r) in requests.iter().enumerate() {
            index.insert(i, r.pickup);
        }
        let mut candidates = Vec::new();
        for (a, request) in requests.iter().enumerate() {
            let radius = request.trip_distance(&self.metric) + self.params.detour_threshold;
            if !radius.is_finite() {
                candidates.extend((a + 1..n).map(|b| (a, b)));
            } else {
                index.visit_within(request.pickup, radius, |&b, _| {
                    if b != a {
                        candidates.push((a.min(b), a.max(b)));
                    }
                });
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        candidates
    }
}

/// Euclidean distance plus a quarter of any eastward progress: legs
/// differ by direction, and Euclidean distance still lower-bounds every
/// leg, as the taxi grid's radius queries require.
#[derive(Debug, Clone, Copy)]
struct Eastbound;

impl Metric for Eastbound {
    fn distance(&self, a: Point, b: Point) -> f64 {
        Euclidean.distance(a, b) + 0.25 * (b.x - a.x).max(0.0)
    }
}

/// Euclidean, except that the trip from `from` to `to` measures `trip`.
#[derive(Debug, Clone, Copy)]
struct OneTrip {
    from: Point,
    to: Point,
    trip: f64,
}

impl Metric for OneTrip {
    fn distance(&self, a: Point, b: Point) -> f64 {
        if a == self.from && b == self.to {
            self.trip
        } else {
            Euclidean.distance(a, b)
        }
    }
}

/// Runs `f` under a fresh recorder; returns its result and the
/// `match.proposals` it recorded.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let rec = obs::Recorder::new();
    let out = {
        let _scope = obs::scope(&rec);
        f()
    };
    (out, rec.counter("match.proposals"))
}

/// A point on the integer lattice (exact distance ties) or anywhere in
/// the square.
fn point(rng: &mut StdRng, span: f64) -> Point {
    if rng.gen_bool(0.5) {
        let s = span as i32;
        Point::new(
            f64::from(rng.gen_range(-s..=s)),
            f64::from(rng.gen_range(-s..=s)),
        )
    } else {
        Point::new(rng.gen_range(-span..span), rng.gen_range(-span..span))
    }
}

/// A random frame: parties of one to three against taxis of one to four
/// seats (some parties and groups do not fit), some requests sharing a
/// pick-up (a plan whose detours outweigh its pick-up offsets, so `c_p`
/// is negative under β < 0), some taxis exactly on a pick-up, and a pair
/// of taxis mirrored about a pick-up at the same integer distance, whose
/// keys tie exactly for that request alone.
fn random_frame(seed: u64) -> (Vec<Taxi>, Vec<Request>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let span = 5.0;
    let nr = rng.gen_range(1..12usize);
    let mut requests: Vec<Request> = Vec::with_capacity(nr);
    for j in 0..nr {
        let pickup = if j > 0 && rng.gen_bool(0.25) {
            requests[rng.gen_range(0..j)].pickup
        } else {
            point(&mut rng, span)
        };
        let dropoff = point(&mut rng, span);
        let mut r = Request::new(RequestId(j as u64), 0, pickup, dropoff);
        r.passengers = rng.gen_range(1..=3);
        requests.push(r);
    }
    let mut locations: Vec<Point> = (0..rng.gen_range(0..10))
        .map(|_| {
            if rng.gen_bool(0.25) {
                requests[rng.gen_range(0..nr)].pickup
            } else {
                point(&mut rng, span)
            }
        })
        .collect();
    let centre = requests[rng.gen_range(0..nr)].pickup;
    let d = f64::from(rng.gen_range(1..4));
    locations.push(Point::new(centre.x + d, centre.y));
    locations.push(Point::new(centre.x - d, centre.y));
    let taxis = locations
        .into_iter()
        .enumerate()
        .map(|(i, p)| Taxi::with_seats(TaxiId(i as u64), p, rng.gen_range(1..=4)))
        .collect();
    (taxis, requests)
}

/// β below, at and above zero, α varied, each threshold finite and
/// infinite.
fn param_sweep() -> Vec<PreferenceParams> {
    let mut out = Vec::new();
    for beta in [-1.5, 0.0, 1.0] {
        for alpha in [0.0, 1.0, 2.5] {
            for (theta_p, theta_t) in [
                (4.0, 1.5),
                (f64::INFINITY, 1.5),
                (4.0, f64::INFINITY),
                (f64::INFINITY, f64::INFINITY),
            ] {
                out.push(
                    PreferenceParams::paper()
                        .with_alpha(alpha)
                        .with_beta(beta)
                        .with_passenger_threshold(theta_p)
                        .with_taxi_threshold(theta_t)
                        .with_detour_threshold(3.0),
                );
            }
        }
    }
    out
}

/// Group sizes 1–4, both triple generators and both packing objectives.
fn config_sweep() -> Vec<SharingConfig> {
    let mut out = Vec::new();
    for max_group_size in 1..=crate::shared_route::MAX_GROUP_SIZE {
        for triples in [
            TripleCandidates::FromFeasiblePairs,
            TripleCandidates::Exhaustive,
        ] {
            for objective in [
                PackingObjective::GroupCount,
                PackingObjective::CoveredRequests,
            ] {
                out.push(SharingConfig {
                    max_group_size,
                    triples,
                    objective,
                    ..SharingConfig::default()
                });
            }
        }
    }
    out
}

/// Sparse (at the environment's thread cap) against dense, both sides.
fn assert_sparse_matches_dense(
    params: PreferenceParams,
    config: SharingConfig,
    taxis: &[Taxi],
    requests: &[Request],
) {
    let d = SharingDispatcher::with_config(Euclidean, params, config);
    let sparse = d.clone().with_parallelism(Parallelism::auto());
    for taxi_optimal in [false, true] {
        let (want, dense_proposals) = counted(|| d.dispatch_dense(taxis, requests, taxi_optimal));
        let (got, sparse_proposals) = counted(|| sparse.dispatch(taxis, requests, taxi_optimal));
        assert_eq!(
            got, want,
            "params {params:?}, config {config:?}, taxi-optimal {taxi_optimal}"
        );
        // `==` on floats equates 0.0 and -0.0; the debug form does not.
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        assert!(
            sparse_proposals <= dense_proposals,
            "sparse made {sparse_proposals} proposals, dense {dense_proposals}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every β, α and threshold setting of the sweep, default packing.
    #[test]
    fn sparse_stage3_matches_dense_across_params(seed in any::<u64>()) {
        let (taxis, requests) = random_frame(seed);
        for params in param_sweep() {
            assert_sparse_matches_dense(params, SharingConfig::default(), &taxis, &requests);
        }
    }

    /// Every group size, triple generator and packing objective, under
    /// negative, zero and positive β with finite thresholds.
    #[test]
    fn sparse_stage3_matches_dense_across_configs(seed in any::<u64>()) {
        let (taxis, requests) = random_frame(seed);
        for config in config_sweep() {
            for beta in [-1.5, 0.0, 1.0] {
                let params = PreferenceParams::paper()
                    .with_beta(beta)
                    .with_passenger_threshold(4.0)
                    .with_taxi_threshold(1.5)
                    .with_detour_threshold(3.0);
                assert_sparse_matches_dense(params, config, &taxis, &requests);
            }
        }
    }
}

/// A two-request frame whose pair is detour-feasible, and one taxi.
fn shareable_pair(seed: u64) -> Option<(Vec<Taxi>, Vec<Request>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let requests: Vec<Request> = (0..2)
        .map(|j| {
            let pickup = Point::new(rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0));
            let dropoff = Point::new(rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0));
            Request::new(RequestId(j), 0, pickup, dropoff)
        })
        .collect();
    let d = SharingDispatcher::new(Euclidean, PreferenceParams::unbounded());
    d.is_group_feasible(&requests, &[0, 1]).then(|| {
        let location = Point::new(rng.gen_range(-6.0..6.0), rng.gen_range(-6.0..6.0));
        (vec![Taxi::new(TaxiId(0), location)], requests)
    })
}

/// With a threshold set exactly to the pair's evaluated key, the pair is
/// accepted with no margin at all; the radius query must still find the
/// taxi, on the passenger side and on the taxi side, although the float
/// sums that give the key and the radius round differently.
#[test]
fn pairs_accepted_exactly_at_a_threshold_are_found() {
    let mut checked = 0;
    for seed in 0..400 {
        let Some((taxis, requests)) = shareable_pair(seed) else {
            continue;
        };
        let base = PreferenceParams::unbounded()
            .with_alpha(0.0)
            .with_detour_threshold(f64::INFINITY);
        let d = SharingDispatcher::new(Euclidean, base);
        let (frame, _) = d.scored_groups(&requests);
        let g = d.group_data(&requests, &frame, vec![0, 1]);
        let e = d.evaluate(&g, &taxis[0]);
        let mut pinned = vec![base.with_passenger_threshold(e.passenger_cost)];
        if e.taxi_cost >= 0.0 {
            pinned.push(base.with_taxi_threshold(e.taxi_cost));
        }
        for params in pinned {
            let d = SharingDispatcher::new(Euclidean, params);
            for taxi_optimal in [false, true] {
                let want = d.dispatch_dense(&taxis, &requests, taxi_optimal);
                assert_eq!(want.served_count(), 2, "seed {seed}: dense serves the pair");
                let got = d.dispatch(&taxis, &requests, taxi_optimal);
                assert_eq!(got, want, "seed {seed}: params {params:?}");
            }
            checked += 1;
        }
    }
    assert!(checked > 100, "only {checked} pinned pairs checked");
}

/// With β < 0 a detour lowers the passenger key, so an acceptable taxi
/// can lie beyond θ_p: here the second rider detours 9 − √41 km, so
/// `c_p` = −1.5·(9 − √41)/2 ≈ −1.95 and a taxi 4.5 km from the shared
/// pick-up has key ≈ 2.55 ≤ θ_p = 4. The radius must be θ_p − c_p, not
/// θ_p.
#[test]
fn negative_beta_admits_taxis_beyond_the_passenger_threshold() {
    let requests = vec![
        Request::new(RequestId(0), 0, Point::ORIGIN, Point::new(5.0, 0.0)),
        Request::new(RequestId(1), 0, Point::ORIGIN, Point::new(5.0, 4.0)),
    ];
    let taxis = vec![Taxi::new(TaxiId(0), Point::new(-4.5, 0.0))];
    let params = PreferenceParams::unbounded()
        .with_beta(-1.5)
        .with_passenger_threshold(4.0)
        .with_detour_threshold(3.0);
    let d = SharingDispatcher::new(Euclidean, params);
    for taxi_optimal in [false, true] {
        let want = d.dispatch_dense(&taxis, &requests, taxi_optimal);
        assert_eq!(want.assignments.len(), 1, "dense serves the pair");
        assert_eq!(want.assignments[0].members.len(), 2);
        assert!(want.assignments[0].wait_distances[0] > 4.0);
        assert_eq!(d.dispatch(&taxis, &requests, taxi_optimal), want);
    }
}

fn request(id: u64, pickup: (f64, f64), dropoff: (f64, f64)) -> Request {
    Request::new(
        RequestId(id),
        0,
        Point::new(pickup.0, pickup.1),
        Point::new(dropoff.0, dropoff.1),
    )
}

/// The pair scan's candidates against the grid gather's, under `metric`
/// and detour threshold `theta`.
fn assert_candidates_match<M: Metric>(metric: M, theta: f64, requests: &[Request]) {
    let d = SharingDispatcher::new(
        metric,
        PreferenceParams::unbounded().with_detour_threshold(theta),
    );
    let trips: Vec<f64> = requests
        .iter()
        .map(|r| r.trip_distance(d.metric()))
        .collect();
    assert_eq!(
        d.candidate_pairs(requests, &trips),
        d.grid_candidate_pairs(requests),
        "theta {theta}, requests {requests:?}"
    );
}

/// Pick-ups exactly on, just inside and just outside another request's
/// `trip + θ`, reached from one side only (a long trip before and after
/// short ones), coincident pick-ups, zero-length trips, θ = ∞, and a
/// metric whose trip for one request is not finite — that request pairs
/// with every later one, but with an earlier one only through that one's
/// own radius.
#[test]
fn candidate_pairs_match_the_grid_gather() {
    // Request 0's trip is 5, so with θ = 1 its radius is 6; requests 1–5
    // have trips of 0.5 and cannot reach it. Request 6 mirrors request 0
    // at the end of the list, around (20, 0).
    let boundary = vec![
        request(0, (0.0, 0.0), (3.0, 4.0)),
        request(1, (6.0, 0.0), (6.5, 0.0)),
        request(2, (0.0, -6.0), (0.5, -6.0)),
        request(3, (3.6, 4.8), (3.6, 5.3)),
        request(4, (6.000_000_001, 0.0), (6.5, 0.0)),
        request(5, (14.0, 0.0), (14.0, 0.5)),
        request(6, (20.0, 0.0), (23.0, 4.0)),
    ];
    for theta in [0.0, 1.0, 1.5, f64::INFINITY] {
        assert_candidates_match(Euclidean, theta, &boundary);
        assert_candidates_match(Eastbound, theta, &boundary);
    }
    // Coincident pick-ups and zero-length trips: with θ = 0 only the
    // coincident pick-ups pair.
    let coincident = vec![
        request(0, (1.0, 1.0), (1.0, 1.0)),
        request(1, (1.0, 1.0), (1.0, 1.0)),
        request(2, (2.0, 1.0), (2.0, 1.0)),
        request(3, (1.0, 1.0), (4.0, 5.0)),
        request(4, (2.0, 1.0), (2.0, 1.0)),
    ];
    for theta in [0.0, 1.0, f64::INFINITY] {
        assert_candidates_match(Euclidean, theta, &coincident);
    }
    // A non-finite trip for request 3 of the boundary frame: requests 1,
    // 2 and 4 lie beyond request 0's radius from it, so the earlier pairs
    // with request 3 exist only where an earlier radius reaches it.
    let poisoned = &boundary[3];
    for trip in [f64::INFINITY, f64::NAN, f64::NEG_INFINITY] {
        let metric = OneTrip {
            from: poisoned.pickup,
            to: poisoned.dropoff,
            trip,
        };
        for theta in [0.0, 1.0] {
            assert_candidates_match(metric, theta, &boundary);
        }
    }
    for seed in 0..200 {
        let (_, requests) = random_frame(seed);
        for theta in [0.0, 0.5, 3.0, f64::INFINITY] {
            assert_candidates_match(Euclidean, theta, &requests);
            assert_candidates_match(Eastbound, theta, &requests);
        }
    }
}

/// Every stage-1 length and every packed group's plans, routed from the
/// frame's leg table, against a fresh route search on `metric`.
fn assert_stage_one_matches_fresh_search<M: Metric>(
    metric: M,
    config: SharingConfig,
    requests: &[Request],
) {
    let d = SharingDispatcher::with_config(
        metric,
        PreferenceParams::paper().with_detour_threshold(3.0),
        config,
    );
    let group_of = |members: &[usize]| members.iter().map(|&i| requests[i]).collect::<Vec<_>>();
    let (_, scored) = d.scored_groups(requests);
    let groups: Vec<Vec<usize>> = scored.iter().map(|(g, _)| g.clone()).collect();
    assert_eq!(groups, d.feasible_groups(requests));
    for (members, len) in &scored {
        let fresh = min_route_length_if_within_detour(d.metric(), &group_of(members), 3.0)
            .expect("stage 1 keeps feasible groups only");
        assert_eq!(len.to_bits(), fresh.to_bits(), "group {members:?}");
    }
    let (frame, packed) = d.packed(requests);
    for members in packed {
        let group = group_of(&members);
        let plans = routes_by_first_pickup(d.metric(), &group);
        let directs: Vec<f64> = group.iter().map(|r| r.trip_distance(d.metric())).collect();
        let g = d.group_data(requests, &frame, members.clone());
        // `==` on floats equates 0.0 and -0.0; the debug form does not.
        assert_eq!(g.plans, plans, "group {members:?}");
        assert_eq!(format!("{:?}", g.plans), format!("{plans:?}"));
        assert_eq!(format!("{:?}", g.directs), format!("{directs:?}"));
    }
}

/// `pack` orders groups by the canonical lengths stage 1 computed, and
/// stage 3 routes each packed group's plans from stage 1's legs; each
/// must equal a fresh route search of its group, bit for bit, on
/// Euclidean distance and on a metric whose legs differ by direction.
#[test]
fn stage_one_lengths_equal_a_fresh_route_search() {
    let mut rng = StdRng::seed_from_u64(0x5C0_12ED);
    for _ in 0..12 {
        let (_, requests) = random_frame(rng.gen());
        for mut config in config_sweep() {
            for cap in [None, Some(2)] {
                config.max_partners_per_request = cap;
                assert_stage_one_matches_fresh_search(Euclidean, config, &requests);
                assert_stage_one_matches_fresh_search(Eastbound, config, &requests);
            }
        }
    }
}
