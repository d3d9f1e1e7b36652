//! Algorithm 3's production paths against the references they replaced.
//!
//! *Stage 3.* The production stage 3 evaluates a packed group only
//! against the taxis in its band, widens the band when the group runs out
//! of entries, and resumes keyed deferred acceptance. Two references stand
//! behind it. The full-row stage 3 evaluates every taxi within each plan's
//! radius and runs keyed deferred acceptance once on the complete rows;
//! deferred acceptance never reads a row past the proposal that ends its
//! search, so the banded path must give the same [`SharingSchedule`] and
//! make the same proposals and rejections. The dense stage 3 evaluates
//! every group against every taxi, builds full preference lists on both
//! sides and a rank-table [`StableInstance`]; every pair the sparse paths
//! skip is mutually unacceptable, and such pairs are no-ops in deferred
//! acceptance, so the schedules are equal — routes, wait distances,
//! detours, both costs and `unserved` — while the sparse paths make no
//! more proposals.
//!
//! *Stage 1.* The candidate pairs of the production pair scan must equal
//! those of the grid gather it replaced, filtered by the same ellipse
//! test, and no detour-feasible pair may be missing; every length and
//! plan routed from the frame's leg table must equal a fresh route search
//! on the metric, bit for bit, on a metric whose legs differ by direction.

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

    /// The full-row keyed stage 3 the banded one replaced: each group
    /// evaluates every taxi its plans' radius queries find, keeps the
    /// mutually acceptable ones by `(passenger key, taxi)`, and keyed
    /// deferred acceptance runs once on the complete rows.
    fn dispatch_full_rows(
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
        let grid = build_taxi_grid(taxis);
        let mut cands = KeyedCandidates::new();
        cands.reset(taxis.len());
        let mut plan_of: Vec<usize> = Vec::new();
        for g in &groups {
            let mut hits: Vec<usize> = Vec::new();
            for (p, plan) in g.plans.iter().enumerate() {
                if self.plan_allowed(g, plan) {
                    grid.visit_within(plan.first_stop(), self.plan_bound(g, p).radius, |&ti, _| {
                        hits.push(ti);
                    });
                }
            }
            hits.sort_unstable();
            hits.dedup();
            let mut row: Vec<(usize, Eval)> = hits
                .into_iter()
                .filter_map(|ti| self.acceptable(g, &taxis[ti]).map(|e| (ti, e)))
                .collect();
            row.sort_unstable_by(|(a, ea), (b, eb)| {
                ea.passenger_cost
                    .partial_cmp(&eb.passenger_cost)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(b))
            });
            for (ti, e) in &row {
                cands.push(*ti, e.passenger_cost, e.taxi_cost);
                plan_of.push(e.plan_idx);
            }
            cands.finish_row();
        }
        let mut matcher = KeyedMatch::new();
        matcher.solve(
            &cands,
            if taxi_optimal {
                Proposing::Columns
            } else {
                Proposing::Rows
            },
        );
        self.schedule(taxis, requests, &groups, |gi| {
            matcher.row_entry(gi).map(|e| {
                let entry = cands.entry(e);
                (entry.col as usize, plan_of[e], entry.col_key)
            })
        })
    }
}

impl<M: Metric> SharingDispatcher<M> {
    /// Stage 1's candidate pairs as the grid gather before the pair scan
    /// found them: a 48 × 48 grid over the pick-ups, one radius query of
    /// `trip + θ` per request whose radius is finite, every other request
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
                candidates.extend((0..n).filter(|&b| b != a).map(|b| (a.min(b), a.max(b))));
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
/// `match.proposals` and `match.rejections` it recorded.
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

/// The production stage 3 (at the environment's thread cap) against both
/// references, both sides: the same schedule as each, the same proposals
/// and rejections as the full rows, and no more proposals than dense.
fn assert_stage3_matches_references(
    params: PreferenceParams,
    config: SharingConfig,
    taxis: &[Taxi],
    requests: &[Request],
) {
    let d = SharingDispatcher::with_config(Euclidean, params, config);
    let production = d.clone().with_parallelism(Parallelism::auto());
    for taxi_optimal in [false, true] {
        let case = format!("params {params:?}, config {config:?}, taxi-optimal {taxi_optimal}");
        let (dense, (dense_proposals, _)) =
            counted(|| d.dispatch_dense(taxis, requests, taxi_optimal));
        let (full, full_counts) = counted(|| d.dispatch_full_rows(taxis, requests, taxi_optimal));
        let (got, counts) = counted(|| production.dispatch(taxis, requests, taxi_optimal));
        for want in [&full, &dense] {
            assert_eq!(&got, want, "{case}");
            // `==` on floats equates 0.0 and -0.0; the debug form does not.
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{case}");
        }
        assert_eq!(counts, full_counts, "{case}: proposals and rejections");
        assert!(
            counts.0 <= dense_proposals,
            "{case}: sparse made {} proposals, dense {dense_proposals}",
            counts.0
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every β, α and threshold setting of the sweep, default packing, on
    /// a random frame and on one with taxis exactly on band edges.
    #[test]
    fn stage3_matches_references_across_params(seed in any::<u64>()) {
        for (taxis, requests) in [random_frame(seed), band_edge_frame(seed)] {
            for params in param_sweep() {
                assert_stage3_matches_references(params, SharingConfig::default(), &taxis, &requests);
            }
        }
    }

    /// Every group size, triple generator and packing objective, under
    /// negative, zero and positive β with finite thresholds.
    #[test]
    fn stage3_matches_references_across_configs(seed in any::<u64>()) {
        let (taxis, requests) = random_frame(seed);
        for config in config_sweep() {
            for beta in [-1.5, 0.0, 1.0] {
                let params = PreferenceParams::paper()
                    .with_beta(beta)
                    .with_passenger_threshold(4.0)
                    .with_taxi_threshold(1.5)
                    .with_detour_threshold(3.0);
                assert_stage3_matches_references(params, config, &taxis, &requests);
            }
        }
    }
}

/// Taxis exactly on band edges: the taxi grid's cell is pinned to 0.25 km
/// by two corner taxis, and the other taxis stand a power of two of cells
/// from a request's pick-up along an axis, where a singleton's band ends,
/// four at each distance so their keys tie.
fn band_edge_frame(seed: u64) -> (Vec<Taxi>, Vec<Request>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let requests: Vec<Request> = (0..rng.gen_range(1..8u64))
        .map(|j| {
            let pickup = point(&mut rng, 2.0);
            let mut r = Request::new(RequestId(j), 0, pickup, point(&mut rng, 4.0));
            r.passengers = rng.gen_range(1..=2);
            r
        })
        .collect();
    // The corners give a bbox 8 km wide: 8 / 32 = 0.25 km cells.
    let mut locations = vec![Point::new(-4.0, -4.0), Point::new(4.0, 4.0)];
    for _ in 0..3 {
        let centre = requests[rng.gen_range(0..requests.len())].pickup;
        let cells = f64::from(1u32 << rng.gen_range(0..4));
        let d = 0.25 * cells;
        locations.extend([
            Point::new(centre.x + d, centre.y),
            Point::new(centre.x - d, centre.y),
            Point::new(centre.x, centre.y + d),
            Point::new(centre.x, centre.y - d),
        ]);
    }
    let taxis = locations
        .into_iter()
        .enumerate()
        .map(|(i, p)| Taxi::with_seats(TaxiId(i as u64), p, rng.gen_range(1..=4)))
        .collect();
    (taxis, requests)
}

/// `x`'s neighbours one to three floats away on either side, and `x`.
fn ulps_around(x: f64) -> Vec<f64> {
    let mut out = vec![x];
    let (mut up, mut down) = (x, x);
    for _ in 0..3 {
        up = f64::from_bits(up.to_bits() + 1);
        down = f64::from_bits(down.to_bits() - 1);
        out.extend([up, down]);
    }
    out.sort_by(|a, b| b.total_cmp(a));
    out
}

/// Each widening of a pair's band makes final exactly the next entries of
/// the pair's full row, with taxis packed within a few floats of every
/// band's edge. The pair's first stop is the origin and the taxis stand
/// on the axes, so each one's approach leg is exactly its coordinate; the
/// keys `approach + c_p` then round either way around the band's end, and
/// a taxi one float outside a band can get a key no larger than one just
/// inside it. Taxis farther out come first in the list, so such a tie
/// orders the outside taxi first. Without the finality slack, the inside
/// taxi would be final one band before the outside one.
#[test]
fn final_entries_are_a_prefix_of_the_full_row_at_band_edges() {
    let mut rng = StdRng::seed_from_u64(0xED6E);
    let mut widenings = 0;
    for _ in 0..200 {
        let requests = vec![
            request(
                0,
                (0.0, 0.0),
                (rng.gen_range(4.0..9.0), rng.gen_range(-0.5..0.5)),
            ),
            request(
                1,
                (rng.gen_range(0.1..2.0), rng.gen_range(-0.5..0.5)),
                (rng.gen_range(3.0..8.0), rng.gen_range(-0.5..0.5)),
            ),
        ];
        let beta = [-1.5, 0.3, 1.0, 2.7][rng.gen_range(0..4)];
        let d = SharingDispatcher::new(
            Euclidean,
            PreferenceParams::unbounded()
                .with_beta(beta)
                .with_detour_threshold(f64::INFINITY),
        );
        let (frame, packed) = d.packed(&requests);
        assert_eq!(packed, vec![vec![0, 1]]);
        let g = d.group_data(&requests, &frame, vec![0, 1]);
        // The corners pin the taxi grid's cell to 16 / 32 = 0.5 km.
        let cell = 0.5;
        let probe = Band::new(&g, cell, Taxi::DEFAULT_SEATS);
        let origin = g.allowed.iter().find(|b| b.first == Point::ORIGIN).unwrap();
        let mut locations = vec![Point::new(-8.0, -8.0), Point::new(8.0, 8.0)];
        for doublings in 0..4 {
            let edge = (probe.base + cell * f64::from(1 << doublings)) - origin.cost;
            for a in ulps_around(edge) {
                locations.extend([
                    Point::new(a, 0.0),
                    Point::new(-a, 0.0),
                    Point::new(0.0, a),
                    Point::new(0.0, -a),
                ]);
            }
        }
        let taxis: Vec<Taxi> = locations
            .into_iter()
            .enumerate()
            .map(|(i, p)| Taxi::new(TaxiId(i as u64), p))
            .collect();
        let mut full: Vec<(usize, f64)> = (0..taxis.len())
            .filter_map(|ti| d.acceptable(&g, &taxis[ti]).map(|e| (ti, e.passenger_cost)))
            .collect();
        full.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        let mut side = TaxiSide {
            taxis: &taxis,
            grid: build_taxi_grid(&taxis),
            seen: vec![0; taxis.len()],
            stamp: 0,
        };
        assert_eq!(side.grid.cell_size(), 0.5);
        let mut band = Band::new(&g, cell, Taxi::DEFAULT_SEATS);
        let mut row = Vec::new();
        while !band.complete {
            d.widen(&g, &mut band, &mut side, &mut row);
            widenings += 1;
            let got: Vec<(usize, f64)> =
                row.iter().map(|&(ti, e)| (ti, e.passenger_cost)).collect();
            assert_eq!(
                got[..],
                full[..got.len()],
                "beta {beta}, reach {}, requests {requests:?}",
                band.reach
            );
        }
        assert_eq!(row.len(), full.len());
    }
    assert!(widenings > 1000, "{widenings} widenings");
}

/// Two singletons (max group size 1) and the `(x, y, seats)` taxis, under
/// β = 0, α = 1 and the passenger threshold `theta_p`.
fn singleton_frame(
    pickups: &[(f64, f64)],
    taxis: &[(f64, f64, u8)],
    theta_p: f64,
) -> (SharingDispatcher<Euclidean>, Vec<Taxi>, Vec<Request>) {
    let d = SharingDispatcher::with_config(
        Euclidean,
        PreferenceParams::unbounded()
            .with_beta(0.0)
            .with_passenger_threshold(theta_p),
        SharingConfig {
            max_group_size: 1,
            ..SharingConfig::default()
        },
    );
    let requests = pickups
        .iter()
        .enumerate()
        .map(|(j, &(x, y))| request(j as u64, (x, y), (x, y + 1.0 + j as f64)))
        .collect();
    let taxis = taxis
        .iter()
        .enumerate()
        .map(|(i, &(x, y, seats))| Taxi::with_seats(TaxiId(i as u64), Point::new(x, y), seats))
        .collect();
    (d, taxis, requests)
}

/// The only taxi that fits the party lies five doublings of the band out:
/// the group's first band finds nothing it can take, and the row must
/// keep widening before the first solve.
#[test]
fn a_group_finds_a_taxi_several_doublings_out() {
    let (d, taxis, mut requests) = singleton_frame(
        &[(0.0, 0.0)],
        &[
            (0.3, 0.0, 1),
            (0.0, 0.6, 1),
            (10.0, 0.0, 4),
            (-1.0, -1.0, 1),
        ],
        f64::INFINITY,
    );
    requests[0].passengers = 3;
    for taxi_optimal in [false, true] {
        let (got, counts) = counted(|| d.dispatch(&taxis, &requests, taxi_optimal));
        assert_eq!(got.assignments.len(), 1);
        assert_eq!(got.assignments[0].taxi, TaxiId(2));
        let (want, want_counts) = counted(|| d.dispatch_full_rows(&taxis, &requests, taxi_optimal));
        assert_eq!(got, want);
        assert_eq!(counts, want_counts);
    }
}

/// Two groups want the same near taxi; the taxi keeps the one with the
/// longer trip (its key is lower), and the other group runs out of its
/// row mid-solve, widens its band past several doublings to the only
/// other taxi, and resumes proposing there.
#[test]
fn the_loser_of_a_contested_taxi_widens_and_resumes() {
    let (d, taxis, requests) = singleton_frame(
        &[(0.0, 0.0), (0.1, 0.0)],
        &[(0.05, 0.0, 4), (6.0, 0.0, 4), (-9.0, 0.0, 4)],
        f64::INFINITY,
    );
    let (got, counts) = counted(|| d.dispatch(&taxis, &requests, false));
    let (want, want_counts) = counted(|| d.dispatch_full_rows(&taxis, &requests, false));
    assert_eq!(got, want);
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
    assert_eq!(got.served_count(), 2);
    assert_eq!(got.group_of(TaxiId(0)).unwrap().members, vec![RequestId(1)]);
    assert_eq!(got.group_of(TaxiId(1)).unwrap().members, vec![RequestId(0)]);
    // Three proposals: both groups to taxi 0, then the loser to taxi 1.
    assert_eq!(counts, (3, 1));
    assert_eq!(counts, want_counts);
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
                assert_eq!(d.dispatch_full_rows(&taxis, &requests, taxi_optimal), want);
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
        assert_eq!(d.dispatch_full_rows(&taxis, &requests, taxi_optimal), want);
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

/// The pair scan's candidates against the grid gather's filtered by the
/// same ellipse test, under `metric` and detour threshold `theta`; and
/// every detour-feasible pair among them.
fn assert_candidates_match<M: Metric>(metric: M, theta: f64, requests: &[Request]) {
    let d = SharingDispatcher::new(
        metric,
        PreferenceParams::unbounded().with_detour_threshold(theta),
    );
    let trips: Vec<f64> = requests
        .iter()
        .map(|r| r.trip_distance(d.metric()))
        .collect();
    let ride = |i: usize| trips[i] + theta;
    let mut gathered = d.grid_candidate_pairs(requests);
    gathered.retain(|&(a, b)| {
        !ride(a).is_finite()
            || !ride(b).is_finite()
            || may_join(&requests[a], &requests[b], ride(a))
            || may_join(&requests[b], &requests[a], ride(b))
    });
    let scanned = d.candidate_pairs(requests, &trips);
    assert_eq!(scanned, gathered, "theta {theta}, requests {requests:?}");
    for a in 0..requests.len() {
        for b in a + 1..requests.len() {
            if d.is_group_feasible(requests, &[a, b]) {
                assert!(
                    scanned.binary_search(&(a, b)).is_ok(),
                    "feasible pair ({a}, {b}) dropped: theta {theta}, requests {requests:?}"
                );
            }
        }
    }
}

/// The boundary frame of `candidate_pairs_match_the_grid_gather`.
fn boundary_frame() -> Vec<Request> {
    // Request 0's trip is 5, so with θ = 1 its radius is 6; requests 1–5
    // have trips of 0.5 and cannot reach it. Request 6 mirrors request 0
    // at the end of the list, around (20, 0).
    vec![
        request(0, (0.0, 0.0), (3.0, 4.0)),
        request(1, (6.0, 0.0), (6.5, 0.0)),
        request(2, (0.0, -6.0), (0.5, -6.0)),
        request(3, (3.6, 4.8), (3.6, 5.3)),
        request(4, (6.000_000_001, 0.0), (6.5, 0.0)),
        request(5, (14.0, 0.0), (14.0, 0.5)),
        request(6, (20.0, 0.0), (23.0, 4.0)),
    ]
}

/// Coincident pick-ups and zero-length trips: with θ = 0 only the
/// coincident pick-ups pass the disk, and only zero-length trips among
/// them the ellipse.
fn coincident_frame() -> Vec<Request> {
    vec![
        request(0, (1.0, 1.0), (1.0, 1.0)),
        request(1, (1.0, 1.0), (1.0, 1.0)),
        request(2, (2.0, 1.0), (2.0, 1.0)),
        request(3, (1.0, 1.0), (4.0, 5.0)),
        request(4, (2.0, 1.0), (2.0, 1.0)),
    ]
}

/// Trips along one line, eastbound and westbound: nested, overlapping,
/// chained (one pick-up on another's drop-off) and back-to-back, so that
/// with θ = 0 the feasible pairs ride exactly their trips and sit on the
/// ellipse's boundary; one short trip off the line, inside the first
/// trip's disk but off its ellipse; and one pick-up 50 µm off the line,
/// which makes the first rider ride 6.5e-10 km past its trip: the pair is
/// feasible only through the route search's `1e-9` tolerance.
fn collinear_frame() -> Vec<Request> {
    vec![
        request(0, (0.0, 0.0), (10.0, 0.0)),
        request(1, (2.0, 0.0), (8.0, 0.0)),
        request(2, (5.0, 0.0), (15.0, 0.0)),
        request(3, (10.0, 0.0), (12.0, 0.0)),
        request(4, (9.0, 0.0), (1.0, 0.0)),
        request(5, (0.0, 0.0), (10.0, 0.0)),
        request(6, (15.0, 0.0), (20.0, 0.0)),
        request(7, (5.0, 4.0), (5.0, 5.0)),
        request(8, (5.0, 5e-5), (8.0, 0.0)),
    ]
}

/// Pick-ups exactly on, just inside and just outside another request's
/// `trip + θ`, reached from one side only (a long trip before and after
/// short ones), coincident pick-ups, zero-length trips, collinear trips,
/// θ = 0 and ∞, and a metric whose trip for one request is not finite —
/// that request pairs with every other one; with a trip of +∞, pairs with
/// earlier requests beyond their disks are detour-feasible.
#[test]
fn candidate_pairs_match_the_grid_gather() {
    let boundary = boundary_frame();
    for theta in [0.0, 1.0, 1.5, f64::INFINITY] {
        assert_candidates_match(Euclidean, theta, &boundary);
        assert_candidates_match(Eastbound, theta, &boundary);
    }
    for theta in [0.0, 1.0, f64::INFINITY] {
        assert_candidates_match(Euclidean, theta, &coincident_frame());
        assert_candidates_match(Eastbound, theta, &coincident_frame());
        assert_candidates_match(Euclidean, theta, &collinear_frame());
        assert_candidates_match(Eastbound, theta, &collinear_frame());
    }
    // A non-finite trip for request 3 of the boundary frame: requests 1,
    // 2 and 4 lie beyond request 0's radius from it, and request 1's and
    // 2's own disks do not reach it.
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
        assert_candidates_match(Euclidean, 0.0, &far_nested_frame(seed));
    }
    // Two of the first 200,000 far frames whose ellipse sum rounds more
    // than `1e-9` past the trip while the route search accepts the pair.
    for seed in [139_227, 142_098] {
        assert_candidates_match(Euclidean, 0.0, &far_nested_frame(seed));
    }
}

/// A trip ten thousand kilometres long along a random direction, with
/// another nested inside it: with θ = 0 the pair rides exactly its trip
/// in real numbers, and at this length one rounding step of the sums on
/// either side of the ellipse test is larger than `1e-9`.
fn far_nested_frame(seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let angle: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
    let (dx, dy) = (angle.cos(), angle.sin());
    let at = |t: f64| (t * dx, t * dy);
    let (s, e) = (rng.gen_range(1e6..2e6), rng.gen_range(8e6..9e6));
    vec![request(0, at(0.0), at(1e7)), request(1, at(s), at(e))]
}

/// The ellipse keeps the pairs that ride exactly their trips, or within
/// the route search's tolerance of them, and drops pairs the disk alone
/// would keep: on the collinear frame with θ = 0, the nested, chained and
/// nearly collinear pairs are kept, while the trip off the line, whose
/// pick-up lies inside the first trip's disk, is not.
#[test]
fn the_ellipse_keeps_every_feasible_pair_and_prunes_the_rest() {
    let requests = collinear_frame();
    let d = SharingDispatcher::new(
        Euclidean,
        PreferenceParams::unbounded().with_detour_threshold(0.0),
    );
    let trips: Vec<f64> = requests
        .iter()
        .map(|r| r.trip_distance(&Euclidean))
        .collect();
    let pairs = d.candidate_pairs(&requests, &trips);
    for pair in [(0, 1), (0, 3), (0, 5), (2, 6), (0, 8)] {
        assert!(pairs.contains(&pair), "{pair:?} missing from {pairs:?}");
        assert!(d.is_group_feasible(&requests, &[pair.0, pair.1]));
    }
    assert!(!pairs.contains(&(0, 7)), "{pairs:?}");
    assert!(d.grid_candidate_pairs(&requests).contains(&(0, 7)));
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
