//! Shared-trip route search (§V.A, Theorem 5).
//!
//! Routing a taxi through the pick-up and drop-off locations of a group of
//! requests — pick-up before drop-off for every member — is NP-hard in
//! general (the paper reduces from the Shortest Hamiltonian Path Problem).
//! But "the number of passenger requests for a taxi sharing is usually no
//! greater than three", so the route is found by exhaustive search over the
//! precedence-feasible stop orders: `(2k)! / 2^k` of them — 6 for a pair,
//! 90 for a triple.
//!
//! **Genuine-sharing constraint.** For groups of two or more, the search
//! only considers orders in which the vehicle is never empty strictly
//! between the first pick-up and the last drop-off. Orders that fully
//! complete one trip before starting the next (`p₀ d₀ p₁ d₁`) are
//! back-to-back *re-dispatches*, not shared rides — admitting them makes
//! every pair of requests trivially "shareable" with zero detour, which
//! degenerates the paper's Maximum Set Packing stage (every request packs
//! with every other). This is the standard shareability definition (cf.
//! Santi et al.'s shareability networks) and the only reading under which
//! the paper's detour threshold θ has any bite.

use o2o_geo::{Metric, Point};
use o2o_trace::Request;

/// Whether a [`Stop`] picks a passenger up or drops them off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopKind {
    /// The taxi collects the member here (`r^s`).
    Pickup,
    /// The taxi delivers the member here (`r^d`).
    Dropoff,
}

/// One stop of a shared route.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stop {
    /// Index of the member within the group (0-based).
    pub member: usize,
    /// Pick-up or drop-off.
    pub kind: StopKind,
    /// Location of the stop.
    pub location: Point,
}

/// An ordered shared route with per-member distance accounting.
///
/// Distances are *along the route*: `pickup_offset[m]` is the driving
/// distance from the route's first stop to member `m`'s pick-up, and
/// `onboard_distance[m]` is the paper's `D_ck(r_m^s, r_m^d)` — the distance
/// the member actually rides.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutePlan {
    /// Stops in visiting order (`2 × members` of them).
    pub stops: Vec<Stop>,
    /// Driving distance from the first stop through the last.
    pub internal_length: f64,
    /// Along-route distance from the first stop to each member's pick-up.
    pub pickup_offset: Vec<f64>,
    /// Along-route distance each member spends on board
    /// (`D_ck(r^s, r^d)`).
    pub onboard_distance: Vec<f64>,
}

impl RoutePlan {
    /// Number of members served by the route.
    #[must_use]
    pub fn members(&self) -> usize {
        self.pickup_offset.len()
    }

    /// Location of the first stop.
    ///
    /// # Panics
    ///
    /// Panics on an empty route.
    #[must_use]
    pub fn first_stop(&self) -> Point {
        self.stops.first().expect("route has stops").location
    }

    /// Member `m`'s detour against its direct distance `direct`:
    /// `D_ck(r^s, r^d) − D(r^s, r^d)` (≥ 0 whenever the metric satisfies
    /// the triangle inequality).
    #[must_use]
    pub fn detour(&self, m: usize, direct: f64) -> f64 {
        self.onboard_distance[m] - direct
    }

    /// Total taxi driving distance `D_ck(t)` when starting from `start`.
    #[must_use]
    pub fn total_drive<M: Metric>(&self, metric: &M, start: Point) -> f64 {
        metric.distance(start, self.first_stop()) + self.internal_length
    }

    /// Member `m`'s wait distance `D_ck(t, r_m^s)` when the taxi starts
    /// from `start`: approach leg plus the along-route offset of the
    /// member's pick-up.
    #[must_use]
    pub fn wait_distance<M: Metric>(&self, metric: &M, start: Point, m: usize) -> f64 {
        metric.distance(start, self.first_stop()) + self.pickup_offset[m]
    }
}

/// Upper bound on the group size the exhaustive search accepts.
///
/// The paper argues `|c_k| ≤ 3` in practice; 4 is still tractable
/// (2520 orders) and supported for experimentation.
pub const MAX_GROUP_SIZE: usize = 4;

/// Number of precedence-feasible stop orders for a `k`-member group:
/// `(2k)! / 2^k`.
#[must_use]
pub fn feasible_order_count(k: usize) -> usize {
    let fact = |n: usize| (1..=n).product::<usize>();
    fact(2 * k) / 2usize.pow(k as u32)
}

/// The shortest precedence-feasible route over the group, starting at the
/// best first pick-up (no taxi approach leg — the canonical route the
/// paper uses for feasibility checks).
///
/// # Panics
///
/// Panics if the group is empty or larger than [`MAX_GROUP_SIZE`].
#[must_use]
pub fn best_route<M: Metric>(metric: &M, group: &[Request]) -> RoutePlan {
    routes_by_first_pickup(metric, group)
        .into_iter()
        .min_by(|a, b| {
            a.internal_length
                .partial_cmp(&b.internal_length)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("non-empty group")
}

/// The shortest route over the group for a taxi starting at `start`
/// (approach leg included in the minimised objective).
///
/// # Panics
///
/// Panics if the group is empty or larger than [`MAX_GROUP_SIZE`].
#[must_use]
pub fn best_route_from<M: Metric>(metric: &M, start: Point, group: &[Request]) -> RoutePlan {
    routes_by_first_pickup(metric, group)
        .into_iter()
        .min_by(|a, b| {
            let la = metric.distance(start, a.first_stop()) + a.internal_length;
            let lb = metric.distance(start, b.first_stop()) + b.internal_length;
            la.partial_cmp(&lb).unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("non-empty group")
}

/// Whether every member's detour on the *length-minimal genuinely-shared*
/// route of `group` is within `theta` — the paper's stage-1 feasibility
/// test (`D_ck(r^s, r^d) − D(r^s, r^d) ≤ θ` on the canonical route),
/// computed without allocating a [`RoutePlan`].
///
/// Equivalent to checking [`best_route`]'s detours, but allocation-free:
/// Algorithm 3 runs this over every candidate pair/triple of a frame, so
/// it is the hottest loop of the sharing pipeline.
///
/// # Panics
///
/// Panics if the group is empty or larger than [`MAX_GROUP_SIZE`].
#[must_use]
pub fn min_route_within_detour<M: Metric>(metric: &M, group: &[Request], theta: f64) -> bool {
    min_route_length_if_within_detour(metric, group, theta).is_some()
}

/// Like [`min_route_within_detour`], but returning the *internal length*
/// of the canonical (length-minimal genuinely-shared) route when it is
/// detour-compliant, `None` otherwise.
///
/// The length doubles as a compatibility score: Algorithm 3's bounded
/// candidate generation keeps each request's lowest-scoring partners.
///
/// # Panics
///
/// Panics if the group is empty or larger than [`MAX_GROUP_SIZE`].
#[must_use]
pub fn min_route_length_if_within_detour<M: Metric>(
    metric: &M,
    group: &[Request],
    theta: f64,
) -> Option<f64> {
    check_group_size(group.len());
    min_route_length_on(&measure_legs(metric, group), group.len(), theta)
}

/// [`min_route_length_if_within_detour`] over a filled leg matrix of a
/// `k`-member group: the search itself, which reads every leg it needs
/// from `leg` and measures nothing.
pub(crate) fn min_route_length_on(leg: &Legs, k: usize, theta: f64) -> Option<f64> {
    if k == 1 {
        // A lone rider never detours.
        return Some(leg[0][1]);
    }
    let mut max_onboard = [0.0f64; MAX_GROUP_SIZE];
    for (m, slot) in max_onboard.iter_mut().enumerate().take(k) {
        *slot = leg[m][k + m] + theta;
    }

    struct Lean<'a> {
        k: usize,
        leg: &'a Legs,
        max_onboard: [f64; MAX_GROUP_SIZE],
        best_len: f64,
        best_ok: bool,
        pickup_at: [f64; MAX_GROUP_SIZE],
        onboard: [f64; MAX_GROUP_SIZE],
        last: usize,
    }

    impl Lean<'_> {
        fn run(&mut self, picked: u32, dropped: u32, depth: usize, length: f64) {
            if length >= self.best_len {
                return;
            }
            if depth == 2 * self.k {
                self.best_len = length;
                self.best_ok = (0..self.k).all(|m| self.onboard[m] <= self.max_onboard[m] + 1e-9);
                return;
            }
            let last = self.last;
            let is_final = depth + 1 == 2 * self.k;
            for m in 0..self.k {
                let bit = 1u32 << m;
                if picked & bit == 0 {
                    let new_len = length + self.leg[last][m];
                    let saved = self.pickup_at[m];
                    self.pickup_at[m] = new_len;
                    self.last = m;
                    self.run(picked | bit, dropped, depth + 1, new_len);
                    self.last = last;
                    self.pickup_at[m] = saved;
                } else if dropped & bit == 0 {
                    let onboard_after = picked.count_ones() - dropped.count_ones() - 1;
                    if !is_final && onboard_after == 0 {
                        continue; // genuine sharing: never empty mid-route
                    }
                    let stop = self.k + m;
                    let new_len = length + self.leg[last][stop];
                    let saved = self.onboard[m];
                    self.onboard[m] = new_len - self.pickup_at[m];
                    self.last = stop;
                    self.run(picked, dropped | bit, depth + 1, new_len);
                    self.last = last;
                    self.onboard[m] = saved;
                }
            }
        }
    }

    let mut state = Lean {
        k,
        leg,
        max_onboard,
        best_len: f64::INFINITY,
        best_ok: false,
        pickup_at: [0.0; MAX_GROUP_SIZE],
        onboard: [0.0; MAX_GROUP_SIZE],
        last: 0,
    };
    for first in 0..k {
        state.pickup_at = [0.0; MAX_GROUP_SIZE];
        state.onboard = [0.0; MAX_GROUP_SIZE];
        state.last = first;
        state.run(1 << first, 0, 1, 0.0);
    }
    state.best_ok.then_some(state.best_len)
}

/// The shortest route whose every member's detour stays within `theta`,
/// for a taxi starting at `start` (pass `None` to omit the approach leg),
/// or `None` when no precedence-feasible order is detour-compliant.
///
/// Unlike [`best_route_from`] — which optimises length alone — this search
/// treats the detour budget as a hard constraint, which is what the
/// insertion-style baselines need ("insert the request iff *some*
/// compliant order exists").
///
/// # Panics
///
/// Panics if the group is empty or larger than [`MAX_GROUP_SIZE`].
#[must_use]
pub fn best_route_within_detour<M: Metric>(
    metric: &M,
    start: Option<Point>,
    group: &[Request],
    theta: f64,
) -> Option<RoutePlan> {
    let k = group.len();
    check_group_size(k);
    let loc = |s: usize| stop_location(group, s);
    let directs: Vec<f64> = group.iter().map(|r| r.trip_distance(metric)).collect();
    let n = 2 * k;
    let leg = measure_legs(metric, group);

    struct Search<'a> {
        k: usize,
        leg: &'a Legs,
        directs: &'a [f64],
        theta: f64,
        best_len: f64,
        best_seq: Vec<usize>,
        seq: Vec<usize>,
        /// Along-route position of each member's pickup (valid once picked).
        pickup_at: Vec<f64>,
    }

    impl Search<'_> {
        fn run(&mut self, picked: u32, dropped: u32, length: f64) {
            if length >= self.best_len {
                return;
            }
            if self.seq.len() == 2 * self.k {
                self.best_len = length;
                self.best_seq = self.seq.clone();
                return;
            }
            let last = *self.seq.last().expect("seeded");
            for m in 0..self.k {
                let bit = 1u32 << m;
                if picked & bit == 0 {
                    self.seq.push(m);
                    let saved = self.pickup_at[m];
                    self.pickup_at[m] = length + self.leg[last][m];
                    self.run(picked | bit, dropped, length + self.leg[last][m]);
                    self.pickup_at[m] = saved;
                    self.seq.pop();
                } else if dropped & bit == 0 {
                    // Genuine sharing: a non-final drop-off may not empty
                    // the vehicle.
                    let is_final = self.seq.len() + 1 == 2 * self.k;
                    let onboard_after = picked.count_ones() - dropped.count_ones() - 1;
                    if self.k > 1 && !is_final && onboard_after == 0 {
                        continue;
                    }
                    let stop = self.k + m;
                    let new_len = length + self.leg[last][stop];
                    // Hard constraint: member m's onboard distance.
                    if new_len - self.pickup_at[m] - self.directs[m] <= self.theta + 1e-9 {
                        self.seq.push(stop);
                        self.run(picked, dropped | bit, new_len);
                        self.seq.pop();
                    }
                }
            }
        }
    }

    let mut best: Option<(f64, Vec<usize>, f64)> = None; // (score, seq, approach)
    for first in 0..k {
        let approach = start.map_or(0.0, |s| metric.distance(s, loc(first)));
        let budget = best.as_ref().map_or(f64::INFINITY, |(b, _, _)| *b) - approach;
        if budget <= 0.0 {
            continue;
        }
        let mut search = Search {
            k,
            leg: &leg,
            directs: &directs,
            theta,
            best_len: budget,
            best_seq: Vec::new(),
            seq: vec![first],
            pickup_at: vec![0.0; k],
        };
        search.run(1 << first, 0, 0.0);
        if !search.best_seq.is_empty() {
            best = Some((approach + search.best_len, search.best_seq, approach));
        }
    }
    let (_, seq, _) = best?;
    // Rebuild the accounting for the winning order.
    let mut prefix = vec![0.0; n];
    for i in 1..n {
        prefix[i] = prefix[i - 1] + leg[seq[i - 1]][seq[i]];
    }
    let mut pickup_offset = vec![0.0; k];
    let mut onboard = vec![0.0; k];
    for (i, &s) in seq.iter().enumerate() {
        if s < k {
            pickup_offset[s] = prefix[i];
        } else {
            onboard[s - k] = prefix[i] - pickup_offset[s - k];
        }
    }
    let stops = seq
        .iter()
        .map(|&s| Stop {
            member: if s < k { s } else { s - k },
            kind: if s < k {
                StopKind::Pickup
            } else {
                StopKind::Dropoff
            },
            location: loc(s),
        })
        .collect();
    Some(RoutePlan {
        stops,
        internal_length: prefix[n - 1],
        pickup_offset,
        onboard_distance: onboard,
    })
}

/// For each member, the best route that starts at *that member's pick-up*.
///
/// This is the key to cheap per-taxi evaluation in Algorithm 3: the
/// approach leg `D(t, first)` is the only taxi-dependent term, and the
/// first stop must be one of the `k` pick-ups, so a taxi's best route is
/// `min_p D(t, p) + internal(p)` over these `k` precomputed plans.
///
/// # Panics
///
/// Panics if the group is empty or larger than [`MAX_GROUP_SIZE`].
#[must_use]
pub fn routes_by_first_pickup<M: Metric>(metric: &M, group: &[Request]) -> Vec<RoutePlan> {
    check_group_size(group.len());
    routes_by_first_pickup_on(&measure_legs(metric, group), group)
}

/// [`routes_by_first_pickup`] over a filled leg matrix of `group`: the
/// search itself, which reads every leg it needs from `leg` and takes
/// only the stops' locations from `group`.
pub(crate) fn routes_by_first_pickup_on(leg: &Legs, group: &[Request]) -> Vec<RoutePlan> {
    let k = group.len();
    let n = 2 * k;

    struct Search<'a> {
        k: usize,
        leg: &'a Legs,
        best_len: f64,
        best_seq: Vec<usize>,
        seq: Vec<usize>,
    }

    impl Search<'_> {
        fn run(&mut self, picked: u32, dropped: u32, length: f64) {
            if length >= self.best_len {
                return; // branch-and-bound prune
            }
            if self.seq.len() == 2 * self.k {
                self.best_len = length;
                self.best_seq = self.seq.clone();
                return;
            }
            let last = *self.seq.last().expect("seeded with the first stop");
            let is_final = self.seq.len() + 1 == 2 * self.k;
            for m in 0..self.k {
                let pickup_bit = 1u32 << m;
                if picked & pickup_bit == 0 {
                    self.seq.push(m);
                    self.run(picked | pickup_bit, dropped, length + self.leg[last][m]);
                    self.seq.pop();
                } else if dropped & pickup_bit == 0 {
                    // Genuine sharing: a non-final drop-off may not empty
                    // the vehicle.
                    let onboard_after = picked.count_ones() - dropped.count_ones() - 1;
                    if self.k > 1 && !is_final && onboard_after == 0 {
                        continue;
                    }
                    let stop = self.k + m;
                    self.seq.push(stop);
                    self.run(picked, dropped | pickup_bit, length + self.leg[last][stop]);
                    self.seq.pop();
                }
            }
        }
    }

    (0..k)
        .map(|first| {
            let mut search = Search {
                k,
                leg,
                best_len: f64::INFINITY,
                best_seq: Vec::new(),
                seq: vec![first],
            };
            search.run(1 << first, 0, 0.0);
            let seq = search.best_seq;
            debug_assert_eq!(seq.len(), n);
            // Prefix distances along the chosen order.
            let mut prefix = vec![0.0; n];
            for i in 1..n {
                prefix[i] = prefix[i - 1] + leg[seq[i - 1]][seq[i]];
            }
            let mut pickup_offset = vec![0.0; k];
            let mut onboard = vec![0.0; k];
            for (i, &s) in seq.iter().enumerate() {
                if s < k {
                    pickup_offset[s] = prefix[i];
                } else {
                    onboard[s - k] = prefix[i] - pickup_offset[s - k];
                }
            }
            let stops = seq
                .iter()
                .map(|&s| Stop {
                    member: if s < k { s } else { s - k },
                    kind: if s < k {
                        StopKind::Pickup
                    } else {
                        StopKind::Dropoff
                    },
                    location: stop_location(group, s),
                })
                .collect();
            RoutePlan {
                stops,
                internal_length: search.best_len,
                pickup_offset,
                onboard_distance: onboard,
            }
        })
        .collect()
}

/// Stop-to-stop distances of a group of at most [`MAX_GROUP_SIZE`]
/// members: stop `i < k` is member `i`'s pick-up, stop `k + i` its
/// drop-off, and `leg[x][y]` is `metric.distance(stop x, stop y)`. The
/// route searches never read a member's own drop-off-to-pick-up entry,
/// because a drop-off always follows its own pick-up.
pub(crate) type Legs = [[f64; 2 * MAX_GROUP_SIZE]; 2 * MAX_GROUP_SIZE];

/// The eight directed legs between two requests' end-points, in
/// [`CROSS_LEGS`] order.
pub(crate) type PairLegs = [f64; 8];

/// The legs between the members of a pair `[a, b]` that a route search
/// can read, as `(from, to)` stops of that pair (0 is `a`'s pick-up, 1
/// `b`'s, 2 `a`'s drop-off, 3 `b`'s): `a_s→b_s`, `b_s→a_s`, `a_s→b_d`,
/// `b_d→a_s`, `b_s→a_d`, `a_d→b_s`, `a_d→b_d`, `b_d→a_d`. Each member's
/// own trip is measured once per request. Its own drop-off-to-pick-up leg
/// is not measured at all: a drop-off always follows its own pick-up, so
/// no route search reads it, and [`assemble_legs`] leaves it 0.
const CROSS_LEGS: [(usize, usize); 8] = [
    (0, 1),
    (1, 0),
    (0, 3),
    (3, 0),
    (1, 2),
    (2, 1),
    (2, 3),
    (3, 2),
];

/// The cross legs of `a` and `b`, each one `metric.distance(from, to)`.
pub(crate) fn measure_pair_legs<M: Metric>(metric: &M, a: &Request, b: &Request) -> PairLegs {
    let pair = [*a, *b];
    CROSS_LEGS
        .map(|(from, to)| metric.distance(stop_location(&pair, from), stop_location(&pair, to)))
}

/// The [`Legs`] of a `k`-member group from each member's trip, `trip(i)`,
/// and each member pair's cross legs, `pair(i, j)` for positions
/// `i < j`: the [`PairLegs`] of the pair `[group[i], group[j]]`.
pub(crate) fn assemble_legs(
    k: usize,
    trip: impl Fn(usize) -> f64,
    pair: impl Fn(usize, usize) -> PairLegs,
) -> Legs {
    let mut leg = [[0.0; 2 * MAX_GROUP_SIZE]; 2 * MAX_GROUP_SIZE];
    for i in 0..k {
        leg[i][k + i] = trip(i);
        for j in i + 1..k {
            let stop = |s: usize| [i, j, k + i, k + j][s];
            for (&(from, to), &d) in CROSS_LEGS.iter().zip(&pair(i, j)) {
                leg[stop(from)][stop(to)] = d;
            }
        }
    }
    leg
}

/// Every leg of `group`, measured from `metric`.
fn measure_legs<M: Metric>(metric: &M, group: &[Request]) -> Legs {
    let n = 2 * group.len();
    let mut leg = [[0.0; 2 * MAX_GROUP_SIZE]; 2 * MAX_GROUP_SIZE];
    for (a, row) in leg.iter_mut().enumerate().take(n) {
        for (b, cell) in row.iter_mut().enumerate().take(n) {
            if a != b {
                *cell = metric.distance(stop_location(group, a), stop_location(group, b));
            }
        }
    }
    leg
}

/// Location of stop `s` of `group` in the [`Legs`] numbering.
fn stop_location(group: &[Request], s: usize) -> Point {
    let k = group.len();
    if s < k {
        group[s].pickup
    } else {
        group[s - k].dropoff
    }
}

fn check_group_size(k: usize) {
    assert!(
        (1..=MAX_GROUP_SIZE).contains(&k),
        "group size {k} outside 1..={MAX_GROUP_SIZE}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2o_geo::Euclidean;
    use o2o_trace::RequestId;
    use proptest::prelude::*;

    fn req(id: u64, sx: f64, sy: f64, dx: f64, dy: f64) -> Request {
        Request::new(RequestId(id), 0, Point::new(sx, sy), Point::new(dx, dy))
    }

    #[test]
    fn order_counts_match_paper() {
        assert_eq!(feasible_order_count(1), 1);
        assert_eq!(feasible_order_count(2), 6);
        assert_eq!(feasible_order_count(3), 90); // the paper's 6!/2!2!2!
    }

    #[test]
    fn singleton_route_is_direct() {
        let r = req(0, 0.0, 0.0, 3.0, 4.0);
        let plan = best_route(&Euclidean, &[r]);
        assert_eq!(plan.internal_length, 5.0);
        assert_eq!(plan.pickup_offset, vec![0.0]);
        assert_eq!(plan.onboard_distance, vec![5.0]);
        assert_eq!(plan.stops.len(), 2);
        assert_eq!(plan.stops[0].kind, StopKind::Pickup);
        assert_eq!(plan.stops[1].kind, StopKind::Dropoff);
    }

    #[test]
    fn collinear_pair_chains_perfectly() {
        // a: 0 → 10; b: 2 → 8. Optimal: a+ b+ b- a-, length 10, no detour
        // for a, none for b.
        let a = req(0, 0.0, 0.0, 10.0, 0.0);
        let b = req(1, 2.0, 0.0, 8.0, 0.0);
        let plan = best_route(&Euclidean, &[a, b]);
        assert!((plan.internal_length - 10.0).abs() < 1e-12);
        assert_eq!(plan.detour(0, 10.0), 0.0);
        assert_eq!(plan.detour(1, 6.0), 0.0);
        assert_eq!(plan.pickup_offset, vec![0.0, 2.0]);
    }

    #[test]
    fn precedence_is_respected() {
        let a = req(0, 0.0, 0.0, 1.0, 0.0);
        let b = req(1, 5.0, 0.0, 6.0, 0.0);
        let c = req(2, 2.0, 2.0, 3.0, 2.0);
        for plan in routes_by_first_pickup(&Euclidean, &[a, b, c]) {
            let mut on_board = [false; 3];
            for (i, stop) in plan.stops.iter().enumerate() {
                match stop.kind {
                    StopKind::Pickup => on_board[stop.member] = true,
                    StopKind::Dropoff => {
                        assert!(on_board[stop.member], "dropoff before pickup");
                        on_board[stop.member] = false;
                        let occupancy = on_board.iter().filter(|&&b| b).count();
                        assert!(
                            occupancy > 0 || i + 1 == plan.stops.len(),
                            "vehicle empty mid-route"
                        );
                    }
                }
            }
            assert_eq!(plan.stops.len(), 6);
        }
    }

    #[test]
    fn best_route_from_accounts_for_approach() {
        // Two pickups far apart; the taxi sits next to the "worse" one.
        let a = req(0, 0.0, 0.0, 1.0, 0.0);
        let b = req(1, 100.0, 0.0, 101.0, 0.0);
        let near_b = Point::new(99.0, 0.0);
        let plan = best_route_from(&Euclidean, near_b, &[a, b]);
        assert_eq!(plan.stops[0].member, 1, "starts at the nearby pickup");
    }

    #[test]
    fn wait_and_drive_accessors() {
        let a = req(0, 1.0, 0.0, 2.0, 0.0);
        let plan = best_route(&Euclidean, &[a]);
        let start = Point::new(0.0, 0.0);
        assert_eq!(plan.total_drive(&Euclidean, start), 2.0);
        assert_eq!(plan.wait_distance(&Euclidean, start, 0), 1.0);
        assert_eq!(plan.first_stop(), Point::new(1.0, 0.0));
    }

    #[test]
    fn constrained_search_respects_both_constraints() {
        // Crossing trips: every genuinely-shared (never-empty) order
        // forces a large detour on one member, so a tight budget admits
        // nothing; a budget above that detour admits the interleaving.
        let a = req(0, 0.0, 0.0, 20.0, 0.0);
        let b = Request::new(
            RequestId(1),
            0,
            Point::new(10.0, 5.0),
            Point::new(10.0, -5.0),
        );
        let unconstrained = best_route(&Euclidean, &[a, b]);
        assert!(
            unconstrained.detour(0, 20.0) > 5.0,
            "premise: min route detours"
        );
        assert!(best_route_within_detour(&Euclidean, None, &[a, b], 1.0).is_none());
        let plan = best_route_within_detour(&Euclidean, None, &[a, b], 13.0)
            .expect("interleaved order fits a 13 km budget");
        assert!(plan.detour(0, 20.0) <= 13.0 + 1e-9);
        assert!(plan.detour(1, 10.0) <= 13.0 + 1e-9);
    }

    #[test]
    fn opposite_trips_are_not_shareable_within_tight_budget() {
        // Identical pickup, opposite dropoffs. Every genuinely-shared
        // order gives one member a 20 km detour (sequential back-to-back
        // service is *not* sharing and is excluded), so a 5 km budget
        // admits nothing and a 20 km budget admits the interleaving.
        let a = req(0, 0.0, 0.0, 10.0, 0.0);
        let b = req(1, 0.0, 0.0, -10.0, 0.0);
        assert!(best_route_within_detour(&Euclidean, None, &[a, b], 5.0).is_none());
        let loose = best_route_within_detour(&Euclidean, None, &[a, b], 20.0)
            .expect("20 km budget admits the interleaved route");
        assert!((loose.internal_length - 30.0).abs() < 1e-9);
        assert!(loose.detour(0, 10.0).max(loose.detour(1, 10.0)) <= 20.0 + 1e-9);
    }

    #[test]
    fn constrained_search_with_start_prefers_near_first_stop() {
        let a = req(0, 0.0, 0.0, 1.0, 0.0);
        let b = req(1, 100.0, 0.0, 101.0, 0.0);
        let plan = best_route_within_detour(
            &Euclidean,
            Some(Point::new(99.0, 0.0)),
            &[a, b],
            f64::INFINITY,
        )
        .unwrap();
        assert_eq!(plan.stops[0].member, 1);
    }

    #[test]
    fn constrained_matches_unconstrained_with_infinite_budget() {
        let group = [
            req(0, 0.0, 0.0, 5.0, 1.0),
            req(1, 1.0, 2.0, 4.0, -1.0),
            req(2, -2.0, 1.0, 3.0, 3.0),
        ];
        let unconstrained = best_route(&Euclidean, &group);
        let constrained =
            best_route_within_detour(&Euclidean, None, &group, f64::INFINITY).unwrap();
        assert!((constrained.internal_length - unconstrained.internal_length).abs() < 1e-9);
    }

    #[test]
    fn lean_feasibility_matches_plan_based_check() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xFEA51B1E);
        for _ in 0..500 {
            let k = rng.gen_range(1..=3);
            let group: Vec<Request> = (0..k)
                .map(|i| {
                    req(
                        i as u64,
                        rng.gen_range(-6.0..6.0),
                        rng.gen_range(-6.0..6.0),
                        rng.gen_range(-6.0..6.0),
                        rng.gen_range(-6.0..6.0),
                    )
                })
                .collect();
            let theta = rng.gen_range(0.0..8.0);
            let lean = min_route_within_detour(&Euclidean, &group, theta);
            let plan = best_route(&Euclidean, &group);
            let full = group
                .iter()
                .enumerate()
                .all(|(m, r)| plan.detour(m, r.trip_distance(&Euclidean)) <= theta + 1e-9);
            assert_eq!(lean, full, "k={k} theta={theta}");
        }
    }

    #[test]
    #[should_panic(expected = "group size")]
    fn oversize_group_panics() {
        let rs: Vec<Request> = (0..5).map(|i| req(i, 0.0, 0.0, 1.0, 0.0)).collect();
        let _ = best_route(&Euclidean, &rs);
    }

    #[test]
    #[should_panic(expected = "group size")]
    fn empty_group_panics() {
        let _ = best_route(&Euclidean, &[]);
    }

    /// Exhaustive reference: enumerate all orders without pruning.
    fn brute_best_length(group: &[Request], first: usize) -> f64 {
        fn rec(
            group: &[Request],
            seq: &mut Vec<usize>,
            picked: u32,
            dropped: u32,
            len: f64,
            cur: Point,
            best: &mut f64,
        ) {
            let k = group.len();
            if seq.len() == 2 * k {
                *best = best.min(len);
                return;
            }
            for m in 0..k {
                let bit = 1u32 << m;
                if picked & bit == 0 {
                    let p = group[m].pickup;
                    seq.push(m);
                    rec(
                        group,
                        seq,
                        picked | bit,
                        dropped,
                        len + cur.euclidean(p),
                        p,
                        best,
                    );
                    seq.pop();
                } else if dropped & bit == 0 {
                    let onboard_after = picked.count_ones() - dropped.count_ones() - 1;
                    if k > 1 && seq.len() + 1 < 2 * k && onboard_after == 0 {
                        continue;
                    }
                    let d = group[m].dropoff;
                    seq.push(k + m);
                    rec(
                        group,
                        seq,
                        picked,
                        dropped | bit,
                        len + cur.euclidean(d),
                        d,
                        best,
                    );
                    seq.pop();
                }
            }
        }
        let mut best = f64::INFINITY;
        let mut seq = vec![first];
        rec(
            group,
            &mut seq,
            1 << first,
            0,
            0.0,
            group[first].pickup,
            &mut best,
        );
        best
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Pruned search equals the unpruned exhaustive optimum, and the
        /// accounting is internally consistent.
        #[test]
        fn search_is_exact_and_consistent(
            coords in proptest::collection::vec((-10.0..10.0f64, -10.0..10.0f64), 4..=6),
        ) {
            prop_assume!(coords.len() % 2 == 0);
            let k = coords.len() / 2;
            let group: Vec<Request> = (0..k)
                .map(|i| req(
                    i as u64,
                    coords[2 * i].0, coords[2 * i].1,
                    coords[2 * i + 1].0, coords[2 * i + 1].1,
                ))
                .collect();
            for (first, plan) in routes_by_first_pickup(&Euclidean, &group)
                .into_iter().enumerate()
            {
                let brute = brute_best_length(&group, first);
                prop_assert!((plan.internal_length - brute).abs() < 1e-9);
                // Stops realise the reported length.
                let polyline: Vec<Point> = plan.stops.iter().map(|s| s.location).collect();
                let realized = Euclidean.path_length(&polyline);
                prop_assert!((realized - plan.internal_length).abs() < 1e-9);
                // Detour is non-negative under the triangle inequality.
                for (m, member) in group.iter().enumerate().take(k) {
                    let direct = member.trip_distance(&Euclidean);
                    prop_assert!(plan.detour(m, direct) >= -1e-9);
                    prop_assert!(plan.pickup_offset[m] <= plan.internal_length + 1e-9);
                }
            }
        }
    }
}
