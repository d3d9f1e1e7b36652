//! Sharing taxi dispatch — the paper's Algorithm 3 (STD-P / STD-T).
//!
//! Three stages:
//!
//! 1. **Feasible subsets** (`line 1`): exhaustively enumerate groups
//!    `c_k` of at most `max_group_size` requests whose canonical shared
//!    route keeps every member's detour within θ
//!    (`D_ck(r^s, r^d) − D(r^s, r^d) ≤ θ`).
//! 2. **Maximum set packing** (`line 2`, Eqs. 1–3): pack as many disjoint
//!    groups as possible with the configured
//!    [`SetPackingStrategy`].
//! 3. **Stable matching** (`line 3`): treat each packed group (and each
//!    leftover request) as a single meta-request and run Algorithm 1 with
//!    the sharing interest models — passenger key
//!    `D_ck(t, r^s) + β·[D_ck(r^s, r^d) − D(r^s, r^d)]` averaged over the
//!    group, driver key `D_ck(t) − (α+1)·Σ_j D(r_j^s, r_j^d)`.
//!
//! Stage 3 is sparse, keyed and banded. A group's row holds the mutually
//! acceptable taxis within a per-plan radius of the plan's first stop,
//! keyed by both agents' keys; pairs outside the radius cannot be
//! mutually acceptable, and non-mutual pairs are no-ops in deferred
//! acceptance, so the matching equals the dense one over every
//! `(group, taxi)` pair. When taxis propose (STD-T) every row is built
//! whole. When groups propose (STD-P) a row is built a band at a time: a
//! group evaluates only the taxis whose Euclidean lower bound on its
//! passenger key lies in its band, and a group that runs out of entries
//! widens its band while deferred acceptance resumes from its held state.
//! Deferred acceptance never reads a row past the proposal that ends its
//! group's search, so the matching and the proposals it makes equal one
//! solve on the full rows.

use crate::prefs::build_taxi_grid;
use crate::shared_route::{
    assemble_legs, measure_pair_legs, min_route_length_if_within_detour, min_route_length_on,
    routes_by_first_pickup_on, Legs, PairLegs, RoutePlan,
};
use crate::{PreferenceParams, Schedule};
use o2o_geo::{GridIndex, Metric, Point};
use o2o_matching::{KeyedCandidates, KeyedMatch, Proposing, SetPacking, SetPackingStrategy};
use o2o_obs as obs;
use o2o_par::{par_map, Parallelism};
use o2o_trace::{Request, RequestId, Taxi, TaxiId};

#[cfg(test)]
mod equivalence;

/// What stage 2's packing maximises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PackingObjective {
    /// The paper's Eq. 1: maximise the number of packed subsets.
    #[default]
    GroupCount,
    /// Maximise the number of *requests covered* by packed subsets
    /// (weights each group by its size) — an extension; see the
    /// count-vs-coverage ablation.
    CoveredRequests,
}

/// How stage 1 generates candidate triples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TripleCandidates {
    /// Only triples whose three sub-pairs are all feasible are routed —
    /// the shareability-network pruning (Santi et al.); cubically fewer
    /// route searches with negligible loss in practice.
    #[default]
    FromFeasiblePairs,
    /// Route every triple, exactly as the paper's `O(|R|³)` line 1.
    Exhaustive,
}

/// Configuration of the sharing dispatcher.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharingConfig {
    /// Set-packing solver for stage 2 (paper: the approximation of \[21\],
    /// here [`SetPackingStrategy::LocalSearch`]).
    pub packing: SetPackingStrategy,
    /// Candidate-triple generation policy.
    pub triples: TripleCandidates,
    /// Largest group size (paper: 3; `1` disables sharing entirely and
    /// recovers non-sharing dispatch).
    pub max_group_size: usize,
    /// Stage-2 objective (paper: group count).
    pub objective: PackingObjective,
    /// Keep only each request's `k` most compatible partners (smallest
    /// canonical shared-route length) when generating candidate groups —
    /// the standard k-nearest-neighbour shareability construction. Dense
    /// commuter demand makes *most* pairs detour-feasible, so the
    /// unbounded candidate set is `Θ(|R|²)` pairs and worse for triples;
    /// the cap keeps stage 1 linear in `|R|` with negligible packing
    /// loss. `None` enumerates every feasible group (the paper's literal
    /// `O(|R|³)` — use only for small frames).
    pub max_partners_per_request: Option<usize>,
}

impl Default for SharingConfig {
    fn default() -> Self {
        SharingConfig {
            packing: SetPackingStrategy::LocalSearch,
            triples: TripleCandidates::FromFeasiblePairs,
            objective: PackingObjective::GroupCount,
            max_group_size: 3,
            max_partners_per_request: Some(6),
        }
    }
}

/// One taxi serving a (possibly singleton) group of requests.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupAssignment {
    /// The dispatched taxi.
    pub taxi: TaxiId,
    /// Members of the group.
    pub members: Vec<RequestId>,
    /// The route the taxi drives (chosen to minimise total driving from
    /// the taxi's location).
    pub route: RoutePlan,
    /// Per-member wait distance `D_ck(t, r^s)`.
    pub wait_distances: Vec<f64>,
    /// Per-member detour `D_ck(r^s, r^d) − D(r^s, r^d)`.
    pub detours: Vec<f64>,
    /// Per-member passenger dissatisfaction `wait + β·detour`.
    pub passenger_costs: Vec<f64>,
    /// Taxi dissatisfaction `D_ck(t) − (α+1)·Σ_j D(r_j^s, r_j^d)`.
    pub taxi_cost: f64,
    /// Total taxi driving distance `D_ck(t)`.
    pub total_drive: f64,
}

/// The outcome of one sharing dispatch frame.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SharingSchedule {
    /// Dispatched groups.
    pub assignments: Vec<GroupAssignment>,
    /// Requests left without a taxi this frame.
    pub unserved: Vec<RequestId>,
}

impl SharingSchedule {
    /// Number of served requests (across all groups).
    #[must_use]
    pub fn served_count(&self) -> usize {
        self.assignments.iter().map(|a| a.members.len()).sum()
    }

    /// Fraction of served requests riding in a group of two or more.
    ///
    /// Returns 0 when nothing is served.
    #[must_use]
    pub fn sharing_rate(&self) -> f64 {
        let served = self.served_count();
        if served == 0 {
            return 0.0;
        }
        let shared: usize = self
            .assignments
            .iter()
            .filter(|a| a.members.len() >= 2)
            .map(|a| a.members.len())
            .sum();
        shared as f64 / served as f64
    }

    /// Passenger dissatisfaction of `r`, if served.
    #[must_use]
    pub fn passenger_dissatisfaction(&self, r: RequestId) -> Option<f64> {
        self.assignments.iter().find_map(|a| {
            a.members
                .iter()
                .position(|&m| m == r)
                .map(|i| a.passenger_costs[i])
        })
    }

    /// Taxi dissatisfaction of `t`, if dispatched.
    #[must_use]
    pub fn taxi_dissatisfaction(&self, t: TaxiId) -> Option<f64> {
        self.assignments
            .iter()
            .find(|a| a.taxi == t)
            .map(|a| a.taxi_cost)
    }

    /// The group served by taxi `t`, if any.
    #[must_use]
    pub fn group_of(&self, t: TaxiId) -> Option<&GroupAssignment> {
        self.assignments.iter().find(|a| a.taxi == t)
    }
}

/// Sharing dispatcher (Algorithm 3); see the module docs for the stages.
///
/// # Examples
///
/// ```
/// use o2o_core::{PreferenceParams, SharingDispatcher};
/// use o2o_geo::{Euclidean, Point};
/// use o2o_trace::{Request, RequestId, Taxi, TaxiId};
///
/// let d = SharingDispatcher::new(Euclidean, PreferenceParams::default());
/// let taxis = vec![Taxi::new(TaxiId(0), Point::new(0.0, 0.0))];
/// let requests = vec![
///     Request::new(RequestId(0), 0, Point::new(1.0, 0.0), Point::new(9.0, 0.0)),
///     Request::new(RequestId(1), 0, Point::new(2.0, 0.0), Point::new(8.0, 0.0)),
/// ];
/// let s = d.dispatch_passenger_optimal(&taxis, &requests);
/// // Both requests chain perfectly, so one taxi serves both.
/// assert_eq!(s.served_count(), 2);
/// assert_eq!(s.assignments[0].members.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SharingDispatcher<M> {
    metric: M,
    params: PreferenceParams,
    config: SharingConfig,
    par: Parallelism,
}

/// The legs stage 1 measured in one frame: every request's trip and,
/// for each pair kept after the partner cap, its [`PairLegs`].
struct FrameLegs {
    trips: Vec<f64>,
    /// Kept pairs `(a, b)`, `a < b`, ascending.
    pairs: Vec<(usize, usize)>,
    /// `legs[p]` are the cross legs of `pairs[p]`.
    legs: Vec<PairLegs>,
}

impl FrameLegs {
    /// The [`Legs`] of the group at `members` (ascending): a kept pair's
    /// from the table, any other pair's — one that exhaustive triples
    /// reach without stage 1 having routed or kept it — from `metric`.
    fn group_legs<M: Metric>(&self, metric: &M, requests: &[Request], members: &[usize]) -> Legs {
        assemble_legs(
            members.len(),
            |i| self.trips[members[i]],
            |i, j| {
                let (a, b) = (members[i], members[j]);
                match self.pairs.binary_search(&(a, b)) {
                    Ok(p) => self.legs[p],
                    Err(_) => measure_pair_legs(metric, &requests[a], &requests[b]),
                }
            },
        )
    }
}

struct GroupData {
    members: Vec<usize>,
    plans: Vec<RoutePlan>,
    directs: Vec<f64>,
    sum_trips: f64,
    total_passengers: u16,
    /// The plans a taxi may drive for the group, in plan order.
    allowed: Vec<PlanBound>,
}

/// An allowed plan of a packed group with the bounds stage 3 reads.
struct PlanBound {
    /// Index into [`GroupData::plans`].
    plan: usize,
    /// The plan's first stop.
    first: Point,
    /// `c_p`: the plan's passenger key less its approach leg.
    cost: f64,
    /// The magnitude of the float sum that gives `cost`.
    magnitude: f64,
    /// Every taxi mutually acceptable with the group through this plan
    /// lies within this Euclidean radius of `first`
    /// ([`SharingDispatcher::plan_bound`]).
    radius: f64,
}

#[derive(Clone, Copy)]
struct Eval {
    plan_idx: usize,
    passenger_cost: f64,
    taxi_cost: f64,
}

/// How far stage 3 has looked through one group's taxis.
///
/// A taxi `t` is *in* the band once it lies within `min(reach − c_p, r_p)`
/// of some allowed plan's first stop: once the lower bound
/// `min_p (‖t − first_p‖ + c_p)` on the group's passenger key for it is
/// at most `reach`, except past a plan's radius `r_p`, beyond which no
/// taxi that plan serves is mutually acceptable. Each widening visits the
/// taxis that join, evaluates them and keeps the mutually acceptable
/// ones; those whose key is at most `reach`, less a float slack, are
/// final.
struct Band {
    /// The smallest `c_p` of the group's allowed plans.
    base: f64,
    /// The largest magnitude behind an allowed plan's `c_p`.
    magnitude: f64,
    /// How far past `base` the next widening reaches: a grid cell at
    /// first, doubling each time; infinite when the first widening goes
    /// straight to every plan's radius.
    width: f64,
    /// The band's upper end; −∞ before the first widening.
    reach: f64,
    /// Taxis visited so far.
    visited: usize,
    /// Every plan has reached its radius, or every taxi has been visited:
    /// all the group's entries are known.
    complete: bool,
    /// Mutually acceptable entries found but not yet final.
    waiting: Vec<(usize, Eval)>,
}

impl Band {
    /// A band of `g` whose first widening reaches `width` past its
    /// smallest `c_p`. A party larger than `seats`, the most seats of any
    /// taxi in the frame, fits no taxi: its band is complete and empty.
    fn new(g: &GroupData, width: f64, seats: u8) -> Band {
        let (base, magnitude) = g
            .allowed
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(base, magnitude), b| {
                (base.min(b.cost), magnitude.max(b.magnitude))
            });
        Band {
            base,
            magnitude,
            width,
            reach: f64::NEG_INFINITY,
            visited: 0,
            complete: g.total_passengers > u16::from(seats),
            waiting: Vec::new(),
        }
    }
}

/// The frame's taxis as banded stage 3 reads them.
struct TaxiSide<'a> {
    taxis: &'a [Taxi],
    grid: GridIndex<usize>,
    /// Per taxi: the last widening whose queries found it.
    seen: Vec<u32>,
    /// The current widening.
    stamp: u32,
}

impl<M: Metric> SharingDispatcher<M> {
    /// Creates a dispatcher with the default [`SharingConfig`].
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`PreferenceParams::validate`].
    #[must_use]
    pub fn new(metric: M, params: PreferenceParams) -> Self {
        Self::with_config(metric, params, SharingConfig::default())
    }

    /// Creates a dispatcher with an explicit config.
    ///
    /// # Panics
    ///
    /// Panics if `params` are invalid or `max_group_size` is outside
    /// `1..=`[`crate::shared_route::MAX_GROUP_SIZE`].
    #[must_use]
    pub fn with_config(metric: M, params: PreferenceParams, config: SharingConfig) -> Self {
        params.validate().expect("invalid preference parameters");
        assert!(
            (1..=crate::shared_route::MAX_GROUP_SIZE).contains(&config.max_group_size),
            "max_group_size {} outside supported range",
            config.max_group_size
        );
        SharingDispatcher {
            metric,
            params,
            config,
            par: Parallelism::sequential(),
        }
    }

    /// Sets the thread budget for the route searches: stage 1's
    /// candidate pairs and triples, and the per-first-pickup plans of
    /// each packed group. Packing and the banded stage 3 — its grid
    /// queries, evaluations and resumed deferred acceptance — run on the
    /// calling thread.
    ///
    /// Results are bit-identical for every setting: the parallel maps
    /// preserve input order and every route search is an independent
    /// computation, so `Parallelism::sequential()` and
    /// `Parallelism::fixed(n)` produce the same schedule.
    #[must_use]
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// The config in use.
    #[must_use]
    pub fn config(&self) -> &SharingConfig {
        &self.config
    }

    /// The thread budget in use.
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        self.par
    }

    /// The metric in use.
    #[must_use]
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// The parameters in use.
    #[must_use]
    pub fn params(&self) -> &PreferenceParams {
        &self.params
    }

    /// Whether the subset of `requests` at `members` can share a taxi:
    /// every member's detour on the group's canonical best route is within
    /// θ (`detour_threshold`).
    #[must_use]
    pub fn is_group_feasible(&self, requests: &[Request], members: &[usize]) -> bool {
        self.canonical_length(requests, members).is_some()
    }

    /// The internal length of the canonical route over the subset of
    /// `requests` at `members`, if every member's detour on it is within
    /// θ.
    fn canonical_length(&self, requests: &[Request], members: &[usize]) -> Option<f64> {
        let mut group = [requests[members[0]]; crate::shared_route::MAX_GROUP_SIZE];
        for (slot, &i) in group.iter_mut().zip(members) {
            *slot = requests[i];
        }
        min_route_length_if_within_detour(
            &self.metric,
            &group[..members.len()],
            self.params.detour_threshold,
        )
    }

    /// Stage 1: all feasible sharing groups (size ≥ 2), as index sets into
    /// `requests`.
    ///
    /// Candidate pairs are pruned spatially before routing (see
    /// [`may_join`]): a shared pair route visits the second pick-up while
    /// the first rider is on board, so that rider's ride bounds where the
    /// other pick-up can lie. One scan over the pairs tests it before any
    /// pair is routed.
    #[must_use]
    pub fn feasible_groups(&self, requests: &[Request]) -> Vec<Vec<usize>> {
        self.scored_groups(requests)
            .1
            .into_iter()
            .map(|(members, _)| members)
            .collect()
    }

    /// Stage 1's candidate pairs `(a, b)`, `a < b`, ascending: `b` may
    /// join `a`'s ride within `trips[a] + θ`, or `a` may join `b`'s within
    /// `trips[b] + θ` ([`may_join`]). A request whose bound `trip + θ` is
    /// not finite pairs with every other request: when its bound is +∞, a
    /// route that starts at its pick-up never breaks its detour, wherever
    /// the other pick-up lies.
    fn candidate_pairs(&self, requests: &[Request], trips: &[f64]) -> Vec<(usize, usize)> {
        let theta = self.params.detour_threshold;
        let ride: Vec<f64> = trips.iter().map(|trip| trip + theta).collect();
        let mut pairs = Vec::new();
        for (a, (ra, &ride_a)) in requests.iter().zip(&ride).enumerate() {
            for (b, (rb, &ride_b)) in requests.iter().zip(&ride).enumerate().skip(a + 1) {
                if !ride_a.is_finite()
                    || !ride_b.is_finite()
                    || may_join(ra, rb, ride_a)
                    || may_join(rb, ra, ride_b)
                {
                    pairs.push((a, b));
                }
            }
        }
        pairs
    }

    /// [`feasible_groups`](Self::feasible_groups), each group with the
    /// internal length of its canonical route — the length stage 1's
    /// feasibility test already computed, kept for `pack`'s ordering —
    /// and the legs stage 1 measured.
    ///
    /// Each candidate pair's cross legs are measured once and every
    /// route search of the frame reads them: the pair's own, its triples'
    /// and the packed groups' plans. Legs are kept only for the pairs
    /// that survive the partner cap, so memory stays linear in them.
    fn scored_groups(&self, requests: &[Request]) -> (FrameLegs, Vec<(Vec<usize>, f64)>) {
        let _span = obs::span("feasible_groups");
        let n = requests.len();
        let mut frame = FrameLegs {
            trips: requests
                .iter()
                .map(|r| r.trip_distance(&self.metric))
                .collect(),
            pairs: Vec::new(),
            legs: Vec::new(),
        };
        let mut out = Vec::new();
        if self.config.max_group_size < 2 || n < 2 {
            return (frame, out);
        }
        let theta = self.params.detour_threshold;
        // Score every candidate pair once (score = canonical route length),
        // keeping the feasible ones with their legs.
        let trips = &frame.trips;
        let feasible: Vec<((usize, usize), f64, PairLegs)> =
            par_map(self.par, self.candidate_pairs(requests, trips), |(a, b)| {
                let legs = measure_pair_legs(&self.metric, &requests[a], &requests[b]);
                let pair = assemble_legs(2, |i| trips[[a, b][i]], |_, _| legs);
                min_route_length_on(&pair, 2, theta).map(|len| ((a, b), len, legs))
            })
            .into_iter()
            .flatten()
            .collect();
        // Bounded candidate generation: keep each request's best partners.
        let kept = match self.config.max_partners_per_request {
            None => vec![true; feasible.len()],
            Some(cap) => {
                // (length, partner, index into `feasible`) per request.
                let mut per_request: Vec<Vec<(f64, usize, usize)>> = vec![Vec::new(); n];
                for (p, &((a, b), len, _)) in feasible.iter().enumerate() {
                    per_request[a].push((len, b, p));
                    per_request[b].push((len, a, p));
                }
                let mut kept = vec![false; feasible.len()];
                for list in &mut per_request {
                    list.sort_by(|x, y| {
                        x.0.partial_cmp(&y.0)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(x.1.cmp(&y.1))
                    });
                    for &(_, _, p) in list.iter().take(cap) {
                        kept[p] = true;
                    }
                }
                kept
            }
        };
        for ((pair, len, legs), _) in feasible.into_iter().zip(kept).filter(|(_, keep)| *keep) {
            frame.pairs.push(pair);
            frame.legs.push(legs);
            out.push((vec![pair.0, pair.1], len));
        }
        if self.config.max_group_size >= 3 {
            let frame = &frame;
            match self.config.triples {
                TripleCandidates::FromFeasiblePairs => {
                    // Each request's later kept partners, ascending, with
                    // the pair's index in `frame.pairs`.
                    let mut partners: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
                    for (p, &(a, b)) in frame.pairs.iter().enumerate() {
                        partners[a].push((b, p));
                    }
                    // Adjacency-closed triples are cheap to enumerate;
                    // route each candidate in parallel from its three
                    // pairs' legs. The gathered order (a, then b's rank,
                    // then c) matches the sequential nesting.
                    let mut triple_cand: Vec<([usize; 3], [usize; 3])> = Vec::new();
                    for (a, row) in partners.iter().enumerate() {
                        for (bi, &(b, ab)) in row.iter().enumerate() {
                            for &(c, ac) in &row[bi + 1..] {
                                if let Ok(ci) = partners[b].binary_search_by_key(&c, |&(c, _)| c) {
                                    triple_cand.push(([a, b, c], [ab, ac, partners[b][ci].1]));
                                }
                            }
                        }
                    }
                    let found = par_map(self.par, triple_cand, |(members, [ab, ac, bc])| {
                        let legs = assemble_legs(
                            3,
                            |i| frame.trips[members[i]],
                            // Positions (0, 1), (0, 2) and (1, 2).
                            |i, j| frame.legs[[ab, ac, bc][i + j - 1]],
                        );
                        min_route_length_on(&legs, 3, theta).map(|len| (members.to_vec(), len))
                    });
                    out.extend(found.into_iter().flatten());
                }
                TripleCandidates::Exhaustive => {
                    // O(n³) route searches: split by leading index so the
                    // candidate list never materialises; chunks come back
                    // in `a` order, matching the sequential nesting.
                    let per_a = par_map(self.par, (0..n).collect::<Vec<usize>>(), |a| {
                        let mut found = Vec::new();
                        for b in (a + 1)..n {
                            for c in (b + 1)..n {
                                let legs = frame.group_legs(&self.metric, requests, &[a, b, c]);
                                if let Some(len) = min_route_length_on(&legs, 3, theta) {
                                    found.push((vec![a, b, c], len));
                                }
                            }
                        }
                        found
                    });
                    out.extend(per_a.into_iter().flatten());
                }
            }
        }
        (frame, out)
    }

    /// Stages 1–2: the packed partition of the frame — disjoint sharing
    /// groups plus leftover singletons, covering every request exactly
    /// once.
    #[must_use]
    pub fn pack(&self, requests: &[Request]) -> Vec<Vec<usize>> {
        self.packed(requests).1
    }

    /// [`pack`](Self::pack), with the legs stage 1 measured for routing
    /// the packed groups.
    fn packed(&self, requests: &[Request]) -> (FrameLegs, Vec<Vec<usize>>) {
        let (frame, mut scored) = self.scored_groups(requests);
        let _span = obs::span("set_packing");
        obs::add("sharing.feasible_groups", scored.len() as u64);
        // Quality-aware ordering: the greedy packer (and the local search
        // seeded from it) prefers smaller sets first and breaks ties by
        // position, so sorting by canonical route length per member makes
        // equal-cardinality packings favour compatible groups. The sort is
        // stable, so equal scores keep stage 1's order.
        scored.sort_by(|(a, a_len), (b, b_len)| {
            (a.len(), a_len / a.len() as f64)
                .partial_cmp(&(b.len(), b_len / b.len() as f64))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let packing = SetPacking::new(
            requests.len(),
            scored.into_iter().map(|(members, _)| members).collect(),
        )
        .expect("feasible groups are valid sets");
        let chosen = match self.config.objective {
            PackingObjective::GroupCount => packing.pack(self.config.packing),
            PackingObjective::CoveredRequests => {
                let sizes: Vec<f64> = (0..packing.n_sets())
                    .map(|k| packing.set(k).len() as f64)
                    .collect();
                packing.pack_weighted(self.config.packing, &sizes)
            }
        };
        let mut covered = vec![false; requests.len()];
        let mut metas: Vec<Vec<usize>> = chosen
            .into_iter()
            .map(|k| {
                let members = packing.set(k);
                for &i in members {
                    covered[i] = true;
                }
                members.to_vec()
            })
            .collect();
        for (i, covered) in covered.iter().enumerate() {
            if !covered {
                metas.push(vec![i]);
            }
        }
        metas.sort();
        (frame, metas)
    }

    /// **STD-P**: sharing dispatch with the passenger-optimal stable
    /// matching in stage 3.
    #[must_use]
    pub fn dispatch_passenger_optimal(
        &self,
        taxis: &[Taxi],
        requests: &[Request],
    ) -> SharingSchedule {
        self.dispatch(taxis, requests, false)
    }

    /// **STD-T**: sharing dispatch with the taxi-optimal stable matching
    /// in stage 3.
    #[must_use]
    pub fn dispatch_taxi_optimal(&self, taxis: &[Taxi], requests: &[Request]) -> SharingSchedule {
        self.dispatch(taxis, requests, true)
    }

    fn group_data(
        &self,
        requests: &[Request],
        frame: &FrameLegs,
        members: Vec<usize>,
    ) -> GroupData {
        let group: Vec<Request> = members.iter().map(|&i| requests[i]).collect();
        let legs = frame.group_legs(&self.metric, requests, &members);
        let plans = routes_by_first_pickup_on(&legs, &group);
        let directs: Vec<f64> = members.iter().map(|&i| frame.trips[i]).collect();
        let sum_trips = directs.iter().sum();
        let total_passengers = group.iter().map(|r| u16::from(r.passengers)).sum();
        let mut g = GroupData {
            members,
            plans,
            directs,
            sum_trips,
            total_passengers,
            allowed: Vec::new(),
        };
        g.allowed = (0..g.plans.len())
            .filter(|&p| self.plan_allowed(&g, &g.plans[p]))
            .map(|p| self.plan_bound(&g, p))
            .collect();
        g
    }

    /// Whether a taxi may drive `plan` for `g`: any plan of a singleton,
    /// otherwise one that keeps every member's detour within θ.
    fn plan_allowed(&self, g: &GroupData, plan: &RoutePlan) -> bool {
        g.members.len() == 1
            || (0..g.members.len())
                .all(|m| plan.detour(m, g.directs[m]) <= self.params.detour_threshold + 1e-9)
    }

    /// Plan `p` of `g` with its `c_p` and the inclusive Euclidean radius
    /// around its first stop within which every taxi that is mutually
    /// acceptable with `g` through the plan lies.
    ///
    /// With approach `a = D(t, first stop)`, the passenger key is
    /// `a + c_p` with `c_p = Σ_m (pickup_offset_m + β·detour_m) / k`, and
    /// the taxi key is `a + internal − (α+1)·Σtrip`; the two thresholds
    /// bound `a` by `min(θ_p − c_p, θ_t + (α+1)·Σtrip − internal)`, and
    /// Euclidean distance lower-bounds the metric. The bound is inflated
    /// by a relative `1e-9` over the magnitudes of its terms, so the
    /// float rounding of [`evaluate`](Self::evaluate)'s sums cannot accept
    /// a taxi outside the disk. `c_p` is negative for some plans when
    /// β < 0, which is why the radius is per plan and not `θ_p` around
    /// every pick-up.
    fn plan_bound(&self, g: &GroupData, p: usize) -> PlanBound {
        let plan = &g.plans[p];
        let k = g.members.len() as f64;
        let (mut cost, mut magnitude) = (0.0, 0.0);
        for m in 0..g.members.len() {
            let offset = plan.pickup_offset[m];
            let detour = self.params.beta * plan.detour(m, g.directs[m]);
            cost += offset + detour;
            magnitude += offset.abs() + detour.abs();
        }
        let (cost, magnitude) = (cost / k, magnitude / k);
        let trips = (self.params.alpha + 1.0) * g.sum_trips;
        let bound = (self.params.passenger_threshold - cost)
            .min(self.params.taxi_threshold + trips - plan.internal_length);
        PlanBound {
            plan: p,
            first: plan.first_stop(),
            cost,
            magnitude,
            radius: bound
                + 1e-9 * (1.0 + bound.abs() + magnitude + trips.abs() + plan.internal_length.abs()),
        }
    }

    fn evaluate(&self, g: &GroupData, taxi: &Taxi) -> Eval {
        // The taxi drives the length-minimal route among the orders that
        // keep every member's detour within θ (the canonical feasible
        // route is always among them, so the choice is never empty). Only
        // the approach leg depends on the taxi, so pick among the
        // per-first-pickup plans.
        let (plan_idx, plan, approach) = g
            .allowed
            .iter()
            .map(|b| {
                let plan = &g.plans[b.plan];
                (b.plan, plan, self.metric.distance(taxi.location, b.first))
            })
            .min_by(|a, b| {
                (a.2 + a.1.internal_length)
                    .partial_cmp(&(b.2 + b.1.internal_length))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("groups are non-empty");
        let total_drive = approach + plan.internal_length;
        let k = g.members.len() as f64;
        let passenger_cost = (0..g.members.len())
            .map(|m| {
                let wait = approach + plan.pickup_offset[m];
                let detour = plan.detour(m, g.directs[m]);
                wait + self.params.beta * detour
            })
            .sum::<f64>()
            / k;
        let taxi_cost = total_drive - (self.params.alpha + 1.0) * g.sum_trips;
        Eval {
            plan_idx,
            passenger_cost,
            taxi_cost,
        }
    }

    /// Whether the group's party fits the taxi.
    fn fits(g: &GroupData, taxi: &Taxi) -> bool {
        g.total_passengers <= u16::from(taxi.seats)
    }

    /// `taxi` evaluated for `g`, if the two are mutually acceptable.
    fn acceptable(&self, g: &GroupData, taxi: &Taxi) -> Option<Eval> {
        if !Self::fits(g, taxi) {
            return None;
        }
        let e = self.evaluate(g, taxi);
        (e.passenger_cost <= self.params.passenger_threshold
            && e.taxi_cost <= self.params.taxi_threshold)
            .then_some(e)
    }

    /// Widens `band` of `g` one step and appends the entries that became
    /// final to `row`, in `(passenger key, taxi)` order.
    ///
    /// Each plan queries the grid around its first stop out to
    /// `min(reach − c_p, radius)`, and a taxi found is new unless an
    /// earlier widening's query found it. A taxi left outside
    /// every query is either beyond the radius of the plan it would be
    /// driven by — not mutually acceptable — or has a passenger key above
    /// `reach`, since Euclidean distance lower-bounds the approach leg.
    /// So once the band is complete every entry is final, and until then
    /// every entry at most `reach` is, less a relative `1e-9` over the
    /// magnitudes of the key's terms (the slack
    /// [`plan_bound`](Self::plan_bound) uses) so that the rounding of
    /// [`evaluate`](Self::evaluate)'s sums cannot bring an unvisited
    /// taxi's key below a final one.
    fn widen(
        &self,
        g: &GroupData,
        band: &mut Band,
        side: &mut TaxiSide,
        row: &mut Vec<(usize, Eval)>,
    ) {
        let (before, reach) = (band.reach, band.base + band.width);
        band.width *= 2.0;
        side.stamp += 1;
        let TaxiSide {
            taxis,
            grid,
            seen,
            stamp,
        } = side;
        let disk = |b: &PlanBound, reach: f64| (reach - b.cost).min(b.radius);
        for b in &g.allowed {
            grid.visit_within(b.first, disk(b, reach), |&ti, location| {
                if seen[ti] == *stamp {
                    return;
                }
                seen[ti] = *stamp;
                if g.allowed
                    .iter()
                    .any(|o| location.within(o.first, disk(o, before)))
                {
                    return;
                }
                band.visited += 1;
                if let Some(e) = self.acceptable(g, &taxis[ti]) {
                    band.waiting.push((ti, e));
                }
            });
        }
        band.reach = reach;
        band.complete =
            band.visited == taxis.len() || g.allowed.iter().all(|b| reach - b.cost >= b.radius);
        let last = if band.complete {
            f64::INFINITY
        } else {
            reach - 1e-9 * (1.0 + reach.abs() + band.magnitude)
        };
        let start = row.len();
        band.waiting.retain(|&(ti, e)| {
            let fresh = e.passenger_cost <= last;
            if fresh {
                row.push((ti, e));
            }
            !fresh
        });
        row[start..].sort_unstable_by(|(a, ea), (b, eb)| {
            ea.passenger_cost
                .partial_cmp(&eb.passenger_cost)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        });
    }

    /// Widens `band` until it has final entries not yet in `g`'s row, or
    /// is complete; leaves those entries in `row`, replacing its contents.
    fn grow(
        &self,
        g: &GroupData,
        band: &mut Band,
        side: &mut TaxiSide,
        row: &mut Vec<(usize, Eval)>,
    ) {
        row.clear();
        while row.is_empty() && !band.complete {
            self.widen(g, band, side, row);
        }
    }

    fn dispatch(
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
        let span = obs::span("sharing_evaluate");
        let groups: Vec<GroupData> = par_map(self.par, packed, |members| {
            self.group_data(requests, &frame, members)
        });
        // Banded keyed stage 3: each group's row holds the mutually
        // acceptable taxis by (passenger key, taxi), with the taxi key as
        // the column key. When groups propose, a row starts with the
        // group's first band that has an entry, and a group that runs out
        // of entries widens its band and proposes on; when taxis propose,
        // every row is built whole.
        let mut side = TaxiSide {
            taxis,
            grid: build_taxi_grid(taxis),
            seen: vec![0; taxis.len()],
            stamp: 0,
        };
        let width = if taxi_optimal {
            f64::INFINITY
        } else {
            side.grid.cell_size()
        };
        let seats = taxis.iter().map(|t| t.seats).max().unwrap_or(0);
        let mut bands: Vec<Band> = groups.iter().map(|g| Band::new(g, width, seats)).collect();
        let mut cands = KeyedCandidates::new();
        cands.reset(taxis.len());
        let mut row: Vec<(usize, Eval)> = Vec::new();
        let push_row = |cands: &mut KeyedCandidates, row: &[(usize, Eval)]| {
            for (ti, e) in row {
                cands.push(*ti, e.passenger_cost, e.taxi_cost);
            }
            cands.finish_row();
        };
        for (g, band) in groups.iter().zip(&mut bands) {
            self.grow(g, band, &mut side, &mut row);
            push_row(&mut cands, &row);
        }
        let mut matcher = KeyedMatch::new();
        if taxi_optimal {
            matcher.solve(&cands, Proposing::Columns);
        } else {
            matcher.solve(&cands, Proposing::Rows);
            // Deferred acceptance never reads a row past the proposal
            // that ends its group's search, so a group that ran out of
            // entries is the only one whose band must widen.
            let mut woken: Vec<u32> = Vec::new();
            loop {
                woken.clear();
                for (gi, (g, band)) in groups.iter().zip(&mut bands).enumerate() {
                    if band.complete || matcher.row_entry(gi).is_some() {
                        continue;
                    }
                    self.grow(g, band, &mut side, &mut row);
                    if !row.is_empty() {
                        cands.reopen_row(gi);
                        push_row(&mut cands, &row);
                        woken.push(gi as u32);
                    }
                }
                if woken.is_empty() {
                    break;
                }
                matcher.resume_rows(&cands, &woken);
            }
        }
        drop(span);
        self.schedule(taxis, requests, &groups, |gi| {
            matcher.row_entry(gi).map(|e| {
                let entry = cands.entry(e);
                let ti = entry.col as usize;
                let plan_idx = self.evaluate(&groups[gi], &taxis[ti]).plan_idx;
                (ti, plan_idx, entry.col_key)
            })
        })
    }

    /// The schedule for `groups` when `matched(gi)` gives group `gi`'s
    /// `(taxi index, plan index, taxi cost)`, or `None` if it is unserved.
    fn schedule(
        &self,
        taxis: &[Taxi],
        requests: &[Request],
        groups: &[GroupData],
        matched: impl Fn(usize) -> Option<(usize, usize, f64)>,
    ) -> SharingSchedule {
        let mut assignments = Vec::new();
        let mut unserved = Vec::new();
        for (gi, g) in groups.iter().enumerate() {
            let Some((ti, plan_idx, taxi_cost)) = matched(gi) else {
                unserved.extend(g.members.iter().map(|&i| requests[i].id));
                continue;
            };
            let taxi = &taxis[ti];
            let plan = g.plans[plan_idx].clone();
            let approach = self.metric.distance(taxi.location, plan.first_stop());
            let wait_distances: Vec<f64> = (0..g.members.len())
                .map(|m| approach + plan.pickup_offset[m])
                .collect();
            let detours: Vec<f64> = (0..g.members.len())
                .map(|m| plan.detour(m, g.directs[m]))
                .collect();
            let passenger_costs: Vec<f64> = wait_distances
                .iter()
                .zip(&detours)
                .map(|(w, d)| w + self.params.beta * d)
                .collect();
            let total_drive = approach + plan.internal_length;
            assignments.push(GroupAssignment {
                taxi: taxi.id,
                members: g.members.iter().map(|&i| requests[i].id).collect(),
                route: plan,
                wait_distances,
                detours,
                passenger_costs,
                taxi_cost,
                total_drive,
            });
        }
        unserved.sort_unstable_by_key(|r| r.0);
        SharingSchedule {
            assignments,
            unserved,
        }
    }

    /// With `max_group_size = 1`, sharing dispatch degenerates to the
    /// non-sharing Algorithm 1; this helper converts the result into a
    /// [`Schedule`] for direct comparison.
    ///
    /// # Panics
    ///
    /// Panics if any assignment actually contains more than one member.
    #[must_use]
    pub fn as_non_sharing_schedule(
        &self,
        taxis: &[Taxi],
        requests: &[Request],
        s: &SharingSchedule,
    ) -> Schedule {
        let request_ids: Vec<RequestId> = requests.iter().map(|r| r.id).collect();
        let taxi_ids: Vec<TaxiId> = taxis.iter().map(|t| t.id).collect();
        let taxi_pos: std::collections::HashMap<TaxiId, usize> =
            taxi_ids.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        let mut request_to_taxi = vec![None; requests.len()];
        let mut passenger_cost = vec![None; requests.len()];
        let mut taxi_cost = vec![None; taxis.len()];
        for a in &s.assignments {
            assert_eq!(a.members.len(), 1, "schedule contains a shared group");
            let rj = request_ids
                .iter()
                .position(|&r| r == a.members[0])
                .expect("member is from this batch");
            let ti = taxi_pos[&a.taxi];
            request_to_taxi[rj] = Some(ti);
            passenger_cost[rj] = Some(a.passenger_costs[0]);
            taxi_cost[ti] = Some(a.taxi_cost);
        }
        Schedule::from_parts(
            request_ids,
            taxi_ids,
            request_to_taxi,
            passenger_cost,
            taxi_cost,
        )
    }
}

/// Whether `b` can share a ride that starts at `a`'s pick-up with `a`
/// riding at most `ride` (its trip plus θ): `b`'s pick-up lies within
/// `ride` of `a`'s (the disk, a cheap first test), and
/// `‖a_s − b_s‖ + ‖b_s − a_d‖ ≤ ride` (the ellipse). A shared pair route
/// is never empty between its first pick-up and its last drop-off, so it
/// picks `b` up while `a` is on board, and `a` rides at least that far;
/// Euclidean distance lower-bounds every leg. The ellipse allows the
/// `1e-9` that the route search's detour test does, plus a relative
/// `1e-9` for the rounding of the sums on either side.
fn may_join(a: &Request, b: &Request, ride: f64) -> bool {
    b.pickup.within(a.pickup, ride) && {
        let least = a.pickup.euclidean(b.pickup) + b.pickup.euclidean(a.dropoff);
        least <= ride + 1e-9 * (1.0 + ride + least)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NonSharingDispatcher;
    use o2o_geo::{Euclidean, Point};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn taxi(id: u64, x: f64, y: f64) -> Taxi {
        Taxi::new(TaxiId(id), Point::new(x, y))
    }

    fn req(id: u64, sx: f64, sy: f64, dx: f64, dy: f64) -> Request {
        Request::new(RequestId(id), 0, Point::new(sx, sy), Point::new(dx, dy))
    }

    fn dispatcher() -> SharingDispatcher<Euclidean> {
        SharingDispatcher::new(
            Euclidean,
            PreferenceParams::unbounded().with_detour_threshold(5.0),
        )
    }

    #[test]
    fn collinear_pair_is_feasible_and_packed() {
        let requests = vec![req(0, 0.0, 0.0, 10.0, 0.0), req(1, 2.0, 0.0, 8.0, 0.0)];
        let d = dispatcher();
        assert!(d.is_group_feasible(&requests, &[0, 1]));
        let metas = d.pack(&requests);
        assert_eq!(metas, vec![vec![0, 1]]);
    }

    #[test]
    fn back_to_back_trips_are_not_sharing() {
        // Opposite directions: serving the trips sequentially would give
        // zero detour, but that is a re-dispatch, not a shared ride — the
        // route search excludes vehicle-empty orders, and every genuine
        // interleaving forces a huge detour, so the pair is infeasible.
        let requests = vec![req(0, 0.0, 0.0, 30.0, 0.0), req(1, 30.0, 10.0, 0.0, 10.0)];
        let d = dispatcher();
        assert!(!d.is_group_feasible(&requests, &[0, 1]));
        assert_eq!(d.pack(&requests).len(), 2);
    }

    #[test]
    fn crossing_trips_are_infeasible() {
        // r0 goes east 20 km; r1 cuts straight across r0's path. The
        // length-minimal route interleaves the trips and forces r0 into a
        // >5 km detour, so the group is infeasible under θ = 5.
        let requests = vec![req(0, 0.0, 0.0, 20.0, 0.0), req(1, 10.0, 5.0, 10.0, -5.0)];
        let d = dispatcher();
        assert!(!d.is_group_feasible(&requests, &[0, 1]));
        let metas = d.pack(&requests);
        assert_eq!(metas.len(), 2);
    }

    #[test]
    fn coverage_objective_packs_at_least_as_many_requests() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..20 {
            let requests: Vec<Request> = (0..14)
                .map(|i| {
                    req(
                        i,
                        rng.gen_range(-3.0..3.0),
                        rng.gen_range(-3.0..3.0),
                        rng.gen_range(-3.0..3.0),
                        rng.gen_range(-3.0..3.0),
                    )
                })
                .collect();
            let params = PreferenceParams::unbounded().with_detour_threshold(4.0);
            let covered = |cfg: SharingConfig| -> usize {
                SharingDispatcher::with_config(Euclidean, params, cfg)
                    .pack(&requests)
                    .iter()
                    .filter(|g| g.len() >= 2)
                    .map(Vec::len)
                    .sum()
            };
            let count_obj = covered(SharingConfig::default());
            let coverage_obj = covered(SharingConfig {
                objective: PackingObjective::CoveredRequests,
                ..SharingConfig::default()
            });
            assert!(
                coverage_obj + 1 >= count_obj,
                "coverage {coverage_obj} should not trail count {count_obj} by more than                  local-search noise"
            );
        }
    }

    #[test]
    fn pack_covers_every_request_once() {
        let mut rng = StdRng::seed_from_u64(5);
        let requests: Vec<Request> = (0..12)
            .map(|i| {
                req(
                    i,
                    rng.gen_range(-3.0..3.0),
                    rng.gen_range(-3.0..3.0),
                    rng.gen_range(-3.0..3.0),
                    rng.gen_range(-3.0..3.0),
                )
            })
            .collect();
        let metas = dispatcher().pack(&requests);
        let mut seen = vec![false; requests.len()];
        for g in &metas {
            for &i in g {
                assert!(!seen[i], "request {i} in two groups");
                seen[i] = true;
            }
            assert!(g.len() <= 3);
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn shared_assignment_reports_consistent_metrics() {
        let taxis = vec![taxi(0, -1.0, 0.0)];
        let requests = vec![req(0, 0.0, 0.0, 10.0, 0.0), req(1, 2.0, 0.0, 8.0, 0.0)];
        let s = dispatcher().dispatch_passenger_optimal(&taxis, &requests);
        assert_eq!(s.served_count(), 2);
        assert_eq!(s.sharing_rate(), 1.0);
        let a = &s.assignments[0];
        // Route: taxi(-1,0) → 0 → 2 → 8 → 10; total drive 11.
        assert!((a.total_drive - 11.0).abs() < 1e-9);
        assert!((a.wait_distances[0] - 1.0).abs() < 1e-9);
        assert!((a.wait_distances[1] - 3.0).abs() < 1e-9);
        assert_eq!(a.detours, vec![0.0, 0.0]);
        // Taxi cost = 11 − 2·(10+6) = −21 with α = 1.
        assert!((a.taxi_cost - (11.0 - 2.0 * 16.0)).abs() < 1e-9);
        assert_eq!(
            s.passenger_dissatisfaction(RequestId(1)),
            Some(a.passenger_costs[1])
        );
        assert_eq!(s.taxi_dissatisfaction(TaxiId(0)), Some(a.taxi_cost));
        assert!(s.group_of(TaxiId(0)).is_some());
    }

    #[test]
    fn seat_constraint_blocks_large_groups() {
        let mut taxis = vec![Taxi::with_seats(TaxiId(0), Point::new(0.0, 0.0), 2)];
        let requests = vec![
            Request::with_party(
                RequestId(0),
                0,
                Point::new(0.0, 0.0),
                Point::new(5.0, 0.0),
                2,
            ),
            Request::with_party(
                RequestId(1),
                0,
                Point::new(1.0, 0.0),
                Point::new(4.0, 0.0),
                2,
            ),
        ];
        let d = dispatcher();
        let s = d.dispatch_passenger_optimal(&taxis, &requests);
        // Group of 4 passengers cannot fit a 2-seat taxi; only a singleton
        // can be served.
        assert!(s.assignments.iter().all(|a| a.members.len() == 1));
        // A 4-seat taxi can take the group.
        taxis[0] = Taxi::with_seats(TaxiId(0), Point::new(0.0, 0.0), 4);
        let s = d.dispatch_passenger_optimal(&taxis, &requests);
        assert_eq!(s.served_count(), 2);
    }

    #[test]
    fn empty_inputs() {
        let d = dispatcher();
        let s = d.dispatch_passenger_optimal(&[], &[]);
        assert_eq!(s.served_count(), 0);
        let s = d.dispatch_passenger_optimal(&[], &[req(0, 0.0, 0.0, 1.0, 0.0)]);
        assert_eq!(s.unserved, vec![RequestId(0)]);
        let s = d.dispatch_passenger_optimal(&[taxi(0, 0.0, 0.0)], &[]);
        assert!(s.assignments.is_empty());
    }

    #[test]
    fn group_size_one_matches_non_sharing_dispatch() {
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..25 {
            let taxis: Vec<Taxi> = (0..4)
                .map(|i| taxi(i, rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)))
                .collect();
            let requests: Vec<Request> = (0..5)
                .map(|j| {
                    req(
                        j,
                        rng.gen_range(-5.0..5.0),
                        rng.gen_range(-5.0..5.0),
                        rng.gen_range(-5.0..5.0),
                        rng.gen_range(-5.0..5.0),
                    )
                })
                .collect();
            let params = PreferenceParams::paper();
            let sharing = SharingDispatcher::with_config(
                Euclidean,
                params,
                SharingConfig {
                    max_group_size: 1,
                    ..SharingConfig::default()
                },
            );
            let non_sharing = NonSharingDispatcher::new(Euclidean, params);
            // Costs can differ by float rounding (different association
            // order), so compare matchings exactly and costs approximately.
            let assert_equivalent = |a: &Schedule, b: &Schedule| {
                for r in &requests {
                    assert_eq!(a.assignment_of(r.id), b.assignment_of(r.id));
                    match (
                        a.passenger_dissatisfaction(r.id),
                        b.passenger_dissatisfaction(r.id),
                    ) {
                        (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9),
                        (x, y) => assert_eq!(x, y),
                    }
                }
                for t in &taxis {
                    match (a.taxi_dissatisfaction(t.id), b.taxi_dissatisfaction(t.id)) {
                        (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9),
                        (x, y) => assert_eq!(x, y),
                    }
                }
            };
            let a = sharing.dispatch_passenger_optimal(&taxis, &requests);
            let a = sharing.as_non_sharing_schedule(&taxis, &requests, &a);
            let b = non_sharing.passenger_optimal(&taxis, &requests);
            assert_equivalent(&a, &b);
            let at = sharing.dispatch_taxi_optimal(&taxis, &requests);
            let at = sharing.as_non_sharing_schedule(&taxis, &requests, &at);
            let bt = non_sharing.taxi_optimal(&taxis, &requests);
            assert_equivalent(&at, &bt);
        }
    }

    #[test]
    fn exhaustive_triples_superset_of_pruned() {
        let mut rng = StdRng::seed_from_u64(3);
        let requests: Vec<Request> = (0..8)
            .map(|i| {
                req(
                    i,
                    rng.gen_range(-2.0..2.0),
                    rng.gen_range(-2.0..2.0),
                    rng.gen_range(-2.0..2.0),
                    rng.gen_range(-2.0..2.0),
                )
            })
            .collect();
        let params = PreferenceParams::unbounded().with_detour_threshold(3.0);
        let pruned = SharingDispatcher::with_config(
            Euclidean,
            params,
            SharingConfig {
                triples: TripleCandidates::FromFeasiblePairs,
                ..SharingConfig::default()
            },
        );
        let exhaustive = SharingDispatcher::with_config(
            Euclidean,
            params,
            SharingConfig {
                triples: TripleCandidates::Exhaustive,
                ..SharingConfig::default()
            },
        );
        let a = pruned.feasible_groups(&requests);
        let b = exhaustive.feasible_groups(&requests);
        for g in &a {
            assert!(b.contains(g), "pruned found a group exhaustive missed");
        }
        assert!(a.len() <= b.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Dispatch invariants on random frames: disjoint service, detours
        /// within θ, each taxi used at most once, metrics finite.
        #[test]
        fn dispatch_invariants(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let taxis: Vec<Taxi> = (0..4)
                .map(|i| taxi(i, rng.gen_range(-4.0..4.0), rng.gen_range(-4.0..4.0)))
                .collect();
            let requests: Vec<Request> = (0..7)
                .map(|j| req(
                    j,
                    rng.gen_range(-4.0..4.0),
                    rng.gen_range(-4.0..4.0),
                    rng.gen_range(-4.0..4.0),
                    rng.gen_range(-4.0..4.0),
                ))
                .collect();
            let d = SharingDispatcher::new(
                Euclidean,
                PreferenceParams::unbounded().with_detour_threshold(2.0),
            );
            let s = d.dispatch_passenger_optimal(&taxis, &requests);
            let mut seen_requests = std::collections::HashSet::new();
            let mut seen_taxis = std::collections::HashSet::new();
            for a in &s.assignments {
                prop_assert!(seen_taxis.insert(a.taxi), "taxi reused");
                for (&m, &detour) in a.members.iter().zip(&a.detours) {
                    prop_assert!(seen_requests.insert(m), "request served twice");
                    prop_assert!(detour <= 2.0 + 1e-9, "detour {detour} over budget");
                }
                prop_assert!(a.taxi_cost.is_finite());
                prop_assert!(a.passenger_costs.iter().all(|c| c.is_finite()));
            }
            for u in &s.unserved {
                prop_assert!(seen_requests.insert(*u), "unserved request also served");
            }
            prop_assert_eq!(seen_requests.len(), requests.len());
        }
    }
}
