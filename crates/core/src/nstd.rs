//! Non-sharing taxi dispatch — the paper's Algorithms 1 and 2.

use crate::company::CompanyObjective;
use crate::degrade::{DegradeReason, Degraded, DispatchTier};
use crate::prefs::{build_taxi_grid, PickupDistances, PreferenceModel, SparsePickupDistances};
use crate::{IncrementalState, PreferenceParams, Schedule};
use o2o_geo::{GridIndex, Metric};
use o2o_matching::{KeyedMatch, Matching, Proposing, TimeBudget};
use o2o_obs as obs;
use o2o_trace::{Request, RequestId, Taxi, TaxiId};

/// How [`NonSharingDispatcher::dispatch`] builds a frame's preference
/// lists.
///
/// Both modes produce **bit-identical schedules** (property-tested in
/// `tests/sparse_equivalence.rs`); they differ only in cost: dense
/// materialises the full `|R|×|T|` matrix and rank tables, sparse
/// enumerates only the mutually acceptable pairs via a taxi grid —
/// near-linear per frame at paper-scale thresholds — and solves them with
/// keyed deferred acceptance. Dense is the full-run reference the sparse
/// path is checked against. Algorithm 2's enumeration always runs on the
/// dense model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CandidateMode {
    /// Full `|R|×|T|` preference matrices (the reference).
    Dense,
    /// Grid-pruned candidate generation (the default).
    #[default]
    Sparse,
}

/// Outcome metadata of one anytime NSTD-T dispatch
/// ([`NonSharingDispatcher::taxi_optimal_anytime`]): how close to
/// taxi-optimal the returned (always stable) schedule provably is, and
/// what the search spent getting there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnytimeOutcome {
    /// Taxi-side rank cost of the returned schedule (sum over matched
    /// taxis of the rank each holds in its own preference list;
    /// 0 = every matched taxi has its favourite request).
    pub taxi_cost: u64,
    /// Proven lower bound on the taxi cost of *any* stable schedule for
    /// this frame.
    pub lower_bound: u64,
    /// BreakDispatch nodes explored.
    pub nodes: u64,
    /// Whether the budget stopped the search (`false` = the schedule is
    /// provably taxi-optimal).
    pub truncated: bool,
}

impl AnytimeOutcome {
    /// The measured optimality gap: `0` certifies taxi-optimality; a
    /// positive value bounds how much better the true optimum could be.
    #[must_use]
    pub fn gap(&self) -> u64 {
        self.taxi_cost - self.lower_bound
    }
}

/// Non-sharing dispatcher: one request per taxi (§IV).
///
/// Wraps a metric and the interest-model parameters. Every NSTD frame goes
/// through one entry point, [`dispatch`](Self::dispatch): Algorithm 1
/// (NSTD-P) with requests proposing, NSTD-T with taxis proposing, under a
/// per-frame [`TimeBudget`]. Algorithm 2 and its selections
/// ([`all_schedules`](Self::all_schedules),
/// [`company_optimal`](Self::company_optimal),
/// [`egalitarian`](Self::egalitarian), [`median`](Self::median),
/// [`taxi_optimal_anytime`](Self::taxi_optimal_anytime)) enumerate the
/// stable set on the dense [`PreferenceModel`].
///
/// # Examples
///
/// ```
/// use o2o_core::{NonSharingDispatcher, PreferenceParams};
/// use o2o_geo::{Euclidean, Point};
/// use o2o_trace::{Request, RequestId, Taxi, TaxiId};
///
/// let d = NonSharingDispatcher::new(Euclidean, PreferenceParams::default());
/// let taxis = vec![Taxi::new(TaxiId(0), Point::new(0.0, 0.0))];
/// let requests = vec![
///     Request::new(RequestId(0), 0, Point::new(1.0, 0.0), Point::new(4.0, 0.0)),
///     Request::new(RequestId(1), 0, Point::new(2.0, 0.0), Point::new(3.0, 0.0)),
/// ];
/// let s = d.passenger_optimal(&taxis, &requests);
/// assert_eq!(s.served_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct NonSharingDispatcher<M> {
    metric: M,
    params: PreferenceParams,
    mode: CandidateMode,
}

impl<M: Metric> NonSharingDispatcher<M> {
    /// Creates a dispatcher.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`PreferenceParams::validate`].
    #[must_use]
    pub fn new(metric: M, params: PreferenceParams) -> Self {
        params.validate().expect("invalid preference parameters");
        NonSharingDispatcher {
            metric,
            params,
            mode: CandidateMode::default(),
        }
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

    /// Sets the candidate-generation mode. Schedules are bit-identical in
    /// both modes; see [`CandidateMode`].
    #[must_use]
    pub fn with_candidate_mode(mut self, mode: CandidateMode) -> Self {
        self.mode = mode;
        self
    }

    /// The candidate-generation mode in use.
    #[must_use]
    pub fn candidate_mode(&self) -> CandidateMode {
        self.mode
    }

    /// Builds the frame's dense preference model (exposed for inspection
    /// and ablations).
    #[must_use]
    pub fn preferences(&self, taxis: &[Taxi], requests: &[Request]) -> PreferenceModel {
        PreferenceModel::build(&self.metric, &self.params, taxis, requests)
    }

    /// One NSTD frame: the stable schedule with `side` proposing —
    /// [`Proposing::Rows`] is **Algorithm 1 (NSTD-P)**, requests propose;
    /// [`Proposing::Columns`] is **NSTD-T**, taxis propose — stepping down
    /// the degradation ladder under `budget`.
    ///
    /// Among all stable schedules, NSTD-P gives every request its best
    /// achievable taxi (Property 2) and NSTD-T every taxi its best
    /// request; a request either leaves unserved is unserved in every
    /// stable schedule (Theorem 2). NSTD-T is deferred acceptance with the
    /// roles swapped, which coincides with the taxi-best schedule of
    /// Algorithm 2's enumeration (property-tested in this crate).
    ///
    /// In [`CandidateMode::Sparse`] (the default) the frame's candidate
    /// rows — its mutually acceptable pairs — are built through
    /// `taxi_grid` (one is built when `None`) with the help of the
    /// stability certificate the previous frame left in `state` (see
    /// [`SparsePickupDistances::compute_incremental`]), then solved by
    /// keyed deferred acceptance ([`o2o_matching::KeyedMatch`]); the solve
    /// is recorded in `state` and certifies the next frame. A fresh
    /// `state` builds every row fresh. In [`CandidateMode::Dense`] the
    /// frame runs deferred acceptance on the dense [`PreferenceModel`],
    /// built from `pickup_distances` when given, and `state` is not read.
    /// Both modes, and warm or fresh states, yield bit-identical
    /// schedules (`tests/sparse_equivalence.rs`,
    /// `tests/warm_equivalence.rs`, `tests/row_certificate.rs`).
    ///
    /// The ladder: a deadline already passed at entry gives
    /// greedy-nearest ([`greedy_nearest`](Self::greedy_nearest)) — building
    /// candidates is the dominant cost, so it is the one thing an
    /// exhausted frame must not start — and clears `state`, since a greedy
    /// schedule is not stable and certifies nothing. NSTD-T past the
    /// deadline once its candidates exist steps down to NSTD-P on them:
    /// one deferred-acceptance pass, the cheapest stable answer the
    /// candidates afford (sparse rows, built for taxis to propose, are
    /// sorted first). Each step down comes back as a [`Degraded`] marker;
    /// with an unlimited budget there is none.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn dispatch(
        &self,
        taxis: &[Taxi],
        requests: &[Request],
        taxi_grid: Option<&GridIndex<usize>>,
        pickup_distances: Option<&PickupDistances>,
        state: &mut IncrementalState,
        side: Proposing,
        budget: &TimeBudget,
    ) -> (Schedule, Option<Degraded>) {
        let tier = match side {
            Proposing::Rows => DispatchTier::NstdP,
            Proposing::Columns => DispatchTier::NstdT,
        };
        if budget.exhausted() {
            state.clear();
            let degraded = Degraded {
                from: tier,
                to: DispatchTier::GreedyNearest,
                reason: DegradeReason::DeadlineExceeded {
                    stage: "before preference construction",
                },
            };
            return (self.greedy_nearest(taxis, requests), Some(degraded));
        }
        // Past the deadline once the candidates exist, NSTD-P on them.
        let rung = || {
            if side == Proposing::Rows || !budget.exhausted() {
                return (side, None);
            }
            let degraded = Degraded {
                from: tier,
                to: DispatchTier::NstdP,
                reason: DegradeReason::DeadlineExceeded {
                    stage: "after preference construction",
                },
            };
            (Proposing::Rows, Some(degraded))
        };
        match self.mode {
            CandidateMode::Dense => {
                let model = PreferenceModel::build_with(
                    &self.metric,
                    &self.params,
                    taxis,
                    requests,
                    pickup_distances,
                );
                let (proposing, degraded) = rung();
                let m = match proposing {
                    Proposing::Rows => model.instance.propose(),
                    Proposing::Columns => model.instance.reviewer_optimal(),
                };
                (to_schedule(taxis, requests, &model, &m), degraded)
            }
            CandidateMode::Sparse => {
                let rows = self.candidates(taxis, requests, taxi_grid, side, state);
                let (proposing, degraded) = rung();
                if proposing != side {
                    rows.sort_rows();
                }
                let IncrementalState { cert, solver } = state;
                let schedule = keyed_schedule(taxis, requests, cert.rows(), solver, proposing);
                cert.record_solve(solver);
                (schedule, degraded)
            }
        }
    }

    /// This frame's candidate rows for `side` to propose on, built from
    /// the certificate in `state` under the `preference_build` span, which
    /// also covers building a taxi grid when none is shared.
    fn candidates<'c>(
        &self,
        taxis: &[Taxi],
        requests: &[Request],
        taxi_grid: Option<&GridIndex<usize>>,
        side: Proposing,
        state: &'c mut IncrementalState,
    ) -> &'c mut SparsePickupDistances {
        let _span = obs::span("preference_build");
        let owned;
        let grid = match taxi_grid {
            Some(g) => g,
            None => {
                owned = build_taxi_grid(taxis);
                &owned
            }
        };
        SparsePickupDistances::compute_incremental(
            &self.metric,
            &self.params,
            taxis,
            requests,
            grid,
            side,
            &mut state.cert,
        )
    }

    /// **Algorithm 1 (NSTD-P)**: the passenger-optimal stable schedule —
    /// [`dispatch`](Self::dispatch) with requests proposing, a fresh state
    /// and an unlimited budget.
    #[must_use]
    pub fn passenger_optimal(&self, taxis: &[Taxi], requests: &[Request]) -> Schedule {
        self.fresh(taxis, requests, Proposing::Rows)
    }

    /// **NSTD-T**: the taxi-optimal stable schedule —
    /// [`dispatch`](Self::dispatch) with taxis proposing, a fresh state and
    /// an unlimited budget.
    #[must_use]
    pub fn taxi_optimal(&self, taxis: &[Taxi], requests: &[Request]) -> Schedule {
        self.fresh(taxis, requests, Proposing::Columns)
    }

    fn fresh(&self, taxis: &[Taxi], requests: &[Request], side: Proposing) -> Schedule {
        let mut state = IncrementalState::new();
        let unlimited = TimeBudget::unlimited();
        self.dispatch(taxis, requests, None, None, &mut state, side, &unlimited)
            .0
    }

    /// The bottom rung of the degradation ladder: each request, in
    /// arrival (input) order, takes the nearest still-free taxi that the
    /// interest models make mutually acceptable — seats fit, pick-up
    /// within the passenger threshold, driver score within the taxi
    /// threshold.
    ///
    /// `O(|R|·|T|)` with no preference sorting, no matching, and no
    /// recursion, so it always fits a frame. The result is **not** stable
    /// in general; it exists so an over-budget frame can still dispatch
    /// *something* rather than nothing.
    #[must_use]
    pub fn greedy_nearest(&self, taxis: &[Taxi], requests: &[Request]) -> Schedule {
        let request_ids: Vec<RequestId> = requests.iter().map(|r| r.id).collect();
        let taxi_ids: Vec<TaxiId> = taxis.iter().map(|t| t.id).collect();
        let mut taken = vec![false; taxis.len()];
        let mut request_to_taxi: Vec<Option<usize>> = vec![None; requests.len()];
        let mut passenger_cost: Vec<Option<f64>> = vec![None; requests.len()];
        let mut taxi_cost: Vec<Option<f64>> = vec![None; taxis.len()];
        for (j, r) in requests.iter().enumerate() {
            let trip = r.trip_distance(&self.metric);
            let mut best: Option<(f64, usize, f64)> = None;
            for (i, t) in taxis.iter().enumerate() {
                if taken[i] || t.seats < r.passengers {
                    continue;
                }
                let d = self.metric.distance(t.location, r.pickup);
                if d > self.params.passenger_threshold {
                    continue;
                }
                let score = d - self.params.alpha * trip;
                if score > self.params.taxi_threshold {
                    continue;
                }
                let better = match best {
                    None => true,
                    // Ties by taxi index (the iteration order) for
                    // determinism.
                    Some((bd, _, _)) => d < bd,
                };
                if better {
                    best = Some((d, i, score));
                }
            }
            if let Some((d, i, score)) = best {
                taken[i] = true;
                request_to_taxi[j] = Some(i);
                passenger_cost[j] = Some(d);
                taxi_cost[i] = Some(score);
            }
        }
        Schedule::from_parts(
            request_ids,
            taxi_ids,
            request_to_taxi,
            passenger_cost,
            taxi_cost,
        )
    }

    /// **Anytime NSTD-T**: the taxi-optimal search as a budgeted
    /// best-so-far walk of the BreakDispatch lattice, instead of the
    /// all-or-nothing role-swapped pass.
    ///
    /// Starts from the passenger-optimal schedule and walks Algorithm 2's
    /// BreakDispatch tree keeping the best schedule seen under the
    /// taxi-side rank objective (see
    /// [`StableInstance::reviewer_optimal_anytime`](o2o_matching::StableInstance::reviewer_optimal_anytime)).
    /// Every answer — at any budget, including a zero one — is a *stable*
    /// schedule at least as good for every taxi as NSTD-P; with an
    /// unlimited budget the result is bit-identical to
    /// [`taxi_optimal`](Self::taxi_optimal). The returned
    /// [`AnytimeOutcome`] carries the measured optimality gap for the
    /// budget actually spent; its rank costs are positions in the dense
    /// lists, so they count every above-dummy entry, as
    /// [`egalitarian`](Self::egalitarian)'s do.
    #[must_use]
    pub fn taxi_optimal_anytime(
        &self,
        taxis: &[Taxi],
        requests: &[Request],
        budget: &TimeBudget,
    ) -> (Schedule, AnytimeOutcome) {
        let model = self.preferences(taxis, requests);
        let search = model.instance.reviewer_optimal_anytime(budget);
        let schedule = to_schedule(taxis, requests, &model, &search.best);
        let outcome = AnytimeOutcome {
            taxi_cost: search.reviewer_cost,
            lower_bound: search.lower_bound,
            nodes: search.nodes,
            truncated: search.truncated,
        };
        // Export the anytime search's spend and certificate so sim/bench
        // layers can aggregate them per frame without plumbing the
        // outcome through every call site.
        obs::add_many(&[
            ("anytime.frames", 1),
            ("anytime.nodes", outcome.nodes),
            ("anytime.gap", outcome.gap()),
            ("anytime.truncated", u64::from(outcome.truncated)),
        ]);
        (schedule, outcome)
    }

    /// **Algorithm 2**: all stable schedules, passenger-optimal first.
    ///
    /// Enumerates via BreakDispatch with Rules 1–3. `limit` caps the count
    /// (the number of stable matchings can be exponential).
    #[must_use]
    pub fn all_schedules(
        &self,
        taxis: &[Taxi],
        requests: &[Request],
        limit: Option<usize>,
    ) -> Vec<Schedule> {
        let model = self.preferences(taxis, requests);
        model
            .instance
            .enumerate_all(limit)
            .iter()
            .map(|m| to_schedule(taxis, requests, &model, m))
            .collect()
    }

    /// [`all_schedules`](Self::all_schedules) with the BreakDispatch
    /// recursion metered by `budget` (node cap + deadline): over budget,
    /// the walk stops and a well-formed **prefix** of the enumeration is
    /// returned — passenger-optimal first, every element stable — plus a
    /// [`Degraded`] marker saying why. With an unlimited budget, exactly
    /// `all_schedules(limit)` and no marker.
    #[must_use]
    pub fn all_schedules_budgeted(
        &self,
        taxis: &[Taxi],
        requests: &[Request],
        limit: Option<usize>,
        budget: &TimeBudget,
    ) -> (Vec<Schedule>, Option<Degraded>) {
        let model = self.preferences(taxis, requests);
        let e = model.instance.enumerate_budgeted(limit, budget);
        let schedules = e
            .matchings
            .iter()
            .map(|m| to_schedule(taxis, requests, &model, m))
            .collect();
        let degraded = e.truncated.then(|| Degraded {
            from: DispatchTier::FullEnumeration,
            to: DispatchTier::PartialEnumeration,
            reason: if budget.node_cap().is_some_and(|cap| e.nodes >= cap) {
                DegradeReason::NodeCapReached { nodes: e.nodes }
            } else {
                DegradeReason::DeadlineExceeded {
                    stage: "during enumeration",
                }
            },
        });
        (schedules, degraded)
    }

    /// [`is_stable`](Self::is_stable) over raw `(request, taxi)` id pairs
    /// instead of a [`Schedule`] — the shape chaos tests capture. Pairs
    /// referencing ids not present in the frame, or a request or taxi id
    /// named by two pairs, make the assignment trivially not stable (it is
    /// not a matching of this frame).
    #[must_use]
    pub fn is_stable_assignment(
        &self,
        taxis: &[Taxi],
        requests: &[Request],
        pairs: &[(RequestId, TaxiId)],
    ) -> bool {
        let taxi_pos: std::collections::HashMap<TaxiId, usize> =
            taxis.iter().enumerate().map(|(i, t)| (t.id, i)).collect();
        let request_pos: std::collections::HashMap<RequestId, usize> = requests
            .iter()
            .enumerate()
            .map(|(j, r)| (r.id, j))
            .collect();
        let mut m = Matching::empty(requests.len(), taxis.len());
        for &(rid, tid) in pairs {
            match (request_pos.get(&rid), taxi_pos.get(&tid)) {
                (Some(&j), Some(&i))
                    if m.proposer_partner(j).is_none() && m.reviewer_partner(i).is_none() =>
                {
                    m.link(j, i);
                }
                _ => return false,
            }
        }
        let model = self.preferences(taxis, requests);
        model.instance.is_stable(&m)
    }

    /// The company's pick among all stable schedules (§IV.D): enumerate
    /// with Algorithm 2 and keep the schedule optimising `objective`.
    ///
    /// Note that by the rural-hospitals property (Theorem 2) the *set* of
    /// served requests — and hence the fare revenue — is identical across
    /// stable schedules, so revenue objectives tie and the objective's
    /// tie-break (e.g. total idle distance) decides.
    #[must_use]
    pub fn company_optimal(
        &self,
        taxis: &[Taxi],
        requests: &[Request],
        objective: CompanyObjective,
        limit: Option<usize>,
    ) -> Schedule {
        let mut all = self.all_schedules(taxis, requests, limit);
        let scores: Vec<f64> = all
            .iter()
            .map(|s| objective.score(&self.metric, requests, s))
            .collect();
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .expect("enumeration always yields at least one schedule");
        all.swap_remove(best)
    }

    /// The **egalitarian** stable schedule: among all stable schedules
    /// (Algorithm 2), the one minimising the summed preference ranks of
    /// both sides — the fairest compromise between NSTD-P and NSTD-T.
    ///
    /// An extension beyond the paper (its §II cites the fairness-variant
    /// literature); useful when the company wants neither side to dominate.
    ///
    /// The rank sums being minimised are positions in the dense lists, so
    /// they count *every* above-dummy entry, including partners the other
    /// side rejects; ranks over the mutually acceptable entries alone
    /// could tie-break differently.
    #[must_use]
    pub fn egalitarian(
        &self,
        taxis: &[Taxi],
        requests: &[Request],
        limit: Option<usize>,
    ) -> Schedule {
        let model = self.preferences(taxis, requests);
        let all = model.instance.enumerate_all(limit);
        let best = model
            .instance
            .egalitarian(&all)
            .expect("enumeration yields at least one matching");
        to_schedule(taxis, requests, &model, best)
    }

    /// The **median** stable schedule (Teo–Sethuraman): every request gets
    /// the median of its partners across all stable schedules, which is
    /// itself a stable schedule. An extension beyond the paper (its §II
    /// cites Sethuraman's median stable matchings \[13\]).
    #[must_use]
    pub fn median(&self, taxis: &[Taxi], requests: &[Request], limit: Option<usize>) -> Schedule {
        let model = self.preferences(taxis, requests);
        let all = model.instance.enumerate_all(limit);
        let median = model
            .instance
            .median_stable_matching(&all)
            .expect("enumeration yields at least one matching");
        to_schedule(taxis, requests, &model, &median)
    }

    /// Whether `schedule` is stable for the given frame (Definition 1).
    ///
    /// Exposed for tests and for validating externally-produced schedules
    /// (e.g. the baselines, which are generally *not* stable).
    #[must_use]
    pub fn is_stable(&self, taxis: &[Taxi], requests: &[Request], schedule: &Schedule) -> bool {
        let pairs: Vec<(RequestId, TaxiId)> = requests
            .iter()
            .filter_map(|r| schedule.assignment_of(r.id).taxi().map(|t| (r.id, t)))
            .collect();
        self.is_stable_assignment(taxis, requests, &pairs)
    }
}

/// The schedule of matching `m` on the dense model, with each side's cost
/// read off its matrix.
fn to_schedule(
    taxis: &[Taxi],
    requests: &[Request],
    model: &PreferenceModel,
    m: &Matching,
) -> Schedule {
    let request_to_taxi: Vec<Option<usize>> =
        (0..requests.len()).map(|j| m.proposer_partner(j)).collect();
    let passenger_cost = request_to_taxi
        .iter()
        .enumerate()
        .map(|(j, ti)| ti.map(|i| model.pickup[j][i]))
        .collect();
    let taxi_cost = (0..taxis.len())
        .map(|i| m.reviewer_partner(i).map(|j| model.score[i][j]))
        .collect();
    Schedule::from_parts(
        requests.iter().map(|r| r.id).collect(),
        taxis.iter().map(|t| t.id).collect(),
        request_to_taxi,
        passenger_cost,
        taxi_cost,
    )
}

/// Runs keyed deferred acceptance on a frame's candidate rows and reads
/// the schedule's costs straight off the matched entries: the pick-up
/// distance for the passenger, the score for the driver — the same floats
/// the dense model reports.
fn keyed_schedule(
    taxis: &[Taxi],
    requests: &[Request],
    spd: &SparsePickupDistances,
    solver: &mut KeyedMatch,
    proposing: Proposing,
) -> Schedule {
    let pairs = spd.pairs();
    solver.solve(pairs, proposing);
    let matched = |j: usize| solver.row_entry(j).map(|e| pairs.entry(e));
    Schedule::from_parts(
        requests.iter().map(|r| r.id).collect(),
        taxis.iter().map(|t| t.id).collect(),
        (0..requests.len())
            .map(|j| matched(j).map(|e| e.col as usize))
            .collect(),
        (0..requests.len())
            .map(|j| matched(j).map(|e| e.row_key))
            .collect(),
        (0..taxis.len())
            .map(|i| solver.col_entry(i).map(|e| pairs.entry(e).col_key))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DispatchOutcome;
    use o2o_geo::{Euclidean, Point};
    use o2o_matching::StableInstance;
    use o2o_trace::{RequestId, TaxiId};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn taxi(id: u64, x: f64, y: f64) -> Taxi {
        Taxi::new(TaxiId(id), Point::new(x, y))
    }

    fn request(id: u64, sx: f64, sy: f64, dx: f64, dy: f64) -> Request {
        Request::new(RequestId(id), 0, Point::new(sx, sy), Point::new(dx, dy))
    }

    /// The paper's Fig. 1: two requests, two taxis, pick-up distances
    /// D(t1,r1)=2, D(t1,r2)=3, D(t2,r1)=5, D(t2,r2)=10. Schedule S1
    /// (r1→t1, r2→t2) has total distance 12; S2 (r1→t2, r2→t1) has 8.
    /// S2 is shorter, but S1 is the stable one: in S2, r1 and t1 prefer
    /// each other over their partners.
    #[test]
    fn fig1_stability_vs_total_distance() {
        // Place everything on a line to realise the figure's distances.
        // t1 at 0; r1 pickup at 2 (D=2); r2 pickup at -3 (D=3);
        // t2 at 7 (D(t2,r1)=5, D(t2,r2)=10).
        let taxis = vec![taxi(1, 0.0, 0.0), taxi(2, 7.0, 0.0)];
        // Equal trip lengths so driver preferences follow pick-up distance.
        let requests = vec![
            request(1, 2.0, 0.0, 2.0, 4.0),
            request(2, -3.0, 0.0, -3.0, 4.0),
        ];
        let d = NonSharingDispatcher::new(Euclidean, PreferenceParams::unbounded());
        let s = d.passenger_optimal(&taxis, &requests);
        // Stable schedule is S1.
        assert_eq!(
            s.assignment_of(RequestId(1)),
            DispatchOutcome::Assigned(TaxiId(1))
        );
        assert_eq!(
            s.assignment_of(RequestId(2)),
            DispatchOutcome::Assigned(TaxiId(2))
        );
        let total: f64 = [RequestId(1), RequestId(2)]
            .iter()
            .map(|&r| s.passenger_dissatisfaction(r).unwrap())
            .sum();
        assert_eq!(total, 12.0);
        // S2 (total 8) is cheaper but unstable.
        let s2 = Schedule::from_parts(
            vec![RequestId(1), RequestId(2)],
            vec![TaxiId(1), TaxiId(2)],
            vec![Some(1), Some(0)],
            vec![Some(5.0), Some(3.0)],
            vec![Some(3.0 - 7.0), Some(5.0 - 7.0)],
        );
        assert!(!d.is_stable(&taxis, &requests, &s2));
        assert!(d.is_stable(&taxis, &requests, &s));
    }

    /// The paper's Fig. 2 walk-through of Algorithm 1, reconstructed as a
    /// raw preference table: r1: [t1, t2]; r2: [t1]; r3: [t1, …];
    /// t1: r3 > r1 > r2; t2: accepts r1. Expected outcome: r3→t1, r1→t2
    /// (after being refused), r2 unserved.
    #[test]
    fn fig2_algorithm1_walkthrough() {
        let inst = StableInstance::new(
            vec![vec![0, 1], vec![0], vec![0]],
            vec![vec![2, 0, 1], vec![0]],
        )
        .unwrap();
        let m = inst.propose();
        assert_eq!(m.proposer_partner(0), Some(1)); // r1 → t2
        assert_eq!(m.proposer_partner(1), None); // r2 unserved
        assert_eq!(m.proposer_partner(2), Some(0)); // r3 → t1
        assert!(inst.is_stable(&m));
    }

    /// The paper's Fig. 3 walk-through of Algorithm 2: passenger-optimal
    /// S* = {r1→t1, r2→t2, r3 unserved}. BreakDispatch(S*, r1) succeeds
    /// (r1→t2, r2→t1); BreakDispatch(S*, r2) violates Rule 2;
    /// BreakDispatch(S*, r3) violates Rule 3. Exactly two stable
    /// matchings exist.
    #[test]
    fn fig3_algorithm2_walkthrough() {
        let inst = StableInstance::new(
            // r1: t1 > t2; r2: t2 > t1; r3: proposes but never accepted.
            vec![vec![0, 1], vec![1, 0], vec![0, 1]],
            // t1: r2 > r1 (r3 unacceptable); t2: r1 > r2.
            vec![vec![1, 0], vec![0, 1]],
        )
        .unwrap();
        let s0 = inst.propose();
        assert_eq!(s0.proposer_partner(0), Some(0));
        assert_eq!(s0.proposer_partner(1), Some(1));
        assert_eq!(s0.proposer_partner(2), None);

        // BreakDispatch on r1 succeeds.
        let s1 = inst.break_dispatch(&s0, 0).expect("fig3 break succeeds");
        assert_eq!(s1.proposer_partner(0), Some(1));
        assert_eq!(s1.proposer_partner(1), Some(0));
        // On r2: Rule 2 (would displace r1 < r2).
        assert!(inst.break_dispatch(&s0, 1).is_none());
        // On r3: Rule 3 (unserved).
        assert!(inst.break_dispatch(&s0, 2).is_none());

        let all = inst.enumerate_all(None);
        assert_eq!(all.len(), 2);
        // The second one is the taxi-optimal matching.
        assert_eq!(inst.reviewer_optimal(), s1);
    }

    #[test]
    fn property1_taxi_preferring_dummy_stays_idle() {
        // The only request has a terrible pay-off: score exceeds θ_t.
        let taxis = vec![taxi(0, 0.0, 0.0)];
        let requests = vec![request(0, 10.0, 0.0, 10.5, 0.0)]; // score 10 − 0.5
        let params = PreferenceParams::unbounded()
            .with_taxi_threshold(5.0)
            .with_passenger_threshold(f64::INFINITY);
        let d = NonSharingDispatcher::new(Euclidean, params);
        let s = d.passenger_optimal(&taxis, &requests);
        assert_eq!(s.request_of(TaxiId(0)), None);
        assert_eq!(s.assignment_of(RequestId(0)), DispatchOutcome::Unserved);
    }

    #[test]
    fn property1_passenger_preferring_dummy_stays_unserved() {
        let taxis = vec![taxi(0, 50.0, 0.0)];
        let requests = vec![request(0, 0.0, 0.0, 5.0, 0.0)];
        let params = PreferenceParams::unbounded().with_passenger_threshold(15.0);
        let d = NonSharingDispatcher::new(Euclidean, params);
        let s = d.passenger_optimal(&taxis, &requests);
        assert_eq!(s.served_count(), 0);
    }

    #[test]
    fn unequal_sides_are_handled() {
        let taxis = vec![taxi(0, 0.0, 0.0)];
        let requests = vec![
            request(0, 1.0, 0.0, 5.0, 0.0),
            request(1, 2.0, 0.0, 6.0, 0.0),
            request(2, 3.0, 0.0, 7.0, 0.0),
        ];
        let d = NonSharingDispatcher::new(Euclidean, PreferenceParams::unbounded());
        let s = d.passenger_optimal(&taxis, &requests);
        assert_eq!(s.served_count(), 1);
        assert_eq!(s.unserved().len(), 2);
    }

    fn random_frame(rng: &mut StdRng, nt: usize, nr: usize) -> (Vec<Taxi>, Vec<Request>) {
        let taxis = (0..nt)
            .map(|i| taxi(i as u64, rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)))
            .collect();
        let requests = (0..nr)
            .map(|j| {
                request(
                    j as u64,
                    rng.gen_range(-5.0..5.0),
                    rng.gen_range(-5.0..5.0),
                    rng.gen_range(-5.0..5.0),
                    rng.gen_range(-5.0..5.0),
                )
            })
            .collect();
        (taxis, requests)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// NSTD-P and NSTD-T are both stable, and NSTD-T matches the
        /// taxi-best schedule among Algorithm 2's enumeration.
        #[test]
        fn taxi_optimal_agrees_with_enumeration(
            seed in any::<u64>(), nt in 1usize..6, nr in 1usize..6,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (taxis, requests) = random_frame(&mut rng, nt, nr);
            let params = PreferenceParams::paper().with_passenger_threshold(8.0);
            let d = NonSharingDispatcher::new(Euclidean, params);
            let p_opt = d.passenger_optimal(&taxis, &requests);
            let t_opt = d.taxi_optimal(&taxis, &requests);
            prop_assert!(d.is_stable(&taxis, &requests, &p_opt));
            prop_assert!(d.is_stable(&taxis, &requests, &t_opt));
            let all = d.all_schedules(&taxis, &requests, None);
            // Taxi-optimal minimises total taxi dissatisfaction… and is in
            // the enumerated set.
            let best_total = all.iter()
                .map(Schedule::total_taxi_dissatisfaction)
                .fold(f64::INFINITY, f64::min);
            prop_assert!(t_opt.total_taxi_dissatisfaction() <= best_total + 1e-9);
            prop_assert!(all.contains(&t_opt));
            prop_assert_eq!(&all[0], &p_opt);
        }

        /// Rural hospitals at the dispatcher level: the served set (and
        /// count) is invariant across all stable schedules.
        #[test]
        fn served_set_is_invariant(seed in any::<u64>(), nt in 1usize..5, nr in 1usize..5) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (taxis, requests) = random_frame(&mut rng, nt, nr);
            let d = NonSharingDispatcher::new(Euclidean, PreferenceParams::paper());
            let all = d.all_schedules(&taxis, &requests, None);
            let served0 = all[0].unserved();
            for s in &all {
                prop_assert_eq!(s.unserved(), served0.clone());
            }
        }

        /// Passenger dissatisfaction under NSTD-P lower-bounds every other
        /// stable schedule per request (passenger-optimality).
        #[test]
        fn passenger_optimality(seed in any::<u64>(), nt in 1usize..5, nr in 1usize..5) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (taxis, requests) = random_frame(&mut rng, nt, nr);
            let d = NonSharingDispatcher::new(Euclidean, PreferenceParams::paper());
            let all = d.all_schedules(&taxis, &requests, None);
            let p_opt = &all[0];
            for s in &all {
                for r in &requests {
                    if let (Some(a), Some(b)) = (
                        p_opt.passenger_dissatisfaction(r.id),
                        s.passenger_dissatisfaction(r.id),
                    ) {
                        prop_assert!(a <= b + 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn greedy_nearest_respects_thresholds_and_assigns_nearest() {
        // Taxis at 0 and 3; r0 (first arrival) at 1 takes the taxi at 0
        // (nearest), r1 at 2 gets the remaining taxi at 3.
        let taxis = vec![taxi(0, 0.0, 0.0), taxi(1, 3.0, 0.0)];
        let requests = vec![
            request(0, 1.0, 0.0, 1.0, 2.0),
            request(1, 2.0, 0.0, 2.0, 2.0),
        ];
        let d = NonSharingDispatcher::new(Euclidean, PreferenceParams::unbounded());
        let s = d.greedy_nearest(&taxis, &requests);
        assert_eq!(
            s.assignment_of(RequestId(0)),
            DispatchOutcome::Assigned(TaxiId(0))
        );
        assert_eq!(
            s.assignment_of(RequestId(1)),
            DispatchOutcome::Assigned(TaxiId(1))
        );
        assert_eq!(s.passenger_dissatisfaction(RequestId(0)), Some(1.0));
        // A passenger threshold below every pick-up distance leaves all
        // requests unserved.
        let tight = PreferenceParams::unbounded().with_passenger_threshold(0.5);
        let d = NonSharingDispatcher::new(Euclidean, tight);
        assert_eq!(d.greedy_nearest(&taxis, &requests).served_count(), 0);
    }

    #[test]
    fn unlimited_budget_is_bit_identical_to_unbudgeted() {
        let mut rng = StdRng::seed_from_u64(0xB1D6);
        let unlimited = o2o_matching::TimeBudget::unlimited();
        let params = PreferenceParams::paper().with_passenger_threshold(8.0);
        for _ in 0..40 {
            let (taxis, requests) = random_frame(&mut rng, 4, 5);
            let dense = NonSharingDispatcher::new(Euclidean, params)
                .with_candidate_mode(CandidateMode::Dense);
            let expected = [
                (Proposing::Rows, dense.passenger_optimal(&taxis, &requests)),
                (Proposing::Columns, dense.taxi_optimal(&taxis, &requests)),
            ];
            let grid = build_taxi_grid(&taxis);
            let pickup = PickupDistances::compute(
                &Euclidean,
                &taxis,
                &requests,
                o2o_par::Parallelism::sequential(),
            );
            for mode in [CandidateMode::Dense, CandidateMode::Sparse] {
                let d = NonSharingDispatcher::new(Euclidean, params).with_candidate_mode(mode);
                for (side, want) in &expected {
                    // Fresh and carried state, with and without the
                    // engine's shared grid and pick-up matrix.
                    let mut state = IncrementalState::new();
                    for (grid, pickup) in [(None, None), (Some(&grid), Some(&pickup))] {
                        let (s, degraded) = d.dispatch(
                            &taxis, &requests, grid, pickup, &mut state, *side, &unlimited,
                        );
                        assert_eq!(degraded, None);
                        assert_eq!(&s, want, "{mode:?} {side:?}");
                    }
                }
                let (all, da) = d.all_schedules_budgeted(&taxis, &requests, None, &unlimited);
                assert_eq!(da, None);
                assert_eq!(all, d.all_schedules(&taxis, &requests, None));
                assert_eq!(all[0], expected[0].1);
                let (anytime, _) = d.taxi_optimal_anytime(&taxis, &requests, &unlimited);
                assert_eq!(anytime, expected[1].1);
            }
        }
    }

    #[test]
    fn expired_deadline_degrades_to_greedy_and_keeps_warm_path_exact() {
        use o2o_matching::TimeBudgetSpec;
        let mut rng = StdRng::seed_from_u64(0xDE6);
        let (taxis, requests) = random_frame(&mut rng, 4, 5);
        let d = NonSharingDispatcher::new(Euclidean, PreferenceParams::unbounded());
        let expired = TimeBudgetSpec::unlimited()
            .with_deadline(std::time::Duration::ZERO)
            .start();
        let unlimited = o2o_matching::TimeBudget::unlimited();
        for (side, tier) in [
            (Proposing::Rows, DispatchTier::NstdP),
            (Proposing::Columns, DispatchTier::NstdT),
        ] {
            let dispatch = |state: &mut IncrementalState, budget| {
                d.dispatch(&taxis, &requests, None, None, state, side, budget)
            };
            // Warm up a state, then hit it with an expired budget: the
            // frame degrades to greedy, warm state or fresh.
            let mut state = IncrementalState::new();
            let (warm, none) = dispatch(&mut state, &unlimited);
            assert_eq!(none, None);
            let (s, degraded) = dispatch(&mut state, &expired);
            assert_eq!(s, d.greedy_nearest(&taxis, &requests));
            let degraded = degraded.expect("expired budget must degrade");
            assert_eq!(degraded.from, tier);
            assert_eq!(degraded.to, DispatchTier::GreedyNearest);
            assert_eq!(dispatch(&mut IncrementalState::new(), &expired).0, s);
            // The greedy frame certifies nothing: the next warm frame
            // builds fresh rows and is still the exact stable schedule.
            let (after, none) = dispatch(&mut state, &unlimited);
            assert_eq!(none, None);
            assert_eq!(after, warm);
            let dense = d.clone().with_candidate_mode(CandidateMode::Dense);
            let (reference, _) = dense.dispatch(
                &taxis,
                &requests,
                None,
                None,
                &mut IncrementalState::new(),
                side,
                &unlimited,
            );
            assert_eq!(after, reference);
        }
    }

    #[test]
    fn node_cap_degrades_enumeration_to_a_stable_prefix() {
        use o2o_matching::TimeBudgetSpec;
        let mut rng = StdRng::seed_from_u64(0xE9);
        let capped = TimeBudgetSpec::unlimited().with_node_cap(1).start();
        let mut saw_truncation = false;
        for _ in 0..60 {
            let (taxis, requests) = random_frame(&mut rng, 4, 4);
            let d = NonSharingDispatcher::new(Euclidean, PreferenceParams::paper());
            let full = d.all_schedules(&taxis, &requests, None);
            let (prefix, degraded) = d.all_schedules_budgeted(&taxis, &requests, None, &capped);
            assert_eq!(prefix[..], full[..prefix.len()], "must be a prefix");
            for s in &prefix {
                assert!(d.is_stable(&taxis, &requests, s));
            }
            if let Some(deg) = degraded {
                saw_truncation = true;
                assert_eq!(deg.from, DispatchTier::FullEnumeration);
                assert_eq!(deg.to, DispatchTier::PartialEnumeration);
                assert!(matches!(deg.reason, DegradeReason::NodeCapReached { .. }));
            } else {
                assert_eq!(prefix, full);
            }
        }
        assert!(saw_truncation, "node cap of 1 never bit in 60 frames");
    }

    #[test]
    fn is_stable_assignment_mirrors_is_stable() {
        let taxis = vec![taxi(1, 0.0, 0.0), taxi(2, 7.0, 0.0)];
        let requests = vec![
            request(1, 2.0, 0.0, 2.0, 4.0),
            request(2, -3.0, 0.0, -3.0, 4.0),
        ];
        let d = NonSharingDispatcher::new(Euclidean, PreferenceParams::unbounded());
        let stable = [(RequestId(1), TaxiId(1)), (RequestId(2), TaxiId(2))];
        assert!(d.is_stable_assignment(&taxis, &requests, &stable));
        // The fig1 S2 cross-assignment is unstable.
        let crossed = [(RequestId(1), TaxiId(2)), (RequestId(2), TaxiId(1))];
        assert!(!d.is_stable_assignment(&taxis, &requests, &crossed));
        // Unknown ids cannot be stable against this frame.
        let ghost = [(RequestId(9), TaxiId(1))];
        assert!(!d.is_stable_assignment(&taxis, &requests, &ghost));
        // Neither can an id named by two pairs: taxi 1 sent twice, then
        // request 1 given two taxis. Each list ends in the stable pairing
        // once its repeated id's earlier pair is dropped.
        let taxi_twice = [
            (RequestId(2), TaxiId(1)),
            (RequestId(1), TaxiId(1)),
            (RequestId(2), TaxiId(2)),
        ];
        assert!(!d.is_stable_assignment(&taxis, &requests, &taxi_twice));
        let request_twice = [
            (RequestId(1), TaxiId(2)),
            (RequestId(1), TaxiId(1)),
            (RequestId(2), TaxiId(2)),
        ];
        assert!(!d.is_stable_assignment(&taxis, &requests, &request_twice));
    }

    #[test]
    fn egalitarian_and_median_are_stable_compromises() {
        let mut rng = StdRng::seed_from_u64(2024);
        for _ in 0..30 {
            let (taxis, requests) = random_frame(&mut rng, 4, 4);
            let d = NonSharingDispatcher::new(Euclidean, PreferenceParams::unbounded());
            let egal = d.egalitarian(&taxis, &requests, None);
            let median = d.median(&taxis, &requests, None);
            assert!(d.is_stable(&taxis, &requests, &egal));
            assert!(d.is_stable(&taxis, &requests, &median));
            // Compromises sit between the two extremes on each side's
            // aggregate dissatisfaction.
            let p_opt = d.passenger_optimal(&taxis, &requests);
            let t_opt = d.taxi_optimal(&taxis, &requests);
            for s in [&egal, &median] {
                assert!(
                    s.total_passenger_dissatisfaction()
                        >= p_opt.total_passenger_dissatisfaction() - 1e-9
                );
                assert!(
                    s.total_taxi_dissatisfaction() >= t_opt.total_taxi_dissatisfaction() - 1e-9
                );
            }
        }
    }

    #[test]
    fn company_optimal_prefers_objective() {
        // Two stable matchings exist (fig3-style geometry); the company
        // picks by taxi welfare vs passenger welfare accordingly.
        let mut rng = StdRng::seed_from_u64(1234);
        for _ in 0..40 {
            let (taxis, requests) = random_frame(&mut rng, 3, 3);
            let d = NonSharingDispatcher::new(Euclidean, PreferenceParams::paper());
            let all = d.all_schedules(&taxis, &requests, None);
            let pick = d.company_optimal(&taxis, &requests, CompanyObjective::TaxiWelfare, None);
            let best = all
                .iter()
                .map(Schedule::total_taxi_dissatisfaction)
                .fold(f64::INFINITY, f64::min);
            assert!(pick.total_taxi_dissatisfaction() <= best + 1e-9);
        }
    }
}
