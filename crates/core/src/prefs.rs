//! Preference-order construction — the paper's §IV.A interest models.
//!
//! * A **passenger** `r_j` "mainly cares about the taxi wait time", so it
//!   ranks taxis by `D(t_i, r_j^s)` ascending; taxis beyond the wait
//!   threshold, and taxis without enough seats, fall below the dummy entry
//!   (the passenger would rather stay unserved).
//! * A **driver** `t_i` weighs "(i) the idle taxi driving distance … and
//!   (ii) the taxi traveling distance" and ranks requests by
//!   `D(t_i, r_j^s) − α·D(r_j^s, r_j^d)` ascending; requests whose score
//!   exceeds the driver threshold, and parties that do not fit, fall below
//!   the dummy.
//!
//! [`PreferenceModel`] holds the dense lists as a [`StableInstance`]
//! (requests propose, taxis review) plus the raw cost matrices needed to
//! report dissatisfaction afterwards. [`SparsePickupDistances`] holds only
//! the mutually acceptable pairs, each with both preference keys — the rows
//! the production dispatch path solves with keyed deferred acceptance.

use crate::PreferenceParams;
use o2o_geo::{heuristic_cell_size, BBox, GridIndex, Metric, Point};
use o2o_matching::{KeyedCandidates, KeyedEntry, KeyedMatch, Proposing, StableInstance};
use o2o_obs as obs;
use o2o_par::{par_map, try_par_map, Parallelism, WorkerPanic};
use o2o_trace::{Request, RequestId, Taxi, TaxiId};
use std::collections::HashMap;

/// The idle-taxi × pending-request pick-up distance matrix of one frame.
///
/// `D(t_i, r_j^s)` is policy-independent: every dispatcher starts from
/// the same matrix, so the simulator can precompute it once per frame (in
/// parallel) and hand it to whichever policy runs. Sharing it changes
/// nothing numerically — the entries are exactly the metric's answers —
/// it only avoids recomputing them per policy stage.
#[derive(Debug, Clone, PartialEq)]
pub struct PickupDistances {
    n_requests: usize,
    n_taxis: usize,
    /// Row-major: `d[j * n_taxis + i]` = `D(t_i, r_j^s)`.
    d: Vec<f64>,
}

impl PickupDistances {
    /// Computes the full matrix, splitting request rows across threads.
    #[must_use]
    pub fn compute<M: Metric>(
        metric: &M,
        taxis: &[Taxi],
        requests: &[Request],
        par: Parallelism,
    ) -> Self {
        // One contiguous location array shared by every row lets each
        // request run the batched one-to-many kernel (the pickup as the
        // shared origin — metrics are symmetric by contract, and the
        // built-in kernels are bit-exact under the argument swap).
        let locations: Vec<Point> = taxis.iter().map(|t| t.location).collect();
        let rows = par_map(par, requests.to_vec(), |r| {
            let mut row = vec![0.0f64; locations.len()];
            metric.distances_into(r.pickup, &locations, &mut row);
            row
        });
        PickupDistances {
            n_requests: requests.len(),
            n_taxis: taxis.len(),
            d: rows.concat(),
        }
    }

    /// [`compute`](Self::compute) with panic isolation: metric workers
    /// run under `catch_unwind` ([`o2o_par::try_par_map`]), a panicking
    /// chunk is retried sequentially once, and a persistent panic comes
    /// back as a typed [`WorkerPanic`] instead of tearing down the frame
    /// loop. On success the matrix is bit-identical to
    /// [`compute`](Self::compute).
    ///
    /// # Errors
    ///
    /// Returns [`WorkerPanic`] (with the offending request row index)
    /// when a metric evaluation panics even on retry.
    pub fn try_compute<M: Metric>(
        metric: &M,
        taxis: &[Taxi],
        requests: &[Request],
        par: Parallelism,
    ) -> Result<Self, WorkerPanic> {
        let locations: Vec<Point> = taxis.iter().map(|t| t.location).collect();
        let out = try_par_map(par, requests.to_vec(), |r| {
            let mut row = vec![0.0f64; locations.len()];
            metric.distances_into(r.pickup, &locations, &mut row);
            row
        })?;
        Ok(PickupDistances {
            n_requests: requests.len(),
            n_taxis: taxis.len(),
            d: out.values.concat(),
        })
    }

    /// `D(t_i, r_j^s)` for request row `j` and taxi column `i`.
    #[must_use]
    pub fn get(&self, request: usize, taxi: usize) -> f64 {
        self.d[request * self.n_taxis + taxi]
    }

    /// `(requests, taxis)` dimensions of the matrix.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.n_requests, self.n_taxis)
    }
}

/// Preference orders of one dispatch frame, ready for matching.
///
/// Requests are proposers (index = position in the input slice), taxis are
/// reviewers.
#[derive(Debug, Clone)]
pub struct PreferenceModel {
    /// The stable-marriage instance (requests propose).
    pub instance: StableInstance,
    /// `pickup[j][i]` = `D(t_i, r_j^s)` — passenger `j`'s cost of taxi `i`.
    pub pickup: Vec<Vec<f64>>,
    /// `score[i][j]` = `D(t_i, r_j^s) − α·D(r_j^s, r_j^d)` — driver `i`'s
    /// cost of request `j`.
    pub score: Vec<Vec<f64>>,
}

impl PreferenceModel {
    /// Builds the paper's non-sharing preference orders.
    ///
    /// Complexity `O(|R|·|T|·(cost of the metric) + |R|·|T|·log|T|)`.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`PreferenceParams::validate`].
    #[must_use]
    pub fn build<M: Metric>(
        metric: &M,
        params: &PreferenceParams,
        taxis: &[Taxi],
        requests: &[Request],
    ) -> Self {
        Self::build_with(metric, params, taxis, requests, None)
    }

    /// [`build`](Self::build) with an optional precomputed pick-up
    /// distance matrix.
    ///
    /// When `pickup_distances` is given (shape-checked against the inputs)
    /// the matrix pass reuses it instead of querying the metric — it must
    /// therefore have been computed with this same `metric` (a memoizing
    /// wrapper such as a distance cache over it is fine); debug builds
    /// assert a sampled entry agrees. The entries are the metric's own
    /// answers, so the model is bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`PreferenceParams::validate`] or
    /// `pickup_distances` has the wrong shape.
    #[must_use]
    pub fn build_with<M: Metric>(
        metric: &M,
        params: &PreferenceParams,
        taxis: &[Taxi],
        requests: &[Request],
        pickup_distances: Option<&PickupDistances>,
    ) -> Self {
        let _span = obs::span("preference_build");
        params.validate().expect("invalid preference parameters");
        let n_r = requests.len();
        let n_t = taxis.len();
        if let Some(pd) = pickup_distances {
            assert_eq!(
                pd.shape(),
                (n_r, n_t),
                "pickup-distance matrix shape mismatch: frame has {n_r} \
                 requests × {n_t} taxis (first request {:?}, first taxi {:?})",
                requests.first().map(|r| r.id),
                taxis.first().map(|t| t.id),
            );
            // The caller promises the matrix was computed with this same
            // `metric`; a mismatch (e.g. Euclidean precomputation fed to
            // a road-network policy) silently skews every preference, so
            // spot-check one entry in debug builds.
            if n_r > 0 && n_t > 0 {
                let expect = metric.distance(taxis[0].location, requests[0].pickup);
                debug_assert!(
                    (pd.get(0, 0) - expect).abs() <= 1e-9 * expect.abs().max(1.0),
                    "pickup-distance matrix disagrees with the policy metric \
                     for taxi {:?} → request {:?} (cached {} vs metric \
                     {expect}): was it computed with a different metric?",
                    taxis[0].id,
                    requests[0].id,
                    pd.get(0, 0),
                );
            }
        }

        // One row per request: costs against every taxi, plus the
        // passenger list — taxis with enough seats within the wait
        // threshold, nearest first (ties by taxi index for determinism).
        let locations: Vec<Point> = taxis.iter().map(|t| t.location).collect();
        let mut pickup = Vec::with_capacity(n_r);
        let mut score = Vec::with_capacity(n_r); // request-major; transposed below
        let mut request_lists = Vec::with_capacity(n_r);
        for (j, r) in requests.iter().enumerate() {
            let trip = r.trip_distance(metric);
            let mut pickup_row = vec![0.0f64; n_t];
            match pickup_distances {
                Some(pd) => {
                    for (i, d) in pickup_row.iter_mut().enumerate() {
                        *d = pd.get(j, i);
                    }
                }
                // Batched one-to-many kernel (pickup as the shared
                // origin; see PickupDistances::compute).
                None => metric.distances_into(r.pickup, &locations, &mut pickup_row),
            }
            let score_row: Vec<f64> = pickup_row
                .iter()
                .map(|&d| d - params.alpha * trip)
                .collect();
            let mut list: Vec<usize> = (0..n_t)
                .filter(|&i| {
                    taxis[i].seats >= r.passengers && pickup_row[i] <= params.passenger_threshold
                })
                .collect();
            list.sort_by(|&a, &b| {
                pickup_row[a]
                    .partial_cmp(&pickup_row[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            pickup.push(pickup_row);
            score.push(score_row);
            request_lists.push(list);
        }

        // One column per taxi: the driver list — fitting parties whose
        // score clears the threshold, lowest score first — and the
        // taxi-major score row for reporting.
        let mut taxi_lists = Vec::with_capacity(n_t);
        let mut score_t = Vec::with_capacity(n_t);
        for (i, t) in taxis.iter().enumerate() {
            let mut list: Vec<usize> = (0..n_r)
                .filter(|&j| {
                    t.seats >= requests[j].passengers && score[j][i] <= params.taxi_threshold
                })
                .collect();
            list.sort_by(|&a, &b| {
                score[a][i]
                    .partial_cmp(&score[b][i])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            taxi_lists.push(list);
            score_t.push((0..n_r).map(|j| score[j][i]).collect());
        }

        let instance = StableInstance::new(request_lists, taxi_lists)
            .expect("generated lists are in range and duplicate-free");
        PreferenceModel {
            instance,
            pickup,
            score: score_t,
        }
    }
}

/// The inclusive Euclidean candidate radius around a request's pick-up:
/// any taxi that can be mutually acceptable lies within it.
///
/// Both acceptance filters bound the pick-up distance by
/// `min(θ_p, θ_t + α·trip)`; the bound is inflated by a relative `1e-9`
/// slack so the float rounding of `d − α·trip` can never exclude a taxi
/// the dense filter would admit (see [`SparsePickupDistances`]). This is
/// the **single source of truth** for that radius — the fresh grid walk
/// and the certified rows must agree on it bit-for-bit, or a certified
/// row could differ from a fresh one.
///
/// Returns a negative value or `NaN` only when the thresholds themselves
/// are (callers treat that as "no candidates"); `+∞` means unbounded.
#[must_use]
pub fn candidate_radius(params: &PreferenceParams, trip: f64) -> f64 {
    let alpha_trip = params.alpha * trip;
    let bound = params
        .passenger_threshold
        .min(params.taxi_threshold + alpha_trip);
    bound + 1e-9 * (1.0 + bound.abs() + alpha_trip.abs())
}

/// Builds the per-frame spatial index over taxi positions: taxi *index*
/// payloads (positions in the input slice) in a grid sized by
/// [`heuristic_cell_size`].
///
/// Built once per frame and shared by the sparse preference builder and the
/// grid-based baselines. The bounding box covers only the taxis; queries
/// from pick-up points outside it are still exact (the grid clamps the
/// query cell, which only shrinks per-axis offsets to stored points, so
/// ring lower bounds remain valid).
#[must_use]
pub fn build_taxi_grid(taxis: &[Taxi]) -> GridIndex<usize> {
    let _span = obs::span("grid_build");
    let bbox = BBox::from_points(taxis.iter().map(|t| t.location))
        .unwrap_or_else(|| BBox::square(Point::ORIGIN, 1.0));
    GridIndex::bulk_build(
        bbox,
        heuristic_cell_size(bbox),
        taxis
            .iter()
            .enumerate()
            .map(|(i, t)| (i, t.location))
            .collect(),
    )
}

/// Sparse per-request candidate rows: for each request, only the taxis it
/// is **mutually acceptable** with, in one flat request-major buffer.
///
/// A pair `(t_i, r_j)` can appear in any preference list only when both
/// sides accept it: the party fits (`seats ≥ passengers`),
/// `D(t_i, r_j^s) ≤ θ_p` (passenger) **and** `D(t_i, r_j^s) − α·trip_j ≤ θ_t`
/// (driver) — entries failing any test are no-ops in every stable-matching
/// algorithm (a proposal to a reviewer that does not rank you back is
/// skipped, and vice versa), so dropping them changes nothing. Both
/// distance tests bound the pick-up distance by `min(θ_p, θ_t + α·trip_j)`,
/// which a taxi grid answers in `O(candidates)` instead of `O(|T|)` per
/// request.
///
/// The grid measures Euclidean distance, which must lower-bound the
/// dispatch metric (true for [`o2o_geo::Manhattan`] and for road networks
/// whose edge weights are at least the segment lengths — the same contract
/// [`GridIndex`] documents for the baselines). The query radius is inflated
/// by a relative `1e-9` slack (see [`candidate_radius`]) so the float
/// rounding of `d − α·trip` can never exclude a taxi the dense filter would
/// admit; candidates then pass exactly the dense filters on the true metric
/// distances, keeping the surviving set — and every cost — bit-for-bit
/// identical to the dense path.
///
/// Each entry carries both preference keys — the pick-up distance (the
/// passenger's key) and the driver score `d − α·trip` (the driver's key).
/// [`compute`](Self::compute) sorts each row by `(distance, taxi index)`,
/// the passenger list order, which is exactly the input of keyed deferred
/// acceptance ([`o2o_matching::KeyedMatch`]) with either side proposing;
/// building the buffer also performs the range and duplicate checks a
/// [`StableInstance`] constructor would.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparsePickupDistances {
    /// Row `j`: `(taxi i, D(t_i, r_j^s), driver score)` for every mutually
    /// acceptable taxi; one column per taxi of the frame.
    pairs: KeyedCandidates,
    /// `trips[j]` = `D(r_j^s, r_j^d)`.
    trips: Vec<f64>,
}

impl SparsePickupDistances {
    /// Computes candidate rows for every request, each sorted by
    /// `(distance, taxi index)`.
    ///
    /// `grid` must index `0..taxis.len()` at the taxis' current locations
    /// (see [`build_taxi_grid`]).
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`PreferenceParams::validate`]. Debug builds
    /// assert that `grid` holds one entry per taxi.
    #[must_use]
    pub fn compute<M: Metric>(
        metric: &M,
        params: &PreferenceParams,
        taxis: &[Taxi],
        requests: &[Request],
        grid: &GridIndex<usize>,
    ) -> Self {
        params.validate().expect("invalid preference parameters");
        debug_assert_eq!(
            grid.len(),
            taxis.len(),
            "taxi grid does not match the taxi slice"
        );
        let mut out = SparsePickupDistances::default();
        out.fill(
            requests.len(),
            taxis.len(),
            &mut RowScratch::default(),
            |j, s, pairs| fresh_row(metric, params, taxis, &requests[j], grid, true, s, pairs),
        );
        out
    }

    /// Candidate entries of request `j` — taxi (`col`), pick-up distance
    /// (`row_key`) and driver score (`col_key`) — sorted by `(distance,
    /// taxi index)` unless they were built for taxis to propose.
    #[must_use]
    pub fn row(&self, request: usize) -> &[KeyedEntry] {
        self.pairs.row(request)
    }

    /// The whole request-major pair set (the keyed solver's input).
    #[must_use]
    pub fn pairs(&self) -> &KeyedCandidates {
        &self.pairs
    }

    /// Sorts every row by `(distance, taxi index)`, so requests can
    /// propose on rows that were built for taxis to propose.
    pub fn sort_rows(&mut self) {
        self.pairs.sort_rows();
    }

    /// `D(r_j^s, r_j^d)` for request `j`.
    #[must_use]
    pub fn trip(&self, request: usize) -> f64 {
        self.trips[request]
    }

    /// `(requests, taxis)` dimensions of the (virtual) matrix.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.pairs.rows(), self.pairs.cols())
    }

    /// Total number of mutually acceptable pairs — the sparse analogue of
    /// `|R|·|T|`; benchmark reports use the ratio as the pruning factor.
    #[must_use]
    pub fn candidate_count(&self) -> usize {
        self.pairs.len()
    }

    /// Rebuilds `self` for `n_r` requests over `n_t` taxis, row `j` written
    /// straight into the buffer by `row(j, scratch, pairs)` (which returns
    /// the request's trip).
    fn fill<F>(&mut self, n_r: usize, n_t: usize, scratch: &mut RowScratch, mut row: F)
    where
        F: FnMut(usize, &mut RowScratch, &mut KeyedCandidates) -> f64,
    {
        self.pairs.reset(n_t);
        self.trips.clear();
        for j in 0..n_r {
            self.trips.push(row(j, scratch, &mut self.pairs));
        }
    }

    /// This frame's candidate rows for `proposing` to propose on, built
    /// with the help of the stability certificate the previous recorded
    /// solve left in `cert`. Returns the rows, which live in `cert`'s
    /// buffer; the solve on them certifies the next frame only once
    /// [`RowCertificate::record_solve`] records its result.
    ///
    /// The certificate rests on stability. A stable matching leaves no
    /// mutually acceptable pair between a request and a taxi that are
    /// both unmatched, because such a pair would block. Membership in a
    /// row is a pure function of `(pickup, drop-off, party, params, taxi
    /// position and seats)`: the grid's inclusive Euclidean test `‖t_i −
    /// r_j^s‖ ≤ radius` followed by the mutual filter on exact metric
    /// distances. So for a request that the certified frame held
    /// unchanged (same id, bit-identical pickup and drop-off, same party)
    /// and left unmatched, no taxi it also held unchanged (same id,
    /// bit-identical position, same seats) and left unmatched can be in
    /// the row. Such a request tests only the other taxis — new, moved,
    /// re-seated, or matched in the certified frame — against the same
    /// radius and filter, and reuses its recorded trip. Every other
    /// request takes the fresh grid path. This holds for any frame delta,
    /// any id repetition and any order of the taxis, so the rows hold
    /// exactly the entries of a fresh [`compute`](Self::compute).
    ///
    /// Rows are sorted by `(distance, taxi index)` only when
    /// [`Proposing::Rows`]; when taxis propose, the keyed solver compares
    /// keys and a row keeps the order its taxis were found in. Changed
    /// [`PreferenceParams`], or no recorded solve since the last call,
    /// leave every row fresh. Exactness requires only that the
    /// certificate is always fed through the **same metric**.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`PreferenceParams::validate`]. Debug
    /// builds assert that `grid` holds one entry per taxi.
    #[allow(clippy::too_many_arguments)]
    pub fn compute_incremental<'c, M: Metric>(
        metric: &M,
        params: &PreferenceParams,
        taxis: &[Taxi],
        requests: &[Request],
        grid: &GridIndex<usize>,
        proposing: Proposing,
        cert: &'c mut RowCertificate,
    ) -> &'c mut SparsePickupDistances {
        params.validate().expect("invalid preference parameters");
        debug_assert_eq!(
            grid.len(),
            taxis.len(),
            "taxi grid does not match the taxi slice"
        );
        let sorted = proposing == Proposing::Rows;
        let RowCertificate {
            params: recorded_params,
            solved,
            taxis: old_taxis,
            requests: old_requests,
            rows,
            taxi_at,
            request_at,
            tested,
            scratch,
        } = cert;

        // Map the certified frame onto this one: `tested` lists the
        // current taxis the certificate does not cover (new, moved,
        // re-seated or matched), `request_at` the requests it does.
        let certified = *solved && *recorded_params == Some(*params);
        tested.clear();
        request_at.clear();
        if certified {
            taxi_at.clear();
            taxi_at.extend(old_taxis.iter().enumerate().map(|(i, t)| (t.id, i)));
            for (i, t) in taxis.iter().enumerate() {
                let covered = taxi_at.get(&t.id).is_some_and(|&oi| {
                    let old = &old_taxis[oi];
                    !old.matched && same_bits(old.location, t.location) && old.seats == t.seats
                });
                if !covered {
                    tested.push((i, t.location));
                }
            }
            request_at.extend(
                old_requests
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| !r.matched)
                    .map(|(j, r)| (r.id, j)),
            );
        }

        let (tested, request_at, recorded) = (&*tested, &*request_at, &*old_requests);
        rows.fill(requests.len(), taxis.len(), scratch, |j, s, pairs| {
            let r = &requests[j];
            if let Some(old) = request_at.get(&r.id).map(|&oj| &recorded[oj]) {
                if same_bits(old.pickup, r.pickup)
                    && same_bits(old.dropoff, r.dropoff)
                    && old.party == r.passengers
                {
                    certified_row(metric, params, taxis, r, old.trip, tested, sorted, s, pairs);
                    return old.trip;
                }
            }
            fresh_row(metric, params, taxis, r, grid, sorted, s, pairs)
        });

        // Record this frame, uncertified until its solve is recorded.
        *solved = false;
        *recorded_params = Some(*params);
        old_taxis.clear();
        old_taxis.extend(taxis.iter().map(|t| RecordedTaxi {
            id: t.id,
            location: t.location,
            seats: t.seats,
            matched: false,
        }));
        old_requests.clear();
        old_requests.extend(
            requests
                .iter()
                .zip(&rows.trips)
                .map(|(r, &trip)| RecordedRequest {
                    id: r.id,
                    pickup: r.pickup,
                    dropoff: r.dropoff,
                    party: r.passengers,
                    trip,
                    matched: false,
                }),
        );
        rows
    }
}

/// Working memory for building candidate rows.
#[derive(Debug, Clone, Default)]
struct RowScratch {
    /// Taxi indices to measure (grid hits or tested taxis in range).
    hits: Vec<usize>,
    /// Their locations, contiguous for the batched metric kernel.
    locations: Vec<Point>,
    /// Their metric pick-up distances.
    dists: Vec<f64>,
    /// Admitted `(distance, taxi)` pairs, in hit order unless sorted.
    admitted: Vec<(f64, usize)>,
}

impl RowScratch {
    /// Measures every hit with the batched one-to-many kernel (the pickup
    /// as the shared origin; see [`PickupDistances::compute`]) and writes
    /// the mutually acceptable ones as one finished row of `pairs`, each
    /// with its driver score `d − α·trip` — sorted by `(distance, taxi
    /// index)`, the dense row order, when `sorted`.
    #[allow(clippy::too_many_arguments)]
    fn admit_row<M: Metric>(
        &mut self,
        metric: &M,
        params: &PreferenceParams,
        taxis: &[Taxi],
        r: &Request,
        trip: f64,
        sorted: bool,
        pairs: &mut KeyedCandidates,
    ) {
        self.dists.clear();
        self.dists.resize(self.locations.len(), 0.0);
        metric.distances_into(r.pickup, &self.locations, &mut self.dists);
        self.admitted.clear();
        for (&i, &d) in self.hits.iter().zip(&self.dists) {
            if mutually_acceptable(params, &taxis[i], r, d, trip) {
                self.admitted.push((d, i));
            }
        }
        if sorted {
            self.admitted.sort_unstable_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.1.cmp(&b.1))
            });
        }
        for &(d, i) in &self.admitted {
            pairs.push(i, d, d - params.alpha * trip);
        }
        pairs.finish_row();
    }
}

/// The dense path's acceptance filters for one pair: the party fits, the
/// passenger accepts the pick-up distance and the driver the score.
fn mutually_acceptable(
    params: &PreferenceParams,
    t: &Taxi,
    r: &Request,
    d: f64,
    trip: f64,
) -> bool {
    t.seats >= r.passengers
        && d <= params.passenger_threshold
        && d - params.alpha * trip <= params.taxi_threshold
}

/// Writes one request's fresh candidate row into `pairs` — grid walk,
/// exact metric distances, mutual filter, and the `(distance, index)`
/// sort when `sorted` — and returns its trip.
#[allow(clippy::too_many_arguments)]
fn fresh_row<M: Metric>(
    metric: &M,
    params: &PreferenceParams,
    taxis: &[Taxi],
    r: &Request,
    grid: &GridIndex<usize>,
    sorted: bool,
    s: &mut RowScratch,
    pairs: &mut KeyedCandidates,
) -> f64 {
    let trip = r.trip_distance(metric);
    // Inflated to absorb the rounding of `d − α·trip` vs `θ_t + α·trip`;
    // the exact filters run on metric distances below. The grid walks no
    // cell for a negative or NaN radius.
    let radius = candidate_radius(params, trip);
    s.hits.clear();
    s.locations.clear();
    grid.visit_within(r.pickup, radius, |&i, _| {
        s.hits.push(i);
        s.locations.push(taxis[i].location);
    });
    s.admit_row(metric, params, taxis, r, trip, sorted, pairs);
    trip
}

/// Writes the row of a request the certificate covers into `pairs`: only
/// the `tested` taxis, through the grid's inclusive membership test and
/// the mutual filter (see [`SparsePickupDistances::compute_incremental`]).
#[allow(clippy::too_many_arguments)]
fn certified_row<M: Metric>(
    metric: &M,
    params: &PreferenceParams,
    taxis: &[Taxi],
    r: &Request,
    trip: f64,
    tested: &[(usize, Point)],
    sorted: bool,
    s: &mut RowScratch,
    pairs: &mut KeyedCandidates,
) {
    let radius = candidate_radius(params, trip);
    s.hits.clear();
    s.locations.clear();
    for &(i, pos) in tested {
        if pos.within(r.pickup, radius) {
            s.hits.push(i);
            s.locations.push(pos);
        }
    }
    s.admit_row(metric, params, taxis, r, trip, sorted, pairs);
}

/// `true` when two points are bit-identical on both coordinates — the
/// certificate's notion of "did not move" (any representational change,
/// `-0.0` vs `0.0` included, conservatively counts as moved).
fn same_bits(a: Point, b: Point) -> bool {
    a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits()
}

/// A taxi of the recorded frame.
#[derive(Debug, Clone)]
struct RecordedTaxi {
    id: TaxiId,
    location: Point,
    seats: u8,
    /// Matched by the recorded solve.
    matched: bool,
}

/// A request of the recorded frame.
#[derive(Debug, Clone)]
struct RecordedRequest {
    id: RequestId,
    pickup: Point,
    dropoff: Point,
    party: u8,
    /// `D(r_j^s, r_j^d)`, reused while the request stays unchanged.
    trip: f64,
    /// Matched by the recorded solve.
    matched: bool,
}

/// The stability certificate a warm NSTD frame leaves for the next one
/// (see [`SparsePickupDistances::compute_incremental`]): the last frame's
/// taxis and requests, each request's trip, and which of them its
/// deferred acceptance matched, plus the row buffer and working memory
/// every frame reuses.
///
/// Owned by [`crate::IncrementalState`]. The certificate is valid only
/// once the solve on the recorded frame's rows is recorded
/// ([`record_solve`](Self::record_solve)); until then, or under
/// different [`PreferenceParams`], every request takes the fresh grid
/// path.
#[derive(Debug, Clone, Default)]
pub struct RowCertificate {
    /// The params the recorded frame was built under.
    params: Option<PreferenceParams>,
    /// Whether the recorded frame's solve is recorded.
    solved: bool,
    /// The recorded frame's taxis, by index.
    taxis: Vec<RecordedTaxi>,
    /// The recorded frame's requests, by index.
    requests: Vec<RecordedRequest>,
    /// The rows of the last frame built.
    rows: SparsePickupDistances,
    /// Recorded taxi id → recorded index.
    taxi_at: HashMap<TaxiId, usize>,
    /// Recorded id → recorded index of each request left unmatched.
    request_at: HashMap<RequestId, usize>,
    /// Current taxis the certificate does not cover.
    tested: Vec<(usize, Point)>,
    /// Row-building scratch.
    scratch: RowScratch,
}

impl RowCertificate {
    /// An empty certificate (the first frame takes the fresh path).
    #[must_use]
    pub fn new() -> Self {
        RowCertificate::default()
    }

    /// Records which requests and taxis `solver` matched on the rows the
    /// last [`SparsePickupDistances::compute_incremental`] call returned,
    /// certifying that frame for the next one. `solver` must hold a
    /// deferred-acceptance result on exactly those rows: any such result
    /// is stable, whichever side proposed.
    pub(crate) fn record_solve(&mut self, solver: &KeyedMatch) {
        for (j, r) in self.requests.iter_mut().enumerate() {
            r.matched = solver.row_entry(j).is_some();
        }
        for (i, t) in self.taxis.iter_mut().enumerate() {
            t.matched = solver.col_entry(i).is_some();
        }
        self.solved = true;
    }

    /// The rows of the last frame built.
    pub(crate) fn rows(&self) -> &SparsePickupDistances {
        &self.rows
    }

    /// Forgets the recorded frame (the next frame takes the fresh path).
    /// Buffer capacity is kept.
    pub fn clear(&mut self) {
        self.params = None;
        self.solved = false;
        self.taxis.clear();
        self.requests.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2o_geo::{Euclidean, Point};
    use o2o_trace::{RequestId, TaxiId};

    fn taxi(id: u64, x: f64, y: f64) -> Taxi {
        Taxi::new(TaxiId(id), Point::new(x, y))
    }

    fn request(id: u64, sx: f64, sy: f64, dx: f64, dy: f64) -> Request {
        Request::new(RequestId(id), 0, Point::new(sx, sy), Point::new(dx, dy))
    }

    #[test]
    fn passenger_prefers_nearest_taxi() {
        let taxis = vec![taxi(0, 5.0, 0.0), taxi(1, 1.0, 0.0), taxi(2, 3.0, 0.0)];
        let requests = vec![request(0, 0.0, 0.0, 0.0, 10.0)];
        let m = PreferenceModel::build(
            &Euclidean,
            &PreferenceParams::unbounded(),
            &taxis,
            &requests,
        );
        assert_eq!(m.instance.proposer_list(0), &[1, 2, 0]);
    }

    #[test]
    fn driver_prefers_high_payoff() {
        // Two requests at the same pickup distance; the longer trip wins
        // (lower score = D − α·trip).
        let taxis = vec![taxi(0, 0.0, 0.0)];
        let requests = vec![
            request(0, 1.0, 0.0, 2.0, 0.0), // trip 1 km
            request(1, 0.0, 1.0, 0.0, 9.0), // trip 8 km
        ];
        let m = PreferenceModel::build(
            &Euclidean,
            &PreferenceParams::unbounded(),
            &taxis,
            &requests,
        );
        assert_eq!(m.instance.reviewer_list(0), &[1, 0]);
        assert_eq!(m.score[0][1], 1.0 - 8.0);
    }

    #[test]
    fn alpha_zero_makes_driver_rank_by_distance() {
        let taxis = vec![taxi(0, 0.0, 0.0)];
        let requests = vec![
            request(0, 2.0, 0.0, 2.0, 50.0), // nearer pickup, huge trip
            request(1, 1.0, 0.0, 1.0, 2.0),
        ];
        let params = PreferenceParams::unbounded().with_alpha(0.0);
        let m = PreferenceModel::build(&Euclidean, &params, &taxis, &requests);
        assert_eq!(m.instance.reviewer_list(0), &[1, 0]);
    }

    #[test]
    fn wait_threshold_truncates_passenger_list() {
        let taxis = vec![taxi(0, 1.0, 0.0), taxi(1, 20.0, 0.0)];
        let requests = vec![request(0, 0.0, 0.0, 5.0, 0.0)];
        let params = PreferenceParams::unbounded().with_passenger_threshold(10.0);
        let m = PreferenceModel::build(&Euclidean, &params, &taxis, &requests);
        assert_eq!(m.instance.proposer_list(0), &[0]);
    }

    #[test]
    fn taxi_threshold_truncates_driver_list() {
        let taxis = vec![taxi(0, 0.0, 0.0)];
        let requests = vec![
            request(0, 1.0, 0.0, 11.0, 0.0), // score 1 − 10 = −9
            request(1, 9.0, 0.0, 10.0, 0.0), // score 9 − 1 = 8
        ];
        let params = PreferenceParams::unbounded().with_taxi_threshold(0.0);
        let m = PreferenceModel::build(&Euclidean, &params, &taxis, &requests);
        assert_eq!(m.instance.reviewer_list(0), &[0]);
    }

    #[test]
    fn seat_constraint_excludes_both_sides() {
        let taxis = vec![Taxi::with_seats(TaxiId(0), Point::ORIGIN, 2)];
        let requests = vec![Request::with_party(
            RequestId(0),
            0,
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            4,
        )];
        let m = PreferenceModel::build(
            &Euclidean,
            &PreferenceParams::unbounded(),
            &taxis,
            &requests,
        );
        assert!(m.instance.proposer_list(0).is_empty());
        assert!(m.instance.reviewer_list(0).is_empty());
    }

    #[test]
    fn empty_inputs_build() {
        let m = PreferenceModel::build(&Euclidean, &PreferenceParams::default(), &[], &[]);
        assert_eq!(m.instance.proposers(), 0);
        assert_eq!(m.instance.reviewers(), 0);
    }

    #[test]
    fn try_compute_matches_compute_on_clean_metrics() {
        let taxis: Vec<Taxi> = (0..8).map(|i| taxi(i, i as f64, 0.0)).collect();
        let requests: Vec<Request> = (0..30)
            .map(|j| request(j, j as f64 * 0.3, 1.0, 2.0, 5.0))
            .collect();
        for threads in [1, 4] {
            let par = Parallelism::fixed(threads);
            let plain = PickupDistances::compute(&Euclidean, &taxis, &requests, par);
            let tried = PickupDistances::try_compute(&Euclidean, &taxis, &requests, par).unwrap();
            assert_eq!(plain, tried, "threads = {threads}");
        }
    }

    #[test]
    fn try_compute_surfaces_metric_panics_as_errors() {
        #[derive(Debug)]
        struct Poisoned;
        impl Metric for Poisoned {
            fn distance(&self, a: Point, b: Point) -> f64 {
                // Poison on either argument: the batched kernel passes the
                // request pickup as the origin.
                assert!(
                    a.x < 100.0 && b.x < 100.0,
                    "metric poisoned at x = {}",
                    a.x.max(b.x)
                );
                Euclidean.distance(a, b)
            }
        }
        std::panic::set_hook(Box::new(|_| {}));
        let taxis = vec![taxi(0, 0.0, 0.0)];
        let requests: Vec<Request> = (0..40)
            .map(|j| request(j, if j == 25 { 200.0 } else { 1.0 }, 0.0, 2.0, 0.0))
            .collect();
        let err = PickupDistances::try_compute(&Poisoned, &taxis, &requests, Parallelism::fixed(4))
            .unwrap_err();
        let _ = std::panic::take_hook();
        assert_eq!(err.first_item, 25);
        assert!(err.message.contains("metric poisoned"));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "different metric")]
    fn mismatched_pickup_metric_is_caught_in_debug() {
        #[derive(Debug)]
        struct Doubled;
        impl Metric for Doubled {
            fn distance(&self, a: Point, b: Point) -> f64 {
                2.0 * Euclidean.distance(a, b)
            }
        }
        let taxis = vec![taxi(0, 3.0, 0.0)];
        let requests = vec![request(0, 0.0, 0.0, 0.0, 5.0)];
        let pd = PickupDistances::compute(&Euclidean, &taxis, &requests, Parallelism::sequential());
        let _ = PreferenceModel::build_with(
            &Doubled,
            &PreferenceParams::unbounded(),
            &taxis,
            &requests,
            Some(&pd),
        );
    }

    #[test]
    fn a_precomputed_pickup_matrix_builds_the_same_model() {
        let taxis: Vec<Taxi> = (0..7).map(|i| taxi(i, i as f64 * 1.3 - 4.0, 0.7)).collect();
        let requests: Vec<Request> = (0..9)
            .map(|j| request(j, j as f64 * 0.9 - 4.0, -1.0, 3.0, j as f64 * 0.5))
            .collect();
        let params = PreferenceParams::paper().with_passenger_threshold(9.0);
        let plain = PreferenceModel::build(&Euclidean, &params, &taxis, &requests);
        let pd = PickupDistances::compute(&Euclidean, &taxis, &requests, Parallelism::fixed(4));
        let with_pd =
            PreferenceModel::build_with(&Euclidean, &params, &taxis, &requests, Some(&pd));
        assert_eq!(plain.pickup, with_pd.pickup);
        assert_eq!(plain.score, with_pd.score);
        for j in 0..requests.len() {
            assert_eq!(
                plain.instance.proposer_list(j),
                with_pd.instance.proposer_list(j)
            );
        }
        for i in 0..taxis.len() {
            assert_eq!(
                plain.instance.reviewer_list(i),
                with_pd.instance.reviewer_list(i)
            );
        }
    }

    #[test]
    fn sparse_lists_are_dense_lists_restricted_to_mutual_pairs() {
        let taxis: Vec<Taxi> = (0..12)
            .map(|i| {
                taxi(
                    i,
                    (i as f64 * 2.3) % 9.0 - 4.0,
                    (i as f64 * 1.7) % 8.0 - 4.0,
                )
            })
            .collect();
        let requests: Vec<Request> = (0..10)
            .map(|j| {
                request(
                    j,
                    (j as f64 * 3.1) % 8.0 - 4.0,
                    (j as f64 * 1.3) % 7.0 - 3.0,
                    (j as f64 * 2.9) % 9.0 - 4.5,
                    (j as f64 * 0.7) % 6.0 - 3.0,
                )
            })
            .collect();
        for params in [
            PreferenceParams::paper(),
            PreferenceParams::unbounded(),
            PreferenceParams::paper()
                .with_passenger_threshold(3.0)
                .with_taxi_threshold(0.5),
        ] {
            let dense = PreferenceModel::build(&Euclidean, &params, &taxis, &requests);
            let grid = build_taxi_grid(&taxis);
            let rows =
                SparsePickupDistances::compute(&Euclidean, &params, &taxis, &requests, &grid);
            // Driver side: each taxi's entries gathered from the rows and
            // sorted by (score, request index), the dense comparator.
            let mut by_taxi: Vec<Vec<(f64, usize)>> = vec![Vec::new(); taxis.len()];
            for j in 0..requests.len() {
                // Passenger side: the row is the dense list minus entries
                // the taxi side rejects, order preserved; costs identical.
                let expect: Vec<usize> = dense
                    .instance
                    .proposer_list(j)
                    .iter()
                    .copied()
                    .filter(|&i| dense.instance.reviewer_rank_of(i, j).is_some())
                    .collect();
                let row: Vec<usize> = rows.row(j).iter().map(|e| e.col as usize).collect();
                assert_eq!(row, expect);
                for e in rows.row(j) {
                    let i = e.col as usize;
                    assert_eq!(e.row_key, dense.pickup[j][i]);
                    assert_eq!(e.col_key, dense.score[i][j]);
                    by_taxi[i].push((e.col_key, j));
                }
            }
            for (i, mut entries) in by_taxi.into_iter().enumerate() {
                entries.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let expect: Vec<usize> = dense
                    .instance
                    .reviewer_list(i)
                    .iter()
                    .copied()
                    .filter(|&j| dense.instance.proposer_rank_of(j, i).is_some())
                    .collect();
                let got: Vec<usize> = entries.iter().map(|&(_, j)| j).collect();
                assert_eq!(got, expect);
            }
            // And keyed deferred acceptance on the rows agrees with the
            // dense instance exactly, either side proposing.
            let mut solver = KeyedMatch::new();
            for (proposing, m) in [
                (Proposing::Rows, dense.instance.propose()),
                (Proposing::Columns, dense.instance.reviewer_optimal()),
            ] {
                solver.solve(rows.pairs(), proposing);
                for j in 0..requests.len() {
                    let col = solver
                        .row_entry(j)
                        .map(|e| rows.pairs().entry(e).col as usize);
                    assert_eq!(col, m.proposer_partner(j), "{proposing:?}");
                }
            }
        }
    }

    #[test]
    fn sparse_rows_handle_empty_frames() {
        let params = PreferenceParams::paper();
        let build = |taxis: &[Taxi], requests: &[Request]| {
            SparsePickupDistances::compute(
                &Euclidean,
                &params,
                taxis,
                requests,
                &build_taxi_grid(taxis),
            )
        };
        assert_eq!(build(&[], &[]).shape(), (0, 0));
        let taxis = vec![taxi(0, 0.0, 0.0)];
        assert_eq!(build(&taxis, &[]).shape(), (0, 1));
        let requests = vec![request(0, 1.0, 0.0, 2.0, 0.0)];
        let rows = build(&[], &requests);
        assert_eq!(rows.shape(), (1, 0));
        assert!(rows.row(0).is_empty());
    }

    /// Keyed deferred acceptance on `rows`, recorded in `cert`.
    fn solve_and_record(cert: &mut RowCertificate, proposing: Proposing) {
        let mut solver = KeyedMatch::new();
        solver.solve(cert.rows().pairs(), proposing);
        cert.record_solve(&solver);
    }

    /// A metric that counts its evaluations.
    #[derive(Debug, Default)]
    struct Counting(std::sync::atomic::AtomicUsize);

    impl Metric for Counting {
        fn distance(&self, a: Point, b: Point) -> f64 {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Euclidean.distance(a, b)
        }
    }

    impl Counting {
        /// Evaluations since the last call.
        fn take(&self) -> usize {
            self.0.swap(0, std::sync::atomic::Ordering::Relaxed)
        }
    }

    #[test]
    fn unrecorded_solve_leaves_every_row_fresh() {
        // More requests than taxis, so a recorded solve leaves requests
        // unmatched and the certificate would skip their trips and taxis.
        let params = PreferenceParams::unbounded();
        let taxis: Vec<Taxi> = (0..4).map(|i| taxi(i, i as f64 - 1.5, 0.3)).collect();
        let requests: Vec<Request> = (0..10)
            .map(|j| request(j, j as f64 * 0.4 - 2.0, -0.5, j as f64, 2.0))
            .collect();
        let grid = build_taxi_grid(&taxis);
        let metric = Counting::default();
        let fresh = SparsePickupDistances::compute(&metric, &params, &taxis, &requests, &grid);
        let fresh_queries = metric.take();
        let mut cert = RowCertificate::new();
        for call in 0..3 {
            let rows = SparsePickupDistances::compute_incremental(
                &metric,
                &params,
                &taxis,
                &requests,
                &grid,
                Proposing::Rows,
                &mut cert,
            );
            assert_eq!(rows, &fresh, "call {call}");
            assert_eq!(metric.take(), fresh_queries, "call {call} is not fresh");
        }
        // The control: once the solve is recorded, the same frame
        // queries less and still builds the same rows.
        solve_and_record(&mut cert, Proposing::Rows);
        let rows = SparsePickupDistances::compute_incremental(
            &metric,
            &params,
            &taxis,
            &requests,
            &grid,
            Proposing::Rows,
            &mut cert,
        );
        assert_eq!(rows, &fresh);
        assert!(metric.take() < fresh_queries);
    }

    #[test]
    fn incremental_rows_fall_back_on_param_change() {
        let taxis: Vec<Taxi> = (0..6).map(|i| taxi(i, i as f64 - 2.0, 0.5)).collect();
        let requests: Vec<Request> = (0..4)
            .map(|j| request(j, j as f64 - 1.0, -0.5, j as f64, 2.0))
            .collect();
        let grid = build_taxi_grid(&taxis);
        let mut cert = RowCertificate::new();
        let a = PreferenceParams::paper();
        let b = PreferenceParams::paper().with_passenger_threshold(1.5);
        let _ = SparsePickupDistances::compute_incremental(
            &Euclidean,
            &a,
            &taxis,
            &requests,
            &grid,
            Proposing::Rows,
            &mut cert,
        );
        solve_and_record(&mut cert, Proposing::Rows);
        // Same frame, different params: the certificate (recorded under
        // `a`'s rows) must not shape `b`'s rows.
        let rows = SparsePickupDistances::compute_incremental(
            &Euclidean,
            &b,
            &taxis,
            &requests,
            &grid,
            Proposing::Rows,
            &mut cert,
        );
        let fresh = SparsePickupDistances::compute(&Euclidean, &b, &taxis, &requests, &grid);
        assert_eq!(rows, &fresh);
    }

    #[test]
    fn incremental_rows_hold_only_mutually_acceptable_pairs_in_order() {
        // Stationary taxis under a tight taxi threshold, re-seated every
        // frame: the rows are the filtered ones, never the raw grid hits,
        // a seat change re-tests the taxi, and rows stay sorted.
        let params = PreferenceParams::paper()
            .with_passenger_threshold(3.0)
            .with_taxi_threshold(0.5);
        let mut taxis: Vec<Taxi> = (0..9).map(|i| taxi(i, i as f64 * 0.7 - 3.0, 0.2)).collect();
        taxis[4].seats = 2;
        let requests: Vec<Request> = (0..6)
            .map(|j| {
                let mut r = request(j, j as f64 - 2.5, 0.0, j as f64 * 0.5, 1.0);
                r.passengers = 1 + (j % 4) as u8;
                r
            })
            .collect();
        let grid = build_taxi_grid(&taxis);
        let mut cert = RowCertificate::new();
        for frame in 0..4 {
            let spd = SparsePickupDistances::compute_incremental(
                &Euclidean,
                &params,
                &taxis,
                &requests,
                &grid,
                Proposing::Rows,
                &mut cert,
            );
            let fresh =
                SparsePickupDistances::compute(&Euclidean, &params, &taxis, &requests, &grid);
            assert_eq!(spd, &fresh, "frame {frame}");
            for (j, r) in requests.iter().enumerate() {
                let trip = spd.trip(j);
                for e in spd.row(j) {
                    let t = &taxis[e.col as usize];
                    assert!(t.seats >= r.passengers);
                    assert!(e.row_key <= params.passenger_threshold);
                    assert_eq!(e.col_key, e.row_key - params.alpha * trip);
                    assert!(e.col_key <= params.taxi_threshold);
                }
                assert!(spd
                    .row(j)
                    .windows(2)
                    .all(|w| (w[0].row_key, w[0].col) < (w[1].row_key, w[1].col)));
            }
            solve_and_record(&mut cert, Proposing::Rows);
            for t in &mut taxis {
                t.seats = if t.seats == 4 { 2 } else { 4 };
            }
        }
    }

    #[test]
    fn matrices_have_expected_shapes() {
        let taxis = vec![taxi(0, 0.0, 0.0), taxi(1, 1.0, 1.0)];
        let requests = vec![request(0, 0.0, 1.0, 1.0, 1.0)];
        let m = PreferenceModel::build(&Euclidean, &PreferenceParams::default(), &taxis, &requests);
        assert_eq!(m.pickup.len(), 1);
        assert_eq!(m.pickup[0].len(), 2);
        assert_eq!(m.score.len(), 2);
        assert_eq!(m.score[0].len(), 1);
    }
}
