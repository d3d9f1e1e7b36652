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
//! report dissatisfaction afterwards. The production dispatch path keeps
//! only the mutually acceptable pairs, each with both preference keys, and
//! solves them with keyed deferred acceptance: NSTD-P on one sorted row per
//! request ([`SparsePickupDistances`]), NSTD-T on one row per taxi, each
//! revealed in bands of a lower bound on the driver score (`TaxiRows`).
//! Both are built with the help of the stability certificate the previous
//! frame's solve leaves ([`RowCertificate`]).

use crate::{PreferenceParams, Schedule};
use o2o_geo::{heuristic_cell_size, BBox, GridIndex, Metric, Point};
use o2o_matching::{KeyedCandidates, KeyedEntry, StableInstance};
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
/// Every row is sorted by `(distance, taxi index)`, the passenger list
/// order, which is exactly the input of keyed deferred acceptance
/// ([`o2o_matching::KeyedMatch`]) with requests proposing — NSTD-P. (NSTD-T
/// builds its rows per taxi instead; see
/// [`RowCertificate`].) Building the buffer also performs the range and
/// duplicate checks a [`StableInstance`] constructor would.
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
            |j, s, pairs| fresh_row(metric, params, taxis, &requests[j], grid, s, pairs),
        );
        out
    }

    /// Candidate entries of request `j` — taxi (`col`), pick-up distance
    /// (`row_key`) and driver score (`col_key`) — sorted by `(distance,
    /// taxi index)`.
    #[must_use]
    pub fn row(&self, request: usize) -> &[KeyedEntry] {
        self.pairs.row(request)
    }

    /// The whole request-major pair set (the keyed solver's input).
    #[must_use]
    pub fn pairs(&self) -> &KeyedCandidates {
        &self.pairs
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

    /// This frame's rows for requests to propose on (NSTD-P), built with
    /// the help of the stability certificate the previous recorded solve
    /// left in `cert`. Returns the rows, which live in `cert`'s buffer; the
    /// solve on them certifies the next frame only once its schedule is
    /// recorded in `cert`.
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
    /// exactly the entries of a fresh [`compute`](Self::compute), sorted
    /// the same way.
    ///
    /// Changed [`PreferenceParams`], or no recorded solve since the last
    /// call, leave every row fresh. Exactness requires only that the
    /// certificate is always fed through the **same metric**.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`PreferenceParams::validate`]. Debug
    /// builds assert that `grid` holds one entry per taxi.
    pub fn compute_incremental<'c, M: Metric>(
        metric: &M,
        params: &PreferenceParams,
        taxis: &[Taxi],
        requests: &[Request],
        grid: &GridIndex<usize>,
        cert: &'c mut RowCertificate,
    ) -> &'c mut SparsePickupDistances {
        params.validate().expect("invalid preference parameters");
        debug_assert_eq!(
            grid.len(),
            taxis.len(),
            "taxi grid does not match the taxi slice"
        );
        let RowCertificate {
            frame,
            rows,
            scratch,
            ..
        } = cert;
        frame.map(params, taxis);
        rows.fill(requests.len(), taxis.len(), scratch, |j, s, pairs| {
            let r = &requests[j];
            match frame.trip(r) {
                Some(trip) => {
                    certified_row(metric, params, taxis, r, trip, &frame.tested, s, pairs);
                    trip
                }
                None => fresh_row(metric, params, taxis, r, grid, s, pairs),
            }
        });
        frame.record(params, taxis, requests, &rows.trips);
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
    /// Admitted `(distance, taxi)` pairs.
    admitted: Vec<(f64, usize)>,
}

impl RowScratch {
    /// Measures every hit with the batched one-to-many kernel (the pickup
    /// as the shared origin; see [`PickupDistances::compute`]) and writes
    /// the mutually acceptable ones as one finished row of `pairs`, each
    /// with its driver score `d − α·trip`, sorted by `(distance, taxi
    /// index)` — the dense row order.
    fn admit_row<M: Metric>(
        &mut self,
        metric: &M,
        params: &PreferenceParams,
        taxis: &[Taxi],
        r: &Request,
        trip: f64,
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
        self.admitted.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
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
/// exact metric distances, mutual filter, `(distance, index)` sort — and
/// returns its trip.
fn fresh_row<M: Metric>(
    metric: &M,
    params: &PreferenceParams,
    taxis: &[Taxi],
    r: &Request,
    grid: &GridIndex<usize>,
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
    s.admit_row(metric, params, taxis, r, trip, pairs);
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
    s.admit_row(metric, params, taxis, r, trip, pairs);
}

/// One frame's inputs, as the taxi rows read them to evaluate a pair.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame<'a, M> {
    pub(crate) metric: &'a M,
    pub(crate) params: &'a PreferenceParams,
    pub(crate) taxis: &'a [Taxi],
    pub(crate) requests: &'a [Request],
}

/// How many of a taxi's hidden candidates its first band reveals; each
/// later band reveals twice as many as the one before. Most taxis propose
/// once or twice per frame, so the first band is small.
const FIRST_BAND: u32 = 8;

/// One candidate request of a taxi whose band has not yet made it final.
#[derive(Debug, Clone, Copy)]
struct Hidden {
    /// Strictly below the driver score until measured (see [`Reach`]);
    /// the score itself once measured.
    key: f64,
    /// The request index.
    request: u32,
    /// Where [`TaxiRows`] keeps the measured pick-up distance, or
    /// [`UNMEASURED`].
    dist: u32,
}

/// [`Hidden::dist`] of a candidate not yet measured.
const UNMEASURED: u32 = u32::MAX;

/// Request pick-ups laid out for taxis to scan, one slot per request,
/// struct-of-arrays so the radius test runs branch-free over contiguous
/// memory.
///
/// A slot holds the request's inclusive candidate radius
/// ([`candidate_radius`]) as the squared-distance range `Point::within`
/// decides from the squared distance alone: below `lo` is within, above
/// `hi` is beyond, and in between (or when the radius squared leaves the
/// safe range) the exact `hypot` test decides, so [`scan`](Self::scan)
/// admits exactly the taxi–request pairs `Point::within` does.
///
/// Each admitted candidate gets a key `‖t − r^s‖·(1 − 1e-9) − shift`,
/// with the distance from the square root of the squared distance (no
/// `hypot`) and `shift = α·trip + 1e-9·(1 + |α·trip|)`. Euclidean distance
/// lower-bounds the metric (the contract [`SparsePickupDistances`]
/// documents), and the relative `1e-9` dwarfs the few ulps by which the
/// square root, `hypot`, the metric and the subtractions may round apart,
/// so the key is **strictly** below the score `D(t, r^s) − α·trip`. A
/// key that would be NaN (infinite terms) is −∞ instead.
#[derive(Debug, Clone, Default)]
struct Reach {
    request: Vec<u32>,
    x: Vec<f64>,
    y: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    radius: Vec<f64>,
    shift: Vec<f64>,
}

impl Reach {
    fn clear(&mut self) {
        self.request.clear();
        self.x.clear();
        self.y.clear();
        self.lo.clear();
        self.hi.clear();
        self.radius.clear();
        self.shift.clear();
    }

    /// Adds request `j`, with pick-up `pickup` and trip `trip`.
    fn push(&mut self, j: usize, pickup: Point, params: &PreferenceParams, trip: f64) {
        let radius = candidate_radius(params, trip);
        let r2 = radius * radius;
        // `Point::within`'s fast path, and what its exact test answers
        // when the fast path does not apply.
        let (lo, hi) = if radius >= 0.0 && (1e-200..=f64::MAX).contains(&r2) {
            (r2 * (1.0 - 1e-9), r2 * (1.0 + 1e-9))
        } else if radius == f64::INFINITY {
            (f64::INFINITY, f64::INFINITY)
        } else if radius >= 0.0 {
            (f64::NEG_INFINITY, f64::INFINITY)
        } else {
            (f64::NEG_INFINITY, f64::NEG_INFINITY)
        };
        let alpha_trip = params.alpha * trip;
        self.request.push(j as u32);
        self.x.push(pickup.x);
        self.y.push(pickup.y);
        self.lo.push(lo);
        self.hi.push(hi);
        self.radius.push(radius);
        self.shift
            .push(alpha_trip + 1e-9 * (1.0 + alpha_trip.abs()));
    }

    /// Appends to `out` the request of every slot whose pick-up `at` is
    /// within the request's radius of — `Point::within`'s decision — as a
    /// hidden candidate of the taxi at `at`, keyed by the lower bound on
    /// its score.
    fn scan(&self, at: Point, scratch: &mut ScanScratch, out: &mut Vec<Hidden>) {
        let n = self.request.len();
        if n == 0 {
            return;
        }
        let ScanScratch { inside, keys } = scratch;
        inside.clear();
        inside.resize(n, 0);
        keys.clear();
        keys.resize(n, 0.0);
        // Branch-free over every slot: whether it is surely within, its
        // key, and whether the fast test leaves any slot undecided.
        let mut edge = false;
        let slots = (self.x.iter().zip(&self.y)).zip(self.lo.iter().zip(&self.hi));
        let out_slots = inside.iter_mut().zip(keys.iter_mut()).zip(&self.shift);
        for (((&x, &y), (&lo, &hi)), ((inside, key), &shift)) in slots.zip(out_slots) {
            let (dx, dy) = (at.x - x, at.y - y);
            let sq = dx * dx + dy * dy;
            let decided = (sq < lo) | (sq > hi);
            *inside = u32::from(sq < lo);
            edge |= !decided;
            *key = sq.sqrt() * (1.0 - 1e-9) - shift;
        }
        // Compact the slots within, in place.
        let mut m = 0;
        for k in 0..n {
            let within = inside[k];
            inside[m] = k as u32;
            m += within as usize;
        }
        inside.truncate(m);
        if edge {
            for k in 0..n {
                let pickup = Point::new(self.x[k], self.y[k]);
                let sq = at.euclidean_sq(pickup);
                let decided = sq < self.lo[k] || sq > self.hi[k];
                if !decided && at.euclidean(pickup) <= self.radius[k] {
                    inside.push(k as u32);
                }
            }
        }
        out.extend(inside.iter().map(|&k| {
            let k = k as usize;
            match keys[k] {
                // An overflowed square, or infinite terms: recompute.
                key if key.is_nan() || key == f64::INFINITY => self.hidden(at, k),
                key => Hidden {
                    key,
                    request: self.request[k],
                    dist: UNMEASURED,
                },
            }
        }));
    }

    /// Slot `k`'s request as a hidden candidate of the taxi at `at`, keyed
    /// by the lower bound on its score.
    fn hidden(&self, at: Point, k: usize) -> Hidden {
        let pickup = Point::new(self.x[k], self.y[k]);
        let sq = at.euclidean_sq(pickup);
        let d = if sq.is_finite() {
            sq.sqrt()
        } else {
            at.euclidean(pickup)
        };
        let key = d * (1.0 - 1e-9) - self.shift[k];
        Hidden {
            key: if key.is_nan() { f64::NEG_INFINITY } else { key },
            request: self.request[k],
            dist: UNMEASURED,
        }
    }
}

/// Working memory of [`Reach::scan`].
#[derive(Debug, Clone, Default)]
struct ScanScratch {
    inside: Vec<u32>,
    keys: Vec<f64>,
}

/// How far one taxi's row has been revealed: its hidden candidates are
/// `pool[start..end]`.
#[derive(Debug, Clone, Copy)]
struct Band {
    taxi: u32,
    start: u32,
    end: u32,
    /// How many hidden candidates the next widening reveals.
    width: u32,
}

/// An entry a widening made final: `(score, request, distance)`.
type Final = (f64, u32, f64);

/// NSTD-T's candidate rows: row `i` holds the requests taxi `i` is
/// mutually acceptable with — request (`col`), driver score (`row_key`)
/// and pick-up distance (`col_key`) — in `(score, request index)` order,
/// the dense driver list, so keyed deferred acceptance runs with taxis
/// proposing on them. A request keeps the proposal with the smallest
/// `(distance, taxi index)`, its dense list's order.
///
/// A row is revealed in bands. A taxi's candidates are found from the
/// stability certificate (see [`RowCertificate`]), each with a key that
/// lies strictly below its score (see [`Reach`]); a band reveals the
/// candidates with the smallest keys — a few at first, twice as many each
/// time after — and measures each exactly. A measured entry is *final*
/// once its score is below every key still hidden: no hidden candidate can
/// then come before it, so the final entries are always a prefix of the
/// full row. Measured entries that are not yet final go back among the
/// hidden ones, keyed by their score. Deferred acceptance never reads a
/// row past the proposal that matches its taxi, so after each solve only
/// a taxi left unmatched with candidates still hidden widens its band and
/// is woken ([`widen_unmatched`](Self::widen_unmatched)); by the order
/// independence of deferred acceptance (see [`o2o_matching::KeyedMatch`])
/// the matching, the proposals and the rejections equal one solve on the
/// full rows.
#[derive(Debug, Clone, Default)]
pub(crate) struct TaxiRows {
    /// The final entries, one row per taxi.
    pairs: KeyedCandidates,
    /// `trips[j]` = `D(r_j^s, r_j^d)`.
    trips: Vec<f64>,
    /// Every request, as a tested taxi scans them.
    all: Reach,
    /// The requests the certificate does not cover, as a covered taxi
    /// scans them.
    fresh: Reach,
    /// The hidden candidates of every band not yet complete.
    pool: Vec<Hidden>,
    /// The pick-up distances measured for hidden candidates.
    dists: Vec<f64>,
    /// Working memory of the scans.
    scan: ScanScratch,
    /// The bands not yet complete, by taxi.
    open: Vec<Band>,
    /// The entries the last widening made final.
    finals: Vec<Final>,
    /// The taxis the last round of widenings woke.
    woken: Vec<u32>,
}

impl TaxiRows {
    /// The final entries so far: the keyed solver's input.
    pub(crate) fn pairs(&self) -> &KeyedCandidates {
        &self.pairs
    }

    /// Builds `f`'s rows, each with its first band that has a final entry.
    ///
    /// A covered request (see [`Recorded::trip`]) and a covered taxi are
    /// never mutually acceptable, by the certificate's argument (see
    /// [`SparsePickupDistances::compute_incremental`]), which is symmetric:
    /// a covered taxi's candidates are among the requests the certificate
    /// does not cover, and a tested taxi's among all requests. Both scans
    /// admit what `Point::within(pickup, candidate_radius(params, trip))`
    /// admits, so the rows hold exactly the mutually acceptable pairs of
    /// a fresh build.
    fn build<M: Metric>(&mut self, f: &Frame<M>, frame: &Recorded) {
        self.pairs.reset(f.requests.len());
        self.trips.clear();
        self.all.clear();
        self.fresh.clear();
        self.pool.clear();
        self.dists.clear();
        self.open.clear();
        for (j, r) in f.requests.iter().enumerate() {
            let recorded = frame.trip(r);
            let trip = recorded.unwrap_or_else(|| r.trip_distance(f.metric));
            self.trips.push(trip);
            self.all.push(j, r.pickup, f.params, trip);
            if recorded.is_none() {
                self.fresh.push(j, r.pickup, f.params, trip);
            }
        }
        let mut tested = frame.tested.iter().map(|&(i, _)| i).peekable();
        for (i, t) in f.taxis.iter().enumerate() {
            let requests = if tested.next_if_eq(&i).is_some() {
                &self.all
            } else {
                &self.fresh
            };
            let start = self.pool.len();
            requests.scan(t.location, &mut self.scan, &mut self.pool);
            if self.pool.len() > start {
                let mut band = Band {
                    taxi: i as u32,
                    start: start as u32,
                    end: self.pool.len() as u32,
                    width: FIRST_BAND,
                };
                let (pool, dists) = (&mut self.pool, &mut self.dists);
                grow(pool, dists, &mut band, &self.trips, f, &mut self.finals);
                for &(score, j, d) in &self.finals {
                    self.pairs.push(j as usize, score, d);
                }
                if band.start == band.end {
                    self.pool.truncate(start);
                } else {
                    self.open.push(band);
                }
            }
            self.pairs.finish_row();
        }
    }

    /// Widens the band of every taxi `unmatched` says its solve left
    /// unmatched while candidates remain hidden, until the band has new
    /// final entries or is complete, and appends those entries to the
    /// taxi's row. The taxis whose rows grew are then
    /// [`woken`](Self::woken).
    pub(crate) fn widen_unmatched<M: Metric>(
        &mut self,
        f: &Frame<M>,
        unmatched: impl Fn(usize) -> bool,
    ) {
        let TaxiRows {
            pairs,
            trips,
            pool,
            dists,
            open,
            finals,
            woken,
            ..
        } = self;
        woken.clear();
        open.retain_mut(|band| {
            let i = band.taxi as usize;
            if !unmatched(i) {
                return true;
            }
            grow(pool, dists, band, trips, f, finals);
            if !finals.is_empty() {
                extend_row(pairs, i, finals);
                woken.push(band.taxi);
            }
            band.start < band.end
        });
    }

    /// The taxis whose rows the last [`widen_unmatched`](Self::widen_unmatched)
    /// extended, for [`o2o_matching::KeyedMatch::resume_rows`] to wake.
    pub(crate) fn woken(&self) -> &[u32] {
        &self.woken
    }

    /// Reveals every band in full, so each row holds all its mutually
    /// acceptable requests — the input requests can propose on, as
    /// columns.
    pub(crate) fn complete<M: Metric>(&mut self, f: &Frame<M>) {
        for band in &mut self.open {
            band.width = band.end - band.start;
            self.finals.clear();
            let (pool, dists) = (&mut self.pool, &mut self.dists);
            widen(pool, dists, band, &self.trips, f, &mut self.finals);
            extend_row(&mut self.pairs, band.taxi as usize, &self.finals);
        }
        self.open.clear();
    }
}

/// Appends `finals` to finished row `i` of `pairs`.
fn extend_row(pairs: &mut KeyedCandidates, i: usize, finals: &[Final]) {
    pairs.reopen_row(i);
    for &(score, j, d) in finals {
        pairs.push(j as usize, score, d);
    }
    pairs.finish_row();
}

/// Widens `band` until it has final entries, or is complete; leaves those
/// entries in `finals`, replacing its contents.
fn grow<M: Metric>(
    pool: &mut [Hidden],
    dists: &mut Vec<f64>,
    band: &mut Band,
    trips: &[f64],
    f: &Frame<M>,
    finals: &mut Vec<Final>,
) {
    finals.clear();
    while finals.is_empty() && band.start < band.end {
        widen(pool, dists, band, trips, f, finals);
    }
}

/// Reveals the `width` hidden candidates of `band` with the smallest keys
/// — all of them when at most twice that many remain — and doubles the
/// width. Measures each revealed candidate, drops it unless it is
/// mutually acceptable, and appends it to `finals` if it is final: the
/// band is now complete, or its score is below the smallest key still
/// hidden. Every hidden key is a strict lower bound on its candidate's
/// score, or that score itself, so no hidden candidate can come before a
/// final entry, ties by request index included. The rest go back among
/// the hidden candidates, keyed by their score, their distances kept in
/// `dists`. The entries appended are sorted by `(score, request index)`.
fn widen<M: Metric>(
    pool: &mut [Hidden],
    dists: &mut Vec<f64>,
    band: &mut Band,
    trips: &[f64],
    f: &Frame<M>,
    finals: &mut Vec<Final>,
) {
    let hidden = &mut pool[band.start as usize..band.end as usize];
    let width = band.width as usize;
    band.width = band.width.saturating_mul(2);
    let (shown, cut) = if hidden.len() <= 2 * width {
        (hidden.len(), f64::INFINITY)
    } else {
        hidden.select_nth_unstable_by(width, |a, b| a.key.total_cmp(&b.key));
        (width, hidden[width].key)
    };
    let complete = shown == hidden.len();
    let taxi = &f.taxis[band.taxi as usize];
    let start = finals.len();
    // The revealed candidates are `hidden[..shown]`; those that stay
    // hidden are moved to its end, which becomes the new start.
    let mut kept = shown;
    for k in (0..shown).rev() {
        let h = hidden[k];
        let j = h.request as usize;
        let (score, d) = if h.dist == UNMEASURED {
            let r = &f.requests[j];
            if taxi.seats < r.passengers {
                continue;
            }
            let d = f.metric.distance(r.pickup, taxi.location);
            if !mutually_acceptable(f.params, taxi, r, d, trips[j]) {
                continue;
            }
            (d - f.params.alpha * trips[j], d)
        } else {
            (h.key, dists[h.dist as usize])
        };
        if complete || score < cut {
            finals.push((score, h.request, d));
        } else {
            if h.dist == UNMEASURED {
                dists.push(d);
            }
            kept -= 1;
            hidden[kept] = Hidden {
                key: score,
                request: h.request,
                dist: if h.dist == UNMEASURED {
                    (dists.len() - 1) as u32
                } else {
                    h.dist
                },
            };
        }
    }
    band.start += kept as u32;
    finals[start..].sort_unstable_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
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

/// The last frame built and what its solve matched, mapped onto the
/// frame being built.
#[derive(Debug, Clone, Default)]
struct Recorded {
    /// The params the recorded frame was built under.
    params: Option<PreferenceParams>,
    /// Whether the recorded frame's solve is recorded.
    solved: bool,
    /// The recorded frame's taxis, by index.
    taxis: Vec<RecordedTaxi>,
    /// The recorded frame's requests, by index.
    requests: Vec<RecordedRequest>,
    /// Recorded taxi id → recorded index.
    taxi_at: HashMap<TaxiId, usize>,
    /// Recorded id → recorded index of each request left unmatched.
    request_at: HashMap<RequestId, usize>,
    /// The current taxis the certificate does not cover, in index order.
    tested: Vec<(usize, Point)>,
}

impl Recorded {
    /// Maps the recorded frame onto `taxis`: `tested` lists the taxis the
    /// certificate does not cover — new, moved, re-seated or matched, or
    /// every taxi when the recorded frame is not certified under `params`
    /// — and `request_at` the recorded requests it may cover.
    fn map(&mut self, params: &PreferenceParams, taxis: &[Taxi]) {
        self.tested.clear();
        self.request_at.clear();
        if !(self.solved && self.params == Some(*params)) {
            self.tested
                .extend(taxis.iter().enumerate().map(|(i, t)| (i, t.location)));
            return;
        }
        self.taxi_at.clear();
        self.taxi_at
            .extend(self.taxis.iter().enumerate().map(|(i, t)| (t.id, i)));
        for (i, t) in taxis.iter().enumerate() {
            let covered = self.taxi_at.get(&t.id).is_some_and(|&oi| {
                let old = &self.taxis[oi];
                !old.matched && same_bits(old.location, t.location) && old.seats == t.seats
            });
            if !covered {
                self.tested.push((i, t.location));
            }
        }
        self.request_at.extend(
            self.requests
                .iter()
                .enumerate()
                .filter(|(_, r)| !r.matched)
                .map(|(j, r)| (r.id, j)),
        );
    }

    /// The recorded trip of `r` if the certificate covers it: the
    /// recorded frame held it unchanged (same id, bit-identical pickup
    /// and drop-off, same party) and left it unmatched.
    fn trip(&self, r: &Request) -> Option<f64> {
        let old = &self.requests[*self.request_at.get(&r.id)?];
        (same_bits(old.pickup, r.pickup)
            && same_bits(old.dropoff, r.dropoff)
            && old.party == r.passengers)
            .then_some(old.trip)
    }

    /// Records this frame, uncertified until its solve is recorded.
    fn record(
        &mut self,
        params: &PreferenceParams,
        taxis: &[Taxi],
        requests: &[Request],
        trips: &[f64],
    ) {
        self.solved = false;
        self.params = Some(*params);
        self.taxis.clear();
        self.taxis.extend(taxis.iter().map(|t| RecordedTaxi {
            id: t.id,
            location: t.location,
            seats: t.seats,
            matched: false,
        }));
        self.requests.clear();
        self.requests.extend(
            requests
                .iter()
                .zip(trips)
                .map(|(r, &trip)| RecordedRequest {
                    id: r.id,
                    pickup: r.pickup,
                    dropoff: r.dropoff,
                    party: r.passengers,
                    trip,
                    matched: false,
                }),
        );
    }
}

/// The stability certificate a warm NSTD frame leaves for the next one
/// (see [`SparsePickupDistances::compute_incremental`]): the last frame's
/// taxis and requests, each request's trip, and which of them its
/// deferred acceptance matched, plus the row buffers and working memory
/// every frame reuses — request rows for NSTD-P, taxi rows in bands for
/// NSTD-T.
///
/// Owned by [`crate::IncrementalState`]. The certificate is valid only
/// once the schedule solved on the recorded frame's rows is recorded;
/// until then, or under different [`PreferenceParams`], every request
/// and every taxi is built fresh.
#[derive(Debug, Clone, Default)]
pub struct RowCertificate {
    /// The recorded frame.
    frame: Recorded,
    /// NSTD-P's rows of the last frame built.
    rows: SparsePickupDistances,
    /// NSTD-P's row-building scratch.
    scratch: RowScratch,
    /// NSTD-T's rows of the last frame built.
    taxi_rows: TaxiRows,
}

impl RowCertificate {
    /// An empty certificate (the first frame takes the fresh path).
    #[must_use]
    pub fn new() -> Self {
        RowCertificate::default()
    }

    /// This frame's rows for taxis to propose on (NSTD-T; see
    /// [`TaxiRows`]), built from the certificate. The solve on them
    /// certifies the next frame only once its schedule is recorded.
    pub(crate) fn taxi_rows<M: Metric>(&mut self, f: &Frame<M>) -> &mut TaxiRows {
        f.params.validate().expect("invalid preference parameters");
        self.frame.map(f.params, f.taxis);
        self.taxi_rows.build(f, &self.frame);
        self.frame
            .record(f.params, f.taxis, f.requests, &self.taxi_rows.trips);
        &mut self.taxi_rows
    }

    /// Records which requests and taxis `schedule` matches, certifying the
    /// last frame built for the next one. `schedule` must be a
    /// deferred-acceptance result on that frame's rows: any such result
    /// is stable, whichever side proposed, on whichever layout.
    pub(crate) fn record_solve(&mut self, schedule: &Schedule) {
        let Recorded {
            solved,
            taxis,
            requests,
            ..
        } = &mut self.frame;
        for t in taxis.iter_mut() {
            t.matched = false;
        }
        for (j, r) in requests.iter_mut().enumerate() {
            let taxi = schedule.taxi_index(j);
            r.matched = taxi.is_some();
            if let Some(i) = taxi {
                taxis[i].matched = true;
            }
        }
        *solved = true;
    }

    /// NSTD-P's rows of the last frame built.
    pub(crate) fn rows(&self) -> &SparsePickupDistances {
        &self.rows
    }

    /// Forgets the recorded frame (the next frame takes the fresh path).
    /// Buffer capacity is kept.
    pub fn clear(&mut self) {
        let frame = &mut self.frame;
        frame.params = None;
        frame.solved = false;
        frame.taxis.clear();
        frame.requests.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2o_geo::{Euclidean, Point};
    use o2o_matching::{KeyedMatch, Proposing};
    use o2o_trace::{RequestId, TaxiId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// Requests propose on the rows `cert` built last for `taxis` and
    /// `requests`; the matching is recorded in `cert`.
    fn solve_and_record(cert: &mut RowCertificate, taxis: &[Taxi], requests: &[Request]) {
        let mut solver = KeyedMatch::new();
        let pairs = cert.rows().pairs();
        solver.solve(pairs, Proposing::Rows);
        let schedule = Schedule::from_parts(
            requests.iter().map(|r| r.id).collect(),
            taxis.iter().map(|t| t.id).collect(),
            (0..requests.len())
                .map(|j| solver.row_entry(j).map(|e| pairs.entry(e).col as usize))
                .collect(),
            vec![None; requests.len()],
            vec![None; taxis.len()],
        );
        cert.record_solve(&schedule);
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
                &metric, &params, &taxis, &requests, &grid, &mut cert,
            );
            assert_eq!(rows, &fresh, "call {call}");
            assert_eq!(metric.take(), fresh_queries, "call {call} is not fresh");
        }
        // The control: once the solve is recorded, the same frame
        // queries less and still builds the same rows.
        solve_and_record(&mut cert, &taxis, &requests);
        let rows = SparsePickupDistances::compute_incremental(
            &metric, &params, &taxis, &requests, &grid, &mut cert,
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
            &Euclidean, &a, &taxis, &requests, &grid, &mut cert,
        );
        solve_and_record(&mut cert, &taxis, &requests);
        // Same frame, different params: the certificate (recorded under
        // `a`'s rows) must not shape `b`'s rows.
        let rows = SparsePickupDistances::compute_incremental(
            &Euclidean, &b, &taxis, &requests, &grid, &mut cert,
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
                &Euclidean, &params, &taxis, &requests, &grid, &mut cert,
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
            solve_and_record(&mut cert, &taxis, &requests);
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

    /// An entry's fields, keys by their bits.
    fn bits(e: &KeyedEntry) -> (u32, u32, u64, u64) {
        (e.row, e.col, e.row_key.to_bits(), e.col_key.to_bits())
    }

    /// The full taxi rows a fresh request-major build implies: each taxi's
    /// entries — request, score, distance — by `(score, request)`.
    fn reference_taxi_rows<M: Metric>(
        metric: &M,
        params: &PreferenceParams,
        taxis: &[Taxi],
        requests: &[Request],
    ) -> Vec<Vec<(u32, u32, u64, u64)>> {
        let grid = build_taxi_grid(taxis);
        let rows = SparsePickupDistances::compute(metric, params, taxis, requests, &grid);
        let mut out = vec![Vec::new(); taxis.len()];
        for j in 0..requests.len() {
            for e in rows.row(j) {
                out[e.col as usize].push(KeyedEntry {
                    row: e.col,
                    col: j as u32,
                    row_key: e.col_key,
                    col_key: e.row_key,
                });
            }
        }
        out.into_iter()
            .map(|mut row| {
                row.sort_by(|a, b| {
                    a.row_key
                        .partial_cmp(&b.row_key)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.col.cmp(&b.col))
                });
                row.iter().map(bits).collect()
            })
            .collect()
    }

    /// Builds fresh taxi rows and checks every band against the rows a
    /// fresh request-major build implies: each row is a prefix of its
    /// full row after the build and after every round of widening, and
    /// the full row once no band widens further — and once
    /// [`TaxiRows::complete`] reveals everything at once.
    fn check_bands<M: Metric>(
        metric: &M,
        params: PreferenceParams,
        taxis: &[Taxi],
        requests: &[Request],
    ) {
        let reference = reference_taxi_rows(metric, &params, taxis, requests);
        let f = Frame {
            metric,
            params: &params,
            taxis,
            requests,
        };
        let check = |rows: &TaxiRows, full: bool, stage: &str| {
            assert_eq!(rows.pairs().rows(), taxis.len());
            for (i, want) in reference.iter().enumerate() {
                let got: Vec<_> = rows.pairs().row(i).iter().map(bits).collect();
                if full {
                    assert_eq!(&got, want, "taxi {i}, {stage}");
                } else {
                    assert!(
                        want.starts_with(&got),
                        "taxi {i}, {stage}: {got:?} vs {want:?}"
                    );
                }
            }
        };
        let mut cert = RowCertificate::new();
        let rows = cert.taxi_rows(&f);
        check(rows, false, "first bands");
        for round in 0.. {
            rows.widen_unmatched(&f, |_| true);
            if rows.woken().is_empty() {
                break;
            }
            check(rows, false, &format!("round {round}"));
        }
        check(rows, true, "widened in full");
        let mut cert = RowCertificate::new();
        let rows = cert.taxi_rows(&f);
        rows.complete(&f);
        check(rows, true, "completed");
    }

    /// NSTD-T on the taxi rows against the dense reference.
    fn assert_taxi_optimal_is_dense<M: Metric + Clone>(
        metric: &M,
        params: PreferenceParams,
        taxis: &[Taxi],
        requests: &[Request],
    ) {
        let sparse = crate::NonSharingDispatcher::new(metric.clone(), params);
        let dense = sparse
            .clone()
            .with_candidate_mode(crate::CandidateMode::Dense);
        assert_eq!(
            sparse.taxi_optimal(taxis, requests),
            dense.taxi_optimal(taxis, requests)
        );
    }

    /// `n` requests with pick-ups at `pickup(j)`, each with trip `trip`
    /// along the x axis.
    fn requests_at(n: usize, trip: f64, pickup: impl Fn(usize) -> Point) -> Vec<Request> {
        (0..n)
            .map(|j| {
                let p = pickup(j);
                Request::new(RequestId(j as u64), 0, p, Point::new(p.x + trip, p.y))
            })
            .collect()
    }

    #[test]
    fn exact_score_ties_at_a_band_end_wait_for_the_whole_tie() {
        // One taxi at the origin; pick-ups at exact distances 3 (6 of
        // them), 5 (20, all tied on score 5 − 7) and 13 (10), each with
        // trip 7. The first band ends inside the tie, and so does the
        // second: no tied entry may become final before all of them.
        let ring = |d: f64, k: usize| match (d as u32, k % 4) {
            (3, q) => [
                Point::new(3.0, 0.0),
                Point::new(0.0, 3.0),
                Point::new(-3.0, 0.0),
                Point::new(0.0, -3.0),
            ][q],
            (5, q) => [
                Point::new(3.0, 4.0),
                Point::new(-4.0, 3.0),
                Point::new(-3.0, -4.0),
                Point::new(4.0, -3.0),
            ][q],
            (_, q) => [
                Point::new(5.0, 12.0),
                Point::new(-12.0, 5.0),
                Point::new(-5.0, -12.0),
                Point::new(12.0, -5.0),
            ][q],
        };
        let layout: Vec<f64> = [5.0; 8]
            .into_iter()
            .chain([3.0; 6])
            .chain([5.0; 12])
            .chain([13.0; 10])
            .collect();
        let requests = requests_at(layout.len(), 7.0, |j| ring(layout[j], j));
        let taxis = vec![taxi(0, 0.0, 0.0), taxi(1, 20.0, 0.0)];
        for params in [PreferenceParams::unbounded(), PreferenceParams::paper()] {
            check_bands(&Euclidean, params, &taxis, &requests);
            assert_taxi_optimal_is_dense(&Euclidean, params, &taxis, &requests);
        }
    }

    #[test]
    fn square_root_and_hypot_a_last_bit_apart_at_a_band_end() {
        // Offsets whose square-root distance rounds one bit above
        // `hypot`, and whose `hypot` squares back to itself exactly.
        let mut rng = StdRng::seed_from_u64(0xB175);
        let mut offsets = Vec::new();
        while offsets.len() < 6 {
            let (dx, dy) = (rng.gen_range(0.75..2.0), rng.gen_range(0.75..2.0));
            let h = f64::hypot(dx, dy);
            if (dx * dx + dy * dy).sqrt() > h && (h * h).sqrt() == h {
                offsets.push((dx, dy, h));
            }
        }
        // α = 0, so the score is the distance. Request 0 sits at the
        // offset (its bound rounds up to score + 1 ulp), request 8 on the
        // x axis at the same distance: the two tie on score, and request
        // 0 comes first. Seven nearer requests fill the first band with
        // request 8, leaving request 0 the first hidden one; each nearer
        // request has a taxi of its own on its pick-up, so the far taxi
        // is refused by all seven and proposes to the tie.
        let params = PreferenceParams::unbounded().with_alpha(0.0);
        for (dx, dy, h) in offsets {
            let pickup = |j: usize| match j {
                0 => Point::new(dx, dy),
                1..=7 => Point::new(0.09 * j as f64, 0.0),
                8 => Point::new(h, 0.0),
                _ => Point::new(10.0 + j as f64, 3.0),
            };
            let requests = requests_at(30, 0.0, pickup);
            let mut taxis = vec![taxi(0, 0.0, 0.0)];
            taxis.extend((1..=7).map(|j| taxi(j, 0.09 * j as f64, 0.0)));
            check_bands(&Euclidean, params, &taxis, &requests);
            assert_taxi_optimal_is_dense(&Euclidean, params, &taxis, &requests);
            let s =
                crate::NonSharingDispatcher::new(Euclidean, params).taxi_optimal(&taxis, &requests);
            assert_eq!(s.request_of(TaxiId(0)), Some(RequestId(0)));
        }
    }

    /// A saturated frame: few taxis, many requests, a box of `span` km.
    fn saturated_frame(seed: u64, nt: usize, nr: usize, span: f64) -> (Vec<Taxi>, Vec<Request>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut point = || Point::new(rng.gen_range(-span..span), rng.gen_range(-span..span));
        let taxis = (0..nt)
            .map(|i| {
                let mut t = Taxi::new(TaxiId(i as u64), point());
                t.seats = 1 + (i % 4) as u8;
                t
            })
            .collect();
        let requests = (0..nr)
            .map(|j| {
                let mut r = Request::new(RequestId(j as u64), 0, point(), point());
                r.passengers = 1 + (j % 3) as u8;
                r
            })
            .collect();
        (taxis, requests)
    }

    #[test]
    fn bands_hold_for_zero_and_negative_alpha_and_a_manhattan_metric() {
        let param_sets = [
            PreferenceParams::paper().with_alpha(0.0),
            PreferenceParams::unbounded().with_alpha(0.0),
            PreferenceParams::paper()
                .with_alpha(-0.5)
                .with_taxi_threshold(9.0),
            PreferenceParams::unbounded().with_alpha(-0.5),
            PreferenceParams::paper().with_passenger_threshold(6.0),
        ];
        for seed in 0..6 {
            let (taxis, requests) = saturated_frame(seed, 7, 90, 8.0);
            for params in param_sets {
                check_bands(&Euclidean, params, &taxis, &requests);
                assert_taxi_optimal_is_dense(&Euclidean, params, &taxis, &requests);
                // Manhattan distance exceeds the Euclidean bound off the
                // axes, so measured entries often wait for a wider band.
                check_bands(&o2o_geo::Manhattan, params, &taxis, &requests);
                assert_taxi_optimal_is_dense(&o2o_geo::Manhattan, params, &taxis, &requests);
            }
        }
    }

    #[test]
    fn non_finite_trips_are_handled_as_on_request_rows() {
        // Drop-offs at infinity and NaN: an infinite trip makes every
        // score −∞ under α > 0 and leaves the request out under α ≤ 0, a
        // NaN trip leaves it out. The taxi rows hold what the request
        // rows hold, and NSTD-T on them is the columns-proposing solve on
        // the request rows.
        let (taxis, mut requests) = saturated_frame(0x1F, 5, 60, 6.0);
        for (j, r) in requests.iter_mut().enumerate() {
            match j % 5 {
                0 => r.dropoff = Point::new(f64::INFINITY, 0.0),
                1 => r.dropoff = Point::new(f64::NAN, 0.0),
                _ => {}
            }
        }
        for params in [
            PreferenceParams::paper(),
            PreferenceParams::unbounded(),
            PreferenceParams::unbounded().with_alpha(0.0),
            PreferenceParams::unbounded().with_alpha(-1.0),
        ] {
            check_bands(&Euclidean, params, &taxis, &requests);
            let rows = SparsePickupDistances::compute(
                &Euclidean,
                &params,
                &taxis,
                &requests,
                &build_taxi_grid(&taxis),
            );
            let mut solver = KeyedMatch::new();
            solver.solve(rows.pairs(), Proposing::Columns);
            let s =
                crate::NonSharingDispatcher::new(Euclidean, params).taxi_optimal(&taxis, &requests);
            for (j, r) in requests.iter().enumerate() {
                let want = solver
                    .row_entry(j)
                    .map(|e| taxis[rows.pairs().entry(e).col as usize].id);
                assert_eq!(s.assignment_of(r.id).taxi(), want, "{params:?}");
            }
        }
    }

    #[test]
    fn a_saturated_frame_measures_only_the_first_bands() {
        // Twenty taxis 1 km apart, each with a favourite request on its
        // own spot and a long trip, among a thousand short-trip requests
        // around them: every taxi proposes to its favourite first, and
        // the favourite's nearest taxi is that taxi, so every taxi is
        // accepted at its first proposal. Beyond one trip per request,
        // each taxi may measure its first band only.
        let taxis: Vec<Taxi> = (0..20).map(|i| taxi(i, i as f64, 0.0)).collect();
        let mut requests: Vec<Request> = (0..20)
            .map(|i| request(i, i as f64, 0.0, i as f64, 30.0))
            .collect();
        let mut rng = StdRng::seed_from_u64(0x5A7);
        requests.extend((20..1020).map(|j| {
            let (x, y) = (rng.gen_range(-5.0..25.0), rng.gen_range(-5.0..5.0));
            request(j, x, y, x + 0.5, y)
        }));
        let params = PreferenceParams::paper().with_taxi_threshold(4.0);
        let d = crate::NonSharingDispatcher::new(Counting::default(), params);
        let s = d.taxi_optimal(&taxis, &requests);
        let measured = d.metric().take();
        for i in 0..20 {
            assert_eq!(s.request_of(TaxiId(i)), Some(RequestId(i)));
        }
        let cap = requests.len() + taxis.len() * 2 * FIRST_BAND as usize;
        assert!(
            measured <= cap,
            "{measured} metric evaluations, more than the first bands' {cap}"
        );
        assert_taxi_optimal_is_dense(&Euclidean, params, &taxis, &requests);
    }
}
