//! The policy interface and adapters for every dispatcher in the
//! workspace.
//!
//! A policy sees one frame at a time — the idle fleet and the pending
//! queue — and returns taxi-to-group assignments. Adapters are provided
//! for the paper's algorithms (NSTD-P/T, STD-P/T) and all six baselines,
//! so experiment code can treat them uniformly:
//!
//! ```
//! use o2o_core::PreferenceParams;
//! use o2o_geo::Euclidean;
//! use o2o_sim::{policy, DispatchPolicy};
//!
//! let params = PreferenceParams::default();
//! let policies: Vec<Box<dyn DispatchPolicy>> = vec![
//!     Box::new(policy::nstd_p(Euclidean, params)),
//!     Box::new(policy::near(Euclidean, params)),
//! ];
//! assert_eq!(policies[0].name(), "NSTD-P");
//! ```

use o2o_baselines::{
    LinDispatcher, MiniDispatcher, NearDispatcher, PairDispatcher, RaiiDispatcher, SarpDispatcher,
};
use o2o_core::{
    CandidateMode, Degraded, IncrementalState, NonSharingDispatcher, PickupDistances,
    PreferenceParams, Proposing, Schedule, SharingDispatcher, SharingSchedule, TimeBudget,
};
use o2o_geo::{CacheStats, DistanceCache, GridIndex, Metric, Point};
use o2o_obs::Recorder;
use o2o_trace::{Request, RequestId, Taxi, TaxiId};
use std::sync::Arc;

/// One frame's input to a policy.
#[derive(Debug, Clone, Copy)]
pub struct FrameContext<'a> {
    /// Index of the frame (0-based).
    pub frame: u64,
    /// Dispatch timestamp: the end of the frame, in seconds.
    pub time: u64,
    /// Taxis idle at dispatch time, with current locations.
    pub idle_taxis: &'a [Taxi],
    /// Requests waiting for a taxi (arrival order).
    pub pending: &'a [Request],
    /// The frame's idle × pending pick-up distance matrix, when the
    /// engine precomputed it (it does so only for policies that return
    /// `true` from [`DispatchPolicy::wants_pickup_distances`]). Entries
    /// are exactly the answers of the metric the engine runs with, so
    /// consuming the matrix never changes a result — provided the policy
    /// dispatches over that same metric (see
    /// [`Simulator::run_with_metric`](crate::Simulator::run_with_metric)).
    pub pickup_distances: Option<&'a PickupDistances>,
    /// A grid index over `idle_taxis` (payload = index into that slice),
    /// built once per frame by the engine for policies that return `true`
    /// from [`DispatchPolicy::wants_taxi_grid`]. Sparse candidate
    /// generation and the grid-accelerated baselines query it instead of
    /// each rebuilding their own; consuming it never changes a result
    /// (see [`o2o_core::build_taxi_grid`]).
    pub taxi_grid: Option<&'a GridIndex<usize>>,
    /// The frame's compute budget, started when the engine began the
    /// frame's dispatch work. Unlimited by default ([`TimeBudget`]'s
    /// default), in which case budget-aware policies run their normal
    /// algorithm untouched; under a finite budget they may step down the
    /// degradation ladder and report it via
    /// [`DispatchPolicy::take_degradation`].
    pub budget: TimeBudget,
    /// The run's observability recorder. Defaults to the disabled (no-op)
    /// recorder in hand-built contexts; the engine threads its own. Deep
    /// pipeline stages record through the thread-local scope the engine
    /// installs instead — this handle is for policy-level instruments
    /// (e.g. [`CachedPolicy`]'s per-frame cache counters).
    pub recorder: &'a Recorder,
}

impl<'a> FrameContext<'a> {
    /// A context with no precomputed distances (tests, custom drivers).
    #[must_use]
    pub fn new(frame: u64, time: u64, idle_taxis: &'a [Taxi], pending: &'a [Request]) -> Self {
        FrameContext {
            frame,
            time,
            idle_taxis,
            pending,
            pickup_distances: None,
            taxi_grid: None,
            budget: TimeBudget::unlimited(),
            recorder: Recorder::disabled_ref(),
        }
    }
}

/// One taxi's assignment for the frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameAssignment {
    /// The dispatched taxi (must be idle this frame).
    pub taxi: TaxiId,
    /// The requests it serves (1 for non-sharing policies).
    pub members: Vec<RequestId>,
    /// Stop locations in driving order (pickups and drop-offs).
    pub stops: Vec<Point>,
    /// Per-member passenger dissatisfaction (the paper's metric).
    pub passenger_costs: Vec<f64>,
    /// Taxi dissatisfaction (the paper's metric).
    pub taxi_cost: f64,
}

/// A dispatch policy driven frame-by-frame by the [`Simulator`].
///
/// [`Simulator`]: crate::Simulator
pub trait DispatchPolicy {
    /// Short display name (used in reports, e.g. `"NSTD-P"`).
    fn name(&self) -> &str;

    /// Decides the frame's assignments. Every returned taxi must be one
    /// of `ctx.idle_taxis` (each at most once) and every member one of
    /// `ctx.pending` (each at most once); unassigned requests stay
    /// pending.
    fn dispatch(&mut self, ctx: &FrameContext<'_>) -> Vec<FrameAssignment>;

    /// Whether the engine should precompute the frame's idle × pending
    /// pick-up distance matrix for this policy (see
    /// [`FrameContext::pickup_distances`]). Defaults to `false` so
    /// policies that would not read the matrix don't pay for it.
    fn wants_pickup_distances(&self) -> bool {
        false
    }

    /// Whether the engine should build the frame's idle-taxi grid index
    /// for this policy (see [`FrameContext::taxi_grid`]). Defaults to
    /// `false` so policies that would not query it don't pay for it.
    fn wants_taxi_grid(&self) -> bool {
        false
    }

    /// Takes (and clears) the record of the last dispatch having stepped
    /// down the degradation ladder under a finite
    /// [`FrameContext::budget`]. The engine calls this after every
    /// dispatch and attributes the event to the frame. Defaults to
    /// `None` for policies that never degrade.
    fn take_degradation(&mut self) -> Option<Degraded> {
        None
    }
}

impl<P: DispatchPolicy + ?Sized> DispatchPolicy for &mut P {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn dispatch(&mut self, ctx: &FrameContext<'_>) -> Vec<FrameAssignment> {
        (**self).dispatch(ctx)
    }

    fn wants_pickup_distances(&self) -> bool {
        (**self).wants_pickup_distances()
    }

    fn wants_taxi_grid(&self) -> bool {
        (**self).wants_taxi_grid()
    }

    fn take_degradation(&mut self) -> Option<Degraded> {
        (**self).take_degradation()
    }
}

impl<P: DispatchPolicy + ?Sized> DispatchPolicy for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn dispatch(&mut self, ctx: &FrameContext<'_>) -> Vec<FrameAssignment> {
        (**self).dispatch(ctx)
    }

    fn wants_pickup_distances(&self) -> bool {
        (**self).wants_pickup_distances()
    }

    fn wants_taxi_grid(&self) -> bool {
        (**self).wants_taxi_grid()
    }

    fn take_degradation(&mut self) -> Option<Degraded> {
        (**self).take_degradation()
    }
}

fn from_schedule(requests: &[Request], s: &Schedule) -> Vec<FrameAssignment> {
    requests
        .iter()
        .filter_map(|r| {
            s.assignment_of(r.id).taxi().map(|taxi| FrameAssignment {
                taxi,
                members: vec![r.id],
                stops: vec![r.pickup, r.dropoff],
                passenger_costs: vec![s
                    .passenger_dissatisfaction(r.id)
                    .expect("assigned request has a cost")],
                taxi_cost: s.taxi_dissatisfaction(taxi).expect("dispatched taxi"),
            })
        })
        .collect()
}

fn from_sharing_schedule(s: &SharingSchedule) -> Vec<FrameAssignment> {
    s.assignments
        .iter()
        .map(|a| FrameAssignment {
            taxi: a.taxi,
            members: a.members.clone(),
            stops: a.route.stops.iter().map(|st| st.location).collect(),
            passenger_costs: a.passenger_costs.clone(),
            taxi_cost: a.taxi_cost,
        })
        .collect()
}

/// A policy built from a closure over the frame context.
pub struct FnPolicy<F> {
    name: String,
    f: F,
}

impl<F> DispatchPolicy for FnPolicy<F>
where
    F: FnMut(&FrameContext<'_>) -> Vec<FrameAssignment>,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn dispatch(&mut self, ctx: &FrameContext<'_>) -> Vec<FrameAssignment> {
        (self.f)(ctx)
    }
}

/// Wraps a closure as a [`DispatchPolicy`] (useful in tests and custom
/// experiments).
pub fn from_fn<F>(name: impl Into<String>, f: F) -> FnPolicy<F>
where
    F: FnMut(&FrameContext<'_>) -> Vec<FrameAssignment>,
{
    FnPolicy {
        name: name.into(),
        f,
    }
}

macro_rules! dispatcher_policy {
    ($struct_name:ident, $doc:literal, $inner:ty, $label:literal, $call:expr) => {
        dispatcher_policy!($struct_name, $doc, $inner, $label, $call, wants_grid: false);
    };
    ($struct_name:ident, $doc:literal, $inner:ty, $label:literal, $call:expr,
     wants_grid: $wants_grid:literal) => {
        #[doc = $doc]
        pub struct $struct_name<M> {
            inner: $inner,
        }

        impl<M: Metric> $struct_name<M> {
            /// Wraps a pre-built dispatcher (e.g. one configured with
            /// `with_parallelism`) as a frame policy.
            #[must_use]
            pub fn from_dispatcher(inner: $inner) -> Self {
                $struct_name { inner }
            }

            /// The wrapped dispatcher.
            #[must_use]
            pub fn dispatcher(&self) -> &$inner {
                &self.inner
            }
        }

        impl<M: Metric> DispatchPolicy for $struct_name<M> {
            fn name(&self) -> &str {
                $label
            }

            fn dispatch(&mut self, ctx: &FrameContext<'_>) -> Vec<FrameAssignment> {
                #[allow(clippy::redundant_closure_call)]
                ($call)(&self.inner, ctx)
            }

            fn wants_taxi_grid(&self) -> bool {
                $wants_grid
            }
        }
    };
}

/// Hand-written (not via `dispatcher_policy!`) because the NSTD policies
/// carry state across frames and report degradations.
macro_rules! nstd_policy {
    ($struct_name:ident, $doc:literal, $label:literal, $side:expr) => {
        #[doc = $doc]
        ///
        /// Each frame is one [`NonSharingDispatcher::dispatch`] call. The
        /// policy keeps the [`IncrementalState`] that carries the stability
        /// certificate from frame to frame, and asks the engine for the
        /// per-frame input its dispatcher's [`CandidateMode`] reads: the
        /// shared taxi grid when sparse (the default), the pick-up matrix
        /// when dense. The schedules are bit-identical either way.
        pub struct $struct_name<M> {
            inner: NonSharingDispatcher<M>,
            state: IncrementalState,
            degraded: Option<Degraded>,
        }

        impl<M: Metric> $struct_name<M> {
            /// Wraps a pre-built dispatcher (e.g. one configured with
            /// `with_candidate_mode`) as a frame policy.
            #[must_use]
            pub fn from_dispatcher(inner: NonSharingDispatcher<M>) -> Self {
                $struct_name {
                    inner,
                    state: IncrementalState::new(),
                    degraded: None,
                }
            }

            /// The wrapped dispatcher.
            #[must_use]
            pub fn dispatcher(&self) -> &NonSharingDispatcher<M> {
                &self.inner
            }
        }

        impl<M: Metric> DispatchPolicy for $struct_name<M> {
            fn name(&self) -> &str {
                $label
            }

            fn dispatch(&mut self, ctx: &FrameContext<'_>) -> Vec<FrameAssignment> {
                let (schedule, degraded) = self.inner.dispatch(
                    ctx.idle_taxis,
                    ctx.pending,
                    ctx.taxi_grid,
                    ctx.pickup_distances,
                    &mut self.state,
                    $side,
                    &ctx.budget,
                );
                self.degraded = degraded;
                from_schedule(ctx.pending, &schedule)
            }

            fn take_degradation(&mut self) -> Option<Degraded> {
                self.degraded.take()
            }

            fn wants_pickup_distances(&self) -> bool {
                self.inner.candidate_mode() == CandidateMode::Dense
            }

            fn wants_taxi_grid(&self) -> bool {
                self.inner.candidate_mode() == CandidateMode::Sparse
            }
        }
    };
}

nstd_policy!(
    NstdPPolicy,
    "Algorithm 1 (NSTD-P) as a frame policy.",
    "NSTD-P",
    Proposing::Rows
);

nstd_policy!(
    NstdTPolicy,
    "NSTD-T (taxi-optimal stable matching) as a frame policy.",
    "NSTD-T",
    Proposing::Columns
);

dispatcher_policy!(
    NearPolicy,
    "The *Near* greedy baseline as a frame policy (reuses the engine's \
     shared per-frame taxi grid).",
    NearDispatcher<M>,
    "Near",
    |inner: &NearDispatcher<M>, ctx: &FrameContext<'_>| {
        from_schedule(
            ctx.pending,
            &inner.dispatch_with_grid(ctx.idle_taxis, ctx.pending, ctx.taxi_grid),
        )
    },
    wants_grid: true
);

dispatcher_policy!(
    PairPolicy,
    "The *Pair* min-cost-matching baseline as a frame policy (its dense \
     Hungarian objective admits no grid pruning; a supplied grid is \
     validated and passed through).",
    PairDispatcher<M>,
    "Pair",
    |inner: &PairDispatcher<M>, ctx: &FrameContext<'_>| {
        from_schedule(
            ctx.pending,
            &inner.dispatch_with_grid(ctx.idle_taxis, ctx.pending, ctx.taxi_grid),
        )
    }
);

dispatcher_policy!(
    MiniPolicy,
    "The *Mini* bottleneck-matching baseline as a frame policy (its dense \
     bottleneck objective admits no grid pruning; a supplied grid is \
     validated and passed through).",
    MiniDispatcher<M>,
    "Mini",
    |inner: &MiniDispatcher<M>, ctx: &FrameContext<'_>| {
        from_schedule(
            ctx.pending,
            &inner.dispatch_with_grid(ctx.idle_taxis, ctx.pending, ctx.taxi_grid),
        )
    }
);

dispatcher_policy!(
    StdPPolicy,
    "Algorithm 3 with passenger-optimal matching (STD-P) as a frame policy.",
    SharingDispatcher<M>,
    "STD-P",
    |inner: &SharingDispatcher<M>, ctx: &FrameContext<'_>| {
        from_sharing_schedule(&inner.dispatch_passenger_optimal(ctx.idle_taxis, ctx.pending))
    }
);

dispatcher_policy!(
    StdTPolicy,
    "Algorithm 3 with taxi-optimal matching (STD-T) as a frame policy.",
    SharingDispatcher<M>,
    "STD-T",
    |inner: &SharingDispatcher<M>, ctx: &FrameContext<'_>| {
        from_sharing_schedule(&inner.dispatch_taxi_optimal(ctx.idle_taxis, ctx.pending))
    }
);

dispatcher_policy!(
    RaiiPolicy,
    "The *RAII* sharing baseline as a frame policy (reuses the engine's \
     shared per-frame taxi grid).",
    RaiiDispatcher<M>,
    "RAII",
    |inner: &RaiiDispatcher<M>, ctx: &FrameContext<'_>| {
        from_sharing_schedule(&inner.dispatch_with_grid(
            ctx.idle_taxis,
            ctx.pending,
            ctx.taxi_grid,
        ))
    },
    wants_grid: true
);

dispatcher_policy!(
    SarpPolicy,
    "The *SARP* insertion baseline as a frame policy (reuses the engine's \
     shared per-frame taxi grid for its new-route candidates).",
    SarpDispatcher<M>,
    "SARP",
    |inner: &SarpDispatcher<M>, ctx: &FrameContext<'_>| {
        from_sharing_schedule(&inner.dispatch_with_grid(
            ctx.idle_taxis,
            ctx.pending,
            ctx.taxi_grid,
        ))
    },
    wants_grid: true
);

dispatcher_policy!(
    LinPolicy,
    "The *Lin* ILP-heuristic baseline as a frame policy (its global \
     objective admits no grid pruning; a supplied grid is validated and \
     passed through).",
    LinDispatcher<M>,
    "Lin",
    |inner: &LinDispatcher<M>, ctx: &FrameContext<'_>| {
        from_sharing_schedule(&inner.dispatch_with_grid(ctx.idle_taxis, ctx.pending, ctx.taxi_grid))
    }
);

dispatcher_policy!(
    NstdEPolicy,
    "The egalitarian stable schedule (extension: fairest compromise \
     between NSTD-P and NSTD-T) as a frame policy.",
    NonSharingDispatcher<M>,
    "NSTD-E",
    |inner: &NonSharingDispatcher<M>, ctx: &FrameContext<'_>| {
        from_schedule(
            ctx.pending,
            // Cap the enumeration: frames with astronomically many stable
            // schedules are theoretical corner cases, and the egalitarian
            // pick over a large prefix is already representative.
            &inner.egalitarian(ctx.idle_taxis, ctx.pending, Some(64)),
        )
    }
);

/// NSTD-P (Algorithm 1) policy.
pub fn nstd_p<M: Metric>(metric: M, params: PreferenceParams) -> NstdPPolicy<M> {
    NstdPPolicy::from_dispatcher(NonSharingDispatcher::new(metric, params))
}

/// NSTD-T (taxi-optimal) policy.
pub fn nstd_t<M: Metric>(metric: M, params: PreferenceParams) -> NstdTPolicy<M> {
    NstdTPolicy::from_dispatcher(NonSharingDispatcher::new(metric, params))
}

/// Egalitarian stable-schedule policy (extension beyond the paper).
pub fn nstd_e<M: Metric>(metric: M, params: PreferenceParams) -> NstdEPolicy<M> {
    NstdEPolicy {
        inner: NonSharingDispatcher::new(metric, params),
    }
}

/// *Near* baseline policy.
pub fn near<M: Metric>(metric: M, params: PreferenceParams) -> NearPolicy<M> {
    NearPolicy {
        inner: NearDispatcher::new(metric, params),
    }
}

/// *Pair* baseline policy.
pub fn pair<M: Metric>(metric: M, params: PreferenceParams) -> PairPolicy<M> {
    PairPolicy {
        inner: PairDispatcher::new(metric, params),
    }
}

/// *Mini* baseline policy.
pub fn mini<M: Metric>(metric: M, params: PreferenceParams) -> MiniPolicy<M> {
    MiniPolicy {
        inner: MiniDispatcher::new(metric, params),
    }
}

/// STD-P (Algorithm 3, passenger-optimal) policy.
pub fn std_p<M: Metric>(metric: M, params: PreferenceParams) -> StdPPolicy<M> {
    StdPPolicy {
        inner: SharingDispatcher::new(metric, params),
    }
}

/// STD-T (Algorithm 3, taxi-optimal) policy.
pub fn std_t<M: Metric>(metric: M, params: PreferenceParams) -> StdTPolicy<M> {
    StdTPolicy {
        inner: SharingDispatcher::new(metric, params),
    }
}

/// *RAII* sharing baseline policy.
pub fn raii<M: Metric>(metric: M, params: PreferenceParams) -> RaiiPolicy<M> {
    RaiiPolicy {
        inner: RaiiDispatcher::new(metric, params),
    }
}

/// *SARP* sharing baseline policy.
pub fn sarp<M: Metric>(metric: M, params: PreferenceParams) -> SarpPolicy<M> {
    SarpPolicy {
        inner: SarpDispatcher::new(metric, params),
    }
}

/// *Lin* sharing baseline policy.
pub fn lin<M: Metric + Clone>(metric: M, params: PreferenceParams) -> LinPolicy<M> {
    LinPolicy {
        inner: LinDispatcher::new(metric, params),
    }
}

/// A policy whose dispatcher queries a shared [`DistanceCache`].
///
/// Within one frame the same origin/destination pairs are asked for
/// repeatedly — stage-1 feasibility routing, packing scores and the
/// preference model all re-derive overlapping distances — so memoizing
/// them is free speedup with bit-identical results (the cache stores the
/// metric's exact answers). The cache is cleared at the start of every
/// frame.
///
/// Build one with [`cached`]:
///
/// ```
/// use o2o_core::PreferenceParams;
/// use o2o_geo::Euclidean;
/// use o2o_sim::policy;
///
/// let p = policy::cached(Euclidean, |metric| {
///     policy::std_p(metric, PreferenceParams::default())
/// });
/// ```
pub struct CachedPolicy<P, M> {
    inner: P,
    cache: Arc<DistanceCache<M>>,
}

impl<P, M> CachedPolicy<P, M> {
    /// The shared cache (e.g. to inspect hit/miss statistics).
    #[must_use]
    pub fn cache(&self) -> &Arc<DistanceCache<M>> {
        &self.cache
    }

    /// Cumulative hit/miss counters of the shared cache. Per-frame
    /// deltas are recorded on the frame's [`Recorder`] as the
    /// `cache.hits` / `cache.misses` counters during
    /// [`DispatchPolicy::dispatch`], so most callers read those
    /// instead of polling this.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats
    where
        M: Metric,
    {
        self.cache.stats()
    }
}

impl<P: DispatchPolicy, M: Metric> DispatchPolicy for CachedPolicy<P, M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn dispatch(&mut self, ctx: &FrameContext<'_>) -> Vec<FrameAssignment> {
        let before = self.cache.stats();
        self.cache.clear();
        let out = self.inner.dispatch(ctx);
        let after = self.cache.stats();
        ctx.recorder.add_many(&[
            ("cache.hits", after.hits.saturating_sub(before.hits)),
            ("cache.misses", after.misses.saturating_sub(before.misses)),
        ]);
        out
    }

    fn wants_pickup_distances(&self) -> bool {
        self.inner.wants_pickup_distances()
    }

    fn wants_taxi_grid(&self) -> bool {
        self.inner.wants_taxi_grid()
    }

    fn take_degradation(&mut self) -> Option<Degraded> {
        self.inner.take_degradation()
    }
}

/// Wraps `metric` in a per-frame [`DistanceCache`] and hands the caching
/// metric to `make`, which builds the underlying policy over it.
pub fn cached<M, P, F>(metric: M, make: F) -> CachedPolicy<P, M>
where
    M: Metric,
    F: FnOnce(Arc<DistanceCache<M>>) -> P,
{
    let cache = Arc::new(DistanceCache::new(metric));
    let inner = make(Arc::clone(&cache));
    CachedPolicy { inner, cache }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2o_geo::Euclidean;

    fn ctx_fixture() -> (Vec<Taxi>, Vec<Request>) {
        let taxis = vec![Taxi::new(TaxiId(0), Point::new(0.0, 0.0))];
        let requests = vec![Request::new(
            RequestId(0),
            0,
            Point::new(1.0, 0.0),
            Point::new(5.0, 0.0),
        )];
        (taxis, requests)
    }

    #[test]
    fn all_policies_have_paper_names() {
        let p = PreferenceParams::default();
        let names: Vec<String> = vec![
            nstd_p(Euclidean, p).name().into(),
            nstd_t(Euclidean, p).name().into(),
            near(Euclidean, p).name().into(),
            pair(Euclidean, p).name().into(),
            mini(Euclidean, p).name().into(),
            std_p(Euclidean, p).name().into(),
            std_t(Euclidean, p).name().into(),
            raii(Euclidean, p).name().into(),
            sarp(Euclidean, p).name().into(),
            lin(Euclidean, p).name().into(),
        ];
        assert_eq!(
            names,
            vec![
                "NSTD-P", "NSTD-T", "Near", "Pair", "Mini", "STD-P", "STD-T", "RAII", "SARP", "Lin"
            ]
        );
    }

    #[test]
    fn non_sharing_policies_assign_single_members() {
        let (taxis, requests) = ctx_fixture();
        let ctx = FrameContext::new(0, 60, &taxis, &requests);
        let p = PreferenceParams::default();
        for mut policy in [
            Box::new(nstd_p(Euclidean, p)) as Box<dyn DispatchPolicy>,
            Box::new(near(Euclidean, p)),
            Box::new(pair(Euclidean, p)),
            Box::new(mini(Euclidean, p)),
        ] {
            let out = policy.dispatch(&ctx);
            assert_eq!(out.len(), 1, "{}", policy.name());
            assert_eq!(out[0].members, vec![RequestId(0)]);
            assert_eq!(out[0].stops.len(), 2);
            assert!((out[0].passenger_costs[0] - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn sharing_policies_assign_routes() {
        let (taxis, requests) = ctx_fixture();
        let ctx = FrameContext::new(0, 60, &taxis, &requests);
        let p = PreferenceParams::default();
        for mut policy in [
            Box::new(std_p(Euclidean, p)) as Box<dyn DispatchPolicy>,
            Box::new(std_t(Euclidean, p)),
            Box::new(raii(Euclidean, p)),
            Box::new(sarp(Euclidean, p)),
            Box::new(lin(Euclidean, p)),
        ] {
            let out = policy.dispatch(&ctx);
            assert_eq!(out.len(), 1, "{}", policy.name());
            assert_eq!(out[0].stops.len(), 2);
            assert_eq!(out[0].taxi, TaxiId(0));
        }
    }

    #[test]
    fn egalitarian_policy_serves_frames() {
        let (taxis, requests) = ctx_fixture();
        let ctx = FrameContext::new(0, 60, &taxis, &requests);
        let mut p = nstd_e(Euclidean, PreferenceParams::default());
        assert_eq!(p.name(), "NSTD-E");
        let out = p.dispatch(&ctx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].members, vec![RequestId(0)]);
    }

    #[test]
    fn fn_policy_wraps_closure() {
        let mut p = from_fn("noop", |_ctx: &FrameContext<'_>| Vec::new());
        assert_eq!(p.name(), "noop");
        let (taxis, requests) = ctx_fixture();
        let ctx = FrameContext::new(0, 0, &taxis, &requests);
        assert!(p.dispatch(&ctx).is_empty());
    }

    #[test]
    fn nstd_policies_want_frame_inputs_by_candidate_mode() {
        let p = PreferenceParams::default();
        // Sparse (the default): taxi grid in, pick-up matrix out.
        assert!(!nstd_p(Euclidean, p).wants_pickup_distances());
        assert!(!nstd_t(Euclidean, p).wants_pickup_distances());
        assert!(nstd_p(Euclidean, p).wants_taxi_grid());
        assert!(nstd_t(Euclidean, p).wants_taxi_grid());
        // Dense: the original contract.
        let dense = NstdPPolicy::from_dispatcher(
            NonSharingDispatcher::new(Euclidean, p).with_candidate_mode(CandidateMode::Dense),
        );
        assert!(dense.wants_pickup_distances());
        assert!(!dense.wants_taxi_grid());
        // Non-NSTD policies ask for neither.
        assert!(!nstd_e(Euclidean, p).wants_pickup_distances());
        assert!(!std_p(Euclidean, p).wants_pickup_distances());
        assert!(!near(Euclidean, p).wants_pickup_distances());
        assert!(!nstd_e(Euclidean, p).wants_taxi_grid());
        assert!(!std_p(Euclidean, p).wants_taxi_grid());
    }

    #[test]
    fn cached_policies_record_hit_miss_deltas_on_the_frame_recorder() {
        let p = PreferenceParams::default();
        let mut wrapped = cached(Euclidean, |metric| {
            StdPPolicy::from_dispatcher(SharingDispatcher::new(metric, p))
        });
        let stats = wrapped.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));

        let (taxis, requests) = ctx_fixture();
        let recorder = Recorder::new();
        let mut ctx = FrameContext::new(0, 60, &taxis, &requests);
        ctx.recorder = &recorder;
        let out = wrapped.dispatch(&ctx);
        assert_eq!(out.len(), 1);
        let stats = wrapped.cache_stats();
        assert!(stats.misses > 0, "dispatch populates the cache");
        assert_eq!(recorder.counter("cache.misses"), stats.misses);
        assert_eq!(recorder.counter("cache.hits"), stats.hits);

        // The default context carries the disabled recorder: dispatching
        // through it is inert but still bit-identical.
        let plain_ctx = FrameContext::new(1, 120, &taxis, &requests);
        assert!(!plain_ctx.recorder.is_enabled());
        assert_eq!(wrapped.dispatch(&plain_ctx), out);
    }

    #[test]
    fn budgeted_dispatch_reports_and_clears_degradation() {
        use o2o_core::{DispatchTier, TimeBudgetSpec};
        let (taxis, requests) = ctx_fixture();
        let mut p = nstd_t(Euclidean, PreferenceParams::default());
        // Unlimited budget (the default context): no degradation.
        let ctx = FrameContext::new(0, 60, &taxis, &requests);
        let out = p.dispatch(&ctx);
        assert_eq!(out.len(), 1);
        assert!(p.take_degradation().is_none());
        // A zero deadline forces the greedy floor and records it.
        let mut ctx = FrameContext::new(1, 120, &taxis, &requests);
        ctx.budget = TimeBudgetSpec::default()
            .with_deadline(std::time::Duration::ZERO)
            .start();
        let out = p.dispatch(&ctx);
        assert_eq!(out.len(), 1, "greedy still serves the lone request");
        let d = p.take_degradation().expect("degradation recorded");
        assert_eq!(d.from, DispatchTier::NstdT);
        assert_eq!(d.to, DispatchTier::GreedyNearest);
        // take_degradation drains the record.
        assert!(p.take_degradation().is_none());
        // Policies without a budgeted path report none by default.
        let mut near = near(Euclidean, PreferenceParams::default());
        let _ = near.dispatch(&ctx);
        assert!(near.take_degradation().is_none());
    }

    #[test]
    fn cached_policy_matches_plain_and_clears_per_frame() {
        let (taxis, requests) = ctx_fixture();
        let ctx = FrameContext::new(0, 60, &taxis, &requests);
        let p = PreferenceParams::default();
        let mut plain = std_p(Euclidean, p);
        let mut wrapped = cached(Euclidean, |metric| {
            StdPPolicy::from_dispatcher(SharingDispatcher::new(metric, p))
        });
        assert_eq!(wrapped.name(), "STD-P");
        let out = wrapped.dispatch(&ctx);
        assert_eq!(out, plain.dispatch(&ctx));
        assert!(wrapped.cache().stats().misses > 0);
        // Dispatch starts by clearing, so a second frame re-misses but
        // still matches.
        let again = wrapped.dispatch(&ctx);
        assert_eq!(again, out);
    }
}
