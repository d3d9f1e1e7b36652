//! The benchmark's [`DispatchPolicy`] wrapper: it times every `dispatch`
//! call from outside the program and can keep each frame's input and
//! pairs for a stability check after the run.

use o2o_core::{Degraded, NonSharingDispatcher};
use o2o_geo::Euclidean;
use o2o_sim::{DispatchPolicy, FrameAssignment, FrameContext};
use o2o_trace::{Request, RequestId, Taxi, TaxiId};
use std::time::{Duration, Instant};

/// One frame's policy input and the pairs the policy returned.
struct Frame {
    idle_taxis: Vec<Taxi>,
    pending: Vec<Request>,
    pairs: Vec<(RequestId, TaxiId)>,
}

/// Wraps a policy, forwarding every trait method unchanged; only
/// `dispatch` is timed and (optionally) recorded.
pub struct Probe<P> {
    inner: P,
    frames: Option<Vec<Frame>>,
    /// Time inside the wrapped `dispatch` calls.
    pub dispatch: Duration,
    /// Assignments the wrapped policy returned.
    pub assignments: u64,
}

impl<P: DispatchPolicy> Probe<P> {
    /// Wraps `inner`; with `keep_frames`, every frame's input and pairs
    /// are copied for [`unstable_frames`](Self::unstable_frames).
    pub fn new(inner: P, keep_frames: bool) -> Self {
        Probe {
            inner,
            frames: keep_frames.then(Vec::new),
            dispatch: Duration::ZERO,
            assignments: 0,
        }
    }

    /// How many kept frames' pairs are not a stable matching of that
    /// frame's idle taxis and pending requests, by
    /// [`NonSharingDispatcher::is_stable_assignment`] (build `checker`
    /// with the workload's parameters). Called after the run, so the
    /// check's time and cache traffic stay out of every timing.
    pub fn unstable_frames(&self, checker: &NonSharingDispatcher<Euclidean>) -> u64 {
        self.frames
            .iter()
            .flatten()
            .filter(|f| !checker.is_stable_assignment(&f.idle_taxis, &f.pending, &f.pairs))
            .count() as u64
    }
}

impl<P: DispatchPolicy> DispatchPolicy for Probe<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn dispatch(&mut self, ctx: &FrameContext<'_>) -> Vec<FrameAssignment> {
        let started = Instant::now();
        let out = self.inner.dispatch(ctx);
        self.dispatch += started.elapsed();
        self.assignments += out.len() as u64;
        if let Some(frames) = &mut self.frames {
            frames.push(Frame {
                idle_taxis: ctx.idle_taxis.to_vec(),
                pending: ctx.pending.to_vec(),
                pairs: out.iter().map(|a| (a.members[0], a.taxi)).collect(),
            });
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use o2o_core::{CandidateMode, PreferenceParams, SharingDispatcher, TimeBudgetSpec};
    use o2o_obs::Recorder;
    use o2o_par::Parallelism;
    use o2o_sim::policy::{self, NstdPPolicy, NstdTPolicy, StdPPolicy};
    use o2o_sim::{SimConfig, SimReport, Simulator};
    use o2o_trace::{boston_september_2012, Trace};

    fn trace() -> Trace {
        boston_september_2012(0.02).taxis(20).generate(3)
    }

    fn run(config: SimConfig, policy: &mut impl DispatchPolicy) -> SimReport {
        Simulator::new(config)
            .with_parallelism(Parallelism::sequential())
            .with_recorder(Recorder::new())
            .run(&trace(), policy)
    }

    /// The engine precompute each frame got, read from its stage spans.
    fn precompute(report: &SimReport) -> Vec<(bool, bool)> {
        report
            .stage_breakdown
            .frames
            .iter()
            .map(|f| {
                let has = |stage: &str| f.stages.iter().any(|(name, _)| name == stage);
                (has("pickup_matrix"), has("grid_build"))
            })
            .collect()
    }

    /// Runs `make()` bare and wrapped (keeping frames when `keep`) and
    /// requires the same name, the same precompute requests and
    /// per-frame precompute, the same degradations and the same digest.
    fn assert_transparent<P: DispatchPolicy>(config: SimConfig, keep: bool, make: impl Fn() -> P) {
        let mut bare = make();
        let mut wrapped = Probe::new(make(), keep);
        assert_eq!(wrapped.name(), bare.name());
        assert_eq!(
            wrapped.wants_pickup_distances(),
            bare.wants_pickup_distances()
        );
        assert_eq!(wrapped.wants_taxi_grid(), bare.wants_taxi_grid());
        let expected = run(config, &mut bare);
        let got = run(config, &mut wrapped);
        assert_eq!(precompute(&got), precompute(&expected));
        assert_eq!(got.degradations, expected.degradations);
        assert_eq!(got.deterministic_digest(), expected.deterministic_digest());
        assert!(wrapped.assignments > 0);
    }

    #[test]
    fn wrapper_keeps_the_sparse_policy_s_grid_and_digest() {
        let params = PreferenceParams::paper();
        assert_transparent(SimConfig::default(), true, || {
            policy::nstd_t(Euclidean, params)
        });
    }

    #[test]
    fn wrapper_keeps_the_dense_policy_s_pickup_matrix_and_digest() {
        let params = PreferenceParams::paper();
        assert_transparent(SimConfig::default(), true, || {
            NstdPPolicy::from_dispatcher(
                NonSharingDispatcher::new(Euclidean, params)
                    .with_candidate_mode(CandidateMode::Dense),
            )
        });
    }

    #[test]
    fn wrapper_forwards_degradations_under_an_expired_deadline() {
        let params = PreferenceParams::paper();
        // A zero deadline has passed at every check, so every frame steps
        // down the same way on every run.
        let config = SimConfig {
            frame_budget: TimeBudgetSpec::unlimited().with_deadline(Duration::ZERO),
            ..SimConfig::default()
        };
        let mut bare = policy::nstd_t(Euclidean, params);
        assert!(!run(config, &mut bare).degradations.is_empty());
        assert_transparent(config, true, || {
            NstdTPolicy::from_dispatcher(NonSharingDispatcher::new(Euclidean, params))
        });
    }

    #[test]
    fn wrapper_keeps_the_cached_sharing_policy_s_digest() {
        let params = PreferenceParams::paper();
        assert_transparent(SimConfig::default(), false, || {
            policy::cached(Euclidean, |metric| {
                StdPPolicy::from_dispatcher(SharingDispatcher::new(metric, params))
            })
        });
    }

    #[test]
    fn stable_frames_pass_and_greedy_frames_fail_the_check() {
        let params = PreferenceParams::paper();
        let checker = NonSharingDispatcher::new(Euclidean, params);
        let mut stable = Probe::new(policy::nstd_p(Euclidean, params), true);
        let report = run(SimConfig::default(), &mut stable);
        assert_eq!(
            stable.frames.as_ref().map(Vec::len),
            Some(report.stage_breakdown.frames.len())
        );
        assert_eq!(stable.unstable_frames(&checker), 0);
        let mut greedy = Probe::new(policy::near(Euclidean, params), true);
        let _ = run(SimConfig::default(), &mut greedy);
        assert!(greedy.unstable_frames(&checker) > 0);
    }
}
