//! The discrete-frame simulation engine.

use crate::fault::{
    DegradationEvent, DispatchError, FaultCounters, FaultPlan, FaultState, MidDispatchFate,
};
use crate::metrics::HourBucket;
use crate::policy::{DispatchPolicy, FrameContext};
use crate::report::SimReport;
use o2o_core::{PickupDistances, TimeBudgetSpec};
use o2o_geo::{Euclidean, Metric, Point};
use o2o_obs::{self as obs, FrameObservation, Recorder, SloMonitor, SloSpec};
use o2o_par::Parallelism;
use o2o_trace::{Request, RequestId, Taxi, TaxiId, Trace};
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Instant;

/// Engine parameters; defaults reproduce the paper's setup (one-minute
/// frames, 20 km/h).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Length of one dispatch frame in seconds (paper: 60).
    pub frame_seconds: u64,
    /// Taxi cruising speed in km/h (paper: 20, from its ref. \[24\]).
    pub taxi_speed_kmh: f64,
    /// How many frames past the last request arrival the engine keeps
    /// draining the pending queue before giving up (prevents an infinite
    /// run when demand permanently exceeds supply).
    pub drain_frames: u64,
    /// Drop a request after waiting this many frames (`None` = passengers
    /// wait indefinitely, as in the paper).
    pub max_pending_frames: Option<u64>,
    /// Cap the batch handed to the policy at this many pending requests
    /// *per idle taxi* (oldest first). A frame can serve at most
    /// `max_group_size × idle` requests, so a generous multiple preserves
    /// choice while bounding the quadratic/cubic sharing stages during
    /// backlogs. `None` passes the whole queue.
    pub max_batch_per_idle: Option<usize>,
    /// Per-frame compute budget handed to the policy via
    /// [`FrameContext::budget`]. The default is unlimited, which leaves
    /// every policy running its normal algorithm; a finite deadline or
    /// node cap makes budget-aware policies (the NSTD family) step down
    /// the degradation ladder and report it on
    /// [`SimReport::degradations`]. The budget clock starts when the
    /// frame's dispatch work (precomputation included) starts.
    pub frame_budget: TimeBudgetSpec,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            frame_seconds: 60,
            taxi_speed_kmh: 20.0,
            drain_frames: 720,
            max_pending_frames: None,
            max_batch_per_idle: Some(8),
            frame_budget: TimeBudgetSpec::default(),
        }
    }
}

impl SimConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.frame_seconds == 0 {
            return Err("frame_seconds must be positive".into());
        }
        if !(self.taxi_speed_kmh.is_finite() && self.taxi_speed_kmh > 0.0) {
            return Err(format!(
                "taxi_speed_kmh must be positive, got {}",
                self.taxi_speed_kmh
            ));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TaxiState {
    pub(crate) template: Taxi,
    pub(crate) location: Point,
    pub(crate) free_at: u64,
}

/// Everything the engine carries across a frame boundary.
///
/// This is the complete resume surface: a run restored from a serialized
/// `EngineState` (see [`crate::ckpt`]) continues bit-identically to one
/// that never stopped, because every other per-frame structure is either
/// scratch (rebuilt from scratch each frame — see [`Scratch`]) or policy
/// warm state (deterministically rebuilt by the warm==cold invariant the
/// policies guarantee). Wall-clock fields inside the report are the only
/// exception, and the determinism digest excludes them.
#[derive(Debug, Clone)]
pub(crate) struct EngineState {
    pub(crate) taxis: Vec<TaxiState>,
    /// `(request, admission frame)` queue, arrival order.
    pub(crate) pending: VecDeque<(Request, u64)>,
    /// Next index into `trace.requests` to admit.
    pub(crate) next_request: usize,
    pub(crate) report: SimReport,
    /// Injected-fault counter watermark: the `sim.faults_injected`
    /// counter is advanced by the per-frame delta of the cumulative
    /// fault tally (faults land on dispatched and skipped frames
    /// alike; skipped-frame injections attribute to the next
    /// dispatched frame, with any tail flushed after the loop).
    pub(crate) faults_seen: u64,
    pub(crate) fault_state: Option<FaultState>,
    /// Every request id ever admitted, kept only on fault runs: the
    /// admission screen rejects injected duplicates against it.
    pub(crate) admitted_ids: HashSet<RequestId>,
    /// The ids `admitted_ids` gained since the last checkpoint, in
    /// admission order: the checkpoint layer appends them to its history
    /// segment and clears the list; a run without checkpoints clears it
    /// every frame.
    pub(crate) admitted_log: Vec<RequestId>,
    /// The next frame to execute (frames `0..frame` are done).
    pub(crate) frame: u64,
}

impl EngineState {
    pub(crate) fn new(trace: &Trace, policy_name: &str, faults: Option<FaultPlan>) -> Self {
        let taxis: Vec<TaxiState> = trace
            .taxis
            .iter()
            .map(|t| TaxiState {
                template: *t,
                location: t.location,
                free_at: 0,
            })
            .collect();
        let fleet = taxis.len();
        EngineState {
            taxis,
            pending: VecDeque::new(),
            next_request: 0,
            report: SimReport {
                policy: policy_name.to_string(),
                trace: trace.name.clone(),
                served: 0,
                unserved_at_end: 0,
                frames: 0,
                delays_min: Vec::new(),
                passenger_dissatisfaction: Vec::new(),
                taxi_dissatisfaction: Vec::new(),
                shared_requests: 0,
                total_drive_km: 0.0,
                queue_by_frame: Vec::new(),
                idle_by_frame: Vec::new(),
                dispatch_ms_by_frame: Vec::new(),
                stage_breakdown: o2o_obs::StageBreakdown::new(),
                faults: FaultCounters::default(),
                dispatch_errors: Vec::new(),
                degradations: Vec::new(),
                slo_events: Vec::new(),
                delay_by_hour: [HourBucket::default(); 24],
                passenger_by_hour: [HourBucket::default(); 24],
                taxi_by_hour: [HourBucket::default(); 24],
            },
            faults_seen: 0,
            fault_state: faults.map(|plan| FaultState::new(plan, fleet)),
            admitted_ids: HashSet::new(),
            admitted_log: Vec::new(),
            frame: 0,
        }
    }
}

/// Reusable per-frame scratch, hoisted so a long run does not
/// re-allocate (and re-free) the same buffers every tick. Nothing here
/// survives a frame as *state*: everything is recomputed before use, so
/// resume after a crash rebuilds it all from the trace without loss.
pub(crate) struct Scratch {
    idle: Vec<Taxi>,
    pending_vec: Vec<Request>,
    arrivals: Vec<Request>,
    member_reqs: Vec<Request>,
    cancelled_members: HashSet<RequestId>,
    used_taxis: HashSet<TaxiId>,
    served_ids: HashSet<RequestId>,
    taxi_index: HashMap<TaxiId, usize>,
    /// Live SLO monitor, fed once per dispatched frame; `None` when the
    /// simulator has no [`SloSpec`]s configured. Scratch (not state): a
    /// resumed run restarts its rolling windows cold, mirroring the
    /// telemetry exclusion in the checkpoint format.
    pub(crate) slo: Option<SloMonitor>,
    /// Arrivals admitted since the monitor was last fed — dispatch-less
    /// frames accumulate here so the served-ratio denominator never
    /// drops admissions that happened between dispatches.
    pub(crate) slo_arrivals: u64,
    /// Checkpoint-machinery milliseconds accumulated since the monitor
    /// was last fed (the checkpoint layer adds after each step, the next
    /// observation drains).
    pub(crate) slo_ckpt_ms: f64,
}

impl Scratch {
    pub(crate) fn new(trace: &Trace) -> Self {
        Scratch {
            idle: Vec::new(),
            pending_vec: Vec::new(),
            arrivals: Vec::new(),
            member_reqs: Vec::new(),
            cancelled_members: HashSet::new(),
            used_taxis: HashSet::new(),
            served_ids: HashSet::new(),
            taxi_index: trace
                .taxis
                .iter()
                .enumerate()
                .map(|(i, t)| (t.id, i))
                .collect(),
            slo: None,
            slo_arrivals: 0,
            slo_ckpt_ms: 0.0,
        }
    }
}

/// The discrete-frame simulator; see the [crate docs](crate) for the
/// model.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SimConfig,
    par: Parallelism,
    faults: Option<FaultPlan>,
    recorder: Recorder,
    slo: Vec<SloSpec>,
}

impl Simulator {
    /// Creates a simulator. Policy-independent per-frame precomputation
    /// (the idle × pending pick-up distance matrix) defaults to
    /// [`Parallelism::auto`]; thread count never affects results, only
    /// wall-clock time.
    ///
    /// # Panics
    ///
    /// Panics if the config fails [`SimConfig::validate`].
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        config.validate().expect("invalid simulator configuration");
        Simulator {
            config,
            par: Parallelism::auto(),
            faults: None,
            recorder: Recorder::new(),
            slo: Vec::new(),
        }
    }

    /// Sets the thread count for per-frame precomputation
    /// ([`Parallelism::sequential`] recovers single-threaded behaviour
    /// exactly — results are bit-identical either way).
    #[must_use]
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// Injects faults from `plan` while the simulation runs (see
    /// [`FaultPlan`]). A [`FaultPlan::none`] plan leaves every run
    /// bit-identical to one without a plan.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        plan.validate().expect("invalid fault plan");
        self.faults = Some(plan);
        self
    }

    /// The fault plan in use, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Replaces the run's [`Recorder`]. The default is an enabled,
    /// sink-less recorder ([`Recorder::new`]), so
    /// [`SimReport::stage_breakdown`] and the cache-effectiveness views
    /// populate on every run without writing an event stream anywhere.
    /// Pass [`Recorder::disabled`] to opt out of telemetry entirely, or
    /// a sink-bearing recorder to stream the event log — dispatch
    /// results are bit-identical in all three configurations.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The recorder the engine threads through every frame.
    #[must_use]
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Installs live SLO specs. Each dispatched frame feeds one
    /// [`FrameObservation`] to a [`SloMonitor`] built from `specs`;
    /// breach/recover transitions land on [`SimReport::slo_events`] and
    /// (when the recorder has a sink) in the event stream as `slo`
    /// records. The monitor only *reads* engine outputs — dispatch
    /// results are bit-identical with or without specs, enabled or
    /// disabled recorder.
    #[must_use]
    pub fn with_slo(mut self, specs: Vec<SloSpec>) -> Self {
        self.slo = specs;
        self
    }

    /// The configured SLO specs (empty unless
    /// [`with_slo`](Self::with_slo) was called).
    #[must_use]
    pub fn slo_specs(&self) -> &[SloSpec] {
        &self.slo
    }

    /// Builds the per-run scratch space, attaching an [`SloMonitor`]
    /// when specs are configured. The checkpoint layer's resume paths
    /// call this too, so a resumed run monitors the same SLOs (with
    /// windows restarted cold).
    pub(crate) fn new_scratch(&self, trace: &Trace) -> Scratch {
        let mut sc = Scratch::new(trace);
        if !self.slo.is_empty() {
            sc.slo = Some(SloMonitor::new(self.slo.clone()));
        }
        sc
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The precomputation thread configuration.
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        self.par
    }

    /// Runs `policy` over `trace` with straight-line driving distances.
    ///
    /// Shorthand for [`run_with_metric`](Self::run_with_metric) with
    /// [`Euclidean`], so the same-metric requirement documented there
    /// applies: the policy must dispatch over Euclidean distances too
    /// (a caching wrapper around `Euclidean` is fine). A policy built
    /// over any other metric must go through `run_with_metric` with that
    /// metric, or the precomputed pick-up matrix would silently mix
    /// Euclidean pick-up distances into its preferences.
    #[must_use]
    pub fn run<P: DispatchPolicy>(&self, trace: &Trace, policy: &mut P) -> SimReport {
        self.run_with_metric(&Euclidean, trace, policy)
    }

    /// Runs `policy` over `trace`, measuring driven distances with
    /// `metric`.
    ///
    /// `metric` must be the metric the policy dispatches with (a
    /// memoizing wrapper over it is fine): besides measuring driven
    /// kilometres, the engine precomputes each frame's idle × pending
    /// pick-up distance matrix with `metric` and hands it to the policy
    /// via [`FrameContext::pickup_distances`], substituting those entries
    /// for the policy's own metric queries. With a mismatched metric the
    /// policy would silently mix `metric`'s pick-up distances with its
    /// own trip distances; preference construction spot-checks a sampled
    /// entry against the policy metric in debug builds.
    ///
    /// # Panics
    ///
    /// Panics if the policy returns a structurally invalid assignment (a
    /// busy or repeated taxi, a repeated request, empty stops, or a
    /// member/cost length mismatch) — these are policy bugs, not
    /// recoverable conditions. Identity failures, by contrast, are
    /// recovered: an assignment naming an unknown taxi or a request that
    /// is no longer pending is skipped and recorded on
    /// [`SimReport::dispatch_errors`] rather than panicking (under fault
    /// injection a request can legitimately vanish between the policy's
    /// decision and its application).
    #[must_use]
    pub fn run_with_metric<M: Metric, P: DispatchPolicy>(
        &self,
        metric: &M,
        trace: &Trace,
        policy: &mut P,
    ) -> SimReport {
        let mut state = EngineState::new(trace, policy.name(), self.faults);
        let mut scratch = self.new_scratch(trace);
        while self.step_frame(metric, trace, policy, &mut state, &mut scratch) {
            state.admitted_log.clear();
        }
        self.finish(state)
    }

    /// Executes exactly one frame (admission, expiry, dispatch, drive,
    /// bookkeeping), advances `st.frame`, and reports whether the run
    /// continues. The split from [`run_with_metric`](Self::run_with_metric)
    /// exists for the checkpoint layer: a resumed run re-enters here at an
    /// arbitrary frame boundary and proceeds bit-identically.
    pub(crate) fn step_frame<M: Metric, P: DispatchPolicy>(
        &self,
        metric: &M,
        trace: &Trace,
        policy: &mut P,
        st: &mut EngineState,
        sc: &mut Scratch,
    ) -> bool {
        let frame_s = self.config.frame_seconds;
        let speed_km_per_s = self.config.taxi_speed_kmh / 3600.0;
        let last_arrival_frame = trace.requests.last().map_or(0, |r| r.time / frame_s);
        let recorder = &self.recorder;

        let EngineState {
            taxis,
            pending,
            next_request,
            report,
            faults_seen,
            fault_state,
            admitted_ids,
            admitted_log,
            frame: frame_slot,
        } = st;
        let Scratch {
            idle,
            pending_vec,
            arrivals,
            member_reqs,
            cancelled_members,
            used_taxis,
            served_ids,
            taxi_index,
            slo,
            slo_arrivals,
            slo_ckpt_ms,
        } = sc;

        let frame = *frame_slot;
        {
            let time_end = (frame + 1) * frame_s;
            // Admit arrivals.
            match fault_state.as_mut() {
                None => {
                    while *next_request < trace.requests.len()
                        && trace.requests[*next_request].time < time_end
                    {
                        pending.push_back((trace.requests[*next_request], frame));
                        *slo_arrivals += 1;
                        *next_request += 1;
                    }
                }
                Some(fs) => {
                    // Fault runs corrupt the arrival batch (duplicates,
                    // malformed siblings) and then screen every record at
                    // admission: non-finite coordinates, empty parties and
                    // already-seen ids are quarantined, everything else is
                    // admitted exactly as on the clean path.
                    let recovery_started = Instant::now();
                    arrivals.clear();
                    while *next_request < trace.requests.len()
                        && trace.requests[*next_request].time < time_end
                    {
                        arrivals.push(trace.requests[*next_request]);
                        *next_request += 1;
                    }
                    fs.corrupt_arrivals(arrivals, &mut report.faults);
                    for r in arrivals.drain(..) {
                        let finite = r.pickup.x.is_finite()
                            && r.pickup.y.is_finite()
                            && r.dropoff.x.is_finite()
                            && r.dropoff.y.is_finite();
                        if !finite || r.passengers == 0 || !admitted_ids.insert(r.id) {
                            report.faults.quarantined_arrivals += 1;
                        } else {
                            admitted_log.push(r.id);
                            pending.push_back((r, frame));
                            *slo_arrivals += 1;
                        }
                    }
                    // Pending passengers may abandon between frames; the
                    // engine releases them from the queue so no taxi is
                    // ever dispatched to a cancelled request.
                    pending.retain(|_| !fs.cancels_request(&mut report.faults));
                    report.faults.recovery_ms += recovery_started.elapsed().as_secs_f64() * 1e3;
                }
            }
            // Expire over-waited requests, if configured.
            if let Some(cap) = self.config.max_pending_frames {
                let before = pending.len();
                pending.retain(|&(_, admitted)| frame - admitted <= cap);
                report.unserved_at_end += before - pending.len();
            }

            // Collect the idle fleet in fleet order. On fault runs,
            // dropped-out taxis are evicted from the pool and reported
            // positions may be GPS-jittered — the true position (used for
            // driving) is untouched, only the policy's view shifts.
            idle.clear();
            for (fi, t) in taxis.iter().enumerate() {
                if t.free_at <= time_end {
                    let location = match fault_state.as_mut() {
                        Some(fs) => {
                            if fs.taxi_offline(fi, frame, &mut report.faults) {
                                continue;
                            }
                            fs.report_position(t.location, &mut report.faults)
                        }
                        None => t.location,
                    };
                    idle.push(Taxi {
                        id: t.template.id,
                        location,
                        seats: t.template.seats,
                    });
                }
            }

            let mut dispatch_ms = 0.0;
            if !idle.is_empty() && !pending.is_empty() {
                let served_before = report.served;
                let batch_cap = self
                    .config
                    .max_batch_per_idle
                    .map_or(usize::MAX, |m| m.saturating_mul(idle.len()));
                pending_vec.clear();
                pending_vec.extend(pending.iter().take(batch_cap).map(|&(r, _)| r));

                // Open the frame's telemetry window and install the
                // recorder as this thread's current one, so pipeline
                // stages without a handle (deferred acceptance,
                // preference construction, the baselines' scans) record
                // through the free functions in `o2o_obs`.
                recorder.begin_frame(frame);
                let _obs_scope = obs::scope(recorder);
                let started = Instant::now();
                // The frame's compute budget starts with the dispatch
                // work, so precomputation time counts against a finite
                // deadline too.
                let budget = self.config.frame_budget.start();
                // Policy-independent precomputation, built only for
                // policies that will read it: the idle × pending pick-up
                // matrix (dense candidate mode), and the idle-taxi grid
                // shared by sparse candidate generation and the
                // grid-accelerated baselines, built in bulk over the idle
                // slice at the reported positions it shows the policy (the
                // true ones except under GPS jitter). A worker panic
                // in the matrix (even after the sequential retry) skips
                // this frame's dispatch instead of tearing the run down —
                // the requests stay pending and the next frame retries.
                let mut precompute_failed = false;
                let pickup = if policy.wants_pickup_distances() {
                    let _span = obs::span("pickup_matrix");
                    match PickupDistances::try_compute(metric, idle, pending_vec, self.par) {
                        Ok(p) => Some(p),
                        Err(e) => {
                            report
                                .dispatch_errors
                                .push(DispatchError::PrecomputeFailed {
                                    frame,
                                    message: e.to_string(),
                                });
                            report.faults.recovered_dispatch_errors += 1;
                            recorder.add("sim.dispatch_errors", 1);
                            precompute_failed = true;
                            None
                        }
                    }
                } else {
                    None
                };
                let grid = (!precompute_failed && policy.wants_taxi_grid())
                    .then(|| o2o_core::build_taxi_grid(idle));
                let mut ctx = FrameContext::new(frame, time_end, idle, pending_vec);
                ctx.pickup_distances = pickup.as_ref();
                ctx.taxi_grid = grid.as_ref();
                ctx.budget = budget;
                ctx.recorder = recorder;
                let mut assignments = if precompute_failed {
                    Vec::new()
                } else {
                    let _span = obs::span("policy_dispatch");
                    policy.dispatch(&ctx)
                };
                dispatch_ms = started.elapsed().as_secs_f64() * 1e3;
                let mut rung = None;
                if let Some(d) = policy.take_degradation() {
                    rung = Some(d.to.as_str());
                    recorder.add("sim.degradations", 1);
                    report
                        .degradations
                        .push(DegradationEvent { frame, degraded: d });
                }

                // Mid-dispatch faults land between the policy's decision
                // and its application: passengers may cancel (their
                // assignment is voided and they leave the queue) or the
                // taxi may drop offline (the assignment is voided and the
                // members stay pending for a later frame).
                if let Some(fs) = fault_state.as_mut() {
                    let recovery_started = Instant::now();
                    cancelled_members.clear();
                    assignments.retain(|a| match fs.mid_dispatch_fate() {
                        MidDispatchFate::Deliver => true,
                        MidDispatchFate::CancelPassengers => {
                            report.faults.mid_dispatch_cancellations += a.members.len() as u64;
                            cancelled_members.extend(a.members.iter().copied());
                            false
                        }
                        MidDispatchFate::TaxiDropout => {
                            report.faults.mid_dispatch_dropouts += 1;
                            if let Some(&fi) = taxi_index.get(&a.taxi) {
                                fs.force_offline(fi, frame);
                            }
                            false
                        }
                    });
                    if !cancelled_members.is_empty() {
                        pending.retain(|&(r, _)| !cancelled_members.contains(&r.id));
                    }
                    report.faults.recovery_ms += recovery_started.elapsed().as_secs_f64() * 1e3;
                }

                used_taxis.clear();
                served_ids.clear();
                for a in &assignments {
                    // Structural violations stay hard panics — they are
                    // policy bugs, not operational conditions.
                    assert!(
                        used_taxis.insert(a.taxi),
                        "policy {} assigned taxi {} twice in frame {frame}",
                        policy.name(),
                        a.taxi
                    );
                    assert!(!a.stops.is_empty(), "assignment with no stops");
                    assert_eq!(
                        a.members.len(),
                        a.passenger_costs.len(),
                        "passenger cost per member required"
                    );
                    // Identity lookups, by contrast, are recoverable: an
                    // assignment naming an unknown taxi or a request that
                    // is no longer pending is skipped whole (validated
                    // *before* any taxi or report state mutates) and
                    // recorded as a typed error.
                    let Some(&ti) = taxi_index.get(&a.taxi) else {
                        report.dispatch_errors.push(DispatchError::UnknownTaxi {
                            taxi: a.taxi,
                            frame,
                        });
                        report.faults.recovered_dispatch_errors += 1;
                        recorder.add("sim.dispatch_errors", 1);
                        continue;
                    };
                    assert!(
                        taxis[ti].free_at <= time_end,
                        "policy {} dispatched busy taxi {}",
                        policy.name(),
                        a.taxi
                    );
                    member_reqs.clear();
                    let mut members_ok = true;
                    for &m in &a.members {
                        assert!(
                            !served_ids.contains(&m) && !member_reqs.iter().any(|r| r.id == m),
                            "request {m} assigned twice in frame {frame}"
                        );
                        match pending.iter().find(|&&(r, _)| r.id == m) {
                            Some(&(r, _)) => member_reqs.push(r),
                            None => {
                                report
                                    .dispatch_errors
                                    .push(DispatchError::RequestNotPending { request: m, frame });
                                report.faults.recovered_dispatch_errors += 1;
                                recorder.add("sim.dispatch_errors", 1);
                                members_ok = false;
                                break;
                            }
                        }
                    }
                    if !members_ok {
                        continue;
                    }
                    served_ids.extend(a.members.iter().copied());

                    // Drive: approach leg + the route through all stops.
                    let mut length = metric.distance(taxis[ti].location, a.stops[0]);
                    length += metric.path_length(&a.stops);
                    let travel_s = (length / speed_km_per_s).ceil() as u64;
                    taxis[ti].free_at = time_end + travel_s;
                    taxis[ti].location = *a.stops.last().expect("non-empty stops");
                    report.total_drive_km += length;

                    // Metrics.
                    let dispatch_hour = ((time_end / 3600) % 24) as usize;
                    report.taxi_dissatisfaction.push(a.taxi_cost);
                    report.taxi_by_hour[dispatch_hour].push(a.taxi_cost);
                    let shared = a.members.len() >= 2;
                    for (req, &cost) in member_reqs.iter().zip(&a.passenger_costs) {
                        let delay_min = (time_end.saturating_sub(req.time)) as f64 / 60.0;
                        let hour = req.hour_of_day() as usize;
                        report.delays_min.push(delay_min);
                        report.delay_by_hour[hour].push(delay_min);
                        report.passenger_dissatisfaction.push(cost);
                        report.passenger_by_hour[hour].push(cost);
                        report.served += 1;
                        if shared {
                            report.shared_requests += 1;
                        }
                    }
                }
                pending.retain(|&(r, _)| !served_ids.contains(&r.id));

                recorder.observe("frame.dispatch_ms", dispatch_ms);
                recorder.gauge("sim.queue_len", pending.len() as f64);
                recorder.gauge("sim.idle_taxis", idle.len() as f64);
                let faults_total = report.faults.total_injected();
                if faults_total > *faults_seen {
                    recorder.add("sim.faults_injected", faults_total - *faults_seen);
                    *faults_seen = faults_total;
                }
                // Feed the live SLO monitor once per dispatched frame,
                // inside the open telemetry window so breach counters
                // attribute to this frame. The monitor only reads the
                // report — it never touches dispatch state — so runs with
                // and without specs stay bit-identical.
                if let Some(mon) = slo.as_mut() {
                    let observation = FrameObservation {
                        frame,
                        dispatch_ms,
                        served: (report.served - served_before) as u64,
                        arrivals: std::mem::take(slo_arrivals),
                        rung,
                        ckpt_ms: std::mem::take(slo_ckpt_ms),
                    };
                    for ev in mon.on_frame(&observation) {
                        recorder.slo_event(ev.clone());
                        report.slo_events.push(ev);
                    }
                }
                if let Some(fs) = recorder.end_frame() {
                    report.stage_breakdown.push(fs);
                }
            }

            report.dispatch_ms_by_frame.push(dispatch_ms);
            report.queue_by_frame.push(pending.len() as u32);
            report
                .idle_by_frame
                .push(taxis.iter().filter(|t| t.free_at <= time_end).count() as u32);
        }

        *frame_slot = frame + 1;
        let arrivals_done = *next_request >= trace.requests.len();
        !(arrivals_done
            && (pending.is_empty() || *frame_slot > last_arrival_frame + self.config.drain_frames))
    }

    /// Flushes the tail counters and seals the report after the last
    /// frame.
    pub(crate) fn finish(&self, mut st: EngineState) -> SimReport {
        let faults_total = st.report.faults.total_injected();
        if faults_total > st.faults_seen {
            self.recorder
                .add("sim.faults_injected", faults_total - st.faults_seen);
        }
        self.recorder.flush();
        st.report.frames = st.frame;
        st.report.unserved_at_end += st.pending.len();
        st.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy;
    use o2o_core::PreferenceParams;
    use o2o_geo::BBox;
    use o2o_trace::{boston_september_2012, RequestId};

    fn tiny_trace(requests: Vec<Request>, taxis: Vec<Taxi>) -> Trace {
        Trace {
            name: "tiny".into(),
            bbox: BBox::square(Point::ORIGIN, 100.0),
            requests,
            taxis,
        }
    }

    fn req(id: u64, time: u64, s: f64, d: f64) -> Request {
        Request::new(RequestId(id), time, Point::new(s, 0.0), Point::new(d, 0.0))
    }

    #[test]
    fn single_request_served_with_subminute_delay() {
        let trace = tiny_trace(
            vec![req(0, 30, 1.0, 2.0)],
            vec![Taxi::new(TaxiId(0), Point::ORIGIN)],
        );
        let mut p = policy::near(Euclidean, PreferenceParams::default());
        let report = Simulator::new(SimConfig::default()).run(&trace, &mut p);
        assert_eq!(report.served, 1);
        assert_eq!(report.unserved_at_end, 0);
        // Arrived at t=30, dispatched at the end of frame 0 (t=60).
        assert!((report.delays_min[0] - 0.5).abs() < 1e-9);
        assert!((report.passenger_dissatisfaction[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn busy_taxi_delays_second_request() {
        // One taxi; trip takes 2 km + 1 km pickup at 20 km/h = 9 min.
        // Second request arrives at t=120 and must wait for the taxi.
        let trace = tiny_trace(
            vec![req(0, 0, 1.0, 3.0), req(1, 120, 3.5, 5.0)],
            vec![Taxi::new(TaxiId(0), Point::ORIGIN)],
        );
        let mut p = policy::near(Euclidean, PreferenceParams::default());
        let report = Simulator::new(SimConfig::default()).run(&trace, &mut p);
        assert_eq!(report.served, 2);
        // First: dispatched at t=60. Busy for (1+2) km / 20 km/h = 540 s;
        // free at 600 s → request 1 dispatched at t=600 (end of frame 9).
        // Delay = (600 − 120)/60 = 8 min.
        let d1 = report.delays_min[1];
        assert!((d1 - 8.0).abs() < 1e-9, "delay {d1}");
        // Taxi served request 1 from the previous drop-off at x=3.
        assert!((report.passenger_dissatisfaction[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn no_taxis_terminates_with_unserved() {
        let trace = tiny_trace(vec![req(0, 0, 1.0, 2.0)], vec![]);
        let mut p = policy::near(Euclidean, PreferenceParams::default());
        let cfg = SimConfig {
            drain_frames: 5,
            ..SimConfig::default()
        };
        let report = Simulator::new(cfg).run(&trace, &mut p);
        assert_eq!(report.served, 0);
        assert_eq!(report.unserved_at_end, 1);
        assert!(report.frames <= 7);
    }

    #[test]
    fn max_pending_frames_drops_requests() {
        // A taxi too far to ever be acceptable under the dummy threshold.
        let trace = tiny_trace(
            vec![req(0, 0, 0.0, 1.0)],
            vec![Taxi::new(TaxiId(0), Point::new(49.0, 0.0))],
        );
        let params = PreferenceParams::default().with_passenger_threshold(10.0);
        let mut p = policy::nstd_p(Euclidean, params);
        let cfg = SimConfig {
            max_pending_frames: Some(3),
            drain_frames: 100,
            ..SimConfig::default()
        };
        let report = Simulator::new(cfg).run(&trace, &mut p);
        assert_eq!(report.served, 0);
        assert_eq!(report.unserved_at_end, 1);
        assert!(report.frames < 20, "dropped request must end the run");
    }

    #[test]
    fn faster_taxis_reduce_delays() {
        let requests: Vec<Request> = (0..6)
            .map(|i| req(i, i * 60, (i % 3) as f64, (i % 3) as f64 + 4.0))
            .collect();
        let taxis = vec![Taxi::new(TaxiId(0), Point::ORIGIN)];
        let slow_cfg = SimConfig {
            taxi_speed_kmh: 10.0,
            ..SimConfig::default()
        };
        let fast_cfg = SimConfig {
            taxi_speed_kmh: 60.0,
            ..SimConfig::default()
        };
        let trace = tiny_trace(requests, taxis);
        let params = PreferenceParams::default();
        let mut p1 = policy::near(Euclidean, params);
        let mut p2 = policy::near(Euclidean, params);
        let slow = Simulator::new(slow_cfg).run(&trace, &mut p1);
        let fast = Simulator::new(fast_cfg).run(&trace, &mut p2);
        assert!(fast.avg_delay_min() <= slow.avg_delay_min());
    }

    #[test]
    fn sharing_policy_runs_end_to_end() {
        let trace = boston_september_2012(0.002).generate(3);
        let mut p = policy::std_p(Euclidean, PreferenceParams::default());
        let report = Simulator::new(SimConfig::default()).run(&trace, &mut p);
        assert_eq!(report.served + report.unserved_at_end, trace.requests.len());
        assert_eq!(report.policy, "STD-P");
        assert!(report.total_drive_km > 0.0);
    }

    #[test]
    fn sparse_and_dense_candidate_modes_run_identically() {
        use o2o_core::{CandidateMode, NonSharingDispatcher};
        let params = PreferenceParams::default();
        let dense = || {
            NonSharingDispatcher::new(Euclidean, params).with_candidate_mode(CandidateMode::Dense)
        };
        // The default NSTD policies are sparse and warm: each frame's
        // candidate rows come from the previous frame's stability
        // certificate and are solved by keyed deferred acceptance. Pinning
        // full runs of NSTD-P and NSTD-T against the dense reference (rank
        // tables from the engine's pick-up matrix, every frame) catches
        // any divergence the per-frame property tests could miss.
        for seed in [7, 13] {
            let trace = boston_september_2012(0.002).generate(seed);
            let sim = Simulator::new(SimConfig::default());
            let runs = [
                (
                    sim.run(&trace, &mut policy::nstd_p(Euclidean, params)),
                    sim.run(&trace, &mut policy::NstdPPolicy::from_dispatcher(dense())),
                ),
                (
                    sim.run(&trace, &mut policy::nstd_t(Euclidean, params)),
                    sim.run(&trace, &mut policy::NstdTPolicy::from_dispatcher(dense())),
                ),
            ];
            for (a, b) in &runs {
                assert_eq!(a.delays_min, b.delays_min, "{} seed {seed}", a.policy);
                assert_eq!(a.passenger_dissatisfaction, b.passenger_dissatisfaction);
                assert_eq!(a.taxi_dissatisfaction, b.taxi_dissatisfaction);
                assert_eq!(a.total_drive_km, b.total_drive_km);
                assert_eq!(a.queue_by_frame, b.queue_by_frame);
                assert_eq!(a.deterministic_digest(), b.deterministic_digest());
            }
        }
    }

    #[test]
    fn cached_policy_reports_per_frame_cache_effectiveness() {
        let trace = boston_september_2012(0.002).generate(3);
        let params = PreferenceParams::default();
        let mut wrapped = policy::cached(Euclidean, |metric| {
            policy::StdPPolicy::from_dispatcher(o2o_core::SharingDispatcher::new(metric, params))
        });
        let report = Simulator::new(SimConfig::default()).run(&trace, &mut wrapped);
        assert_eq!(
            report.cache_hits_by_frame().len(),
            report.frames as usize,
            "derived view is dense over frames"
        );
        assert_eq!(report.cache_misses_by_frame().len(), report.frames as usize);
        assert!(
            report.total_cache_misses() > 0,
            "dispatch queried the metric"
        );
        assert_eq!(
            report.cache_misses_by_frame().iter().sum::<u64>(),
            report.total_cache_misses(),
            "per-frame view sums to the run total"
        );
        // An uncached policy reports all-zero counters.
        let mut plain = policy::std_p(Euclidean, params);
        let bare = Simulator::new(SimConfig::default()).run(&trace, &mut plain);
        assert_eq!(bare.total_cache_hits() + bare.total_cache_misses(), 0);
    }

    #[test]
    fn deterministic_given_seeded_trace() {
        let trace = boston_september_2012(0.002).generate(11);
        let params = PreferenceParams::default();
        let mut p1 = policy::nstd_p(Euclidean, params);
        let mut p2 = policy::nstd_p(Euclidean, params);
        let a = Simulator::new(SimConfig::default()).run(&trace, &mut p1);
        let b = Simulator::new(SimConfig::default()).run(&trace, &mut p2);
        assert_eq!(a.delays_min, b.delays_min);
        assert_eq!(a.taxi_dissatisfaction, b.taxi_dissatisfaction);
    }

    #[test]
    #[should_panic(expected = "frame_seconds")]
    fn zero_frame_rejected() {
        let _ = Simulator::new(SimConfig {
            frame_seconds: 0,
            ..SimConfig::default()
        });
    }

    #[test]
    fn unknown_taxi_assignment_is_recovered_not_panicked() {
        let trace = tiny_trace(
            vec![req(0, 0, 1.0, 2.0)],
            vec![Taxi::new(TaxiId(0), Point::ORIGIN)],
        );
        let mut bad = policy::from_fn("bad", |ctx: &FrameContext<'_>| {
            ctx.pending
                .iter()
                .map(|r| crate::FrameAssignment {
                    taxi: TaxiId(999),
                    members: vec![r.id],
                    stops: vec![r.pickup, r.dropoff],
                    passenger_costs: vec![0.0],
                    taxi_cost: 0.0,
                })
                .collect()
        });
        let cfg = SimConfig {
            drain_frames: 2,
            ..SimConfig::default()
        };
        let report = Simulator::new(cfg).run(&trace, &mut bad);
        assert_eq!(report.served, 0);
        assert_eq!(report.unserved_at_end, 1);
        assert!(report.faults.recovered_dispatch_errors > 0);
        assert!(matches!(
            report.dispatch_errors[0],
            crate::DispatchError::UnknownTaxi {
                taxi: TaxiId(999),
                frame: 0
            }
        ));
    }

    #[test]
    fn not_pending_request_is_recovered_not_panicked() {
        let trace = tiny_trace(
            vec![req(0, 0, 1.0, 2.0)],
            vec![Taxi::new(TaxiId(0), Point::ORIGIN)],
        );
        let mut bad = policy::from_fn("bad", |ctx: &FrameContext<'_>| {
            vec![crate::FrameAssignment {
                taxi: ctx.idle_taxis[0].id,
                members: vec![RequestId(999)],
                stops: vec![Point::new(1.0, 0.0), Point::new(2.0, 0.0)],
                passenger_costs: vec![0.0],
                taxi_cost: 0.0,
            }]
        });
        let cfg = SimConfig {
            drain_frames: 2,
            ..SimConfig::default()
        };
        let report = Simulator::new(cfg).run(&trace, &mut bad);
        // The whole assignment is skipped before any state mutates: the
        // taxi stays idle and nothing is served.
        assert_eq!(report.served, 0);
        assert_eq!(report.total_drive_km, 0.0);
        assert!(report
            .dispatch_errors
            .iter()
            .all(|e| matches!(e, crate::DispatchError::RequestNotPending { .. })));
        assert!(!report.dispatch_errors.is_empty());
    }

    #[test]
    fn zero_fault_plan_is_bit_identical_to_no_plan() {
        let trace = boston_september_2012(0.002).generate(5);
        let params = PreferenceParams::default();
        let mut plain = policy::nstd_p(Euclidean, params);
        let mut faulted = policy::nstd_p(Euclidean, params);
        let a = Simulator::new(SimConfig::default()).run(&trace, &mut plain);
        let b = Simulator::new(SimConfig::default())
            .with_fault_plan(crate::FaultPlan::none(99))
            .run(&trace, &mut faulted);
        assert_eq!(a.delays_min, b.delays_min);
        assert_eq!(a.passenger_dissatisfaction, b.passenger_dissatisfaction);
        assert_eq!(a.taxi_dissatisfaction, b.taxi_dissatisfaction);
        assert_eq!(a.total_drive_km, b.total_drive_km);
        assert_eq!(a.queue_by_frame, b.queue_by_frame);
        assert_eq!(a.idle_by_frame, b.idle_by_frame);
        assert_eq!(b.faults.total_injected(), 0);
        assert!(b.dispatch_errors.is_empty() && b.degradations.is_empty());
    }

    #[test]
    fn fault_injection_recovers_and_balances_the_request_ledger() {
        let trace = boston_september_2012(0.002).generate(7);
        let params = PreferenceParams::default();
        let mut p = policy::nstd_p(Euclidean, params);
        let report = Simulator::new(SimConfig::default())
            .with_fault_plan(crate::FaultPlan::uniform(13, 0.05))
            .run(&trace, &mut p);
        // Every trace request is accounted for exactly once: served,
        // still pending at the end, or cancelled (while pending or
        // mid-dispatch). Injected duplicate/malformed records were
        // quarantined at admission and never enter the ledger.
        assert_eq!(
            trace.requests.len() as u64,
            report.served as u64
                + report.unserved_at_end as u64
                + report.faults.request_cancellations
                + report.faults.mid_dispatch_cancellations,
            "request ledger must balance under faults"
        );
        assert!(report.faults.total_injected() > 0, "faults were injected");
        assert_eq!(
            report.faults.quarantined_arrivals,
            report.faults.duplicate_records + report.faults.malformed_records,
            "every injected corrupt record is quarantined"
        );
        assert!(report.served > 0, "the run still serves passengers");
        let ratio = report.served_ratio();
        assert!((0.0..=1.0).contains(&ratio));
    }

    #[test]
    fn taxi_grid_sits_at_reported_positions_under_gps_jitter() {
        /// Checks every frame's grid against the idle slice the policy
        /// sees, then dispatches with NSTD-P.
        struct GridCheck<P> {
            inner: P,
            frames: usize,
        }
        impl<P: DispatchPolicy> DispatchPolicy for GridCheck<P> {
            fn name(&self) -> &str {
                self.inner.name()
            }
            fn dispatch(&mut self, ctx: &FrameContext<'_>) -> Vec<crate::FrameAssignment> {
                let grid = ctx.taxi_grid.expect("the policy asks for the grid");
                assert_eq!(grid.len(), ctx.idle_taxis.len());
                for (&i, location) in grid.iter() {
                    assert_eq!(location, ctx.idle_taxis[i].location);
                }
                assert_eq!(*grid, o2o_core::build_taxi_grid(ctx.idle_taxis));
                self.frames += 1;
                self.inner.dispatch(ctx)
            }
            fn wants_taxi_grid(&self) -> bool {
                true
            }
        }
        let trace = boston_september_2012(0.002).generate(7);
        let plan = crate::FaultPlan {
            gps_jitter: 0.3,
            ..crate::FaultPlan::none(5)
        };
        let mut p = GridCheck {
            inner: policy::nstd_p(Euclidean, PreferenceParams::default()),
            frames: 0,
        };
        let report = Simulator::new(SimConfig::default())
            .with_fault_plan(plan)
            .run(&trace, &mut p);
        assert!(report.faults.gps_faults > 0, "positions were jittered");
        assert!(p.frames > 0, "frames were dispatched");
    }

    #[test]
    fn fault_runs_are_deterministic_for_a_plan_seed() {
        let trace = boston_september_2012(0.002).generate(3);
        let params = PreferenceParams::default();
        let plan = crate::FaultPlan::uniform(21, 0.08);
        let mut p1 = policy::nstd_p(Euclidean, params);
        let mut p2 = policy::nstd_p(Euclidean, params);
        let a = Simulator::new(SimConfig::default())
            .with_fault_plan(plan)
            .run(&trace, &mut p1);
        let b = Simulator::new(SimConfig::default())
            .with_fault_plan(plan)
            .run(&trace, &mut p2);
        assert_eq!(a.delays_min, b.delays_min);
        assert_eq!(a.taxi_dissatisfaction, b.taxi_dissatisfaction);
        // Counters match exactly except the wall-clock recovery cost.
        let (mut fa, mut fb) = (a.faults.clone(), b.faults.clone());
        fa.recovery_ms = 0.0;
        fb.recovery_ms = 0.0;
        assert_eq!(fa, fb);
        assert_eq!(a.dispatch_errors, b.dispatch_errors);
    }

    #[test]
    fn zero_deadline_budget_degrades_every_dispatched_frame_to_greedy() {
        use o2o_core::{DispatchTier, TimeBudgetSpec};
        let trace = boston_september_2012(0.002).generate(9);
        let params = PreferenceParams::default();
        let mut p = policy::nstd_t(Euclidean, params);
        let cfg = SimConfig {
            frame_budget: TimeBudgetSpec::default().with_deadline(std::time::Duration::ZERO),
            ..SimConfig::default()
        };
        let report = Simulator::new(cfg).run(&trace, &mut p);
        assert!(
            !report.degradations.is_empty(),
            "a zero deadline must degrade"
        );
        // A zero deadline is exhausted before preference construction, so
        // every dispatched frame falls all the way to the greedy floor.
        assert_eq!(
            report.degradations_to(DispatchTier::GreedyNearest),
            report.degradations.len()
        );
        assert!(report
            .degradations
            .iter()
            .all(|e| e.degraded.from == DispatchTier::NstdT));
        assert_eq!(report.served + report.unserved_at_end, trace.requests.len());
        assert!(report.served > 0, "greedy still serves passengers");
    }

    #[test]
    fn unlimited_budget_config_is_bit_identical_to_default() {
        use o2o_core::TimeBudgetSpec;
        let trace = boston_september_2012(0.002).generate(5);
        let params = PreferenceParams::default();
        let mut p1 = policy::nstd_t(Euclidean, params);
        let mut p2 = policy::nstd_t(Euclidean, params);
        let a = Simulator::new(SimConfig::default()).run(&trace, &mut p1);
        let explicit = SimConfig {
            frame_budget: TimeBudgetSpec::default(),
            ..SimConfig::default()
        };
        let b = Simulator::new(explicit).run(&trace, &mut p2);
        assert_eq!(a.delays_min, b.delays_min);
        assert_eq!(a.taxi_dissatisfaction, b.taxi_dissatisfaction);
        assert!(a.degradations.is_empty() && b.degradations.is_empty());
    }

    #[test]
    #[should_panic(expected = "assigned taxi")]
    fn double_taxi_assignment_is_caught() {
        let trace = tiny_trace(
            vec![req(0, 0, 1.0, 2.0), req(1, 0, 2.0, 3.0)],
            vec![Taxi::new(TaxiId(0), Point::ORIGIN)],
        );
        let mut evil = policy::from_fn("evil", |ctx: &FrameContext<'_>| {
            ctx.pending
                .iter()
                .map(|r| crate::FrameAssignment {
                    taxi: ctx.idle_taxis[0].id,
                    members: vec![r.id],
                    stops: vec![r.pickup, r.dropoff],
                    passenger_costs: vec![0.0],
                    taxi_cost: 0.0,
                })
                .collect()
        });
        let _ = Simulator::new(SimConfig::default()).run(&trace, &mut evil);
    }
}
