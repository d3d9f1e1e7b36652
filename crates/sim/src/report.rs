//! Simulation results in the shapes the paper's figures use.

use crate::fault::{DegradationEvent, DispatchError, FaultCounters};
use crate::metrics::{Cdf, HourBucket};
use o2o_core::DispatchTier;
use o2o_obs::StageBreakdown;

/// A 24-value hour-of-day series of averages (the Fig. 7 x-axis).
#[derive(Debug, Clone, PartialEq)]
pub struct HourlySeries {
    /// `values[h]` = average over requests issued in hour `h`.
    pub values: [f64; 24],
}

impl HourlySeries {
    pub(crate) fn from_buckets(buckets: &[HourBucket; 24]) -> Self {
        let mut values = [0.0; 24];
        for (v, b) in values.iter_mut().zip(buckets.iter()) {
            *v = b.mean();
        }
        HourlySeries { values }
    }

    /// The *earliest* hour with the largest value.
    ///
    /// Edge cases are defined, not incidental: an empty series (every
    /// hour averaged no requests, so all values are `0.0`) returns hour
    /// `0`; ties break toward the earlier hour; `NaN` values never
    /// compare as the maximum, so a series that is all-`NaN` also
    /// returns `0`.
    #[must_use]
    pub fn peak_hour(&self) -> usize {
        let mut best = 0;
        let mut best_value = f64::NEG_INFINITY;
        for (hour, &value) in self.values.iter().enumerate() {
            if value > best_value {
                best = hour;
                best_value = value;
            }
        }
        if best_value.is_finite() {
            best
        } else {
            0
        }
    }
}

/// Everything a simulation run measured, named after the paper's metrics.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Display name of the policy that produced the run.
    pub policy: String,
    /// Name of the trace.
    pub trace: String,
    /// Number of requests that were eventually served.
    pub served: usize,
    /// Requests still waiting when the simulation ended.
    pub unserved_at_end: usize,
    /// Frames simulated.
    pub frames: u64,
    /// Per-served-request dispatch delay, minutes.
    pub delays_min: Vec<f64>,
    /// Per-served-request passenger dissatisfaction, km.
    pub passenger_dissatisfaction: Vec<f64>,
    /// Per-dispatch taxi dissatisfaction, km.
    pub taxi_dissatisfaction: Vec<f64>,
    /// Requests served in a shared ride (≥ 2 members).
    pub shared_requests: usize,
    /// Total distance driven by the fleet, km.
    pub total_drive_km: f64,
    /// Pending-queue length after each frame's dispatch (congestion
    /// diagnostic; index = frame).
    pub queue_by_frame: Vec<u32>,
    /// Idle-taxi count at each frame's dispatch (supply diagnostic).
    pub idle_by_frame: Vec<u32>,
    /// Wall-clock milliseconds each frame spent in the dispatch step
    /// (precomputation + policy; `0.0` for frames with nothing to
    /// dispatch). Index = frame. This is the paper's "computation time"
    /// axis and the signal the benchmark JSON reports.
    pub dispatch_ms_by_frame: Vec<f64>,
    /// Per-dispatched-frame stage self-times and counter deltas, as
    /// collected by the engine's [`Recorder`](o2o_obs::Recorder): one
    /// [`FrameStats`](o2o_obs::FrameStats) per frame that ran a
    /// dispatch, in frame order. Empty when the engine ran with
    /// [`Recorder::disabled`](o2o_obs::Recorder::disabled). The
    /// cache-effectiveness views
    /// ([`cache_hits_by_frame`](Self::cache_hits_by_frame) and
    /// friends) derive from the `cache.hits` / `cache.misses` counters
    /// recorded here.
    pub stage_breakdown: StageBreakdown,
    /// Injected-fault tallies and recovery bookkeeping for the run; all
    /// zero unless the simulator ran with a
    /// [`FaultPlan`](crate::FaultPlan).
    pub faults: FaultCounters,
    /// Dispatch-level failures the engine recovered from (skipping the
    /// offending assignment or frame) instead of panicking.
    pub dispatch_errors: Vec<DispatchError>,
    /// Frames whose dispatch stepped down the degradation ladder under
    /// the configured [`frame_budget`](crate::SimConfig::frame_budget).
    pub degradations: Vec<DegradationEvent>,
    /// SLO breach/recover transitions observed by the live monitor
    /// ([`Simulator::with_slo`](crate::Simulator::with_slo)), in frame
    /// order. Empty when no SLO specs were configured. Process-local
    /// telemetry like [`stage_breakdown`](Self::stage_breakdown): it is
    /// excluded from checkpoints and from the deterministic digest, and
    /// a resumed run restarts its SLO windows cold.
    pub slo_events: Vec<o2o_obs::SloEvent>,
    pub(crate) delay_by_hour: [HourBucket; 24],
    pub(crate) passenger_by_hour: [HourBucket; 24],
    pub(crate) taxi_by_hour: [HourBucket; 24],
}

impl SimReport {
    /// CDF of dispatch delays (Figs. 4(a), 5(a), 8(a), 9(a)).
    #[must_use]
    pub fn delay_cdf(&self) -> Cdf {
        Cdf::from_samples(self.delays_min.clone())
    }

    /// CDF of passenger dissatisfaction (Figs. 4(b), 5(b), 8(b), 9(b)).
    #[must_use]
    pub fn passenger_cdf(&self) -> Cdf {
        Cdf::from_samples(self.passenger_dissatisfaction.clone())
    }

    /// CDF of taxi dissatisfaction (Figs. 4(c), 5(c), 8(c), 9(c)).
    #[must_use]
    pub fn taxi_cdf(&self) -> Cdf {
        Cdf::from_samples(self.taxi_dissatisfaction.clone())
    }

    /// Average dispatch delay in minutes (Fig. 6(a)).
    #[must_use]
    pub fn avg_delay_min(&self) -> f64 {
        mean(&self.delays_min)
    }

    /// Average passenger dissatisfaction (Fig. 6(b)).
    #[must_use]
    pub fn avg_passenger_dissatisfaction(&self) -> f64 {
        mean(&self.passenger_dissatisfaction)
    }

    /// Average taxi dissatisfaction (Fig. 6(c)).
    #[must_use]
    pub fn avg_taxi_dissatisfaction(&self) -> f64 {
        mean(&self.taxi_dissatisfaction)
    }

    /// Hour-of-day series of average dispatch delay (Fig. 7(a)).
    #[must_use]
    pub fn hourly_delay(&self) -> HourlySeries {
        HourlySeries::from_buckets(&self.delay_by_hour)
    }

    /// Hour-of-day series of average passenger dissatisfaction
    /// (Fig. 7(b)).
    #[must_use]
    pub fn hourly_passenger_dissatisfaction(&self) -> HourlySeries {
        HourlySeries::from_buckets(&self.passenger_by_hour)
    }

    /// Hour-of-day series of average taxi dissatisfaction (Fig. 7(c)).
    #[must_use]
    pub fn hourly_taxi_dissatisfaction(&self) -> HourlySeries {
        HourlySeries::from_buckets(&self.taxi_by_hour)
    }

    /// The largest pending-queue length observed (0 for an empty run) —
    /// the congestion headline of a run.
    #[must_use]
    pub fn peak_queue(&self) -> u32 {
        self.queue_by_frame.iter().copied().max().unwrap_or(0)
    }

    /// Mean idle-taxi count across frames (0 for an empty run).
    #[must_use]
    pub fn avg_idle_taxis(&self) -> f64 {
        if self.idle_by_frame.is_empty() {
            0.0
        } else {
            self.idle_by_frame.iter().map(|&x| x as f64).sum::<f64>()
                / self.idle_by_frame.len() as f64
        }
    }

    /// Total wall-clock milliseconds spent dispatching across the run.
    #[must_use]
    pub fn total_dispatch_ms(&self) -> f64 {
        self.dispatch_ms_by_frame.iter().sum()
    }

    /// Mean dispatch wall-clock per frame, in milliseconds (0 for an
    /// empty run).
    #[must_use]
    pub fn avg_dispatch_ms(&self) -> f64 {
        mean(&self.dispatch_ms_by_frame)
    }

    /// The slowest frame's dispatch wall-clock, in milliseconds.
    #[must_use]
    pub fn max_dispatch_ms(&self) -> f64 {
        self.dispatch_ms_by_frame
            .iter()
            .copied()
            .fold(0.0, f64::max)
    }

    /// Per-frame increments of the named recorder counter, as a dense
    /// vector indexed by frame (`0` for frames where the counter did
    /// not move, including frames that dispatched nothing).
    #[must_use]
    pub fn counter_by_frame(&self, name: &str) -> Vec<u64> {
        let mut out = vec![0u64; self.queue_by_frame.len()];
        for fs in &self.stage_breakdown.frames {
            if let Some(slot) = out.get_mut(fs.frame as usize) {
                *slot = fs.counter(name);
            }
        }
        out
    }

    /// Distance-cache hits during each frame's dispatch (index =
    /// frame). A derived view over
    /// [`stage_breakdown`](Self::stage_breakdown): all zeros unless the
    /// policy memoizes metric queries and records the `cache.hits` /
    /// `cache.misses` counters on the frame's recorder (e.g.
    /// [`CachedPolicy`](crate::policy::CachedPolicy)).
    #[must_use]
    pub fn cache_hits_by_frame(&self) -> Vec<u64> {
        self.counter_by_frame("cache.hits")
    }

    /// Distance-cache misses during each frame's dispatch (index =
    /// frame); see [`cache_hits_by_frame`](Self::cache_hits_by_frame).
    #[must_use]
    pub fn cache_misses_by_frame(&self) -> Vec<u64> {
        self.counter_by_frame("cache.misses")
    }

    /// Distance-cache hits summed across the run (0 for uncached
    /// policies).
    #[must_use]
    pub fn total_cache_hits(&self) -> u64 {
        self.stage_breakdown.counter_total("cache.hits")
    }

    /// Distance-cache misses summed across the run (0 for uncached
    /// policies).
    #[must_use]
    pub fn total_cache_misses(&self) -> u64 {
        self.stage_breakdown.counter_total("cache.misses")
    }

    /// Fraction of metric queries answered from the distance cache across
    /// the run (0 when no queries were observed — in particular for
    /// uncached policies).
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.total_cache_hits();
        let total = hits + self.total_cache_misses();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Frames whose dispatch ran the anytime NSTD-T search (total of the
    /// `anytime.frames` counter; 0 for policies that never invoke it).
    #[must_use]
    pub fn total_anytime_frames(&self) -> u64 {
        self.stage_breakdown.counter_total("anytime.frames")
    }

    /// BreakDispatch nodes explored by the anytime NSTD-T search, summed
    /// across the run (the spend half of the anytime trade-off).
    #[must_use]
    pub fn total_anytime_nodes(&self) -> u64 {
        self.stage_breakdown.counter_total("anytime.nodes")
    }

    /// Nodes the anytime NSTD-T search explored during each frame's
    /// dispatch (index = frame; zero where the search did not run).
    #[must_use]
    pub fn anytime_nodes_by_frame(&self) -> Vec<u64> {
        self.counter_by_frame("anytime.nodes")
    }

    /// The anytime search's measured optimality gap per frame (index =
    /// frame; zero both for certified-optimal frames and for frames that
    /// never ran the search — disambiguate with
    /// [`anytime_nodes_by_frame`](Self::anytime_nodes_by_frame) or the
    /// `anytime.frames` counter).
    #[must_use]
    pub fn anytime_gap_by_frame(&self) -> Vec<u64> {
        self.counter_by_frame("anytime.gap")
    }

    /// The measured optimality gap of the **last** frame that ran the
    /// anytime NSTD-T search (`None` if no frame did): `Some(0)` means
    /// the run ended on a certified taxi-optimal schedule.
    #[must_use]
    pub fn final_anytime_gap(&self) -> Option<u64> {
        self.stage_breakdown
            .frames
            .iter()
            .rev()
            .find(|fs| fs.counter("anytime.frames") > 0)
            .map(|fs| fs.counter("anytime.gap"))
    }

    /// Fraction of the run's requests that were eventually served, out of
    /// every request that entered the system: served, still pending at
    /// the end, cancelled while pending, or cancelled mid-dispatch
    /// (0 for an empty run). The headline metric of a chaos run.
    #[must_use]
    pub fn served_ratio(&self) -> f64 {
        let total = self.served as u64
            + self.unserved_at_end as u64
            + self.faults.request_cancellations
            + self.faults.mid_dispatch_cancellations;
        if total == 0 {
            0.0
        } else {
            self.served as f64 / total as f64
        }
    }

    /// How many frames degraded *to* the given tier (e.g.
    /// [`DispatchTier::GreedyNearest`] counts the frames that fell all
    /// the way to the greedy floor).
    #[must_use]
    pub fn degradations_to(&self, tier: DispatchTier) -> usize {
        self.degradations
            .iter()
            .filter(|e| e.degraded.to == tier)
            .count()
    }

    /// Fraction of served requests that shared a taxi.
    #[must_use]
    pub fn sharing_rate(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.shared_requests as f64 / self.served as f64
        }
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2o_obs::FrameStats;

    fn cache_frame(frame: u64, hits: u64, misses: u64) -> FrameStats {
        FrameStats {
            frame,
            wall_ms: 1.0,
            stages: Vec::new(),
            counters: vec![
                ("cache.hits".to_string(), hits),
                ("cache.misses".to_string(), misses),
            ],
        }
    }

    fn report() -> SimReport {
        let mut delay_by_hour = [HourBucket::default(); 24];
        delay_by_hour[9].push(4.0);
        delay_by_hour[3].push(1.0);
        let mut stage_breakdown = StageBreakdown::new();
        stage_breakdown.push(cache_frame(0, 3, 2));
        stage_breakdown.push(cache_frame(1, 6, 1));
        SimReport {
            policy: "TEST".into(),
            trace: "toy".into(),
            served: 2,
            unserved_at_end: 1,
            frames: 10,
            delays_min: vec![1.0, 3.0],
            passenger_dissatisfaction: vec![2.0, 4.0],
            taxi_dissatisfaction: vec![-1.0, 1.0],
            shared_requests: 2,
            total_drive_km: 12.0,
            queue_by_frame: vec![3, 1, 0],
            idle_by_frame: vec![1, 2, 2],
            dispatch_ms_by_frame: vec![0.5, 1.5, 0.0],
            stage_breakdown,
            faults: FaultCounters::default(),
            dispatch_errors: Vec::new(),
            degradations: Vec::new(),
            slo_events: Vec::new(),
            delay_by_hour,
            passenger_by_hour: [HourBucket::default(); 24],
            taxi_by_hour: [HourBucket::default(); 24],
        }
    }

    #[test]
    fn averages() {
        let r = report();
        assert_eq!(r.avg_delay_min(), 2.0);
        assert_eq!(r.avg_passenger_dissatisfaction(), 3.0);
        assert_eq!(r.avg_taxi_dissatisfaction(), 0.0);
        assert_eq!(r.sharing_rate(), 1.0);
    }

    #[test]
    fn cdfs_are_built_from_samples() {
        let r = report();
        assert_eq!(r.delay_cdf().len(), 2);
        assert_eq!(r.passenger_cdf().fraction_at_most(2.0), 0.5);
        assert_eq!(r.taxi_cdf().quantile(1.0), 1.0);
    }

    #[test]
    fn hourly_series_and_peak() {
        let r = report();
        let h = r.hourly_delay();
        assert_eq!(h.values[9], 4.0);
        assert_eq!(h.values[3], 1.0);
        assert_eq!(h.values[0], 0.0);
        assert_eq!(h.peak_hour(), 9);
    }

    #[test]
    fn congestion_diagnostics() {
        let r = report();
        assert_eq!(r.peak_queue(), 3);
        assert!((r.avg_idle_taxis() - 5.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn dispatch_timing_aggregates() {
        let r = report();
        assert!((r.total_dispatch_ms() - 2.0).abs() < 1e-12);
        assert!((r.avg_dispatch_ms() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.max_dispatch_ms(), 1.5);
    }

    #[test]
    fn cache_effectiveness_aggregates() {
        let r = report();
        assert_eq!(r.total_cache_hits(), 9);
        assert_eq!(r.total_cache_misses(), 3);
        assert!((r.cache_hit_rate() - 0.75).abs() < 1e-12);
        // The per-frame views are dense over all frames, zero-filled
        // where the breakdown has no entry (frame 2 dispatched nothing).
        assert_eq!(r.cache_hits_by_frame(), vec![3, 6, 0]);
        assert_eq!(r.cache_misses_by_frame(), vec![2, 1, 0]);
    }

    #[test]
    fn counter_by_frame_ignores_out_of_range_frames() {
        let mut r = report();
        // A frame index past the queue series (e.g. a truncated report)
        // must not panic — it is simply not representable in the view.
        r.stage_breakdown.push(cache_frame(99, 5, 5));
        assert_eq!(r.cache_hits_by_frame(), vec![3, 6, 0]);
        // The run totals still see every recorded frame.
        assert_eq!(r.total_cache_hits(), 14);
    }

    #[test]
    fn anytime_aggregates_derive_from_counters() {
        let mut r = report();
        assert_eq!(r.total_anytime_frames(), 0);
        assert_eq!(r.final_anytime_gap(), None);
        r.stage_breakdown.push(FrameStats {
            frame: 1,
            wall_ms: 1.0,
            stages: Vec::new(),
            counters: vec![
                ("anytime.frames".to_string(), 1),
                ("anytime.gap".to_string(), 3),
                ("anytime.nodes".to_string(), 40),
            ],
        });
        r.stage_breakdown.push(FrameStats {
            frame: 2,
            wall_ms: 1.0,
            stages: Vec::new(),
            counters: vec![
                ("anytime.frames".to_string(), 1),
                ("anytime.nodes".to_string(), 25),
            ],
        });
        assert_eq!(r.total_anytime_frames(), 2);
        assert_eq!(r.total_anytime_nodes(), 65);
        // The last anytime frame recorded no gap delta ⇒ certified
        // optimal, not "absent".
        assert_eq!(r.final_anytime_gap(), Some(0));
        assert_eq!(r.anytime_nodes_by_frame(), vec![0, 40, 25]);
        assert_eq!(r.anytime_gap_by_frame(), vec![0, 3, 0]);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = SimReport {
            policy: "E".into(),
            trace: "e".into(),
            served: 0,
            unserved_at_end: 0,
            frames: 0,
            delays_min: vec![],
            passenger_dissatisfaction: vec![],
            taxi_dissatisfaction: vec![],
            shared_requests: 0,
            total_drive_km: 0.0,
            queue_by_frame: vec![],
            idle_by_frame: vec![],
            dispatch_ms_by_frame: vec![],
            stage_breakdown: StageBreakdown::new(),
            faults: FaultCounters::default(),
            dispatch_errors: Vec::new(),
            degradations: Vec::new(),
            slo_events: Vec::new(),
            delay_by_hour: [HourBucket::default(); 24],
            passenger_by_hour: [HourBucket::default(); 24],
            taxi_by_hour: [HourBucket::default(); 24],
        };
        assert_eq!(r.avg_delay_min(), 0.0);
        assert_eq!(r.sharing_rate(), 0.0);
        assert_eq!(r.served_ratio(), 0.0);
        assert_eq!(r.degradations_to(DispatchTier::GreedyNearest), 0);
        assert!(r.stage_breakdown.is_empty());
        assert!(r.cache_hits_by_frame().is_empty());
        assert_eq!(r.total_cache_hits(), 0);
    }

    #[test]
    fn peak_hour_edge_cases_are_defined() {
        // All-zero (no requests in any hour): hour 0, not the last tie.
        let empty = HourlySeries { values: [0.0; 24] };
        assert_eq!(empty.peak_hour(), 0);
        // Ties break toward the earlier hour.
        let mut values = [0.0; 24];
        values[5] = 2.0;
        values[17] = 2.0;
        assert_eq!(HourlySeries { values }.peak_hour(), 5);
        // NaN never wins, even against smaller finite values...
        let mut values = [1.0; 24];
        values[8] = f64::NAN;
        values[13] = 3.0;
        assert_eq!(HourlySeries { values }.peak_hour(), 13);
        // ...and an all-NaN series falls back to hour 0.
        let all_nan = HourlySeries {
            values: [f64::NAN; 24],
        };
        assert_eq!(all_nan.peak_hour(), 0);
    }

    #[test]
    fn served_ratio_counts_cancellations_in_the_denominator() {
        let mut r = report();
        // 2 served + 1 unserved = 2/3 without faults.
        assert!((r.served_ratio() - 2.0 / 3.0).abs() < 1e-12);
        r.faults.request_cancellations = 2;
        r.faults.mid_dispatch_cancellations = 1;
        // 2 served out of 6 that entered the system.
        assert!((r.served_ratio() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn degradations_to_filters_by_target_tier() {
        use crate::fault::DegradationEvent;
        use o2o_core::{DegradeReason, Degraded};
        let mut r = report();
        r.degradations = vec![
            DegradationEvent {
                frame: 1,
                degraded: Degraded {
                    from: DispatchTier::NstdT,
                    to: DispatchTier::NstdP,
                    reason: DegradeReason::DeadlineExceeded {
                        stage: "after preference construction",
                    },
                },
            },
            DegradationEvent {
                frame: 2,
                degraded: Degraded {
                    from: DispatchTier::NstdT,
                    to: DispatchTier::GreedyNearest,
                    reason: DegradeReason::DeadlineExceeded {
                        stage: "before preference construction",
                    },
                },
            },
        ];
        assert_eq!(r.degradations_to(DispatchTier::NstdP), 1);
        assert_eq!(r.degradations_to(DispatchTier::GreedyNearest), 1);
        assert_eq!(r.degradations_to(DispatchTier::FullEnumeration), 0);
    }
}
