//! Discrete-frame city simulator for taxi dispatch policies.
//!
//! Reproduces the paper's experimental machinery (§VI.A): "taxis are
//! scheduled based on a one minute time frame" at 20 km/h. Each frame the
//! engine admits newly-arrived requests into the pending queue, collects
//! the idle fleet, asks a [`DispatchPolicy`] for assignments, and advances
//! taxis along their routes (a dispatched taxi is busy until it finishes
//! its route, then idles at the final drop-off).
//!
//! Collected metrics are exactly the paper's three:
//!
//! * **dispatch delay** — request sent → taxi dispatched, in minutes,
//! * **passenger dissatisfaction** — `D(t, r^s)` (non-sharing) or
//!   `D_ck(t, r^s) + β·detour` (sharing), in km,
//! * **taxi dissatisfaction** — `D(t, r^s) − α·D(r^s, r^d)` resp.
//!   `D_ck(t) − (α+1)·ΣD`, in km.
//!
//! [`SimReport`] renders them as CDFs (Figs. 4, 5, 8, 9), averages
//! (Fig. 6) and hour-of-day series (Fig. 7).
//!
//! The engine is fault-tolerant: an optional seeded [`FaultPlan`]
//! injects operational churn (taxi dropouts, passenger cancellations,
//! GPS jitter, duplicate and malformed records) that the engine recovers
//! from and tallies in [`FaultCounters`], and a finite
//! [`SimConfig::frame_budget`] makes budget-aware policies step down a
//! degradation ladder (NSTD-T → NSTD-P → greedy-nearest) instead of
//! overrunning their frame, each step recorded as a
//! [`DegradationEvent`].
//!
//! The engine is also observable: each dispatched frame is bracketed by
//! a [`Recorder`] frame window, pipeline stages record spans and
//! counters through it (see `o2o_obs`), and the per-frame stage
//! self-times and counter deltas land in
//! [`SimReport::stage_breakdown`]. The default recorder collects in
//! memory only; [`Simulator::with_recorder`] accepts a sink-bearing one
//! (e.g. JSONL event log) or [`Recorder::disabled`] — dispatch results
//! are bit-identical in every configuration.
//!
//! # Examples
//!
//! ```
//! use o2o_sim::{policy, SimConfig, Simulator};
//! use o2o_core::PreferenceParams;
//! use o2o_geo::Euclidean;
//! use o2o_trace::boston_september_2012;
//!
//! let trace = boston_september_2012(0.001).generate(7);
//! let mut policy = policy::nstd_p(Euclidean, PreferenceParams::default());
//! let report = Simulator::new(SimConfig::default()).run(&trace, &mut policy);
//! assert!(report.served + report.unserved_at_end == trace.requests.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ckpt;
mod engine;
mod fault;
mod metrics;
pub mod policy;
mod report;

pub use ckpt::{
    checkpoint_files, latest_valid_checkpoint, load_checkpoint, wal_frames, Checkpoint,
    CheckpointSpec, CkptError, RunOutcome,
};
pub use engine::{SimConfig, Simulator};
pub use fault::{DegradationEvent, DispatchError, FaultCounters, FaultPlan};
pub use metrics::Cdf;
pub use o2o_obs::{
    FleetMeta, FrameStats, JsonlSink, MemorySink, Recorder, SloBound, SloEvent, SloMetric,
    SloMonitor, SloSpec, StageBreakdown, SummarySink,
};
pub use policy::{cached, CachedPolicy, DispatchPolicy, FrameAssignment, FrameContext};
pub use report::{HourlySeries, SimReport};
