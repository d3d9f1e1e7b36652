//! The paper's contribution: stable-marriage taxi dispatch for the O2O
//! business.
//!
//! *"Online to Offline Business: Urban Taxi Dispatching with
//! Passenger-Driver Matching Stability"* (Zheng & Wu, ICDCS 2017) dispatches
//! taxis so that no matched passenger and matched driver would prefer each
//! other over their assigned partners — with *dummy* partners allowing a
//! passenger to stay unserved (taxi too far) and a taxi to stay
//! undispatched (pay-off too low).
//!
//! | Paper artefact | Here |
//! |---|---|
//! | §IV.A interest models (`D(t,r^s)`, `D(t,r^s) − α·D(r^s,r^d)`) | [`prefs`] |
//! | Algorithm 1 (**NSTD-P**, passenger-optimal) | [`NonSharingDispatcher::dispatch`] with [`Proposing::Rows`]; [`NonSharingDispatcher::passenger_optimal`] |
//! | **NSTD-T** (taxi-optimal) | [`NonSharingDispatcher::dispatch`] with [`Proposing::Columns`]; [`NonSharingDispatcher::taxi_optimal`] |
//! | Algorithm 2 (all stable matchings, Rules 1–3) | [`NonSharingDispatcher::all_schedules`] |
//! | Company's pick among stable matchings | [`NonSharingDispatcher::company_optimal`] |
//! | §V shared-route search (Theorem 5; exhaustive ≤ 90 orders) | [`shared_route`] |
//! | Algorithm 3 (**STD-P / STD-T**, set packing + Algorithm 1) | [`SharingDispatcher`] |
//!
//! Every non-sharing frame goes through one entry point,
//! [`NonSharingDispatcher::dispatch`]: the frame's mutually acceptable
//! pairs come from a taxi grid and the previous frame's stability
//! certificate ([`IncrementalState`]) and are solved by keyed deferred
//! acceptance, under a per-frame [`TimeBudget`]. The dense
//! [`PreferenceModel`] ([`CandidateMode::Dense`]) is the reference that
//! path is tested against, and the model Algorithm 2 enumerates on.
//!
//! # Examples
//!
//! ```
//! use o2o_core::{NonSharingDispatcher, PreferenceParams};
//! use o2o_geo::{Euclidean, Point};
//! use o2o_trace::{Request, RequestId, Taxi, TaxiId};
//!
//! let taxis = vec![Taxi::new(TaxiId(0), Point::new(0.0, 0.0))];
//! let requests = vec![Request::new(
//!     RequestId(0), 0, Point::new(1.0, 0.0), Point::new(5.0, 0.0),
//! )];
//! let d = NonSharingDispatcher::new(Euclidean, PreferenceParams::default());
//! let schedule = d.passenger_optimal(&taxis, &requests);
//! assert_eq!(schedule.request_of(TaxiId(0)), Some(RequestId(0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod company;
pub mod degrade;
mod incremental;
mod nstd;
mod params;
pub mod prefs;
mod schedule;
pub mod shared_route;
mod std_sharing;

pub use company::{fare_revenue, CompanyObjective, FareModel};
pub use degrade::{DegradeReason, Degraded, DispatchTier};
pub use incremental::IncrementalState;
pub use nstd::{AnytimeOutcome, CandidateMode, NonSharingDispatcher};
pub use o2o_matching::{Proposing, TimeBudget, TimeBudgetSpec};
pub use params::PreferenceParams;
pub use prefs::{
    build_taxi_grid, candidate_radius, PickupDistances, PreferenceModel, RowCertificate,
    SparsePickupDistances,
};
pub use schedule::{DispatchOutcome, Schedule};
pub use shared_route::{RoutePlan, Stop, StopKind};
pub use std_sharing::{
    GroupAssignment, PackingObjective, SharingConfig, SharingDispatcher, SharingSchedule,
    TripleCandidates,
};
