//! Algorithm 3's outcomes pinned to recorded digests.
//!
//! Each run dispatches a small Boston day under a sharing policy and
//! compares [`SimReport::deterministic_digest`] — every result field —
//! with a constant recorded before the feasible-group and set-packing
//! stages were reworked for speed. A change to those stages that moves
//! any schedule, route or cost fails here.

use o2o_core::{PreferenceParams, SharingConfig, SharingDispatcher, TripleCandidates};
use o2o_geo::Euclidean;
use o2o_sim::policy::{self, StdPPolicy, StdTPolicy};
use o2o_sim::{DispatchPolicy, SimConfig, SimReport, Simulator};
use o2o_trace::boston_september_2012;

fn run<P: DispatchPolicy>(policy: &mut P) -> SimReport {
    let trace = boston_september_2012(0.002).generate(42);
    Simulator::new(SimConfig::default()).run(&trace, policy)
}

fn digest(report: &SimReport) -> String {
    format!("{:016x}", report.deterministic_digest())
}

#[test]
fn std_p_digest_is_pinned() {
    let report = run(&mut policy::std_p(Euclidean, PreferenceParams::default()));
    assert!(report.shared_requests > 0, "the day shares rides");
    assert_eq!(digest(&report), "d6e97d5c17fe9b02");
}

#[test]
fn std_t_digest_is_pinned() {
    let report = run(&mut policy::std_t(Euclidean, PreferenceParams::default()));
    assert_eq!(digest(&report), "d145891017fe9b02");
}

/// Every triple routed and no partner cap: the pairs a triple needs are
/// not all routed in stage 1, so their legs come from the metric.
#[test]
fn exhaustive_uncapped_digests_are_pinned() {
    let config = SharingConfig {
        triples: TripleCandidates::Exhaustive,
        max_partners_per_request: None,
        ..SharingConfig::default()
    };
    let dispatcher = SharingDispatcher::with_config(Euclidean, PreferenceParams::default(), config);
    let p = run(&mut StdPPolicy::from_dispatcher(dispatcher.clone()));
    let t = run(&mut StdTPolicy::from_dispatcher(dispatcher));
    assert_eq!(
        [digest(&p), digest(&t)],
        ["d6e97d5c17fe9b02", "d145891017fe9b02"]
    );
}
