//! Experiment harness regenerating the paper's figures.
//!
//! One binary per figure (see `src/bin/`): each builds the figure's trace,
//! runs every algorithm the figure compares, and prints the same rows or
//! series the paper plots. Criterion micro-benchmarks live in `benches/`.
//!
//! Figures are reproduced at a configurable `--scale`: the request volume
//! *and* the fleet are multiplied by the factor, preserving the
//! supply/demand ratio that drives the paper's results (absolute distance
//! magnitudes grow as density falls — see `EXPERIMENTS.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use o2o_core::{PreferenceParams, SharingDispatcher};
use o2o_geo::Euclidean;
use o2o_par::{par_run, Parallelism};
use o2o_sim::{policy, Cdf, DispatchPolicy, SimConfig, SimReport, Simulator};
use o2o_trace::Trace;

pub mod digests;
pub mod gates;
pub mod json;
pub mod regress;
pub mod supervisor;
pub use gates::{Gate, OBS_MAX_OVERHEAD_PCT, RECOVERY_OVERHEAD_MAX, REGRESS_MAX_PCT};
pub use json::{
    bench_envelope, emit_bench_json, emit_policies_json, fleet_json, policy_json, results_dir,
    stage_breakdown_json, write_bench_json, Json,
};
pub use regress::{
    compare_docs, compare_results, snapshot_baselines, CompareOptions, Delta, Direction,
};
pub use supervisor::{
    merge_shard_files, merge_shards, supervise, supervise_one, write_fleet_json, ChildSpec,
    RunStatus, RunVerdict, SupervisorPolicy,
};

/// Common command-line options of the figure binaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentOpts {
    /// Multiplier applied to both request volume and fleet size.
    pub scale: f64,
    /// Seed for the synthetic trace.
    pub seed: u64,
    /// Interest-model parameters (α, β, dummy thresholds, θ).
    pub params: PreferenceParams,
}

impl ExperimentOpts {
    /// Parses `--scale <f>`, `--seed <n>`, `--alpha <f>`, `--beta <f>`,
    /// `--taxi-threshold <f>`, `--passenger-threshold <f>` and
    /// `--theta <f>` from `std::env::args`; defaults are `default_scale`,
    /// seed 42 and [`PreferenceParams::paper`].
    ///
    /// # Panics
    ///
    /// Panics (with a usage message) on malformed arguments.
    #[must_use]
    pub fn from_args(default_scale: f64) -> Self {
        Self::from_args_with(default_scale, PreferenceParams::paper())
    }

    /// Like [`ExperimentOpts::from_args`] but with figure-specific default
    /// parameters (e.g. the NYC figures default to a wider driver
    /// threshold because NYC pick-up distances are larger — see
    /// `EXPERIMENTS.md`).
    ///
    /// # Panics
    ///
    /// Panics (with a usage message) on malformed arguments.
    #[must_use]
    pub fn from_args_with(default_scale: f64, default_params: PreferenceParams) -> Self {
        let mut opts = ExperimentOpts {
            scale: default_scale,
            seed: 42,
            params: default_params,
        };
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        let take = |i: usize, what: &str| -> f64 {
            args.get(i + 1)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("usage: {what} <number>"))
        };
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => opts.scale = take(i, "--scale"),
                "--seed" => opts.seed = take(i, "--seed") as u64,
                "--alpha" => opts.params.alpha = take(i, "--alpha"),
                "--beta" => opts.params.beta = take(i, "--beta"),
                "--taxi-threshold" => opts.params.taxi_threshold = take(i, "--taxi-threshold"),
                "--passenger-threshold" => {
                    opts.params.passenger_threshold = take(i, "--passenger-threshold");
                }
                "--theta" => opts.params.detour_threshold = take(i, "--theta"),
                other => panic!(
                    "unknown argument {other}; supported: --scale --seed --alpha --beta \
                     --taxi-threshold --passenger-threshold --theta"
                ),
            }
            i += 2;
        }
        opts.params.validate().expect("invalid parameters");
        opts
    }

    /// Scales a fleet size, keeping at least one taxi.
    #[must_use]
    pub fn scaled_taxis(&self, paper_count: usize) -> usize {
        ((paper_count as f64 * self.scale).round() as usize).max(1)
    }
}

/// The algorithms a figure compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Algorithm 1, passenger-optimal stable matching.
    NstdP,
    /// Taxi-optimal stable matching (Algorithms 1+2).
    NstdT,
    /// Greedy nearest-taxi baseline.
    Near,
    /// Minimum-cost bipartite matching baseline.
    Pair,
    /// Bottleneck matching baseline.
    Mini,
    /// Algorithm 3, passenger-optimal (sharing).
    StdP,
    /// Algorithm 3, taxi-optimal (sharing).
    StdT,
    /// Spatio-temporal-index insertion baseline (sharing).
    Raii,
    /// TSP-insertion baseline (sharing).
    Sarp,
    /// ILP-heuristic baseline (sharing).
    Lin,
}

impl PolicyKind {
    /// The paper's non-sharing line-up (Figs. 4–7).
    pub const NON_SHARING: [PolicyKind; 5] = [
        PolicyKind::NstdP,
        PolicyKind::NstdT,
        PolicyKind::Near,
        PolicyKind::Pair,
        PolicyKind::Mini,
    ];

    /// The paper's sharing line-up (Figs. 8–9).
    pub const SHARING: [PolicyKind; 5] = [
        PolicyKind::StdP,
        PolicyKind::StdT,
        PolicyKind::Raii,
        PolicyKind::Sarp,
        PolicyKind::Lin,
    ];

    /// Builds the policy over the Euclidean metric (single-threaded,
    /// uncached — the reference configuration).
    #[must_use]
    pub fn build(&self, params: PreferenceParams) -> Box<dyn DispatchPolicy + Send> {
        self.build_parallel(params, Parallelism::sequential())
    }

    /// Builds the policy with the sharing dispatchers' internal pipeline
    /// stages running on `par` threads (the other policies run
    /// sequentially). Results are bit-identical to [`PolicyKind::build`]
    /// for every thread count; only wall-clock time changes.
    #[must_use]
    pub fn build_parallel(
        &self,
        params: PreferenceParams,
        par: Parallelism,
    ) -> Box<dyn DispatchPolicy + Send> {
        use o2o_sim::policy::{StdPPolicy, StdTPolicy};
        match self {
            PolicyKind::NstdP => Box::new(policy::nstd_p(Euclidean, params)),
            PolicyKind::NstdT => Box::new(policy::nstd_t(Euclidean, params)),
            PolicyKind::Near => Box::new(policy::near(Euclidean, params)),
            PolicyKind::Pair => Box::new(policy::pair(Euclidean, params)),
            PolicyKind::Mini => Box::new(policy::mini(Euclidean, params)),
            PolicyKind::StdP => Box::new(StdPPolicy::from_dispatcher(
                SharingDispatcher::new(Euclidean, params).with_parallelism(par),
            )),
            PolicyKind::StdT => Box::new(StdTPolicy::from_dispatcher(
                SharingDispatcher::new(Euclidean, params).with_parallelism(par),
            )),
            PolicyKind::Raii => Box::new(policy::raii(Euclidean, params)),
            PolicyKind::Sarp => Box::new(policy::sarp(Euclidean, params)),
            PolicyKind::Lin => Box::new(policy::lin(Euclidean, params)),
        }
    }
}

/// Runs every policy over the trace, one job per policy on up to
/// [`Parallelism::auto`] threads. Each policy's internal stages stay
/// sequential here (the parallelism budget is spent across policies).
/// Reports come back in `kinds` order.
#[must_use]
pub fn run_policies(
    trace: &Trace,
    kinds: &[PolicyKind],
    params: PreferenceParams,
    config: SimConfig,
) -> Vec<SimReport> {
    let jobs: Vec<_> = kinds
        .iter()
        .map(|kind| {
            move || {
                let mut policy = kind.build_parallel(params, Parallelism::sequential());
                let sim = Simulator::new(config).with_parallelism(Parallelism::sequential());
                sim.run(trace, &mut policy)
            }
        })
        .collect();
    par_run(Parallelism::auto(), jobs)
}

/// Runs independent sweep points in parallel (one job per point, up to
/// [`Parallelism::auto`] threads), returning results in input order.
/// Every point is an independent computation, so the sweep's output is
/// identical to running the loop sequentially.
#[must_use]
pub fn run_sweep<T, U, F>(points: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let f = &f;
    par_run(
        Parallelism::auto(),
        points.into_iter().map(|p| move || f(p)).collect::<Vec<_>>(),
    )
}

/// Prints a CDF comparison table: one row per grid value, one column per
/// report — the textual form of the paper's CDF figures.
pub fn print_cdf_table(title: &str, unit: &str, reports: &[SimReport], cdfs: &[Cdf]) {
    assert_eq!(reports.len(), cdfs.len());
    println!("\n=== {title} ===");
    print!("{:>12}", format!("{unit}"));
    for r in reports {
        print!("{:>10}", r.policy);
    }
    println!();
    // Shared grid across policies so columns are comparable.
    let hi = cdfs.iter().map(Cdf::max).fold(0.0f64, f64::max);
    let grid: Vec<f64> = if hi <= 0.0 {
        vec![0.0]
    } else {
        (0..=12).map(|i| hi * i as f64 / 12.0).collect()
    };
    for x in grid {
        print!("{x:>12.2}");
        for cdf in cdfs {
            print!("{:>10.3}", cdf.fraction_at_most(x));
        }
        println!();
    }
}

/// Prints the three-metric summary block the figure captions describe.
pub fn print_summary(reports: &[SimReport]) {
    println!(
        "\n{:>10} {:>8} {:>9} {:>12} {:>8} {:>12} {:>10} {:>12}",
        "policy",
        "served",
        "unserved",
        "delay(min)",
        "<=1min",
        "pass-dis",
        "taxi-dis",
        "share-rate"
    );
    for r in reports {
        println!(
            "{:>10} {:>8} {:>9} {:>12.3} {:>8.3} {:>12.3} {:>10.3} {:>12.3}",
            r.policy,
            r.served,
            r.unserved_at_end,
            r.avg_delay_min(),
            r.delay_cdf().fraction_at_most(1.0),
            r.avg_passenger_dissatisfaction(),
            r.avg_taxi_dissatisfaction(),
            r.sharing_rate(),
        );
    }
}

/// Prints an hour-of-day series table (Fig. 7's shape).
pub fn print_hourly_table(title: &str, reports: &[SimReport], series: &[[f64; 24]]) {
    assert_eq!(reports.len(), series.len());
    println!("\n=== {title} ===");
    print!("{:>6}", "hour");
    for r in reports {
        print!("{:>10}", r.policy);
    }
    println!();
    for h in 0..24 {
        print!("{h:>6}");
        for s in series {
            print!("{:>10.3}", s[h]);
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2o_trace::boston_september_2012;

    #[test]
    fn scaled_taxis_keeps_minimum() {
        let o = ExperimentOpts {
            scale: 0.0001,
            seed: 1,
            params: PreferenceParams::paper(),
        };
        assert_eq!(o.scaled_taxis(700), 1);
        let o = ExperimentOpts {
            scale: 0.5,
            seed: 1,
            params: PreferenceParams::paper(),
        };
        assert_eq!(o.scaled_taxis(200), 100);
    }

    #[test]
    fn run_policies_returns_one_report_per_kind() {
        let trace = boston_september_2012(0.001).taxis(5).generate(3);
        let reports = run_policies(
            &trace,
            &[PolicyKind::Near, PolicyKind::NstdP],
            PreferenceParams::default(),
            SimConfig::default(),
        );
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].policy, "Near");
        assert_eq!(reports[1].policy, "NSTD-P");
        for r in &reports {
            assert_eq!(r.served + r.unserved_at_end, trace.requests.len());
        }
    }

    #[test]
    fn all_policy_kinds_build() {
        for k in PolicyKind::NON_SHARING.iter().chain(&PolicyKind::SHARING) {
            let _ = k.build(PreferenceParams::default());
            let _ = k.build_parallel(PreferenceParams::default(), Parallelism::fixed(3));
        }
    }

    #[test]
    fn parallel_build_matches_sequential_reports() {
        let trace = boston_september_2012(0.001).taxis(5).generate(9);
        for kind in [PolicyKind::NstdP, PolicyKind::StdP] {
            let mut seq = kind.build(PreferenceParams::default());
            let mut par = kind.build_parallel(PreferenceParams::default(), Parallelism::fixed(4));
            let sim = Simulator::new(SimConfig::default());
            let a = sim.run(&trace, &mut seq);
            let b = sim.run(&trace, &mut par);
            assert_eq!(a.delays_min, b.delays_min, "{kind:?}");
            assert_eq!(a.passenger_dissatisfaction, b.passenger_dissatisfaction);
            assert_eq!(a.taxi_dissatisfaction, b.taxi_dissatisfaction);
            assert_eq!(a.total_drive_km, b.total_drive_km);
        }
    }

    #[test]
    fn run_sweep_preserves_order() {
        let out = run_sweep((0..17).collect::<Vec<i32>>(), |x| x * x);
        assert_eq!(out, (0..17).map(|x| x * x).collect::<Vec<_>>());
    }
}
