//! Full-day dispatch benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with tracing off;
//! with `--trace 1` it gives each trace a stability, an untraced and a
//! traced run and reports the per-layer metrics of the traced ones. Either way the last line of
//! standard output is one JSON object, and the exit code is non-zero when
//! a correctness check fails. See `README.md` beside this crate.

mod alloc;
mod machine;
mod probe;
mod workload;

use o2o_core::NonSharingDispatcher;
use o2o_geo::Euclidean;
use o2o_sim::{DispatchError, SimReport};
use probe::Probe;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Input, RunFiles, Setup, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 42;

const USAGE: &str = "usage: --workload <nyc_nstd_t_day|boston_std_p_day|boston_ops_week> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds: f64 = 38.0;
        let mut traced = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?);
                }
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    traced = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if !seconds.is_finite() || seconds <= 0.0 {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            traced,
        })
    }
}

/// One named metric with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What an invocation prints as its last line.
struct Outcome {
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of `sorted`; NaN (a failed check) when empty.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The timed runs of one trace.
#[derive(Default)]
struct Timings {
    /// Wall seconds of each run call.
    run_s: Vec<f64>,
    /// `SimReport::dispatch_ms_by_frame` of each run.
    frame_ms: Vec<Vec<f64>>,
    /// Frames up to and including the last arrival's.
    arrival_frames: usize,
    /// `SimReport::deterministic_digest` of the first run.
    digest: u64,
}

impl Timings {
    /// Each frame's dispatch time, the median over this trace's runs, for
    /// the frames that ran a dispatch while requests were still arriving.
    /// The drain after the last arrival is left out: it runs only when
    /// some request is never accepted by any taxi, which depends on the
    /// seed, and its near-empty frames would shift the percentiles of the
    /// seeds that have it.
    fn frame_times(&self) -> Vec<f64> {
        let frames = self.frame_ms.iter().map(Vec::len).min().unwrap_or(0);
        (0..self.arrival_frames.min(frames))
            .map(|f| median(&self.frame_ms.iter().map(|run| run[f]).collect::<Vec<_>>()))
            .filter(|&ms| ms > 0.0)
            .collect()
    }
}

/// Frames on which the engine recovered from a dispatch error.
fn error_frames(report: &SimReport) -> u64 {
    let mut frames: Vec<u64> = report
        .dispatch_errors
        .iter()
        .map(|e| match e {
            DispatchError::UnknownTaxi { frame, .. }
            | DispatchError::RequestNotPending { frame, .. }
            | DispatchError::PrecomputeFailed { frame, .. } => *frame,
        })
        .collect();
    frames.dedup();
    frames.len() as u64
}

/// Checks every run must pass; failures are appended to `failures`.
fn check_run(report: &SimReport, input: &Input, setup: &Setup, failures: &mut Vec<String>) {
    let accounted = report.served as u64
        + report.unserved_at_end as u64
        + report.faults.request_cancellations
        + report.faults.mid_dispatch_cancellations;
    if accounted != input.rows as u64 {
        failures.push(format!(
            "request ledger does not balance: {} served + {} unserved + {} cancelled + {} \
             cancelled mid-dispatch = {accounted}, but {} rows were ingested",
            report.served,
            report.unserved_at_end,
            report.faults.request_cancellations,
            report.faults.mid_dispatch_cancellations,
            input.rows
        ));
    }
    if setup.trace.requests.len() != input.rows || setup.quarantined != 0 {
        failures.push(format!(
            "{} of {} CSV rows were quarantined",
            setup.quarantined, input.rows
        ));
    }
}

/// The seed of an invocation's `k`-th trace; trace 0 uses `seed`.
fn trace_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The workload's traces for `seed`, generated before anything is timed.
fn inputs(w: Workload, seed: u64, dir: &Path) -> Result<Vec<Input>, String> {
    (0..w.traces())
        .map(|k| {
            Input::generate(w, trace_seed(seed, k), dir).map_err(|e| format!("trace CSV: {e}"))
        })
        .collect()
}

/// Time left is enough for another step that takes about `typical` s.
fn time_for_another(started: Instant, seconds: f64, typical: &[f64]) -> bool {
    started.elapsed().as_secs_f64() + median(typical) <= seconds
}

/// Frames of `report` that ran a dispatch.
fn dispatched_frames(report: &SimReport) -> u64 {
    report
        .dispatch_ms_by_frame
        .iter()
        .filter(|&&ms| ms > 0.0)
        .count() as u64
}

/// `--trace 0`. One pass over the workload's traces comes first: before
/// the first run of each trace, [`Workload::setups_per_trace`] set-ups of
/// it are timed, the last one feeding the run. Then the traces are run
/// again in turn while `--seconds` allows. The outcome metrics and
/// `peak_heap_mb` come from the first pass, so a seed always gives the
/// same ones; the timings use every run.
///
/// `setup_s` is the fastest set-up. Set-ups of the same bytes run at two
/// speeds about 1.8x apart, each holding for seconds and following the
/// machine, not the input; a median reports the share of time the
/// machine spent at each, which moved by a quarter between two sets of
/// invocations of identical code. The fastest of many set-ups spread
/// over the invocation moves only when no set-up meets the fast speed.
fn end_to_end(args: &Args, dir: &Path, files: &RunFiles) -> Result<Outcome, String> {
    let w = args.workload;
    let inputs = inputs(w, args.seed, dir)?;
    let mut failures = Vec::new();
    let window = machine::Sample::now();
    let started = Instant::now();
    let mut setup_s = Vec::new();
    // Per trace of the first pass: peak heap MB and the four outcomes;
    // each metric is their mean.
    let mut outcomes: Vec<[f64; 5]> = Vec::new();
    let mut timings: Vec<Timings> = inputs.iter().map(|_| Timings::default()).collect();
    let mut step_s = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for r in 0.. {
        let first_pass = r < inputs.len();
        if !first_pass && !time_for_another(started, args.seconds, &step_s) {
            break;
        }
        let k = r % inputs.len();
        let input = &inputs[k];
        if first_pass {
            for _ in 1..w.setups_per_trace() {
                files.clear().map_err(|e| e.to_string())?;
                let t0 = Instant::now();
                let built = Setup::build(w, input, args.seed, files, false)?;
                setup_s.push(t0.elapsed().as_secs_f64());
                drop(built);
            }
        }
        let step = Instant::now();
        files.clear().map_err(|e| e.to_string())?;
        let live = alloc::reset_peak();
        let t0 = Instant::now();
        let (setup, mut policy) = Setup::build(w, input, args.seed, files, false)?;
        if first_pass {
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        let (mut report, run_s) = setup.run(&mut policy)?;
        let peak_mb = alloc::peak_bytes().saturating_sub(live) as f64 / 1e6;
        check_run(&report, input, &setup, &mut failures);
        attempted += dispatched_frames(&report);
        failed += error_frames(&report);
        let t = &mut timings[k];
        if first_pass {
            let frame_s = setup.sim.config().frame_seconds;
            t.arrival_frames = setup
                .trace
                .requests
                .last()
                .map_or(0, |q| q.time / frame_s + 1) as usize;
            t.digest = report.deterministic_digest();
            outcomes.push([
                peak_mb,
                report.served_ratio(),
                report.avg_delay_min(),
                report.avg_passenger_dissatisfaction(),
                -report.avg_taxi_dissatisfaction(),
            ]);
        } else if report.deterministic_digest() != t.digest {
            failures.push(format!(
                "run {r} of trace {k} has digest {:016x}, its first run {:016x}",
                report.deterministic_digest(),
                t.digest
            ));
        }
        t.run_s.push(run_s);
        t.frame_ms
            .push(std::mem::take(&mut report.dispatch_ms_by_frame));
        drop((report, setup, policy));
        step_s.push(step.elapsed().as_secs_f64());
    }
    let usage = machine::Sample::now().since(&window);

    let runs: usize = timings.iter().map(|t| t.run_s.len()).sum();
    let rows: usize = inputs.iter().map(|i| i.rows).sum();
    println!(
        "{} seed {}: {} traces, {rows} requests; {runs} runs, {} set-ups",
        w.name(),
        args.seed,
        inputs.len(),
        setup_s.len(),
    );
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut frames: Vec<f64> = timings.iter().flat_map(Timings::frame_times).collect();
    frames.sort_by(f64::total_cmp);
    println!(
        "frame samples: {} over the traces, {} beyond p99",
        frames.len(),
        frames.len() / 100
    );
    for (k, t) in timings.iter().enumerate() {
        println!(
            "trace {k}: run seconds {}; mean delay min {:.4}",
            list(&t.run_s),
            outcomes[k][2]
        );
    }
    let mut sorted_setups = setup_s.clone();
    sorted_setups.sort_by(f64::total_cmp);
    println!(
        "set-up seconds: fastest {:.4}, quartiles {:.4} {:.4} {:.4}, slowest {:.4}",
        sorted_setups[0],
        quantile(&sorted_setups, 0.25),
        quantile(&sorted_setups, 0.50),
        quantile(&sorted_setups, 0.75),
        sorted_setups[sorted_setups.len() - 1],
    );
    println!(
        "machine: cpu_s={:.3} runqueue_wait_ms={:.1} steal_ms={:.0} over {:.1} s",
        usage.cpu_s,
        usage.runqueue_wait_ms,
        usage.steal_ms,
        started.elapsed().as_secs_f64()
    );
    let busy_s: f64 = timings.iter().map(|t| median(&t.run_s)).sum();
    let mean = |i: usize| outcomes.iter().map(|o| o[i]).sum::<f64>() / outcomes.len() as f64;
    Ok(Outcome {
        failures,
        attempted,
        failed,
        metrics: vec![
            metric("setup_s", sorted_setups[0], "s"),
            metric("requests_per_s", rows as f64 / busy_s, "1/s"),
            metric("frame_p50_ms", quantile(&frames, 0.50), "ms"),
            metric("frame_p99_ms", quantile(&frames, 0.99), "ms"),
            metric("peak_heap_mb", mean(0), "MB"),
            metric("served_ratio", mean(1), "ratio"),
            metric("mean_delay_min", mean(2), "min"),
            metric("mean_passenger_dissat_km", mean(3), "km"),
            metric("mean_taxi_gain_km", mean(4), "km"),
        ],
    })
}

/// Per-layer numbers of one traced run.
struct Traced<'a> {
    setup: &'a Setup,
    report: &'a SimReport,
    probe: &'a Probe<&'a mut workload::Policy>,
    unstable_frames: u64,
    run_s: f64,
    untraced_run_s: f64,
    usage: machine::Usage,
    ckpt_bytes: u64,
    events_bytes: u64,
}

impl Traced<'_> {
    fn metrics(&self) -> Vec<Metric> {
        let report = self.report;
        let breakdown = &report.stage_breakdown;
        let stages: BTreeMap<String, f64> = breakdown.stage_totals().into_iter().collect();
        let stage = |name: &str| stages.get(name).copied().unwrap_or(0.0);
        let count = |name: &str| breakdown.counter_total(name) as f64;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let run_ms = self.run_s * 1e3;
        let ckpt_ms = self.setup.sim.recorder().counter("ckpt_machinery_us") as f64 / 1e3;
        let untraced_ms = self.untraced_run_s * 1e3;
        let (proposals, rejections) = (count("match.proposals"), count("match.rejections"));
        let (hits, misses) = (count("cache.hits"), count("cache.misses"));
        let queue = &report.queue_by_frame;
        vec![
            metric("trace.ingest_ms", self.setup.ingest_s * 1e3, "ms"),
            metric(
                "trace.rows",
                self.setup.trace.requests.len() as f64,
                "count",
            ),
            metric(
                "trace.quarantined_rows",
                self.setup.quarantined as f64,
                "count",
            ),
            metric("sim.run_ms", run_ms, "ms"),
            metric(
                "sim.engine_self_ms",
                run_ms - breakdown.total_self_ms() - ckpt_ms,
                "ms",
            ),
            metric(
                "sim.dispatched_frames",
                breakdown.frames.len() as f64,
                "count",
            ),
            metric("sim.peak_queue", f64::from(report.peak_queue()), "count"),
            metric(
                "sim.mean_pending",
                ratio(
                    queue.iter().map(|&q| f64::from(q)).sum(),
                    queue.len() as f64,
                ),
                "count",
            ),
            metric("sim.mean_idle_taxis", report.avg_idle_taxis(), "count"),
            metric(
                "policy.dispatch_ms",
                self.probe.dispatch.as_secs_f64() * 1e3,
                "ms",
            ),
            metric("policy.assignments", self.probe.assignments as f64, "count"),
            metric(
                "policy.unstable_frames",
                self.unstable_frames as f64,
                "count",
            ),
            metric("core.preference_build_ms", stage("preference_build"), "ms"),
            metric("geo.grid_build_ms", stage("grid_build"), "ms"),
            metric(
                "matching.deferred_acceptance_ms",
                stage("deferred_acceptance"),
                "ms",
            ),
            metric("matching.seed_prune_ms", stage("seed_prune"), "ms"),
            metric(
                "core.policy_dispatch_self_ms",
                stage("policy_dispatch"),
                "ms",
            ),
            metric("match.proposals", proposals, "count"),
            metric("match.rejections", rejections, "count"),
            metric(
                "match.accept_ratio",
                ratio(proposals - rejections, proposals),
                "ratio",
            ),
            metric("sharing.feasible_groups_ms", stage("feasible_groups"), "ms"),
            metric("sharing.set_packing_ms", stage("set_packing"), "ms"),
            metric("sharing.evaluate_ms", stage("sharing_evaluate"), "ms"),
            metric(
                "sharing.feasible_groups",
                count("sharing.feasible_groups"),
                "count",
            ),
            metric(
                "sharing.shared_requests",
                report.shared_requests as f64,
                "count",
            ),
            metric("cache.hits", hits, "count"),
            metric("cache.misses", misses, "count"),
            metric("cache.hit_rate", ratio(hits, hits + misses), "ratio"),
            metric("ckpt.machinery_ms", ckpt_ms, "ms"),
            metric("ckpt.last_bytes", self.ckpt_bytes as f64, "bytes"),
            metric(
                "sim.faults_injected",
                report.faults.total_injected() as f64,
                "count",
            ),
            metric(
                "sim.quarantined_arrivals",
                report.faults.quarantined_arrivals as f64,
                "count",
            ),
            metric("sim.recovery_ms", report.faults.recovery_ms, "ms"),
            metric("obs.events_bytes", self.events_bytes as f64, "bytes"),
            metric("obs.slo_events", report.slo_events.len() as f64, "count"),
            metric(
                "obs.trace_overhead_pct",
                100.0 * (run_ms - untraced_ms) / untraced_ms,
                "%",
            ),
            metric("proc.cpu_s", self.usage.cpu_s, "s"),
            metric("proc.runqueue_wait_ms", self.usage.runqueue_wait_ms, "ms"),
            metric("proc.steal_ms", self.usage.steal_ms, "ms"),
        ]
    }
}

/// `--trace 1`: for each of the workload's traces while `--seconds`
/// allows (at least one), an untimed stability run, then an untraced and a
/// traced run; report the traced runs' per-layer medians.
///
/// Only the stability run copies each frame's input: the copies would
/// otherwise cost time inside the policy's span. It runs first, so the
/// untraced and traced runs stay adjacent, and all three must agree on
/// the digest.
fn per_layer(args: &Args, dir: &Path, files: &RunFiles) -> Result<Outcome, String> {
    let w = args.workload;
    let inputs = inputs(w, args.seed, dir)?;
    let mut failures = Vec::new();
    let started = Instant::now();
    let mut trace_s = Vec::new();
    let mut runs: Vec<Vec<Metric>> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for input in &inputs {
        if !runs.is_empty() && !time_for_another(started, args.seconds, &trace_s) {
            break;
        }
        let step = Instant::now();
        let mut digests = Vec::new();
        let mut unstable_frames = 0;
        if w.is_non_sharing() {
            files.clear().map_err(|e| e.to_string())?;
            let (setup, mut policy) = Setup::build(w, input, args.seed, files, false)?;
            let mut probe = Probe::new(&mut policy, true);
            let (report, _) = setup.run(&mut probe)?;
            check_run(&report, input, &setup, &mut failures);
            digests.push(("stability", report.deterministic_digest()));
            unstable_frames =
                probe.unstable_frames(&NonSharingDispatcher::new(Euclidean, w.params()));
            if unstable_frames > 0 {
                failures.push(format!(
                    "{unstable_frames} frames returned an unstable matching"
                ));
            }
        }

        files.clear().map_err(|e| e.to_string())?;
        let (setup, mut policy) = Setup::build(w, input, args.seed, files, false)?;
        let (report, untraced_run_s) = setup.run(&mut policy)?;
        check_run(&report, input, &setup, &mut failures);
        digests.push(("untraced", report.deterministic_digest()));
        drop((report, setup, policy));

        files.clear().map_err(|e| e.to_string())?;
        let (setup, mut policy) = Setup::build(w, input, args.seed, files, true)?;
        let mut probe = Probe::new(&mut policy, false);
        let before = machine::Sample::now();
        let (report, run_s) = setup.run(&mut probe)?;
        let usage = machine::Sample::now().since(&before);
        check_run(&report, input, &setup, &mut failures);
        digests.push(("traced", report.deterministic_digest()));
        if digests.iter().any(|&(_, d)| d != digests[0].1) {
            let list: Vec<String> = digests
                .iter()
                .map(|(run, d)| format!("{run} {d:016x}"))
                .collect();
            failures.push(format!("runs of one trace differ: {}", list.join(", ")));
        }
        attempted += report.stage_breakdown.frames.len() as u64;
        failed += error_frames(&report);
        let events_bytes = if w == Workload::BostonOpsWeek {
            // The stream is complete once the run has flushed it.
            std::fs::metadata(&files.events)
                .map_err(|e| format!("event stream: {e}"))?
                .len()
        } else {
            0
        };
        let traced = Traced {
            setup: &setup,
            report: &report,
            probe: &probe,
            unstable_frames,
            run_s,
            untraced_run_s,
            usage,
            ckpt_bytes: setup.last_checkpoint_bytes()?,
            events_bytes,
        };
        if runs.is_empty() {
            let stages: Vec<String> = report
                .stage_breakdown
                .stage_totals()
                .into_iter()
                .map(|(name, _)| name)
                .collect();
            println!("stages: {}", stages.join(" "));
        }
        runs.push(traced.metrics());
        trace_s.push(step.elapsed().as_secs_f64());
    }

    println!(
        "{} seed {} traced: {} of {} traces, {:.1} s each",
        w.name(),
        args.seed,
        runs.len(),
        inputs.len(),
        median(&trace_s)
    );
    let metrics = (0..runs[0].len())
        .map(|i| {
            let values: Vec<f64> = runs.iter().map(|r| r[i].value).collect();
            metric(runs[0][i].name, median(&values), runs[0][i].unit)
        })
        .collect();
    Ok(Outcome {
        failures,
        attempted,
        failed,
        metrics,
    })
}

/// Formats `outcome` as the final JSON line.
fn json_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn measure(args: &Args, dir: &Path) -> Result<Outcome, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("work dir {}: {e}", dir.display()))?;
    let files = RunFiles::in_dir(dir);
    let mut outcome = if args.traced {
        per_layer(args, dir, &files)?
    } else {
        end_to_end(args, dir, &files)?
    };
    for m in &mut outcome.metrics {
        if !m.value.is_finite() {
            outcome.failures.push(format!("{} is not finite", m.name));
            m.value = 0.0;
        }
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Scratch files live beside this crate, inside the checkout.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".run");
    let dir = root.join(format!("{}-{}", args.workload.name(), std::process::id()));
    let result = measure(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(&root);
    match result {
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
        Ok(outcome) => {
            for m in &outcome.metrics {
                println!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
            }
            for f in &outcome.failures {
                eprintln!("check failed: {f}");
            }
            println!("{}", json_line(&outcome));
            if outcome.failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
