//! Crash safety: checkpoint overhead, recovery time, and supervised
//! multi-process resume.
//!
//! Three arms over the synthetic Boston trace (NSTD-P):
//!
//! * **overhead** — the same run uninterrupted vs. checkpointed at a
//!   sweep of intervals. Every checkpointed run must be bit-identical
//!   to the plain run on result fields
//!   ([`SimReport::deterministic_digest`]); at the default interval the
//!   wall-clock overhead must stay under 3% (override with
//!   `O2O_RECOVERY_OVERHEAD_MAX`, in percent — CI machines are noisy).
//! * **recovery** — the run is killed at increasing distances past the
//!   last checkpoint; resume cost is dominated by WAL replay, so
//!   recovery time is reported against WAL length, and every resumed
//!   report must match the uninterrupted digest.
//! * **supervisor** — the same scenario as real child processes (this
//!   binary re-invoked with `--run-one`), one clean and one that dies
//!   mid-run; the supervisor retries the casualty, it resumes from its
//!   checkpoint directory, and both partial shards merge into one
//!   document with equal digests.
//! * **multi-day** — seven days under a 1% [`FaultPlan::uniform`], so the
//!   admitted-id ledger and the report's series grow all week. Each
//!   checkpoint's file bytes, history-segment bytes appended and
//!   machinery time are recorded; day 7's medians must stay within 2× of
//!   day 1's (a checkpoint costs the live state, not the run's length),
//!   and the run must match the uninterrupted digest.
//!
//! Output: `results/BENCH_fig_recovery.json`.

use o2o_bench::{
    bench_envelope, emit_bench_json, merge_shard_files, supervise, ChildSpec, ExperimentOpts, Json,
    SupervisorPolicy,
};
use o2o_core::PreferenceParams;
use o2o_geo::Euclidean;
use o2o_obs::{Event, EventSink, Recorder};
use o2o_sim::{
    latest_valid_checkpoint, policy, wal_frames, CheckpointSpec, FaultPlan, RunOutcome, SimConfig,
    SimReport, Simulator,
};
use o2o_trace::{boston_september_2012, Trace};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Checkpoint cadences for the overhead arm; `DEFAULT_INTERVAL` is the
/// one the ≤3% acceptance gate applies to.
const INTERVALS: [u64; 3] = [32, 128, 512];
const DEFAULT_INTERVAL: u64 = 128;

/// Kill distances (frames of progress before the simulated SIGKILL) for
/// the recovery arm. The last one crosses the default checkpoint
/// interval, so that row exercises checkpoint-load + WAL-replay resume
/// rather than WAL-only resume.
const KILL_POINTS: [u64; 3] = [4, 48, 200];

/// The multi-day arm: days simulated, and its fault rate (the
/// `boston_ops_week` benchmark's).
const WEEK_DAYS: u32 = 7;
const WEEK_FAULT_RATE: f64 = 0.01;
/// One-minute frames per simulated day.
const FRAMES_PER_DAY: u64 = 1440;

/// Repetitions per timed run; the minimum is reported (the standard
/// scheduler-noise filter). The overhead gate compares two ~half-second
/// runs that differ by a few percent, so the minima need enough samples
/// to converge to each arm's true floor.
const REPS: usize = 9;

fn scenario(opts: &ExperimentOpts) -> (Trace, Simulator) {
    let trace = boston_september_2012(opts.scale).generate(opts.seed);
    (trace, Simulator::new(SimConfig::default()))
}

fn make_policy(params: PreferenceParams) -> impl o2o_sim::DispatchPolicy {
    policy::nstd_p(Euclidean, params)
}

/// Timer for the overhead gate: on-CPU time from `/proc/self/schedstat`
/// (nanoseconds actually spent running, immune to preemption by other
/// load on a shared machine), falling back to wall time where `/proc`
/// is unavailable. The simulator here is single-threaded and checkpoint
/// I/O goes through the page cache on the calling thread, so on-CPU
/// time captures the full cost being gated — a wall clock on a busy box
/// drifts by more than the 3% threshold between consecutive runs.
enum CpuTimer {
    Sched(f64),
    Wall(Instant),
}

fn schedstat_ms() -> Option<f64> {
    let s = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    let ns: u64 = s.split_whitespace().next()?.parse().ok()?;
    Some(ns as f64 / 1e6)
}

impl CpuTimer {
    fn start() -> Self {
        match schedstat_ms() {
            Some(ms) => CpuTimer::Sched(ms),
            None => CpuTimer::Wall(Instant::now()),
        }
    }
    fn elapsed_ms(&self) -> f64 {
        match self {
            CpuTimer::Sched(t0) => schedstat_ms().map_or(f64::INFINITY, |t| t - t0),
            CpuTimer::Wall(t0) => t0.elapsed().as_secs_f64() * 1e3,
        }
    }
}

fn timed<T>(f: impl Fn() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let v = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        out = Some(v);
    }
    (out.expect("at least one rep"), best)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("o2o-fig-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn overhead_arm(opts: &ExperimentOpts, baseline: &SimReport) -> Vec<Json> {
    let (trace, sim) = scenario(opts);
    let mut rows = Vec::new();
    for interval in INTERVALS {
        let dir = fresh_dir(&format!("overhead-{interval}"));
        let spec = CheckpointSpec::new(&dir).with_interval(interval);
        // Two views of the cost, both min-of-REPS:
        //  - `machinery_ms`: time inside checkpoint machinery (digest,
        //    WAL append, checkpoint write), measured by the run loop
        //    itself via the `ckpt_machinery_us` counter. Numerator and
        //    denominator come from the same run, so the ratio is stable
        //    on a loaded machine. The acceptance gate uses this.
        //  - `ckpt_ms` vs `base_ms`: end-to-end difference between
        //    interleaved checkpointed and plain runs (on-CPU time).
        //    Reported for context; on a shared box its run-to-run drift
        //    exceeds the few percent being measured.
        let mut base_ms = f64::INFINITY;
        let mut ckpt_ms = f64::INFINITY;
        let mut machinery_ms = f64::INFINITY;
        let mut report = None;
        for _ in 0..REPS {
            let t0 = CpuTimer::start();
            let mut p = make_policy(opts.params);
            let _ = sim.run(&trace, &mut p);
            base_ms = base_ms.min(t0.elapsed_ms());

            // Each rep starts clean: overhead is write cost, not resume.
            let _ = std::fs::remove_dir_all(&dir);
            let rsim = Simulator::new(SimConfig::default()).with_recorder(Recorder::new());
            let t0 = CpuTimer::start();
            let mut p = make_policy(opts.params);
            let r = rsim
                .run_checkpointed(&trace, &mut p, &spec)
                .expect("checkpointed run")
                .report()
                .expect("runs to completion");
            ckpt_ms = ckpt_ms.min(t0.elapsed_ms());
            machinery_ms =
                machinery_ms.min(rsim.recorder().counter("ckpt_machinery_us") as f64 / 1e3);
            report = Some(r);
        }
        let report = report.expect("at least one rep");
        assert_eq!(
            report.deterministic_digest(),
            baseline.deterministic_digest(),
            "checkpointed run (interval {interval}) must be bit-identical"
        );
        let overhead_pct = 100.0 * machinery_ms / base_ms;
        let diff_pct = 100.0 * (ckpt_ms - base_ms).max(0.0) / base_ms;
        println!(
            "{:>9} {:>12.1} {:>12.1} {:>13.2} {:>10.2} {:>9.2}",
            interval, base_ms, ckpt_ms, machinery_ms, overhead_pct, diff_pct
        );
        rows.push(Json::obj(vec![
            ("interval", interval.into()),
            ("baseline_cpu_ms", base_ms.into()),
            ("checkpointed_cpu_ms", ckpt_ms.into()),
            ("machinery_ms", machinery_ms.into()),
            ("overhead_pct", overhead_pct.into()),
            ("end_to_end_diff_pct", diff_pct.into()),
            ("digest_match", true.into()),
        ]));
        if interval == DEFAULT_INTERVAL {
            let cap = o2o_bench::RECOVERY_OVERHEAD_MAX.value();
            assert!(
                overhead_pct <= cap,
                "checkpoint overhead {overhead_pct:.2}% exceeds {cap}% at the default \
                 interval {DEFAULT_INTERVAL}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    rows
}

fn recovery_arm(opts: &ExperimentOpts, baseline: &SimReport) -> Vec<Json> {
    let (trace, sim) = scenario(opts);
    let mut rows = Vec::new();
    for kill_after in KILL_POINTS {
        let dir = fresh_dir(&format!("recovery-{kill_after}"));
        let spec = CheckpointSpec::new(&dir).with_interval(DEFAULT_INTERVAL);
        let mut p = make_policy(opts.params);
        let out = sim
            .run_checkpointed(
                &trace,
                &mut p,
                &spec.clone().with_stop_after_frames(kill_after),
            )
            .expect("killed segment");
        assert!(matches!(out, RunOutcome::Stopped { .. }));
        let ckpt_frame = latest_valid_checkpoint(&dir)
            .expect("dir readable")
            .map_or(0, |(_, c)| c.frame());
        let wal_len = wal_frames(&dir).expect("wal readable").len();

        // Time the whole resumed segment, and separately the replay
        // portion (a resume that stops at the dead process's frontier).
        let (_, replay_ms) = timed(|| {
            let mut p = make_policy(opts.params);
            sim.run_checkpointed(
                &trace,
                &mut p,
                &spec.clone().with_stop_after_frames(wal_len as u64),
            )
            .expect("replay segment")
        });
        let mut p = make_policy(opts.params);
        let resumed = sim
            .run_checkpointed(&trace, &mut p, &spec)
            .expect("resumed segment")
            .report()
            .expect("runs to completion");
        assert_eq!(
            resumed.deterministic_digest(),
            baseline.deterministic_digest(),
            "resume after kill at {kill_after} must be bit-identical"
        );
        println!(
            "{:>10} {:>11} {:>10} {:>12.1}",
            kill_after, ckpt_frame, wal_len, replay_ms
        );
        rows.push(Json::obj(vec![
            ("kill_after_frames", kill_after.into()),
            ("checkpoint_frame", ckpt_frame.into()),
            ("wal_frames_replayed", wal_len.into()),
            ("replay_ms", replay_ms.into()),
            ("digest_match", true.into()),
        ]));
        let _ = std::fs::remove_dir_all(&dir);
    }
    rows
}

fn supervisor_arm(opts: &ExperimentOpts, baseline: &SimReport) -> (Vec<Json>, Vec<Json>) {
    let exe = std::env::current_exe().expect("own path");
    let work = fresh_dir("supervised");
    std::fs::create_dir_all(&work).expect("workdir");
    let shard = |name: &str| work.join(format!("BENCH_fig_recovery.part-{name}.json"));
    let common = |name: &str, extra: &[String]| {
        let mut args = vec![
            "--run-one".to_string(),
            "--ckpt-dir".to_string(),
            work.join(format!("ckpt-{name}")).display().to_string(),
            "--out".to_string(),
            shard(name).display().to_string(),
            "--scale".to_string(),
            opts.scale.to_string(),
            "--seed".to_string(),
            opts.seed.to_string(),
        ];
        args.extend_from_slice(extra);
        ChildSpec {
            name: name.to_string(),
            program: exe.clone(),
            args,
        }
    };
    let specs = [
        common("clean", &[]),
        // This child SIGKILL-equivalently dies 12 frames in on its first
        // (cold) attempt; the retry resumes from its checkpoint dir.
        common("flaky", &["--kill-after".to_string(), "12".to_string()]),
    ];
    let statuses = supervise(
        &specs,
        &SupervisorPolicy {
            timeout: Duration::from_secs(600),
            max_attempts: 3,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(1),
        },
    );
    for s in &statuses {
        println!("  {s}");
        assert!(s.succeeded(), "supervised scenario failed: {s}");
    }
    let flaky_retried = statuses.iter().any(|s| s.attempts > 1);
    assert!(flaky_retried, "the flaky child should have needed a retry");

    let merged =
        merge_shard_files(&[shard("clean"), shard("flaky")]).expect("shards parse and merge");
    let rows = merged.get("rows").and_then(Json::as_arr).expect("rows");
    assert_eq!(rows.len(), 2, "one row per child");
    let digest = |row: &Json| {
        row.get("deterministic_digest")
            .and_then(Json::as_str)
            .expect("digest field")
            .to_string()
    };
    let expected = format!("{:016x}", baseline.deterministic_digest());
    for row in rows {
        assert_eq!(
            digest(row),
            expected,
            "child process result must match the in-process baseline"
        );
    }
    let status_rows = statuses
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("name", s.name.as_str().into()),
                ("attempts", s.attempts.into()),
                ("timeouts", s.timeouts.into()),
                ("succeeded", s.succeeded().into()),
            ])
        })
        .collect();
    let merged_rows = rows.to_vec();
    let _ = std::fs::remove_dir_all(&work);
    (status_rows, merged_rows)
}

/// Keeps the per-checkpoint counters the run loop records, in order.
struct CheckpointLog(Arc<Mutex<Vec<(&'static str, u64)>>>);

impl EventSink for CheckpointLog {
    fn record(&mut self, event: &Event) {
        if let Event::Counter { name, delta, .. } = event {
            if name.starts_with("ckpt.") {
                self.0.lock().expect("log lock").push((name, *delta));
            }
        }
    }
}

/// One checkpoint of the multi-day arm: its file's bytes, the history
/// bytes appended with it, and the checkpoint write's machinery time
/// (history record, checkpoint file, prune, WAL reset).
struct CheckpointRow {
    day: u64,
    frame: u64,
    file_bytes: u64,
    segment_bytes: u64,
    machinery_ms: f64,
}

impl CheckpointRow {
    const MEASURES: [&'static str; 3] = ["file_bytes", "segment_bytes", "machinery_ms"];

    fn measures(&self) -> [f64; 3] {
        [
            self.file_bytes as f64,
            self.segment_bytes as f64,
            self.machinery_ms,
        ]
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn multi_day_arm(opts: &ExperimentOpts) -> Vec<Json> {
    let trace = boston_september_2012(opts.scale)
        .days(WEEK_DAYS)
        .generate(opts.seed);
    let plan = FaultPlan::uniform(opts.seed, WEEK_FAULT_RATE);
    let sim = Simulator::new(SimConfig::default()).with_fault_plan(plan);
    let baseline = sim.run(&trace, &mut make_policy(opts.params));

    let log = Arc::new(Mutex::new(Vec::new()));
    let sim = sim.with_recorder(Recorder::with_sink(Box::new(CheckpointLog(Arc::clone(
        &log,
    )))));
    let dir = fresh_dir("multi-day");
    let spec = CheckpointSpec::new(&dir).with_interval(DEFAULT_INTERVAL);
    let report = sim
        .run_checkpointed(&trace, &mut make_policy(opts.params), &spec)
        .expect("checkpointed week")
        .report()
        .expect("runs to completion");
    assert_eq!(
        report.deterministic_digest(),
        baseline.deterministic_digest(),
        "the checkpointed week must be bit-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);

    let log = log.lock().expect("log lock");
    let series = |name: &str| -> Vec<u64> {
        log.iter()
            .filter(|&&(n, _)| n == name)
            .map(|&(_, v)| v)
            .collect()
    };
    let file_bytes = series("ckpt.file_bytes");
    let segment_bytes = series("ckpt.segment_bytes");
    let write_ns = series("ckpt.write_ns");
    assert!(!file_bytes.is_empty(), "the week wrote checkpoints");
    assert!(file_bytes.len() == segment_bytes.len() && file_bytes.len() == write_ns.len());

    let rows: Vec<CheckpointRow> = (0..file_bytes.len())
        .map(|i| {
            let frame = (i as u64 + 1) * DEFAULT_INTERVAL;
            CheckpointRow {
                day: frame / FRAMES_PER_DAY + 1,
                frame,
                file_bytes: file_bytes[i],
                segment_bytes: segment_bytes[i],
                machinery_ms: write_ns[i] as f64 / 1e6,
            }
        })
        .collect();
    // Per-day medians of each measure; the drain past the last day does
    // not count.
    for (k, name) in CheckpointRow::MEASURES.iter().enumerate() {
        let day_median = |day: u64| {
            median(
                rows.iter()
                    .filter(|r| r.day == day)
                    .map(|r| r.measures()[k])
                    .collect(),
            )
        };
        let (first, last) = (day_median(1), day_median(u64::from(WEEK_DAYS)));
        println!("{name:>14}: day 1 median {first:>12.4}, day {WEEK_DAYS} median {last:>12.4}");
        assert!(
            last <= 2.0 * first,
            "per-checkpoint {name} grew from {first} on day 1 to {last} on day {WEEK_DAYS}"
        );
    }
    rows.iter()
        .map(|r| {
            Json::obj(vec![
                ("day", r.day.into()),
                ("frame", r.frame.into()),
                ("file_bytes", r.file_bytes.into()),
                ("segment_bytes", r.segment_bytes.into()),
                ("machinery_ms", r.machinery_ms.into()),
            ])
        })
        .collect()
}

/// Child mode: run the scenario once with checkpointing and write a
/// partial shard. `--kill-after N` simulates a SIGKILL N frames in, but
/// only on a cold start (no checkpoint and no WAL progress — a crash
/// before the first checkpoint leaves its trail only in the WAL) — the
/// supervised retry must actually finish.
fn run_one(args: &[String]) -> i32 {
    let mut ckpt_dir = None;
    let mut out = None;
    let mut kill_after = None;
    let mut scale = 1.0f64;
    let mut seed = 42u64;
    let mut i = 0;
    while i < args.len() {
        let value = || {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--ckpt-dir" => ckpt_dir = Some(PathBuf::from(value())),
            "--out" => out = Some(PathBuf::from(value())),
            "--kill-after" => kill_after = value().parse().ok(),
            "--scale" => scale = value().parse().expect("--scale <f>"),
            "--seed" => seed = value().parse().expect("--seed <n>"),
            other => panic!("unknown --run-one argument {other}"),
        }
        i += 2;
    }
    let ckpt_dir = ckpt_dir.expect("--ckpt-dir is required");
    let out = out.expect("--out is required");
    let opts = ExperimentOpts {
        scale,
        seed,
        params: PreferenceParams::default(),
    };
    let (trace, sim) = scenario(&opts);
    let mut spec = CheckpointSpec::new(&ckpt_dir).with_interval(DEFAULT_INTERVAL);
    let cold = latest_valid_checkpoint(&ckpt_dir).ok().flatten().is_none()
        && wal_frames(&ckpt_dir).map_or(true, |w| w.is_empty());
    if cold {
        if let Some(k) = kill_after {
            spec = spec.with_stop_after_frames(k);
        }
    }
    let mut p = make_policy(opts.params);
    match sim
        .run_checkpointed(&trace, &mut p, &spec)
        .expect("checkpointed run")
    {
        RunOutcome::Stopped { frame } => {
            eprintln!("fig_recovery child: injected crash at frame {frame}");
            17
        }
        RunOutcome::Completed(report) => {
            let shard = Json::obj(vec![
                ("bench", "fig_recovery".into()),
                ("scale", scale.into()),
                ("seed", seed.into()),
                (
                    "rows",
                    Json::Arr(vec![Json::obj(vec![
                        ("policy", report.policy.as_str().into()),
                        ("served", report.served.into()),
                        ("frames", report.frames.into()),
                        (
                            "deterministic_digest",
                            format!("{:016x}", report.deterministic_digest()).into(),
                        ),
                    ])]),
                ),
            ]);
            std::fs::write(&out, format!("{shard}\n")).expect("write shard");
            0
        }
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().is_some_and(|a| a == "--run-one") {
        std::process::exit(run_one(&raw[1..]));
    }
    let opts = ExperimentOpts::from_args(1.0);
    let (trace, sim) = scenario(&opts);
    println!(
        "fig_recovery: {} requests, {} taxis",
        trace.requests.len(),
        trace.taxis.len()
    );

    let mut p = make_policy(opts.params);
    let baseline = sim.run(&trace, &mut p);

    println!("\n=== checkpoint overhead vs interval ===");
    println!(
        "{:>9} {:>12} {:>12} {:>13} {:>10} {:>9}",
        "interval", "base_cpu_ms", "ckpt_cpu_ms", "machinery_ms", "overhead%", "e2e_diff%"
    );
    let overhead_rows = overhead_arm(&opts, &baseline);

    println!("\n=== recovery time vs WAL length ===");
    println!(
        "{:>10} {:>11} {:>10} {:>12}",
        "kill_after", "ckpt_frame", "wal_len", "replay_ms"
    );
    let recovery_rows = recovery_arm(&opts, &baseline);

    println!("\n=== supervised multi-process resume ===");
    let (status_rows, merged_rows) = supervisor_arm(&opts, &baseline);

    println!("\n=== {WEEK_DAYS} days under faults: per-checkpoint cost ===");
    let multi_day_rows = multi_day_arm(&opts);

    let body = vec![
        ("overhead", Json::Arr(overhead_rows)),
        ("recovery", Json::Arr(recovery_rows)),
        ("supervised_statuses", Json::Arr(status_rows)),
        ("supervised_rows", Json::Arr(merged_rows)),
        ("multi_day", Json::Arr(multi_day_rows)),
        (
            "baseline_digest",
            format!("{:016x}", baseline.deterministic_digest()).into(),
        ),
    ];
    emit_bench_json("fig_recovery", &bench_envelope("fig_recovery", &opts, body));
    println!("\nfig_recovery: all digests matched; resume == uninterrupted");
}
