//! Kill-and-resume bit-identity.
//!
//! A checkpointed run is killed at arbitrary frame boundaries (the
//! `stop_after_frames` crash hook — the in-process equivalent of
//! SIGKILL), mid-checkpoint-write (a torn `.tmp`/truncated newest file),
//! and by byte-level WAL corruption. Each resumed run must finish with a
//! [`SimReport`] whose `deterministic_digest` — every result field —
//! equals the uninterrupted run's, across kill points × thread counts ×
//! fault plans × warm/cold incremental modes.

use o2o_core::{IncrementalMode, PreferenceParams};
use o2o_geo::Euclidean;
use o2o_par::Parallelism;
use o2o_sim::{
    checkpoint_files, latest_valid_checkpoint, load_checkpoint, policy, wal_frames, CheckpointSpec,
    CkptError, DispatchPolicy, FaultPlan, FrameAssignment, FrameContext, RunOutcome, SimConfig,
    SimReport, Simulator,
};
use o2o_trace::{boston_september_2012, Trace};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("o2o-crash-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Runs to completion while "dying" at each frame count in `kills`.
/// Every death spawns a fresh policy (a real restarted process has no
/// warm state) and resumes from the directory.
fn run_with_kills<P: DispatchPolicy>(
    sim: &Simulator,
    trace: &Trace,
    make_policy: impl Fn() -> P,
    spec: &CheckpointSpec,
    kills: &[u64],
) -> SimReport {
    for &k in kills {
        let mut p = make_policy();
        let spec_k = spec.clone().with_stop_after_frames(k);
        match sim
            .run_checkpointed(trace, &mut p, &spec_k)
            .expect("killed run segment")
        {
            RunOutcome::Stopped { .. } => {}
            // The kill point can land past the natural end; that is a
            // legitimate sweep draw, the run just finishes early.
            RunOutcome::Completed(r) => return *r,
        }
    }
    let mut p = make_policy();
    sim.run_checkpointed(trace, &mut p, spec)
        .expect("final resumed segment")
        .report()
        .expect("runs to completion")
}

fn assert_result_identical(uninterrupted: &SimReport, resumed: &SimReport) {
    assert_eq!(
        uninterrupted.deterministic_digest(),
        resumed.deterministic_digest(),
        "resumed run must be bit-identical on result fields"
    );
    // Digest equality should mean field equality; spot-check the fields
    // directly so a digest bug cannot mask a real divergence.
    assert_eq!(uninterrupted.served, resumed.served);
    assert_eq!(uninterrupted.frames, resumed.frames);
    assert_eq!(uninterrupted.delays_min, resumed.delays_min);
    assert_eq!(
        uninterrupted.passenger_dissatisfaction,
        resumed.passenger_dissatisfaction
    );
    assert_eq!(
        uninterrupted.taxi_dissatisfaction,
        resumed.taxi_dissatisfaction
    );
    assert_eq!(uninterrupted.total_drive_km, resumed.total_drive_km);
    assert_eq!(uninterrupted.queue_by_frame, resumed.queue_by_frame);
    assert_eq!(uninterrupted.idle_by_frame, resumed.idle_by_frame);
    assert_eq!(
        uninterrupted.faults.taxi_dropouts,
        resumed.faults.taxi_dropouts
    );
    assert_eq!(
        uninterrupted.faults.request_cancellations,
        resumed.faults.request_cancellations
    );
    assert_eq!(uninterrupted.degradations.len(), resumed.degradations.len());
}

#[test]
fn single_kill_and_resume_is_bit_identical() {
    let trace = boston_september_2012(0.002).generate(11);
    let params = PreferenceParams::default();
    let sim = Simulator::new(SimConfig::default());
    let mut plain = policy::nstd_p(Euclidean, params);
    let baseline = sim.run(&trace, &mut plain);

    let dir = tmp_dir("single");
    let spec = CheckpointSpec::new(&dir).with_interval(16);
    let resumed = run_with_kills(
        &sim,
        &trace,
        || policy::nstd_p(Euclidean, params),
        &spec,
        &[40],
    );
    assert_result_identical(&baseline, &resumed);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn repeated_kills_every_few_frames_still_converge() {
    let trace = boston_september_2012(0.002).generate(23);
    let params = PreferenceParams::default();
    let sim = Simulator::new(SimConfig::default()).with_fault_plan(FaultPlan::uniform(5, 0.08));
    let mut plain = policy::nstd_p(Euclidean, params);
    let baseline = sim.run(&trace, &mut plain);

    // Die after 3 frames of progress, 40 times in a row: forward
    // progress must come from the checkpoint+WAL, not process longevity.
    let dir = tmp_dir("repeated");
    let spec = CheckpointSpec::new(&dir).with_interval(8);
    let kills: Vec<u64> = vec![3; 40];
    let resumed = run_with_kills(
        &sim,
        &trace,
        || policy::nstd_p(Euclidean, params),
        &spec,
        &kills,
    );
    assert_result_identical(&baseline, &resumed);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_checkpoint_write_falls_back_to_previous_valid() {
    let trace = boston_september_2012(0.002).generate(31);
    let params = PreferenceParams::default();
    let sim = Simulator::new(SimConfig::default());
    let mut plain = policy::nstd_p(Euclidean, params);
    let baseline = sim.run(&trace, &mut plain);

    let dir = tmp_dir("torn");
    let spec = CheckpointSpec::new(&dir).with_interval(8).with_keep(3);
    let mut p = policy::nstd_p(Euclidean, params);
    let out = sim
        .run_checkpointed(&trace, &mut p, &spec.clone().with_stop_after_frames(30))
        .unwrap();
    assert!(matches!(out, RunOutcome::Stopped { .. }));

    // Simulate a crash mid-checkpoint-write: truncate the newest file to
    // half its length. The loader must fall back to the previous one.
    let mut files = o2o_sim::checkpoint_files(&dir).unwrap();
    assert!(files.len() >= 2, "expected several retained checkpoints");
    let newest = files.remove(0);
    let bytes = fs::read(&newest).unwrap();
    fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
    let (fallback_path, fallback) = latest_valid_checkpoint(&dir).unwrap().expect("fallback");
    assert_ne!(fallback_path, newest);
    assert!(fallback.frame() < 24, "fell back to an older frame");

    let mut p = policy::nstd_p(Euclidean, params);
    let resumed = sim
        .run_checkpointed(&trace, &mut p, &spec)
        .unwrap()
        .report()
        .unwrap();
    assert_result_identical(&baseline, &resumed);
    let _ = fs::remove_dir_all(&dir);
}

/// Wraps a policy and, at the first dispatch past each checkpoint
/// boundary from `from` on, asserts that the directory holds exactly
/// `keep` checkpoints and that each of them loads.
struct RetentionCheck<P> {
    inner: P,
    dir: PathBuf,
    interval: u64,
    keep: usize,
    from: u64,
    checked: Vec<u64>,
}

impl<P: DispatchPolicy> DispatchPolicy for RetentionCheck<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn dispatch(&mut self, ctx: &FrameContext<'_>) -> Vec<FrameAssignment> {
        let boundary = ctx.frame / self.interval * self.interval;
        if boundary >= self.from && self.checked.last() != Some(&boundary) {
            assert_loadable(&self.dir, self.keep, boundary);
            self.checked.push(boundary);
        }
        self.inner.dispatch(ctx)
    }
    fn wants_pickup_distances(&self) -> bool {
        self.inner.wants_pickup_distances()
    }
    fn wants_taxi_grid(&self) -> bool {
        self.inner.wants_taxi_grid()
    }
    fn take_degradation(&mut self) -> Option<o2o_core::Degraded> {
        self.inner.take_degradation()
    }
}

fn assert_loadable(dir: &Path, keep: usize, boundary: u64) {
    let files = checkpoint_files(dir).unwrap();
    assert_eq!(
        files.len(),
        keep,
        "after the checkpoint at frame {boundary}: {files:?}"
    );
    for f in &files {
        if let Err(e) = load_checkpoint(f) {
            panic!(
                "after the checkpoint at frame {boundary}: {} fails: {e}",
                f.display()
            );
        }
    }
}

#[test]
fn fallback_resume_keeps_every_retained_checkpoint_loadable() {
    // A request every 20 s, so every frame of the first hour dispatches
    // and the retention check runs right after each boundary.
    let mut trace = boston_september_2012(0.01).generate(43);
    for (i, r) in trace.requests.iter_mut().enumerate() {
        r.time = i as u64 * 20;
    }
    let params = PreferenceParams::default();
    let sim = Simulator::new(SimConfig::default()).with_fault_plan(FaultPlan::uniform(3, 0.05));
    let mut plain = policy::nstd_p(Euclidean, params);
    let baseline = sim.run(&trace, &mut plain);

    let dir = tmp_dir("retention");
    let (interval, keep) = (8, 2);
    let spec = CheckpointSpec::new(&dir)
        .with_interval(interval)
        .with_keep(keep);
    let mut p = policy::nstd_p(Euclidean, params);
    let out = sim
        .run_checkpointed(&trace, &mut p, &spec.clone().with_stop_after_frames(30))
        .unwrap();
    assert!(matches!(out, RunOutcome::Stopped { frame: 30 }));

    // Flip a bit in the newest checkpoint: the resume falls back to the
    // one before it and rewrites the newest frame.
    let newest = checkpoint_files(&dir).unwrap().remove(0);
    assert!(newest.ends_with("ckpt-000000000024.o2oc"));
    let mut bytes = fs::read(&newest).unwrap();
    bytes[40] ^= 0x04;
    fs::write(&newest, &bytes).unwrap();
    let (_, fallback) = latest_valid_checkpoint(&dir).unwrap().expect("fallback");
    assert_eq!(fallback.frame(), 16);

    let mut p = RetentionCheck {
        inner: policy::nstd_p(Euclidean, params),
        dir: dir.clone(),
        interval,
        keep,
        from: 24,
        checked: Vec::new(),
    };
    let resumed = sim
        .run_checkpointed(&trace, &mut p, &spec)
        .unwrap()
        .report()
        .unwrap();
    assert!(
        p.checked.starts_with(&[24, 32]),
        "both boundaries checked: {:?}",
        p.checked
    );
    assert_result_identical(&baseline, &resumed);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_resumes_identically() {
    let trace = boston_september_2012(0.002).generate(37);
    let params = PreferenceParams::default();
    let sim = Simulator::new(SimConfig::default()).with_fault_plan(FaultPlan::uniform(2, 0.05));
    let mut plain = policy::nstd_p(Euclidean, params);
    let baseline = sim.run(&trace, &mut plain);

    let dir = tmp_dir("torn-wal");
    let spec = CheckpointSpec::new(&dir).with_interval(16);
    let mut p = policy::nstd_p(Euclidean, params);
    let out = sim
        .run_checkpointed(&trace, &mut p, &spec.clone().with_stop_after_frames(27))
        .unwrap();
    assert!(matches!(out, RunOutcome::Stopped { .. }));
    let walled = wal_frames(&dir).unwrap();
    assert!(!walled.is_empty(), "frames past the checkpoint are WALed");

    // Crash landed mid-append: chop 7 bytes off the WAL tail.
    let wal = dir.join("frames.o2ow");
    let bytes = fs::read(&wal).unwrap();
    fs::write(&wal, &bytes[..bytes.len() - 7]).unwrap();
    assert_eq!(wal_frames(&dir).unwrap().len(), walled.len() - 1);

    let mut p = policy::nstd_p(Euclidean, params);
    let resumed = sim
        .run_checkpointed(&trace, &mut p, &spec)
        .unwrap()
        .report()
        .unwrap();
    assert_result_identical(&baseline, &resumed);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_under_a_different_run_identity_is_refused() {
    let trace = boston_september_2012(0.002).generate(41);
    let params = PreferenceParams::default();
    let sim = Simulator::new(SimConfig::default());
    let dir = tmp_dir("mismatch");
    let spec = CheckpointSpec::new(&dir).with_interval(8);
    let mut p = policy::nstd_p(Euclidean, params);
    let out = sim
        .run_checkpointed(&trace, &mut p, &spec.clone().with_stop_after_frames(20))
        .unwrap();
    assert!(matches!(out, RunOutcome::Stopped { .. }));

    // Same directory, different policy: the fingerprint must refuse it.
    let mut other = policy::nstd_t(Euclidean, params);
    let err = sim.run_checkpointed(&trace, &mut other, &spec).unwrap_err();
    assert!(matches!(err, CkptError::Mismatch(_)), "got {err}");

    // And a different fault plan, same policy, is a different run too.
    let sim2 = Simulator::new(SimConfig::default()).with_fault_plan(FaultPlan::none(1));
    let mut p = policy::nstd_p(Euclidean, params);
    let err = sim2.run_checkpointed(&trace, &mut p, &spec).unwrap_err();
    assert!(matches!(err, CkptError::Mismatch(_)), "got {err}");
    let _ = fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The full sweep: random kill points, thread counts, fault plans,
    /// checkpoint intervals and warm/cold incremental modes. Resume is
    /// always bit-identical on result fields.
    #[test]
    fn kill_resume_sweep_is_bit_identical(
        trace_seed in 0u64..500,
        fault_seed in 0u64..500,
        rate in 0.0f64..0.2,
        threads in 1usize..4,
        interval in 1u64..24,
        cold in any::<bool>(),
        kills in proptest::collection::vec(1u64..30, 1..4usize),
        case_tag in 0u32..u32::MAX,
    ) {
        let trace = boston_september_2012(0.001).generate(trace_seed);
        let params = PreferenceParams::default();
        let mode = if cold { IncrementalMode::Cold } else { IncrementalMode::Warm };
        let make = || policy::nstd_p(Euclidean, params).with_incremental_mode(mode);
        let sim = Simulator::new(SimConfig::default())
            .with_parallelism(Parallelism::fixed(threads))
            .with_fault_plan(FaultPlan::uniform(fault_seed, rate));

        let mut plain = make();
        let baseline = sim.run(&trace, &mut plain);

        let dir = tmp_dir(&format!("sweep-{case_tag}"));
        let spec = CheckpointSpec::new(&dir).with_interval(interval);
        let resumed = run_with_kills(&sim, &trace, make, &spec, &kills);
        prop_assert_eq!(
            baseline.deterministic_digest(),
            resumed.deterministic_digest(),
            "kill/resume diverged (seed {}, kills {:?}, interval {}, cold {})",
            trace_seed, &kills, interval, cold
        );
        prop_assert_eq!(baseline.served, resumed.served);
        prop_assert_eq!(baseline.delays_min, resumed.delays_min);
        prop_assert_eq!(baseline.total_drive_km, resumed.total_drive_km);
        let _ = fs::remove_dir_all(&dir);
    }
}
