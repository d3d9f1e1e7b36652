//! Golden corpus of corrupted checkpoints and history segments.
//!
//! Every corruption mode a crash or bit rot can produce — truncation at
//! any byte, a flipped bit anywhere, a stale format version, an empty
//! file, foreign bytes — must surface as a typed [`CkptError`], never a
//! panic, and must never be loaded as state. When a valid older
//! checkpoint sits next to a corrupt newer one, fallback must find it.
//! The same holds for the history segment the checkpoints point into: a
//! segment cut short or corrupted falls back to the newest checkpoint
//! whose history it still holds (or a cold start), a record past the
//! newest checkpoint is cut off on resume, and a stale segment never
//! reaches a cold-started run — the resumed report's digest always
//! equals the uninterrupted run's.

use o2o_core::PreferenceParams;
use o2o_geo::Euclidean;
use o2o_sim::{
    checkpoint_files, latest_valid_checkpoint, load_checkpoint, policy, CheckpointSpec, CkptError,
    FaultPlan, RunOutcome, SimConfig, Simulator,
};
use o2o_trace::boston_september_2012;
use std::fs;
use std::path::{Path, PathBuf};

/// The checkpoint format's word-chunked FNV-1a (mirrors the loader's —
/// needed to re-seal a deliberately doctored file).
fn fnv1a64_words(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut word = |w: u64| h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        word(u64::from_le_bytes(c.try_into().unwrap()));
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        tail[7] = rest.len() as u8;
        word(u64::from_le_bytes(tail));
    }
    h
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("o2o-corpus-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Produces a directory holding at least two valid checkpoints, and
/// returns the raw bytes of the newest — the seed for every corruption.
fn golden(tag: &str) -> (PathBuf, PathBuf, Vec<u8>) {
    let dir = tmp_dir(tag);
    let trace = boston_september_2012(0.002).generate(19);
    let sim = Simulator::new(SimConfig::default());
    let mut p = policy::nstd_p(Euclidean, PreferenceParams::default());
    let spec = CheckpointSpec::new(&dir)
        .with_interval(8)
        .with_keep(4)
        .with_stop_after_frames(30);
    let out = sim.run_checkpointed(&trace, &mut p, &spec).unwrap();
    assert!(matches!(out, RunOutcome::Stopped { .. }));
    let files = checkpoint_files(&dir).unwrap();
    assert!(files.len() >= 2, "need a fallback candidate");
    let newest = files[0].clone();
    let bytes = fs::read(&newest).unwrap();
    (dir, newest, bytes)
}

#[test]
fn truncation_at_every_interesting_length_is_a_typed_error() {
    let (dir, newest, bytes) = golden("trunc");
    // A spread of cut points: empty, inside the magic, inside the
    // header, inside a section, one byte short of complete.
    let cuts = [
        0,
        2,
        7,
        16,
        bytes.len() / 4,
        bytes.len() / 2,
        bytes.len() - 9,
        bytes.len() - 1,
    ];
    for cut in cuts {
        fs::write(&newest, &bytes[..cut]).unwrap();
        let err = load_checkpoint(&newest).expect_err("corrupt file must not load");
        assert!(
            matches!(
                err,
                CkptError::Truncated | CkptError::ChecksumMismatch | CkptError::BadMagic
            ),
            "cut at {cut}: unexpected error {err}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn any_flipped_bit_is_caught_by_the_checksum() {
    let (dir, newest, bytes) = golden("bitflip");
    // Flip one bit at a spread of offsets covering header, both
    // sections and the checksum footer itself.
    let n = bytes.len();
    for offset in [4, 9, 13, 21, n / 3, n / 2, 2 * n / 3, n - 20, n - 4] {
        let mut mutated = bytes.clone();
        mutated[offset] ^= 0x10;
        fs::write(&newest, &mutated).unwrap();
        let err = load_checkpoint(&newest).expect_err("bit flip must not load");
        assert!(
            matches!(
                err,
                CkptError::ChecksumMismatch
                    | CkptError::BadMagic
                    | CkptError::Truncated
                    | CkptError::UnsupportedVersion(_)
                    | CkptError::Malformed(_)
            ),
            "flip at {offset}: unexpected error {err}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stale_format_version_is_reported_as_unsupported() {
    let (dir, newest, bytes) = golden("version");
    // Patch the version field and re-seal the checksum so the version
    // check itself (not the checksum) is what fires.
    let mut mutated = bytes[..bytes.len() - 8].to_vec();
    mutated[4..8].copy_from_slice(&99u32.to_le_bytes());
    mutated.extend_from_slice(&fnv1a64_words(&mutated).to_le_bytes());
    fs::write(&newest, &mutated).unwrap();
    let err = load_checkpoint(&newest).expect_err("future version must not load");
    assert!(
        matches!(err, CkptError::UnsupportedVersion(99)),
        "got {err}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn empty_and_foreign_files_are_rejected() {
    let (dir, newest, _bytes) = golden("foreign");
    fs::write(&newest, b"").unwrap();
    assert!(matches!(
        load_checkpoint(&newest).unwrap_err(),
        CkptError::Truncated
    ));
    fs::write(&newest, b"not a checkpoint at all, just prose\n").unwrap();
    assert!(matches!(
        load_checkpoint(&newest).unwrap_err(),
        CkptError::BadMagic
    ));
    fs::write(&newest, vec![0u8; 4096]).unwrap();
    assert!(matches!(
        load_checkpoint(&newest).unwrap_err(),
        CkptError::BadMagic
    ));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fallback_skips_every_corrupt_file_to_the_newest_valid_one() {
    let (dir, newest, bytes) = golden("fallback");
    let files = checkpoint_files(&dir).unwrap();
    let second = files[1].clone();
    let second_ckpt = load_checkpoint(&second).unwrap();

    // Corrupt the newest file: fallback lands on the second.
    fs::write(&newest, &bytes[..bytes.len() / 3]).unwrap();
    let (path, ckpt) = latest_valid_checkpoint(&dir).unwrap().expect("fallback");
    assert_eq!(path, second);
    assert_eq!(ckpt.frame(), second_ckpt.frame());

    // Corrupt every checkpoint: no valid candidate remains, and that is
    // an orderly `None`, not a panic.
    for f in checkpoint_files(&dir).unwrap() {
        fs::write(&f, b"O2OCgarbage").unwrap();
    }
    assert!(latest_valid_checkpoint(&dir).unwrap().is_none());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_stray_tmp_file_is_invisible_to_the_loader() {
    let (dir, _newest, bytes) = golden("tmp");
    // A crash between `File::create` and `rename` leaves a .tmp around;
    // it must never be considered a checkpoint candidate.
    let stray = dir.join("ckpt-999999999999.o2oc.tmp");
    fs::write(&stray, &bytes[..bytes.len() / 2]).unwrap();
    let files = checkpoint_files(&dir).unwrap();
    assert!(files.iter().all(|f| f != &stray));
    assert!(latest_valid_checkpoint(&dir).unwrap().is_some());
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// The history segment
// ---------------------------------------------------------------------

const SEGMENT: &str = "history.o2oh";
const SEGMENT_HEADER: usize = 8;

/// Byte ranges of the segment's records (mirrors the format: after the
/// 8-byte header, each record is a `u64` payload length, the payload and
/// a `u64` checksum).
fn record_spans(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut spans = Vec::new();
    let mut pos = SEGMENT_HEADER;
    while pos < bytes.len() {
        let len = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap()) as usize;
        spans.push(pos..pos + 16 + len);
        pos += 16 + len;
    }
    assert_eq!(pos, bytes.len(), "a finished segment ends on a record");
    spans
}

/// A trace with a request every 20 s from frame 0, so every record holds
/// history of its own (served requests, admitted ids, queue lengths).
fn busy_trace(seed: u64) -> o2o_trace::Trace {
    let mut trace = boston_september_2012(0.01).generate(seed);
    for (i, r) in trace.requests.iter_mut().enumerate() {
        r.time = i as u64 * 20;
    }
    trace
}

fn history_sim() -> (o2o_trace::Trace, Simulator) {
    let sim = Simulator::new(SimConfig::default()).with_fault_plan(FaultPlan::uniform(8, 0.05));
    (busy_trace(29), sim)
}

fn history_policy() -> impl o2o_sim::DispatchPolicy {
    policy::nstd_p(Euclidean, PreferenceParams::default())
}

/// A run stopped at frame 30 with checkpoints at frames 8, 16 and 24:
/// the directory, the uninterrupted run's digest and the segment's bytes.
fn golden_history(tag: &str) -> (PathBuf, u64, Vec<u8>) {
    let dir = tmp_dir(tag);
    let (trace, sim) = history_sim();
    let baseline = sim
        .run(&trace, &mut history_policy())
        .deterministic_digest();
    let out = sim
        .run_checkpointed(&trace, &mut history_policy(), &history_spec(&dir, Some(30)))
        .unwrap();
    assert!(matches!(out, RunOutcome::Stopped { frame: 30 }));
    let frames: Vec<u64> = checkpoint_files(&dir)
        .unwrap()
        .iter()
        .map(|f| load_checkpoint(f).unwrap().frame())
        .collect();
    assert_eq!(frames, [24, 16, 8]);
    let segment = fs::read(dir.join(SEGMENT)).unwrap();
    assert_eq!(record_spans(&segment).len(), 3, "one record per checkpoint");
    (dir, baseline, segment)
}

fn history_spec(dir: &Path, stop: Option<u64>) -> CheckpointSpec {
    let spec = CheckpointSpec::new(dir).with_interval(8).with_keep(4);
    match stop {
        Some(frames) => spec.with_stop_after_frames(frames),
        None => spec,
    }
}

/// Runs the scenario in `dir` to completion (resuming from whatever
/// verifies) and returns the report's digest.
fn resumed_digest(dir: &Path) -> u64 {
    let (trace, sim) = history_sim();
    sim.run_checkpointed(&trace, &mut history_policy(), &history_spec(dir, None))
        .unwrap()
        .report()
        .expect("runs to completion")
        .deterministic_digest()
}

/// Frame of the checkpoint a resume from `dir` would load.
fn resume_frame(dir: &Path) -> Option<u64> {
    latest_valid_checkpoint(dir)
        .unwrap()
        .map(|(_, c)| c.frame())
}

#[test]
fn truncated_history_falls_back_to_the_checkpoints_it_still_covers() {
    let (dir, baseline, segment) = golden_history("hist-trunc");
    let spans = record_spans(&segment);
    let newest = checkpoint_files(&dir).unwrap().remove(0);
    let mut cuts = vec![0, 3, 6, SEGMENT_HEADER];
    for s in &spans {
        cuts.extend([s.start + 4, (s.start + s.end) / 2, s.end - 1, s.end]);
    }
    for cut in cuts {
        fs::write(dir.join(SEGMENT), &segment[..cut]).unwrap();
        // Checkpoints at frames 8, 16, 24 cover records 1, 2, 3.
        let covered = spans.iter().take_while(|s| s.end <= cut).count() as u64;
        let expected = (covered > 0).then_some(8 * covered);
        assert_eq!(resume_frame(&dir), expected, "segment cut at {cut}");
        if cut < segment.len() {
            let err = load_checkpoint(&newest).expect_err("the newest claims more history");
            assert!(matches!(err, CkptError::Truncated), "cut at {cut}: {err}");
        }
        assert_eq!(
            resumed_digest(&dir),
            baseline,
            "resume after a cut at {cut}"
        );
        // Put the stopped run's directory back for the next cut.
        let _ = fs::remove_dir_all(&dir);
        let (again, _, bytes) = golden_history("hist-trunc");
        assert_eq!((&again, &bytes), (&dir, &segment));
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_flipped_bit_in_any_record_falls_back_before_it() {
    let (dir, baseline, segment) = golden_history("hist-flip");
    let spans = record_spans(&segment);
    let newest = checkpoint_files(&dir).unwrap().remove(0);
    for (i, span) in spans.iter().enumerate() {
        // In the payload, the checksum and the length prefix.
        for offset in [(span.start + span.end) / 2, span.end - 3, span.start + 1] {
            let mut mutated = segment.clone();
            mutated[offset] ^= 0x20;
            fs::write(dir.join(SEGMENT), &mutated).unwrap();
            let expected = (i > 0).then_some(8 * i as u64);
            assert_eq!(
                resume_frame(&dir),
                expected,
                "flip at {offset} (record {i})"
            );
            let err = load_checkpoint(&newest).expect_err("the newest covers the flip");
            assert!(
                matches!(
                    err,
                    CkptError::ChecksumMismatch | CkptError::Truncated | CkptError::Malformed(_)
                ),
                "flip at {offset}: {err}"
            );
        }
        if i == 1 {
            assert_eq!(
                resumed_digest(&dir),
                baseline,
                "resume past a flip in record {i}"
            );
            let _ = fs::remove_dir_all(&dir);
            golden_history("hist-flip");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn an_extra_record_past_the_newest_checkpoint_is_cut_off_on_resume() {
    // A crash between the append and the rename leaves a record no
    // checkpoint points at. Append one (a copy of the last: well-formed
    // and checksummed, but not what the resumed run writes next).
    let (dir, baseline, segment) = golden_history("hist-extra");
    let spans = record_spans(&segment);
    let mut extended = segment.clone();
    extended.extend_from_slice(&segment[spans[2].clone()]);
    fs::write(dir.join(SEGMENT), &extended).unwrap();
    assert_eq!(resume_frame(&dir), Some(24));

    // Resume past the next boundary: the checkpoint at frame 32 must
    // verify, so the stray record was cut off before the append.
    let (trace, sim) = history_sim();
    let out = sim
        .run_checkpointed(&trace, &mut history_policy(), &history_spec(&dir, Some(10)))
        .unwrap();
    assert!(matches!(out, RunOutcome::Stopped { frame: 34 }));
    assert_eq!(resume_frame(&dir), Some(32));
    assert_eq!(resumed_digest(&dir), baseline);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_foreign_or_other_version_segment_is_a_typed_error_and_a_cold_start() {
    let (dir, baseline, segment) = golden_history("hist-foreign");
    let newest = checkpoint_files(&dir).unwrap().remove(0);
    let mut other_version = segment.clone();
    other_version[4..8].copy_from_slice(&7u32.to_le_bytes());
    let mut errors = Vec::new();
    for bytes in [&other_version[..], b"not a history segment at all\n", b""] {
        fs::write(dir.join(SEGMENT), bytes).unwrap();
        errors.push(load_checkpoint(&newest).expect_err("no usable history"));
        assert_eq!(resume_frame(&dir), None);
        assert_eq!(resumed_digest(&dir), baseline);
        let _ = fs::remove_dir_all(&dir);
        golden_history("hist-foreign");
    }
    assert!(
        matches!(
            errors.as_slice(),
            [
                CkptError::UnsupportedVersion(7),
                CkptError::BadMagic,
                CkptError::Truncated
            ]
        ),
        "{errors:?}"
    );
    fs::remove_file(dir.join(SEGMENT)).unwrap();
    assert!(matches!(load_checkpoint(&newest), Err(CkptError::Io(_))));
    assert_eq!(resume_frame(&dir), None);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_stale_segment_never_reaches_a_cold_started_run() {
    // Another run's segment beside checkpoints it does not verify: the
    // resume cold-starts, and the segment must start over with it.
    let (dir, baseline, _segment) = golden_history("hist-stale");
    let other = tmp_dir("hist-stale-other");
    let trace = busy_trace(31);
    let sim = Simulator::new(SimConfig::default()).with_fault_plan(FaultPlan::uniform(9, 0.05));
    let out = sim
        .run_checkpointed(
            &trace,
            &mut history_policy(),
            &history_spec(&other, Some(40)),
        )
        .unwrap();
    assert!(matches!(out, RunOutcome::Stopped { .. }));
    fs::copy(other.join(SEGMENT), dir.join(SEGMENT)).unwrap();
    assert_eq!(resume_frame(&dir), None, "no checkpoint verifies");

    let (trace, sim) = history_sim();
    let out = sim
        .run_checkpointed(&trace, &mut history_policy(), &history_spec(&dir, Some(20)))
        .unwrap();
    assert!(matches!(out, RunOutcome::Stopped { frame: 20 }));
    assert_eq!(resume_frame(&dir), Some(16));
    assert_eq!(resumed_digest(&dir), baseline);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&other);
}
