//! Crash-safe checkpointing and write-ahead logging for simulation runs.
//!
//! A long run can be killed at any instant — frame boundary, mid-write,
//! or by the power cord — and resumed to a **bit-identical**
//! [`SimReport`] (modulo wall-clock telemetry; see
//! [`SimReport::deterministic_digest`]). The design has three parts:
//!
//! 1. **Checkpoints** (`ckpt-<frame>.o2oc`): a versioned, self-describing
//!    snapshot of the full [`EngineState`] at a frame boundary — RNG
//!    state, fleet, pending/served ledger, fault cursors, degradation
//!    history and report accumulators. The format is hand-rolled
//!    little-endian sections (`tag`/`len`/payload) guarded by an FNV-1a
//!    checksum; no serde in this offline workspace. Writes go to a temp
//!    file, are optionally fsynced, then renamed into place, so a
//!    half-written checkpoint can never shadow a valid one. The loader
//!    detects torn or corrupt files ([`CkptError`], never a panic) and
//!    [`latest_valid_checkpoint`] falls back to the newest file that
//!    still verifies.
//! 2. **Frame WAL** (`frames.o2ow`): an append-only record per executed
//!    frame — `(frame, state digest, checksum)` — reset at every
//!    checkpoint. Resume = load-latest-valid + deterministically
//!    re-execute the WAL's frames, verifying each replayed frame's
//!    digest against what the dead process recorded
//!    ([`CkptError::ReplayDivergence`] on mismatch). A torn final record
//!    (the crash landed mid-append) is ignored; records at or before the
//!    checkpoint frame are skipped as stale.
//! 3. **The bit-identity argument.** Only [`EngineState`] survives a
//!    frame boundary; per-frame scratch is rebuilt from the trace, and
//!    policy warm state is deterministically rebuilt because the
//!    policies guarantee warm==cold results. A resumed run therefore
//!    replays the exact dispatch sequence. The *telemetry* differs —
//!    a cold-restarted policy re-misses its caches and wall-clock
//!    timings are machine noise — which is exactly the set of fields
//!    [`SimReport::deterministic_digest`] excludes.

use crate::engine::{EngineState, Simulator, TaxiState};
use crate::fault::{DegradationEvent, DispatchError, FaultCounters, FaultPlan, FaultState};
use crate::metrics::HourBucket;
use crate::policy::DispatchPolicy;
use crate::report::SimReport;
use o2o_core::{DegradeReason, Degraded, DispatchTier};
use o2o_geo::{Euclidean, Metric, Point};
use o2o_obs::StageBreakdown;
use o2o_trace::{Request, RequestId, Taxi, TaxiId, Trace};
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

const CKPT_MAGIC: [u8; 4] = *b"O2OC";
const WAL_MAGIC: [u8; 4] = *b"O2OW";
const CKPT_VERSION: u32 = 2;
const WAL_VERSION: u32 = 1;
const SEC_META: u32 = 1;
const SEC_STATE: u32 = 2;
/// Bytes per WAL record: frame, digest, record checksum.
const WAL_RECORD: usize = 24;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a checkpoint or WAL could not be used. Corruption is always a
/// typed error, never a panic, so callers can fall back to an older
/// checkpoint or a cold start.
#[derive(Debug)]
pub enum CkptError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file's format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The file is shorter than its own framing claims (torn write).
    Truncated,
    /// The whole-file checksum does not match (bit rot or torn write).
    ChecksumMismatch,
    /// A section decoded to something structurally impossible.
    Malformed(String),
    /// The checkpoint belongs to a different run (trace, policy, config
    /// or fault plan changed).
    Mismatch(String),
    /// A WAL-replayed frame did not reproduce the digest the original
    /// process recorded — the resume would not be bit-identical.
    ReplayDivergence {
        /// The frame whose replay diverged.
        frame: u64,
        /// Digest the WAL recorded.
        expected: u64,
        /// Digest the replay produced.
        got: u64,
    },
    /// An invalid [`CheckpointSpec`] field.
    BadSpec(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CkptError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CkptError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CkptError::Truncated => write!(f, "checkpoint file is truncated"),
            CkptError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CkptError::Malformed(m) => write!(f, "malformed checkpoint: {m}"),
            CkptError::Mismatch(m) => write!(f, "checkpoint belongs to a different run: {m}"),
            CkptError::ReplayDivergence {
                frame,
                expected,
                got,
            } => write!(
                f,
                "WAL replay diverged at frame {frame}: recorded digest {expected:#018x}, \
                 replayed {got:#018x}"
            ),
            CkptError::BadSpec(m) => write!(f, "invalid checkpoint spec: {m}"),
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

// ---------------------------------------------------------------------
// FNV-1a and the byte codec
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a processed a word at a time — the checksum and digest
/// primitive. Not cryptographic; it guards against torn writes and bit
/// rot, not adversaries, and it is dependency-free. Word-chunking (vs
/// the textbook byte loop) keeps checksumming hundreds of kilobytes of
/// checkpoint off the dispatch hot path's budget.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.finish()
}

/// Streaming form of [`fnv1a64`]: hash values as they come, no staging
/// buffer. Used for the per-frame WAL digest, which runs once per
/// simulated frame and must cost microseconds, not allocations.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }
    fn u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(FNV_PRIME);
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Length-tag the tail so "ab" and "ab\0" differ.
            tail[7] = rest.len() as u8;
            self.u64(u64::from_le_bytes(tail));
        }
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Little-endian byte encoder for the checkpoint payloads.
#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn point(&mut self, p: Point) {
        self.f64(p.x);
        self.f64(p.y);
    }
}

/// Little-endian cursor over a checkpoint payload; every read is
/// bounds-checked so corrupt framing surfaces as [`CkptError`].
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        let end = self.pos.checked_add(n).ok_or(CkptError::Truncated)?;
        if end > self.buf.len() {
            return Err(CkptError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// A length prefix about to index this file — reject lengths that
    /// exceed the remaining bytes so a corrupt count cannot trigger an
    /// absurd allocation.
    fn len_prefix(&mut self, min_item: usize) -> Result<usize, CkptError> {
        let n = self.u64()? as usize;
        if n.saturating_mul(min_item.max(1)) > self.buf.len().saturating_sub(self.pos) {
            return Err(CkptError::Malformed(format!(
                "length prefix {n} exceeds remaining payload"
            )));
        }
        Ok(n)
    }
    fn str(&mut self) -> Result<String, CkptError> {
        let n = self.len_prefix(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CkptError::Malformed("non-UTF-8 string".into()))
    }
    fn point(&mut self) -> Result<Point, CkptError> {
        Ok(Point::new(self.f64()?, self.f64()?))
    }
    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------
// EngineState <-> bytes
// ---------------------------------------------------------------------

fn encode_state(e: &mut Enc, st: &EngineState) {
    e.u64(st.frame);
    e.u64(st.next_request as u64);
    e.u64(st.faults_seen);

    e.u64(st.taxis.len() as u64);
    for t in &st.taxis {
        e.u64(t.template.id.0);
        e.point(t.template.location);
        e.u8(t.template.seats);
        e.point(t.location);
        e.u64(t.free_at);
    }

    e.u64(st.pending.len() as u64);
    for &(r, admitted) in &st.pending {
        encode_request(e, &r);
        e.u64(admitted);
    }

    encode_id_set(e, st.admitted_ids.iter().map(|id| id.0));

    match &st.fault_state {
        None => e.u8(0),
        Some(fs) => {
            e.u8(1);
            let (plan, rng, offline) = fs.snapshot();
            encode_fault_plan(e, &plan);
            for w in rng {
                e.u64(w);
            }
            e.u64(offline.len() as u64);
            for &f in offline {
                e.u64(f);
            }
        }
    }

    encode_report(e, &st.report);
}

fn decode_state(d: &mut Dec<'_>) -> Result<EngineState, CkptError> {
    let frame = d.u64()?;
    let next_request = d.u64()? as usize;
    let faults_seen = d.u64()?;

    let n_taxis = d.len_prefix(41)?;
    let mut taxis = Vec::with_capacity(n_taxis);
    for _ in 0..n_taxis {
        let id = TaxiId(d.u64()?);
        let tmpl_loc = d.point()?;
        let seats = d.u8()?;
        let location = d.point()?;
        let free_at = d.u64()?;
        taxis.push(TaxiState {
            template: Taxi {
                id,
                location: tmpl_loc,
                seats,
            },
            location,
            free_at,
        });
    }

    let n_pending = d.len_prefix(49)?;
    let mut pending = VecDeque::with_capacity(n_pending);
    for _ in 0..n_pending {
        let r = decode_request(d)?;
        let admitted = d.u64()?;
        pending.push_back((r, admitted));
    }

    let admitted_ids: HashSet<RequestId> = decode_id_set(d)?.into_iter().map(RequestId).collect();

    let fault_state = match d.u8()? {
        0 => None,
        1 => {
            let plan = decode_fault_plan(d)?;
            let mut rng = [0u64; 4];
            for w in &mut rng {
                *w = d.u64()?;
            }
            let n = d.len_prefix(8)?;
            let mut offline = Vec::with_capacity(n);
            for _ in 0..n {
                offline.push(d.u64()?);
            }
            Some(FaultState::restore(plan, rng, offline))
        }
        t => return Err(CkptError::Malformed(format!("unknown fault-state tag {t}"))),
    };

    let report = decode_report(d)?;

    Ok(EngineState {
        taxis,
        pending,
        next_request,
        report,
        faults_seen,
        fault_state,
        admitted_ids,
        frame,
    })
}

fn encode_request(e: &mut Enc, r: &Request) {
    e.u64(r.id.0);
    e.u64(r.time);
    e.point(r.pickup);
    e.point(r.dropoff);
    e.u8(r.passengers);
}

fn decode_request(d: &mut Dec<'_>) -> Result<Request, CkptError> {
    Ok(Request {
        id: RequestId(d.u64()?),
        time: d.u64()?,
        pickup: d.point()?,
        dropoff: d.point()?,
        passengers: d.u8()?,
    })
}

/// Sets are serialized sorted so the same state always produces the same
/// bytes (hash iteration order never leaks into the file).
fn encode_id_set(e: &mut Enc, ids: impl Iterator<Item = u64>) {
    let mut v: Vec<u64> = ids.collect();
    v.sort_unstable();
    e.u64(v.len() as u64);
    for id in v {
        e.u64(id);
    }
}

fn decode_id_set(d: &mut Dec<'_>) -> Result<Vec<u64>, CkptError> {
    let n = d.len_prefix(8)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(d.u64()?);
    }
    Ok(v)
}

fn encode_fault_plan(e: &mut Enc, p: &FaultPlan) {
    e.u64(p.seed);
    e.f64(p.taxi_dropout);
    e.u64(p.dropout_frames);
    e.f64(p.request_cancel);
    e.f64(p.gps_jitter);
    e.f64(p.jitter_km);
    e.f64(p.duplicate_record);
    e.f64(p.malformed_record);
    e.f64(p.mid_dispatch_cancel);
    e.f64(p.mid_dispatch_dropout);
}

fn decode_fault_plan(d: &mut Dec<'_>) -> Result<FaultPlan, CkptError> {
    let plan = FaultPlan {
        seed: d.u64()?,
        taxi_dropout: d.f64()?,
        dropout_frames: d.u64()?,
        request_cancel: d.f64()?,
        gps_jitter: d.f64()?,
        jitter_km: d.f64()?,
        duplicate_record: d.f64()?,
        malformed_record: d.f64()?,
        mid_dispatch_cancel: d.f64()?,
        mid_dispatch_dropout: d.f64()?,
    };
    plan.validate().map_err(CkptError::Malformed)?;
    Ok(plan)
}

fn encode_report(e: &mut Enc, r: &SimReport) {
    e.str(&r.policy);
    e.str(&r.trace);
    e.u64(r.served as u64);
    e.u64(r.unserved_at_end as u64);
    e.u64(r.frames);
    encode_f64s(e, &r.delays_min);
    encode_f64s(e, &r.passenger_dissatisfaction);
    encode_f64s(e, &r.taxi_dissatisfaction);
    e.u64(r.shared_requests as u64);
    e.f64(r.total_drive_km);
    e.u64(r.queue_by_frame.len() as u64);
    e.buf.reserve(r.queue_by_frame.len() * 4);
    for &q in &r.queue_by_frame {
        e.u32(q);
    }
    e.u64(r.idle_by_frame.len() as u64);
    e.buf.reserve(r.idle_by_frame.len() * 4);
    for &q in &r.idle_by_frame {
        e.u32(q);
    }
    // Wall-clock telemetry (`dispatch_ms_by_frame`, `stage_breakdown`,
    // `slo_events`) is deliberately NOT persisted: it is process-local,
    // excluded from `deterministic_digest`, and at full scale it is the
    // bulk of the report's bytes — omitting it keeps checkpoint cost
    // flat as the run progresses. A resumed run's telemetry covers
    // resumed frames only (SLO windows restart cold).
    encode_fault_counters(e, &r.faults);

    e.u64(r.dispatch_errors.len() as u64);
    for err in &r.dispatch_errors {
        match err {
            DispatchError::UnknownTaxi { taxi, frame } => {
                e.u8(0);
                e.u64(taxi.0);
                e.u64(*frame);
            }
            DispatchError::RequestNotPending { request, frame } => {
                e.u8(1);
                e.u64(request.0);
                e.u64(*frame);
            }
            DispatchError::PrecomputeFailed { frame, message } => {
                e.u8(2);
                e.u64(*frame);
                e.str(message);
            }
        }
    }

    e.u64(r.degradations.len() as u64);
    for ev in &r.degradations {
        e.u64(ev.frame);
        e.u8(tier_tag(ev.degraded.from));
        e.u8(tier_tag(ev.degraded.to));
        match ev.degraded.reason {
            DegradeReason::DeadlineExceeded { stage } => {
                e.u8(0);
                e.str(stage);
            }
            DegradeReason::NodeCapReached { nodes } => {
                e.u8(1);
                e.u64(nodes);
            }
        }
    }

    for buckets in [&r.delay_by_hour, &r.passenger_by_hour, &r.taxi_by_hour] {
        for b in buckets.iter() {
            e.f64(b.sum);
            e.u64(b.count as u64);
        }
    }
}

fn decode_report(d: &mut Dec<'_>) -> Result<SimReport, CkptError> {
    let policy = d.str()?;
    let trace = d.str()?;
    let served = d.u64()? as usize;
    let unserved_at_end = d.u64()? as usize;
    let frames = d.u64()?;
    let delays_min = decode_f64s(d)?;
    let passenger_dissatisfaction = decode_f64s(d)?;
    let taxi_dissatisfaction = decode_f64s(d)?;
    let shared_requests = d.u64()? as usize;
    let total_drive_km = d.f64()?;
    let n = d.len_prefix(4)?;
    let mut queue_by_frame = Vec::with_capacity(n);
    for _ in 0..n {
        queue_by_frame.push(d.u32()?);
    }
    let n = d.len_prefix(4)?;
    let mut idle_by_frame = Vec::with_capacity(n);
    for _ in 0..n {
        idle_by_frame.push(d.u32()?);
    }
    // Telemetry restarts empty on resume (see `encode_report`).
    let dispatch_ms_by_frame = Vec::new();
    let stage_breakdown = StageBreakdown::new();
    let slo_events = Vec::new();

    let faults = decode_fault_counters(d)?;

    let n = d.len_prefix(9)?;
    let mut dispatch_errors = Vec::with_capacity(n);
    for _ in 0..n {
        dispatch_errors.push(match d.u8()? {
            0 => DispatchError::UnknownTaxi {
                taxi: TaxiId(d.u64()?),
                frame: d.u64()?,
            },
            1 => DispatchError::RequestNotPending {
                request: RequestId(d.u64()?),
                frame: d.u64()?,
            },
            2 => DispatchError::PrecomputeFailed {
                frame: d.u64()?,
                message: d.str()?,
            },
            t => {
                return Err(CkptError::Malformed(format!(
                    "unknown dispatch-error tag {t}"
                )))
            }
        });
    }

    let n = d.len_prefix(11)?;
    let mut degradations = Vec::with_capacity(n);
    for _ in 0..n {
        let frame = d.u64()?;
        let from = tier_from_tag(d.u8()?)?;
        let to = tier_from_tag(d.u8()?)?;
        let reason = match d.u8()? {
            0 => DegradeReason::DeadlineExceeded {
                stage: intern_stage(&d.str()?),
            },
            1 => DegradeReason::NodeCapReached { nodes: d.u64()? },
            t => {
                return Err(CkptError::Malformed(format!(
                    "unknown degrade-reason tag {t}"
                )))
            }
        };
        degradations.push(DegradationEvent {
            frame,
            degraded: Degraded { from, to, reason },
        });
    }

    let mut buckets = [[HourBucket::default(); 24]; 3];
    for series in &mut buckets {
        for b in series.iter_mut() {
            b.sum = d.f64()?;
            b.count = d.u64()? as usize;
        }
    }
    let [delay_by_hour, passenger_by_hour, taxi_by_hour] = buckets;

    Ok(SimReport {
        policy,
        trace,
        served,
        unserved_at_end,
        frames,
        delays_min,
        passenger_dissatisfaction,
        taxi_dissatisfaction,
        shared_requests,
        total_drive_km,
        queue_by_frame,
        idle_by_frame,
        dispatch_ms_by_frame,
        stage_breakdown,
        faults,
        dispatch_errors,
        degradations,
        slo_events,
        delay_by_hour,
        passenger_by_hour,
        taxi_by_hour,
    })
}

fn encode_f64s(e: &mut Enc, xs: &[f64]) {
    e.u64(xs.len() as u64);
    e.buf.reserve(xs.len() * 8);
    for &x in xs {
        e.f64(x);
    }
}

fn decode_f64s(d: &mut Dec<'_>) -> Result<Vec<f64>, CkptError> {
    let n = d.len_prefix(8)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(d.f64()?);
    }
    Ok(v)
}

fn encode_fault_counters(e: &mut Enc, c: &FaultCounters) {
    e.u64(c.taxi_dropouts);
    e.u64(c.request_cancellations);
    e.u64(c.gps_faults);
    e.u64(c.duplicate_records);
    e.u64(c.malformed_records);
    e.u64(c.mid_dispatch_cancellations);
    e.u64(c.mid_dispatch_dropouts);
    e.u64(c.quarantined_arrivals);
    e.u64(c.recovered_dispatch_errors);
    e.f64(c.recovery_ms);
}

fn decode_fault_counters(d: &mut Dec<'_>) -> Result<FaultCounters, CkptError> {
    Ok(FaultCounters {
        taxi_dropouts: d.u64()?,
        request_cancellations: d.u64()?,
        gps_faults: d.u64()?,
        duplicate_records: d.u64()?,
        malformed_records: d.u64()?,
        mid_dispatch_cancellations: d.u64()?,
        mid_dispatch_dropouts: d.u64()?,
        quarantined_arrivals: d.u64()?,
        recovered_dispatch_errors: d.u64()?,
        recovery_ms: d.f64()?,
    })
}

fn tier_tag(t: DispatchTier) -> u8 {
    match t {
        DispatchTier::NstdT => 0,
        DispatchTier::NstdP => 1,
        DispatchTier::GreedyNearest => 2,
        DispatchTier::FullEnumeration => 3,
        DispatchTier::PartialEnumeration => 4,
    }
}

fn tier_from_tag(t: u8) -> Result<DispatchTier, CkptError> {
    Ok(match t {
        0 => DispatchTier::NstdT,
        1 => DispatchTier::NstdP,
        2 => DispatchTier::GreedyNearest,
        3 => DispatchTier::FullEnumeration,
        4 => DispatchTier::PartialEnumeration,
        _ => return Err(CkptError::Malformed(format!("unknown tier tag {t}"))),
    })
}

/// Maps a serialized deadline stage back to the `&'static str` the
/// [`DegradeReason`] type requires. Every stage the current ladder emits
/// is matched; an unrecognized name (a checkpoint written by a future
/// build) is leaked once — bounded by the handful of distinct stage
/// names a format version can introduce.
fn intern_stage(s: &str) -> &'static str {
    match s {
        "before preference construction" => "before preference construction",
        "after preference construction" => "after preference construction",
        "during enumeration" => "during enumeration",
        other => Box::leak(other.to_string().into_boxed_str()),
    }
}

// ---------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------

impl SimReport {
    /// A digest over every *result* field of the report — the fields a
    /// crash-free rerun reproduces exactly. Two runs of the same
    /// `(trace, policy, config, fault plan)` have equal digests; so do
    /// an uninterrupted run and a kill/resume run.
    ///
    /// Excluded, deliberately: wall-clock measurements
    /// ([`dispatch_ms_by_frame`](SimReport::dispatch_ms_by_frame),
    /// [`FaultCounters::recovery_ms`], stage timings) and the
    /// [`stage_breakdown`](SimReport::stage_breakdown) telemetry, whose
    /// cache counters legitimately differ after a resume (the policy
    /// restarts cold; the warm==cold invariant fixes its *results*, not
    /// its cache hit pattern). [`slo_events`](SimReport::slo_events) is
    /// excluded for the same reason: breaches are wall-clock-derived and
    /// a resume restarts the monitor's windows.
    #[must_use]
    pub fn deterministic_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.str(&self.policy);
        h.str(&self.trace);
        h.u64(self.served as u64);
        h.u64(self.unserved_at_end as u64);
        h.u64(self.frames);
        for series in [
            &self.delays_min,
            &self.passenger_dissatisfaction,
            &self.taxi_dissatisfaction,
        ] {
            h.u64(series.len() as u64);
            for &x in series.iter() {
                h.f64(x);
            }
        }
        h.u64(self.shared_requests as u64);
        h.f64(self.total_drive_km);
        for &q in &self.queue_by_frame {
            h.u64(u64::from(q));
        }
        for &q in &self.idle_by_frame {
            h.u64(u64::from(q));
        }
        hash_fault_counters(&mut h, &self.faults);
        for err in &self.dispatch_errors {
            h.str(&err.to_string());
        }
        for ev in &self.degradations {
            h.u64(ev.frame);
            h.u64(u64::from(tier_tag(ev.degraded.from)));
            h.u64(u64::from(tier_tag(ev.degraded.to)));
            h.str(&ev.degraded.reason.to_string());
        }
        for buckets in [
            &self.delay_by_hour,
            &self.passenger_by_hour,
            &self.taxi_by_hour,
        ] {
            for b in buckets.iter() {
                h.f64(b.sum);
                h.u64(b.count as u64);
            }
        }
        h.finish()
    }
}

/// Hashes every fault counter except the wall-clock `recovery_ms`.
fn hash_fault_counters(h: &mut Fnv, c: &FaultCounters) {
    h.u64(c.taxi_dropouts);
    h.u64(c.request_cancellations);
    h.u64(c.gps_faults);
    h.u64(c.duplicate_records);
    h.u64(c.malformed_records);
    h.u64(c.mid_dispatch_cancellations);
    h.u64(c.mid_dispatch_dropouts);
    h.u64(c.quarantined_arrivals);
    h.u64(c.recovered_dispatch_errors);
}

impl EngineState {
    /// A cheap per-frame digest over the engine's *result* state — what
    /// the WAL records after each frame and what replay re-derives. Like
    /// [`SimReport::deterministic_digest`], wall-clock and telemetry
    /// fields are excluded so a cold-restarted replay matches.
    pub(crate) fn frame_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.frame);
        h.u64(self.next_request as u64);
        h.u64(self.report.served as u64);
        h.u64(self.report.unserved_at_end as u64);
        h.f64(self.report.total_drive_km);
        h.u64(self.report.delays_min.len() as u64);
        if let Some(&d) = self.report.delays_min.last() {
            h.f64(d);
        }
        // The pending queue is summarized (length + both ends), not
        // walked: at full scale the backlog reaches thousands of
        // entries and a full walk per frame would put the digest on the
        // wrong side of the ≤3% overhead budget. Any dispatch
        // divergence reorders pops within a frame or two, so the
        // summary still trips; full queue content is covered by the
        // checkpoint checksum and the end-of-run report digest.
        h.u64(self.pending.len() as u64);
        if let Some(&(r, admitted)) = self.pending.front() {
            h.u64(r.id.0);
            h.u64(admitted);
        }
        if let Some(&(r, admitted)) = self.pending.back() {
            h.u64(r.id.0);
            h.u64(admitted);
        }
        for t in &self.taxis {
            h.u64(t.free_at);
            h.f64(t.location.x);
            h.f64(t.location.y);
        }
        hash_fault_counters(&mut h, &self.report.faults);
        h.finish()
    }
}

// ---------------------------------------------------------------------
// Checkpoint files
// ---------------------------------------------------------------------

/// A checkpoint loaded back from disk: the engine state at a frame
/// boundary plus the run identity it was written under.
#[derive(Debug)]
pub struct Checkpoint {
    pub(crate) state: EngineState,
    pub(crate) fingerprint: u64,
}

impl Checkpoint {
    /// The frame boundary the checkpoint captured (frames `0..frame`
    /// are included).
    #[must_use]
    pub fn frame(&self) -> u64 {
        self.state.frame
    }

    /// Policy display name the run used.
    #[must_use]
    pub fn policy(&self) -> &str {
        &self.state.report.policy
    }

    /// Trace name the run used.
    #[must_use]
    pub fn trace(&self) -> &str {
        &self.state.report.trace
    }

    /// Requests served up to the checkpointed frame.
    #[must_use]
    pub fn served(&self) -> usize {
        self.state.report.served
    }
}

fn ckpt_file_name(frame: u64) -> String {
    format!("ckpt-{frame:012}.o2oc")
}

/// Checkpoint files in `dir`, newest (highest frame) first. Non-ckpt
/// files are ignored.
///
/// # Errors
///
/// Propagates directory-listing I/O failures.
pub fn checkpoint_files(dir: &Path) -> Result<Vec<PathBuf>, CkptError> {
    let mut files: Vec<PathBuf> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("ckpt-") && name.ends_with(".o2oc") {
            files.push(path);
        }
    }
    // Zero-padded frame numbers sort lexicographically; newest first.
    files.sort();
    files.reverse();
    Ok(files)
}

/// Encodes a checkpoint into `out`, reusing its capacity. A run writes
/// one checkpoint per interval, each a few hundred kilobytes at full
/// scale; rebuilding that buffer from scratch every time (with its
/// doubling-growth copies, plus a second copy assembling sections into
/// the framed file) was the single largest slice of checkpoint overhead.
/// Sections are framed in place instead: the length prefix is reserved,
/// the payload encoded directly into `out`, and the prefix patched once
/// the payload's true size is known.
fn encode_checkpoint_into(st: &EngineState, fingerprint: u64, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&CKPT_MAGIC);
    out.extend_from_slice(&CKPT_VERSION.to_le_bytes());
    out.extend_from_slice(&2u32.to_le_bytes()); // section count

    // Meta section: fixed-size payload, framed directly.
    out.extend_from_slice(&SEC_META.to_le_bytes());
    out.extend_from_slice(&16u64.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&st.frame.to_le_bytes());

    // State section: reserve the length slot, encode in place, patch.
    out.extend_from_slice(&SEC_STATE.to_le_bytes());
    let len_at = out.len();
    out.extend_from_slice(&0u64.to_le_bytes());
    let payload_start = out.len();
    let mut e = Enc {
        buf: std::mem::take(out),
    };
    encode_state(&mut e, st);
    *out = e.buf;
    let payload_len = (out.len() - payload_start) as u64;
    out[len_at..len_at + 8].copy_from_slice(&payload_len.to_le_bytes());

    let checksum = fnv1a64(out);
    out.extend_from_slice(&checksum.to_le_bytes());
}

fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, CkptError> {
    if bytes.len() < 4 {
        return Err(CkptError::Truncated);
    }
    if bytes[..4] != CKPT_MAGIC {
        return Err(CkptError::BadMagic);
    }
    if bytes.len() < 4 + 4 + 4 + 8 {
        return Err(CkptError::Truncated);
    }
    let (body, footer) = bytes.split_at(bytes.len() - 8);
    let recorded = u64::from_le_bytes(footer.try_into().unwrap());
    if fnv1a64(body) != recorded {
        return Err(CkptError::ChecksumMismatch);
    }
    let mut d = Dec::new(&body[4..]);
    let version = d.u32()?;
    if version != CKPT_VERSION {
        return Err(CkptError::UnsupportedVersion(version));
    }
    let sections = d.u32()?;
    let mut meta: Option<&[u8]> = None;
    let mut state: Option<&[u8]> = None;
    for _ in 0..sections {
        let tag = d.u32()?;
        let len = d.u64()? as usize;
        let payload = d.take(len)?;
        match tag {
            SEC_META => meta = Some(payload),
            SEC_STATE => state = Some(payload),
            // Unknown sections from a same-version writer extension are
            // skipped: the format is self-describing.
            _ => {}
        }
    }
    if !d.done() {
        return Err(CkptError::Malformed("trailing bytes after sections".into()));
    }
    let meta = meta.ok_or_else(|| CkptError::Malformed("missing META section".into()))?;
    let state = state.ok_or_else(|| CkptError::Malformed("missing STATE section".into()))?;

    let mut md = Dec::new(meta);
    let fingerprint = md.u64()?;
    let meta_frame = md.u64()?;

    let mut sd = Dec::new(state);
    let engine = decode_state(&mut sd)?;
    if !sd.done() {
        return Err(CkptError::Malformed("trailing bytes in STATE".into()));
    }
    if engine.frame != meta_frame {
        return Err(CkptError::Malformed(format!(
            "META frame {meta_frame} != STATE frame {}",
            engine.frame
        )));
    }
    Ok(Checkpoint {
        state: engine,
        fingerprint,
    })
}

/// Loads and fully validates one checkpoint file.
///
/// # Errors
///
/// Every corruption mode is a typed [`CkptError`] — truncation, a
/// flipped bit anywhere (checksum), an unknown version, an empty file —
/// never a panic.
pub fn load_checkpoint(path: &Path) -> Result<Checkpoint, CkptError> {
    let bytes = fs::read(path)?;
    decode_checkpoint(&bytes)
}

/// The newest checkpoint in `dir` that loads and verifies, with the
/// files that failed on the way down (newest first) so callers can log
/// or delete them. Returns `Ok(None)` when no file validates (including
/// an empty or missing directory).
///
/// # Errors
///
/// Propagates only directory-listing I/O failures; per-file read or
/// validation failures trigger fallback instead.
pub fn latest_valid_checkpoint(dir: &Path) -> Result<Option<(PathBuf, Checkpoint)>, CkptError> {
    if !dir.exists() {
        return Ok(None);
    }
    for path in checkpoint_files(dir)? {
        if let Ok(ckpt) = load_checkpoint(&path) {
            return Ok(Some((path, ckpt)));
        }
    }
    Ok(None)
}

fn write_checkpoint(
    dir: &Path,
    st: &EngineState,
    fingerprint: u64,
    sync: bool,
    scratch: &mut Vec<u8>,
) -> Result<PathBuf, CkptError> {
    encode_checkpoint_into(st, fingerprint, scratch);
    let bytes = &*scratch;
    let final_path = dir.join(ckpt_file_name(st.frame));
    let tmp_path = dir.join(format!("{}.tmp", ckpt_file_name(st.frame)));
    {
        let mut f = File::create(&tmp_path)?;
        f.write_all(bytes)?;
        if sync {
            f.sync_all()?;
        }
    }
    // The rename is the commit point: a crash before it leaves at most a
    // stale .tmp file the loader never looks at; a crash after it leaves
    // a fully written, checksummed file.
    fs::rename(&tmp_path, &final_path)?;
    if sync {
        // Persist the rename itself.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(final_path)
}

// ---------------------------------------------------------------------
// Frame WAL
// ---------------------------------------------------------------------

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("frames.o2ow")
}

fn wal_record_bytes(frame: u64, digest: u64) -> [u8; WAL_RECORD] {
    let mut rec = [0u8; WAL_RECORD];
    rec[..8].copy_from_slice(&frame.to_le_bytes());
    rec[8..16].copy_from_slice(&digest.to_le_bytes());
    let crc = fnv1a64(&rec[..16]);
    rec[16..].copy_from_slice(&crc.to_le_bytes());
    rec
}

/// The WAL's valid `(frame, digest)` records, in file order. A missing
/// file is an empty WAL; a torn or corrupt tail (short final record,
/// failed per-record checksum) ends the valid prefix silently — that is
/// exactly the crash-mid-append case the format is built for.
fn read_wal(dir: &Path) -> Result<Vec<(u64, u64)>, CkptError> {
    let path = wal_path(dir);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    if bytes.len() < 8 || bytes[..4] != WAL_MAGIC {
        return Ok(Vec::new());
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != WAL_VERSION {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    for rec in bytes[8..].chunks(WAL_RECORD) {
        if rec.len() < WAL_RECORD {
            break; // torn final record
        }
        let frame = u64::from_le_bytes(rec[..8].try_into().unwrap());
        let digest = u64::from_le_bytes(rec[8..16].try_into().unwrap());
        let crc = u64::from_le_bytes(rec[16..].try_into().unwrap());
        if fnv1a64(&rec[..16]) != crc {
            break; // corrupt tail
        }
        out.push((frame, digest));
    }
    Ok(out)
}

/// Frames recorded in `dir`'s WAL (the replay distance a resume from the
/// latest checkpoint would cover). Exposed for the recovery benchmarks.
///
/// # Errors
///
/// Propagates I/O failures other than a missing WAL.
pub fn wal_frames(dir: &Path) -> Result<Vec<u64>, CkptError> {
    Ok(read_wal(dir)?.into_iter().map(|(f, _)| f).collect())
}

/// Truncates the WAL back to a bare header (called right after a
/// checkpoint commits — the checkpoint now covers those frames).
fn reset_wal(dir: &Path, sync: bool) -> Result<File, CkptError> {
    let mut f = File::create(wal_path(dir))?;
    f.write_all(&WAL_MAGIC)?;
    f.write_all(&WAL_VERSION.to_le_bytes())?;
    if sync {
        f.sync_all()?;
    }
    Ok(f)
}

fn open_wal_append(dir: &Path, sync: bool) -> Result<File, CkptError> {
    let path = wal_path(dir);
    let needs_header = !path.exists();
    let mut f = OpenOptions::new().create(true).append(true).open(&path)?;
    if needs_header {
        f.write_all(&WAL_MAGIC)?;
        f.write_all(&WAL_VERSION.to_le_bytes())?;
        if sync {
            f.sync_all()?;
        }
    }
    Ok(f)
}

// ---------------------------------------------------------------------
// The checkpointed run loop
// ---------------------------------------------------------------------

/// Where and how often a checkpointed run persists its state.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Directory for checkpoint files and the frame WAL (created if
    /// absent). One run per directory.
    pub dir: PathBuf,
    /// Frames between checkpoints (the WAL covers the gap).
    pub interval: u64,
    /// Checkpoint files retained (at least 2, so a torn newest file
    /// always leaves a fallback).
    pub keep: usize,
    /// Fsync checkpoint files and WAL appends. Off by default: the
    /// atomic-rename protocol already survives process kills; fsync
    /// additionally survives power loss at a real throughput cost.
    pub sync: bool,
    /// Crash-injection hook: stop (as if killed) after executing this
    /// many frames *in this process*, leaving the directory exactly as a
    /// SIGKILL at that frame boundary would. `None` runs to completion.
    pub stop_after_frames: Option<u64>,
}

impl CheckpointSpec {
    /// A spec with the default cadence: checkpoint every 128 frames,
    /// keep 2, no fsync. The default interval is set where the recovery
    /// benchmark (`fig_recovery`) shows checkpointing costs well under
    /// 3% of run time while replaying a full interval's WAL after a
    /// crash still takes well under a second.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointSpec {
            dir: dir.into(),
            interval: 128,
            keep: 2,
            sync: false,
            stop_after_frames: None,
        }
    }

    /// Sets the checkpoint interval in frames.
    #[must_use]
    pub fn with_interval(mut self, interval: u64) -> Self {
        self.interval = interval;
        self
    }

    /// Sets how many checkpoint files to retain.
    #[must_use]
    pub fn with_keep(mut self, keep: usize) -> Self {
        self.keep = keep;
        self
    }

    /// Enables fsync on checkpoint commit and WAL header writes.
    #[must_use]
    pub fn with_sync(mut self, sync: bool) -> Self {
        self.sync = sync;
        self
    }

    /// Arms the crash-injection hook (see
    /// [`stop_after_frames`](Self::stop_after_frames)).
    #[must_use]
    pub fn with_stop_after_frames(mut self, frames: u64) -> Self {
        self.stop_after_frames = Some(frames);
        self
    }

    fn validate(&self) -> Result<(), CkptError> {
        if self.interval == 0 {
            return Err(CkptError::BadSpec("interval must be at least 1".into()));
        }
        if self.keep < 2 {
            return Err(CkptError::BadSpec(
                "keep must be at least 2 (torn-write fallback)".into(),
            ));
        }
        Ok(())
    }
}

/// How a checkpointed run ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// The simulation ran to its natural end; the report is final.
    Completed(Box<SimReport>),
    /// The crash-injection hook fired: the process "died" at this frame
    /// boundary. Re-invoking [`Simulator::run_checkpointed`] with the
    /// same directory (and a fresh policy) resumes from here.
    Stopped {
        /// The next frame the resumed run will execute.
        frame: u64,
    },
}

impl RunOutcome {
    /// The completed report, if the run finished.
    #[must_use]
    pub fn report(self) -> Option<SimReport> {
        match self {
            RunOutcome::Completed(r) => Some(*r),
            RunOutcome::Stopped { .. } => None,
        }
    }
}

impl Simulator {
    /// Identity of a `(trace, policy, config, fault plan)` combination;
    /// a checkpoint only resumes a run with the same fingerprint.
    fn run_fingerprint(&self, trace: &Trace, policy_name: &str) -> u64 {
        let mut e = Enc::default();
        e.str(policy_name);
        e.str(&trace.name);
        e.u64(trace.requests.len() as u64);
        e.u64(trace.taxis.len() as u64);
        e.str(&format!("{:?}", self.config()));
        e.str(&format!("{:?}", self.fault_plan()));
        fnv1a64(&e.buf)
    }

    /// [`run_checkpointed_with_metric`](Self::run_checkpointed_with_metric)
    /// over straight-line ([`Euclidean`]) distances.
    ///
    /// # Errors
    ///
    /// See [`run_checkpointed_with_metric`](Self::run_checkpointed_with_metric).
    pub fn run_checkpointed<P: DispatchPolicy>(
        &self,
        trace: &Trace,
        policy: &mut P,
        spec: &CheckpointSpec,
    ) -> Result<RunOutcome, CkptError> {
        self.run_checkpointed_with_metric(&Euclidean, trace, policy, spec)
    }

    /// Runs like [`run_with_metric`](Self::run_with_metric), but
    /// checkpoints the engine state every [`CheckpointSpec::interval`]
    /// frames and WALs every frame in between, resuming from the
    /// directory's latest valid checkpoint if one exists.
    ///
    /// On resume, pass a **fresh** policy: the engine replays the WAL's
    /// frames (verifying each against the recorded digest) and then
    /// continues; the final report is bit-identical to an uninterrupted
    /// run on every result field (see
    /// [`SimReport::deterministic_digest`]).
    ///
    /// # Errors
    ///
    /// I/O failures, an invalid spec, a checkpoint from a different run
    /// ([`CkptError::Mismatch`]), or a WAL replay that does not
    /// reproduce the recorded digests
    /// ([`CkptError::ReplayDivergence`]). Corrupt checkpoint *files*
    /// are not errors here — the loader falls back past them.
    pub fn run_checkpointed_with_metric<M: Metric, P: DispatchPolicy>(
        &self,
        metric: &M,
        trace: &Trace,
        policy: &mut P,
        spec: &CheckpointSpec,
    ) -> Result<RunOutcome, CkptError> {
        spec.validate()?;
        fs::create_dir_all(&spec.dir)?;
        let fingerprint = self.run_fingerprint(trace, policy.name());

        let mut state = match latest_valid_checkpoint(&spec.dir)? {
            Some((path, ckpt)) => {
                if ckpt.fingerprint != fingerprint {
                    return Err(CkptError::Mismatch(format!(
                        "{} was written by a different (trace, policy, config, fault plan)",
                        path.display()
                    )));
                }
                ckpt.state
            }
            None => EngineState::new(trace, policy.name(), self.fault_plan().copied()),
        };
        let mut scratch = self.new_scratch(trace);

        let mut steps_this_process = 0u64;
        let stopped = |steps: u64| spec.stop_after_frames.is_some_and(|cap| steps >= cap);

        // Replay the frames the dead process executed past the
        // checkpoint. Replay is re-execution (the engine is
        // deterministic); the WAL's role is to *verify* each replayed
        // frame against the digest the original process recorded.
        let mut running = true;
        for (frame, digest) in read_wal(&spec.dir)? {
            if frame < state.frame {
                continue; // covered by the checkpoint already
            }
            if frame != state.frame || !running {
                break; // stale or gapped tail — stop trusting it
            }
            running = self.step_frame(metric, trace, policy, &mut state, &mut scratch);
            let got = state.frame_digest();
            if got != digest {
                return Err(CkptError::ReplayDivergence {
                    frame,
                    expected: digest,
                    got,
                });
            }
            steps_this_process += 1;
            if stopped(steps_this_process) {
                return Ok(RunOutcome::Stopped { frame: state.frame });
            }
        }

        let mut wal = open_wal_append(&spec.dir, spec.sync)?;
        let mut ckpt_buf = Vec::new();
        // WAL records are buffered and flushed in small batches (and on
        // every exit path below, so an in-process stop never loses
        // records). A real SIGKILL can lose at most the unflushed tail —
        // which only moves the resume point a few frames back; replay
        // re-executes them and the result is unchanged. `sync` mode
        // flushes every frame: durability per frame is the point there.
        const WAL_BATCH: usize = 32;
        let mut wal_buf: Vec<u8> = Vec::with_capacity(WAL_BATCH * WAL_RECORD);
        // Checkpoints written (oldest first) — pruning works off this
        // list instead of re-listing the directory every interval.
        let mut on_disk: Vec<PathBuf> = {
            let mut files = checkpoint_files(&spec.dir)?;
            files.reverse();
            files
        };
        // Cumulative time inside checkpoint machinery (digest, WAL
        // append, checkpoint write/prune). Published as the
        // `ckpt_machinery_us` counter so the recovery benchmark can
        // measure overhead directly instead of differencing two whole
        // runs — on a loaded machine the latter drifts by more than the
        // overhead being measured.
        let mut machinery = std::time::Duration::ZERO;
        while running {
            running = self.step_frame(metric, trace, policy, &mut state, &mut scratch);
            let t0 = std::time::Instant::now();
            let executed = state.frame - 1;
            wal_buf.extend_from_slice(&wal_record_bytes(executed, state.frame_digest()));
            if spec.sync {
                wal.write_all(&wal_buf)?;
                wal_buf.clear();
                wal.sync_data()?;
            } else if wal_buf.len() >= WAL_BATCH * WAL_RECORD {
                wal.write_all(&wal_buf)?;
                wal_buf.clear();
            }
            steps_this_process += 1;

            if running && state.frame % spec.interval == 0 {
                // Frames buffered for the WAL are covered by this
                // checkpoint; they never need to reach the old WAL.
                wal_buf.clear();
                on_disk.push(write_checkpoint(
                    &spec.dir,
                    &state,
                    fingerprint,
                    spec.sync,
                    &mut ckpt_buf,
                )?);
                while on_disk.len() > spec.keep.max(1) {
                    let _ = fs::remove_file(on_disk.remove(0));
                }
                wal = reset_wal(&spec.dir, spec.sync)?;
            }
            let spent = t0.elapsed();
            machinery += spent;
            // Surface checkpoint cost to the live SLO monitor: the next
            // dispatched frame's observation drains this accumulator into
            // its `ckpt_ms` (the checkpoint-overhead metric's numerator).
            scratch.slo_ckpt_ms += spent.as_secs_f64() * 1e3;
            if stopped(steps_this_process) && running {
                wal.write_all(&wal_buf)?;
                self.recorder()
                    .add("ckpt_machinery_us", machinery.as_micros() as u64);
                return Ok(RunOutcome::Stopped { frame: state.frame });
            }
        }
        wal.write_all(&wal_buf)?;
        self.recorder()
            .add("ckpt_machinery_us", machinery.as_micros() as u64);
        Ok(RunOutcome::Completed(Box::new(self.finish(state))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimConfig;
    use crate::policy;
    use o2o_core::PreferenceParams;
    use o2o_trace::boston_september_2012;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("o2o-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn engine_state_round_trips_through_bytes() {
        let trace = boston_september_2012(0.002).generate(5);
        let sim = Simulator::new(SimConfig::default()).with_fault_plan(FaultPlan::uniform(3, 0.05));
        let mut p = policy::nstd_p(o2o_geo::Euclidean, PreferenceParams::default());
        // Drive the engine a few frames to populate every state field.
        let mut st = EngineState::new(&trace, p.name(), sim.fault_plan().copied());
        let mut sc = sim.new_scratch(&trace);
        for _ in 0..30 {
            if !sim.step_frame(&o2o_geo::Euclidean, &trace, &mut p, &mut st, &mut sc) {
                break;
            }
        }
        let mut e = Enc::default();
        encode_state(&mut e, &st);
        let mut d = Dec::new(&e.buf);
        let back = decode_state(&mut d).expect("state decodes");
        assert!(d.done(), "decoder consumed every byte");
        assert_eq!(back.frame, st.frame);
        assert_eq!(back.next_request, st.next_request);
        assert_eq!(back.taxis, st.taxis);
        assert_eq!(back.pending, st.pending);
        assert_eq!(back.admitted_ids, st.admitted_ids);
        assert_eq!(back.report.served, st.report.served);
        assert_eq!(back.report.delays_min, st.report.delays_min);
        assert_eq!(back.report.faults, st.report.faults);
        assert_eq!(back.frame_digest(), st.frame_digest());
        // And the re-encoded bytes are identical (canonical encoding).
        let mut e2 = Enc::default();
        encode_state(&mut e2, &back);
        assert_eq!(e.buf, e2.buf);
    }

    #[test]
    fn checkpoint_write_load_round_trip() {
        let dir = tmp_dir("roundtrip");
        let trace = boston_september_2012(0.002).generate(7);
        let st = EngineState::new(&trace, "NSTD-P", None);
        let path = write_checkpoint(&dir, &st, 0xfeed, false, &mut Vec::new()).unwrap();
        let ckpt = load_checkpoint(&path).unwrap();
        assert_eq!(ckpt.frame(), 0);
        assert_eq!(ckpt.fingerprint, 0xfeed);
        assert_eq!(ckpt.trace(), trace.name);
        let found = latest_valid_checkpoint(&dir).unwrap().expect("present");
        assert_eq!(found.0, path);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_survives_torn_tail() {
        let dir = tmp_dir("wal");
        let mut f = reset_wal(&dir, false).unwrap();
        f.write_all(&wal_record_bytes(0, 11)).unwrap();
        f.write_all(&wal_record_bytes(1, 22)).unwrap();
        // Torn final record: only half written before the "crash".
        f.write_all(&wal_record_bytes(2, 33)[..10]).unwrap();
        drop(f);
        assert_eq!(read_wal(&dir).unwrap(), vec![(0, 11), (1, 22)]);
        assert_eq!(wal_frames(&dir).unwrap(), vec![0, 1]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_rejects_corrupt_record_and_trusts_prefix() {
        let dir = tmp_dir("wal-corrupt");
        let mut f = reset_wal(&dir, false).unwrap();
        f.write_all(&wal_record_bytes(0, 1)).unwrap();
        let mut bad = wal_record_bytes(1, 2);
        bad[9] ^= 0x40; // flip a digest bit; crc no longer matches
        f.write_all(&bad).unwrap();
        f.write_all(&wal_record_bytes(2, 3)).unwrap();
        drop(f);
        // The corrupt record ends the trusted prefix even though a valid
        // record follows it.
        assert_eq!(read_wal(&dir).unwrap(), vec![(0, 1)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_validation_rejects_degenerate_values() {
        let spec = CheckpointSpec::new("/tmp/x").with_interval(0);
        assert!(matches!(spec.validate(), Err(CkptError::BadSpec(_))));
        let spec = CheckpointSpec::new("/tmp/x").with_keep(1);
        assert!(matches!(spec.validate(), Err(CkptError::BadSpec(_))));
        assert!(CheckpointSpec::new("/tmp/x").validate().is_ok());
    }

    #[test]
    fn intern_stage_reuses_known_names() {
        let s = intern_stage("after preference construction");
        assert_eq!(s, "after preference construction");
        let t = intern_stage("during enumeration");
        assert_eq!(t, "during enumeration");
    }
}
