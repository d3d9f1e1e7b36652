//! Fleet telemetry: merging many processes' JSONL streams into one view.
//!
//! A supervised run is N child processes, each with its own recorder
//! and its own [`JsonlSink`](crate::JsonlSink) manifest. This module is
//! the read side: [`parse_shard`] re-parses one child's stream
//! (validating the schema header, span balance and the self≤wall
//! invariant), and [`merge`] folds N shards into a single
//! [`FleetSummary`] — fleet-wide stage totals, counter totals and frame
//! latency distribution, with per-shard attribution preserved.
//!
//! # The manifest header
//!
//! The first record of every stream is a `meta` line carrying
//! [`SCHEMA_VERSION`] and, for fleet children,
//! the [`FleetMeta`] identity (run id, shard id, pid, seed,
//! git-describe). Streams with an unknown schema version are rejected
//! outright — the schema is self-describing, consumers never guess.
//!
//! # Clock skew
//!
//! Each child measures on its own monotonic clock. Monotonic origins
//! are process-local and incomparable, so the merge never relates
//! absolute times across shards: frames align by frame index, and all
//! cross-shard arithmetic is over durations. Within one shard, the
//! self-time ≤ wall-clock invariant is validated with a small relative
//! tolerance plus an absolute slack ([`FleetOptions`]) to absorb
//! rounding and timer-granularity skew.

use crate::stats::{FrameStats, Histogram, HistogramSnapshot, StageBreakdown};
use crate::SCHEMA_VERSION;
use std::collections::BTreeMap;
use std::fmt;
use std::io::BufRead;

/// Identity of one fleet child, stamped into its manifest header.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FleetMeta {
    /// Identifier shared by every child of one supervised run.
    pub run_id: String,
    /// This child's shard index within the run.
    pub shard_id: u32,
    /// The child's OS process id.
    pub pid: u32,
    /// The child's RNG seed.
    pub seed: u64,
    /// `git describe` of the build, when known.
    pub git: Option<String>,
}

impl FleetMeta {
    /// A meta record for shard `shard_id` of run `run_id`, stamped with
    /// the current process id.
    #[must_use]
    pub fn new(run_id: impl Into<String>, shard_id: u32, seed: u64) -> Self {
        FleetMeta {
            run_id: run_id.into(),
            shard_id,
            pid: std::process::id(),
            seed,
            git: None,
        }
    }

    /// Attaches a `git describe` string.
    #[must_use]
    pub fn with_git(mut self, git: impl Into<String>) -> Self {
        self.git = Some(git.into());
        self
    }
}

/// Tolerances for intra-shard validation during a fleet merge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetOptions {
    /// Relative tolerance on the per-frame self ≤ wall check, percent.
    pub skew_tolerance_pct: f64,
    /// Absolute slack on the same check, milliseconds — absorbs timer
    /// granularity on near-zero frames.
    pub skew_slack_ms: f64,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            skew_tolerance_pct: 1.0,
            skew_slack_ms: 0.5,
        }
    }
}

/// An SLO transition as read back from a shard's JSONL stream. String
/// fields because the closed `&'static str` vocabulary of the writing
/// process does not survive a process boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct SloLine {
    /// Frame the transition was detected on.
    pub frame: u64,
    /// `"breach"` or `"recover"`.
    pub kind: String,
    /// Spec name.
    pub spec: String,
    /// Metric identifier (`frame_p95_ms`, …).
    pub metric: String,
    /// Windowed metric value at the transition.
    pub value: f64,
    /// Spec threshold.
    pub threshold: f64,
    /// Ladder rung named by a breach, if any.
    pub rung: Option<String>,
}

/// One child's re-parsed, validated telemetry stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardTelemetry {
    /// The manifest header.
    pub meta: FleetMeta,
    /// Per-frame stage/counter breakdown reconstructed from the stream.
    pub breakdown: StageBreakdown,
    /// SLO transitions recorded by the child, in stream order.
    pub slo_events: Vec<SloLine>,
    /// Total `span_start` records seen (balance-checked against ends).
    pub span_starts: u64,
    /// Total `span_end` records seen.
    pub span_ends: u64,
}

impl ShardTelemetry {
    /// Number of complete frames in the stream.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.breakdown.frames.len() as u64
    }

    /// Sum of frame wall-clock across the stream, milliseconds.
    #[must_use]
    pub fn wall_ms(&self) -> f64 {
        self.breakdown.frames.iter().map(|f| f.wall_ms).sum()
    }
}

/// Per-shard slice of a [`FleetSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSummary {
    /// The shard's identity.
    pub meta: FleetMeta,
    /// Frames the shard dispatched.
    pub frames: u64,
    /// Sum of the shard's frame wall-clock, milliseconds.
    pub wall_ms: f64,
    /// Sum of the shard's stage self-times, milliseconds.
    pub total_self_ms: f64,
    /// Self-time per stage, name-sorted.
    pub stage_totals: Vec<(String, f64)>,
    /// Counter totals, name-sorted.
    pub counter_totals: Vec<(String, u64)>,
    /// SLO breach count.
    pub breaches: u64,
    /// SLO recovery count.
    pub recoveries: u64,
    /// The shard's SLO transition timeline.
    pub slo_events: Vec<SloLine>,
}

/// N shards merged into one fleet-wide view, shard attribution intact.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// The run id every shard agreed on.
    pub run_id: String,
    /// Schema version of the source streams.
    pub schema_version: u32,
    /// Per-shard summaries, sorted by shard id.
    pub shards: Vec<ShardSummary>,
    /// Total frames across all shards.
    pub frames: u64,
    /// Total frame wall-clock across all shards, milliseconds.
    pub wall_ms: f64,
    /// Total stage self-time across all shards, milliseconds.
    pub total_self_ms: f64,
    /// Fleet-wide self-time per stage, name-sorted.
    pub stage_totals: Vec<(String, f64)>,
    /// Fleet-wide counter totals, name-sorted.
    pub counter_totals: Vec<(String, u64)>,
    /// Distribution of per-frame wall-clock across the whole fleet.
    pub latency: HistogramSnapshot,
}

/// Why a stream or a merge was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// The stream had no lines at all.
    Empty,
    /// The first record was not a `meta` header.
    MissingHeader,
    /// The header declared a schema this reader does not know.
    UnknownSchema {
        /// The version the stream declared.
        found: u64,
    },
    /// A line failed to parse (1-based line number and reason).
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// Span starts and ends did not match up.
    SpanImbalance {
        /// Human-readable imbalance description.
        message: String,
    },
    /// A frame's stage self-times exceeded its wall-clock beyond the
    /// configured skew tolerance.
    SelfExceedsWall {
        /// Frame index.
        frame: u64,
        /// Sum of stage self-times, ms.
        self_ms: f64,
        /// Frame wall-clock, ms.
        wall_ms: f64,
    },
    /// Two shards disagreed on the run id.
    RunIdMismatch {
        /// The first shard's run id.
        expected: String,
        /// The disagreeing shard's run id.
        found: String,
    },
    /// Two shards claimed the same shard id.
    DuplicateShard {
        /// The duplicated id.
        shard_id: u32,
    },
    /// [`merge`] was called with no shards.
    NoShards,
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Empty => write!(f, "telemetry stream is empty"),
            FleetError::MissingHeader => {
                write!(f, "first record is not a schema-stamped meta header")
            }
            FleetError::UnknownSchema { found } => write!(
                f,
                "unknown telemetry schema version {found} (reader understands {SCHEMA_VERSION})"
            ),
            FleetError::Parse { line, message } => write!(f, "line {line}: {message}"),
            FleetError::SpanImbalance { message } => write!(f, "span imbalance: {message}"),
            FleetError::SelfExceedsWall {
                frame,
                self_ms,
                wall_ms,
            } => write!(
                f,
                "frame {frame}: stage self-time {self_ms:.3} ms exceeds wall {wall_ms:.3} ms \
                 beyond skew tolerance"
            ),
            FleetError::RunIdMismatch { expected, found } => {
                write!(f, "run id mismatch: {expected:?} vs {found:?}")
            }
            FleetError::DuplicateShard { shard_id } => {
                write!(f, "duplicate shard id {shard_id}")
            }
            FleetError::NoShards => write!(f, "no shards to merge"),
        }
    }
}

impl std::error::Error for FleetError {}

/// One scalar value in a flat JSONL record.
#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

impl Scalar {
    fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Scalar::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one flat JSON object (`{"k": scalar, …}` — the entire JSONL
/// vocabulary; no nesting). A deliberate micro-parser so `o2o-obs`
/// stays dependency-free on the read side too.
fn parse_flat_object(line: &str) -> Result<Vec<(String, Scalar)>, String> {
    let b = line.as_bytes();
    let mut i = 0usize;
    let mut fields = Vec::new();

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\r' | b'\n') {
            *i += 1;
        }
    }

    fn parse_string(b: &[u8], i: &mut usize) -> Result<String, String> {
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected string at byte {}", *i));
        }
        *i += 1;
        let mut s = String::new();
        while *i < b.len() {
            match b[*i] {
                b'"' => {
                    *i += 1;
                    return Ok(s);
                }
                b'\\' => {
                    *i += 1;
                    match b.get(*i) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let hex = b
                                .get(*i + 1..*i + 5)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            *i += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    *i += 1;
                }
                _ => {
                    // Multi-byte UTF-8 passes through byte-wise; the
                    // source is a &str so the bytes are valid.
                    let start = *i;
                    while *i < b.len() && b[*i] != b'"' && b[*i] != b'\\' {
                        *i += 1;
                    }
                    s.push_str(std::str::from_utf8(&b[start..*i]).map_err(|e| e.to_string())?);
                }
            }
        }
        Err("unterminated string".to_string())
    }

    fn parse_scalar(b: &[u8], i: &mut usize) -> Result<Scalar, String> {
        match b.get(*i) {
            Some(b'"') => Ok(Scalar::Str(parse_string(b, i)?)),
            Some(b't') => {
                if b.get(*i..*i + 4) == Some(b"true") {
                    *i += 4;
                    Ok(Scalar::Bool(true))
                } else {
                    Err("bad literal".to_string())
                }
            }
            Some(b'f') => {
                if b.get(*i..*i + 5) == Some(b"false") {
                    *i += 5;
                    Ok(Scalar::Bool(false))
                } else {
                    Err("bad literal".to_string())
                }
            }
            Some(b'n') => {
                if b.get(*i..*i + 4) == Some(b"null") {
                    *i += 4;
                    Ok(Scalar::Null)
                } else {
                    Err("bad literal".to_string())
                }
            }
            Some(_) => {
                let start = *i;
                while *i < b.len()
                    && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *i += 1;
                }
                let tok = std::str::from_utf8(&b[start..*i]).map_err(|e| e.to_string())?;
                tok.parse::<f64>()
                    .map(Scalar::Num)
                    .map_err(|_| format!("bad number {tok:?}"))
            }
            None => Err("unexpected end of line".to_string()),
        }
    }

    skip_ws(b, &mut i);
    if b.get(i) != Some(&b'{') {
        return Err("expected '{'".to_string());
    }
    i += 1;
    skip_ws(b, &mut i);
    if b.get(i) == Some(&b'}') {
        return Ok(fields);
    }
    loop {
        skip_ws(b, &mut i);
        let key = parse_string(b, &mut i)?;
        skip_ws(b, &mut i);
        if b.get(i) != Some(&b':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        i += 1;
        skip_ws(b, &mut i);
        let value = parse_scalar(b, &mut i)?;
        fields.push((key, value));
        skip_ws(b, &mut i);
        match b.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => {
                i += 1;
                skip_ws(b, &mut i);
                if i != b.len() {
                    return Err("trailing bytes after object".to_string());
                }
                return Ok(fields);
            }
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
}

fn field<'a>(fields: &'a [(String, Scalar)], key: &str) -> Option<&'a Scalar> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn req_u64(fields: &[(String, Scalar)], key: &str) -> Result<u64, String> {
    field(fields, key)
        .and_then(Scalar::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

fn req_f64(fields: &[(String, Scalar)], key: &str) -> Result<f64, String> {
    match field(fields, key) {
        Some(Scalar::Null) => Ok(f64::NAN), // non-finite values render as null
        Some(v) => v
            .as_f64()
            .ok_or_else(|| format!("non-numeric field {key:?}")),
        None => Err(format!("missing field {key:?}")),
    }
}

fn req_str(fields: &[(String, Scalar)], key: &str) -> Result<String, String> {
    field(fields, key)
        .and_then(Scalar::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

/// Parses and validates one child's JSONL stream from a reader. See
/// [`parse_shard_str`] for the in-memory variant and the list of
/// validations applied.
///
/// # Errors
///
/// Any I/O failure is surfaced as [`FleetError::Parse`] on the
/// offending line; all structural problems map to the corresponding
/// [`FleetError`] variant.
pub fn parse_shard<R: BufRead>(
    reader: R,
    opts: &FleetOptions,
) -> Result<ShardTelemetry, FleetError> {
    let mut parser = ShardParser::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| FleetError::Parse {
            line: idx + 1,
            message: e.to_string(),
        })?;
        parser.line(idx + 1, &line)?;
    }
    parser.finish(opts)
}

/// Parses and validates one child's JSONL stream held in memory.
///
/// Validations: schema-stamped header first ([`FleetError::MissingHeader`] /
/// [`FleetError::UnknownSchema`]), every `span_start` balanced by a
/// `span_end` ([`FleetError::SpanImbalance`]), and per-frame stage
/// self-time within the frame wall-clock up to the skew tolerance
/// ([`FleetError::SelfExceedsWall`]).
///
/// # Errors
///
/// See [`FleetError`].
pub fn parse_shard_str(text: &str, opts: &FleetOptions) -> Result<ShardTelemetry, FleetError> {
    let mut parser = ShardParser::new();
    for (idx, line) in text.lines().enumerate() {
        parser.line(idx + 1, line)?;
    }
    parser.finish(opts)
}

/// Streaming single-shard parser state.
struct ShardParser {
    meta: Option<FleetMeta>,
    saw_any_line: bool,
    open_spans: BTreeMap<u64, usize>,
    span_starts: u64,
    span_ends: u64,
    open_frame: Option<OpenFrame>,
    breakdown: StageBreakdown,
    slo_events: Vec<SloLine>,
}

struct OpenFrame {
    frame: u64,
    stage_self_ms: BTreeMap<String, f64>,
    counter_deltas: BTreeMap<String, u64>,
}

impl ShardParser {
    fn new() -> Self {
        ShardParser {
            meta: None,
            saw_any_line: false,
            open_spans: BTreeMap::new(),
            span_starts: 0,
            span_ends: 0,
            open_frame: None,
            breakdown: StageBreakdown::new(),
            slo_events: Vec::new(),
        }
    }

    fn line(&mut self, line_no: usize, line: &str) -> Result<(), FleetError> {
        if line.trim().is_empty() {
            return Ok(());
        }
        let fields = parse_flat_object(line).map_err(|message| FleetError::Parse {
            line: line_no,
            message,
        })?;
        let wrap = |message: String| FleetError::Parse {
            line: line_no,
            message,
        };
        let ty = req_str(&fields, "type").map_err(wrap)?;

        if !self.saw_any_line {
            self.saw_any_line = true;
            if ty != "meta" {
                return Err(FleetError::MissingHeader);
            }
            let version = req_u64(&fields, "schema_version").map_err(wrap)?;
            if version != u64::from(SCHEMA_VERSION) {
                return Err(FleetError::UnknownSchema { found: version });
            }
            self.meta = Some(FleetMeta {
                run_id: field(&fields, "run_id")
                    .and_then(Scalar::as_str)
                    .unwrap_or_default()
                    .to_string(),
                shard_id: field(&fields, "shard_id")
                    .and_then(Scalar::as_u64)
                    .unwrap_or(0) as u32,
                pid: field(&fields, "pid").and_then(Scalar::as_u64).unwrap_or(0) as u32,
                seed: field(&fields, "seed").and_then(Scalar::as_u64).unwrap_or(0),
                git: field(&fields, "git")
                    .and_then(Scalar::as_str)
                    .map(str::to_string),
            });
            return Ok(());
        }

        match ty.as_str() {
            "meta" => Err(wrap("duplicate meta header".to_string())),
            "frame_start" => {
                let frame = req_u64(&fields, "frame").map_err(wrap)?;
                self.open_frame = Some(OpenFrame {
                    frame,
                    stage_self_ms: BTreeMap::new(),
                    counter_deltas: BTreeMap::new(),
                });
                Ok(())
            }
            "frame_end" => {
                let frame = req_u64(&fields, "frame").map_err(wrap)?;
                let wall_ms = req_f64(&fields, "wall_ms").map_err(wrap)?;
                let open = self.open_frame.take().ok_or_else(|| {
                    wrap(format!("frame_end {frame} without matching frame_start"))
                })?;
                if open.frame != frame {
                    return Err(wrap(format!(
                        "frame_end {frame} closes frame_start {}",
                        open.frame
                    )));
                }
                self.breakdown.push(FrameStats {
                    frame,
                    wall_ms,
                    stages: open.stage_self_ms.into_iter().collect(),
                    counters: open.counter_deltas.into_iter().collect(),
                });
                Ok(())
            }
            "span_start" => {
                let id = req_u64(&fields, "id").map_err(wrap)?;
                self.span_starts += 1;
                self.open_spans.insert(id, line_no);
                Ok(())
            }
            "span_end" => {
                let id = req_u64(&fields, "id").map_err(wrap)?;
                self.span_ends += 1;
                if self.open_spans.remove(&id).is_none() {
                    return Err(FleetError::SpanImbalance {
                        message: format!("span_end id {id} (line {line_no}) has no open start"),
                    });
                }
                let name = req_str(&fields, "name").map_err(wrap)?;
                let self_ms = req_f64(&fields, "self_ms").map_err(wrap)?;
                let frame = field(&fields, "frame").and_then(Scalar::as_u64);
                if let (Some(open), Some(frame)) = (self.open_frame.as_mut(), frame) {
                    if open.frame == frame && self_ms.is_finite() {
                        *open.stage_self_ms.entry(name).or_insert(0.0) += self_ms;
                    }
                }
                Ok(())
            }
            "counter" => {
                let delta = req_u64(&fields, "delta").map_err(wrap)?;
                let name = req_str(&fields, "name").map_err(wrap)?;
                let frame = field(&fields, "frame").and_then(Scalar::as_u64);
                if let (Some(open), Some(frame)) = (self.open_frame.as_mut(), frame) {
                    if open.frame == frame {
                        *open.counter_deltas.entry(name).or_insert(0) += delta;
                    }
                }
                Ok(())
            }
            "gauge" | "histogram" => Ok(()),
            "slo" => {
                self.slo_events.push(SloLine {
                    frame: req_u64(&fields, "frame").map_err(wrap)?,
                    kind: req_str(&fields, "kind").map_err(wrap)?,
                    spec: req_str(&fields, "spec").map_err(wrap)?,
                    metric: req_str(&fields, "metric").map_err(wrap)?,
                    value: req_f64(&fields, "value").map_err(wrap)?,
                    threshold: req_f64(&fields, "threshold").map_err(wrap)?,
                    rung: field(&fields, "rung")
                        .and_then(Scalar::as_str)
                        .map(str::to_string),
                });
                Ok(())
            }
            other => Err(wrap(format!("unknown record type {other:?}"))),
        }
    }

    fn finish(self, opts: &FleetOptions) -> Result<ShardTelemetry, FleetError> {
        if !self.saw_any_line {
            return Err(FleetError::Empty);
        }
        let meta = self.meta.ok_or(FleetError::MissingHeader)?;
        if !self.open_spans.is_empty() {
            let (&id, &line) = self.open_spans.iter().next().expect("non-empty");
            return Err(FleetError::SpanImbalance {
                message: format!(
                    "{} span(s) never closed, first: id {id} opened at line {line}",
                    self.open_spans.len()
                ),
            });
        }
        for fs in &self.breakdown.frames {
            let self_ms = fs.total_stage_ms();
            let limit = fs.wall_ms * (1.0 + opts.skew_tolerance_pct / 100.0) + opts.skew_slack_ms;
            if self_ms > limit {
                return Err(FleetError::SelfExceedsWall {
                    frame: fs.frame,
                    self_ms,
                    wall_ms: fs.wall_ms,
                });
            }
        }
        Ok(ShardTelemetry {
            meta,
            breakdown: self.breakdown,
            slo_events: self.slo_events,
            span_starts: self.span_starts,
            span_ends: self.span_ends,
        })
    }
}

/// Merges N validated shards into one fleet-wide summary.
///
/// Shards must share a run id and carry distinct shard ids; the result
/// is sorted by shard id, and fleet totals are exact sums of the
/// per-shard totals (asserted by construction — the reconciliation
/// tests re-derive both sides independently).
///
/// # Errors
///
/// [`FleetError::NoShards`], [`FleetError::RunIdMismatch`],
/// [`FleetError::DuplicateShard`].
pub fn merge(mut shards: Vec<ShardTelemetry>) -> Result<FleetSummary, FleetError> {
    if shards.is_empty() {
        return Err(FleetError::NoShards);
    }
    shards.sort_by_key(|s| s.meta.shard_id);
    let run_id = shards[0].meta.run_id.clone();
    for pair in shards.windows(2) {
        if pair[1].meta.run_id != run_id {
            return Err(FleetError::RunIdMismatch {
                expected: run_id,
                found: pair[1].meta.run_id.clone(),
            });
        }
        if pair[1].meta.shard_id == pair[0].meta.shard_id {
            return Err(FleetError::DuplicateShard {
                shard_id: pair[0].meta.shard_id,
            });
        }
    }

    let mut stage_totals: BTreeMap<String, f64> = BTreeMap::new();
    let mut counter_totals: BTreeMap<String, u64> = BTreeMap::new();
    let mut latency = Histogram::new();
    let mut frames = 0u64;
    let mut wall_ms = 0.0f64;
    let mut total_self_ms = 0.0f64;
    let mut summaries = Vec::with_capacity(shards.len());

    for shard in shards {
        let shard_stages = shard.breakdown.stage_totals();
        let shard_counters = shard.breakdown.counter_totals();
        for (name, ms) in &shard_stages {
            *stage_totals.entry(name.clone()).or_insert(0.0) += ms;
        }
        for (name, n) in &shard_counters {
            *counter_totals.entry(name.clone()).or_insert(0) += n;
        }
        for fs in &shard.breakdown.frames {
            latency.observe(fs.wall_ms);
        }
        let shard_wall = shard.wall_ms();
        let shard_self = shard.breakdown.total_self_ms();
        frames += shard.frames();
        wall_ms += shard_wall;
        total_self_ms += shard_self;
        let breaches = shard
            .slo_events
            .iter()
            .filter(|e| e.kind == "breach")
            .count() as u64;
        let recoveries = shard.slo_events.len() as u64 - breaches;
        summaries.push(ShardSummary {
            frames: shard.frames(),
            wall_ms: shard_wall,
            total_self_ms: shard_self,
            stage_totals: shard_stages,
            counter_totals: shard_counters,
            breaches,
            recoveries,
            slo_events: shard.slo_events,
            meta: shard.meta,
        });
    }

    Ok(FleetSummary {
        run_id,
        schema_version: SCHEMA_VERSION,
        shards: summaries,
        frames,
        wall_ms,
        total_self_ms,
        stage_totals: stage_totals.into_iter().collect(),
        counter_totals: counter_totals.into_iter().collect(),
        latency: latency.snapshot(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JsonlSink, Recorder};

    /// Drives a recorder through `frames` frames with spans, counters
    /// and an SLO monitor, writing a manifest into a shared buffer.
    fn synth_stream(shard_id: u32, frames: u64, slow: bool) -> String {
        let (sink, buf) = JsonlSink::shared();
        {
            let sink = sink.with_meta(FleetMeta::new("run-7", shard_id, 42 + u64::from(shard_id)));
            let rec = Recorder::with_sink(Box::new(sink));
            let mut mon = crate::SloMonitor::new(vec![crate::SloSpec::max(
                "p95",
                crate::SloMetric::FrameP95Ms,
                1.0,
                2,
            )]);
            for f in 0..frames {
                rec.begin_frame(f);
                {
                    let _outer = rec.span("policy_dispatch");
                    let _inner = rec.span("deferred_acceptance");
                }
                rec.add("match.proposals", 3 + u64::from(shard_id));
                let dispatch_ms = if slow { 50.0 } else { 0.2 };
                rec.observe("frame.dispatch_ms", dispatch_ms);
                for ev in mon.on_frame(&crate::FrameObservation {
                    frame: f,
                    dispatch_ms,
                    served: 1,
                    arrivals: 1,
                    rung: slow.then_some("greedy-nearest"),
                    ckpt_ms: 0.0,
                }) {
                    rec.slo_event(ev);
                }
                rec.end_frame();
            }
            rec.flush();
        }
        buf.contents()
    }

    #[test]
    fn shard_roundtrip_reconstructs_frames_and_meta() {
        let text = synth_stream(3, 5, false);
        let shard = parse_shard_str(&text, &FleetOptions::default()).unwrap();
        assert_eq!(shard.meta.run_id, "run-7");
        assert_eq!(shard.meta.shard_id, 3);
        assert_eq!(shard.meta.seed, 45);
        assert_eq!(shard.meta.pid, std::process::id());
        assert_eq!(shard.frames(), 5);
        assert_eq!(shard.span_starts, shard.span_ends);
        assert_eq!(shard.span_starts, 10, "2 spans per frame x 5 frames");
        assert_eq!(shard.breakdown.counter_total("match.proposals"), 30);
        let stages: Vec<String> = shard
            .breakdown
            .stage_totals()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(stages, vec!["deferred_acceptance", "policy_dispatch"]);
    }

    #[test]
    fn merge_reconciles_exactly_with_individual_shards() {
        let streams: Vec<String> = (0..3)
            .map(|s| synth_stream(s, 4 + u64::from(s), false))
            .collect();
        let shards: Vec<ShardTelemetry> = streams
            .iter()
            .map(|t| parse_shard_str(t, &FleetOptions::default()).unwrap())
            .collect();
        let expect_frames: u64 = shards.iter().map(ShardTelemetry::frames).sum();
        let expect_self: f64 = shards.iter().map(|s| s.breakdown.total_self_ms()).sum();
        let expect_props: u64 = shards
            .iter()
            .map(|s| s.breakdown.counter_total("match.proposals"))
            .sum();

        let fleet = merge(shards).unwrap();
        assert_eq!(fleet.run_id, "run-7");
        assert_eq!(fleet.frames, expect_frames);
        assert!((fleet.total_self_ms - expect_self).abs() < 1e-9);
        assert_eq!(
            fleet
                .counter_totals
                .iter()
                .find(|(n, _)| n == "match.proposals")
                .map(|(_, v)| *v),
            Some(expect_props)
        );
        // Per-shard attribution survives the merge, sorted by shard id.
        assert_eq!(fleet.shards.len(), 3);
        for (i, s) in fleet.shards.iter().enumerate() {
            assert_eq!(s.meta.shard_id, i as u32);
            assert_eq!(s.frames, 4 + i as u64);
        }
        // The fleet latency histogram saw every frame.
        assert_eq!(fleet.latency.count, expect_frames);
    }

    #[test]
    fn slo_breaches_survive_the_roundtrip_with_rung() {
        let text = synth_stream(0, 4, true);
        let shard = parse_shard_str(&text, &FleetOptions::default()).unwrap();
        assert!(!shard.slo_events.is_empty());
        let breach = &shard.slo_events[0];
        assert_eq!(breach.kind, "breach");
        assert_eq!(breach.spec, "p95");
        assert_eq!(breach.metric, "frame_p95_ms");
        assert_eq!(breach.rung.as_deref(), Some("greedy-nearest"));
        let fleet = merge(vec![shard]).unwrap();
        assert_eq!(fleet.shards[0].breaches, 1);
    }

    #[test]
    fn missing_header_and_unknown_schema_are_rejected() {
        let no_header = "{\"type\":\"frame_start\",\"frame\":0}\n";
        assert_eq!(
            parse_shard_str(no_header, &FleetOptions::default()),
            Err(FleetError::MissingHeader)
        );
        let future = "{\"type\":\"meta\",\"schema_version\":99}\n";
        assert_eq!(
            parse_shard_str(future, &FleetOptions::default()),
            Err(FleetError::UnknownSchema { found: 99 })
        );
        assert_eq!(
            parse_shard_str("", &FleetOptions::default()),
            Err(FleetError::Empty)
        );
    }

    #[test]
    fn span_imbalance_is_detected() {
        let mut text = String::from("{\"type\":\"meta\",\"schema_version\":2}\n");
        text.push_str(
            "{\"type\":\"span_start\",\"id\":0,\"parent\":null,\"name\":\"a\",\"frame\":null}\n",
        );
        let err = parse_shard_str(&text, &FleetOptions::default()).unwrap_err();
        assert!(matches!(err, FleetError::SpanImbalance { .. }), "{err}");
        let mut text = String::from("{\"type\":\"meta\",\"schema_version\":2}\n");
        text.push_str(
            "{\"type\":\"span_end\",\"id\":9,\"name\":\"a\",\"total_ms\":1.0,\"self_ms\":1.0,\"frame\":null}\n",
        );
        let err = parse_shard_str(&text, &FleetOptions::default()).unwrap_err();
        assert!(matches!(err, FleetError::SpanImbalance { .. }), "{err}");
    }

    #[test]
    fn self_exceeding_wall_beyond_tolerance_is_rejected() {
        let mut text = String::from("{\"type\":\"meta\",\"schema_version\":2}\n");
        text.push_str("{\"type\":\"frame_start\",\"frame\":0}\n");
        text.push_str(
            "{\"type\":\"span_start\",\"id\":0,\"parent\":null,\"name\":\"a\",\"frame\":0}\n",
        );
        text.push_str(
            "{\"type\":\"span_end\",\"id\":0,\"name\":\"a\",\"total_ms\":9.0,\"self_ms\":9.0,\"frame\":0}\n",
        );
        text.push_str("{\"type\":\"frame_end\",\"frame\":0,\"wall_ms\":1.0}\n");
        let err = parse_shard_str(&text, &FleetOptions::default()).unwrap_err();
        assert!(
            matches!(err, FleetError::SelfExceedsWall { frame: 0, .. }),
            "{err}"
        );
        // A generous tolerance accepts the same stream.
        let lax = FleetOptions {
            skew_tolerance_pct: 1000.0,
            skew_slack_ms: 0.5,
        };
        assert!(parse_shard_str(&text, &lax).is_ok());
    }

    #[test]
    fn merge_rejects_mixed_runs_and_duplicate_shards() {
        let a = parse_shard_str(&synth_stream(0, 2, false), &FleetOptions::default()).unwrap();
        let mut b = parse_shard_str(&synth_stream(1, 2, false), &FleetOptions::default()).unwrap();
        b.meta.run_id = "other-run".to_string();
        assert!(matches!(
            merge(vec![a.clone(), b]),
            Err(FleetError::RunIdMismatch { .. })
        ));
        let dup = a.clone();
        assert_eq!(
            merge(vec![a.clone(), dup]),
            Err(FleetError::DuplicateShard { shard_id: 0 })
        );
        assert_eq!(merge(Vec::new()), Err(FleetError::NoShards));
    }
}
