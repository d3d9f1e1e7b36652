//! Machine-readable benchmark output (`results/BENCH_<name>.json`).
//!
//! The figure binaries print human-readable tables; this module gives the
//! same runs a stable machine-readable form so perf and quality can be
//! tracked across commits without scraping stdout. The writer is a tiny
//! hand-rolled JSON emitter (the build environment is offline, so no
//! serde) — good enough because every value we emit is a number, a
//! string, an array or an object.

use crate::ExperimentOpts;
use o2o_sim::SimReport;
use std::fmt;
use std::path::{Path, PathBuf};

/// A JSON value. Build with the `From` impls and [`Json::obj`] /
/// [`Json::arr`]; render with `Display` (pretty-printed, 2-space indent).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what non-finite floats render as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; emitted with enough digits to round-trip.
    Num(f64),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs (keys keep insertion order).
    #[must_use]
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from anything convertible to JSON values.
    #[must_use]
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// Parses a JSON document (the counterpart of the `Display` emitter;
    /// everything the emitter writes parses back to an equal value).
    ///
    /// # Errors
    ///
    /// Returns a description with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at offset {}",
                char::from(b),
                self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("invalid number at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| {
                                    format!("invalid \\u escape at offset {}", self.pos)
                                })?;
                            // Surrogates are not paired (the emitter never
                            // writes them); map them to the replacement char.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("invalid escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through unchanged.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| format!("invalid UTF-8 at offset {}", self.pos))?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Num(f64::from(v))
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.into())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Self {
        Json::Arr(v)
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

fn write_indented(f: &mut fmt::Formatter<'_>, v: &Json, indent: usize) -> fmt::Result {
    let pad = "  ".repeat(indent);
    let inner = "  ".repeat(indent + 1);
    match v {
        Json::Null => f.write_str("null"),
        Json::Bool(b) => write!(f, "{b}"),
        Json::Num(x) if !x.is_finite() => f.write_str("null"),
        Json::Num(x) => {
            // Integers without a fraction part; floats with the shortest
            // representation that round-trips ({:?} on f64).
            if x.fract() == 0.0 && x.abs() < 9.0e15 {
                write!(f, "{}", *x as i64)
            } else {
                write!(f, "{x:?}")
            }
        }
        Json::Str(s) => write_escaped(f, s),
        Json::Arr(items) if items.is_empty() => f.write_str("[]"),
        // Arrays of scalars stay on one line; nested structures wrap.
        Json::Arr(items)
            if items
                .iter()
                .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_))) =>
        {
            f.write_str("[")?;
            for (k, item) in items.iter().enumerate() {
                if k > 0 {
                    f.write_str(", ")?;
                }
                write_indented(f, item, indent)?;
            }
            f.write_str("]")
        }
        Json::Arr(items) => {
            f.write_str("[\n")?;
            for (k, item) in items.iter().enumerate() {
                f.write_str(&inner)?;
                write_indented(f, item, indent + 1)?;
                f.write_str(if k + 1 < items.len() { ",\n" } else { "\n" })?;
            }
            write!(f, "{pad}]")
        }
        Json::Obj(fields) if fields.is_empty() => f.write_str("{}"),
        Json::Obj(fields) => {
            f.write_str("{\n")?;
            for (k, (key, value)) in fields.iter().enumerate() {
                f.write_str(&inner)?;
                write_escaped(f, key)?;
                f.write_str(": ")?;
                write_indented(f, value, indent + 1)?;
                f.write_str(if k + 1 < fields.len() { ",\n" } else { "\n" })?;
            }
            write!(f, "{pad}}}")
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_indented(f, self, 0)
    }
}

/// One policy's metrics block: the paper's three metrics, serving
/// statistics and the dispatch wall-clock series the engine recorded.
#[must_use]
pub fn policy_json(r: &SimReport) -> Json {
    Json::obj(vec![
        ("policy", r.policy.as_str().into()),
        // The run's outcome digest (see `crate::digests`).
        (
            "digest",
            format!("{:016x}", r.deterministic_digest()).into(),
        ),
        ("served", r.served.into()),
        ("unserved_at_end", r.unserved_at_end.into()),
        ("frames", r.frames.into()),
        ("avg_delay_min", r.avg_delay_min().into()),
        (
            "frac_delay_le_1min",
            r.delay_cdf().fraction_at_most(1.0).into(),
        ),
        (
            "avg_passenger_dissatisfaction_km",
            r.avg_passenger_dissatisfaction().into(),
        ),
        (
            "avg_taxi_dissatisfaction_km",
            r.avg_taxi_dissatisfaction().into(),
        ),
        ("sharing_rate", r.sharing_rate().into()),
        ("total_drive_km", r.total_drive_km.into()),
        ("peak_queue", r.peak_queue().into()),
        ("total_dispatch_ms", r.total_dispatch_ms().into()),
        ("avg_dispatch_ms_per_frame", r.avg_dispatch_ms().into()),
        ("max_dispatch_ms", r.max_dispatch_ms().into()),
        (
            "dispatch_ms_by_frame",
            Json::arr(r.dispatch_ms_by_frame.iter().copied()),
        ),
        ("total_cache_hits", r.total_cache_hits().into()),
        ("total_cache_misses", r.total_cache_misses().into()),
        ("cache_hit_rate", r.cache_hit_rate().into()),
        ("anytime_frames", r.total_anytime_frames().into()),
        ("anytime_nodes_total", r.total_anytime_nodes().into()),
        (
            "anytime_final_gap",
            r.final_anytime_gap().map_or(Json::Null, Json::from),
        ),
        // Per-frame gap series only when the anytime search actually ran,
        // so non-anytime policies don't carry a zero-filled array.
        (
            "anytime_gap_by_frame",
            if r.total_anytime_frames() > 0 {
                Json::arr(r.anytime_gap_by_frame())
            } else {
                Json::Null
            },
        ),
        ("stage_breakdown", stage_breakdown_json(&r.stage_breakdown)),
    ])
}

/// Aggregate view of a run's [`StageBreakdown`](o2o_obs::StageBreakdown): per-stage total
/// self-time and per-counter totals across every dispatched frame (the
/// per-frame series stays in the report; JSON carries the aggregate so
/// files stay small at full scale).
#[must_use]
pub fn stage_breakdown_json(b: &o2o_obs::StageBreakdown) -> Json {
    Json::obj(vec![
        ("frames_recorded", b.frames.len().into()),
        ("total_self_ms", b.total_self_ms().into()),
        (
            "stage_totals_ms",
            Json::Obj(
                b.stage_totals()
                    .into_iter()
                    .map(|(name, ms)| (name, Json::from(ms)))
                    .collect(),
            ),
        ),
        (
            "counter_totals",
            Json::Obj(
                b.counter_totals()
                    .into_iter()
                    .map(|(name, v)| (name, Json::from(v)))
                    .collect(),
            ),
        ),
    ])
}

/// The standard envelope of one benchmark run: name, experiment options
/// and the benchmark-specific body fields.
#[must_use]
pub fn bench_envelope(name: &str, opts: &ExperimentOpts, body: Vec<(&str, Json)>) -> Json {
    let mut fields = vec![
        ("bench", Json::from(name)),
        ("scale", opts.scale.into()),
        ("seed", opts.seed.into()),
        (
            "params",
            Json::obj(vec![
                ("alpha", opts.params.alpha.into()),
                ("beta", opts.params.beta.into()),
                ("taxi_threshold", opts.params.taxi_threshold.into()),
                (
                    "passenger_threshold",
                    opts.params.passenger_threshold.into(),
                ),
                ("detour_threshold", opts.params.detour_threshold.into()),
            ]),
        ),
    ];
    fields.extend(body);
    Json::obj(fields)
}

/// The workspace-root `results/` directory (anchored via
/// `CARGO_MANIFEST_DIR` so binaries and `cargo bench` targets — which
/// run with different working directories — agree on the location).
#[must_use]
pub fn results_dir() -> PathBuf {
    // crates/bench/ -> workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("manifest dir has a workspace root");
    root.join("results")
}

/// Writes `value` to `results/BENCH_<name>.json` (see [`results_dir`])
/// and returns the path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_bench_json(name: &str, value: &Json) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, format!("{value}\n"))?;
    Ok(path)
}

/// One fleet shard's summary block inside [`fleet_json`].
fn shard_summary_json(s: &o2o_obs::ShardSummary) -> Json {
    Json::obj(vec![
        ("shard_id", s.meta.shard_id.into()),
        ("pid", s.meta.pid.into()),
        ("seed", s.meta.seed.into()),
        ("git", s.meta.git.as_deref().map_or(Json::Null, Json::from)),
        ("frames", s.frames.into()),
        ("wall_ms", s.wall_ms.into()),
        ("total_self_ms", s.total_self_ms.into()),
        (
            "stage_totals_ms",
            Json::Obj(
                s.stage_totals
                    .iter()
                    .map(|(name, ms)| (name.clone(), Json::from(*ms)))
                    .collect(),
            ),
        ),
        (
            "counter_totals",
            Json::Obj(
                s.counter_totals
                    .iter()
                    .map(|(name, v)| (name.clone(), Json::from(*v)))
                    .collect(),
            ),
        ),
        ("slo_breaches", s.breaches.into()),
        ("slo_recoveries", s.recoveries.into()),
        (
            "slo_events",
            Json::Arr(
                s.slo_events
                    .iter()
                    .map(|e| {
                        Json::obj(vec![
                            ("frame", e.frame.into()),
                            ("kind", e.kind.as_str().into()),
                            ("spec", e.spec.as_str().into()),
                            ("metric", e.metric.as_str().into()),
                            ("value", e.value.into()),
                            ("threshold", e.threshold.into()),
                            ("rung", e.rung.as_deref().map_or(Json::Null, Json::from)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// A merged [`FleetSummary`](o2o_obs::FleetSummary) as the
/// `results/FLEET_<name>.json` document: fleet-wide totals, the pooled
/// frame-latency histogram, and one per-shard attribution block
/// (including each shard's SLO breach timeline). See `DESIGN.md` §8 for
/// the schema.
#[must_use]
pub fn fleet_json(fleet: &o2o_obs::FleetSummary) -> Json {
    Json::obj(vec![
        ("run_id", fleet.run_id.as_str().into()),
        ("schema_version", fleet.schema_version.into()),
        ("shard_count", fleet.shards.len().into()),
        ("frames", fleet.frames.into()),
        ("wall_ms", fleet.wall_ms.into()),
        ("total_self_ms", fleet.total_self_ms.into()),
        (
            "stage_totals_ms",
            Json::Obj(
                fleet
                    .stage_totals
                    .iter()
                    .map(|(name, ms)| (name.clone(), Json::from(*ms)))
                    .collect(),
            ),
        ),
        (
            "counter_totals",
            Json::Obj(
                fleet
                    .counter_totals
                    .iter()
                    .map(|(name, v)| (name.clone(), Json::from(*v)))
                    .collect(),
            ),
        ),
        (
            "frame_latency_hist",
            Json::obj(vec![
                ("edges_ms", Json::arr(fleet.latency.edges.iter().copied())),
                ("counts", Json::arr(fleet.latency.counts.iter().copied())),
                ("count", fleet.latency.count.into()),
                ("sum_ms", fleet.latency.sum.into()),
            ]),
        ),
        (
            "shards",
            Json::Arr(fleet.shards.iter().map(shard_summary_json).collect()),
        ),
    ])
}

/// Writes the JSON and prints the path to stderr (the figure binaries'
/// one-liner). Failures are reported, not fatal: the tables on stdout
/// are still the primary output.
pub fn emit_bench_json(name: &str, value: &Json) {
    match write_bench_json(name, value) {
        Ok(path) => eprintln!("{name}: wrote {}", path.display()),
        Err(e) => eprintln!("{name}: could not write benchmark JSON: {e}"),
    }
}

/// The standard figure-binary emission: envelope + one metrics block per
/// policy, written to `results/BENCH_<name>.json`.
pub fn emit_policies_json(name: &str, opts: &ExperimentOpts, reports: &[SimReport]) {
    let body = vec![(
        "policies",
        Json::Arr(reports.iter().map(policy_json).collect()),
    )];
    emit_bench_json(name, &bench_envelope(name, opts, body));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::from(true).to_string(), "true");
        assert_eq!(Json::from(3.0).to_string(), "3");
        assert_eq!(Json::from(0.25).to_string(), "0.25");
        assert_eq!(Json::from(f64::NAN).to_string(), "null");
        assert_eq!(Json::from("a\"b\n").to_string(), "\"a\\\"b\\n\"");
    }

    #[test]
    fn numbers_round_trip() {
        // The shortest-repr path must preserve exact values.
        let x = 0.1 + 0.2;
        let s = Json::from(x).to_string();
        assert_eq!(s.parse::<f64>().unwrap(), x);
    }

    #[test]
    fn scalar_arrays_stay_inline() {
        let j = Json::arr([1.0, 2.5]);
        assert_eq!(j.to_string(), "[1, 2.5]");
        assert_eq!(Json::Arr(vec![]).to_string(), "[]");
    }

    #[test]
    fn objects_nest_with_indent() {
        let j = Json::obj(vec![
            ("name", "fig".into()),
            ("rows", Json::Arr(vec![Json::obj(vec![("x", 1.0.into())])])),
        ]);
        let s = j.to_string();
        assert!(s.contains("\"name\": \"fig\""));
        assert!(s.contains("    {\n      \"x\": 1\n    }"));
    }

    #[test]
    fn parse_round_trips_everything_the_emitter_writes() {
        let j = Json::obj(vec![
            ("name", "fig \"x\"\n".into()),
            ("ok", true.into()),
            ("miss", Json::Null),
            ("nums", Json::arr([1.0, -2.5, 1e-3, 9.0e15])),
            (
                "rows",
                Json::Arr(vec![Json::obj(vec![
                    ("x", 0.30000000000000004.into()),
                    ("tags", Json::arr(["a", "b"])),
                ])]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        let parsed = Json::parse(&j.to_string()).unwrap();
        assert_eq!(parsed, j);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn accessors_navigate_parsed_documents() {
        let j = Json::parse(r#"{"a": {"b": [1, "two", null]}, "c": 3}"#).unwrap();
        assert_eq!(j.get("c").and_then(Json::as_f64), Some(3.0));
        let arr = j.get("a").and_then(|a| a.get("b")).and_then(Json::as_arr);
        let arr = arr.unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_str(), Some("two"));
        assert!(j.get("missing").is_none());
        assert!(arr[2].get("x").is_none());
    }

    #[test]
    fn policy_json_carries_timing() {
        let trace = o2o_trace::boston_september_2012(0.001).taxis(3).generate(5);
        let reports = crate::run_policies(
            &trace,
            &[crate::PolicyKind::Near],
            o2o_core::PreferenceParams::default(),
            o2o_sim::SimConfig::default(),
        );
        let j = policy_json(&reports[0]);
        let s = j.to_string();
        assert!(s.contains("\"policy\": \"Near\""));
        let digest = format!("\"digest\": \"{:016x}\"", reports[0].deterministic_digest());
        assert!(s.contains(&digest));
        assert!(s.contains("\"dispatch_ms_by_frame\": ["));
        assert!(s.contains("\"total_dispatch_ms\""));
        assert!(s.contains("\"cache_hit_rate\""));
        // Anytime fields ride along even when the policy never ran the
        // anytime search: zero totals, null gap.
        assert!(s.contains("\"anytime_nodes_total\": 0"));
        assert!(s.contains("\"anytime_final_gap\": null"));
        assert!(s.contains("\"anytime_gap_by_frame\": null"));
    }

    #[test]
    fn policy_json_reports_cache_effectiveness_for_cached_policies() {
        let trace = o2o_trace::boston_september_2012(0.001).taxis(3).generate(5);
        let params = o2o_core::PreferenceParams::default();
        let mut cached = o2o_sim::policy::cached(o2o_geo::Euclidean, |metric| {
            o2o_sim::policy::std_p(metric, params)
        });
        let report =
            o2o_sim::Simulator::new(o2o_sim::SimConfig::default()).run(&trace, &mut cached);
        // Behind a per-frame distance cache the counters must be live
        // (misses at minimum; hits whenever a frame repeats a query).
        assert!(report.total_cache_misses() > 0);
        let s = policy_json(&report).to_string();
        assert!(s.contains("\"total_cache_misses\""));
        // The stage breakdown rides along: aggregate self-times per
        // pipeline stage plus counter totals.
        assert!(s.contains("\"stage_breakdown\""));
        assert!(s.contains("\"stage_totals_ms\""));
        assert!(s.contains("\"policy_dispatch\""));
        assert!(s.contains("\"cache.misses\""));
    }
}
