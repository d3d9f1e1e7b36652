//! Event sinks: where recorded [`Event`]s go.
//!
//! The recorder delivers every event, in recording order, to each of its
//! sinks. Sinks must never panic the pipeline: I/O errors are swallowed
//! (telemetry degrades, dispatch does not).

use crate::fleet::FleetMeta;
use crate::{Event, SloEvent, SCHEMA_VERSION};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Receives every [`Event`] a recorder emits.
pub trait EventSink {
    /// Called once per event, in recording order.
    fn record(&mut self, event: &Event);
    /// Flushes any buffered output (called by
    /// [`Recorder::flush`](crate::Recorder::flush)).
    fn flush(&mut self) {}
}

/// In-memory sink for tests: stores every event; a cloneable
/// `MemoryHandle` reads them back.
#[derive(Debug)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<Event>>>,
}

/// Read side of a [`MemorySink`].
#[derive(Debug, Clone)]
pub struct MemoryHandle {
    events: Arc<Mutex<Vec<Event>>>,
}

impl MemorySink {
    /// A new sink plus the handle that reads its events.
    #[must_use]
    pub fn new() -> (MemorySink, MemoryHandle) {
        let events = Arc::new(Mutex::new(Vec::new()));
        (
            MemorySink {
                events: Arc::clone(&events),
            },
            MemoryHandle { events },
        )
    }
}

impl EventSink for MemorySink {
    fn record(&mut self, event: &Event) {
        if let Ok(mut g) = self.events.lock() {
            g.push(event.clone());
        }
    }
}

impl MemoryHandle {
    /// A copy of every event recorded so far.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().map(|g| g.clone()).unwrap_or_default()
    }

    /// Number of events recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.lock().map(|g| g.len()).unwrap_or(0)
    }

    /// Whether no event has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A shared in-memory byte buffer usable as a [`JsonlSink`] target in
/// tests (the sink is owned by the recorder; the buffer stays readable).
#[derive(Debug, Clone, Default)]
pub struct SharedBuffer {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl SharedBuffer {
    /// An empty shared buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The buffer contents decoded as UTF-8 (lossy).
    #[must_use]
    pub fn contents(&self) -> String {
        self.bytes
            .lock()
            .map(|g| String::from_utf8_lossy(&g).into_owned())
            .unwrap_or_default()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Ok(mut g) = self.bytes.lock() {
            g.extend_from_slice(buf);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Streams events as JSON Lines: one self-describing JSON object per
/// event per line, fields in a fixed documented order (see `DESIGN.md`
/// §8 for the schema). The stream is valid line-delimited JSON that
/// `python3 -c "import json; …"` or `jq` parse directly.
///
/// # The schema header
///
/// The first record of every stream is a `meta` line carrying
/// [`SCHEMA_VERSION`] — the schema is self-describing, and readers
/// (the fleet aggregator, the CI re-parse step) reject versions they
/// do not understand. Fleet children extend the header with their
/// [`FleetMeta`] identity via [`with_meta`](Self::with_meta). The
/// header is written lazily, immediately before the first event (or on
/// flush/drop for an eventless stream), so `with_meta` can be chained
/// after construction.
///
/// # Crash durability
///
/// Each line is rendered completely before any byte reaches the writer,
/// so the stream never contains a partially escaped record; dropping the
/// sink flushes whatever is buffered, so a normally-unwinding process
/// (including a panic) leaves a whole-line log. A process killed
/// outright (SIGKILL) loses whatever still sits in the write buffer —
/// opt into [`with_sync_on_frame_end`](Self::with_sync_on_frame_end) to
/// hand the buffer to the OS at every frame boundary, which bounds the
/// loss to the frame in flight.
pub struct JsonlSink {
    out: BufWriter<Box<dyn Write + Send>>,
    line: String,
    sync_on_frame_end: bool,
    meta: Option<FleetMeta>,
    header_written: bool,
}

impl JsonlSink {
    /// Write-buffer capacity. Event lines are ~100 bytes; a generous
    /// buffer keeps the per-event cost at a memcpy and amortises the
    /// underlying writes far below the event rate.
    const BUF_CAPACITY: usize = 256 * 1024;

    /// A sink writing to `out`.
    #[must_use]
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out: BufWriter::with_capacity(Self::BUF_CAPACITY, out),
            line: String::new(),
            sync_on_frame_end: false,
            meta: None,
            header_written: false,
        }
    }

    /// Stamps the stream's `meta` header with a fleet child identity
    /// (run id, shard id, pid, seed, git-describe), turning the log
    /// into a fleet telemetry manifest that
    /// [`fleet::parse_shard`](crate::fleet::parse_shard) can attribute.
    /// Must be called before the first event is recorded; afterwards
    /// the header has already been written and the call is ignored.
    #[must_use]
    pub fn with_meta(mut self, meta: FleetMeta) -> Self {
        if !self.header_written {
            self.meta = Some(meta);
        }
        self
    }

    /// Renders and writes the schema header if it has not gone out yet.
    fn write_header(&mut self) {
        if self.header_written {
            return;
        }
        self.header_written = true;
        let mut line = std::mem::take(&mut self.line);
        line.clear();
        let _ = write!(
            line,
            "{{\"type\":\"meta\",\"schema_version\":{SCHEMA_VERSION}"
        );
        if let Some(meta) = &self.meta {
            line.push_str(",\"run_id\":");
            push_str(&mut line, &meta.run_id);
            let _ = write!(
                line,
                ",\"shard_id\":{},\"pid\":{},\"seed\":{}",
                meta.shard_id, meta.pid, meta.seed
            );
            line.push_str(",\"git\":");
            match &meta.git {
                Some(git) => push_str(&mut line, git),
                None => line.push_str("null"),
            }
        }
        line.push_str("}\n");
        let _ = self.out.write_all(line.as_bytes());
        self.line = line;
    }

    /// Flushes the write buffer to the underlying writer after every
    /// [`Event::FrameEnd`], so a crash loses at most the frame in
    /// flight instead of up to `BUF_CAPACITY` of
    /// buffered history. Costs one buffered-writer flush per frame;
    /// leave it off for throughput-bound runs that can afford to lose
    /// the tail on a kill.
    #[must_use]
    pub fn with_sync_on_frame_end(mut self) -> Self {
        self.sync_on_frame_end = true;
        self
    }

    /// Whether the sink flushes at every frame boundary.
    #[must_use]
    pub fn sync_on_frame_end(&self) -> bool {
        self.sync_on_frame_end
    }

    /// A sink writing to the file at `path` (created/truncated).
    ///
    /// # Errors
    ///
    /// Propagates the error when the file cannot be created.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(Self::new(Box::new(File::create(path)?)))
    }

    /// A sink writing into an in-memory [`SharedBuffer`], plus the
    /// buffer itself for reading the log back (used by tests).
    #[must_use]
    pub fn shared() -> (Self, SharedBuffer) {
        let buf = SharedBuffer::new();
        (Self::new(Box::new(buf.clone())), buf)
    }

    fn render(line: &mut String, event: &Event) {
        line.clear();
        match event {
            Event::FrameStart { frame } => {
                let _ = write!(line, "{{\"type\":\"frame_start\",\"frame\":{frame}}}");
            }
            Event::FrameEnd { frame, wall_ms } => {
                let _ = write!(
                    line,
                    "{{\"type\":\"frame_end\",\"frame\":{frame},\"wall_ms\":"
                );
                push_f64(line, *wall_ms);
                line.push('}');
            }
            Event::SpanStart {
                id,
                parent,
                name,
                frame,
            } => {
                let _ = write!(line, "{{\"type\":\"span_start\",\"id\":{id},\"parent\":");
                push_opt_u64(line, *parent);
                line.push_str(",\"name\":");
                push_str(line, name);
                line.push_str(",\"frame\":");
                push_opt_u64(line, *frame);
                line.push('}');
            }
            Event::SpanEnd {
                id,
                name,
                total_ms,
                self_ms,
                frame,
            } => {
                let _ = write!(line, "{{\"type\":\"span_end\",\"id\":{id},\"name\":");
                push_str(line, name);
                line.push_str(",\"total_ms\":");
                push_f64(line, *total_ms);
                line.push_str(",\"self_ms\":");
                push_f64(line, *self_ms);
                line.push_str(",\"frame\":");
                push_opt_u64(line, *frame);
                line.push('}');
            }
            Event::Counter {
                name,
                delta,
                total,
                frame,
            } => {
                line.push_str("{\"type\":\"counter\",\"name\":");
                push_str(line, name);
                let _ = write!(line, ",\"delta\":{delta},\"total\":{total},\"frame\":");
                push_opt_u64(line, *frame);
                line.push('}');
            }
            Event::Gauge { name, value, frame } => {
                line.push_str("{\"type\":\"gauge\",\"name\":");
                push_str(line, name);
                line.push_str(",\"value\":");
                push_f64(line, *value);
                line.push_str(",\"frame\":");
                push_opt_u64(line, *frame);
                line.push('}');
            }
            Event::Histogram {
                name,
                value,
                bucket,
                frame,
            } => {
                line.push_str("{\"type\":\"histogram\",\"name\":");
                push_str(line, name);
                line.push_str(",\"value\":");
                push_f64(line, *value);
                let _ = write!(line, ",\"bucket\":{bucket},\"frame\":");
                push_opt_u64(line, *frame);
                line.push('}');
            }
            Event::Slo(ev) => {
                let (kind, spec, metric, value, threshold, frame, rung) = match ev {
                    SloEvent::Breach {
                        spec,
                        metric,
                        value,
                        threshold,
                        frame,
                        rung,
                    } => ("breach", spec, metric, value, threshold, frame, *rung),
                    SloEvent::Recover {
                        spec,
                        metric,
                        value,
                        threshold,
                        frame,
                    } => ("recover", spec, metric, value, threshold, frame, None),
                };
                let _ = write!(line, "{{\"type\":\"slo\",\"kind\":\"{kind}\",\"spec\":");
                push_str(line, spec);
                let _ = write!(line, ",\"metric\":\"{}\",\"value\":", metric.as_str());
                push_f64(line, *value);
                line.push_str(",\"threshold\":");
                push_f64(line, *threshold);
                line.push_str(",\"rung\":");
                match rung {
                    Some(r) => push_str(line, r),
                    None => line.push_str("null"),
                }
                let _ = write!(line, ",\"frame\":{frame}}}");
            }
        }
        line.push('\n');
    }
}

impl EventSink for JsonlSink {
    fn record(&mut self, event: &Event) {
        self.write_header();
        let mut line = std::mem::take(&mut self.line);
        Self::render(&mut line, event);
        let _ = self.out.write_all(line.as_bytes());
        self.line = line;
        if self.sync_on_frame_end && matches!(event, Event::FrameEnd { .. }) {
            let _ = self.out.flush();
        }
    }

    fn flush(&mut self) {
        self.write_header();
        let _ = self.out.flush();
    }
}

impl Drop for JsonlSink {
    /// Flushes buffered lines so a dropped sink — end of run or unwind —
    /// leaves a whole-line log with no partially escaped trailing
    /// record. (`BufWriter` would flush on drop anyway; the explicit
    /// impl makes the guarantee part of the sink's contract rather than
    /// an implementation detail of its buffer.)
    fn drop(&mut self) {
        self.write_header();
        let _ = self.out.flush();
    }
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

/// Appends a JSON string literal (quoted, escaped). Instrument names
/// are clean static identifiers, so the common case is a single bulk
/// copy; the per-character escape walk only runs when a quote,
/// backslash or control character is actually present.
fn push_str(out: &mut String, s: &str) {
    out.push('"');
    if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
        out.push_str(s);
    } else {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
    }
    out.push('"');
}

/// Appends an f64 as a JSON number (`null` for non-finite values, which
/// JSON cannot represent).
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` round-trips f64 through text exactly.
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

fn push_opt_u64(out: &mut String, v: Option<u64>) {
    match v {
        Some(v) => {
            let _ = write!(out, "{v}");
        }
        None => out.push_str("null"),
    }
}

/// Aggregates events into an end-of-run table written once — on the
/// first [`flush`](EventSink::flush) (the recorder flushes sinks at end
/// of run) or on drop, whichever comes first.
pub struct SummarySink {
    out: Box<dyn Write + Send>,
    counters: BTreeMap<&'static str, u64>,
    /// Per span name: `(closures, total_ms, self_ms)`.
    spans: BTreeMap<&'static str, (u64, f64, f64)>,
    frames: u64,
    frame_wall_ms: f64,
    rendered: bool,
}

impl SummarySink {
    /// A sink rendering its table to `out`.
    #[must_use]
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        SummarySink {
            out,
            counters: BTreeMap::new(),
            spans: BTreeMap::new(),
            frames: 0,
            frame_wall_ms: 0.0,
            rendered: false,
        }
    }

    fn render(&mut self) {
        if self.rendered {
            return;
        }
        self.rendered = true;
        let mut text = String::new();
        let _ = writeln!(
            text,
            "== observability summary: {} frames, {:.3} ms dispatch wall ==",
            self.frames, self.frame_wall_ms
        );
        if !self.spans.is_empty() {
            let _ = writeln!(
                text,
                "{:<28} {:>8} {:>12} {:>12}",
                "stage", "spans", "total_ms", "self_ms"
            );
            for (name, (count, total, selfms)) in &self.spans {
                let _ = writeln!(text, "{name:<28} {count:>8} {total:>12.3} {selfms:>12.3}");
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(text, "{:<28} {:>12}", "counter", "total");
            for (name, total) in &self.counters {
                let _ = writeln!(text, "{name:<28} {total:>12}");
            }
        }
        let _ = self.out.write_all(text.as_bytes());
        let _ = self.out.flush();
    }
}

impl EventSink for SummarySink {
    fn record(&mut self, event: &Event) {
        match event {
            Event::FrameEnd { wall_ms, .. } => {
                self.frames += 1;
                self.frame_wall_ms += wall_ms;
            }
            Event::SpanEnd {
                name,
                total_ms,
                self_ms,
                ..
            } => {
                let e = self.spans.entry(name).or_insert((0, 0.0, 0.0));
                e.0 += 1;
                e.1 += total_ms;
                e.2 += self_ms;
            }
            Event::Counter { name, total, .. } => {
                self.counters.insert(name, *total);
            }
            _ => {}
        }
    }

    fn flush(&mut self) {
        self.render();
    }
}

impl Drop for SummarySink {
    fn drop(&mut self) {
        self.render();
    }
}

impl std::fmt::Debug for SummarySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SummarySink")
            .field("frames", &self.frames)
            .field("rendered", &self.rendered)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    #[test]
    fn jsonl_field_order_is_fixed() {
        let (sink, buf) = JsonlSink::shared();
        let rec = Recorder::with_sink(Box::new(sink));
        rec.begin_frame(0);
        rec.add("cache.hits", 2);
        {
            let _s = rec.span("stage");
        }
        rec.gauge("queue", 3.0);
        rec.observe("ms", 0.5);
        rec.end_frame().unwrap();
        rec.flush();
        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 8);
        assert_eq!(lines[0], "{\"type\":\"meta\",\"schema_version\":2}");
        assert_eq!(lines[1], "{\"type\":\"frame_start\",\"frame\":0}");
        assert_eq!(
            lines[2],
            "{\"type\":\"counter\",\"name\":\"cache.hits\",\"delta\":2,\"total\":2,\"frame\":0}"
        );
        assert!(lines[3].starts_with(
            "{\"type\":\"span_start\",\"id\":0,\"parent\":null,\"name\":\"stage\",\"frame\":0}"
        ));
        assert!(lines[4]
            .starts_with("{\"type\":\"span_end\",\"id\":0,\"name\":\"stage\",\"total_ms\":"));
        assert_eq!(
            lines[5],
            "{\"type\":\"gauge\",\"name\":\"queue\",\"value\":3.0,\"frame\":0}"
        );
        assert!(lines[6]
            .starts_with("{\"type\":\"histogram\",\"name\":\"ms\",\"value\":0.5,\"bucket\":5,"));
        assert!(lines[7].starts_with("{\"type\":\"frame_end\",\"frame\":0,\"wall_ms\":"));
    }

    #[test]
    fn schema_header_is_first_record_even_for_eventless_streams() {
        // With events: the header precedes everything.
        let (sink, buf) = JsonlSink::shared();
        let rec = Recorder::with_sink(Box::new(sink));
        rec.add("c", 1);
        rec.flush();
        let text = buf.contents();
        assert!(
            text.starts_with("{\"type\":\"meta\",\"schema_version\":2}\n"),
            "header first, got {text:?}"
        );
        // Without events: flush (and drop) still stamp the stream.
        let (sink, buf) = JsonlSink::shared();
        let rec = Recorder::with_sink(Box::new(sink));
        rec.flush();
        assert_eq!(buf.contents(), "{\"type\":\"meta\",\"schema_version\":2}\n");
    }

    #[test]
    fn fleet_meta_extends_the_header_with_identity_fields() {
        use crate::fleet::FleetMeta;
        let (sink, buf) = JsonlSink::shared();
        let sink = sink.with_meta(FleetMeta {
            run_id: "run-1".to_string(),
            shard_id: 2,
            pid: 777,
            seed: 42,
            git: Some("v0-9-gabc".to_string()),
        });
        let rec = Recorder::with_sink(Box::new(sink));
        rec.begin_frame(0);
        rec.end_frame().unwrap();
        rec.flush();
        let text = buf.contents();
        let first = text.lines().next().unwrap();
        assert_eq!(
            first,
            "{\"type\":\"meta\",\"schema_version\":2,\"run_id\":\"run-1\",\
             \"shard_id\":2,\"pid\":777,\"seed\":42,\"git\":\"v0-9-gabc\"}"
        );
    }

    #[test]
    fn slo_events_render_with_fixed_field_order() {
        use crate::{SloEvent, SloMetric};
        let (sink, buf) = JsonlSink::shared();
        let rec = Recorder::with_sink(Box::new(sink));
        rec.begin_frame(9);
        rec.slo_event(SloEvent::Breach {
            spec: "p95<=deadline".to_string(),
            metric: SloMetric::FrameP95Ms,
            value: 25.0,
            threshold: 5.0,
            frame: 9,
            rung: Some("greedy-nearest"),
        });
        rec.slo_event(SloEvent::Recover {
            spec: "p95<=deadline".to_string(),
            metric: SloMetric::FrameP95Ms,
            value: 2.5,
            threshold: 5.0,
            frame: 9,
        });
        rec.end_frame().unwrap();
        rec.flush();
        let text = buf.contents();
        assert!(text.contains(
            "{\"type\":\"slo\",\"kind\":\"breach\",\"spec\":\"p95<=deadline\",\
             \"metric\":\"frame_p95_ms\",\"value\":25.0,\"threshold\":5.0,\
             \"rung\":\"greedy-nearest\",\"frame\":9}"
        ));
        assert!(text.contains(
            "{\"type\":\"slo\",\"kind\":\"recover\",\"spec\":\"p95<=deadline\",\
             \"metric\":\"frame_p95_ms\",\"value\":2.5,\"threshold\":5.0,\
             \"rung\":null,\"frame\":9}"
        ));
        // The paired counters landed too, attributed to the frame.
        assert!(text.contains("\"name\":\"slo.breaches\",\"delta\":1,\"total\":1,\"frame\":9"));
        assert!(text.contains("\"name\":\"slo.recoveries\",\"delta\":1,\"total\":1,\"frame\":9"));
    }

    #[test]
    fn jsonl_escapes_control_and_quote_characters() {
        let mut s = String::new();
        push_str(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        let mut f = String::new();
        push_f64(&mut f, f64::NAN);
        assert_eq!(f, "null");
        let mut g = String::new();
        push_f64(&mut g, 0.1);
        assert_eq!(g, "0.1");
    }

    #[test]
    fn dropped_sink_leaves_no_partially_escaped_trailing_line() {
        let buf = SharedBuffer::new();
        {
            // Span names that force the escape walk, so a torn write
            // would be visible as an unbalanced quote or missing brace.
            let rec = Recorder::with_sink(Box::new(JsonlSink::new(Box::new(buf.clone()))));
            rec.begin_frame(0);
            {
                let _s = rec.span("we\"ird\nstage\\name");
            }
            rec.add("cache.hits", 3);
            rec.end_frame().unwrap();
            // No explicit flush: dropping the recorder drops the sink,
            // whose Drop impl must flush whole lines.
        }
        let text = buf.contents();
        assert!(!text.is_empty(), "drop flushed the buffered lines");
        assert!(text.ends_with('\n'), "log ends on a line boundary");
        for line in text.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "complete JSON object per line, got {line:?}"
            );
            // Escaped quotes (`\"`) are content, not delimiters; the
            // remaining quote bytes must pair up.
            let total = line.bytes().filter(|&b| b == b'"').count();
            let escaped = line.matches("\\\"").count();
            assert_eq!((total - escaped) % 2, 0, "balanced quotes in {line:?}");
        }
        assert!(text.contains("we\\\"ird\\nstage\\\\name"));
    }

    #[test]
    fn sync_on_frame_end_makes_frames_durable_before_any_flush() {
        // Without the mode, a 256 KiB buffer retains the whole tiny run.
        let (plain, plain_buf) = JsonlSink::shared();
        assert!(!plain.sync_on_frame_end());
        let rec = Recorder::with_sink(Box::new(plain));
        rec.begin_frame(0);
        rec.end_frame().unwrap();
        assert_eq!(
            plain_buf.contents(),
            "",
            "unsynced sink buffers past frame end"
        );
        rec.flush();
        assert!(plain_buf.contents().contains("frame_end"));

        // With it, the frame's lines reach the writer at the boundary —
        // what survives a SIGKILL after the frame.
        let buf = SharedBuffer::new();
        let sink = JsonlSink::new(Box::new(buf.clone())).with_sync_on_frame_end();
        assert!(sink.sync_on_frame_end());
        let rec = Recorder::with_sink(Box::new(sink));
        rec.begin_frame(0);
        rec.add("sim.frames", 1);
        rec.end_frame().unwrap();
        let text = buf.contents();
        assert!(
            text.ends_with('\n') && text.contains("frame_end"),
            "frame boundary flushed without an explicit flush call: {text:?}"
        );
        rec.begin_frame(1);
        // Mid-frame events may stay buffered until the next boundary.
        rec.end_frame().unwrap();
        assert!(buf.contents().matches("frame_end").count() == 2);
    }

    #[test]
    fn summary_sink_renders_once_with_aggregates() {
        let buf = SharedBuffer::new();
        {
            let rec = Recorder::with_sink(Box::new(SummarySink::new(Box::new(buf.clone()))));
            rec.begin_frame(0);
            rec.add("match.proposals", 5);
            {
                let _s = rec.span("deferred_acceptance");
            }
            rec.end_frame().unwrap();
            rec.flush();
            rec.flush(); // second flush must not duplicate the table
        }
        let text = buf.contents();
        assert_eq!(text.matches("observability summary").count(), 1);
        assert!(text.contains("deferred_acceptance"));
        assert!(text.contains("match.proposals"));
        assert!(text.contains("1 frames"));
    }
}
