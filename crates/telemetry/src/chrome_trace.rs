//! Chrome trace-event-format export.
//!
//! Produces a JSON array of trace events loadable in `chrome://tracing`
//! and in the Perfetto UI (<https://ui.perfetto.dev> — "Open trace
//! file"). Spans become complete (`"ph":"X"`) events, instants become
//! `"ph":"i"`, counters become `"ph":"C"` samples, and process/thread
//! names are attached via `"ph":"M"` metadata events.

use crate::json::{ArrayWriter, ObjectWriter};
use crate::metrics::MetricsRegistry;
use crate::span::{ArgValue, SpanEvent, SpanRecorder};
use std::collections::BTreeSet;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Process id used for all exported events (the suite is one process).
const PID: u64 = 1;

fn write_args(out: &mut String, args: &[(&'static str, ArgValue)]) {
    let mut o = ObjectWriter::new(out);
    for (k, v) in args {
        match v {
            ArgValue::Int(i) => o.field_i64(k, *i),
            ArgValue::Float(f) => o.field_f64(k, *f),
            ArgValue::Str(s) => o.field_str(k, s),
        };
    }
    o.finish();
}

fn write_event(out: &mut String, e: &SpanEvent) {
    let mut o = ObjectWriter::new(out);
    o.field_str("name", e.name)
        .field_str("cat", e.cat)
        .field_str("ph", if e.dur_us.is_some() { "X" } else { "i" })
        .field_u64("ts", e.start_us)
        .field_u64("pid", PID)
        .field_u64("tid", e.tid);
    if let Some(dur) = e.dur_us {
        o.field_u64("dur", dur);
    } else {
        o.field_str("s", "t"); // instant scope: thread
    }
    if !e.args.is_empty() {
        write_args(o.field_raw("args"), &e.args);
    }
    o.finish();
}

fn write_metadata(out: &mut String, name: &str, tid: Option<u64>, value: &str) {
    let mut o = ObjectWriter::new(out);
    o.field_str("name", name).field_str("ph", "M").field_u64("ts", 0).field_u64("pid", PID);
    if let Some(tid) = tid {
        o.field_u64("tid", tid);
    }
    {
        let args = o.field_raw("args");
        let mut a = ObjectWriter::new(args);
        a.field_str("name", value);
        a.finish();
    }
    o.finish();
}

fn write_counter_sample(out: &mut String, ts: u64, name: &str, value: u64) {
    let mut o = ObjectWriter::new(out);
    o.field_str("name", name).field_str("ph", "C").field_u64("ts", ts).field_u64("pid", PID);
    {
        let args = o.field_raw("args");
        let mut a = ObjectWriter::new(args);
        a.field_u64("value", value);
        a.finish();
    }
    o.finish();
}

/// A named series of `(ts_us, value)` counter samples to render as a
/// `"ph":"C"` track — e.g. the busy-worker count a profiler derives
/// post hoc. Unlike span args, track names are runtime strings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterTrack {
    /// Counter name shown in the trace viewer.
    pub name: String,
    /// `(timestamp µs, value)` samples, ascending by timestamp.
    pub samples: Vec<(u64, u64)>,
}

/// Renders `events` (plus optional final counter samples from
/// `metrics`) as a Chrome trace-event JSON array.
pub fn chrome_trace_json(
    process_name: &str,
    events: &[SpanEvent],
    metrics: Option<&MetricsRegistry>,
) -> String {
    chrome_trace_json_with_tracks(process_name, events, metrics, &[])
}

/// [`chrome_trace_json`] plus derived [`CounterTrack`] sample series.
pub fn chrome_trace_json_with_tracks(
    process_name: &str,
    events: &[SpanEvent],
    metrics: Option<&MetricsRegistry>,
    tracks: &[CounterTrack],
) -> String {
    let mut out = String::with_capacity(128 + events.len() * 96);
    let mut array = ArrayWriter::lines(&mut out, "");
    write_metadata(array.item(), "process_name", None, process_name);
    let tids: BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
    for tid in tids {
        write_metadata(array.item(), "thread_name", Some(tid), &format!("worker-{tid}"));
    }
    for e in events {
        write_event(array.item(), e);
        // Span args keyed `counter.*` are performance-counter deltas
        // (see `CounterSnapshot::named_counters` in bdb-archsim): also
        // emit each as a "ph":"C" sample at the span's end so Perfetto
        // renders counter tracks over time, not just one final value.
        let sample_ts = e.start_us + e.dur_us.unwrap_or(0);
        for (k, v) in &e.args {
            if let (true, ArgValue::Int(i)) = (k.starts_with("counter."), v) {
                write_counter_sample(array.item(), sample_ts, k, (*i).max(0) as u64);
            }
        }
    }
    for track in tracks {
        for &(ts, value) in &track.samples {
            write_counter_sample(array.item(), ts, &track.name, value);
        }
    }
    if let Some(metrics) = metrics {
        let end_ts = events.iter().map(|e| e.start_us + e.dur_us.unwrap_or(0)).max().unwrap_or(0);
        for (name, value) in metrics.counter_values() {
            write_counter_sample(array.item(), end_ts, &name, value);
        }
    }
    array.finish();
    out.push('\n');
    out
}

/// A bundle of recorder + registry for one workload run, with one-call
/// export of `<name>.trace.json` and `<name>.metrics.txt`.
#[derive(Debug, Clone)]
pub struct TraceSession {
    /// Workload name; becomes the process name and the file stem.
    pub name: String,
    /// Span sink; attach to engines.
    pub recorder: SpanRecorder,
    /// Metric sink; attach to engines.
    pub metrics: MetricsRegistry,
}

impl TraceSession {
    /// A collecting session.
    pub fn enabled(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            recorder: SpanRecorder::enabled(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// The session's trace as Chrome trace-event JSON.
    pub fn trace_json(&self) -> String {
        self.trace_json_with_tracks(&[])
    }

    /// The session's trace, with extra derived counter tracks appended
    /// (e.g. a profiler's busy-worker series).
    pub fn trace_json_with_tracks(&self, tracks: &[CounterTrack]) -> String {
        chrome_trace_json_with_tracks(
            &self.name,
            &self.recorder.events(),
            Some(&self.metrics),
            tracks,
        )
    }

    /// The session's metrics as plain text.
    pub fn metrics_summary(&self) -> String {
        format!("== metrics: {} ==\n{}", self.name, self.metrics.summary())
    }

    /// Writes `<name>.trace.json` and `<name>.metrics.txt` into `dir`
    /// (created if missing); returns the two paths.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, dir: &Path) -> std::io::Result<(PathBuf, PathBuf)> {
        self.write_with_tracks(dir, &[])
    }

    /// [`TraceSession::write`] with extra counter tracks baked into the
    /// trace JSON.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_with_tracks(
        &self,
        dir: &Path,
        tracks: &[CounterTrack],
    ) -> std::io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let stem = file_stem(&self.name);
        let trace_path = dir.join(format!("{stem}.trace.json"));
        let metrics_path = dir.join(format!("{stem}.metrics.txt"));
        std::fs::File::create(&trace_path)?
            .write_all(self.trace_json_with_tracks(tracks).as_bytes())?;
        std::fs::File::create(&metrics_path)?.write_all(self.metrics_summary().as_bytes())?;
        Ok((trace_path, metrics_path))
    }
}

/// Lowercases `name` and maps every non-alphanumeric character to `-`,
/// collapsing runs and trimming the ends, so any workload name — e.g.
/// `"OLTP: read/write 50%"` — yields a safe, tidy file stem. Exposed so
/// sibling artifacts (profiles, reports) can sit next to the trace
/// under the same stem.
pub fn file_stem(name: &str) -> String {
    let mut stem = String::with_capacity(name.len());
    for c in name.to_lowercase().chars() {
        if c.is_alphanumeric() {
            stem.push(c);
        } else if !stem.ends_with('-') && !stem.is_empty() {
            stem.push('-');
        }
    }
    let stem = stem.trim_end_matches('-').to_owned();
    if stem.is_empty() {
        "trace".to_owned()
    } else {
        stem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &'static str, start: u64, dur: u64, tid: u64) -> SpanEvent {
        SpanEvent { name, cat: "test", start_us: start, dur_us: Some(dur), tid, args: Vec::new() }
    }

    #[test]
    fn empty_trace_is_an_array() {
        let json = chrome_trace_json("empty", &[], None);
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("process_name"));
    }

    #[test]
    fn events_become_complete_x_events() {
        let events = vec![event("a", 0, 10, 1), event("b", 5, 2, 2)];
        let json = chrome_trace_json("t", &events, None);
        assert!(json.contains("\"name\":\"a\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":10"));
        assert!(json.contains("\"tid\":2"));
        assert!(json.contains("\"thread_name\""));
    }

    #[test]
    fn counters_appended_from_registry() {
        let reg = MetricsRegistry::new();
        reg.counter("ops").add(42);
        let json = chrome_trace_json("t", &[event("a", 0, 3, 1)], Some(&reg));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"value\":42"));
        // Counter sampled at the end of the timeline.
        assert!(json.contains("\"ts\":3"));
    }

    #[test]
    fn counter_args_become_intermediate_samples() {
        // Two spans carrying the same counter key → two "C" samples at
        // the spans' end timestamps, plus the end-of-run registry
        // sample for backward compatibility.
        let mut a = event("map", 0, 10, 1);
        a.args.push(("counter.l1d_misses", ArgValue::Int(100)));
        a.args.push(("rows", ArgValue::Int(5))); // not a counter: no sample
        let mut b = event("reduce", 10, 7, 1);
        b.args.push(("counter.l1d_misses", ArgValue::Int(40)));
        let reg = MetricsRegistry::new();
        reg.counter("ops").add(1);
        let json = chrome_trace_json("t", &[a, b], Some(&reg));
        let samples = json
            .lines()
            .filter(|l| l.contains("\"ph\":\"C\"") && l.contains("counter.l1d_misses"))
            .count();
        assert_eq!(samples, 2, "one sample per span carrying the counter");
        assert!(json.contains("\"name\":\"counter.l1d_misses\",\"ph\":\"C\",\"ts\":10"));
        assert!(json.contains("\"name\":\"counter.l1d_misses\",\"ph\":\"C\",\"ts\":17"));
        assert!(!json.contains("\"name\":\"rows\",\"ph\":\"C\""));
        // End-of-run registry sample still present at the timeline end.
        assert!(json.contains("\"name\":\"ops\",\"ph\":\"C\",\"ts\":17"));
    }

    #[test]
    fn file_stems_sanitize_all_non_alphanumerics() {
        assert_eq!(file_stem("OLTP: read/write 50%"), "oltp-read-write-50");
        assert_eq!(file_stem("Unit Test"), "unit-test");
        assert_eq!(file_stem("a***b"), "a-b");
        assert_eq!(file_stem("///"), "trace");
    }

    #[test]
    fn session_with_hostile_name_writes_sanitized_files() {
        let session = TraceSession::enabled("OLTP: read/write 50%");
        session.metrics.counter("done").inc();
        let dir = std::env::temp_dir().join(format!("bdb-telemetry-stem-{}", std::process::id()));
        let (trace, metrics) = session.write(&dir).unwrap();
        assert!(trace.ends_with("oltp-read-write-50.trace.json"), "{trace:?}");
        assert!(metrics.ends_with("oltp-read-write-50.metrics.txt"), "{metrics:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn counter_tracks_render_as_c_samples() {
        let track = CounterTrack {
            name: "busy workers".to_owned(),
            samples: vec![(0, 2), (40, 1), (100, 0)],
        };
        let json = chrome_trace_json_with_tracks("t", &[event("a", 0, 100, 1)], None, &[track]);
        assert!(json.contains("\"name\":\"busy workers\",\"ph\":\"C\",\"ts\":0"));
        assert!(json.contains("\"name\":\"busy workers\",\"ph\":\"C\",\"ts\":40"));
        assert!(json.contains("\"name\":\"busy workers\",\"ph\":\"C\",\"ts\":100"));
        let samples = json
            .lines()
            .filter(|l| l.contains("busy workers") && l.contains("\"ph\":\"C\""))
            .count();
        assert_eq!(samples, 3);
    }

    #[test]
    fn args_are_serialized() {
        let mut e = event("a", 0, 1, 1);
        e.args.push(("n", ArgValue::Int(5)));
        e.args.push(("ratio", ArgValue::Float(0.5)));
        e.args.push(("tag", ArgValue::Str("x\"y".into())));
        let json = chrome_trace_json("t", &[e], None);
        assert!(json.contains("\"args\":{\"n\":5,\"ratio\":0.5,\"tag\":\"x\\\"y\"}"));
    }

    #[test]
    fn session_roundtrip_to_files() {
        let session = TraceSession::enabled("Unit Test");
        {
            let _s = session.recorder.span("test", "work");
        }
        session.metrics.counter("done").inc();
        let dir = std::env::temp_dir().join(format!("bdb-telemetry-{}", std::process::id()));
        let (trace, metrics) = session.write(&dir).unwrap();
        assert!(trace.ends_with("unit-test.trace.json"));
        let body = std::fs::read_to_string(&trace).unwrap();
        assert!(body.contains("\"work\""));
        let summary = std::fs::read_to_string(&metrics).unwrap();
        assert!(summary.contains("done"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
