//! Timing of calls into the program's layers, from outside the program.
//!
//! Every workload times each layer call with [`Recorder::call`]. A plain
//! run only measures durations; a layer-timed run also keeps one span
//! per call (name, start, end, parent) in memory, and the spans are
//! written as a Chrome trace when the benchmark ends. The two runs
//! execute the same code otherwise, so their difference is the cost of
//! span recording. An interleaved recorder alternates the two runs pass
//! by pass, so that both see the same host conditions.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// Which of the two runs a pass belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Run {
    /// Durations only.
    Plain = 0,
    /// Durations plus a span per call.
    LayerTimed = 1,
}

/// Times layer calls and, in layer-timed passes, records them as spans.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    /// `Some` in an interleaved recorder.
    spans: Option<Vec<Span>>,
    open: Vec<usize>,
    /// Passes begun so far.
    passes: usize,
    /// The run of the pass in progress, if any.
    pass: Option<Run>,
}

impl Recorder {
    /// A recorder whose passes all belong to the plain run.
    pub fn plain() -> Self {
        Self { origin: Instant::now(), spans: None, open: Vec::new(), passes: 0, pass: None }
    }

    /// A recorder whose passes alternate between the plain run and the
    /// layer-timed run, starting with a plain pass. Calls outside passes
    /// (set-up) are always recorded.
    pub fn interleaved() -> Self {
        Self { spans: Some(Vec::new()), ..Self::plain() }
    }

    /// Number of runs this recorder's passes are divided among.
    pub fn runs(&self) -> usize {
        if self.spans.is_some() {
            2
        } else {
            1
        }
    }

    /// The run the pass in progress belongs to (`Plain` outside passes).
    pub fn run(&self) -> Run {
        self.pass.unwrap_or(Run::Plain)
    }

    fn recording(&self) -> bool {
        self.spans.is_some() && self.pass != Some(Run::Plain)
    }

    /// Starts the next pass, assigning it to a run.
    pub fn begin_pass(&mut self) {
        let run =
            if self.runs() == 2 && self.passes % 2 == 1 { Run::LayerTimed } else { Run::Plain };
        self.passes += 1;
        self.pass = Some(run);
        self.enter("bench.pass");
    }

    /// Ends the pass in progress.
    pub fn end_pass(&mut self) {
        self.exit();
        self.pass = None;
    }

    /// Runs `f` as one call into the layer `name` and returns its result
    /// with its duration.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if let (true, Some(spans)) = (self.recording(), self.spans.as_mut()) {
            spans.push(Span {
                name,
                start: start - self.origin,
                end: end - self.origin,
                parent: self.open.last().copied(),
            });
        }
        (out, end - start)
    }

    /// Opens a benchmark-level span (a pass or a set-up) that later calls
    /// nest under until the matching [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str) {
        let start = self.origin.elapsed();
        if let (true, Some(spans)) = (self.recording(), self.spans.as_mut()) {
            let parent = self.open.last().copied();
            spans.push(Span { name, start, end: start, parent });
            self.open.push(spans.len() - 1);
        }
    }

    /// Closes the innermost span opened by [`Recorder::enter`].
    pub fn exit(&mut self) {
        let end = self.origin.elapsed();
        if !self.recording() {
            return;
        }
        if let (Some(spans), Some(id)) = (self.spans.as_mut(), self.open.pop()) {
            spans[id].end = end;
        }
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.as_ref().map_or(0, Vec::len)
    }

    /// Writes the recorded spans to `path` as a Chrome trace (an array of
    /// complete `"X"` events; each event's `args` carry its id and its
    /// parent's id).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.as_deref().unwrap_or_default();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"[\n")?;
        for (id, s) in spans.iter().enumerate() {
            let cat = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
            )?;
            out.write_all(if id + 1 < spans.len() { b",\n" } else { b"\n" })?;
        }
        out.write_all(b"]\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_recorder_measures_without_recording() {
        let mut rec = Recorder::plain();
        for _ in 0..3 {
            rec.begin_pass();
            assert_eq!(rec.run(), Run::Plain);
            let (v, d) = rec.call("layer.op", || 7);
            assert_eq!(v, 7);
            assert!(d >= Duration::ZERO);
            rec.end_pass();
        }
        assert_eq!(rec.runs(), 1);
        assert_eq!(rec.span_count(), 0);
    }

    #[test]
    fn interleaved_recorder_alternates_runs_and_records_only_timed_passes() {
        let mut rec = Recorder::interleaved();
        assert_eq!(rec.runs(), 2);
        rec.call("datagen.text", || ()); // set-up: recorded
        let mut runs = Vec::new();
        for _ in 0..4 {
            rec.begin_pass();
            runs.push(rec.run());
            rec.call("kvstore.get", || ());
            rec.end_pass();
        }
        assert_eq!(runs, [Run::Plain, Run::LayerTimed, Run::Plain, Run::LayerTimed]);
        // The set-up call, then a pass span and its call per timed pass.
        assert_eq!(rec.span_count(), 5);
        assert_eq!(rec.run(), Run::Plain, "outside passes");
    }

    #[test]
    fn layer_timed_passes_nest_calls_and_write_a_trace() {
        let mut rec = Recorder::interleaved();
        rec.begin_pass(); // plain
        rec.call("kvstore.get", || ());
        rec.end_pass();
        rec.begin_pass(); // layer-timed
        rec.call("kvstore.get", || ());
        rec.call("kvstore.put", || ());
        rec.end_pass();
        rec.call("graph.cc", || ());
        assert_eq!(rec.span_count(), 4);
        let spans = rec.spans.as_ref().expect("layer-timed");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert!(spans[0].end >= spans[2].end, "the pass encloses its calls");

        let dir = std::env::temp_dir().join(format!("perfbench-span-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("t.trace.json");
        rec.write_chrome_trace(&path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        std::fs::remove_dir_all(&dir).expect("cleanup");
        assert!(text.starts_with("[\n{\"name\":\"bench.pass\",\"cat\":\"bench\",\"ph\":\"X\""));
        assert!(text.contains("\"name\":\"kvstore.get\",\"cat\":\"kvstore\""));
        assert!(text.contains("\"args\":{\"id\":1,\"parent\":0}"));
        assert!(text.ends_with("}\n]\n"));
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 4);
    }
}
