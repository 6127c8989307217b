//! Span recording for the traced run.
//!
//! A span is a named interval, `<layer>.<call>`, around one call the
//! benchmark makes into a library layer, with the span that caused it
//! and the request (training step, serving request, deploy cycle) it
//! belongs to. Spans stay in memory while the workload runs and are
//! written as JSON lines when it ends. A span's self time is its
//! duration minus the part of its interval its children cover; a
//! layer's self time is the sum over its spans.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use crate::report::{median, metric, out_dir, quote, Metric, Outcome};
use crate::Args;

/// Index of a span in its recorder.
pub type SpanId = usize;

/// The layers self time is attributed to, named by repository module,
/// with the per-layer metric that reports each one's share.
pub const LAYERS: [(&str, &str); 8] = [
    ("data", "data.self_pct"),
    ("graph", "graph.self_pct"),
    ("kernels", "kernels.self_pct"),
    ("par", "par.self_pct"),
    ("fio", "fio.self_pct"),
    ("autograd", "autograd.self_pct"),
    ("core", "core.self_pct"),
    ("serve", "serve.self_pct"),
];

/// One recorded interval, in nanoseconds since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
    pub thread: u32,
    /// False for a span timed around a call whose work another span (a
    /// replay or replica of that call) breaks down: its time is reported
    /// but left out of layer self times, so the work counts once.
    pub counted: bool,
}

impl Span {
    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn ms(&self) -> f64 {
        self.dur_ns() as f64 / 1e6
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    /// A small per-thread number for span records.
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// An in-memory span recorder shared by the benchmark's threads.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Mutex::new(Vec::with_capacity(1 << 16)) }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span recorder poisoned: a benchmark thread panicked while recording")
    }

    fn open(&self, name: &'static str, parent: Option<SpanId>, request: u64, counted: bool) -> SpanId {
        let thread = THREAD.with(|t| *t);
        let mut spans = self.lock();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        spans.push(Span { name, start_ns, end_ns: start_ns, parent, request, thread, counted });
        spans.len() - 1
    }

    /// Opens a counted span; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        self.open(name, parent, request, true)
    }

    pub fn end(&self, id: SpanId) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.lock()[id].end_ns = end_ns;
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span recorder poisoned: a benchmark thread panicked while recording")
    }
}

/// Runs `f`, inside a span when there is a `tracer`. An uncounted span
/// (`counted` false) is left out of layer self times; see
/// [`Span::counted`].
pub fn record<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    request: u64,
    counted: bool,
    f: impl FnOnce() -> R,
) -> R {
    let id = tracer.map(|t| t.open(name, parent, request, counted));
    let r = f();
    if let (Some(t), Some(id)) = (tracer, id) {
        t.end(id);
    }
    r
}

/// Durations in milliseconds of the spans called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
}

/// Median duration in milliseconds of the spans called `name`.
pub fn median_ms(spans: &[Span], name: &str) -> f64 {
    median(&durations_ms(spans, name))
}

/// Self time of every span, in nanoseconds: its duration minus the union
/// of its children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut cover: Vec<(u64, u64)> = kids
                .iter()
                .map(|&c| (spans[c].start_ns.max(s.start_ns), spans[c].end_ns.min(s.end_ns)))
                .filter(|(a, b)| b > a)
                .collect();
            cover.sort_unstable();
            let mut covered = 0;
            let mut open: Option<(u64, u64)> = None;
            for (a, b) in cover {
                open = match open {
                    Some((oa, ob)) if a <= ob => Some((oa, ob.max(b))),
                    Some((oa, ob)) => {
                        covered += ob - oa;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((oa, ob)) = open {
                covered += ob - oa;
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Each layer's share, in percent, of the self time of every counted
/// span, in [`LAYERS`] order.
pub fn layer_shares(spans: &[Span]) -> Vec<Metric> {
    let mut per_layer = [0u64; LAYERS.len()];
    for (s, t) in spans.iter().zip(self_times(spans)) {
        if let Some(i) = LAYERS.iter().position(|(layer, _)| *layer == s.layer()).filter(|_| s.counted) {
            per_layer[i] += t;
        }
    }
    let total = per_layer.iter().sum::<u64>().max(1) as f64;
    LAYERS.iter().zip(per_layer).map(|(&(_, name), t)| metric(name, "%", 100.0 * t as f64 / total)).collect()
}

/// Writes the spans to `.perfbench/trace-<workload>-<seed>.jsonl` and
/// notes the file in the provenance.
pub fn save(out: &mut Outcome, args: &Args, spans: &[Span]) {
    let path = out_dir().join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    let written = write_jsonl(&path, spans);
    out.checks.record(written.is_ok(), || format!("writing {}: {:?}", path.display(), written.as_ref().err()));
    out.provenance.push(("trace_file", quote(&path.display().to_string())));
    out.provenance.push(("spans", spans.len().to_string()));
}

/// One JSON object per span, with its self time.
fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    for (i, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\": {i}, \"name\": {}, \"layer\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \
             \"parent\": {parent}, \"request\": {}, \"thread\": {}, \"counted\": {}}}",
            quote(s.name),
            quote(s.layer()),
            s.start_ns,
            s.end_ns,
            s.request,
            s.thread,
            s.counted
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_ns, end_ns, parent, request: 0, thread: 0, counted: true }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children on different threads cover 20..70 of
        // the parent's 0..100.
        let spans = [
            span("par.batch", 0, 100, None),
            span("kernels.row_dots", 20, 60, Some(0)),
            span("kernels.row_dots", 30, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 40]);
        let shares = layer_shares(&spans);
        let share = |name: &str| shares.iter().find(|m| m.name == name).map(|m| m.value);
        assert_eq!(share("par.self_pct"), Some(100.0 * 50.0 / 130.0));
        assert_eq!(share("core.self_pct"), Some(0.0));
    }

    #[test]
    fn uncounted_spans_stay_out_of_shares() {
        let mut whole = span("serve.batch", 0, 100, None);
        whole.counted = false;
        let spans = [whole, span("kernels.topk", 0, 10, None)];
        let shares = layer_shares(&spans);
        assert_eq!(shares.iter().find(|m| m.name == "kernels.self_pct").map(|m| m.value), Some(100.0));
    }
}
