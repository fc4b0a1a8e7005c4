//! The traced run's span recorder.
//!
//! A span is one timed call into a layer's public function, recorded
//! from the benchmark's side of the call: name, start, end and the span
//! that caused it. Calls too hot to record one by one (a sink write per
//! record, a replay step per event) are recorded as one aggregated span
//! whose busy time is the sum of the calls' durations. Spans stay in
//! memory and are written out when the run ends. With tracing off the
//! recorder does nothing but run the call.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span within one run.
pub type SpanId = u32;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: String,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time spent in the call: `end_ns - start_ns` for a single call,
    /// the summed call durations for an aggregated span.
    pub busy_ns: u64,
    /// Calls the span stands for; more than one marks an aggregate,
    /// whose calls ran one after another on one thread.
    pub calls: u64,
}

/// Records spans while switched on.
pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder, initially off.
    pub fn new() -> Tracer {
        Tracer {
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Switches recording on or off for spans started afterwards.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Runs `f` as a span named `name` under `parent`, passing `f` the
    /// new span's id to parent its own calls. With tracing off `f`
    /// runs with no id and nothing is recorded.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.is_on() {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
            busy_ns: end_ns - start_ns,
            calls: 1,
        });
        out
    }

    /// An aggregated span named `name` under `parent`: time each call
    /// with [`Acc::time`], then [`Acc::finish`] records the total.
    pub fn acc(&self, name: &str, parent: Option<SpanId>) -> Acc {
        Acc {
            on: self.is_on(),
            name: name.to_string(),
            parent,
            start: None,
            end: None,
            busy_ns: 0,
            calls: 0,
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// An aggregated span being collected; see [`Tracer::acc`].
pub struct Acc {
    on: bool,
    name: String,
    parent: Option<SpanId>,
    start: Option<Instant>,
    end: Option<Instant>,
    busy_ns: u64,
    calls: u64,
}

impl Acc {
    /// Runs `f`, adding its duration when tracing is on.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.start.get_or_insert(t0);
        self.end = Some(t1);
        self.busy_ns += (t1 - t0).as_nanos() as u64;
        self.calls += 1;
        out
    }

    /// Records the aggregate, if any call was timed.
    pub fn finish(self, tracer: &Tracer) {
        let (Some(start), Some(end)) = (self.start, self.end) else {
            return;
        };
        let at = |t: Instant| t.saturating_duration_since(tracer.epoch).as_nanos() as u64;
        tracer.push(Span {
            id: tracer.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.parent,
            name: self.name,
            start_ns: at(start),
            end_ns: at(end),
            busy_ns: self.busy_ns,
            calls: self.calls,
        });
    }
}

/// The program layers a span's time can be attributed to, by the first
/// part of its name.
pub const LAYERS: [&str; 6] = [
    "workload",
    "tracestore",
    "fstrace",
    "fsanalysis",
    "cachesim",
    "tracestored",
];

fn is_layer(name: &str) -> bool {
    LAYERS.contains(&name.split('.').next().unwrap_or(name))
}

/// Nanoseconds covered by the union of `intervals`.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut union = 0u64;
    let mut reach = 0u64;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            union += end - start;
            reach = end;
        }
    }
    union
}

/// Spans indexed by parent, for the self-time and coverage arithmetic.
pub struct Profile<'a> {
    spans: &'a [Span],
    children: HashMap<SpanId, Vec<usize>>,
}

impl<'a> Profile<'a> {
    pub fn new(spans: &'a [Span]) -> Profile<'a> {
        let mut children: HashMap<SpanId, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push(i);
            }
        }
        Profile { spans, children }
    }

    /// The part of `span`'s busy time its direct children cover: the
    /// union of the single-call children's intervals (children running
    /// on parallel threads overlap), plus the busy time of aggregated
    /// children, capped at the span's own busy time.
    pub fn covered_ns(&self, span: &Span) -> u64 {
        let mut intervals = Vec::new();
        let mut aggregated = 0u64;
        for &c in self.children.get(&span.id).map_or(&[][..], |v| v) {
            let child = &self.spans[c];
            if child.calls > 1 {
                aggregated += child.busy_ns;
            } else {
                intervals.push((child.start_ns, child.end_ns));
            }
        }
        (union_ns(intervals) + aggregated).min(span.busy_ns)
    }

    /// A span's self time: its busy time minus what its children cover.
    pub fn self_ns(&self, span: &Span) -> u64 {
        span.busy_ns - self.covered_ns(span)
    }

    /// The spans named `name` with no parent, in start order.
    pub fn roots(&self, name: &str) -> Vec<&'a Span> {
        let mut roots: Vec<&Span> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .collect();
        roots.sort_by_key(|s| s.start_ns);
        roots
    }

    /// Every span named `name` below `root`, at any depth.
    pub fn below(&self, root: &Span, name: &str) -> Vec<&'a Span> {
        let mut found = Vec::new();
        let mut stack = vec![root.id];
        while let Some(id) = stack.pop() {
            for &c in self.children.get(&id).map_or(&[][..], |v| v) {
                let child = &self.spans[c];
                if child.name == name {
                    found.push(child);
                }
                stack.push(child.id);
            }
        }
        found
    }

    /// Summed busy seconds of the spans named `name` below `root`.
    pub fn busy_below(&self, root: &Span, name: &str) -> f64 {
        self.below(root, name)
            .iter()
            .map(|s| s.busy_ns)
            .sum::<u64>() as f64
            / 1e9
    }

    /// Summed self seconds of the spans named `name` below `root`.
    pub fn self_below(&self, root: &Span, name: &str) -> f64 {
        let ns: u64 = self.below(root, name).iter().map(|s| self.self_ns(s)).sum();
        ns as f64 / 1e9
    }

    /// The part of `root`'s busy time that layer spans below it cover:
    /// the outermost spans at any depth whose name starts with one of
    /// [`LAYERS`], counted as in [`Profile::covered_ns`]. Wrapper spans
    /// (`job`, `staged`, `core.*`) explain nothing themselves; the
    /// search descends through them.
    pub fn layer_ns(&self, root: &Span) -> u64 {
        let mut intervals = Vec::new();
        let mut aggregated = 0u64;
        let mut stack = vec![root.id];
        while let Some(id) = stack.pop() {
            for &c in self.children.get(&id).map_or(&[][..], |v| v) {
                let child = &self.spans[c];
                if !is_layer(&child.name) {
                    stack.push(child.id);
                } else if child.calls > 1 {
                    aggregated += child.busy_ns;
                } else {
                    intervals.push((child.start_ns, child.end_ns));
                }
            }
        }
        (union_ns(intervals) + aggregated).min(root.busy_ns)
    }

    /// The share of the `name` roots' busy time that layer spans
    /// explain ([`Profile::layer_ns`]); 0 when there are no such roots.
    pub fn coverage(&self, name: &str) -> f64 {
        let roots = self.roots(name);
        let busy: u64 = roots.iter().map(|s| s.busy_ns).sum();
        let covered: u64 = roots.iter().map(|s| self.layer_ns(s)).sum();
        if busy == 0 {
            0.0
        } else {
            covered as f64 / busy as f64
        }
    }

    /// The spans as JSON, one span per line, each with its self time.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"busy_ns\": {}, \"self_ns\": {}, \"calls\": {}}}",
                s.id,
                obs::json::escape(&s.name),
                s.start_ns,
                s.end_ns,
                s.busy_ns,
                self.self_ns(s),
                s.calls
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            start_ns: start,
            end_ns: end,
            busy_ns: end - start,
            calls: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span(0, None, "job", 0, 100),
            span(1, Some(0), "workload.generate", 10, 70),
            span(2, Some(0), "tracestore.fsync", 80, 90),
            Span {
                calls: 1000,
                busy_ns: 25,
                ..span(3, Some(1), "tracestore.write", 12, 68)
            },
        ];
        let p = Profile::new(&spans);
        assert_eq!(p.self_ns(&spans[0]), 100 - 60 - 10);
        assert_eq!(p.self_ns(&spans[1]), 60 - 25);
        assert_eq!(p.self_ns(&spans[2]), 10);
        assert_eq!(p.self_below(&spans[0], "workload.generate"), 35e-9);
        assert_eq!(p.busy_below(&spans[0], "tracestore.write"), 25e-9);
        // The write nested in the generate span is not counted twice.
        assert_eq!(p.coverage("job"), 0.7);
    }

    #[test]
    fn wrappers_explain_only_the_layer_spans_below_them() {
        let spans = vec![
            span(0, None, "job", 0, 100),
            span(1, Some(0), "core.load", 0, 20),
            span(2, Some(0), "core.experiment.table6", 20, 100),
            span(3, Some(2), "cachesim.sweep", 30, 60),
        ];
        let p = Profile::new(&spans);
        // The wrappers cover the whole job, but only the cachesim span
        // attributes time to a layer.
        assert_eq!(p.covered_ns(&spans[0]), 100);
        assert_eq!(p.layer_ns(&spans[0]), 30);
        assert_eq!(p.coverage("job"), 0.3);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two connections ingesting in parallel on their own threads.
        let spans = vec![
            span(0, None, "ingest", 0, 100),
            span(1, Some(0), "tracestored.conn", 5, 60),
            span(2, Some(0), "tracestored.conn", 40, 95),
        ];
        let p = Profile::new(&spans);
        assert_eq!(p.covered_ns(&spans[0]), 90);
        assert_eq!(p.self_ns(&spans[0]), 10);
        assert_eq!(p.coverage("ingest"), 0.9);
        assert_eq!(p.coverage("absent"), 0.0);
    }

    #[test]
    fn recorder_nests_and_aggregates_only_when_on() {
        let t = Tracer::new();
        let hidden = t.span("off", None, |id| id);
        assert_eq!(hidden, None);
        t.set_on(true);
        t.span("job", None, |job| {
            let mut acc = t.acc("write", job);
            for _ in 0..3 {
                acc.time(|| std::hint::black_box(1 + 1));
            }
            acc.finish(&t);
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let job = spans.iter().find(|s| s.name == "job").unwrap();
        let write = spans.iter().find(|s| s.name == "write").unwrap();
        assert_eq!(write.parent, Some(job.id));
        assert_eq!(write.calls, 3);
        assert!(write.busy_ns <= job.busy_ns);
        let json = Profile::new(&spans).to_json();
        assert!(json.contains("\"name\": \"write\"") && json.contains("\"calls\": 3"));
    }
}
