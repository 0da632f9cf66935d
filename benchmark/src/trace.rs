//! Spans around the benchmark's calls into each layer, kept in memory
//! and written out when the run ends, plus the allocation counter.
//!
//! A layer is a crate. Every span is recorded from this package, around
//! a call to one of the crate's public functions; nothing in the
//! program is instrumented. A span's *self time* is its duration minus
//! the part its child spans cover.

use crate::harness::{measure, Checks, Workload};
use crate::spec::PER_LAYER;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Names of the spans that belong to the harness, not to a layer.
pub const REP: &str = "rep";
pub const SETUP: &str = "setup";
pub const BODY: &str = "body";

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// The operation (cell, artifact, entry) the call served; spans of
    /// one operation share it.
    pub op: u32,
    /// Units of work the call handled (edges built, nodes searched), so
    /// that cost per unit is measured where the work happens.
    pub work: u64,
    /// Time the program's own profiler reported, laid out inside the
    /// parent rather than observed at these instants.
    pub synthetic: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records the spans and counts of one traced repetition.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
        }
    }

    /// A tracer that records nothing: `span` only calls its closure.
    /// End-to-end repetitions run the shared construction code with it.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    /// Whether spans are being recorded: the workloads' shared code
    /// takes the program's composite entry points when not, and their
    /// constituent calls when so.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on serve operation `op`.
    pub fn set_op(&mut self, op: usize) {
        self.op = op as u32;
    }

    /// Times `f` as a span named `name`; spans opened inside `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
            work: 0,
            synthetic: false,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// A span around one call that opens no spans of its own.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span(name, |_| f())
    }

    /// Notes that the call just traced with [`Tracer::call`] handled
    /// `units` of work.
    pub fn work(&mut self, units: u64) {
        if let Some(last) = self.spans.last_mut() {
            last.work = units;
        }
    }

    /// Adds `n` to the count `name`, recorded where the work happens.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if !self.on {
            return;
        }
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// Splits the most recently closed span into children whose
    /// durations the program's profiler measured (`parts`, laid end to
    /// end from the parent's start and clipped to its end).
    pub fn split_last(&mut self, parts: &[(&'static str, u64)]) {
        let parent = self.spans.len() - 1;
        let (mut at, end, op) = {
            let p = &self.spans[parent];
            (p.start_ns, p.end_ns, p.op)
        };
        for &(name, dur_ns) in parts {
            let stop = (at + dur_ns).min(end);
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: stop,
                parent: Some(parent as u32),
                op,
                work: 0,
                synthetic: true,
            });
            at = stop;
        }
    }

    pub fn finish(self) -> Trace {
        assert!(self.open.is_empty(), "a span is still open");
        Trace {
            spans: self.spans,
            counts: self.counts,
        }
    }
}

/// The spans and counts of one finished repetition.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub counts: BTreeMap<&'static str, u64>,
}

impl Trace {
    /// Total self time per span name.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// Total duration of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Share of the repetition spent in the harness's own spans rather
    /// than inside a layer.
    pub fn unattributed_share(&self) -> f64 {
        let own = self.self_ns();
        let harness: u64 = [REP, SETUP, BODY]
            .iter()
            .map(|n| own.get(n).copied().unwrap_or(0))
            .sum();
        harness as f64 / self.total_ns(REP).max(1) as f64
    }

    /// Chrome trace-event JSON (load in `chrome://tracing` or Perfetto).
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":{}}}}}",
            ebda_obs::json::escape(workload)
        ));
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                ",\n{{\"name\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1,\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{},\"work\":{},\"synthetic\":{}}}}}",
                ebda_obs::json::escape(s.name),
                ebda_obs::json::number(s.start_ns as f64 / 1e3),
                ebda_obs::json::number(s.dur_ns() as f64 / 1e3),
                s.op,
                s.work,
                s.synthetic
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

/// The per-layer metrics of one traced run: every name of
/// [`crate::spec::PER_LAYER`], zero where the workload never enters
/// the layer.
#[derive(Debug, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn new() -> Metrics {
        Metrics(PER_LAYER.iter().map(|&name| (name, 0.0)).collect())
    }

    /// # Panics
    ///
    /// Panics on a name `BENCHMARK.json` does not list.
    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric")) = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    /// The self time of each span name `x` as metric `x_ns`, each count
    /// under its own name.
    fn absorb(&mut self, trace: &Trace) {
        for (stem, ns) in trace.self_ns() {
            let name = format!("{stem}_ns");
            if self.0.contains_key(name.as_str()) {
                self.set(&name, ns as f64);
            }
        }
        for (name, &n) in &trace.counts {
            self.set(name, n as f64);
        }
    }
}

/// The result of one traced run.
pub struct TracedReport {
    pub metrics: Metrics,
    /// The fastest traced repetition.
    pub trace: Trace,
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

/// The traced run of one workload: `reps` untraced repetitions for the
/// base line, `reps` traced ones of which the fastest is kept, and one
/// repetition under the allocation counter. The workload's probes are
/// the caller's to add.
pub fn traced_run<W: Workload>(w: &W, seed: u64, reps: usize) -> TracedReport {
    let base = measure(w, seed, 0.0, reps);
    let mut checks = Checks::default();
    let mut attempted = base.attempted;
    let mut best: Option<Trace> = None;
    for rep in 0..reps {
        let mut t = Tracer::new();
        let (out, inputs) = t.span(REP, |t| {
            let inputs = t.span(SETUP, |t| w.construct(t));
            let out = t.span(BODY, |t| w.traced_body(&inputs, t, &mut checks));
            (out, inputs)
        });
        drop(inputs);
        attempted += out.ops;
        if out.digest != base.digest {
            checks.failed += out.ops;
            checks.messages.push(format!(
                "{}: traced repetition {rep} digest {:#018x} differs from the untraced {:#018x}",
                w.name(),
                out.digest,
                base.digest
            ));
        }
        let trace = t.finish();
        if best
            .as_ref()
            .is_none_or(|b| trace.total_ns(REP) < b.total_ns(REP))
        {
            best = Some(trace);
        }
    }
    let trace = best.expect("at least one traced repetition");

    let mut m = Metrics::new();
    m.absorb(&trace);
    w.derive(&trace, &mut m);
    m.set(
        "trace.overhead_ratio",
        trace.total_ns(BODY) as f64 * 1e-9 / base.wall.min,
    );
    m.set("trace.unattributed_share", trace.unattributed_share());
    let (out, calls, bytes) = count_allocations(|| {
        let inputs = w.construct(&mut Tracer::off());
        w.body(&inputs, &mut checks)
    });
    attempted += out.ops;
    m.set("alloc.count", calls as f64);
    m.set("alloc.bytes", bytes as f64);

    let mut messages = base.messages;
    messages.append(&mut checks.messages);
    TracedReport {
        metrics: m,
        trace,
        attempted,
        failed: (base.failed + checks.failed).min(attempted),
        messages,
    }
}

/// The system allocator with a switchable count of calls and bytes.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are relaxed
// statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `alloc`; `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: as for `alloc`; `ptr` came from `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counts the allocations `f` makes (on every thread) as `(calls, bytes)`.
pub fn count_allocations<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (a0, b0) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (
        out,
        ALLOCS.load(Ordering::Relaxed) - a0,
        BYTES.load(Ordering::Relaxed) - b0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
            work: 0,
            synthetic: false,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // rep [0,100] > body [10,90] > a [20,50], a [60,70] > b [62,66]
        let t = Trace {
            spans: vec![
                span(REP, 0, 100, None),
                span(BODY, 10, 90, Some(0)),
                span("a", 20, 50, Some(1)),
                span("a", 60, 70, Some(1)),
                span("b", 62, 66, Some(3)),
            ],
            counts: BTreeMap::new(),
        };
        let own = t.self_ns();
        assert_eq!(own[REP], 20);
        assert_eq!(own[BODY], 40);
        assert_eq!(own["a"], 30 + 6);
        assert_eq!(own["b"], 4);
        // Self times partition the root span.
        assert_eq!(own.values().sum::<u64>(), 100);
        assert_eq!(t.total_ns("a"), 40);
        assert!((t.unattributed_share() - 0.60).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_spans_and_splits_the_last_one() {
        let mut t = Tracer::new();
        t.span(REP, |t| {
            t.set_op(3);
            t.span("outer", |t| t.call("inner", || std::hint::black_box(1 + 1)));
            t.count("things", 2);
            t.count("things", 3);
        });
        let trace = t.finish();
        let names: Vec<_> = trace.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, [REP, "outer", "inner"]);
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[2].parent, Some(1));
        assert_eq!(trace.spans[2].op, 3);
        assert_eq!(trace.counts["things"], 5);
        assert!(trace.spans[0].end_ns >= trace.spans[1].end_ns);

        let mut t = Tracer::new();
        t.call("sim", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.split_last(&[("x", 500_000), ("y", u64::MAX / 4)]);
        let trace = t.finish();
        assert_eq!(trace.spans[1].dur_ns(), 500_000);
        assert!(trace.spans[1].synthetic);
        // Clipped to the parent, so the parent's self time never underflows.
        assert_eq!(trace.spans[2].end_ns, trace.spans[0].end_ns);
        assert_eq!(trace.self_ns()["sim"], 0);
    }

    #[test]
    fn chrome_json_loads() {
        let mut t = Tracer::new();
        t.span(REP, |t| t.call("cdg.build", || ()));
        let json = t.finish().to_chrome_json("verify-scale");
        let doc = ebda_obs::json::Value::parse(&json).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("ph").and_then(|v| v.as_str()), Some("M"));
        for e in &events[1..] {
            assert_eq!(e.get("ph").and_then(|v| v.as_str()), Some("X"));
            assert!(e.get("name").and_then(|v| v.as_str()).is_some());
            // Microseconds, fractional: sub-microsecond calls keep their length.
            assert!(e.get("ts").and_then(|v| v.as_f64()).is_some());
            assert!(e.get("dur").and_then(|v| v.as_f64()).is_some());
        }
        let inner = events[2].get("args").unwrap();
        assert_eq!(inner.get("parent").and_then(|v| v.as_u64()), Some(0));
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span(REP, |t| t.call("x", || 5)), 5);
        t.count("n", 1);
        let trace = t.finish();
        assert!(trace.spans.is_empty() && trace.counts.is_empty());
    }

    #[test]
    fn allocation_counter_counts_calls_and_bytes() {
        // Other tests allocate concurrently, so only lower bounds hold.
        let (v, calls, bytes) = count_allocations(|| vec![0u8; 4096]);
        assert_eq!(v.len(), 4096);
        assert!(calls >= 1);
        assert!(bytes >= 4096);
    }
}
