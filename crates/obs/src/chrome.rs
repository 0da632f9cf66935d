//! Chrome Trace Event Format export for packet journeys.
//!
//! The output is the JSON-object form of the Trace Event Format —
//! `{"traceEvents": [...]}` — loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`. Mapping:
//!
//! * one **process** per simulation run (`pid` = run index, named by the
//!   run label), so a sweep can merge many runs into one file;
//! * one **thread** per router (`tid` = node + 1) plus a watchdog track
//!   at `tid` 0;
//! * a **complete event** (`ph: "X"`) per span: the injection wait on
//!   the source router's track, then one channel-hold slice per hop on
//!   the holding router's track;
//! * **flow events** (`ph: "s"/"t"/"f"`) chaining injection → hops →
//!   ejection, so Perfetto draws the packet's causal arrow across
//!   routers;
//! * **instant events** (`ph: "i"`) for ejections, drops, watchdog
//!   trips and diagnosed wait-for edges.
//!
//! One simulation cycle maps to one microsecond of trace time (`ts` is
//! in µs), so cycle numbers read directly off the Perfetto ruler.

use std::collections::BTreeSet;

use crate::journey::{Journey, JourneyEnd, JourneyTracer};
use crate::json;

/// Builds a multi-run Chrome trace from journey tracers.
#[derive(Debug, Clone, Default)]
pub struct TraceBuilder {
    events: Vec<String>,
    runs: usize,
    next_flow: u64,
}

impl TraceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TraceBuilder::default()
    }

    /// Appends one run's journeys as a new trace process named `label`.
    pub fn add_run(&mut self, label: &str, tracer: &JourneyTracer) {
        let pid = self.runs;
        self.runs += 1;
        let horizon = tracer.last_cycle();

        self.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
            json::escape(label)
        ));

        let mut tids: BTreeSet<usize> = BTreeSet::new();
        for j in tracer.journeys() {
            tids.insert(j.src + 1);
            if let JourneyEnd::Ejected { .. } = j.end {
                tids.insert(j.dst + 1);
            }
            for h in &j.hops {
                tids.insert(h.channel.node + 1);
            }
        }
        let watchdog_track = !tracer.trips().is_empty() || !tracer.wait_notes().is_empty();
        if watchdog_track {
            self.push(format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"thread_name\",\"args\":{{\"name\":\"watchdog\"}}}}"
            ));
        }
        for tid in tids {
            self.push(format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"router {}\"}}}}",
                tid - 1
            ));
        }

        for j in tracer.journeys() {
            self.add_journey(pid, j, horizon);
        }

        for t in tracer.trips() {
            self.push(format!(
                "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"name\":\"watchdog trip\",\"args\":{{\"blocked\":{}}}}}",
                t.cycle, t.blocked
            ));
        }
        for n in tracer.wait_notes() {
            self.push(format!(
                "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"name\":{},\"args\":{{\"waiter\":{},\"waits_on\":{}}}}}",
                n.cycle,
                json::escape(&format!("wait: {}", n.label)),
                n.waiter,
                n.waits_on
            ));
        }
    }

    fn add_journey(&mut self, pid: usize, j: &Journey, horizon: u64) {
        let end_cycle = j.end_cycle(horizon);
        let suspect = if j.suspect { "true" } else { "false" };

        // Injection span: source track, from injection to the first VC
        // win (or to the journey's end while it never won one).
        let inject_end = j
            .hops
            .first()
            .map(|h| h.alloc_cycle)
            .unwrap_or(end_cycle)
            .max(j.inject_cycle + 1);
        self.push(format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"dur\":{},\"name\":{},\"args\":{{\"pid\":{},\"src\":{},\"dst\":{},\"len\":{},\"suspect\":{suspect}}}}}",
            j.src + 1,
            j.inject_cycle,
            inject_end - j.inject_cycle,
            json::escape(&format!("p{} inject", j.pid)),
            j.pid,
            j.src,
            j.dst,
            j.len
        ));

        // One hold slice per hop: from the VC win until the last flit
        // clears the link (release), on the holding router's track.
        for (i, h) in j.hops.iter().enumerate() {
            let release = j
                .hops
                .get(i + 1)
                .map(|n| n.alloc_cycle)
                .unwrap_or(end_cycle)
                .max(h.last_flit.map(|c| c + 1).unwrap_or(0))
                .max(h.alloc_cycle + 1);
            self.push(format!(
                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"dur\":{},\"name\":{},\"args\":{{\"pid\":{},\"channel\":{},\"to\":{},\"stalls\":{},\"suspect\":{suspect}}}}}",
                h.channel.node + 1,
                h.alloc_cycle,
                release - h.alloc_cycle,
                json::escape(&format!(
                    "p{} hold d{}{} vc{}",
                    j.pid, h.channel.dim, h.channel.dir, h.channel.vc
                )),
                j.pid,
                json::escape(&h.channel.to_string()),
                h.to.map(|t| t.to_string()).unwrap_or("null".into()),
                h.stalls
            ));
        }

        // Terminal instant.
        match j.end {
            JourneyEnd::Ejected { cycle, latency } => self.push(format!(
                "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{},\"ts\":{cycle},\"name\":{},\"args\":{{\"latency\":{latency}}}}}",
                j.dst + 1,
                json::escape(&format!("p{} eject", j.pid))
            )),
            JourneyEnd::Dropped { cycle } => self.push(format!(
                "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{},\"ts\":{cycle},\"name\":{},\"args\":{{}}}}",
                j.src + 1,
                json::escape(&format!("p{} drop", j.pid))
            )),
            JourneyEnd::InFlight => {}
        }

        // Flow chain across the spans above. A flow needs at least two
        // binding points, so journeys that never won a VC emit none.
        if !j.hops.is_empty() {
            let id = self.next_flow;
            self.next_flow += 1;
            let name = json::escape(&format!("p{}", j.pid));
            let mut points: Vec<(usize, u64)> = Vec::with_capacity(j.hops.len() + 1);
            points.push((j.src + 1, j.inject_cycle));
            for h in &j.hops {
                points.push((h.channel.node + 1, h.alloc_cycle));
            }
            let last = points.len() - 1;
            for (i, (tid, ts)) in points.into_iter().enumerate() {
                let ph = if i == 0 {
                    "s"
                } else if i == last {
                    "f"
                } else {
                    "t"
                };
                let bp = if ph == "f" { ",\"bp\":\"e\"" } else { "" };
                self.push(format!(
                    "{{\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"id\":{id},\"cat\":\"journey\",\"name\":{name}{bp}}}"
                ));
            }
        }
    }

    /// Appends the self-profiler's worker busy slices as a new trace
    /// process named `label`: one thread (track) per pool worker, one
    /// complete event per busy segment. Timestamps are real
    /// nanoseconds-since-epoch rendered as integer microseconds (unlike
    /// the journey processes, whose "µs" are simulation cycles — the
    /// tracks coexist in one file; only the rulers differ in meaning).
    /// A builder with no journey runs still renders: a profile-only
    /// export is a valid trace.
    pub fn add_worker_timeline(&mut self, label: &str, segments: &[crate::prof::WorkerSegment]) {
        if segments.is_empty() {
            return;
        }
        let pid = self.runs;
        self.runs += 1;
        self.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
            json::escape(label)
        ));
        let workers: BTreeSet<usize> = segments.iter().map(|s| s.worker).collect();
        for w in workers {
            self.push(format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"worker {w}\"}}}}",
                w + 1
            ));
        }
        for s in segments {
            self.push(format!(
                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"dur\":{},\"name\":{},\"args\":{{\"dur_ns\":{}}}}}",
                s.worker + 1,
                s.start_ns / 1_000,
                (s.dur_ns / 1_000).max(1),
                json::escape(&s.label),
                s.dur_ns
            ));
        }
    }

    fn push(&mut self, event: String) {
        self.events.push(event);
    }

    /// Serializes the trace as a Trace Event Format JSON object.
    pub fn finish(self) -> String {
        self.finish_inner(None)
    }

    /// Like [`Self::finish`], but splices one extra top-level key into
    /// the document (`value_json` must already be serialized JSON).
    /// Perfetto ignores unknown top-level keys, so the file stays
    /// loadable while carrying e.g. the `ebdaProfile` phase tree.
    pub fn finish_with_extra(self, key: &str, value_json: &str) -> String {
        self.finish_inner(Some((key, value_json)))
    }

    fn finish_inner(self, extra: Option<(&str, &str)>) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",");
        if let Some((key, value_json)) = extra {
            out.push_str(&json::escape(key));
            out.push(':');
            out.push_str(value_json);
            out.push(',');
        }
        out.push_str("\"traceEvents\":[\n");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(e);
        }
        out.push_str("\n]}\n");
        out
    }
}

/// The trace checker of the export tests, shared with the integration
/// suites (`tests/chrome_check/mod.rs`).
#[cfg(test)]
#[path = "../tests/chrome_check/mod.rs"]
mod chrome_check;

#[cfg(test)]
mod tests {
    use super::chrome_check::validate;
    use super::*;
    use crate::event::Event;
    use crate::journey::JourneyConfig;
    use crate::json::Value;

    fn sample_tracer() -> JourneyTracer {
        let mut t = JourneyTracer::new(JourneyConfig::default());
        let events = [
            Event::Inject {
                cycle: 0,
                pid: 1,
                src: 0,
                dst: 2,
                len: 2,
            },
            Event::VcAlloc {
                cycle: 1,
                pid: 1,
                node: 0,
                dim: 0,
                dir: '+',
                vc: 0,
            },
            Event::LinkTraverse {
                cycle: 2,
                pid: 1,
                flit: 0,
                from: 0,
                to: 1,
                dim: 0,
                dir: '+',
                vc: 0,
            },
            Event::VcAlloc {
                cycle: 3,
                pid: 1,
                node: 1,
                dim: 0,
                dir: '+',
                vc: 1,
            },
            Event::LinkTraverse {
                cycle: 4,
                pid: 1,
                flit: 0,
                from: 1,
                to: 2,
                dim: 0,
                dir: '+',
                vc: 1,
            },
            Event::Eject {
                cycle: 6,
                pid: 1,
                node: 2,
                latency: 6,
            },
            Event::Inject {
                cycle: 2,
                pid: 2,
                src: 3,
                dst: 0,
                len: 2,
            },
            Event::VcAlloc {
                cycle: 3,
                pid: 2,
                node: 3,
                dim: 1,
                dir: '-',
                vc: 0,
            },
            Event::Watchdog {
                cycle: 40,
                blocked: 1,
            },
            Event::WaitFor {
                cycle: 40,
                waiter: 2,
                waits_on: 1,
                label: "p2 wants d1- vc0".into(),
            },
        ];
        for e in &events {
            t.observe(e);
        }
        t
    }

    #[test]
    fn export_validates_and_counts_flows() {
        let mut b = TraceBuilder::new();
        b.add_run("unit run", &sample_tracer());
        let text = b.finish();
        let summary = validate(&text).unwrap();
        // p1: inject + 2 hops = 3 spans, 3 flow points; p2: inject +
        // 1 hop = 2 spans, 2 flow points.
        assert_eq!(summary.complete, 5);
        assert_eq!(summary.flows, 5);
        assert!(summary.instants >= 3, "eject + trip + wait note");
        assert!(summary.metadata >= 4, "process + watchdog + routers");
        assert!(summary.tracks >= 4);
        assert!(text.contains("\"ph\":\"s\""));
        assert!(text.contains("\"bp\":\"e\""));
    }

    #[test]
    fn multi_run_export_gets_distinct_pids() {
        let mut b = TraceBuilder::new();
        b.add_run("run a", &sample_tracer());
        b.add_run("run b", &sample_tracer());
        assert_eq!(b.runs, 2);
        let text = b.finish();
        let doc = Value::parse(&text).unwrap();
        let pids: std::collections::BTreeSet<u64> = doc
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(|e| e.get("pid").and_then(|v| v.as_u64()))
            .collect();
        assert_eq!(pids, [0u64, 1].into_iter().collect());
        validate(&text).unwrap();
    }

    #[test]
    fn empty_builder_still_emits_a_valid_document() {
        let text = TraceBuilder::new().finish();
        let summary = validate(&text).unwrap();
        assert_eq!(summary.total, 0);
    }

    #[test]
    fn spans_never_have_zero_duration() {
        let mut b = TraceBuilder::new();
        b.add_run("zero", &sample_tracer());
        let text = b.finish();
        let doc = Value::parse(&text).unwrap();
        for e in doc.get("traceEvents").unwrap().as_arr().unwrap() {
            if e.get("ph").and_then(|v| v.as_str()) == Some("X") {
                assert!(e.get("dur").unwrap().as_u64().unwrap() >= 1);
            }
        }
    }

    #[test]
    fn worker_timeline_renders_one_track_per_worker() {
        let seg =
            |worker: usize, label: &str, start_ns: u64, dur_ns: u64| crate::prof::WorkerSegment {
                worker,
                label: label.into(),
                start_ns,
                dur_ns,
            };
        let mut b = TraceBuilder::new();
        b.add_run("run", &sample_tracer());
        b.add_worker_timeline(
            "workers",
            &[
                seg(0, "task 0", 1_000, 500), // sub-µs dur still renders (≥1)
                seg(0, "task 2", 9_000, 4_000),
                seg(1, "task 1", 2_000, 3_000),
            ],
        );
        let text = b.finish();
        let summary = validate(&text).unwrap();
        assert!(text.contains("\"name\":\"workers\""));
        assert!(text.contains("worker 0") && text.contains("worker 1"));
        assert!(summary.complete >= 8, "journey spans + 3 worker slices");
        // No segments → no process either.
        let mut empty = TraceBuilder::new();
        empty.add_worker_timeline("workers", &[]);
        assert_eq!(empty.runs, 0);
    }

    #[test]
    fn finish_with_extra_stays_a_valid_trace() {
        let mut b = TraceBuilder::new();
        b.add_run("run", &sample_tracer());
        let text = b.finish_with_extra("ebdaProfile", "{\"phases\":[]}");
        validate(&text).expect("extra key must not break the trace");
        let doc = Value::parse(&text).unwrap();
        assert!(doc.get("ebdaProfile").is_some());
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate("not json").is_err());
        assert!(validate("{\"other\":[]}").is_err());
        assert!(validate("{\"traceEvents\":[{\"ts\":1}]}").is_err());
        assert!(
            validate("{\"traceEvents\":[{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":1}]}").is_err(),
            "complete event without dur must be rejected"
        );
        assert!(
            validate("{\"traceEvents\":[{\"ph\":\"s\",\"pid\":0,\"tid\":0,\"ts\":1,\"id\":3}]}")
                .is_err(),
            "flow event without cat must be rejected"
        );
    }
}
