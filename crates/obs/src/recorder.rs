//! The flight recorder: a bounded event log plus periodic time-series
//! samples, with JSON and CSV exporters.
//!
//! The recorder is deliberately passive — the simulator owns the
//! emission sites and hands events in; the recorder keeps the most
//! recent `capacity` of them (hardware-trace-buffer style) while
//! per-kind totals keep counting across evictions, so aggregate numbers
//! stay exact even when the ring wraps.

use crate::csv;
use crate::event::{Event, EventKind};
use crate::journey::{JourneyConfig, JourneyTracer};
use crate::json::{self, Field};
use crate::ring::RingBuffer;
use std::fmt::{self, Write as _};

/// Flight-recorder configuration.
#[derive(Debug, Clone)]
pub struct RecorderConfig {
    /// Maximum events retained (older events are evicted, still counted).
    pub capacity: usize,
    /// Emit one [`Sample`] every this many cycles (0 disables sampling).
    pub sample_every: u64,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            capacity: 65_536,
            sample_every: 100,
        }
    }
}

/// One periodic snapshot of network state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Simulation cycle of the snapshot.
    pub cycle: u64,
    /// Packets injected but not yet ejected or dropped.
    pub in_flight: u64,
    /// Flits resident in buffers or on links.
    pub buffered_flits: u64,
    /// Output VCs that are owned but have zero credits.
    pub credit_stalls: u64,
    /// Per-output-channel buffer occupancy (flits), indexed by the
    /// simulator's output-slot numbering.
    pub occupancy: Vec<u32>,
}

impl Sample {
    /// Header for [`Sample::write_csv`] exports. `occupancy` is the full
    /// space-separated per-channel vector; the mean/max columns summarize
    /// it for quick plotting.
    pub(crate) const CSV_HEADER: &'static str =
        "cycle,in_flight,buffered_flits,credit_stalls,occupancy_mean,occupancy_max,occupancy";

    /// The scalar fields, in the order both exports list them first.
    fn counts(&self) -> [(&'static str, Field<'static>); 4] {
        [
            ("cycle", Field::U64(self.cycle)),
            ("in_flight", Field::U64(self.in_flight)),
            ("buffered_flits", Field::U64(self.buffered_flits)),
            ("credit_stalls", Field::U64(self.credit_stalls)),
        ]
    }

    /// Writes the sample as one CSV row matching [`Sample::CSV_HEADER`]
    /// (no newline); none of its cells needs quoting.
    pub(crate) fn write_csv(&self, out: &mut String) {
        let n = self.occupancy.len().max(1);
        let sum: u64 = self.occupancy.iter().map(|&x| u64::from(x)).sum();
        let max = self.occupancy.iter().copied().max().unwrap_or(0);
        for (_, count) in self.counts() {
            let _ = write!(out, "{count},");
        }
        let _ = write!(out, "{:.4},{max},", sum as f64 / n as f64);
        let vector: Vec<String> = self.occupancy.iter().map(u32::to_string).collect();
        out.push_str(&vector.join(" "));
    }

    /// Writes the sample as one JSON object.
    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        out.write_char('{')?;
        json::write_members(out, ",", self.counts())?;
        out.write_str(",\"occupancy\":")?;
        json::write_list(out, ",", &self.occupancy, |out, &x| {
            json::write_u64(out, x.into())
        })?;
        out.write_char('}')
    }
}

/// Bounded event recorder with periodic sampling.
#[derive(Debug, Clone)]
pub struct Recorder {
    config: RecorderConfig,
    events: RingBuffer<Event>,
    samples: Vec<Sample>,
    totals: [u64; EventKind::ALL.len()],
    journeys: Option<JourneyTracer>,
}

impl Recorder {
    /// Creates a recorder with the given configuration.
    pub fn new(config: RecorderConfig) -> Self {
        let capacity = config.capacity;
        Recorder {
            config,
            events: RingBuffer::new(capacity),
            samples: Vec::new(),
            totals: [0; EventKind::ALL.len()],
            journeys: None,
        }
    }

    /// Creates a recorder with [`RecorderConfig::default`].
    pub fn with_defaults() -> Self {
        Recorder::new(RecorderConfig::default())
    }

    /// Attaches a journey tracer: from now on every recorded event is
    /// also folded into per-packet journeys (see `crate::journey`).
    /// Unlike ring events, journeys of sampled packets are never
    /// evicted, so attach with a sane `sample_rate`/`max_journeys`.
    pub fn enable_journeys(&mut self, cfg: JourneyConfig) {
        self.journeys = Some(JourneyTracer::new(cfg));
    }

    /// The journey tracer, when [`Recorder::enable_journeys`] was called.
    pub fn journeys(&self) -> Option<&JourneyTracer> {
        self.journeys.as_ref()
    }

    /// Records one event.
    pub fn record(&mut self, event: Event) {
        if let Some(j) = self.journeys.as_mut() {
            j.observe(&event);
        }
        self.totals[Self::slot(event.kind())] += 1;
        self.events.push(event);
    }

    /// Whether a periodic sample is due at `cycle`.
    pub fn sample_due(&self, cycle: u64) -> bool {
        self.config.sample_every > 0 && cycle.is_multiple_of(self.config.sample_every)
    }

    /// Appends a periodic sample.
    pub fn push_sample(&mut self, sample: Sample) {
        self.samples.push(sample);
    }

    /// The sampling cadence in cycles (0 = disabled).
    pub fn sample_every(&self) -> u64 {
        self.config.sample_every
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Recorded samples, oldest first.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of events currently retained in the ring.
    pub fn retained(&self) -> usize {
        self.events.len()
    }

    /// Events evicted by ring wraparound (still included in totals).
    pub fn evicted(&self) -> u64 {
        self.events.dropped()
    }

    /// Total events ever recorded of `kind`, eviction-proof.
    pub fn total(&self, kind: EventKind) -> u64 {
        self.totals[Self::slot(kind)]
    }

    fn slot(kind: EventKind) -> usize {
        EventKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("kind in ALL")
    }

    /// Exports the whole trace as one JSON document:
    /// `{"meta": .., "totals": .., "events": [..], "samples": [..]}`.
    pub fn write_json(&self) -> String {
        let mut out = String::with_capacity(128 * (self.retained() + self.samples.len() + 2));
        self.write_json_to(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    fn write_json_to(&self, out: &mut String) -> fmt::Result {
        /// One element per line, indented under the list's key.
        fn rows<T>(
            out: &mut String,
            items: impl IntoIterator<Item = T>,
            mut item: impl FnMut(&mut String, T) -> fmt::Result,
        ) -> fmt::Result {
            for (i, x) in items.into_iter().enumerate() {
                out.push_str(if i > 0 { ",\n    " } else { "    " });
                item(out, x)?;
            }
            Ok(())
        }
        use Field::U64;
        out.push_str("{\n  \"meta\": ");
        let meta = [
            ("capacity", U64(self.events.capacity() as u64)),
            ("sample_every", U64(self.config.sample_every)),
            ("retained", U64(self.retained() as u64)),
            ("evicted", U64(self.evicted())),
        ];
        json::write_object(out, ", ", meta)?;
        out.push_str(",\n  \"totals\": ");
        let totals = EventKind::ALL.map(|k| (k.name(), U64(self.total(k))));
        json::write_object(out, ", ", totals)?;
        out.push_str(",\n  \"events\": [\n");
        rows(out, self.events.iter(), |out, e| e.write_json(out))?;
        out.push_str("\n  ],\n  \"samples\": [\n");
        rows(out, &self.samples, |out, s| s.write_json(out))?;
        out.push_str("\n  ]\n}\n");
        Ok(())
    }

    /// Exports the retained events as CSV (header + one row per event).
    pub fn events_csv(&self) -> String {
        csv::table(Event::CSV_HEADER, self.events.iter(), Event::write_csv)
    }

    /// Exports the samples as CSV (header + one row per sample).
    pub fn samples_csv(&self) -> String {
        csv::table(Sample::CSV_HEADER, &self.samples, Sample::write_csv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn inject(cycle: u64, pid: u64) -> Event {
        Event::Inject {
            cycle,
            pid,
            src: 0,
            dst: 1,
            len: 4,
        }
    }

    #[test]
    fn totals_survive_wraparound() {
        let mut r = Recorder::new(RecorderConfig {
            capacity: 4,
            sample_every: 0,
        });
        for i in 0..10 {
            r.record(inject(i, i));
        }
        assert_eq!(r.retained(), 4);
        assert_eq!(r.evicted(), 6);
        assert_eq!(r.total(EventKind::Inject), 10);
        assert_eq!(r.totals.iter().sum::<u64>(), 10);
        let cycles: Vec<u64> = r.events().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9]);
    }

    #[test]
    fn json_export_parses_and_reports_counts() {
        let mut r = Recorder::new(RecorderConfig {
            capacity: 16,
            sample_every: 10,
        });
        r.record(inject(0, 0));
        r.record(Event::Eject {
            cycle: 7,
            pid: 0,
            node: 1,
            latency: 8,
        });
        r.push_sample(Sample {
            cycle: 10,
            in_flight: 1,
            buffered_flits: 4,
            credit_stalls: 0,
            occupancy: vec![0, 2, 2],
        });
        let doc = Value::parse(&r.write_json()).unwrap();
        assert_eq!(
            doc.get("meta").unwrap().get("retained").unwrap().as_u64(),
            Some(2)
        );
        assert_eq!(
            doc.get("totals").unwrap().get("inject").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(doc.get("events").unwrap().as_arr().unwrap().len(), 2);
        let samples = doc.get("samples").unwrap().as_arr().unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(
            samples[0].get("occupancy").unwrap().as_arr().unwrap().len(),
            3
        );
    }

    #[test]
    fn sampling_cadence() {
        let r = Recorder::new(RecorderConfig {
            capacity: 1,
            sample_every: 50,
        });
        assert!(r.sample_due(0));
        assert!(!r.sample_due(49));
        assert!(r.sample_due(100));
        let off = Recorder::new(RecorderConfig {
            capacity: 1,
            sample_every: 0,
        });
        assert!(!off.sample_due(0));
    }

    #[test]
    fn journey_tee_sees_every_recorded_event() {
        let mut r = Recorder::new(RecorderConfig {
            capacity: 2, // smaller than the event count: evictions must not affect journeys
            sample_every: 0,
        });
        r.enable_journeys(JourneyConfig::default());
        r.record(inject(0, 9));
        r.record(Event::VcAlloc {
            cycle: 1,
            pid: 9,
            node: 0,
            dim: 0,
            dir: '+',
            vc: 0,
        });
        r.record(Event::LinkTraverse {
            cycle: 2,
            pid: 9,
            flit: 0,
            from: 0,
            to: 1,
            dim: 0,
            dir: '+',
            vc: 0,
        });
        r.record(Event::Eject {
            cycle: 3,
            pid: 9,
            node: 1,
            latency: 3,
        });
        let t = r.journeys().expect("tracer attached");
        assert_eq!(t.journeys().len(), 1);
        assert_eq!(t.journeys()[0].hops.len(), 1);
        assert!(matches!(
            t.journeys()[0].end,
            crate::journey::JourneyEnd::Ejected { .. }
        ));
        assert!(r.evicted() > 0, "ring wrapped but the journey is whole");
    }

    #[test]
    fn journeys_absent_by_default() {
        assert!(Recorder::with_defaults().journeys().is_none());
    }

    #[test]
    fn csv_exports_have_aligned_columns() {
        let mut r = Recorder::with_defaults();
        r.record(inject(3, 1));
        r.push_sample(Sample {
            cycle: 0,
            in_flight: 0,
            buffered_flits: 0,
            credit_stalls: 0,
            occupancy: vec![1, 2, 3],
        });
        let events = r.events_csv();
        let mut lines = events.lines();
        let header_cols = lines.next().unwrap().split(',').count();
        for line in lines {
            assert_eq!(
                crate::csv_reader::parse_line(line).unwrap().len(),
                header_cols
            );
        }
        let samples = r.samples_csv();
        let mut lines = samples.lines();
        let header_cols = lines.next().unwrap().split(',').count();
        for line in lines {
            assert_eq!(
                crate::csv_reader::parse_line(line).unwrap().len(),
                header_cols
            );
        }
    }
}
