//! # ebda-obs — observability for the EbDa reproduction
//!
//! A zero-dependency observability layer shared by every crate in the
//! workspace:
//!
//! * [`Recorder`] — a bounded ring-buffer **event recorder** capturing the
//!   micro-events of a simulation run (injection, VC allocation, switch
//!   stalls, link traversals, ejection, drops, watchdog trips and the
//!   structured wait-for edges of a diagnosed deadlock) plus **periodic
//!   time-series samples** of channel occupancy, credit stalls and
//!   in-flight packet counts.
//! * [`metrics`] — a live **metrics registry** (log-bucketed histograms,
//!   counters, gauges) rendered as Prometheus text exposition, and
//!   [`http`] — the blocking `/metrics` + `/healthz` endpoint serving it
//!   while a sweep or oracle campaign runs.
//! * [`prof`] — a deterministic **self-profiler** and the workspace's
//!   only span system: hierarchical phases (slash paths like
//!   `sim/run/route` or `core/algorithm1`) each recording wall
//!   nanoseconds *and* deterministic work-unit counters, plus per-worker
//!   busy timelines, exported as a phase table / flame JSON / Perfetto
//!   worker tracks, the counters pinned by `tests/work_counters.rs`.
//! * [`json`] / `csv` — hand-rolled writers (and a JSON parser), so
//!   traces can be exported and read back without pulling in serde (the
//!   build environment has no registry access).
//! * [`rng::Rng64`] — a splitmix64 PRNG giving the workspace deterministic
//!   randomness without the `rand` crate.
//! * [`coverage`] — deterministic, mergeable **design-space coverage
//!   maps** fed by the verdict paths and the simulator: obligations
//!   discharged, turn pairs admitted/denied, CDG edges visited, escape
//!   channels drained, GFP pairs enumerated and design-space bins hit.
//! * `journey` — **per-packet journey tracing**: a deterministic
//!   splitmix64 sampler picks packets whose full causal span tree
//!   (injection → per-hop VC allocation → channel hold → ejection/drop)
//!   is reconstructed from the recorder's event stream, and [`chrome`]
//!   exports those journeys as Chrome Trace Event Format JSON loadable
//!   in Perfetto or `chrome://tracing`.
//!
//! Everything in this crate is deterministic: identical inputs produce
//! byte-identical exports, which the test suites rely on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The tests' shared checkers name this crate as their includers do.
#[cfg(test)]
extern crate self as ebda_obs;

/// The CSV reader of the round-trip tests, shared with the integration
/// suites (`tests/csv_reader/mod.rs`).
#[cfg(test)]
#[path = "../tests/csv_reader/mod.rs"]
mod csv_reader;

pub mod chrome;
pub mod coverage;
pub(crate) mod csv;
pub(crate) mod event;
pub mod http;
pub(crate) mod journey;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod prof;
pub(crate) mod recorder;
pub(crate) mod ring;
pub(crate) mod rng;

pub use chrome::TraceBuilder;
pub use coverage::CoverageMap;
pub use event::{Event, EventKind};
pub use http::{http_get, MetricsServer};
pub use journey::{ChannelCoord, Journey, JourneyConfig, JourneyEnd, JourneyTracer};
pub use ledger::LedgerRecord;
pub use metrics::{Histogram, MetricsRegistry};
pub use prof::{PhaseStat, ProfSnapshot, WorkerSegment};
pub use recorder::{Recorder, RecorderConfig, Sample};
pub use rng::Rng64;
