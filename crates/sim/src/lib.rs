//! # noc-sim — a cycle-driven wormhole NoC simulator
//!
//! The empirical substrate of the EbDa reproduction: a deterministic,
//! credit-based, virtual-channel wormhole simulator that runs any
//! [`ebda_routing::RoutingRelation`] on any [`ebda_routing::Topology`] and reports
//! latency, throughput, per-channel load and — crucially — deadlocks, via a
//! progress watchdog.
//!
//! Two details tie the simulator to the paper:
//!
//! * [`BufferPolicy`] switches between EbDa's unrestricted wormhole
//!   buffers (multiple packets per input VC) and Duato's Assumption-3
//!   single-packet buffers, the restriction Section 2 of the paper
//!   criticises.
//! * The watchdog turns "deadlock freedom" from a structural claim (the
//!   acyclic CDG checked in `ebda-cdg`) into an observable: EbDa-derived
//!   designs must never trip it, and a deliberately cyclic turn set must
//!   (the positive control in this crate's tests).
//!
//! ```
//! use noc_sim::{simulate, SimConfig};
//! use ebda_routing::{classic::DimensionOrder, Topology};
//!
//! let topo = Topology::mesh(&[4, 4]);
//! let cfg = SimConfig { injection_rate: 0.02, ..SimConfig::default() };
//! let result = simulate(&topo, &DimensionOrder::xy(), &cfg);
//! assert!(result.outcome.is_deadlock_free());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The engine's pinned configuration matrix, shared with
/// `tests/engine_matrix.rs` (which names this crate `noc_sim`).
#[cfg(test)]
#[allow(dead_code)]
#[path = "../tests/matrix/mod.rs"]
mod matrix;
#[cfg(test)]
extern crate self as noc_sim;

pub mod config;
pub(crate) mod engine;
pub(crate) mod metrics;
pub mod sweep;
pub(crate) mod traffic;

pub use config::{BufferPolicy, ConfigError, Selection, SimConfig, Switching};
pub use ebda_obs::ChannelCoord;
pub use engine::{channel_heatmap_csv, simulate, simulate_traced};
pub use metrics::{Outcome, SimResult, SuspectedEdge};
pub use sweep::{saturation_rate, SweepPoint};
pub use traffic::TrafficPattern;
