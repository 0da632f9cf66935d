//! # ebda — design and verification of deadlock-free interconnection networks
//!
//! A comprehensive reproduction of *EbDa: A New Theory on Design and
//! Verification of Deadlock-free Interconnection Networks* (Ebrahimi &
//! Daneshtalab, ISCA 2017), as a facade that re-exports eight of the
//! workspace's crates (`ebda-par`, the thread pool, is used through them):
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `ebda-core` | channel algebra, Theorems 1–3, turn extraction, partitioning algorithms, minimum-channel constructions |
//! | [`cdg`] | `ebda-cdg` | channel dependency graphs, Dally/Duato verification, brute-force turn-model enumeration |
//! | [`routing`] | `ebda-routing` | turn-set-driven routing + classic algorithms (XY, West-First, Odd-Even, Elevator-First, Duato, …) |
//! | [`sim`] | `noc-sim` | cycle-driven wormhole simulator with deadlock watchdog |
//! | [`oracle`] | `ebda-oracle` | differential verification: brute-force deadlock search, verdict cross-checking, counterexample shrinking |
//! | [`corpus`] | `ebda-corpus` | labeled ground-truth scenario corpus and its regression campaign |
//! | [`obs`] | `ebda-obs` | observability: event recorder, metrics, self-profiler, journeys, coverage maps, run ledger, JSON/CSV export |
//! | [`bench`](mod@bench) | `ebda-bench` | everything behind the `ebda` executable: the `repro` tables and figures, campaign drivers, flags |
//!
//! ## The whole pipeline in one example
//!
//! ```
//! use ebda::prelude::*;
//!
//! // 1. Design: partition the channels (Theorem 1 + disjointness).
//! let design = PartitionSeq::parse("X- | X+ Y+ Y-")?; // west-first
//! design.validate()?;
//!
//! // 2. Extract every allowable turn (Theorems 1–3).
//! let turns = extract_turns(&design)?;
//! assert_eq!(turns.turn_set().counts().ninety, 6);
//!
//! // 3. Verify with Dally's criterion on a concrete mesh.
//! let topo = Topology::mesh(&[4, 4]);
//! assert!(verify_design(&topo, &design)?.is_deadlock_free());
//!
//! // 4. Route and simulate.
//! let relation = TurnRouting::from_design("west-first", &design)?;
//! let cfg = SimConfig { injection_rate: 0.02, ..SimConfig::default() };
//! let result = simulate(&topo, &relation, &cfg);
//! assert!(result.outcome.is_deadlock_free());
//! # Ok::<(), ebda::core::EbdaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ebda_bench as bench;
pub use ebda_cdg as cdg;
pub use ebda_core as core;
pub use ebda_corpus as corpus;
pub use ebda_obs as obs;
pub use ebda_oracle as oracle;
pub use ebda_routing as routing;
pub use noc_sim as sim;

/// One-stop imports for the full design→verify→simulate pipeline.
pub mod prelude {
    pub use ebda_cdg::{verify_design, verify_turn_set, Topology};
    pub use ebda_core::{
        catalog, extract_turns, parse_channels, Channel, Dimension, Direction, EbdaError,
        Partition, PartitionSeq, Turn, TurnKind, TurnSet,
    };
    pub use ebda_routing::{classic, walk_first_choice, RoutingRelation, TurnRouting, INJECT};
    pub use noc_sim::{simulate, BufferPolicy, Outcome, SimConfig, SimResult, TrafficPattern};
}
