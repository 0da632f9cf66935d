//! # ebda-core — the EbDa theory, executable
//!
//! A faithful implementation of *EbDa: A New Theory on Design and
//! Verification of Deadlock-free Interconnection Networks* (Ebrahimi &
//! Daneshtalab, ISCA 2017).
//!
//! EbDa replaces the search for an acyclic channel dependency graph with a
//! constructive recipe: divide the network's channels into disjoint
//! partitions, each containing **at most one complete D-pair** (Theorem 1);
//! take U-/I-turns inside a partition in ascending numbering order
//! (Theorem 2); and move between partitions only in one fixed consecutive
//! order (Theorem 3). Every design built this way is deadlock-free by
//! construction, and sweeping the number of partitions trades adaptiveness
//! for simplicity — from maximally fully adaptive down to deterministic
//! routing.
//!
//! ## Quick start
//!
//! ```
//! use ebda_core::{extract_turns, PartitionSeq};
//!
//! // West-first routing as a partitioning: PA[X-] -> PB[X+ Y+ Y-].
//! let design = PartitionSeq::parse("X- | X+ Y+ Y-")?;
//! design.validate()?; // Theorem 1 + disjointness
//! let turns = extract_turns(&design)?; // Theorems 1+2+3
//! assert_eq!(turns.turn_set().counts().ninety, 6); // max adaptiveness in 2D
//! # Ok::<(), ebda_core::EbdaError>(())
//! ```
//!
//! ## Crate map
//!
//! * `channel` — dimensions, directions, VCs, parity classes
//!   (Definitions 1, 4–6).
//! * `partition` / `sequence` — partitions and partition sequences with
//!   the Theorem 1 and disjointness checks (Definitions 2–3, 6).
//! * [`extract`] — the turn-extraction engine (Theorems 1–3; Figure 8).
//! * [`sets`], [`algorithm1`], [`algorithm2`], [`exceptional`] — the
//!   Section 5 partitioning methodology (arrangements, Algorithm 1,
//!   Algorithm 2, the no-VC exceptional case).
//! * [`min_channels`] — Section 4's `(n+1)·2^(n-1)` minimum-channel
//!   constructions.
//! * [`adaptiveness`] — region coverage and minimal-path counting.
//! * [`canonical`] — order-independent content hashing of verification
//!   problems (corpus addressing, verdict-cache keys).
//! * [`catalog`] — the paper's named designs (XY, west-first,
//!   negative-first, north-last, DyXY, Odd-Even, Hamiltonian, Figures 7
//!   and 9, Table 5).
//! * [`theorems`] — one-call design analysis reports.
//!
//! Structural *verification* of these designs on concrete topologies
//! (channel dependency graphs, cycle detection, Dally's criterion) lives in
//! the companion `ebda-cdg` crate; routing functions and the wormhole
//! simulator live in `ebda-routing` and `noc-sim`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The catalog list the unit tests iterate, shared with the integration
/// suites (`tests/designs/mod.rs`, which names this crate `ebda_core`).
#[cfg(test)]
#[path = "../tests/designs/mod.rs"]
mod designs;
#[cfg(test)]
extern crate self as ebda_core;

pub mod adaptiveness;
pub mod algorithm1;
pub mod algorithm2;
pub mod builder;
pub mod canonical;
pub mod catalog;
pub mod certify;
pub(crate) mod channel;
pub mod dot;
pub(crate) mod error;
pub mod exceptional;
pub mod extract;
pub mod min_channels;
pub(crate) mod partition;
pub(crate) mod sequence;
pub mod sets;
pub mod theorems;
pub(crate) mod turn;

pub use channel::{parse_channels, Channel, ChannelClass, Dimension, Direction, Parity};
pub use error::{EbdaError, Result};
pub use extract::{extract_turns, Extraction, Justification};
pub use partition::{DirectionCoverage, Partition};
pub use sequence::PartitionSeq;
pub use theorems::{design_verdict, DesignVerdict};
pub use turn::{Turn, TurnCounts, TurnKind, TurnSet};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::Channel>();
        assert_send_sync::<crate::Partition>();
        assert_send_sync::<crate::PartitionSeq>();
        assert_send_sync::<crate::TurnSet>();
        assert_send_sync::<crate::Extraction>();
        assert_send_sync::<crate::EbdaError>();
    }
}
