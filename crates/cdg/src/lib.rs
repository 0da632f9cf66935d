//! # ebda-cdg — channel dependency graphs and deadlock verification
//!
//! The verification substrate of the EbDa reproduction: it instantiates
//! designs from [`ebda_core`] on concrete topologies and checks them with
//! the two classic criteria the paper builds on and compares against:
//!
//! * **Dally & Seitz** ([`dally`]): build the channel dependency graph
//!   (CDG, [`graph`]) and test it for cycles ([`csr`]). EbDa's claim is
//!   that every partitioning satisfying Theorems 1–3 yields an acyclic CDG;
//!   the tests in this crate confirm it for every design the paper names
//!   and for randomly generated ones.
//! * **Glass & Ni turn models** ([`turn_model`]): the brute-force
//!   one-prohibited-turn-per-abstract-cycle enumeration whose `4^c`
//!   explosion motivates EbDa (Section 2 of the paper).
//! * **Duato** ([`duato`]): the escape-channel conditions of the baseline
//!   theory for fully adaptive routing.
//!
//! ```
//! use ebda_cdg::{dally::verify_design, Topology};
//! use ebda_core::PartitionSeq;
//!
//! let west_first = PartitionSeq::parse("X- | X+ Y+ Y-")?;
//! let report = verify_design(&Topology::mesh(&[8, 8]), &west_first)?;
//! assert!(report.is_deadlock_free());
//! # Ok::<(), ebda_core::EbdaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitrow;
pub mod csr;
pub mod dally;
pub mod duato;
pub mod graph;
pub(crate) mod incremental;
pub mod topology;
pub mod turn_model;
mod walk;

pub use csr::Csr;
pub use dally::{verify_design, verify_turn_set, VerificationReport};
pub use graph::{Cdg, ConcreteChannel, Relation, Skeleton};
pub use incremental::IncrementalVerifier;
pub use topology::{Connectivity, NodeId, Topology};
