//! # ebda-oracle — differential verification for the EbDa reproduction
//!
//! The paper's central claim is that EbDa's algebraic checks agree with —
//! and scale far beyond — brute-force deadlock search. This crate turns
//! that claim into an executable, self-checking artifact: four independent
//! verdict paths, a deterministic random-artifact generator that feeds
//! them all, and a minimizer + simulator replay for the day they ever
//! disagree.
//!
//! * [`brute`] — an exhaustive bounded deadlock searcher over channel-wait
//!   configurations, sharing no code with the CDG machinery.
//! * [`artifact`] — random partitionings, channel orderings and routing
//!   relations, reproducible from a seed.
//! * [`verdict`] — the four verdict paths (EbDa, Dally, Duato, brute) and
//!   the cross-checking rules, plus mutation hooks that deliberately break
//!   a checker to prove the oracle notices.
//! * [`shrink`] — greedy 1-minimal counterexample reduction.
//! * [`provenance`] — the full proof evidence behind one verdict
//!   (certificates, orderings, witnesses) in canonical JSON, plus the
//!   independent checker `ebda check-cert` runs.
//! * [`differential`] — the campaign entry point shared by the `ebda oracle`
//!   command, the integration tests and CI.
//! * `coverage` — per-artifact coverage extraction feeding the
//!   design-space coverage maps of [`ebda_obs::coverage`], plus the
//!   design-space bin labels coverage-guided generation steers by.
//!
//! ```
//! use ebda_oracle::differential::{run_campaign, CampaignConfig};
//! use std::time::Duration;
//!
//! let report = run_campaign(&CampaignConfig {
//!     budget: Duration::ZERO,
//!     min_configs: 6,
//!     max_nodes: 12,
//!     ..CampaignConfig::default()
//! });
//! assert!(report.is_clean());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod brute;
pub(crate) mod coverage;
pub mod differential;
pub mod provenance;
pub mod shrink;
pub mod verdict;

pub use artifact::{Artifact, ArtifactKind, Generator};
pub use brute::{search as brute_search, BruteReport};
pub use coverage::{artifact_coverage, design_bin, shape_bin};
pub use differential::{run_campaign, CampaignConfig, CampaignReport};
pub use provenance::{CheckReport, Provenance};
pub use shrink::shrink;
pub use verdict::{cross_check, evaluate, Disagreement, Evaluation, Mutation, Verdicts};
