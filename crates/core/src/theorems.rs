//! Design analysis: one-call verdicts tying Theorems 1–3 together.
//!
//! [`analyze`] condenses everything EbDa says about a partition sequence —
//! per-partition pair inventory, validity, extracted turn counts, region
//! adaptiveness — into a printable report used by the table/figure
//! regeneration binaries.

use crate::adaptiveness::is_fully_adaptive;
use crate::channel::Dimension;
use crate::error::Result;
use crate::extract::extract_turns;
use crate::sequence::PartitionSeq;
use crate::turn::TurnCounts;
use std::fmt;

/// Per-partition findings in a [`DesignAnalysis`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionAnalysis {
    /// Rendered channel list.
    pub channels: String,
    /// Number of channels.
    pub len: usize,
    /// Dimensions holding a complete D-pair (at most one for valid designs).
    pub pair_dims: Vec<Dimension>,
}

/// The result of [`analyze`]: a structural summary of an EbDa design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignAnalysis {
    /// Per-partition findings, in sequence order.
    pub partitions: Vec<PartitionAnalysis>,
    /// Total channel count.
    pub channels: usize,
    /// Turn counts of the full extraction (Theorems 1+2+3).
    pub turns: TurnCounts,
    /// Whether every region of the `n`-dimensional space is covered by a
    /// single partition (fully adaptive design).
    pub fully_adaptive: bool,
    /// The dimensionality used for the adaptiveness check.
    pub dims: usize,
}

impl fmt::Display for DesignAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "design: {} partitions, {} channels",
            self.partitions.len(),
            self.channels
        )?;
        for (i, p) in self.partitions.iter().enumerate() {
            let pairs = if p.pair_dims.is_empty() {
                "no complete pair".to_string()
            } else {
                format!(
                    "complete pair in {}",
                    p.pair_dims
                        .iter()
                        .map(|d| d.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            };
            writeln!(
                f,
                "  P{}: {} ({} channels, {})",
                i, p.channels, p.len, pairs
            )?;
        }
        writeln!(f, "turns: {}", self.turns)?;
        write!(
            f,
            "adaptiveness: {} in {}D",
            if self.fully_adaptive {
                "fully adaptive"
            } else {
                "not fully adaptive"
            },
            self.dims
        )
    }
}

/// A one-call EbDa verdict on a partition sequence, with the reason
/// attached — the machine-friendly face of [`analyze`] used by the
/// differential oracle and any caller that needs to know *why* a design
/// was rejected without pattern-matching on error types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignVerdict {
    /// The design satisfies Theorem 1 and partition disjointness, so the
    /// turn extraction (Theorems 1–3) succeeded: deadlock-free by
    /// construction on meshes.
    DeadlockFree {
        /// Number of partitions in the sequence.
        partitions: usize,
        /// Total channel count across partitions.
        channels: usize,
        /// Turn counts of the full extraction.
        turns: TurnCounts,
    },
    /// The design violates the EbDa preconditions; `reason` is the
    /// rendered validation error (which theorem failed, and where).
    Rejected {
        /// Human-readable rejection reason.
        reason: String,
    },
}

impl DesignVerdict {
    /// Returns `true` when EbDa accepts the design.
    pub fn is_deadlock_free(&self) -> bool {
        matches!(self, DesignVerdict::DeadlockFree { .. })
    }
}

impl fmt::Display for DesignVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignVerdict::DeadlockFree {
                partitions,
                channels,
                turns,
            } => write!(
                f,
                "deadlock-free by construction: {partitions} partitions, {channels} channels, turns {turns}"
            ),
            DesignVerdict::Rejected { reason } => write!(f, "rejected: {reason}"),
        }
    }
}

/// Runs the EbDa checks on a partition sequence and returns the verdict
/// with its reason.
///
/// ```
/// use ebda_core::theorems::design_verdict;
/// use ebda_core::PartitionSeq;
/// let ok = design_verdict(&PartitionSeq::parse("X- | X+ Y+ Y-").unwrap());
/// assert!(ok.is_deadlock_free());
/// let bad = design_verdict(&PartitionSeq::parse("X+ X- Y+ Y-").unwrap());
/// assert!(bad.to_string().contains("Theorem 1"));
/// ```
pub fn design_verdict(seq: &PartitionSeq) -> DesignVerdict {
    match extract_turns(seq) {
        Ok(extraction) => DesignVerdict::DeadlockFree {
            partitions: seq.len(),
            channels: seq.channel_count(),
            turns: extraction.turn_set().counts(),
        },
        Err(e) => DesignVerdict::Rejected {
            reason: e.to_string(),
        },
    }
}

/// Analyzes a design: validates it (Theorem 1 + disjointness), extracts all
/// turns (Theorems 1–3) and evaluates region adaptiveness over `n`
/// dimensions.
///
/// ```
/// use ebda_core::theorems::analyze;
/// use ebda_core::catalog;
/// let report = analyze(&catalog::fig7b_dyxy(), 2).unwrap();
/// assert!(report.fully_adaptive);
/// assert_eq!(report.channels, 6);
/// ```
///
/// # Errors
///
/// Returns the validation error when the sequence violates Theorem 1 or
/// partition disjointness.
pub fn analyze(seq: &PartitionSeq, n: usize) -> Result<DesignAnalysis> {
    let extraction = extract_turns(seq)?;
    let partitions = seq
        .partitions()
        .iter()
        .map(|p| PartitionAnalysis {
            channels: p.to_string(),
            len: p.len(),
            pair_dims: p.complete_pair_dims(),
        })
        .collect();
    Ok(DesignAnalysis {
        partitions,
        channels: seq.channel_count(),
        turns: extraction.turn_set().counts(),
        fully_adaptive: is_fully_adaptive(seq, n),
        dims: n,
    })
}

/// Renders a complete markdown design report: structure, per-theorem turn
/// inventory, region classification and the analysis summary — the
/// document a designer would attach to a design review.
///
/// `radix` controls the mesh used for the region sweep (small values
/// suffice; the classification is exact for the swept size).
///
/// # Errors
///
/// Returns the validation error for invalid designs.
pub fn markdown_report(seq: &PartitionSeq, n: usize, radix: i64) -> Result<String> {
    use crate::adaptiveness::region_classes;
    use crate::extract::Justification;
    use std::fmt::Write;

    let analysis = analyze(seq, n)?;
    let extraction = extract_turns(seq)?;
    let mut out = String::new();
    let _ = writeln!(out, "# Design report: `{seq}`\n");
    let _ = writeln!(
        out,
        "- partitions: {}\n- channels: {}\n- turns: {}\n- fully adaptive: {}\n",
        analysis.partitions.len(),
        analysis.channels,
        analysis.turns,
        if analysis.fully_adaptive { "yes" } else { "no" }
    );

    let _ = writeln!(out, "## Partitions\n");
    let _ = writeln!(out, "| # | channels | complete pair |");
    let _ = writeln!(out, "|---|---|---|");
    for (i, p) in analysis.partitions.iter().enumerate() {
        let pair = p
            .pair_dims
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            out,
            "| P{i} | `{}` | {} |",
            p.channels,
            if pair.is_empty() {
                "—".to_string()
            } else {
                pair
            }
        );
    }

    let _ = writeln!(out, "\n## Turns by justification\n");
    for (t, j) in extraction.justified_turns() {
        let label = match j {
            Justification::Theorem1 { partition } => format!("Theorem 1 (P{partition})"),
            Justification::Theorem2 { partition } => format!("Theorem 2 (P{partition})"),
            Justification::Theorem3 { from, to } => format!("Theorem 3 (P{from}→P{to})"),
        };
        let _ = writeln!(out, "- `{t}` ({}) — {label}", t.kind());
    }

    let _ = writeln!(out, "\n## Regions ({radix}^{n} mesh sweep)\n");
    let channels = seq.channels();
    let _ = writeln!(out, "| region | class |");
    let _ = writeln!(out, "|---|---|");
    for (region, class) in region_classes(extraction.turn_set(), &channels, radix, n) {
        let signs: String = region.iter().map(|d| d.to_string()).collect();
        let _ = writeln!(out, "| {signs} | {class} |");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn analysis_of_west_first() {
        let report = analyze(&catalog::p3_west_first(), 2).unwrap();
        assert_eq!(report.partitions.len(), 2);
        assert_eq!(report.channels, 4);
        assert_eq!(report.turns.ninety, 6);
        assert!(!report.fully_adaptive);
        assert!(report.partitions[0].pair_dims.is_empty());
        assert_eq!(report.partitions[1].pair_dims.len(), 1);
    }

    #[test]
    fn analysis_rejects_invalid_designs() {
        let seq = PartitionSeq::parse("X+ X- Y+ Y-").unwrap();
        assert!(analyze(&seq, 2).is_err());
    }

    #[test]
    fn markdown_report_covers_all_sections() {
        let report = markdown_report(&catalog::p3_west_first(), 2, 3).unwrap();
        assert!(report.contains("# Design report"));
        assert!(report.contains("| P0 | `[X1-]` |"));
        assert!(report.contains("Theorem 3 (P0→P1)"));
        assert!(report.contains("| ++ | fully adaptive |"));
        assert!(report.contains("| -- | deterministic |"));
        // Invalid designs are refused.
        let bad = PartitionSeq::parse("X+ X- Y+ Y-").unwrap();
        assert!(markdown_report(&bad, 2, 3).is_err());
    }

    #[test]
    fn verdict_accepts_catalog_designs_with_counts() {
        let v = design_verdict(&catalog::fig7b_dyxy());
        match &v {
            DesignVerdict::DeadlockFree {
                partitions,
                channels,
                ..
            } => {
                assert_eq!(*partitions, 2);
                assert_eq!(*channels, 6);
            }
            other => panic!("expected acceptance, got {other}"),
        }
        assert!(v.is_deadlock_free());
        assert!(v.to_string().contains("deadlock-free by construction"));
    }

    #[test]
    fn verdict_rejects_with_the_validation_reason() {
        let bad = PartitionSeq::parse("X+ X- Y+ Y-").unwrap();
        let v = design_verdict(&bad);
        assert!(!v.is_deadlock_free());
        let DesignVerdict::Rejected { reason } = &v else {
            panic!("expected rejection, got {v}");
        };
        assert!(reason.contains("Theorem 1"), "reason was: {reason}");
        assert!(v.to_string().starts_with("rejected: "));
    }

    #[test]
    fn display_is_multiline_and_complete() {
        let report = analyze(&catalog::fig9b(), 3).unwrap();
        let text = report.to_string();
        assert!(text.contains("4 partitions"));
        assert!(text.contains("16 channels"));
        assert!(text.contains("fully adaptive"));
        assert!(text.lines().count() >= 6);
    }
}
