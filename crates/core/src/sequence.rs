//! Ordered sequences of disjoint partitions (the object Theorem 3 acts on).
//!
//! A [`PartitionSeq`] is the complete description of an EbDa design: packets
//! may roam freely inside their current partition and may move to any *later*
//! partition, never back. The sequence order is the "consecutive
//! (ascending) order" of Theorem 3.

use crate::error::{EbdaError, Result};
use crate::partition::Partition;
use std::fmt;

/// An ordered sequence of pairwise-disjoint, Theorem-1-valid partitions.
///
/// ```
/// use ebda_core::PartitionSeq;
/// // North-last (Fig. 5): PA[X+ X- Y-] -> PB[Y+].
/// let seq = PartitionSeq::parse("X+ X- Y- | Y+").unwrap();
/// assert_eq!(seq.len(), 2);
/// assert!(seq.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PartitionSeq {
    partitions: Vec<Partition>,
}

impl PartitionSeq {
    /// Builds a sequence from partitions *without* validating; call
    /// [`PartitionSeq::validate`] to check Theorem 1 and disjointness.
    pub fn from_partitions(partitions: Vec<Partition>) -> PartitionSeq {
        PartitionSeq { partitions }
    }

    /// Builds and validates in one step.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, as documented on
    /// [`PartitionSeq::validate`].
    pub(crate) fn try_from_partitions(partitions: Vec<Partition>) -> Result<PartitionSeq> {
        let seq = PartitionSeq { partitions };
        seq.validate()?;
        Ok(seq)
    }

    /// Parses a `|`- or `->`-separated list of partitions, each a channel
    /// list in the notation of [`crate::parse_channels`].
    ///
    /// ```
    /// use ebda_core::PartitionSeq;
    /// let p3 = PartitionSeq::parse("X- -> X+ Y+ Y-").unwrap(); // west-first
    /// assert_eq!(p3.len(), 2);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns parse errors for malformed channels or overlap errors for
    /// channels duplicated inside one partition. Cross-partition validity is
    /// *not* checked here; call [`PartitionSeq::validate`].
    pub fn parse(s: &str) -> Result<PartitionSeq> {
        let normalized = s.replace("->", "|");
        let mut partitions = Vec::new();
        for part in normalized.split('|') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            partitions.push(Partition::parse(part)?);
        }
        Ok(PartitionSeq { partitions })
    }

    /// The partitions in ascending (Theorem 3) order.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// Returns `true` if there are no partitions.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// Total number of channels across all partitions.
    pub fn channel_count(&self) -> usize {
        self.partitions.iter().map(Partition::len).sum()
    }

    /// Every channel of the design, flattened in partition order — the
    /// design's channel universe.
    ///
    /// ```
    /// use ebda_core::PartitionSeq;
    /// let seq = PartitionSeq::parse("X- | X+ Y+ Y-").unwrap();
    /// assert_eq!(seq.channels().len(), 4);
    /// assert_eq!(seq.channels()[0].to_string(), "X1-");
    /// ```
    pub fn channels(&self) -> Vec<crate::channel::Channel> {
        let mut out = Vec::with_capacity(self.channel_count());
        for p in &self.partitions {
            out.extend_from_slice(p.channels());
        }
        out
    }

    /// Checks the two structural conditions EbDa requires:
    ///
    /// 1. every partition satisfies Theorem 1 (at most one complete D-pair);
    /// 2. partitions are pairwise disjoint (Definition 6).
    ///
    /// # Errors
    ///
    /// Returns [`EbdaError::TooManyPairs`] or
    /// [`EbdaError::PartitionsOverlap`] for the first violation found.
    pub fn validate(&self) -> Result<()> {
        for p in &self.partitions {
            p.check_theorem1()?;
        }
        for i in 0..self.partitions.len() {
            for j in (i + 1)..self.partitions.len() {
                if let Some((a, _)) = self.partitions[i].shared_channel(&self.partitions[j]) {
                    return Err(EbdaError::PartitionsOverlap {
                        first: i,
                        second: j,
                        shared: a.to_string(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Returns a copy with the partitions permuted by `order` (indices into
    /// the current sequence).
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..len`.
    pub fn permuted(&self, order: &[usize]) -> PartitionSeq {
        assert_eq!(order.len(), self.partitions.len(), "order length mismatch");
        let mut seen = vec![false; order.len()];
        for &i in order {
            assert!(!seen[i], "order must be a permutation");
            seen[i] = true;
        }
        PartitionSeq {
            partitions: order.iter().map(|&i| self.partitions[i].clone()).collect(),
        }
    }

    /// A canonical, whitespace-normalized rendering used for deduplication
    /// by the derivation machinery.
    pub fn canonical_string(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for PartitionSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.partitions.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for PartitionSeq {
    type Err = EbdaError;

    /// Parses and validates in one step (unlike [`PartitionSeq::parse`],
    /// which defers validation).
    fn from_str(s: &str) -> Result<PartitionSeq> {
        let seq = PartitionSeq::parse(s)?;
        seq.validate()?;
        Ok(seq)
    }
}

impl FromIterator<Partition> for PartitionSeq {
    fn from_iter<T: IntoIterator<Item = Partition>>(iter: T) -> PartitionSeq {
        PartitionSeq {
            partitions: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_both_separators() {
        let a = PartitionSeq::parse("X+ X- Y- | Y+").unwrap();
        let b = PartitionSeq::parse("X+ X- Y- -> Y+").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.channel_count(), 4);
    }

    #[test]
    fn validate_accepts_the_papers_designs() {
        // Section 4, P1..P4.
        for s in [
            "X+ | X- | Y+ | Y-",
            "Y- | X- | Y+ X+",
            "X- | X+ Y+ Y-",
            "X- Y- | X+ Y+",
        ] {
            let seq = PartitionSeq::parse(s).unwrap();
            assert!(seq.validate().is_ok(), "{s} should validate");
        }
    }

    #[test]
    fn validate_rejects_two_pairs_in_one_partition() {
        let seq = PartitionSeq::parse("X+ X- Y+ Y-").unwrap();
        assert!(matches!(
            seq.validate(),
            Err(EbdaError::TooManyPairs { .. })
        ));
    }

    #[test]
    fn validate_rejects_overlapping_partitions() {
        let seq = PartitionSeq::parse("X+ Y+ | X+ Y-").unwrap();
        assert!(matches!(
            seq.validate(),
            Err(EbdaError::PartitionsOverlap {
                first: 0,
                second: 1,
                ..
            })
        ));
    }

    #[test]
    fn reversal_and_permutation() {
        let seq = PartitionSeq::parse("X+ | Y+ | X-").unwrap();
        assert_eq!(
            seq.permuted(&[2, 1, 0]).to_string(),
            "[X1-] -> [Y1+] -> [X1+]"
        );
        assert_eq!(
            seq.permuted(&[1, 0, 2]).to_string(),
            "[Y1+] -> [X1+] -> [X1-]"
        );
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_permutation_panics() {
        let seq = PartitionSeq::parse("X+ | Y+").unwrap();
        let _ = seq.permuted(&[0, 0]);
    }

    #[test]
    fn display_matches_paper_notation() {
        let seq = PartitionSeq::parse("X- Y- | X+ Y+").unwrap();
        assert_eq!(seq.to_string(), "[X1- Y1-] -> [X1+ Y1+]");
    }
}
