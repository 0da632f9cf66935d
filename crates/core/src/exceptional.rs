//! The exceptional no-VC partitioning of Section 5.2.2.
//!
//! When no virtual channels are available, channels can be divided into two
//! partitions neither of which covers a complete pair: one channel per
//! dimension in `PA`, the opposite channels in `PB`. Exchanging channels
//! between the two partitions yields `2^n` options in total (including the
//! `PB → PA` orders).

use crate::channel::{Channel, Dimension, Direction};
use crate::error::{EbdaError, Result};
use crate::partition::Partition;
use crate::sequence::PartitionSeq;

/// Enumerates all `2^n` exceptional partitionings of an `n`-dimensional
/// network without VCs: for every sign vector σ, `PA` holds `d_i^{σ_i}` and
/// `PB` holds the opposite channels.
///
/// The first `2^(n-1)` options start with a `PA` containing `X+`; the rest
/// are the complement orders ("switching from PBs to PAs").
///
/// ```
/// use ebda_core::exceptional::exceptional_partitionings;
/// let opts = exceptional_partitionings(2).unwrap();
/// let strings: Vec<String> = opts.iter().map(|s| s.to_string()).collect();
/// assert_eq!(strings, [
///     "[X1+ Y1+] -> [X1- Y1-]",
///     "[X1+ Y1-] -> [X1- Y1+]",
///     "[X1- Y1+] -> [X1+ Y1-]",
///     "[X1- Y1-] -> [X1+ Y1+]",
/// ]);
/// ```
///
/// # Errors
///
/// Returns [`EbdaError::BadDimension`] for `n == 0` or `n > 16`.
pub fn exceptional_partitionings(n: usize) -> Result<Vec<PartitionSeq>> {
    if n == 0 {
        return Err(EbdaError::BadDimension {
            n,
            reason: "at least one dimension is required",
        });
    }
    if n > 16 {
        return Err(EbdaError::BadDimension {
            n,
            reason: "2^n options would be enormous; cap is n = 16",
        });
    }
    let mut out = Vec::with_capacity(1 << n);
    for mask in 0..(1u32 << n) {
        let mut pa = Partition::new();
        let mut pb = Partition::new();
        for d in 0..n {
            let dim = Dimension::new(d as u8);
            let dir = if mask & (1 << (n - 1 - d)) == 0 {
                Direction::Plus
            } else {
                Direction::Minus
            };
            pa.push(Channel::new(dim, dir))?;
            pb.push(Channel::new(dim, dir.opposite()))?;
        }
        out.push(PartitionSeq::from_partitions(vec![pa, pb]));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_d_has_eight_options_matching_section_5_2_2() {
        let opts = exceptional_partitionings(3).unwrap();
        assert_eq!(opts.len(), 8);
        let strings: Vec<String> = opts.iter().map(|s| s.to_string()).collect();
        // The paper lists the first four; the rest are the PB→PA switches.
        assert_eq!(strings[0], "[X1+ Y1+ Z1+] -> [X1- Y1- Z1-]");
        assert_eq!(strings[1], "[X1+ Y1+ Z1-] -> [X1- Y1- Z1+]");
        assert_eq!(strings[2], "[X1+ Y1- Z1+] -> [X1- Y1+ Z1-]");
        assert_eq!(strings[3], "[X1+ Y1- Z1-] -> [X1- Y1+ Z1+]");
        assert_eq!(strings[4], "[X1- Y1+ Z1+] -> [X1+ Y1- Z1-]");
    }

    #[test]
    fn all_options_validate_with_no_complete_pairs() {
        for n in 1..=4 {
            for seq in exceptional_partitionings(n).unwrap() {
                assert!(seq.validate().is_ok());
                for p in seq.partitions() {
                    assert!(p.complete_pair_dims().is_empty());
                    assert_eq!(p.len(), n);
                }
            }
        }
    }

    #[test]
    fn bounds_are_enforced() {
        assert!(exceptional_partitionings(0).is_err());
        assert!(exceptional_partitionings(17).is_err());
        let msg = exceptional_partitionings(0).unwrap_err().to_string();
        assert!(msg.contains("dimension"), "unhelpful error: {msg}");
    }

    #[test]
    fn one_dimension_yields_exactly_the_two_ring_orders() {
        // The smallest accepting boundary: a 1-D network has one channel
        // per direction, so the only options are which direction leads.
        let opts = exceptional_partitionings(1).unwrap();
        let strings: Vec<String> = opts.iter().map(|s| s.to_string()).collect();
        assert_eq!(strings, ["[X1+] -> [X1-]", "[X1-] -> [X1+]"]);
        for seq in &opts {
            assert!(seq.validate().is_ok());
            assert!(crate::theorems::design_verdict(seq).is_deadlock_free());
        }
    }

    #[test]
    fn sixteen_dimensions_is_the_accepted_boundary() {
        // n = 16 is the last accepted dimension count: 2^16 options, each
        // pairing a 16-channel PA with its opposite PB. Enumerating all of
        // them is cheap; validating every one is not, so spot-check the
        // corners of the sign-vector lattice.
        let opts = exceptional_partitionings(16).unwrap();
        assert_eq!(opts.len(), 1 << 16);
        for seq in [&opts[0], &opts[(1 << 16) - 1]] {
            assert!(seq.validate().is_ok());
            for p in seq.partitions() {
                assert_eq!(p.len(), 16);
                assert!(p.complete_pair_dims().is_empty());
            }
        }
        // The first option is all-Plus-first; the last is its mirror.
        assert!(opts[0].to_string().starts_with("[X1+ Y1+ Z1+"));
        assert!(opts[(1 << 16) - 1].to_string().starts_with("[X1- Y1- Z1-"));
    }

    #[test]
    fn merging_the_exceptional_partitions_violates_theorem_1() {
        // The whole point of the exceptional case: each partition alone has
        // no complete pair, but their union has one per dimension — merging
        // them back into a single partition must be rejected, with the
        // verdict naming Theorem 1.
        let opts = exceptional_partitionings(2).unwrap();
        let mut merged = Partition::new();
        for p in opts[0].partitions() {
            for &c in p.channels() {
                merged.push(c).unwrap();
            }
        }
        assert_eq!(merged.complete_pair_dims().len(), 2);
        let seq = PartitionSeq::from_partitions(vec![merged]);
        let err = seq.validate().unwrap_err();
        assert!(err.to_string().contains("Theorem 1"), "{err}");
        let verdict = crate::theorems::design_verdict(&seq);
        assert!(!verdict.is_deadlock_free());
        assert!(verdict.to_string().contains("Theorem 1"), "{verdict}");
    }
}
