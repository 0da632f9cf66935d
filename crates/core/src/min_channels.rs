//! Section 4: maximum adaptiveness with the minimum number of channels.
//!
//! The paper proves that a fully adaptive routing in an `n`-dimensional
//! network needs at least `N = (n+1)·2^(n-1)` channels, via two
//! constructions: the naive one-partition-per-region design (`n·2^n`
//! channels, Figs 7a/9a) and the merged design where neighbouring regions
//! share a partition through a complete pair in one dimension
//! (`(n+1)·2^(n-1)` channels, Figs 7b/9b).

use crate::channel::{Channel, Dimension, Direction};
use crate::error::{EbdaError, Result};
use crate::partition::Partition;
use crate::sequence::PartitionSeq;

/// The paper's minimum channel count for fully adaptive routing:
/// `(n+1) · 2^(n-1)`.
///
/// ```
/// use ebda_core::min_channels::min_channels;
/// assert_eq!(min_channels(2), 6);  // 2D (Fig. 7)
/// assert_eq!(min_channels(3), 16); // 3D (Fig. 9)
/// assert_eq!(min_channels(4), 40);
/// ```
///
/// # Panics
///
/// Panics if `n == 0` or the result overflows `u64` (n ≥ 58).
pub fn min_channels(n: u32) -> u64 {
    assert!(n >= 1, "network dimension must be at least 1");
    assert!(n < 58, "channel count overflows u64");
    (n as u64 + 1) * (1u64 << (n - 1))
}

/// The naive fully adaptive design: one partition per region, `n` dedicated
/// channels each, `n·2^n` channels in total (Fig. 7a for `n = 2`,
/// Fig. 9a for `n = 3`).
///
/// Virtual-channel numbers are assigned ordinally per `(dimension,
/// direction)` in region-enumeration order; the labels differ from the
/// figures' hand assignment but the structure (counts, disjointness,
/// Theorem 1 validity, full region coverage) is identical.
///
/// # Errors
///
/// Returns [`EbdaError::BadDimension`] for `n == 0` or `n > 8`.
pub fn region_partitioning(n: usize) -> Result<PartitionSeq> {
    check_dim(n)?;
    let regions = 1usize << n;
    let mut vc_next = vec![[0u8; 2]; n]; // per dim, per direction
    let mut partitions = Vec::with_capacity(regions);
    for r in 0..regions {
        let mut p = Partition::new();
        #[allow(clippy::needless_range_loop)] // the index doubles as the dimension id
        for d in 0..n {
            let dir = region_dir(r, d, n);
            let slot = &mut vc_next[d][dir_index(dir)];
            *slot += 1;
            p.push(Channel::with_vc(Dimension::new(d as u8), dir, *slot))?;
        }
        partitions.push(p);
    }
    PartitionSeq::try_from_partitions(partitions)
}

/// The merged fully adaptive design achieving the minimum
/// `(n+1)·2^(n-1)` channels: each partition covers two neighbouring
/// regions through a complete pair in the last dimension (Fig. 7b — the
/// DyXY design — for `n = 2`, Fig. 9b for `n = 3`).
///
/// ```
/// use ebda_core::min_channels::{merged_partitioning, min_channels};
/// let seq = merged_partitioning(3).unwrap();
/// assert_eq!(seq.channel_count() as u64, min_channels(3));
/// assert_eq!(seq.len(), 4); // 2^(n-1) partitions
/// ```
///
/// # Errors
///
/// Returns [`EbdaError::BadDimension`] for `n == 0` or `n > 8`.
pub fn merged_partitioning(n: usize) -> Result<PartitionSeq> {
    check_dim(n)?;
    let last = Dimension::new((n - 1) as u8);
    let regions = 1usize << (n - 1);
    let mut vc_next = vec![[0u8; 2]; n.max(1)];
    let mut partitions = Vec::with_capacity(regions);
    for r in 0..regions {
        let mut p = Partition::new();
        #[allow(clippy::needless_range_loop)] // the index doubles as the dimension id
        for d in 0..n.saturating_sub(1) {
            let dir = region_dir(r, d, n - 1);
            let slot = &mut vc_next[d][dir_index(dir)];
            *slot += 1;
            p.push(Channel::with_vc(Dimension::new(d as u8), dir, *slot))?;
        }
        // The complete pair along the last dimension, dedicated VC.
        let vc = (r + 1) as u8;
        p.push(Channel::with_vc(last, Direction::Plus, vc))?;
        p.push(Channel::with_vc(last, Direction::Minus, vc))?;
        partitions.push(p);
    }
    PartitionSeq::try_from_partitions(partitions)
}

/// Virtual channels the design uses along each dimension — e.g. Fig. 9b's
/// "2, 2, and 4 virtual channels along the X, Y, and Z dimensions".
pub fn vcs_per_dimension(seq: &PartitionSeq, n: usize) -> Vec<u8> {
    let mut maxima = vec![0u8; n];
    for p in seq.partitions() {
        for c in p.channels() {
            if c.dim.index() < n {
                maxima[c.dim.index()] = maxima[c.dim.index()].max(c.vc);
            }
        }
    }
    maxima
}

fn check_dim(n: usize) -> Result<()> {
    if n == 0 {
        return Err(EbdaError::BadDimension {
            n,
            reason: "at least one dimension is required",
        });
    }
    if n > 8 {
        return Err(EbdaError::BadDimension {
            n,
            reason: "construction is exponential in n; cap is n = 8",
        });
    }
    Ok(())
}

/// Direction of dimension `d` inside region `r` of a `bits`-dimensional
/// sign space, using the binary-reflected enumeration (bit 0 = last dim).
fn region_dir(r: usize, d: usize, bits: usize) -> Direction {
    if r & (1 << (bits - 1 - d)) == 0 {
        Direction::Plus
    } else {
        Direction::Minus
    }
}

fn dir_index(d: Direction) -> usize {
    match d {
        Direction::Plus => 0,
        Direction::Minus => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptiveness::is_fully_adaptive;

    #[test]
    fn formula_values() {
        assert_eq!(min_channels(1), 2);
        assert_eq!(min_channels(2), 6);
        assert_eq!(min_channels(3), 16);
        assert_eq!(min_channels(4), 40);
        assert_eq!(min_channels(5), 96);
    }

    #[test]
    fn naive_design_counts() {
        for n in 1..=4usize {
            let seq = region_partitioning(n).unwrap();
            assert_eq!(seq.len(), 1 << n, "2^n partitions for n={n}");
            assert_eq!(seq.channel_count(), n << n, "n·2^n channels for n={n}");
            assert!(seq.validate().is_ok());
            // No partition has a complete pair: each covers one region only.
            for p in seq.partitions() {
                assert!(p.complete_pair_dims().is_empty());
            }
        }
    }

    #[test]
    fn naive_2d_matches_fig7a_structure() {
        let seq = region_partitioning(2).unwrap();
        // 2 VCs along each dimension, as the figure requires.
        assert_eq!(vcs_per_dimension(&seq, 2), vec![2, 2]);
        assert!(is_fully_adaptive(&seq, 2));
    }

    #[test]
    fn merged_design_reaches_the_minimum() {
        for n in 1..=5usize {
            let seq = merged_partitioning(n).unwrap();
            assert_eq!(seq.len(), 1 << (n - 1), "2^(n-1) partitions for n={n}");
            assert_eq!(
                seq.channel_count() as u64,
                min_channels(n as u32),
                "minimum channels for n={n}"
            );
            assert!(seq.validate().is_ok());
            // Every partition has exactly one complete pair: the last dim.
            for p in seq.partitions() {
                assert_eq!(p.complete_pair_dims().len(), 1);
            }
            assert!(is_fully_adaptive(&seq, n));
        }
    }

    #[test]
    fn merged_2d_is_the_dyxy_design() {
        let seq = merged_partitioning(2).unwrap();
        assert_eq!(seq.to_string(), "[X1+ Y1+ Y1-] -> [X1- Y2+ Y2-]");
        assert_eq!(vcs_per_dimension(&seq, 2), vec![1, 2]);
    }

    #[test]
    fn merged_3d_matches_fig9b_vc_budget() {
        let seq = merged_partitioning(3).unwrap();
        // Fig. 9b: 2, 2 and 4 VCs along X, Y and Z.
        assert_eq!(vcs_per_dimension(&seq, 3), vec![2, 2, 4]);
    }

    #[test]
    fn dimension_bounds() {
        assert!(region_partitioning(0).is_err());
        assert!(region_partitioning(9).is_err());
        assert!(merged_partitioning(0).is_err());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn min_channels_rejects_zero() {
        let _ = min_channels(0);
    }
}
