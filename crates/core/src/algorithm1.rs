//! The partitioning procedure — Algorithm 1 of the paper (Section 5.2.1).
//!
//! Each round, the first (pair-role) set contributes its leading complete
//! D-pair and every other set contributes its leading channel; the sets are
//! then left-shifted and re-ordered by remaining pair count. When all sets
//! are empty, trailing deficient partitions whose directional region is a
//! subset of an earlier partition's are merged into it.

use crate::error::Result;
use crate::partition::{DirectionCoverage, Partition};
use crate::sequence::PartitionSeq;
use crate::sets::SetArrangement;

/// Runs Algorithm 1 on an arranged collection of dimension sets, producing
/// an ordered partition sequence.
///
/// The exact paper pseudocode:
///
/// ```text
/// Procedure Partitioning(Set1, Set2, … Setn, i) {
///   if (All sets are empty) then Merge matching partitions and exit;
///   else
///     Pi = {(Set1[1] Set1[2]); Set2[1]; … Setn[1]};
///     Set1 is pair-wise left-shifted;
///     Set2 to Setn are channel-wise left-shifted;
///     Sets are reordered if necessary;
///     CALL Partitioning(Set1, …, Setn, i+1);
/// }
/// ```
///
/// "Reordered if necessary" re-sorts the sets by descending remaining
/// D-pair count (stable). If the leading set's first two channels do not
/// form a complete pair (or fewer than two channels remain), it contributes
/// a single channel like the others — this covers the tail rounds where the
/// pair-role set has run dry.
///
/// ```
/// use ebda_core::{algorithm1::partition_sets, sets::arrangement1};
/// // 2D, one VC per dimension: Table 1's first entry.
/// let seq = partition_sets(arrangement1(&[1, 1]).unwrap()).unwrap();
/// assert_eq!(seq.to_string(), "[X1+ X1- Y1+] -> [Y1-]");
/// ```
///
/// # Errors
///
/// Returns an error if the produced sequence fails validation (cannot
/// happen for well-formed inputs — each partition takes at most one pair —
/// but malformed custom sets are reported rather than silently accepted).
pub fn partition_sets(mut sets: SetArrangement) -> Result<PartitionSeq> {
    let _p = ebda_obs::prof::phase("core/algorithm1");
    let mut rounds = 0u64;
    let mut partitions: Vec<Partition> = Vec::new();
    reorder(&mut sets);
    while sets.iter().any(|s| !s.is_empty()) {
        rounds += 1;
        let mut p = Partition::new();
        let mut pair_taken = false;
        for set in sets.iter_mut() {
            if set.is_empty() {
                continue;
            }
            if !pair_taken {
                // Pair role: the first non-empty set contributes a pair when
                // its front two channels have opposite directions.
                if let Some((a, b)) = set.take_pair() {
                    p.push(a)?;
                    p.push(b)?;
                    pair_taken = true;
                    continue;
                }
            }
            if let Some(c) = set.take_one() {
                p.push(c)?;
            }
        }
        partitions.push(p);
        reorder(&mut sets);
    }
    let before_merge = partitions.len();
    let merged = merge_matching(partitions);
    ebda_obs::prof::work("core/algorithm1", "rounds", rounds);
    ebda_obs::prof::work("core/algorithm1", "partitions_created", before_merge as u64);
    ebda_obs::prof::work(
        "core/algorithm1",
        "partitions_merged",
        (before_merge - merged.len()) as u64,
    );
    PartitionSeq::try_from_partitions(merged)
}

/// Stable re-sort by descending remaining D-pair count ("sets are reordered
/// if necessary").
fn reorder(sets: &mut SetArrangement) {
    sets.sort_by_key(|s| std::cmp::Reverse(s.pair_count()));
}

/// "Merge matching partitions": fold each trailing deficient partition into
/// the earliest earlier partition whose directional coverage is a superset,
/// provided the union still satisfies Theorem 1.
fn merge_matching(mut partitions: Vec<Partition>) -> Vec<Partition> {
    let Some(max_len) = partitions.iter().map(Partition::len).max() else {
        return partitions;
    };
    let mut i = partitions.len();
    while i > 1 {
        i -= 1;
        if partitions[i].len() >= max_len {
            continue;
        }
        let candidate = partitions[i].clone();
        let target = (0..i).find(|&t| {
            region_subset(&candidate, &partitions[t]) && union_ok(&partitions[t], &candidate)
        });
        if let Some(t) = target {
            let mut merged = partitions[t].clone();
            for &c in candidate.channels() {
                // Disjointness is pre-established, push cannot fail.
                merged.push(c).expect("disjoint partitions cannot overlap");
            }
            if merged.theorem1_holds() {
                partitions[t] = merged;
                partitions.remove(i);
            }
        }
    }
    partitions
}

/// Returns `true` when every direction `small` covers is also covered by
/// `big` (so `small`'s routable region is a subset of `big`'s).
fn region_subset(small: &Partition, big: &Partition) -> bool {
    let n = small
        .dims()
        .iter()
        .chain(big.dims().iter())
        .map(|d| d.index() + 1)
        .max()
        .unwrap_or(0);
    let sp = small.direction_profile(n);
    let bp = big.direction_profile(n);
    sp.iter().zip(bp.iter()).all(|(s, b)| match (s, b) {
        (DirectionCoverage::None, _) => true,
        (DirectionCoverage::Only(d), DirectionCoverage::Only(bd)) => d == bd,
        (DirectionCoverage::Only(_), DirectionCoverage::Both) => true,
        (DirectionCoverage::Both, DirectionCoverage::Both) => true,
        _ => false,
    })
}

/// Returns `true` when the merged partition would still satisfy Theorem 1.
fn union_ok(a: &Partition, b: &Partition) -> bool {
    let mut merged = a.clone();
    for &c in b.channels() {
        if merged.push(c).is_err() {
            return false;
        }
    }
    merged.theorem1_holds()
}

/// Runs Algorithm 1 on explicit sets built from per-dimension VC counts
/// using Arrangement 1 — the most common entry point.
///
/// # Errors
///
/// Propagates arrangement and partitioning errors.
pub fn partition_network(vcs_per_dim: &[u8]) -> Result<PartitionSeq> {
    partition_sets(crate::sets::arrangement1(vcs_per_dim)?)
}

/// Runs Algorithm 1 on the region-covering arrangement
/// (`crate::sets::region_covering`): consecutive partitions enumerate
/// complementary sign regions, reproducing the Figure 7b/9b designs and
/// reaching full adaptiveness whenever the VC budget allows.
///
/// ```
/// use ebda_core::{adaptiveness::is_fully_adaptive, algorithm1::partition_network_region_covering};
/// let seq = partition_network_region_covering(&[2, 2, 4]).unwrap(); // Fig. 9b budget
/// assert!(is_fully_adaptive(&seq, 3));
/// ```
///
/// # Errors
///
/// Propagates arrangement and partitioning errors.
pub fn partition_network_region_covering(vcs_per_dim: &[u8]) -> Result<PartitionSeq> {
    partition_sets(crate::sets::region_covering(vcs_per_dim)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Dimension;
    use crate::sets::{arrangement1, DimensionSet};

    /// The Section 5 worked example: 3, 2, 3 VCs along X, Y, Z with the
    /// paper's choice of Z as Set1 must reproduce
    /// `P = {PA[Z1* X1+ Y1+]; PB[Z2* X1- Y2+]; PC[X2* Z3+ Y1-]; PD[X3* Z3- Y2-]}`.
    #[test]
    fn section5_worked_example() {
        let sets = vec![
            DimensionSet::interleaved(Dimension::Z, 3),
            DimensionSet::interleaved(Dimension::X, 3),
            DimensionSet::grouped(Dimension::Y, 2),
        ];
        let seq = partition_sets(sets).unwrap();
        assert_eq!(
            seq.to_string(),
            "[Z1+ Z1- X1+ Y1+] -> [Z2+ Z2- X1- Y2+] -> [X2+ X2- Z3+ Y1-] -> [X3+ X3- Z3- Y2-]"
        );
        assert!(seq.validate().is_ok());
        assert_eq!(seq.channel_count(), 16);
    }

    #[test]
    fn two_d_single_vc_first_table1_entry() {
        let seq = partition_network(&[1, 1]).unwrap();
        assert_eq!(seq.to_string(), "[X1+ X1- Y1+] -> [Y1-]");
    }

    #[test]
    fn fig7b_dyxy_design() {
        // 1 VC along X, 2 along Y: Set1 = Y (2 pairs), Set2 = X.
        let seq = partition_network(&[1, 2]).unwrap();
        assert_eq!(seq.to_string(), "[Y1+ Y1- X1+] -> [Y2+ Y2- X1-]");
        assert_eq!(seq.channel_count(), 6);
    }

    #[test]
    fn fig7c_alternative_design() {
        // 2 VCs along X, 1 along Y.
        let seq = partition_network(&[2, 1]).unwrap();
        assert_eq!(seq.to_string(), "[X1+ X1- Y1+] -> [X2+ X2- Y1-]");
    }

    #[test]
    fn merging_folds_leftover_pairs() {
        // 3 VCs along X, 1 along Y: the third X-pair has no Y channel left;
        // its X*-only region is a subset of partition 0's region, so it is
        // merged rather than left as a third partition.
        let seq = partition_network(&[3, 1]).unwrap();
        assert_eq!(seq.len(), 2);
        assert!(seq.validate().is_ok());
        assert_eq!(seq.channel_count(), 8);
        // The merged partition holds both X-pairs: still one pair *dimension*.
        assert_eq!(seq.partitions()[0].complete_pair_dims().len(), 1);
    }

    #[test]
    fn every_output_is_valid_for_many_vc_mixes() {
        for x in 1..=4u8 {
            for y in 1..=4u8 {
                let seq = partition_network(&[x, y]).unwrap();
                assert!(seq.validate().is_ok(), "invalid for vcs ({x},{y})");
                assert_eq!(
                    seq.channel_count(),
                    2 * (x as usize + y as usize),
                    "channel loss for vcs ({x},{y})"
                );
            }
        }
        for x in 1..=3u8 {
            for y in 1..=3u8 {
                for z in 1..=3u8 {
                    let seq = partition_network(&[x, y, z]).unwrap();
                    assert!(seq.validate().is_ok(), "invalid for vcs ({x},{y},{z})");
                    assert_eq!(seq.channel_count(), 2 * (x + y + z) as usize);
                }
            }
        }
    }

    #[test]
    fn three_d_uniform_vcs() {
        let seq = partition_network(&[2, 2, 2]).unwrap();
        assert!(seq.validate().is_ok());
        // 12 channels, each partition takes a pair + 2 channels = 4; two
        // rounds exhaust one dimension; remaining rounds redistribute.
        assert_eq!(seq.channel_count(), 12);
    }

    #[test]
    fn region_covering_reproduces_fig9b_structure() {
        use crate::adaptiveness::is_fully_adaptive;
        let seq = partition_network_region_covering(&[2, 2, 4]).unwrap();
        assert_eq!(seq.len(), 4);
        assert_eq!(seq.channel_count(), 16);
        assert!(is_fully_adaptive(&seq, 3), "{seq}");
        // Each partition holds a Z-pair plus one X and one Y channel,
        // enumerating the four (x, y) sign regions.
        for p in seq.partitions() {
            assert_eq!(p.complete_pair_dims(), vec![Dimension::Z]);
            assert_eq!(p.len(), 4);
        }
    }

    #[test]
    fn region_covering_is_fully_adaptive_when_budget_allows() {
        use crate::adaptiveness::is_fully_adaptive;
        // The minimum budgets from Section 4 per dimension count.
        for (vcs, n) in [
            (vec![1u8, 2], 2),
            (vec![2, 1], 2),
            (vec![2, 2, 4], 3),
            (vec![4, 2, 2], 3),
        ] {
            let seq = partition_network_region_covering(&vcs).unwrap();
            assert!(seq.validate().is_ok());
            assert!(is_fully_adaptive(&seq, n), "vcs {vcs:?}: {seq}");
        }
    }

    #[test]
    fn arrangement1_entry_point_matches_explicit_sets() {
        let a = partition_network(&[1, 2]).unwrap();
        let b = partition_sets(arrangement1(&[1, 2]).unwrap()).unwrap();
        assert_eq!(a, b);
    }
}
