//! Derivation of alternative partitioning options — Algorithm 2 and
//! Section 5.3 of the paper.
//!
//! Three knobs generate new deadlock-free designs from a set arrangement:
//!
//! 1. **Reordering channels inside the sets** (Algorithm 2): circularly
//!    shifting Set1 pair-wise and the other sets channel-wise, re-running
//!    Algorithm 1 for every combination.
//! 2. **Increasing the number of partitions** (5.3.2): splitting channels
//!    over more partitions trades adaptiveness away, down to deterministic
//!    routing when every partition holds a single channel.
//! 3. **Tracing partitions in different orders** (5.3.3): permuting the
//!    transition order between the partitions.

use crate::channel::Channel;
use crate::error::Result;
use crate::partition::Partition;
use crate::sequence::PartitionSeq;
use crate::sets::{permutations, SetArrangement};
use ebda_obs::prof;
use std::collections::BTreeSet;

/// Profiler phase of [`derive_all`].
const DERIVE: &str = "core/algorithm2/derive";
/// Profiler phase of [`enumerate_partitionings`].
const ENUMERATE: &str = "core/algorithm2/enumerate";

/// Algorithm 2: enumerates the partitionings produced by every circular
/// shift combination of the arranged sets (Set1 pair-wise, the rest
/// channel-wise), deduplicated.
///
/// ```
/// use ebda_core::{algorithm2::derive_all, sets::arrangement1};
/// let options = derive_all(arrangement1(&[1, 1]).unwrap()).unwrap();
/// let strings: Vec<String> = options.iter().map(|s| s.to_string()).collect();
/// assert!(strings.contains(&"[X1+ X1- Y1+] -> [Y1-]".to_string()));
/// assert!(strings.contains(&"[X1+ X1- Y1-] -> [Y1+]".to_string()));
/// ```
///
/// # Errors
///
/// Propagates Algorithm 1 errors for any shift combination.
pub fn derive_all(sets: SetArrangement) -> Result<Vec<PartitionSeq>> {
    let _p = prof::phase(DERIVE);
    let mut combinations = 0u64;
    let mut duplicates = 0u64;
    let mut shift_counts: Vec<usize> = Vec::with_capacity(sets.len());
    for (i, s) in sets.iter().enumerate() {
        if i == 0 {
            // Pair-wise rotations of Set1: one per leading pair position.
            shift_counts.push((s.len() / 2).max(1));
        } else {
            shift_counts.push(s.len().max(1));
        }
    }
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    let mut shifts = vec![0usize; sets.len()];
    loop {
        // Apply the current shift vector to a fresh copy of the sets.
        let mut current = sets.clone();
        for (k, set) in current.iter_mut().enumerate() {
            for _ in 0..shifts[k] {
                if k == 0 {
                    set.rotate_pairs();
                } else {
                    set.rotate_channels();
                }
            }
        }
        let seq = crate::algorithm1::partition_sets(current)?;
        combinations += 1;
        if seen.insert(seq.canonical_string()) {
            out.push(seq);
        } else {
            duplicates += 1;
        }
        // Odometer increment over the shift space.
        let mut k = 0;
        loop {
            if k == shifts.len() {
                prof::work(DERIVE, "shift_combinations", combinations);
                prof::work(DERIVE, "duplicates_pruned", duplicates);
                prof::work(DERIVE, "options_derived", out.len() as u64);
                return Ok(out);
            }
            shifts[k] += 1;
            if shifts[k] < shift_counts[k] {
                break;
            }
            shifts[k] = 0;
            k += 1;
        }
    }
}

/// Section 5.3.3: every transition (partition) order of a sequence, as new
/// sequences. All permutations of disjoint Theorem-1-valid partitions remain
/// valid; only the extracted turn sets differ.
pub fn transition_reorderings(seq: &PartitionSeq) -> Vec<PartitionSeq> {
    permutations(seq.len())
        .into_iter()
        .map(|perm| seq.permuted(&perm))
        .collect()
}

/// Section 5.3.2: enumerates every ordered partitioning of `channels` into
/// exactly `k` non-empty, pairwise-disjoint, Theorem-1-valid partitions.
///
/// Channel order inside each partition follows the input order (which fixes
/// the Theorem 2 numbering). The result is deduplicated and deterministic.
///
/// Use small inputs: the count grows as an ordered Stirling number.
///
/// ```
/// use ebda_core::algorithm2::enumerate_partitionings;
/// use ebda_core::parse_channels;
/// let chs = parse_channels("X+ X- Y+ Y-").unwrap();
/// // Deterministic designs: every ordering of four singletons.
/// assert_eq!(enumerate_partitionings(&chs, 4).len(), 24);
/// ```
pub fn enumerate_partitionings(channels: &[Channel], k: usize) -> Vec<PartitionSeq> {
    let _p = prof::phase(ENUMERATE);
    let mut out = Vec::new();
    if k == 0 || k > channels.len() {
        return out;
    }
    // Assign each channel to one of k blocks; keep assignments where every
    // block is non-empty, then order blocks in every permutation.
    let mut assignment = vec![0usize; channels.len()];
    let mut stats = AssignStats::default();
    assign(channels, k, 0, &mut assignment, &mut out, &mut stats);
    prof::work(ENUMERATE, "assignments_explored", stats.explored);
    prof::work(ENUMERATE, "assignments_pruned", stats.pruned);
    out
}

/// Exploration/prune counts accumulated across the [`assign`] recursion
/// and flushed to the profiler once per enumeration.
#[derive(Default)]
struct AssignStats {
    explored: u64,
    pruned: u64,
}

fn assign(
    channels: &[Channel],
    k: usize,
    idx: usize,
    assignment: &mut Vec<usize>,
    out: &mut Vec<PartitionSeq>,
    stats: &mut AssignStats,
) {
    if idx == channels.len() {
        stats.explored += 1;
        // Build blocks.
        let mut blocks: Vec<Vec<Channel>> = vec![Vec::new(); k];
        for (i, &b) in assignment.iter().enumerate() {
            blocks[b].push(channels[i]);
        }
        if blocks.iter().any(Vec::is_empty) {
            stats.pruned += 1;
            return;
        }
        // Canonical set-partition: require blocks in first-appearance order
        // to avoid emitting the same unordered partition k! times here…
        let mut first_seen = Vec::new();
        for &b in assignment.iter() {
            if !first_seen.contains(&b) {
                first_seen.push(b);
            }
        }
        if first_seen != (0..k).collect::<Vec<_>>() {
            stats.pruned += 1;
            return;
        }
        // …then emit every ordering of the blocks explicitly.
        let parts: Option<Vec<Partition>> = blocks
            .iter()
            .map(|b| Partition::from_channels(b.iter().copied()).ok())
            .collect();
        let Some(parts) = parts else {
            stats.pruned += 1;
            return;
        };
        if parts.iter().any(|p| !p.theorem1_holds()) {
            stats.pruned += 1;
            return;
        }
        for perm in permutations(k) {
            let seq =
                PartitionSeq::from_partitions(perm.iter().map(|&i| parts[i].clone()).collect());
            if seq.validate().is_ok() {
                out.push(seq);
            }
        }
        return;
    }
    for b in 0..k {
        assignment[idx] = b;
        assign(channels, k, idx + 1, assignment, out, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::parse_channels;
    use crate::sets::arrangement1;

    #[test]
    fn derive_all_2d_single_vc() {
        let options = derive_all(arrangement1(&[1, 1]).unwrap()).unwrap();
        // Set1 has one pair rotation, Set2 two channel rotations.
        assert_eq!(options.len(), 2);
        for o in &options {
            assert!(o.validate().is_ok());
        }
    }

    #[test]
    fn derive_all_respects_set1_pairings() {
        // 2 VCs on X as Set1: two pair rotations; Y: two rotations.
        let options = derive_all(arrangement1(&[2, 1]).unwrap()).unwrap();
        assert!(options.len() >= 2);
        for o in &options {
            assert!(o.validate().is_ok());
        }
    }

    #[test]
    fn reorderings_cover_all_permutations() {
        let seq = PartitionSeq::parse("X+ | Y+ | X-").unwrap();
        let all = transition_reorderings(&seq);
        assert_eq!(all.len(), 6);
        let strings: BTreeSet<String> = all.iter().map(|s| s.to_string()).collect();
        assert_eq!(strings.len(), 6);
    }

    #[test]
    fn enumerate_two_blocks_2d() {
        let chs = parse_channels("X+ X- Y+ Y-").unwrap();
        let opts = enumerate_partitionings(&chs, 2);
        // Unordered 2-block partitions of 4 elements: S(4,2) = 7, of which
        // the {X+X-}|{Y+Y-} style splits and all 3-1 splits are legal, but
        // {X+X-Y+Y-} never appears (that needs k=1). One unordered option —
        // {X+ X- Y+ Y-} in a single block — is impossible; all blocks here
        // have ≤ 3 channels so at most one pair. Every ordered option
        // validates (2 orderings each): 14 total.
        assert_eq!(opts.len(), 14);
        for o in &opts {
            assert!(o.validate().is_ok());
            assert_eq!(o.len(), 2);
        }
        let strings: Vec<String> = opts.iter().map(|s| s.to_string()).collect();
        assert!(strings.contains(&"[X1- Y1-] -> [X1+ Y1+]".to_string()));
        assert!(strings.contains(&"[X1+ X1- Y1+] -> [Y1-]".to_string()));
    }

    #[test]
    fn enumerate_three_blocks_includes_table2_entries() {
        let chs = parse_channels("X+ X- Y+ Y-").unwrap();
        let opts = enumerate_partitionings(&chs, 3);
        let strings: Vec<String> = opts.iter().map(|s| s.to_string()).collect();
        for expected in [
            "[X1+ Y1+] -> [X1-] -> [Y1-]",
            "[X1+ Y1-] -> [X1-] -> [Y1+]",
            "[X1- Y1+] -> [X1+] -> [Y1-]",
            "[X1- Y1-] -> [X1+] -> [Y1+]",
        ] {
            assert!(
                strings.contains(&expected.to_string()),
                "missing {expected}"
            );
        }
    }

    #[test]
    fn enumerate_rejects_invalid_blocks() {
        // k = 1 would put two complete pairs in one partition: no options.
        let chs = parse_channels("X+ X- Y+ Y-").unwrap();
        assert!(enumerate_partitionings(&chs, 1).is_empty());
    }

    #[test]
    fn enumerate_edge_cases() {
        let chs = parse_channels("X+ X-").unwrap();
        assert!(enumerate_partitionings(&chs, 0).is_empty());
        assert!(enumerate_partitionings(&chs, 3).is_empty());
        assert_eq!(enumerate_partitionings(&chs, 2).len(), 2);
    }

    use std::collections::BTreeSet;
}
