//! Dimension sets and the arrangements of Section 5.1.
//!
//! Algorithm 1 consumes one ordered *set* of channels per dimension. The
//! order of the sets (which dimension plays "Set1") and of the channels
//! inside each set fully determines the resulting partitioning — this module
//! provides the constructors and the three arrangements the paper defines.

use crate::channel::{Channel, Dimension, Direction};
use crate::error::{EbdaError, Result};
use std::fmt;

/// An ordered list of channels, all in one dimension (one of Algorithm 1's
/// `Set1..Setn`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimensionSet {
    dim: Dimension,
    channels: Vec<Channel>,
}

impl DimensionSet {
    /// Builds a set from explicit channels.
    ///
    /// # Errors
    ///
    /// Returns [`EbdaError::MalformedPairSet`] if the channels are not all in
    /// one dimension.
    pub(crate) fn from_channels(channels: Vec<Channel>) -> Result<DimensionSet> {
        let Some(first) = channels.first() else {
            return Err(EbdaError::MalformedPairSet {
                reason: "a dimension set needs at least one channel",
            });
        };
        let dim = first.dim;
        if channels.iter().any(|c| c.dim != dim) {
            return Err(EbdaError::MalformedPairSet {
                reason: "all channels of one set must share a dimension",
            });
        }
        Ok(DimensionSet { dim, channels })
    }

    /// Pair-interleaved ordering `d1+ d1- d2+ d2- …` with `vcs` virtual
    /// channels — the natural ordering for a set playing the pair role
    /// (Set1), matching the paper's `Set1: D_Z = {Z1+ Z1- Z2+ Z2- Z3+ Z3-}`.
    ///
    /// # Panics
    ///
    /// Panics if `vcs == 0`.
    pub fn interleaved(dim: Dimension, vcs: u8) -> DimensionSet {
        assert!(vcs >= 1, "a dimension needs at least one virtual channel");
        let mut channels = Vec::with_capacity(2 * vcs as usize);
        for v in 1..=vcs {
            channels.push(Channel::with_vc(dim, Direction::Plus, v));
            channels.push(Channel::with_vc(dim, Direction::Minus, v));
        }
        DimensionSet { dim, channels }
    }

    /// Sign-grouped ordering `d1+ d2+ … d1- d2- …` — the ordering that makes
    /// plain left-shifting reproduce the paper's region-covering channel
    /// selection for channel-role sets (Section 5's worked example selects
    /// `Y2+` for the second partition, i.e. positives first).
    ///
    /// # Panics
    ///
    /// Panics if `vcs == 0`.
    pub fn grouped(dim: Dimension, vcs: u8) -> DimensionSet {
        assert!(vcs >= 1, "a dimension needs at least one virtual channel");
        let mut channels = Vec::with_capacity(2 * vcs as usize);
        for v in 1..=vcs {
            channels.push(Channel::with_vc(dim, Direction::Plus, v));
        }
        for v in 1..=vcs {
            channels.push(Channel::with_vc(dim, Direction::Minus, v));
        }
        DimensionSet { dim, channels }
    }

    /// The dimension all channels share.
    pub(crate) fn dim(&self) -> Dimension {
        self.dim
    }

    /// Number of remaining channels.
    pub(crate) fn len(&self) -> usize {
        self.channels.len()
    }

    /// Returns `true` when no channels remain.
    pub(crate) fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Number of complete D-pairs the remaining channels can form:
    /// `min(#positive, #negative)` (Definition 3 lets any positive channel
    /// pair with any negative one).
    pub(crate) fn pair_count(&self) -> usize {
        let plus = self
            .channels
            .iter()
            .filter(|c| c.dir == Direction::Plus)
            .count();
        let minus = self.channels.len() - plus;
        plus.min(minus)
    }

    /// Removes and returns the first channel ("channel-wise left shift").
    pub(crate) fn take_one(&mut self) -> Option<Channel> {
        if self.channels.is_empty() {
            None
        } else {
            Some(self.channels.remove(0))
        }
    }

    /// Returns `true` if the first two channels form a complete D-pair
    /// (opposite directions, any VC numbers).
    pub(crate) fn front_is_pair(&self) -> bool {
        matches!(&self.channels[..], [a, b, ..] if a.dir != b.dir)
    }

    /// Removes and returns the leading D-pair ("pair-wise left shift").
    ///
    /// Returns `None` when fewer than two channels remain or the first two
    /// do not have opposite directions.
    pub(crate) fn take_pair(&mut self) -> Option<(Channel, Channel)> {
        if self.front_is_pair() {
            let a = self.channels.remove(0);
            let b = self.channels.remove(0);
            Some((a, b))
        } else {
            None
        }
    }

    /// Circularly left-shifts the channels by one position (Algorithm 2's
    /// "channel-wise left-circular-shift").
    pub(crate) fn rotate_channels(&mut self) {
        if !self.channels.is_empty() {
            self.channels.rotate_left(1);
        }
    }

    /// Circularly left-shifts by two positions (Algorithm 2's "pair-wise
    /// left-circular-shift" for Set1).
    pub(crate) fn rotate_pairs(&mut self) {
        if self.channels.len() >= 2 {
            self.channels.rotate_left(2);
        }
    }
}

impl fmt::Display for DimensionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D_{} = {{", self.dim)?;
        for (i, c) in self.channels.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

/// An ordered collection of dimension sets — the input of Algorithm 1.
pub(crate) type SetArrangement = Vec<DimensionSet>;

/// Arrangement 1 (Section 5.1): one set per dimension, ordered by
/// descending D-pair count; the leading (pair-role) set is interleaved, the
/// channel-role sets are sign-grouped so that plain left-shifting covers
/// complementary regions, as in the paper's worked 3/2/3-VC example.
///
/// `vcs_per_dim[i]` is the number of virtual channels along dimension `i`.
///
/// ```
/// use ebda_core::sets::arrangement1;
/// let sets = arrangement1(&[3, 2, 3]).unwrap();
/// assert!(sets[0].to_string().starts_with("D_X")); // 3 pairs
/// assert!(sets[1].to_string().starts_with("D_Z")); // 3 pairs, after X (stable)
/// assert!(sets[2].to_string().starts_with("D_Y")); // 2 pairs last
/// ```
///
/// # Errors
///
/// Returns [`EbdaError::BadDimension`] when `vcs_per_dim` is empty or any
/// entry is zero.
pub fn arrangement1(vcs_per_dim: &[u8]) -> Result<SetArrangement> {
    if vcs_per_dim.is_empty() {
        return Err(EbdaError::BadDimension {
            n: 0,
            reason: "at least one dimension is required",
        });
    }
    if vcs_per_dim.contains(&0) {
        return Err(EbdaError::BadDimension {
            n: vcs_per_dim.len(),
            reason: "every dimension needs at least one virtual channel",
        });
    }
    let mut order: Vec<usize> = (0..vcs_per_dim.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(vcs_per_dim[i]));
    let lead = order[0];
    Ok(order
        .iter()
        .map(|&i| {
            let dim = Dimension::new(i as u8);
            if i == lead {
                DimensionSet::interleaved(dim, vcs_per_dim[i])
            } else {
                DimensionSet::grouped(dim, vcs_per_dim[i])
            }
        })
        .collect())
}

/// Arrangement 2 (Section 5.1): when other sets tie with Set1 on pair
/// count, they may be swapped to the front. Returns every arrangement
/// obtained by promoting one of the tied sets to the lead (pair) role.
///
/// # Errors
///
/// Propagates the validation errors of [`arrangement1`].
pub fn arrangement2(vcs_per_dim: &[u8]) -> Result<Vec<SetArrangement>> {
    let base = arrangement1(vcs_per_dim)?;
    let lead_pairs = base[0].pair_count();
    let tied: Vec<usize> = base
        .iter()
        .enumerate()
        .filter(|(_, s)| s.pair_count() == lead_pairs)
        .map(|(i, _)| i)
        .collect();
    let mut out = Vec::new();
    for &t in &tied {
        let mut arr = base.clone();
        let promoted = arr.remove(t);
        // The promoted set takes the pair role and must be interleaved.
        let mut sets = vec![DimensionSet::interleaved(
            promoted.dim(),
            (promoted.len() / 2) as u8,
        )];
        for s in arr {
            // Demoted lead becomes a channel-role set, sign-grouped.
            sets.push(DimensionSet::grouped(s.dim(), (s.len() / 2) as u8));
        }
        out.push(sets);
    }
    Ok(out)
}

/// Arrangement 3 (Section 5.1): when Set1 has several VCs, its D-pairs can
/// be re-formed across VC numbers (`q!` ways). Returns the distinct
/// pairings of Set1's positive and negative channels, each expressed as a
/// reordered interleaved set; the remaining sets are passed through
/// unchanged.
///
/// For `q` VCs this yields `q!` arrangements (the identity pairing first).
///
/// # Errors
///
/// Propagates the validation errors of [`arrangement1`].
pub fn arrangement3(vcs_per_dim: &[u8]) -> Result<Vec<SetArrangement>> {
    let base = arrangement1(vcs_per_dim)?;
    let lead = &base[0];
    let q = lead.len() / 2;
    let dim = lead.dim();
    let mut out = Vec::new();
    for perm in permutations(q) {
        // Pair v-th positive channel with perm[v]-th negative channel.
        let mut channels = Vec::with_capacity(2 * q);
        for (v, &m) in perm.iter().enumerate() {
            channels.push(Channel::with_vc(dim, Direction::Plus, (v + 1) as u8));
            channels.push(Channel::with_vc(dim, Direction::Minus, (m + 1) as u8));
        }
        let mut arr = vec![DimensionSet::from_channels(channels)?];
        arr.extend(base.iter().skip(1).cloned());
        out.push(arr);
    }
    Ok(out)
}

/// The region-covering arrangement: like [`arrangement1`], but the
/// channel-role sets are ordered so that consecutive partitions enumerate
/// the sign combinations of the channel dimensions in binary-counting
/// order — the ordering behind Figures 7b and 9b, which makes Algorithm 1
/// produce *fully adaptive* designs whenever the VC budget suffices.
///
/// Concretely, the `i`-th channel-role dimension flips its sign every
/// `2^i` rounds; VC numbers are assigned ordinally per sign.
///
/// # Errors
///
/// Returns [`EbdaError::BadDimension`] under the same conditions as
/// [`arrangement1`].
pub(crate) fn region_covering(vcs_per_dim: &[u8]) -> Result<SetArrangement> {
    let base = arrangement1(vcs_per_dim)?;
    let rounds = base[0].pair_count();
    let mut out = vec![base[0].clone()];
    for (i, set) in base.iter().enumerate().skip(1) {
        let dim = set.dim();
        let q = vcs_per_dim[dim.index()];
        let mut used = [0u8; 2]; // next VC ordinal per sign
        let mut channels = Vec::with_capacity(2 * q as usize);
        let period = 1usize << (i - 1);
        // Enough rounds to place every VC of both signs even when one
        // sign's block is skipped while exhausted.
        let bound = (2 * period * (q as usize + 1)).max(rounds);
        for r in 0..bound {
            let dir = if (r / period).is_multiple_of(2) {
                Direction::Plus
            } else {
                Direction::Minus
            };
            let slot = &mut used[usize::from(dir == Direction::Minus)];
            if *slot >= q {
                continue; // this sign's VCs are exhausted
            }
            *slot += 1;
            channels.push(Channel::with_vc(dim, dir, *slot));
            if channels.len() == 2 * q as usize {
                break;
            }
        }
        out.push(DimensionSet::from_channels(channels)?);
    }
    Ok(out)
}

/// All permutations of `0..n` in lexicographic order (helper for
/// Arrangement 3, the derivation machinery and the mesh symmetry group
/// of `ebda_cdg::turn_model`).
pub fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current: Vec<usize> = (0..n).collect();
    let mut used = vec![false; n];
    fn rec(
        n: usize,
        depth: usize,
        current: &mut Vec<usize>,
        used: &mut Vec<bool>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if depth == n {
            out.push(current[..n].to_vec());
            return;
        }
        for v in 0..n {
            if !used[v] {
                used[v] = true;
                current[depth] = v;
                rec(n, depth + 1, current, used, out);
                used[v] = false;
            }
        }
    }
    rec(n, 0, &mut current, &mut used, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_matches_paper_set1() {
        let s = DimensionSet::interleaved(Dimension::Z, 3);
        let printed: Vec<String> = s.channels.iter().map(|c| c.to_string()).collect();
        assert_eq!(printed, ["Z1+", "Z1-", "Z2+", "Z2-", "Z3+", "Z3-"]);
        assert_eq!(s.pair_count(), 3);
        assert!(s.front_is_pair());
    }

    #[test]
    fn grouped_orders_positives_first() {
        let s = DimensionSet::grouped(Dimension::Y, 2);
        let printed: Vec<String> = s.channels.iter().map(|c| c.to_string()).collect();
        assert_eq!(printed, ["Y1+", "Y2+", "Y1-", "Y2-"]);
        assert!(!s.front_is_pair());
    }

    #[test]
    fn pair_count_uses_min_of_signs() {
        let mut s = DimensionSet::interleaved(Dimension::X, 3);
        assert_eq!(s.pair_count(), 3);
        s.take_one(); // removes X1+
        assert_eq!(s.pair_count(), 2); // 2 plus, 3 minus
        s.take_one(); // removes X1-
        assert_eq!(s.pair_count(), 2); // 2 plus, 2 minus
    }

    #[test]
    fn take_pair_requires_opposite_directions() {
        let mut s = DimensionSet::grouped(Dimension::X, 2);
        assert!(s.take_pair().is_none());
        let mut s = DimensionSet::interleaved(Dimension::X, 2);
        let (a, b) = s.take_pair().unwrap();
        assert_eq!(a.to_string(), "X1+");
        assert_eq!(b.to_string(), "X1-");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn rotations() {
        let mut s = DimensionSet::interleaved(Dimension::X, 2);
        s.rotate_channels();
        assert_eq!(s.channels[0].to_string(), "X1-");
        let mut s = DimensionSet::interleaved(Dimension::X, 2);
        s.rotate_pairs();
        assert_eq!(s.channels[0].to_string(), "X2+");
    }

    #[test]
    fn arrangement1_sorts_by_pair_count() {
        // The Section 5 example: 3, 2, 3 VCs along X, Y, Z.
        let sets = arrangement1(&[3, 2, 3]).unwrap();
        assert_eq!(sets.len(), 3);
        assert_eq!(sets[0].dim(), Dimension::X);
        assert_eq!(sets[1].dim(), Dimension::Z);
        assert_eq!(sets[2].dim(), Dimension::Y);
        assert_eq!(sets[0].pair_count(), 3);
    }

    #[test]
    fn arrangement1_rejects_bad_input() {
        assert!(arrangement1(&[]).is_err());
        assert!(arrangement1(&[2, 0]).is_err());
    }

    #[test]
    fn arrangement2_promotes_ties() {
        let arrs = arrangement2(&[1, 1]).unwrap();
        assert_eq!(arrs.len(), 2);
        assert_eq!(arrs[0][0].dim(), Dimension::X);
        assert_eq!(arrs[1][0].dim(), Dimension::Y);
    }

    #[test]
    fn arrangement3_counts_factorial() {
        let arrs = arrangement3(&[2, 1]).unwrap();
        assert_eq!(arrs.len(), 2); // 2! pairings of Set1's VCs
                                   // The second pairing crosses VC numbers: X1+ with X2-.
        let second: Vec<String> = arrs[1][0].channels.iter().map(|c| c.to_string()).collect();
        assert_eq!(second, ["X1+", "X2-", "X2+", "X1-"]);
    }

    #[test]
    fn region_covering_flips_signs_in_binary_order() {
        // The Fig. 9b budget: 2, 2, 4 VCs along X, Y, Z.
        let sets = region_covering(&[2, 2, 4]).unwrap();
        assert_eq!(sets[0].dim().to_string(), "Z"); // pair role
        let x: Vec<String> = sets[1].channels.iter().map(|c| c.to_string()).collect();
        assert_eq!(x, ["X1+", "X1-", "X2+", "X2-"]); // flips every round
        let y: Vec<String> = sets[2].channels.iter().map(|c| c.to_string()).collect();
        assert_eq!(y, ["Y1+", "Y2+", "Y1-", "Y2-"]); // flips every 2 rounds
    }

    #[test]
    fn permutations_basic() {
        assert_eq!(permutations(0), vec![Vec::<usize>::new()]);
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(permutations(3)[0], vec![0, 1, 2]);
    }

    #[test]
    fn mixed_dimension_set_rejected() {
        let chs = vec![
            Channel::parse("X1+").unwrap(),
            Channel::parse("Y1+").unwrap(),
        ];
        assert!(DimensionSet::from_channels(chs).is_err());
    }
}
