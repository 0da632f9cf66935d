//! Partitions of channels (Definition 2) and the Theorem 1 check.
//!
//! A [`Partition`] is an *ordered* set of pairwise-disjoint channels. Packets
//! may take the channels of a partition arbitrarily and repeatedly (90°
//! turns), while U- and I-turns inside the partition follow the ascending
//! channel numbering of Theorem 2 — the order of insertion *is* that
//! numbering.

use crate::channel::{Channel, Dimension, Direction};
use crate::error::{EbdaError, Result};
use std::fmt;

/// An ordered set of pairwise-disjoint channels (Definition 2).
///
/// ```
/// use ebda_core::Partition;
/// // The Fig. 3 partition: everything but North.
/// let p = Partition::parse("X+ X- Y-").unwrap();
/// assert!(p.theorem1_holds());
/// assert_eq!(p.complete_pair_dims(), vec![ebda_core::Dimension::X]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Partition {
    channels: Vec<Channel>,
}

impl Partition {
    /// Creates an empty partition.
    pub fn new() -> Partition {
        Partition::default()
    }

    /// Builds a partition from channels, rejecting overlapping entries.
    ///
    /// # Errors
    ///
    /// Returns [`EbdaError::OverlappingChannels`] if any two of the given
    /// channels overlap (Definition 2 requires a partition's channels to be
    /// disjoint resources). Exact duplicates are silently dropped.
    pub fn from_channels<I: IntoIterator<Item = Channel>>(iter: I) -> Result<Partition> {
        let mut p = Partition::new();
        for c in iter {
            p.push(c)?;
        }
        Ok(p)
    }

    /// Parses a space/comma-separated channel list, expanding `*` wildcards.
    ///
    /// # Errors
    ///
    /// Returns a parse error for malformed tokens or an overlap error for
    /// non-disjoint channels.
    pub fn parse(s: &str) -> Result<Partition> {
        Partition::from_channels(crate::channel::parse_channels(s)?)
    }

    /// Appends a channel, keeping insertion order (the Theorem 2 numbering).
    ///
    /// Exact duplicates are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`EbdaError::OverlappingChannels`] if the new channel overlaps
    /// (but does not equal) an existing one.
    pub fn push(&mut self, c: Channel) -> Result<()> {
        for &existing in &self.channels {
            if existing == c {
                return Ok(());
            }
            if existing.overlaps(c) {
                return Err(EbdaError::OverlappingChannels {
                    a: existing.to_string(),
                    b: c.to_string(),
                });
            }
        }
        self.channels.push(c);
        Ok(())
    }

    /// Appends both directions of a dimension/VC (the paper's `Z1*`).
    ///
    /// # Errors
    ///
    /// Propagates overlap errors from [`Partition::push`].
    pub fn push_star(&mut self, template: Channel) -> Result<()> {
        self.push(template)?;
        self.push(template.reversed())
    }

    /// The channels in insertion (Theorem 2 numbering) order.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Iterates over the channels in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, Channel> {
        self.channels.iter()
    }

    /// Number of channels.
    pub(crate) fn len(&self) -> usize {
        self.channels.len()
    }

    /// Returns `true` if the partition covers the given channel exactly.
    pub fn contains(&self, c: Channel) -> bool {
        self.channels.contains(&c)
    }

    /// Dimensions in which this partition covers a *complete D-pair*
    /// (Definition 3): at least one channel in each direction of the
    /// dimension, regardless of VC number or parity class.
    pub fn complete_pair_dims(&self) -> Vec<Dimension> {
        let mut dims: Vec<Dimension> = self.channels.iter().map(|c| c.dim).collect();
        dims.sort_unstable();
        dims.dedup();
        dims.into_iter()
            .filter(|&d| {
                let has_plus = self
                    .channels
                    .iter()
                    .any(|c| c.dim == d && c.dir == Direction::Plus);
                let has_minus = self
                    .channels
                    .iter()
                    .any(|c| c.dim == d && c.dir == Direction::Minus);
                has_plus && has_minus
            })
            .collect()
    }

    /// Theorem 1: the partition is cycle-free (ignoring U-/I-turns) iff it
    /// covers at most one complete D-pair.
    pub fn theorem1_holds(&self) -> bool {
        // Count each paired dimension at its first `+` channel; no list
        // is built on this path, which every validation takes.
        let paired = self
            .channels
            .iter()
            .enumerate()
            .filter(|&(i, c)| {
                let same = |e: &Channel, dir| e.dim == c.dim && e.dir == dir;
                c.dir == Direction::Plus
                    && !self.channels[..i].iter().any(|e| same(e, Direction::Plus))
                    && self.channels.iter().any(|e| same(e, Direction::Minus))
            })
            .count();
        paired <= 1
    }

    /// Like [`Partition::theorem1_holds`] but returns the offending
    /// dimensions as an error for diagnostics.
    ///
    /// # Errors
    ///
    /// Returns [`EbdaError::TooManyPairs`] listing every dimension with a
    /// complete pair when there is more than one.
    pub(crate) fn check_theorem1(&self) -> Result<()> {
        if self.theorem1_holds() {
            Ok(())
        } else {
            Err(EbdaError::TooManyPairs {
                dims: self
                    .complete_pair_dims()
                    .iter()
                    .map(|d| d.to_string())
                    .collect(),
            })
        }
    }

    /// Returns a pair of overlapping channels across the two partitions, if
    /// any — useful for error messages.
    pub(crate) fn shared_channel(&self, other: &Partition) -> Option<(Channel, Channel)> {
        for &a in &self.channels {
            for &b in &other.channels {
                if a.overlaps(b) {
                    return Some((a, b));
                }
            }
        }
        None
    }

    /// The distinct dimensions this partition touches, ascending.
    pub(crate) fn dims(&self) -> Vec<Dimension> {
        let mut dims: Vec<Dimension> = self.channels.iter().map(|c| c.dim).collect();
        dims.sort_unstable();
        dims.dedup();
        dims
    }

    /// The set of direction sign-vectors (regions) this partition can route
    /// within, expressed per dimension of an `n`-dimensional network:
    /// `Some(Plus)` / `Some(Minus)` when only one direction is covered,
    /// `None` when both or neither are covered (both ⇒ free, neither ⇒ the
    /// partition cannot move in that dimension at all).
    ///
    /// See [`Partition::covers_region`] for the quadrant/octant test used by
    /// the minimum-channel constructions of Section 4.
    pub(crate) fn direction_profile(&self, n: usize) -> Vec<DirectionCoverage> {
        (0..n)
            .map(|i| {
                let d = Dimension::new(i as u8);
                let plus = self
                    .channels
                    .iter()
                    .any(|c| c.dim == d && c.dir == Direction::Plus);
                let minus = self
                    .channels
                    .iter()
                    .any(|c| c.dim == d && c.dir == Direction::Minus);
                match (plus, minus) {
                    (true, true) => DirectionCoverage::Both,
                    (true, false) => DirectionCoverage::Only(Direction::Plus),
                    (false, true) => DirectionCoverage::Only(Direction::Minus),
                    (false, false) => DirectionCoverage::None,
                }
            })
            .collect()
    }

    /// Returns `true` if the partition alone can carry a packet whose
    /// per-dimension offsets have the signs in `region` (entries may be
    /// `Plus`, `Minus`; a dimension the packet does not need to move in is
    /// satisfied by any coverage).
    ///
    /// This is the Section 4 notion: "channels grouped into a partition can
    /// be translated as a fully adaptive routing for the region they cover".
    pub(crate) fn covers_region(&self, region: &[Option<Direction>]) -> bool {
        let profile = self.direction_profile(region.len());
        region.iter().enumerate().all(|(i, need)| match need {
            None => true,
            Some(dir) => match profile[i] {
                DirectionCoverage::Both => true,
                DirectionCoverage::Only(d) => d == *dir,
                DirectionCoverage::None => false,
            },
        })
    }
}

/// Per-dimension directional coverage of a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DirectionCoverage {
    /// Both directions covered (a complete D-pair).
    Both,
    /// Only the given direction covered.
    Only(Direction),
    /// No channel in this dimension.
    None,
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, c) in self.channels.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "]")
    }
}

impl<'a> IntoIterator for &'a Partition {
    type Item = &'a Channel;
    type IntoIter = std::slice::Iter<'a, Channel>;

    fn into_iter(self) -> Self::IntoIter {
        self.channels.iter()
    }
}

impl FromIterator<Channel> for Partition {
    /// Collects channels into a partition.
    ///
    /// # Panics
    ///
    /// Panics if the channels are not pairwise disjoint; use
    /// [`Partition::from_channels`] for a fallible version.
    fn from_iter<T: IntoIterator<Item = Channel>>(iter: T) -> Partition {
        Partition::from_channels(iter).expect("channels must be pairwise disjoint")
    }
}

impl Extend<Channel> for Partition {
    /// Extends the partition with channels.
    ///
    /// # Panics
    ///
    /// Panics if a new channel overlaps an existing one.
    fn extend<T: IntoIterator<Item = Channel>>(&mut self, iter: T) {
        for c in iter {
            self.push(c).expect("channels must be pairwise disjoint");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Parity;

    #[test]
    fn theorem1_basic_examples() {
        // The largest cycle-free partition in 2D: one pair + one extra.
        let p = Partition::parse("X+ X- Y-").unwrap();
        assert!(p.theorem1_holds());
        // All four directions: two pairs, violates Theorem 1.
        let p = Partition::parse("X+ X- Y+ Y-").unwrap();
        assert!(!p.theorem1_holds());
        assert!(matches!(
            p.check_theorem1(),
            Err(EbdaError::TooManyPairs { dims }) if dims == ["X", "Y"]
        ));
    }

    #[test]
    fn theorem1_count_agrees_with_the_listed_pair_dimensions() {
        // `theorem1_holds` counts paired dimensions without listing
        // them; the list is the definition.
        for s in [
            "X+",
            "X+ X-",
            "X- X+ Y-",
            "Y- X2- Y+ X1+",
            "X1+ X2+ X1- Y+ Y- Z+",
            "Z- Y+ Z+ X+ Y-",
            "X1+ X2+ Y1- Y2-",
        ] {
            let p = Partition::parse(s).unwrap();
            assert_eq!(p.theorem1_holds(), p.complete_pair_dims().len() <= 1, "{s}");
            assert_eq!(p.check_theorem1().is_ok(), p.theorem1_holds(), "{s}");
        }
    }

    #[test]
    fn note_to_theorem1_vc_pairs() {
        // P = {X1+ X2- Y1+ Y2-} is NOT cycle-free: the X pair is (X1+, X2-)
        // and the Y pair is (Y1+, Y2-).
        let p = Partition::parse("X1+ X2- Y1+ Y2-").unwrap();
        assert!(!p.theorem1_holds());
        // P = {X1+ Y1+ Y1- Y2+ Y2-} is cycle-free: only Y has a pair,
        // regardless of how many Y-pairs can be formed.
        let p = Partition::parse("X1+ Y1+ Y1- Y2+ Y2-").unwrap();
        assert!(p.theorem1_holds());
        assert_eq!(p.complete_pair_dims(), vec![Dimension::Y]);
    }

    #[test]
    fn four_dimensional_example() {
        // Paper: {X+, Y+, Y-, Z+, T-} in 4D is cycle-free (only Y-pair).
        let p = Partition::parse("X+ Y+ Y- Z+ T1-").unwrap();
        assert!(p.theorem1_holds());
        assert_eq!(p.complete_pair_dims(), vec![Dimension::Y]);
    }

    #[test]
    fn duplicate_channels_are_deduped() {
        let p = Partition::parse("X+ X+ X1+").unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn overlapping_channels_rejected() {
        // Y1+ (everywhere) overlaps Ye1+ (even columns).
        let y = Channel::parse("Y1+").unwrap();
        let ye = y.at_parity(Dimension::X, Parity::Even);
        let mut p = Partition::new();
        p.push(y).unwrap();
        assert!(matches!(
            p.push(ye),
            Err(EbdaError::OverlappingChannels { .. })
        ));
    }

    #[test]
    fn disjointness_across_partitions() {
        let pa = Partition::parse("X+ X- Y-").unwrap();
        let pb = Partition::parse("Y+").unwrap();
        assert!(pa.shared_channel(&pb).is_none());
        let pc = Partition::parse("Y- Z+").unwrap();
        let (a, b) = pa.shared_channel(&pc).unwrap();
        assert_eq!(a.to_string(), "Y1-");
        assert_eq!(b.to_string(), "Y1-");
    }

    #[test]
    fn odd_even_partitions_are_disjoint_and_valid() {
        // PA = {X-, Ye*}, PB = {X+, Yo*} — Section 6.2.
        let mut pa = Partition::parse("X-").unwrap();
        pa.push_star(
            Channel::new(Dimension::Y, Direction::Plus).at_parity(Dimension::X, Parity::Even),
        )
        .unwrap();
        let mut pb = Partition::parse("X+").unwrap();
        pb.push_star(
            Channel::new(Dimension::Y, Direction::Plus).at_parity(Dimension::X, Parity::Odd),
        )
        .unwrap();
        assert!(pa.theorem1_holds());
        assert!(pb.theorem1_holds());
        assert!(pa.shared_channel(&pb).is_none());
        assert_eq!(pa.complete_pair_dims(), vec![Dimension::Y]);
    }

    #[test]
    fn region_coverage() {
        use Direction::*;
        let pa = Partition::parse("X1+ Y1+ Y1-").unwrap(); // Fig. 7(b) PA
        assert!(pa.covers_region(&[Some(Plus), Some(Plus)])); // NE
        assert!(pa.covers_region(&[Some(Plus), Some(Minus)])); // SE
        assert!(!pa.covers_region(&[Some(Minus), Some(Plus)])); // NW
        assert!(pa.covers_region(&[Some(Plus), None]));
        assert!(pa.covers_region(&[None, None]));
    }

    #[test]
    fn direction_profile_reports_missing_dims() {
        let p = Partition::parse("X+").unwrap();
        let prof = p.direction_profile(3);
        assert_eq!(prof[0], DirectionCoverage::Only(Direction::Plus));
        assert_eq!(prof[1], DirectionCoverage::None);
        assert_eq!(prof[2], DirectionCoverage::None);
    }

    #[test]
    fn display_lists_channels_in_order() {
        let p = Partition::parse("Z1+ Z1- X1+ Y1+").unwrap();
        assert_eq!(p.to_string(), "[Z1+ Z1- X1+ Y1+]");
    }
}
