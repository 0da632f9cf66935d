//! Turns between channel classes (Definitions 4–5) and turn sets.
//!
//! A turn is a transition from one channel class to another taken by a packet
//! at a router. EbDa classifies turns by the angle between the two channels:
//! 90° turns change dimension, I-turns (0°) stay in the same dimension and
//! direction, U-turns (180°) reverse direction within a dimension.

use crate::channel::Channel;
use std::collections::BTreeSet;
use std::fmt;

/// The kind of a turn, by angle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TurnKind {
    /// A 90-degree turn: the dimensions of the two channels differ.
    Ninety,
    /// An I-turn (0 degrees, Definition 4): same dimension, same direction,
    /// different VC or parity class.
    ITurn,
    /// A U-turn (180 degrees, Definition 5): same dimension, opposite
    /// directions.
    UTurn,
}

impl fmt::Display for TurnKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TurnKind::Ninety => write!(f, "90-degree"),
            TurnKind::ITurn => write!(f, "I-turn"),
            TurnKind::UTurn => write!(f, "U-turn"),
        }
    }
}

/// A directed transition from one channel class to another.
///
/// ```
/// use ebda_core::{Channel, Turn, TurnKind};
/// let t = Turn::new("X1+".parse()?, "Y1-".parse()?);
/// assert_eq!(t.kind(), TurnKind::Ninety);
/// # Ok::<(), ebda_core::EbdaError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Turn {
    /// The channel the packet arrives on.
    pub from: Channel,
    /// The channel the packet continues on.
    pub to: Channel,
}

impl Turn {
    /// Creates a turn between two distinct channel classes.
    ///
    /// # Panics
    ///
    /// Panics if `from == to`: continuing straight on the same channel class
    /// is not a turn.
    pub fn new(from: Channel, to: Channel) -> Turn {
        assert!(from != to, "a turn requires two distinct channel classes");
        Turn { from, to }
    }

    /// Classifies the turn by the angle between its channels.
    pub fn kind(self) -> TurnKind {
        if self.from.dim != self.to.dim {
            TurnKind::Ninety
        } else if self.from.dir == self.to.dir {
            TurnKind::ITurn
        } else {
            TurnKind::UTurn
        }
    }

    /// The reverse transition.
    pub fn reversed(self) -> Turn {
        Turn {
            from: self.to,
            to: self.from,
        }
    }
}

impl fmt::Display for Turn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}", self.from, self.to)
    }
}

/// A set of allowed turns, the output of EbDa's extraction (Section 5.4:
/// "all allowable 0-degree, U- and I-turns can be extracted from the
/// partitions and the routing algorithm can be developed based on them").
///
/// Iteration order is deterministic (lexicographic by channel fields).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TurnSet {
    turns: BTreeSet<Turn>,
}

impl TurnSet {
    /// Creates an empty turn set.
    pub fn new() -> TurnSet {
        TurnSet::default()
    }

    /// Inserts a turn; returns `true` if it was not already present.
    pub fn insert(&mut self, t: Turn) -> bool {
        self.turns.insert(t)
    }

    /// Removes a turn; returns `true` if it was present.
    pub fn remove(&mut self, t: Turn) -> bool {
        self.turns.remove(&t)
    }

    /// Returns `true` if the turn is allowed.
    pub fn contains(&self, t: Turn) -> bool {
        self.turns.contains(&t)
    }

    /// Returns `true` if the transition `from -> to` is allowed. Unlike
    /// [`TurnSet::contains`], identical channel classes (going straight) are
    /// always allowed.
    pub fn allows(&self, from: Channel, to: Channel) -> bool {
        from == to || self.turns.contains(&Turn { from, to })
    }

    /// Number of turns in the set.
    pub fn len(&self) -> usize {
        self.turns.len()
    }

    /// Returns `true` if the set has no turns.
    pub fn is_empty(&self) -> bool {
        self.turns.is_empty()
    }

    /// Iterates over all turns in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = Turn> + '_ {
        self.turns.iter().copied()
    }

    /// Iterates over turns of one kind.
    pub fn of_kind(&self, kind: TurnKind) -> impl Iterator<Item = Turn> + '_ {
        self.turns.iter().copied().filter(move |t| t.kind() == kind)
    }

    /// Counts turns of each kind: `(ninety, u_turns, i_turns)`.
    pub fn counts(&self) -> TurnCounts {
        let mut c = TurnCounts::default();
        for t in &self.turns {
            match t.kind() {
                TurnKind::Ninety => c.ninety += 1,
                TurnKind::UTurn => c.u_turns += 1,
                TurnKind::ITurn => c.i_turns += 1,
            }
        }
        c
    }

    /// Set union, consuming `other`.
    pub fn merge(&mut self, other: TurnSet) {
        self.turns.extend(other.turns);
    }

    /// Returns the turns present in `self` but not `other`.
    pub(crate) fn difference(&self, other: &TurnSet) -> TurnSet {
        TurnSet {
            turns: self.turns.difference(&other.turns).copied().collect(),
        }
    }
}

impl FromIterator<Turn> for TurnSet {
    fn from_iter<T: IntoIterator<Item = Turn>>(iter: T) -> TurnSet {
        TurnSet {
            turns: iter.into_iter().collect(),
        }
    }
}

impl Extend<Turn> for TurnSet {
    fn extend<T: IntoIterator<Item = Turn>>(&mut self, iter: T) {
        self.turns.extend(iter);
    }
}

impl<'a> IntoIterator for &'a TurnSet {
    type Item = Turn;
    type IntoIter = std::iter::Copied<std::collections::btree_set::Iter<'a, Turn>>;

    fn into_iter(self) -> Self::IntoIter {
        self.turns.iter().copied()
    }
}

impl fmt::Display for TurnSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.turns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

/// Counts of turns by kind, as reported in the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TurnCounts {
    /// Number of 90-degree turns.
    pub ninety: usize,
    /// Number of U-turns (180 degrees).
    pub u_turns: usize,
    /// Number of I-turns (0 degrees).
    pub i_turns: usize,
}

impl TurnCounts {
    /// Total number of turns.
    pub fn total(self) -> usize {
        self.ninety + self.u_turns + self.i_turns
    }
}

impl fmt::Display for TurnCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} 90-degree, {} U-turns, {} I-turns",
            self.ninety, self.u_turns, self.i_turns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;

    fn ch(s: &str) -> Channel {
        Channel::parse(s).unwrap()
    }

    #[test]
    fn turn_kinds() {
        assert_eq!(Turn::new(ch("X1+"), ch("Y1+")).kind(), TurnKind::Ninety);
        assert_eq!(Turn::new(ch("X1+"), ch("X2+")).kind(), TurnKind::ITurn);
        assert_eq!(Turn::new(ch("X1+"), ch("X1-")).kind(), TurnKind::UTurn);
        assert_eq!(Turn::new(ch("X1+"), ch("X2-")).kind(), TurnKind::UTurn);
    }

    #[test]
    #[should_panic(expected = "distinct channel classes")]
    fn self_turn_panics() {
        let _ = Turn::new(ch("X1+"), ch("X1+"));
    }

    #[test]
    fn turnset_allows_straight_through() {
        let ts = TurnSet::new();
        assert!(ts.allows(ch("X1+"), ch("X1+")));
        assert!(!ts.allows(ch("X1+"), ch("Y1+")));
    }

    #[test]
    fn counts_by_kind() {
        let mut ts = TurnSet::new();
        ts.insert(Turn::new(ch("X1+"), ch("Y1+")));
        ts.insert(Turn::new(ch("Y1+"), ch("X1+")));
        ts.insert(Turn::new(ch("X1+"), ch("X1-")));
        ts.insert(Turn::new(ch("X1+"), ch("X2+")));
        let c = ts.counts();
        assert_eq!(c.ninety, 2);
        assert_eq!(c.u_turns, 1);
        assert_eq!(c.i_turns, 1);
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn merge_and_difference() {
        let a: TurnSet = [Turn::new(ch("X1+"), ch("Y1+"))].into_iter().collect();
        let mut b: TurnSet = [Turn::new(ch("Y1+"), ch("X1+"))].into_iter().collect();
        b.merge(a.clone());
        assert_eq!(b.len(), 2);
        assert_eq!(b.difference(&a).len(), 1);
        assert_ne!(b, a);
    }

    #[test]
    fn display_formats() {
        let t = Turn::new(ch("X1+"), ch("Y1-"));
        assert_eq!(t.to_string(), "X1+->Y1-");
        assert_eq!(t.reversed().to_string(), "Y1-->X1+");
        let ts: TurnSet = [t].into_iter().collect();
        assert_eq!(ts.to_string(), "{X1+->Y1-}");
    }
}
