//! The turn-extraction engine: Theorems 1, 2 and 3 made executable.
//!
//! Given a validated [`PartitionSeq`], this module computes the complete set
//! of allowable turns exactly as Figure 8 of the paper does by hand:
//!
//! * **Theorem 1** — inside each partition, every ordered pair of channels in
//!   *different* dimensions is an allowed 90° turn.
//! * **Theorem 2** — inside each partition, channels of a dimension that has
//!   a complete D-pair are numbered by their position in the partition and
//!   may only be taken in ascending order (yielding the allowed U- and
//!   I-turns, half of all possibilities: `n(n-1)/2`). In dimensions without
//!   a complete pair, every I-turn is allowed.
//! * **Theorem 3** — from any channel of partition *i* to any channel of
//!   partition *j > i*, every transition (90°, U or I) is allowed.

use crate::channel::Direction;
use crate::error::Result;
use crate::partition::Partition;
use crate::sequence::PartitionSeq;
use crate::turn::{Turn, TurnSet};

/// Which theorem justified a turn — used to reproduce the grouped
/// presentation of Figure 8 and Tables 4–5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Justification {
    /// Theorem 1: 90° turn inside partition `partition`.
    Theorem1 {
        /// Index of the partition.
        partition: usize,
    },
    /// Theorem 2: ascending-order U-/I-turn inside partition `partition`.
    Theorem2 {
        /// Index of the partition.
        partition: usize,
    },
    /// Theorem 3: transition from partition `from` to partition `to`.
    Theorem3 {
        /// Index of the source partition.
        from: usize,
        /// Index of the destination partition.
        to: usize,
    },
}

impl Justification {
    /// Coverage-map label of the proof obligation this justification
    /// discharges: `theorem1/p0`, `theorem2/p1`, `theorem3/p0>p2`.
    /// Recorded under the `obligation` coverage family.
    pub(crate) fn coverage_key(&self) -> String {
        match self {
            Justification::Theorem1 { partition } => format!("theorem1/p{partition}"),
            Justification::Theorem2 { partition } => format!("theorem2/p{partition}"),
            Justification::Theorem3 { from, to } => format!("theorem3/p{from}>p{to}"),
        }
    }
}

/// The full result of turn extraction: every allowed turn plus the theorem
/// that justifies it.
#[derive(Debug, Clone, Default)]
pub struct Extraction {
    turns: TurnSet,
    justified: Vec<(Turn, Justification)>,
}

impl Extraction {
    /// All allowed turns as a flat set.
    pub fn turn_set(&self) -> &TurnSet {
        &self.turns
    }

    /// Consumes the extraction, returning the flat turn set.
    pub fn into_turn_set(self) -> TurnSet {
        self.turns
    }

    /// Every `(turn, justification)` pair, in generation order
    /// (Theorem 1 and 2 of partition 0, then Theorem 3 into later
    /// partitions, …).
    pub fn justified_turns(&self) -> &[(Turn, Justification)] {
        &self.justified
    }

    /// The turns justified by a specific theorem instance.
    pub fn turns_for(&self, j: Justification) -> TurnSet {
        self.justified
            .iter()
            .filter(|(_, jj)| *jj == j)
            .map(|(t, _)| *t)
            .collect()
    }

    /// The distinct theorem obligations this extraction discharged, as
    /// sorted, deduplicated `Justification::coverage_key` labels —
    /// what campaigns feed the `obligation` coverage family.
    pub fn obligation_keys(&self) -> Vec<String> {
        // Many turns share a justification: name each distinct one once.
        let mut distinct: Vec<Justification> = self.justified.iter().map(|(_, j)| *j).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let mut keys: Vec<String> = distinct.iter().map(Justification::coverage_key).collect();
        keys.sort();
        keys
    }

    fn record(&mut self, t: Turn, j: Justification) {
        if self.turns.insert(t) {
            self.justified.push((t, j));
        }
    }
}

/// Extracts every allowed turn from a partition sequence.
///
/// This is the Figure 8 engine; see the module docs for the exact rules.
///
/// ```
/// use ebda_core::{extract_turns, PartitionSeq, TurnKind};
/// // North-last (Fig. 5): PA[X+ X- Y-] -> PB[Y+].
/// let seq = PartitionSeq::parse("X+ X- Y- | Y+").unwrap();
/// let ex = extract_turns(&seq).unwrap();
/// let counts = ex.turn_set().counts();
/// assert_eq!(counts.ninety, 6); // max adaptiveness in 2D: 6 turns
/// assert_eq!(counts.u_turns, 2); // one per complete pair + Y-..Y+ via Th.3
/// ```
///
/// # Errors
///
/// Returns an error if the sequence fails [`PartitionSeq::validate`]: turns
/// may only be extracted from a structurally valid design.
pub fn extract_turns(seq: &PartitionSeq) -> Result<Extraction> {
    seq.validate()?;
    let mut ex = Extraction::default();
    let parts = seq.partitions();
    // Every turn joins two distinct channels of the design.
    let channels = seq.channel_count();
    ex.justified
        .reserve_exact(channels * channels.saturating_sub(1));

    for (pi, p) in parts.iter().enumerate() {
        intra_partition_theorem1(&mut ex, p, pi);
        intra_partition_theorem2(&mut ex, p, pi);
    }
    for i in 0..parts.len() {
        for j in (i + 1)..parts.len() {
            let just = Justification::Theorem3 { from: i, to: j };
            for &a in parts[i].channels() {
                for &b in parts[j].channels() {
                    ex.record(Turn::new(a, b), just);
                }
            }
        }
    }
    Ok(ex)
}

/// Theorem 1: all ordered cross-dimension pairs inside the partition.
fn intra_partition_theorem1(ex: &mut Extraction, p: &Partition, pi: usize) {
    let just = Justification::Theorem1 { partition: pi };
    for &a in p.channels() {
        for &b in p.channels() {
            if a.dim != b.dim {
                ex.record(Turn::new(a, b), just);
            }
        }
    }
}

/// Theorem 2: same-dimension transitions inside the partition.
///
/// In a dimension with a complete pair, the partition's insertion order is
/// the channel numbering and only ascending transitions are allowed; in a
/// dimension without a complete pair every I-turn is allowed (corollary of
/// Theorem 2).
fn intra_partition_theorem2(ex: &mut Extraction, p: &Partition, pi: usize) {
    let just = Justification::Theorem2 { partition: pi };
    let channels = p.channels();
    // Dimensions ascending, each once: the lowest, then the lowest above it.
    let mut next = channels.iter().map(|c| c.dim).min();
    while let Some(d) = next {
        let in_dim = || channels.iter().copied().filter(move |c| c.dim == d);
        let paired = in_dim().any(|c| c.dir == Direction::Plus)
            && in_dim().any(|c| c.dir == Direction::Minus);
        for (i, a) in in_dim().enumerate() {
            for (j, b) in in_dim().enumerate() {
                // Complete pair: ascending order only. Single direction:
                // all I-turns are allowed.
                if if paired { i < j } else { a != b } {
                    ex.record(Turn::new(a, b), just);
                }
            }
        }
        next = channels.iter().map(|c| c.dim).filter(|&x| x > d).min();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;
    use crate::turn::TurnKind;

    fn ch(s: &str) -> Channel {
        Channel::parse(s).unwrap()
    }

    fn turn(a: &str, b: &str) -> Turn {
        Turn::new(ch(a), ch(b))
    }

    #[test]
    fn obligation_keys_name_each_discharged_theorem() {
        // North-last: Theorem 1/2 inside p0, Theorem 3 into p1.
        let seq = PartitionSeq::parse("X+ X- Y- | Y+").unwrap();
        let ex = extract_turns(&seq).unwrap();
        let keys = ex.obligation_keys();
        assert!(keys.contains(&"theorem1/p0".to_string()), "{keys:?}");
        assert!(keys.contains(&"theorem3/p0>p1".to_string()), "{keys:?}");
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted: {keys:?}");
        assert_eq!(
            Justification::Theorem2 { partition: 3 }.coverage_key(),
            "theorem2/p3"
        );
    }

    #[test]
    fn fig3_three_channel_partition() {
        // P = {X+ X- Y-}: four 90-degree turns WS, SE, ES, SW.
        let seq = PartitionSeq::parse("X+ X- Y-").unwrap();
        let ex = extract_turns(&seq).unwrap();
        let ninety: TurnSet = ex.turn_set().of_kind(TurnKind::Ninety).collect();
        let expected: TurnSet = [
            turn("X1-", "Y1-"), // WS
            turn("Y1-", "X1+"), // SE
            turn("X1+", "Y1-"), // ES
            turn("Y1-", "X1-"), // SW
        ]
        .into_iter()
        .collect();
        assert_eq!(ninety, expected, "got {ninety}");
        // Theorem 2: one U-turn for the X pair, fixed by insertion order.
        let u: Vec<Turn> = ex.turn_set().of_kind(TurnKind::UTurn).collect();
        assert_eq!(u, vec![turn("X1+", "X1-")]);
    }

    #[test]
    fn fig5_north_last() {
        // PA[X+ X- Y-] -> PB[Y+] yields the north-last turn set:
        // all eight 90-degree turns except NE and NW.
        let seq = PartitionSeq::parse("X+ X- Y- | Y+").unwrap();
        let ex = extract_turns(&seq).unwrap();
        let ninety: TurnSet = ex.turn_set().of_kind(TurnKind::Ninety).collect();
        assert_eq!(ninety.len(), 6);
        assert!(!ninety.contains(turn("Y1+", "X1+"))); // NE prohibited
        assert!(!ninety.contains(turn("Y1+", "X1-"))); // NW prohibited
        assert!(ninety.contains(turn("X1+", "Y1+"))); // EN allowed (Th. 3)
        assert!(ninety.contains(turn("X1-", "Y1+"))); // WN allowed (Th. 3)
                                                      // The Theorem-3 U-turn S->N is enabled, N->S is naturally avoided.
        let u: TurnSet = ex.turn_set().of_kind(TurnKind::UTurn).collect();
        assert!(u.contains(turn("Y1-", "Y1+")));
        assert!(!u.contains(turn("Y1+", "Y1-")));
    }

    #[test]
    fn fig4_three_vcs_on_y() {
        // Three VCs on Y inside one partition: 6 channels numbered in
        // insertion order; ascending transitions = n(n-1)/2 = 15 turns,
        // of which a*b = 9 are U-turns and C(3,2)+C(3,2) = 6 are I-turns.
        let seq = PartitionSeq::parse("Y1+ Y1- Y2+ Y2- Y3+ Y3-").unwrap();
        let ex = extract_turns(&seq).unwrap();
        let c = ex.turn_set().counts();
        assert_eq!(c.ninety, 0);
        assert_eq!(c.u_turns, 9);
        assert_eq!(c.i_turns, 6);
        assert_eq!(c.total(), 15);
    }

    #[test]
    fn fig4b_alternative_numbering_same_counts() {
        // A different channel arrangement still yields 9 U- and 6 I-turns.
        let seq = PartitionSeq::parse("Y1+ Y2+ Y3+ Y1- Y2- Y3-").unwrap();
        let c = extract_turns(&seq).unwrap().turn_set().counts();
        assert_eq!((c.u_turns, c.i_turns), (9, 6));
    }

    #[test]
    fn unpaired_dimension_allows_all_i_turns() {
        // Corollary of Theorem 2: X1+ and X2+ (no complete X-pair) permit
        // I-turns in both orders.
        let seq = PartitionSeq::parse("X1+ X2+ Y1-").unwrap();
        let ex = extract_turns(&seq).unwrap();
        assert!(ex.turn_set().contains(turn("X1+", "X2+")));
        assert!(ex.turn_set().contains(turn("X2+", "X1+")));
    }

    #[test]
    fn paired_dimension_restricts_i_turns_to_ascending() {
        // With a complete pair present, I-turns follow the numbering too.
        let seq = PartitionSeq::parse("X1+ X1- X2+").unwrap();
        let ex = extract_turns(&seq).unwrap();
        assert!(ex.turn_set().contains(turn("X1+", "X2+")));
        assert!(!ex.turn_set().contains(turn("X2+", "X1+")));
        assert!(ex.turn_set().contains(turn("X1-", "X2+")));
    }

    #[test]
    fn theorem3_is_full_cross_product() {
        let seq = PartitionSeq::parse("X+ Y- | X- Y+").unwrap();
        let ex = extract_turns(&seq).unwrap();
        let th3 = ex.turns_for(Justification::Theorem3 { from: 0, to: 1 });
        assert_eq!(th3.len(), 4); // 2x2 cross product
        assert!(th3.contains(turn("X1+", "X1-")));
        assert!(th3.contains(turn("Y1-", "Y1+")));
        assert!(th3.contains(turn("X1+", "Y1+")));
        assert!(th3.contains(turn("Y1-", "X1-")));
        // No turn goes backwards from partition 1 to partition 0.
        assert!(!ex.turn_set().contains(turn("X1-", "X1+")));
        assert!(!ex.turn_set().contains(turn("Y1+", "X1+")));
    }

    #[test]
    fn extraction_rejects_invalid_sequences() {
        let seq = PartitionSeq::parse("X+ X- Y+ Y-").unwrap();
        assert!(extract_turns(&seq).is_err());
    }

    #[test]
    fn justifications_partition_the_turns() {
        let seq = PartitionSeq::parse("X+ X- Y- | Y+").unwrap();
        let ex = extract_turns(&seq).unwrap();
        let total: usize = ex.justified_turns().len();
        assert_eq!(total, ex.turn_set().len());
        let th1 = ex.turns_for(Justification::Theorem1 { partition: 0 });
        let th2 = ex.turns_for(Justification::Theorem2 { partition: 0 });
        let th3 = ex.turns_for(Justification::Theorem3 { from: 0, to: 1 });
        assert_eq!(th1.len() + th2.len() + th3.len(), total);
    }
}
