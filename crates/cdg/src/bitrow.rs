//! Bit rows over a channel-class universe: entry `j` of a row is bit
//! `j % 64` of word `j / 64`, so a universe of any size takes the same
//! code path (one word up to 64 classes). Shared by the CDG edge fill
//! ([`crate::graph::Skeleton::fill`]), the skeleton search and Duato's
//! connectivity check.

use ebda_core::{Channel, TurnSet};

/// Words per row for a universe of `k` classes.
pub(crate) fn words_for(k: usize) -> usize {
    k.div_ceil(64)
}

/// Sets entry `j` of `row`.
#[inline]
pub(crate) fn set(row: &mut [u64], j: usize) {
    row[j / 64] |= 1 << (j % 64);
}

/// Whether entry `j` of `row` is set.
#[inline]
pub(crate) fn get(row: &[u64], j: usize) -> bool {
    row[j / 64] >> (j % 64) & 1 == 1
}

/// Whether two rows share a set entry.
#[inline]
pub(crate) fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// The set entries of `row`, ascending.
pub(crate) fn ones(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let j = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + j
            })
        })
    })
}

/// The class relation [`TurnSet::allows`] over `universe` as one bit row
/// per class, written into `rows` (cleared first): entry `j` of row `i`
/// (`rows[i * words..][..words]`) is set iff `universe[i] -> universe[j]`
/// is allowed. Value-based, so duplicate universe entries get equal rows
/// and equal columns.
pub(crate) fn allow_rows(universe: &[Channel], turns: &TurnSet, rows: &mut Vec<u64>) {
    let words = words_for(universe.len());
    rows.clear();
    rows.resize(universe.len() * words, 0);
    let matching = |c: Channel| {
        universe
            .iter()
            .enumerate()
            .filter(move |&(_, &u)| u == c)
            .map(|(i, _)| i)
    };
    // Going straight on the same class is always allowed.
    for (i, &c) in universe.iter().enumerate() {
        for j in matching(c) {
            set(&mut rows[i * words..][..words], j);
        }
    }
    for t in turns.iter() {
        for i in matching(t.from) {
            for j in matching(t.to) {
                set(&mut rows[i * words..][..words], j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebda_core::{parse_channels, Turn};

    #[test]
    fn ones_lists_set_entries_across_words() {
        let mut row = vec![0u64; 2];
        for j in [0, 5, 63, 64, 100] {
            set(&mut row, j);
        }
        assert_eq!(ones(&row).collect::<Vec<_>>(), vec![0, 5, 63, 64, 100]);
        assert!(intersects(&row, &[0, 1]));
        assert!(!intersects(&row, &[2, 2]));
    }

    #[test]
    fn allow_rows_match_the_turn_set_entry_by_entry() {
        // A duplicate entry and a turn whose target is not in the universe.
        let universe = parse_channels("X+ Y+ X+ Y-").unwrap();
        let mut turns = TurnSet::new();
        turns.insert(Turn::new(universe[0], universe[1]));
        turns.insert(Turn::new(universe[3], Channel::parse("Z+").unwrap()));
        let mut rows = vec![7u64; 9];
        allow_rows(&universe, &turns, &mut rows);
        assert_eq!(rows.len(), universe.len());
        for (i, &a) in universe.iter().enumerate() {
            for (j, &b) in universe.iter().enumerate() {
                assert_eq!(rows[i] >> j & 1 == 1, turns.allows(a, b), "{a} -> {b}");
            }
        }
    }
}
